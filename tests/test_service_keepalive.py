"""Keep-alive transport: connection reuse on every unary hop, and drains.

Every unary request — client to router, router to shard, client to shard —
rides a persistent HTTP/1.1 connection. What these tests pin:

- ``ServiceClient`` keeps one connection per thread: two calls on one
  thread share a server-side connection, two threads use two.
- A connection the server closed while it sat idle costs the client one
  transparent resend on a fresh connection and no backoff sleep; the
  router's shard pool does the same, and only a failed *fresh* connection
  reaches the caller (which marks the shard down).
- After a shard restarts in place, the router's next request to it
  succeeds without a 503 and without counting the shard down.
- A request sent with ``Connection: close`` is still answered with
  ``close``.
- SIGTERM drains ``serve`` and ``route`` promptly while a client holds an
  idle keep-alive connection (``Server.wait_closed`` waits for open
  connections on Python 3.12+), with exit 0 and no traceback.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.service import client as client_mod
from repro.service.client import ServiceClient
from repro.service.http import ConnectionPool
from repro.service.loadtest import Fleet, LoadTestConfig


class CountingServer:
    """HTTP/1.1 keep-alive server that records the client port of every
    request (one port per connection). With ``close_after_reply`` it closes
    each connection right after a reply that announced ``keep-alive``, as
    an idle timeout would."""

    def __init__(self, close_after_reply: bool = False):
        self.peers: list[int] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802  (stdlib naming)
                outer.peers.append(self.client_address[1])
                body = json.dumps({"status": "ok"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Connection", "keep-alive")
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = close_after_reply

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.httpd.server_address[1]
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


class TestClientConnectionReuse:
    def test_one_connection_per_thread(self):
        srv = CountingServer()
        try:
            client = ServiceClient("127.0.0.1", srv.port, timeout=5.0)
            client.healthz()
            client.healthz()
            assert len(srv.peers) == 2
            assert len(set(srv.peers)) == 1  # same thread: one connection

            other = threading.Thread(target=client.healthz)
            other.start()
            other.join()
            assert len(set(srv.peers)) == 2  # another thread: its own
        finally:
            srv.close()

    def test_idle_close_costs_one_resend_and_no_sleep(self, monkeypatch):
        srv = CountingServer(close_after_reply=True)
        sleeps: list[float] = []
        try:
            client = ServiceClient("127.0.0.1", srv.port, timeout=5.0, retries=0)
            client.healthz()
            time.sleep(0.2)  # the server has closed the idle connection
            monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
            # retries=0: only the transparent resend can rescue this call.
            assert client.healthz() == {"status": "ok"}
            assert len(srv.peers) == 2 and len(set(srv.peers)) == 2
            assert sleeps == []
        finally:
            srv.close()


async def _scripted_shard(replies_per_conn: int, conns: list[int]):
    """An asyncio server answering ``replies_per_conn`` requests per
    connection, then reading one more request and closing without a reply
    — a pooled connection that dies just as it is reused."""

    async def handle(reader, writer):
        conns.append(len(conns))
        for _ in range(replies_per_conn):
            await reader.readuntil(b"\r\n\r\n")
            body = b'{"ok": true}'
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
        with_request = await reader.readuntil(b"\r\n\r\n")
        assert with_request
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


class TestShardPool:
    def test_dead_pooled_connection_is_resent_once(self):
        async def scenario():
            conns: list[int] = []
            server = await _scripted_shard(1, conns)
            port = server.sockets[0].getsockname()[1]
            pool = ConnectionPool("127.0.0.1", port)
            try:
                assert (await pool.fetch_json("GET", "/a"))[:2] == (200, {"ok": True})
                # The pooled connection dies on reuse; the resend succeeds.
                assert (await pool.fetch_json("GET", "/b"))[:2] == (200, {"ok": True})
                assert len(conns) == 2
            finally:
                pool.close()
                server.close()

        asyncio.run(scenario())

    def test_failure_on_a_fresh_connection_reaches_the_caller(self):
        async def scenario():
            conns: list[int] = []
            server = await _scripted_shard(0, conns)
            port = server.sockets[0].getsockname()[1]
            pool = ConnectionPool("127.0.0.1", port)
            try:
                with pytest.raises(ConnectionError):
                    await pool.fetch_json("GET", "/a")
                assert len(conns) == 1  # no resend of a fresh connection
            finally:
                pool.close()
                server.close()

        asyncio.run(scenario())


class TestRouterAcrossShardRestart:
    def test_restarted_shard_answers_without_503(self, tmp_path):
        fleet = Fleet(LoadTestConfig(shards=2), tmp_path)
        try:
            port = fleet.boot()
            client = ServiceClient("127.0.0.1", port, timeout=10.0, retries=20, backoff=0.05)
            # A prefixed id routes to s0 without simulating anything; the
            # router keeps the connection it used in s0's pool.
            status, _, _ = client.request("GET", "/v1/jobs/s0@nonexistent")
            assert status == 404
            before = client.metrics()["router"]

            fleet.restart_shard(0)
            status, payload, _ = client.request("GET", "/v1/jobs/s0@nonexistent")
            assert status == 404, payload
            after = client.metrics()["router"]
            assert after["shard_down"] == before["shard_down"]
            assert after["unavailable"] == before["unavailable"]
        finally:
            fleet.stop()


def _boot(argv: list[str], port_file: Path) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv, "--port", "0", "--port-file", str(port_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"{argv[0]} died at boot: {proc.stderr.read()}")
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text())
        time.sleep(0.02)
    proc.kill()
    raise RuntimeError(f"{argv[0]} never wrote its port file")


def _get(conn: http.client.HTTPConnection, path: str, **headers: str):
    conn.request("GET", path, headers=headers)
    resp = conn.getresponse()
    resp.read()
    return resp


@pytest.fixture
def shard_and_router(tmp_path):
    shard, shard_port = _boot(["serve", "--store", str(tmp_path / "s.jsonl")], tmp_path / "sp")
    procs = [shard]
    try:
        router, router_port = _boot(
            ["route", "--shard", f"127.0.0.1:{shard_port}"], tmp_path / "rp"
        )
        procs.append(router)
        yield {"serve": (shard, shard_port), "route": (router, router_port)}
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=10)


@pytest.mark.parametrize("role", ["serve", "route"])
class TestConnectionHeader:
    def test_close_request_is_answered_with_close(self, shard_and_router, role):
        _, port = shard_and_router[role]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            assert _get(conn, "/healthz").getheader("Connection") == "keep-alive"
            resp = _get(conn, "/healthz", Connection="close")
            assert resp.status == 200
            assert resp.getheader("Connection") == "close"
            assert conn.sock is None  # http.client saw the close and let go
        finally:
            conn.close()


@pytest.mark.parametrize("role", ["serve", "route"])
class TestDrainWithIdleConnection:
    def test_sigterm_exits_promptly(self, shard_and_router, role):
        proc, port = shard_and_router[role]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            # /healthz through the router also leaves a pooled router->shard
            # connection idle on the shard.
            assert _get(conn, "/healthz").getheader("Connection") == "keep-alive"
            t0 = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            conn.close()
        assert proc.returncode == 0, err
        assert elapsed < 5.0
        assert "drained" in out
        assert "Traceback" not in err
