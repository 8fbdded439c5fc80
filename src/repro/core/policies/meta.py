"""Meta-policy: dynamic per-interval selection among the paper's six.

The paper's evaluation (and every experiment in this repo before this
module) fixes one fetch policy for a whole run. But the policies' relative
strengths are *workload-phase* properties: ICOUNT wins when nobody misses,
DWarn when L1 pressure is building, STALL/FLUSH only once L2 misses are
confirmed and there are threads to absorb the stall. Following "Beyond
Static Policies: Exploring Dynamic Policy Selection" (PAPERS.md), the
meta-policy samples the same per-interval features the
:mod:`repro.obs.interval` collector exports — per-thread committed/IPC
deltas, the ``dmiss`` warn counters, outstanding L2 misses from a ROB scan,
fetch-group occupancy — and switches the *active* underlying policy at
interval boundaries, with hysteresis so measurement noise cannot thrash it.

Decision table (first matching row wins; ``n`` = hardware contexts,
``warned`` = threads with ``dmiss >= 1`` — DWarn's Dmiss fetch group —
``confirmed`` = threads with at least one outstanding *confirmed* L2-miss
load in their ROB):

======  =============================  ==========  =========================
row     condition                      candidate   rationale
======  =============================  ==========  =========================
1       warned == 0 and confirmed == 0 ``icount``  no memory pressure at all
2       confirmed == 0, warned <= n/2  ``dwarn``   L1 pressure, minority:
                                                   deprioritize, don't gate
3       confirmed == 0 (warned > n/2)  ``pdg``     majority warned: predict
                                                   at fetch, gate early
4       confirmed < warned             ``dg``      L1 pressure beyond the
                                                   confirmed misses: gate on
                                                   the warn counter itself
5       confirmed <= n/2               ``stall``   confirmed minority: park
                                                   them, others absorb
6       otherwise                      ``flush``   confirmed majority: free
                                                   their resources outright
======  =============================  ==========  =========================

Hysteresis: a challenger must win ``hysteresis`` consecutive interval
decisions before the switch happens (the streak resets whenever the winner
changes). One bypass: when the interval's aggregate IPC collapses to less
than half of the previous interval's, the switch fires immediately — a
phase change that sharp costs more to ride out than to mis-switch on.

Everything the meta-policy reads is deterministic simulator state, and the
interval boundary is a scheduled ``EV_CALL`` event — a typed entry in the
event wheel that the staged and fused engines drain identically.
Decisions are therefore deterministic given (trace, seed, interval,
hysteresis) and bit-identical across engines — the parity tests enforce
this.

Sub-policy bookkeeping stays coherent across switches: *accounting* hooks
(load fetched/executed, fills, squashes) are forwarded to every sub-policy
that subscribes — PDG's per-load counting protocol must see every event or
its counters go stale — while *action* hooks (declared/confirmed L2 miss,
D-TLB miss) reach only the active policy, so only it gates or flushes. All
gating sub-policies share ONE gate-counter array (the meta-policy's), so a
gate taken under STALL keeps counting down — and keeps being honoured —
after a switch to FLUSH or DWarn, and the engines' hoisted
``EV_UNGATE``/``EV_HYBRID_GATE`` handlers (which read the attached
policy's ``_gate_count``/``gate_until_fill``) stay correct.
"""

from __future__ import annotations

import re

from repro.core.policies.base import FetchPolicy, GatingMixin
from repro.core.policies.dg import DataGatingPolicy
from repro.core.policies.dwarn import DWarnPolicy
from repro.core.policies.flush import FlushPolicy
from repro.core.policies.icount import ICountPolicy
from repro.core.policies.pdg import PredictiveDataGatingPolicy
from repro.core.policies.stall import StallPolicy
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import OpClass

__all__ = [
    "META_POLICY_VERSION",
    "DEFAULT_INTERVAL",
    "DEFAULT_HYSTERESIS",
    "MetaPolicy",
    "canonical_policy_name",
    "parse_meta_name",
]

#: Bump when the decision table, feature set, or switch protocol changes —
#: any of these silently changes results, so the version is part of
#: ``dwarn-sim version`` and of the service's result-cache keying story.
META_POLICY_VERSION = 1

DEFAULT_INTERVAL = 256
DEFAULT_HYSTERESIS = 2

#: ``meta`` / ``meta-w<interval>`` / ``meta-w<interval>-h<hysteresis>``.
_META_NAME_RE = re.compile(r"^meta(?:-w(\d{1,7}))?(?:-h(\d{1,3}))?$")

_OP_LOAD = int(OpClass.LOAD)


def parse_meta_name(name: str) -> tuple[int, int] | None:
    """Decode a parameterized meta-policy name to (interval, hysteresis).

    Returns None for anything that is not a meta spelling. Raises
    ValueError for a meta spelling with out-of-range knobs, so callers can
    distinguish "not meta" from "meta, but invalid".
    """
    m = _META_NAME_RE.match(name)
    if m is None:
        return None
    interval = int(m.group(1)) if m.group(1) else DEFAULT_INTERVAL
    hysteresis = int(m.group(2)) if m.group(2) else DEFAULT_HYSTERESIS
    _check_knobs(interval, hysteresis)
    return interval, hysteresis


def canonical_policy_name(name: str) -> str:
    """Collapse equivalent policy-name spellings to one canonical form.

    ``meta-w256-h2`` == ``meta-w256`` == ``meta-h2`` == ``meta`` (the
    defaults); non-default knobs always spell both, in ``-w...-h...``
    order. Non-meta names pass through untouched. The service folds this
    into job-spec canonical JSON so every spelling of the same
    configuration shares one dedup/cache key.
    """
    try:
        params = parse_meta_name(name)
    except ValueError:
        return name  # let full validation produce the real error
    if params is None:
        return name
    return meta_policy_name(*params)


def meta_policy_name(interval: int, hysteresis: int) -> str:
    """The canonical name for a (interval, hysteresis) configuration."""
    if (interval, hysteresis) == (DEFAULT_INTERVAL, DEFAULT_HYSTERESIS):
        return "meta"
    return f"meta-w{interval}-h{hysteresis}"


def _check_knobs(interval: int, hysteresis: int) -> None:
    if not 32 <= interval <= 1_000_000:
        raise ValueError(f"meta interval must be in 32..1000000, got {interval}")
    if not 1 <= hysteresis <= 100:
        raise ValueError(f"meta hysteresis must be in 1..100, got {hysteresis}")


class MetaPolicy(GatingMixin, FetchPolicy):
    """Dynamic fetch-policy selection over the six paper policies."""

    name = "meta"

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        hysteresis: int = DEFAULT_HYSTERESIS,
    ) -> None:
        super().__init__()
        _check_knobs(interval, hysteresis)
        self.interval = interval
        self.hysteresis = hysteresis
        self.name = meta_policy_name(interval, hysteresis)
        # Fresh sub-policy instances per meta instance: policies hold
        # per-run state and are never shared between simulations.
        self._subs: dict[str, FetchPolicy] = {
            "icount": ICountPolicy(),
            "stall": StallPolicy(),
            "flush": FlushPolicy(),
            "dg": DataGatingPolicy(),
            "pdg": PredictiveDataGatingPolicy(),
            "dwarn": DWarnPolicy(),
        }
        subs = self._subs.values()
        # Instance-level hook subscriptions: the union over sub-policies.
        # Must be set before attach — the simulator caches the load-hook
        # flags at construction time.
        self.wants_load_fetch = any(s.wants_load_fetch for s in subs)
        self.wants_load_exec = any(s.wants_load_exec for s in subs)
        self.wants_squash = any(s.wants_squash for s in subs)
        # The delegated order is cacheable iff every sub's is (it is: all
        # six paper policies only reorder at order_dirty mutation points,
        # and the interval switch raises order_dirty itself).
        self.cacheable_order = all(s.cacheable_order for s in subs)

        self._active: FetchPolicy = self._subs["icount"]
        #: (cycle, from_name, to_name) for every executed switch.
        self.switches: list[tuple[int, str, str]] = []
        self._streak_name: str | None = None
        self._streak = 0
        self._prev_ipc = -1.0
        self._base_committed: list[int] = []
        self.last_features: dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        self.setup_gating()
        sim = self.sim
        for sub in self._subs.values():
            sub.attach(sim)
            if hasattr(sub, "_gate_count"):
                # One shared gate-counter array across meta + all gating
                # subs: gates persist across switches, and the engines'
                # hoisted EV_UNGATE handler (which decrements the attached
                # policy's array) reaches every sub's view of the state.
                sub._gate_count = self._gate_count
        # Hook-forwarding lists: every sub that actually overrides the
        # accounting hook, in registry order (deterministic).
        base = FetchPolicy
        self._fwd_load_fetched = [
            s for s in self._subs.values()
            if type(s).on_load_fetched is not base.on_load_fetched
        ]
        self._fwd_load_executed = [
            s for s in self._subs.values()
            if type(s).on_load_executed is not base.on_load_executed
        ]
        self._fwd_l1d_fill = [
            s for s in self._subs.values()
            if type(s).on_l1d_fill is not base.on_l1d_fill
        ]
        self._fwd_l1d_miss = [
            s for s in self._subs.values()
            if type(s).on_l1d_miss is not base.on_l1d_miss
        ]
        self._fwd_squash = [
            s for s in self._subs.values()
            if type(s).on_squash_instr is not base.on_squash_instr
        ]
        self._base_committed = list(sim.stats.totals()["committed"])
        sim.schedule_call(sim.cycle + self.interval, self._on_interval)

    # -- the decision ---------------------------------------------------------

    def fetch_order(self) -> list[int]:
        return self._active.fetch_order()

    def explain_thread(self, info: dict, tc) -> None:
        self._active.explain_thread(info, tc)
        info["active_policy"] = self._active.name
        info["meta_switches"] = len(self.switches)

    # -- interval machinery ----------------------------------------------------

    def _features(self) -> tuple[int, int, float]:
        """(warned, confirmed, interval IPC) from live simulator state."""
        sim = self.sim
        warned = 0
        confirmed = 0
        for tc in sim.threads:
            if tc.dmiss >= 1:
                warned += 1
            for i in tc.rob:
                if i.op == _OP_LOAD and i.issued and not i.completed and i.l2_miss:
                    confirmed += 1
                    break
        committed = sim.stats.totals()["committed"]
        delta = sum(committed) - sum(self._base_committed)
        self._base_committed = list(committed)
        return warned, confirmed, delta / self.interval

    def _decide(self, warned: int, confirmed: int) -> str:
        """The decision table from the module docstring (first match wins)."""
        n = self.sim.num_threads
        if confirmed == 0:
            if warned == 0:
                return "icount"
            if 2 * warned <= n:
                return "dwarn"
            return "pdg"
        if confirmed < warned:
            return "dg"
        if 2 * confirmed <= n:
            return "stall"
        return "flush"

    def _on_interval(self) -> None:
        """Interval-boundary callback (an EV_CALL event in the wheel)."""
        sim = self.sim
        warned, confirmed, ipc = self._features()
        candidate = self._decide(warned, confirmed)
        ipc_collapse = 0.0 <= ipc < 0.5 * self._prev_ipc
        self._prev_ipc = ipc
        self.last_features = {
            "warned": warned,
            "confirmed": confirmed,
            "ipc": ipc,
            "candidate": candidate,
            "active": self._active.name,
        }
        if candidate == self._active.name:
            self._streak_name = None
            self._streak = 0
        else:
            if candidate == self._streak_name:
                self._streak += 1
            else:
                self._streak_name = candidate
                self._streak = 1
            if self._streak >= self.hysteresis or ipc_collapse:
                self.switches.append((sim.cycle, self._active.name, candidate))
                self._active = self._subs[candidate]
                self._streak_name = None
                self._streak = 0
                # The delegated ranking changed wholesale; the engines
                # re-read order_dirty at the next fetch.
                sim.order_dirty = True
        sim.schedule_call(sim.cycle + self.interval, self._on_interval)

    # -- hook forwarding --------------------------------------------------------
    #
    # Accounting hooks go to every subscribed sub (bookkeeping must stay
    # coherent while inactive); action hooks go to the active policy only.

    def on_load_fetched(self, i: DynInstr) -> None:
        for s in self._fwd_load_fetched:
            s.on_load_fetched(i)

    def on_load_executed(self, i: DynInstr) -> None:
        for s in self._fwd_load_executed:
            s.on_load_executed(i)

    def on_l1d_fill(self, i: DynInstr) -> None:
        for s in self._fwd_l1d_fill:
            s.on_l1d_fill(i)

    def on_l1d_miss(self, i: DynInstr) -> None:
        for s in self._fwd_l1d_miss:
            s.on_l1d_miss(i)

    def on_squash_instr(self, i: DynInstr) -> None:
        for s in self._fwd_squash:
            s.on_squash_instr(i)

    def on_l2_declared(self, i: DynInstr) -> None:
        self._active.on_l2_declared(i)

    def on_l2_miss(self, i: DynInstr) -> None:
        self._active.on_l2_miss(i)

    def on_dtlb_miss(self, i: DynInstr) -> None:
        self._active.on_dtlb_miss(i)
