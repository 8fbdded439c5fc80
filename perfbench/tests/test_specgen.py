"""svc-mixed traffic: each miss spec once, a fixed repeat share, repeats
only of completed specs."""

from benchlib.specgen import (
    LEAD,
    POLICIES,
    REPEAT_EVERY,
    WORKLOADS,
    Dispatcher,
    build_plan,
    spec_key,
    spec_pool,
)


def test_every_miss_spec_exactly_once():
    lane = spec_pool(5)[::2]  # any subset, as a client's share of the pool
    plan = build_plan(7, lane)
    misses = [spec_key(s) for kind, s in plan if kind == "miss"]
    assert sorted(misses) == sorted(spec_key(s) for s in lane)
    assert len(set(misses)) == len(misses)


def test_repeat_share_holds_on_every_prefix():
    plan = build_plan(3, spec_pool(4))
    repeats = 0
    for n, (kind, spec) in enumerate(plan, 1):
        repeats += kind == "repeat"
        assert repeats == max(0, n - LEAD) // REPEAT_EVERY
        assert (spec is None) == (kind == "repeat")
    assert all(kind == "miss" for kind, _ in plan[:LEAD])


def test_seed_orders_within_blocks_only():
    a, b = build_plan(1, spec_pool(3)), build_plan(2, spec_pool(3))
    assert a == build_plan(1, spec_pool(3))
    assert [k for k, _ in a] == [k for k, _ in b]
    block = len(WORKLOADS) * len(POLICIES)
    first = [s for k, s in a if k == "miss"][:block]
    assert {s["seed"] for s in first} == {0}
    assert a != b


def test_repeats_target_misses_the_client_completed():
    plan = build_plan(11, spec_pool(6))
    disp = Dispatcher(plan, seed=11)
    completed: set[str] = set()
    handed = []
    while (op := disp.next()) is not None:
        _, kind, spec = op
        key = spec_key(spec)
        assert kind == "miss" or key in completed
        handed.append((kind, key))
        if kind == "miss":
            completed.add(key)
            disp.completed(spec)
    assert len(handed) == len(plan)
    assert len(completed) == len(spec_pool(6))


def test_limit_stops_and_resumes_the_plan():
    disp = Dispatcher(build_plan(5, spec_pool(2)), seed=5)
    disp.limit = 3
    taken = []
    while (op := disp.next()) is not None:
        taken.append(op[0])
        if op[1] == "miss":
            disp.completed(op[2])
    assert taken == [0, 1, 2]
    disp.limit = 5
    assert [disp.next()[0], disp.next()[0], disp.next()] == [3, 4, None]
