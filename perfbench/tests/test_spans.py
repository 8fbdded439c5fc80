"""Self time = duration minus the union of child intervals."""

import pytest

from benchlib.spans import Span, Tracer, covered, self_times, summarize
from benchlib.stats import pct, tail_after_parallel


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2)
    assert covered([], 0, 10) == 0
    assert covered([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("pair", 0.0, 10.0, None, "a"),
        Span("trace.build", 1.0, 3.0, 0, "a"),
        Span("trace.walk", 1.5, 2.5, 1, "a"),
        Span("core.measure", 4.0, 9.0, 0, "a"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 5.0])
    table = summarize(spans)
    assert table["pair"]["self_s"] == pytest.approx(3.0)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(spans[0].duration)


def test_tracer_nests_and_extend_rebases_parents():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        t.add("added", 1.0, 2.0)
    assert [s.parent for s in t.spans] == [None, 0, 0]
    other = [Span("pair", 0, 4, None, "p"), Span("core.build", 1, 2, 0, "p")]
    t.extend(other, parent=0)
    assert [s.parent for s in t.spans[3:]] == [0, 3]


def test_tail_after_parallel():
    # Both lanes busy until 6 and again 6.5-7; one lane alone from 7; end at 10.
    assert tail_after_parallel([(0, 6), (0, 9), (6.5, 7)], 10, 2) == pytest.approx(3)
    assert tail_after_parallel([(0, 6), (0, 9)], 10, 2) == pytest.approx(4)
    assert tail_after_parallel([(0, 5)], 6, 2) == pytest.approx(6)


def test_pct_interpolates():
    assert pct([1, 2, 3, 4, 5], 50) == 3
    assert pct([7], 95) == 7
