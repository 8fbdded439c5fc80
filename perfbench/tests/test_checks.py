"""The digest check flags any perturbed result."""

import math

from benchlib.checks import compare, digest_hash, invariant_problems, result_digest


def _digests():
    return {
        "2-MIX/dwarn/s12345": result_digest(6000, [9000, 4500], [1.5, 0.75]),
        "4-MEM/icount/s12345": result_digest(6000, [3000, 2000, 1000, 600], [0.5, 1 / 3, 1 / 6, 0.1]),
    }


def test_identical_results_pass():
    assert compare(_digests(), _digests()) == []
    assert digest_hash(_digests()) == digest_hash(_digests())


def test_perturbed_committed_count_is_caught():
    got = _digests()
    got["4-MEM/icount/s12345"]["committed"][2] += 1
    assert compare(_digests(), got) == ["4-MEM/icount/s12345"]
    assert digest_hash(got) != digest_hash(_digests())


def test_one_ulp_throughput_change_is_caught():
    got = _digests()
    thr = float(got["2-MIX/dwarn/s12345"]["throughput"])
    got["2-MIX/dwarn/s12345"]["throughput"] = repr(math.nextafter(thr, math.inf))
    assert compare(_digests(), got) == ["2-MIX/dwarn/s12345"]


def test_unexpected_key_is_caught_and_subset_is_judged():
    got = {"8-ILP/pdg/s1": result_digest(10, [1], [0.1])}
    assert compare(_digests(), got) == ["8-ILP/pdg/s1"]
    subset = {"2-MIX/dwarn/s12345": _digests()["2-MIX/dwarn/s12345"]}
    assert compare(_digests(), subset) == []


def test_invariants():
    d = result_digest(6000, [9000, 4500], [1.5, 0.75])
    assert invariant_problems("k", d, 2) == []
    assert invariant_problems("k", d, 4)  # wrong thread count
    bad = dict(d, throughput=repr(2.0))
    assert invariant_problems("k", bad, 2)  # throughput != committed / cycles
