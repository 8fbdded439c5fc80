"""Golden pins for synthetic trace generation.

Every trace is a pure function of ``(profile, length, base, seed, instance)``,
and the persisted artifacts, result digests and paper checks all assume that
function never drifts. These pins hash the version-1 artifact encoding of one
small trace per profile (plus a duplicate instance with a nonzero base per
profile family) and record the address space's generator state after the
walk, so any change to the walk's draw order, thresholds or record layout
fails here first, with the profile named.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.trace import SyntheticTrace, get_profile
from repro.trace.artifact import _encode
from repro.trace.codegen import CodeLayout
from repro.trace.profiles import PROFILES
from repro.utils.rng import derive_seed, u53_threshold

_LENGTH = 3000
_SEED = 777

#: (artifact SHA-256, (address rng state, warm pointer, cold pointer)) for
#: instance 0 at base 1 GiB.
_GOLDEN: dict[str, tuple[str, tuple[int, int, int]]] = {
    "mcf": (
        "e6cf969bb926e8b9a9544260cefa72f8f9963fa7bf09b556ba5b9f4813fdb39c",
        (4872255888687599937, 43, 424),
    ),
    "twolf": (
        "ff2ce1458ccd68b997e8306d95343690d0b26b946f037dbfbb742501ef042607",
        (1752844158870156438, 31, 160),
    ),
    "vpr": (
        "2e43c0143a32279875cb3487e6657143e45015bc3cbdab0949199f2978e5dabf",
        (17001005635449400346, 40, 155),
    ),
    "parser": (
        "00cca6b91873983e3d31dbece575757a7ba85e5cee484f3e241d391e7b14faa8",
        (4294204404853754185, 23, 141),
    ),
    "gap": (
        "09c9a7cf36d404d5876cbb7e189f034986f0f0116799e3892433522e70aaab8e",
        (16480242729121477509, 17, 141),
    ),
    "vortex": (
        "28274671f5a415917d4bdb148b840acfb0339e10b7d3cb7d875506c2bd479211",
        (10718417596376205354, 28, 136),
    ),
    "gcc": (
        "f51b4335cbc470b2cb428da6c3d0bb9504f8e2c18f49cca5aa5139c2d3c6a19a",
        (5300323929927465398, 22, 137),
    ),
    "perlbmk": (
        "79667af1aaee4417352e7f8d31546b4c783e5ae9d08c1e1c2428c4b4cfc1ed86",
        (10197654690664376294, 24, 137),
    ),
    "bzip2": (
        "ac4724fb2777bcf52ece1751bdf03026f482c17defeda97d14d995a3323e4da9",
        (13788899041087581805, 19, 137),
    ),
    "crafty": (
        "6040572f438ba162328d2fe9a3379939bc5c6094852b281aace00f9a42bbf78d",
        (8834279701469366463, 11, 136),
    ),
    "gzip": (
        "1ad779e00ddceb07b0dfd85ca512255c6f688ab58532797ce267224bc47aa7af",
        (14896071722201027935, 34, 137),
    ),
    "eon": (
        "9d0da0917d6922a2cc4a3263872dd2a0552b625d8944762bc5b9240d714ae530",
        (4422305558936315438, 18, 136),
    ),
}

#: Duplicate instances (instance 1 at base 3 GiB), one per profile family.
_GOLDEN_DUP: dict[str, tuple[str, tuple[int, int, int]]] = {
    "mcf": (
        "032773bf896b576706aef1df8154b6e2be4a302b58fc0d4ebbdbd34ea2acb1e5",
        (11397522237089018094, 31, 693),
    ),
    "gzip": (
        "4324b386886b04b6889ec321341814e25fb71e2e9557322e0bd76cab857e8470",
        (16352141574903962766, 27, 408),
    ),
}


def _pin(name: str, base: int, instance: int) -> tuple[str, tuple[int, int, int]]:
    trace = SyntheticTrace(get_profile(name), _LENGTH, base, _SEED, instance)
    aspace = trace.aspace
    digest = hashlib.sha256(_encode(trace)).hexdigest()
    return digest, (aspace._rng._state, aspace._warm_ptr, aspace._cold_ptr)


def test_every_profile_is_pinned():
    assert set(_GOLDEN) == set(PROFILES)
    families = {PROFILES[n].thread_type for n in _GOLDEN_DUP}
    assert families == {"MEM", "ILP"}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_trace_matches_golden(name):
    assert _pin(name, 1 << 30, 0) == _GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_GOLDEN_DUP))
def test_duplicate_instance_matches_golden(name):
    assert _pin(name, 3 << 30, 1) == _GOLDEN_DUP[name]


def _walk_fractions(name: str) -> set[float]:
    """Every probability the walk and its address space compare a uniform
    float against, for one profile (block biases from the code layout of
    its pinned instance-0 trace included)."""
    p = PROFILES[name]
    non_branch = 1.0 - p.branch_frac
    cum_load = p.load_frac / non_branch
    cum_store = cum_load + p.store_frac / non_branch
    cum_fp = cum_store + p.fp_frac / non_branch
    fracs = {cum_load, cum_store, cum_fp, p.load_indep_frac, p.load_use_frac, 0.5}
    fracs |= {p.p_cold, p.p_cold + p.p_warm, 0.05}
    layout = CodeLayout(p, 0, derive_seed(_SEED, "code", name, 0))
    fracs |= {b.bias for b in layout.blocks if 0.25 <= b.bias <= 0.75}
    return fracs


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_integer_threshold_matches_float_compare(name):
    scale = 1.0 / (1 << 53)
    for x in _walk_fractions(name):
        t = u53_threshold(x)
        assert t == math.ceil(x * 2**53)
        for k in (t - 1, t):
            if 0 <= k < 1 << 53:
                assert (k < t) == (k * scale < x), (x, k)
