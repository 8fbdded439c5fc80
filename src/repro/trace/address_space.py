"""Per-thread synthetic data address space: the hot/warm/cold tier model.

Layout (per hardware context, offset by a per-thread base so address spaces
never overlap — the workload builder spaces bases 1 GiB apart):

====== ================= =========================================
tier   region            behaviour (isolated thread, after warm-up)
====== ================= =========================================
hot    base + 0          ``hot_lines`` lines (default 4KB): stays L1-resident
warm   base + 64 MiB     a *set-concentrated* working set (see below): every
                         access misses the 64KB 2-way L1 but stays resident
                         in the 512KB L2 -> L1 miss, L2 hit
cold   base + 256 MiB    streams one new line per access over ``cold_lines``
                         lines (default 64MB): misses L1 *and* L2
stack  base + 512 MiB    store-heavy small region (hot-like)
====== ================= =========================================

Warm-tier construction. A naive cycle over consecutive lines cannot model
"misses L1, hits L2": a cycle short enough to be revisited within a scaled
trace occupies fewer than 2 ways per L1 set and therefore *hits* L1. Instead
the warm set is G set-groups x K tags, where the K tags of a group are
spaced ``L1_SETS`` lines apart — they all collide in one L1 set. With
K >= 3 > L1 associativity every warm access misses L1; with K <= 16 the
tags-per-L2-set stays <= L2 associativity so the warm set is L2-resident.
``G*K`` is scaled to the expected number of warm accesses in the trace so
each tag is revisited several times (steady state, not first-touch).

Every load draws a tier with probability (p_hot, p_warm, p_cold) taken from
the benchmark profile, so isolated L1/L2 miss rates land on Table 2(a) by
construction; in multithreaded runs the threads *share* L1/L2 and the extra
misses from interference emerge naturally — that is the effect the paper's
policies manage.
"""

from __future__ import annotations

from repro.trace.profiles import BenchmarkProfile
from repro.utils.rng import SplitMix64, u53_threshold

__all__ = [
    "AddressSpace",
    "LINE_BYTES",
    "L1_SETS",
    "HOT_OFFSET",
    "WARM_OFFSET",
    "COLD_OFFSET",
    "STACK_OFFSET",
    "CODE_OFFSET",
    "WRONGPATH_OFFSET",
]

LINE_BYTES = 64
#: L1 set count for the paper's fixed 64KB/2-way/64B L1 (all three machines).
L1_SETS = 512
#: L1 sets used by the warm tier start here, clear of the hot tier's sets.
_WARM_SET_BASE = 256
#: Raw draws fetched per refill of an address space's draw buffer.
_BLOCK = 4096
#: Most draws one ``load_address``/``store_address`` call consumes.
_MAX_DRAWS = 3
#: Integer threshold of the stores' 5% warm-tier share (see ``u53_threshold``).
_T_STORE_WARM = u53_threshold(0.05)

HOT_OFFSET = 0
WARM_OFFSET = 64 << 20
COLD_OFFSET = 256 << 20
STACK_OFFSET = 512 << 20
CODE_OFFSET = 768 << 20
WRONGPATH_OFFSET = 896 << 20


def set_stagger(base: int) -> int:
    """Per-thread cache-set offset (in lines) for a thread's regions.

    Thread bases are 1 GiB-aligned, so without staggering every thread's
    regions would map to the *same* cache sets (all hot tiers in sets 0..63,
    all code at set 0, ...) — a pathological alignment real processes do not
    exhibit (distinct virtual layouts / physical page colouring). 136 is
    coprime-ish with 512: thread offsets 0,136,272,408,32,168,304,440 spread
    the 8 contexts across the L1 index space.
    """
    return ((base >> 30) * 136) % L1_SETS


class AddressSpace:
    """Stateful address generator for one thread's loads and stores.

    ``expected_loads`` is the approximate number of loads the trace will
    contain; it sizes the warm working set so warm lines are revisited
    (several reuses per line) even in scaled-down traces.
    """

    __slots__ = (
        "profile",
        "base",
        "stagger",
        "_rng",
        "_buf",
        "_pos",
        "_limit",
        "_warm_ptr",
        "_cold_ptr",
        "_p_warm_cum",
        "_p_cold_cum",
        "_t_warm",
        "_t_cold",
        "warm_groups",
        "warm_tags",
        "_warm_set_base",
    )

    def __init__(
        self,
        profile: BenchmarkProfile,
        base: int,
        seed: int,
        expected_loads: int = 15_000,
    ) -> None:
        self.profile = profile
        self.base = base
        self.stagger = set_stagger(base)
        self._rng = SplitMix64(seed)
        # Draws come from a block buffer; ``_rng`` runs ahead of the draws
        # actually consumed until ``release_draws`` hands the rest back.
        self._buf: list[int] = []
        self._pos = 0
        self._limit = -_MAX_DRAWS
        self._warm_ptr = 0
        self._cold_ptr = self.stagger
        self._p_cold_cum = profile.p_cold
        self._p_warm_cum = profile.p_cold + profile.p_warm
        self._t_cold = u53_threshold(self._p_cold_cum)
        self._t_warm = u53_threshold(self._p_warm_cum)
        self._warm_set_base = (_WARM_SET_BASE + self.stagger) % L1_SETS

        # Size the warm set to ~6 reuses per tag, within hardware bounds:
        # K in [3, 16] (must beat L1 assoc, must fit L2 assoc per set).
        n_warm = max(1.0, expected_loads * profile.p_warm)
        target_slots = max(24.0, min(256.0, n_warm / 6.0))
        groups = 16 if target_slots >= 128 else 8
        tags = int(round(target_slots / groups))
        self.warm_groups = groups
        self.warm_tags = min(16, max(3, tags))

    def load_address(self) -> int:
        """Next load effective address."""
        pos = self._pos
        if pos > self._limit:
            pos = self._refill()
        buf = self._buf
        k = buf[pos] >> 11  # next_float() < p  <=>  k < u53_threshold(p)
        if k < self._t_cold:
            # Streaming tier: a brand-new line every access.
            self._pos = pos + 1
            addr = (
                self.base
                + COLD_OFFSET
                + (self._cold_ptr % self.profile.cold_lines) * LINE_BYTES
            )
            self._cold_ptr += 1
            return addr
        if k < self._t_warm:
            self._pos = pos + 1
            return self._warm_address()
        # Hot tier: random line within an L1-resident set.
        self._pos = pos + 3
        line = self.stagger + buf[pos + 1] % self.profile.hot_lines
        offset = (buf[pos + 2] >> 32) & (LINE_BYTES - 8)
        return self.base + HOT_OFFSET + line * LINE_BYTES + offset

    def _warm_address(self) -> int:
        """Next warm-tier address: G set-groups x K same-set tags, round-robin."""
        ptr = self._warm_ptr
        self._warm_ptr = ptr + 1
        g = ptr % self.warm_groups
        k = (ptr // self.warm_groups) % self.warm_tags
        line = self._warm_set_base + g + k * L1_SETS
        return self.base + WARM_OFFSET + line * LINE_BYTES

    def store_address(self) -> int:
        """Next store effective address.

        Stores overwhelmingly target the stack/hot data in SPECINT; a small
        warm share keeps write-allocate traffic realistic without disturbing
        the calibrated *load* miss rates.
        """
        pos = self._pos
        if pos > self._limit:
            pos = self._refill()
        buf = self._buf
        if buf[pos] >> 11 < _T_STORE_WARM:
            self._pos = pos + 1
            return self._warm_address()
        self._pos = pos + 2
        line = self.stagger + buf[pos + 1] % max(16, self.profile.hot_lines // 2)
        return self.base + STACK_OFFSET + line * LINE_BYTES

    def _refill(self) -> int:
        """Append a fresh block to the unconsumed draws; returns the new
        read position (0)."""
        self._buf = self._buf[self._pos :] + self._rng.block(_BLOCK)
        self._pos = 0
        self._limit = len(self._buf) - _MAX_DRAWS
        return 0

    def release_draws(self) -> None:
        """Drop the draw buffer and rewind the generator past the draws
        never consumed, leaving exactly the state scalar draws would have.

        The trace walk calls this when it finishes, so a walked trace does
        not keep a block of spare draws alive for its whole lifetime.
        """
        self._rng.advance(self._pos - len(self._buf))
        self._buf = []
        self._pos = 0
        self._limit = -_MAX_DRAWS

    # -- cache pre-warming ---------------------------------------------------

    def l1_resident_lines(self) -> list[int]:
        """Byte-addressed lines that are L1-resident in steady state (the hot
        and stack tiers). Used by the simulator's cache pre-warming so scaled
        -down runs start in steady state instead of measuring first-touch
        transients (see SimulationConfig.prewarm_caches)."""
        stagger = self.stagger
        lines = [
            self.base + HOT_OFFSET + (stagger + i) * LINE_BYTES
            for i in range(self.profile.hot_lines)
        ]
        lines += [
            self.base + STACK_OFFSET + (stagger + i) * LINE_BYTES
            for i in range(max(16, self.profile.hot_lines // 2))
        ]
        return lines

    def l2_resident_lines(self) -> list[int]:
        """Byte-addressed lines that are L2-resident in steady state (the
        warm tier's full footprint)."""
        lines: list[int] = []
        for g in range(self.warm_groups):
            for k in range(self.warm_tags):
                line = self._warm_set_base + g + k * L1_SETS
                lines.append(self.base + WARM_OFFSET + line * LINE_BYTES)
        return lines

    # -- introspection ------------------------------------------------------

    @property
    def tier_probabilities(self) -> tuple[float, float, float]:
        """(p_hot, p_warm, p_cold) actually in use."""
        return (
            1.0 - self._p_warm_cum,
            self._p_warm_cum - self._p_cold_cum,
            self._p_cold_cum,
        )

    @property
    def warm_footprint_bytes(self) -> int:
        return self.warm_groups * self.warm_tags * LINE_BYTES
