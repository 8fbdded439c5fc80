"""The synthetic trace generator: a dynamic walk over the CFG.

A trace is the *correct-path* dynamic instruction sequence of one thread:
parallel, immutable lists (struct-of-arrays — the hot fetch loop indexes
plain Python lists, the fastest random-access container for this pattern).
Index ``i+1`` is always the architectural successor of index ``i``; the final
record is patched into an unconditional jump back to index 0 so traces wrap
seamlessly when a simulated thread outruns its trace.

Traces are cached per (profile, length, seed, base, instance): the cache
makes sweeping 6 policies over the same workload pay generation cost once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.isa.opcodes import BranchKind, OpClass
from repro.isa.registers import REG_NONE
from repro.trace.address_space import CODE_OFFSET, LINE_BYTES, AddressSpace, set_stagger
from repro.trace.codegen import INSTR_BYTES, CodeLayout
from repro.trace.profiles import BenchmarkProfile
from repro.utils.rng import SplitMix64, derive_seed, u53_threshold

if TYPE_CHECKING:
    from repro.trace.artifact import TraceArtifactCache

__all__ = [
    "SyntheticTrace",
    "generate_trace",
    "clear_trace_cache",
    "set_trace_artifact_cache",
    "get_trace_artifact_cache",
    "trace_cache_stats",
]

_MAX_CALL_DEPTH = 64
#: Raw draws fetched per refill of the walk's draw buffer.
_BLOCK = 4096
#: Most draws one record consumes (a load: op, base-register choice, source,
#: destination, load-use; a conditional branch: two countdowns, source).
_MAX_DRAWS_PER_RECORD = 5


class SyntheticTrace:
    """Immutable per-thread instruction trace (struct-of-arrays)."""

    __slots__ = (
        "profile",
        "length",
        "base",
        "seed",
        "instance",
        "layout",
        "aspace",
        # parallel record arrays
        "pc",
        "op",
        "dest",
        "src1",
        "src2",
        "addr",
        "brkind",
        "taken",
        "target",
        "rec",
    )

    def __init__(
        self, profile: BenchmarkProfile, length: int, base: int, seed: int, instance: int
    ) -> None:
        walk_seed = self._init_static(profile, length, base, seed, instance)
        self.pc: list[int] = []
        self.op: list[int] = []
        self.dest: list[int] = []
        self.src1: list[int] = []
        self.src2: list[int] = []
        self.addr: list[int] = []
        self.brkind: list[int] = []
        self.taken: list[bool] = []
        self.target: list[int] = []
        self._walk(SplitMix64(walk_seed), self.aspace)
        self._patch_wrap()
        self._pack_records()

    def _init_static(
        self, profile: BenchmarkProfile, length: int, base: int, seed: int, instance: int
    ) -> int:
        """Set every field that is a cheap deterministic function of the key
        (metadata, code layout, address space); returns the walk seed.

        Shared by generation and artifact loading: the *walk* is the only
        expensive step, so a disk-loaded trace redoes everything here and
        skips only the walk.
        """
        self.profile = profile
        self.length = length
        self.base = base
        self.seed = seed
        self.instance = instance
        walk_seed = derive_seed(seed, "walk", profile.name, instance)
        code_seed = derive_seed(seed, "code", profile.name, instance)
        addr_seed = derive_seed(seed, "addr", profile.name, instance)
        code_base = base + CODE_OFFSET + set_stagger(base) * LINE_BYTES
        self.layout = CodeLayout(profile, code_base, code_seed)
        expected_loads = int(length * profile.load_frac)
        self.aspace = AddressSpace(profile, base, addr_seed, expected_loads=expected_loads)
        return walk_seed

    def _pack_records(self) -> None:
        # Packed per-index records in DynInstr argument order: the fetch loop
        # does ONE list indexing per instruction instead of eight (this is
        # the "preallocated array" the hot loop replays; the parallel lists
        # stay for calibration/analysis code that scans one field).
        self.rec: list[tuple[int, int, int, int, int, int, int, int, int]] = list(
            zip(
                self.op,
                self.pc,
                self.dest,
                self.src1,
                self.src2,
                self.addr,
                self.brkind,
                self.taken,
                self.target,
            )
        )

    @classmethod
    def from_arrays(
        cls,
        profile: BenchmarkProfile,
        length: int,
        base: int,
        seed: int,
        instance: int,
        arrays: dict[str, list[int]],
    ) -> "SyntheticTrace":
        """Rebuild a trace from persisted parallel arrays, skipping the walk.

        ``arrays`` maps the nine record-field names to full-length lists
        (``taken`` as 0/1 ints). The code layout and address space are
        regenerated from the key — they are deterministic and cheap, and the
        simulator only reads their static products (resident-line sets, code
        footprint), so the result is behaviorally identical to a freshly
        generated trace; the parity tests enforce this field by field.
        """
        self = object.__new__(cls)
        self._init_static(profile, length, base, seed, instance)
        self.pc = arrays["pc"]
        self.op = arrays["op"]
        self.dest = arrays["dest"]
        self.src1 = arrays["src1"]
        self.src2 = arrays["src2"]
        self.addr = arrays["addr"]
        self.brkind = arrays["brkind"]
        self.taken = [bool(t) for t in arrays["taken"]]
        self.target = arrays["target"]
        self._pack_records()
        return self

    # ------------------------------------------------------------------

    def _walk(self, rng: SplitMix64, aspace: AddressSpace) -> None:
        """Emit ``self.length`` records by walking the CFG.

        Random numbers come from ``rng`` in blocks (:meth:`SplitMix64.block`)
        and are read by index, in exactly the order scalar ``next_u64`` calls
        would produce them: ``next_float() < x`` becomes the equivalent
        integer test ``draw >> 11 < u53_threshold(x)`` and ``next_below(n)``
        becomes ``draw % n``. When the walk ends, both generators are wound
        back to the draws actually consumed.
        """
        layout = self.layout
        blocks = layout.blocks
        n_blocks = len(blocks)
        length = self.length
        profile = self.profile

        pc_l = self.pc
        op_l = self.op
        dest_l = self.dest
        src1_l = self.src1
        src2_l = self.src2
        addr_l = self.addr
        brkind_l = self.brkind
        taken_l = self.taken
        target_l = self.target
        load_address = aspace.load_address
        store_address = aspace.store_address

        # Body op mix, renormalized with branches excluded (the terminal
        # branch of each block supplies branch_frac; bodies carry the rest).
        non_branch = 1.0 - profile.branch_frac
        cum_load = profile.load_frac / non_branch
        cum_store = cum_load + profile.store_frac / non_branch
        cum_fp = cum_store + profile.fp_frac / non_branch
        t_load = u53_threshold(cum_load)
        t_store = u53_threshold(cum_store)
        t_fp = u53_threshold(cum_fp)
        t_half = u53_threshold(0.5)

        op_load = int(OpClass.LOAD)
        op_store = int(OpClass.STORE)
        op_fp = int(OpClass.FP)
        op_int = int(OpClass.INT)
        op_branch = int(OpClass.BRANCH)
        brk_none = int(BranchKind.NONE)
        brk_cond = int(BranchKind.COND)
        brk_jump = int(BranchKind.JUMP)
        brk_call = int(BranchKind.CALL)

        # Dataflow state: sources come from recently-written registers; the
        # window size controls the dependency-chain tightness (ILP).
        recent_dests: list[int] = []
        dep_cap = profile.dep_window
        t_use = u53_threshold(profile.load_use_frac)
        t_indep = u53_threshold(profile.load_indep_frac)
        force_src = REG_NONE

        # Duplicate benchmark instances start the walk elsewhere, the
        # analogue of the paper shifting second instances by 1M instructions.
        block = blocks[(self.instance * 7919) % n_blocks]
        call_stack: list[int] = []  # fall-through *block indices*
        # Per-branch loop countdowns: strongly-biased conditionals behave as
        # loop branches (N majority outcomes, then one minority, with +-1
        # jitter) — the pattern real predictors exploit. I.i.d. outcome draws
        # would make the gshare history pure noise and cap accuracy far below
        # real SPECINT levels.
        cond_state: dict[int, int] = {}

        buf: list[int] = []
        pos = 0
        emitted = 0
        while emitted < length:
            n_body = min(block.body_len, length - emitted)
            # One refill check per block: every record draws at most
            # _MAX_DRAWS_PER_RECORD numbers.
            if pos + (n_body + 1) * _MAX_DRAWS_PER_RECORD > len(buf):
                buf = buf[pos:] + rng.block(_BLOCK)
                pos = 0
            bpc = block.pc
            for _ in range(n_body):
                k = buf[pos] >> 11
                if k < t_load:
                    if buf[pos + 1] >> 11 < t_indep:
                        # Address from a long-lived base register (28..30 are
                        # never destinations): the load is ready at dispatch,
                        # so its miss can overlap earlier misses (MLP).
                        src1 = 28 + buf[pos + 2] % 3
                        force_src = REG_NONE  # a pending consumer folds in
                        pos += 3
                    elif force_src != REG_NONE:
                        src1 = force_src
                        force_src = REG_NONE
                        pos += 2
                    elif recent_dests:
                        src1 = recent_dests[buf[pos + 2] % len(recent_dests)]
                        pos += 3
                    else:
                        src1 = buf[pos + 2] % 28
                        pos += 3
                    dest = buf[pos] % 28
                    op_l.append(op_load)
                    dest_l.append(dest)
                    src1_l.append(src1)
                    src2_l.append(REG_NONE)
                    addr_l.append(load_address())
                    recent_dests.append(dest)
                    if len(recent_dests) > dep_cap:
                        recent_dests.pop(0)
                    if buf[pos + 1] >> 11 < t_use:
                        force_src = dest
                    pos += 2
                else:
                    pos += 1
                    if force_src != REG_NONE:
                        src1 = force_src
                        force_src = REG_NONE
                    elif recent_dests:
                        src1 = recent_dests[buf[pos] % len(recent_dests)]
                        pos += 1
                    else:
                        src1 = buf[pos] % 28
                        pos += 1
                    if recent_dests:
                        if buf[pos] >> 11 < t_half:
                            src2 = recent_dests[buf[pos + 1] % len(recent_dests)]
                            pos += 2
                        else:
                            src2 = REG_NONE
                            pos += 1
                    else:
                        src2 = REG_NONE
                    src1_l.append(src1)
                    src2_l.append(src2)
                    if k < t_store:
                        op_l.append(op_store)
                        dest_l.append(REG_NONE)
                        addr_l.append(store_address())
                    else:
                        if k < t_fp:
                            op_l.append(op_fp)
                            dest = 32 + buf[pos] % 28
                        else:
                            op_l.append(op_int)
                            dest = buf[pos] % 28
                        pos += 1
                        dest_l.append(dest)
                        addr_l.append(0)
                        recent_dests.append(dest)
                        if len(recent_dests) > dep_cap:
                            recent_dests.pop(0)
            pc_l.extend(range(bpc, bpc + n_body * INSTR_BYTES, INSTR_BYTES))
            brkind_l.extend([brk_none] * n_body)
            taken_l.extend([False] * n_body)
            target_l.extend([0] * n_body)
            emitted += n_body
            if emitted >= length:
                break

            # Terminal branch of the block.
            brkind = block.brkind
            fall_idx = layout.fallthrough_block(block.index)
            if brkind == brk_cond:
                bias = block.bias
                if 0.25 <= bias <= 0.75:
                    # Genuinely data-dependent branch: unpredictable.
                    taken = buf[pos] >> 11 < u53_threshold(bias)
                    pos += 1
                else:
                    major_is_taken = bias > 0.5
                    p_major = bias if major_is_taken else 1.0 - bias
                    period = max(1, round(p_major / (1.0 - p_major)))
                    left = cond_state.get(block.index, -1)
                    if left < 0:
                        left = period + buf[pos] % 3 - 1
                        pos += 1
                    if left > 0:
                        cond_state[block.index] = left - 1
                        taken = major_is_taken
                    else:
                        cond_state[block.index] = period + buf[pos] % 3 - 1
                        pos += 1
                        taken = not major_is_taken
                next_idx = block.taken_index if taken else fall_idx
                src1 = buf[pos] % 28
                pos += 1
            else:
                taken = True
                src1 = REG_NONE
                if brkind == brk_jump:
                    next_idx = block.taken_index
                elif brkind == brk_call:
                    next_idx = block.taken_index
                    if len(call_stack) < _MAX_CALL_DEPTH:
                        call_stack.append(fall_idx)
                elif call_stack:  # RET
                    next_idx = call_stack.pop()
                else:
                    # Underflowed stack: emit this instance as a plain jump to
                    # the block's static fallback target. Mixing dynamic
                    # (popped) and static targets under one RET pc would
                    # desynchronize the RAS and poison the BTB entry.
                    brkind = brk_jump
                    next_idx = block.taken_index

            next_block = blocks[next_idx]
            pc_l.append(block.branch_pc)
            op_l.append(op_branch)
            # Conditional branches read a recently-computed value; calls
            # write the link register (arch reg 31 by convention).
            dest_l.append(31 if brkind == brk_call else REG_NONE)
            src1_l.append(src1)
            src2_l.append(REG_NONE)
            addr_l.append(0)
            brkind_l.append(brkind)
            taken_l.append(taken)
            target_l.append(next_block.pc if taken else block.fallthrough_pc)
            emitted += 1
            block = next_block

        rng.advance(pos - len(buf))
        aspace.release_draws()

    def _patch_wrap(self) -> None:
        """Rewrite the final record as a jump to index 0 so the trace wraps."""
        i = self.length - 1
        self.op[i] = int(OpClass.BRANCH)
        self.dest[i] = REG_NONE
        self.src1[i] = REG_NONE
        self.src2[i] = REG_NONE
        self.addr[i] = 0
        self.brkind[i] = int(BranchKind.JUMP)
        self.taken[i] = True
        self.target[i] = self.pc[0]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def record(self, i: int) -> tuple[int, ...]:
        """One record as a tuple (testing/debugging; the simulator indexes
        the parallel lists directly)."""
        return (
            self.pc[i],
            self.op[i],
            self.dest[i],
            self.src1[i],
            self.src2[i],
            self.addr[i],
            self.brkind[i],
            self.taken[i],
            self.target[i],
        )

    def op_counts(self) -> dict[int, int]:
        """Histogram of op classes (calibration checks)."""
        counts: dict[int, int] = {}
        for op in self.op:
            counts[op] = counts.get(op, 0) + 1
        return counts


_TRACE_CACHE: dict[tuple[BenchmarkProfile, int, int, int, int], SyntheticTrace] = {}
_STATS = {"mem_hits": 0, "generated": 0}

#: Optional disk layer (a :class:`repro.trace.artifact.TraceArtifactCache`).
#: Held here (not in artifact.py) so the hot ``generate_trace`` path needs no
#: import of the artifact module; installed via ``set_trace_artifact_cache``
#: or the ``trace_cache_installed`` context manager.
_ARTIFACT_CACHE: TraceArtifactCache | None = None


def set_trace_artifact_cache(cache: TraceArtifactCache | None) -> TraceArtifactCache | None:
    """Install (or with ``None`` remove) the persistent artifact cache that
    backs ``generate_trace``; returns the previously installed cache so
    callers can scope the installation and restore it."""
    global _ARTIFACT_CACHE
    prev = _ARTIFACT_CACHE
    _ARTIFACT_CACHE = cache
    return prev


def get_trace_artifact_cache() -> TraceArtifactCache | None:
    """The currently installed persistent trace cache (or ``None``)."""
    return _ARTIFACT_CACHE


def generate_trace(
    profile: BenchmarkProfile,
    length: int,
    base: int,
    seed: int,
    instance: int = 0,
) -> SyntheticTrace:
    """Generate (or fetch from cache) a trace for one benchmark instance.

    ``instance`` distinguishes replicated benchmarks within a workload (the
    paper's boldfaced duplicates): each instance gets a decorrelated walk and
    its own address space base.

    Lookup order: in-process memo (six policies over one workload pay
    generation once), then the installed artifact cache's disk layer (repeat
    sweeps and sibling worker processes pay it zero times), then a fresh
    walk — which is persisted back to disk when an artifact cache is
    installed.
    """
    key = (profile, length, base, seed, instance)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        _STATS["mem_hits"] += 1
        return trace
    disk = _ARTIFACT_CACHE
    if disk is not None:
        trace = disk.load(profile, length, base, seed, instance)
    if trace is None:
        trace = SyntheticTrace(profile, length, base, seed, instance)
        _STATS["generated"] += 1
        if disk is not None:
            disk.store(trace)
    _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop all in-memory cached traces (tests use this to bound memory;
    the persistent artifact cache, if any, is unaffected)."""
    _TRACE_CACHE.clear()


def trace_cache_stats() -> dict[str, int]:
    """In-process trace-cache counters: memoized entries, memo hits, and
    traces actually generated (walked) since interpreter start."""
    return {
        "mem_entries": len(_TRACE_CACHE),
        "mem_hits": _STATS["mem_hits"],
        "generated": _STATS["generated"],
    }
