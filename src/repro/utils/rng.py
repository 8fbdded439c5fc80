"""Deterministic seeding utilities.

Every stochastic component of the reproduction (trace synthesis, wrong-path
instruction supply, address stream perturbation) derives its random state from
a single master seed through :func:`derive_seed`, so a simulation is
bit-reproducible given ``(workload, policy, config, seed)``.

The hashing here is intentionally *not* Python's built-in ``hash`` — that is
salted per process (PYTHONHASHSEED) and would break reproducibility across
runs.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache

__all__ = ["stable_hash64", "derive_seed", "SplitMix64", "u53_threshold"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# FNV-1a 64-bit parameters.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_hash64(*parts: object) -> int:
    """Hash an arbitrary tuple of ints/strings to a stable 64-bit value.

    Uses FNV-1a over the UTF-8/decimal rendering of each part, which is stable
    across processes and Python versions (unlike built-in ``hash``).
    """
    h = _FNV_OFFSET
    for part in parts:
        if isinstance(part, int):
            try:
                data = part.to_bytes(16, "little", signed=True)
            except OverflowError:  # wider than 128 bits: as many bytes as needed
                data = part.to_bytes(part.bit_length() // 8 + 1, "little", signed=True)
        else:
            data = str(part).encode("utf-8")
        for byte in data:
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
        # Part separator (0xFF never appears in UTF-8 and breaks the
        # 16-byte int framing): ("a","b") must differ from ("ab",).
        h ^= 0xFF
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(master: int, *scope: object) -> int:
    """Derive a sub-seed for a named component from a master seed.

    ``derive_seed(seed, "trace", "mcf", 0)`` always yields the same value for
    the same inputs, and different values for different scopes with
    overwhelming probability.
    """
    return stable_hash64(master, *scope) & 0x7FFFFFFF  # keep it numpy-friendly


class SplitMix64:
    """Tiny, fast, deterministic PRNG (splitmix64).

    Used in per-instruction hot paths (wrong-path supply) where constructing
    numpy generators would be too slow. Not cryptographic; excellent
    statistical quality for simulation purposes.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit value."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_below(self, n: int) -> int:
        """Uniform int in [0, n). n must be positive."""
        return self.next_u64() % n

    def block(self, n: int) -> list[int]:
        """The next ``n`` raw outputs as a list, advancing the state exactly
        as ``n`` calls to :meth:`next_u64` would.

        splitmix64 is counter-based (output *k* is ``mix(state + (k+1)*gamma)``),
        so all lanes are mixed at once: they sit 128 bits apart in one Python
        int, where a 64x64-bit product never reaches the next lane, and each
        step masks the lanes back to 64 bits. About 4x cheaper per draw than
        a ``next_u64`` call.
        """
        if n <= 0:
            return []
        steps, ones, mask = _lanes(n)
        z = (self._state * ones + steps) & mask
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        z = (((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB) & mask
        z = (z ^ (z >> 31)) & mask
        return _unpack(z, n)

    def advance(self, n: int) -> None:
        """Skip ``n`` outputs; a negative ``n`` steps back, which hands
        unconsumed :meth:`block` draws back to the stream."""
        self._state = (self._state + n * _GAMMA) & _MASK64


def _pack(values: array[int]) -> int:
    """Pack 64-bit lanes 128 bits apart into one int (lane 0 lowest)."""
    wide = array("Q", bytes(16 * len(values)))
    wide[0::2] = values
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        wide.byteswap()
    return int.from_bytes(wide.tobytes(), "little")


def _unpack(z: int, n: int) -> list[int]:
    """Inverse of :func:`_pack` for ``n`` lanes."""
    wide = array("Q", z.to_bytes(16 * n, "little"))
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        wide.byteswap()
    return wide[0::2].tolist()


@lru_cache(maxsize=8)
def _lanes(n: int) -> tuple[int, int, int]:
    """Packed constants for an ``n``-lane block: the lane offsets
    ``(k+1)*gamma mod 2**64``, a 1 in every lane (to broadcast the state)
    and the per-lane 64-bit mask."""
    steps = array("Q", [((k + 1) * _GAMMA) & _MASK64 for k in range(n)])
    ones = _pack(array("Q", [1]) * n)
    return _pack(steps), ones, ones * _MASK64


def u53_threshold(x: float) -> int:
    """The integer ``T`` with ``next_float() < x`` exactly when
    ``next_u64() >> 11 < T``.

    ``next_float`` is ``k * 2**-53`` for a 53-bit ``k``, and for any such
    ``k``, ``k * 2**-53 < x`` holds iff ``k < ceil(x * 2**53)`` (the product
    is exact: scaling by a power of two). Hot loops compare the integer and
    skip the float conversion.
    """
    return math.ceil(x * (1 << 53))
