"""Seedable 64-bit random number generator shared by all components.

Every stochastic piece of the toolkit (solver tie-breaking, CNF reordering,
GP operators, histogram sampling) draws from SplitMix64 so that runs are
reproducible from a single integer seed, independent of the host platform
or Python version.  The generator is the public-domain SplitMix64 mixer:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

all arithmetic modulo 2**64.  A seed is any int, negatives included,
taken modulo 2**64; a bool, a float or any other type raises ValueError
(check_int is the API's integer rule, check_real its real-number rule).
"""

from __future__ import annotations

import sys

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_int(name: str, value, minimum: int | None = None) -> None:
    """The API's integer rule: ValueError, naming `name`, unless value is an
    int (not a bool or float) and at least minimum, when one is given."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """The API's real-number rule: ValueError, naming `name`, unless value is
    an int or a float (no bool) and abs(value) <= sys.float_info.max."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a real number within float range, got {value!r:.40}")


class SplitMix64:
    """Deterministic 64-bit generator; the whole state is one integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        check_int("seed", seed)
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi)."""
        return lo + self.random() * (hi - lo)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), 1 <= n <= 2**64, unbiased via rejection
        sampling; a larger n would leave no output below the limit."""
        if not 1 <= n <= MASK64 + 1:
            raise ValueError(f"randrange() requires 1 <= n <= 2**64, got {n}")
        limit = MASK64 + 1 - ((MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def flip(self) -> bool:
        return bool(self.next_u64() & 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Derive `count` independent child seeds from a master seed.

    Child seed i is the i-th output of SplitMix64(master_seed).  Anything
    seeded from a stored child seed can be replayed in isolation without
    re-deriving the whole stream.
    """
    check_int("count", count, 0)
    gen = SplitMix64(master_seed)
    return [gen.next_u64() for _ in range(count)]
