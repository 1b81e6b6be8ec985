"""Deterministic random numbers for matches, noise, and evolution.

Everything stochastic in this package flows through SplitMix64 streams
whose initial states are derived from user-visible integer seeds.  The
same generator is reimplemented, vectorized, inside the numpy match
kernel, so the exact update and output mixing here is a contract:
change one copy and replays stop being bit-identical.
"""

import hashlib

MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# 53-bit mantissa step for converting to a double in [0, 1).
DOUBLE_UNIT = 2.0 ** -53


def mix64(value: int) -> int:
    """The SplitMix64 output permutation on a 64-bit integer."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """A tiny, fast, splittable PRNG holding 64 bits of state.

    Each draw adds GOLDEN to the state and mixes it, so draw k (k = 1,
    2, ...) from state s is mix64(s + k * GOLDEN): any draw of a stream
    can be computed without the ones before it.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_double(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * DOUBLE_UNIT

    def chance(self, p: float) -> bool:
        """True with probability p.  p <= 0 never fires, p >= 1 always does."""
        return self.next_double() < p

    def randrange(self, n: int) -> int:
        """Integer in [0, n).  Modulo bias is ~n/2**64, irrelevant here."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n


def derive_seed(*parts) -> int:
    """Hash an arbitrary tuple of labels down to a 64-bit seed.

    Uses blake2b so the derivation is stable across processes and Python
    versions (unlike hash()).  Parts are joined with an ASCII unit
    separator to keep ("ab", "c") and ("a", "bc") distinct.
    """
    data = "\x1f".join(map(str, parts)).encode("utf-8")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "little")
