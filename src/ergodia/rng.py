"""Deterministic 64-bit mix-based PRNG for reproducible experiments.

The generator is SplitMix64.  Its state transition is plain 64-bit integer
arithmetic, so any implementation language reproduces the same stream from
the same seed:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

Bounded draws use `output mod n` (documented; the modulo bias at the n used
here is far below any tolerance in play).
"""

from __future__ import annotations

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def sample_points(self, M: int, count: int) -> list[int]:
        """count draws from {0, ..., M-1}, duplicates removed, order kept."""
        seen: set[int] = set()
        out: list[int] = []
        for _ in range(count):
            if len(out) == M:  # every point is drawn; later draws add none
                break
            y = self.next_below(M)
            if y not in seen:
                seen.add(y)
                out.append(y)
        return out
