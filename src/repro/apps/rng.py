"""NumPy's ``scales[:, None] * default_rng(seed).uniform(low, high, size=(n,
width))`` (``n = len(scales)``) in pure Python, bit for bit, row by row:
``SeedSequence`` mixing, PCG64 (XSL-RR 128/64) seeded as NumPy seeds it, and
``low + (high - low) * ((next64 >> 11) * 2**-53)`` per draw.  Row ``r`` starts
at draw ``r * width``; the LCG's O(log n) advance jumps there, so a run draws
only the iterations it simulates.  ``tests/test_uniform_rows.py`` holds this
to NumPy.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence

__all__ = ["UniformRows"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int) -> Callable[[int], int]:
    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_state(seed: int) -> List[int]:
    """NumPy's ``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]) for i in range(8)]
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class UniformRows:
    """The rows of one seed's scaled ``uniform`` array.  Holds only the
    seeded state: every :meth:`row` call starts a fresh stream, so a
    program that runs twice replays the same values."""

    __slots__ = ("_state", "_inc", "_low", "_span", "_width", "_scales")

    def __init__(self, seed: int, low: float, high: float, width: int,
                 scales: Sequence[float]):
        if width < 0:
            raise ValueError("negative dimensions are not allowed")
        s = _seed_state(seed)
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _M128
        self._low, self._span, self._width, self._scales = low, high - low, width, scales

    def row(self, r: int) -> Iterator[float]:
        """Yield row *r*'s ``width`` values, drawing each one on demand."""
        # Jump r * width steps ahead, as NumPy's pcg_advance_lcg_128.
        delta, mult, plus = r * self._width, _PCG_MULT, self._inc
        acc_mult, acc_plus = 1, 0
        while delta:
            if delta & 1:
                acc_mult = acc_mult * mult & _M128
                acc_plus = (acc_plus * mult + plus) & _M128
            plus = (mult + 1) * plus & _M128
            mult = mult * mult & _M128
            delta >>= 1
        state = (acc_mult * self._state + acc_plus) & _M128
        inc, low, span, scale = self._inc, self._low, self._span, self._scales[r]
        for _ in range(self._width):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            yield scale * (low + span * ((x >> 11) * 2.0**-53))
