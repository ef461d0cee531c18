"""numpy's ``default_rng`` stream in plain Python.

Random hulls (``harness``) and ``convexhull_inclusion``'s combinations
(``inequalities``) draw from ``_PCG64``, so they do not depend on the
installed numpy and no run loads ``numpy.random``.
"""

from __future__ import annotations

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
_ULP53 = 1.0 / (1 << 53)


class _PCG64:
    """numpy's ``default_rng(seed)``: PCG64 (128-bit LCG, XSL-RR output;
    O'Neill 2014) seeded by ``SeedSequence(seed)``, with ``Generator.integers``'
    bounded draw (Lemire 2019) and ``Generator.uniform(0, 1)``."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"the seed is non-negative, got {seed}")
        words = [seed >> k & _M32 for k in range(0, seed.bit_length() or 1, 32)]
        h = 0x43B0D7E5

        def hashmix(v):
            nonlocal h
            v = (v ^ h) * (h := h * 0x931E8875 & _M32) & _M32
            return v ^ v >> 16

        def mix(x, y):
            r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for i in range(4):
            for j in range(4):
                if i != j:
                    pool[j] = mix(pool[j], hashmix(pool[i]))
        for w in words[4:]:
            for j in range(4):
                pool[j] = mix(pool[j], hashmix(w))
        h, st = 0x8B51F9DD, []
        for i in range(8):
            v = (pool[i % 4] ^ h) * (h := h * 0x58F38DED & _M32) & _M32
            st.append(v ^ v >> 16)
        s0, s1, i0, i1 = (st[k] | st[k + 1] << 32 for k in (0, 2, 4, 6))
        self.inc = (i0 << 64 | i1) << 1 & _M128 | 1
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _M128
        self.half = None  # the unused high half of the last 64-bit draw

    def next64(self) -> int:
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next32(self) -> int:
        if self.half is not None:
            v, self.half = self.half, None
            return v
        v = self.next64()
        self.half = v >> 32
        return v & _M32

    def integers(self, low: int, high: int, count: int) -> list[int]:
        """``count`` draws of ``Generator.integers(low, high)`` (int64, high
        excluded): Lemire on 32-bit draws for spans up to 2^32, on 64-bit
        draws above."""
        if low < -(1 << 63) or high > 1 << 63 or low >= high:
            raise ValueError(f"cannot draw int64 integers from [{low}, {high})")
        span = high - low
        if span == 1:
            return [low] * count
        bits, draw = (32, self.next32) if span <= 1 << 32 else (64, self.next64)
        mask, cut = (1 << bits) - 1, (1 << bits) % span
        out = []
        for _ in range(count):
            m = draw() * span
            while m & mask < cut:
                m = draw() * span
            out.append(low + (m >> bits))
        return out

    def uniform(self, count: int) -> list[float]:
        """``count`` draws of ``Generator.uniform(0, 1)``: the top 53 bits of a
        64-bit draw times 2^-53, exact in binary64.  The 32-bit half is kept."""
        return [(self.next64() >> 11) * _ULP53 for _ in range(count)]
