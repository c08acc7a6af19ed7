"""Deterministic counter-based random number generation.

Every stochastic component of the library draws from :class:`Rng`, a
splitmix64-style counter generator: output ``i`` of a stream keyed by
``k`` is ``mix64(k + (i + 1) * GOLDEN)`` where ``mix64`` is the standard
splitmix64 finalizer.  The stream for a given seed is part of the
library's contract and is fixed forever; golden-value tests pin it.

Being counter-based, any block of the stream can be produced
independently of the rest, and child streams for parallel or per-record
work are derived by re-keying (``derive``) rather than by splitting a
sequential state.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DERIVE_SALT = np.uint64(0xD1B54A32D192ED03)
_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)


def _mix64_int(z: int) -> int:
    # Same finalizer on Python ints (no numpy scalar overflow warnings).
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Seeded deterministic generator with an explicit counter.

    Identical seed implies an identical stream, bit for bit, across
    runs and platforms.  ``derive`` builds statistically independent
    child streams from integer tags, e.g. one stream per subject.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _MASK64
        self._key = np.uint64(self.seed)
        self.counter = 0

    def _unit(self, starts, n: int) -> np.ndarray:
        # Doubles on [0, 1) from the top 53 bits of words s .. s+n-1, one row
        # per start s, built in one array; the counter does not move.
        z = np.arange(1, n + 1, dtype=np.uint64) + np.array(starts, dtype=np.uint64)[:, None]
        z *= _GOLDEN
        z += self._key
        z ^= z >> _SHIFT_30  # splitmix64 finalizer; uint64 arithmetic wraps
        z *= _MIX1
        z ^= z >> _SHIFT_27
        z *= _MIX2
        z ^= z >> _SHIFT_31
        z >>= _SHIFT_11
        u = z.astype(np.float64)
        u *= _INV_2_53
        return u

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), one word each from the counter on;
        advances the counter by n.  Set ``counter`` to draw from any word."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        u = self._unit([self.counter], n)[0]
        self.counter += n
        return u

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller on uniform pairs;
        advances the counter by 2 * ceil(n / 2)."""
        out = self.normal_span(n, 0, n)
        self.counter += 2 * ((n + 1) // 2)
        return out

    def normal_span(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Normals lo .. hi-1 of the draw ``normal(n)`` would make from the
        counter, bit for bit; the counter does not move."""
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"need 0 <= lo <= hi <= n, got lo={lo}, hi={hi}, n={n}")
        # Pair j (normals 2j, 2j + 1) takes its radius from word j and its
        # angle from word m + j, for m = ceil(n / 2) pairs.
        m = (n + 1) // 2
        j0, j1 = lo // 2, (hi + 1) // 2
        r, angle = self._unit([self.counter + j0, self.counter + m + j0], j1 - j0)
        np.subtract(1.0, r, out=r)  # u shifted into (0, 1] so the log is finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle *= 2.0 * np.pi
        out = np.empty((j1 - j0, 2))
        np.cos(angle, out=out[:, 0])
        np.sin(angle, out=out[:, 1])
        out *= r[:, None]
        return out.reshape(-1)[lo - 2 * j0 : hi - 2 * j0]

    def shuffle(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n) (Fisher-Yates)."""
        perm = np.arange(n)
        if n < 2:
            return perm
        u = self.uniform(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(u[n - 1 - i] * (i + 1))  # u < 1 so j <= i
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def derive(self, *tags: int) -> "Rng":
        """Child generator keyed by this seed and the integer tags.

        Streams for distinct tag tuples are independent of each other
        and of the parent stream, and do not depend on how much of the
        parent stream has been consumed.
        """
        key = int(self._key)
        for tag in tags:
            t = int(tag) & _MASK64
            mixed_tag = _mix64_int((t + int(_DERIVE_SALT)) & _MASK64)
            key = _mix64_int(((key ^ mixed_tag) + int(_GOLDEN)) & _MASK64)
        return Rng(key)
