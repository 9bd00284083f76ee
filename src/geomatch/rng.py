"""Seedable 64-bit PRNG used everywhere randomness is needed.

The generator is xoshiro256++ with its state filled from splitmix64, which
gives bit-identical streams on every platform (no dependence on numpy's
generator versioning). Gaussian samples come from Box-Muller.

Single draws (`random`, `integer`, `shuffle`, `normal`) step the state in
Python. Bulk draws (`randoms`, and through it `normals`) produce the very
same stream in numpy lanes. The state update of xoshiro256++ is linear over
GF(2) (Blackman & Vigna, "Scrambled linear pseudorandom number generators",
arXiv 1805.01407): one step is a 256x256 bit matrix T applied to the state,
which `_transition` builds by stepping each unit state once. A draw of
`count` numbers splits into L lanes of `_LANE` steps and a short tail. Lane
k starts at T^(k * _LANE) applied to the current state, found by repeated
squaring of T, so it yields draws k * _LANE ... (k + 1) * _LANE - 1 of the
one stream. All lanes step together as `uint64` arrays with the scalar
step's shifts, xors, rotations and wrapping adds, so each output is the
scalar output bit for bit. The last lane ends in the state after L * _LANE
scalar steps, and the tail continues from there in Python, so the state
afterwards is the state after `count` calls of `next_u64`.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
# steps per lane: long enough that the Python loop over steps is short next
# to the lane width, short enough that the tail drawn in Python stays cheap
_LANE = 256


def _splitmix64(state: int):
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class Rng:
    """xoshiro256++ stream seeded through splitmix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        if not any(s):  # all-zero state is the one forbidden state
            s[0] = _GOLDEN
        self._s = s
        self._gauss_cache: float | None = None
        self.seed = seed

    def derive(self, stream: int) -> "Rng":
        """Independent child stream, deterministic in (seed, stream)."""
        return Rng((self.seed ^ ((stream & _MASK64) * _GOLDEN)) & _MASK64)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs cached)."""
        return self._normal(self.random)

    def _normal(self, draw) -> float:
        """Box-Muller on uniforms from `draw`, in the order `normal` uses."""
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
            return z
        u1 = draw()
        while u1 <= 0.0:
            u1 = draw()
        u2 = draw()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias (rejection)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer(i + 1)
            items[i], items[j] = items[j], items[i]

    def randoms(self, count: int) -> np.ndarray:
        """The next `count` `random()` values, drawn in numpy lanes."""
        out = np.empty(count)
        lanes = count // _LANE
        if lanes:
            s0, s1, s2, s3 = _lane_starts(self._s, lanes)
            # lane k's draws are row k of `out`, written one column per
            # step, so no other draw-sized array exists: copies of the
            # 11 MB model-init draw raised peak RSS by up to 19 MB
            by_lane = out[:lanes * _LANE].reshape(lanes, _LANE)
            for i in range(_LANE):
                result = _rotl_lanes(s0 + s3, 23) + s0
                np.multiply(result >> np.uint64(11), 2.0 ** -53, out=by_lane[:, i])
                t = s1 << np.uint64(17)
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = _rotl_lanes(s3, 45)
            self._s = [int(s[-1]) for s in (s0, s1, s2, s3)]
        out[lanes * _LANE:] = [self.random() for _ in range(count - lanes * _LANE)]
        return out

    def normals(self, count: int) -> np.ndarray:
        """The next `count` `normal()` values; uniforms come from `randoms`."""
        fresh = count - (count > 0 and self._gauss_cache is not None)
        # one pair of uniforms per two fresh normals; a u1 <= 0 redraw,
        # once in 2^53 draws, continues the stream one scalar draw at a time
        bulk = self.randoms(fresh + fresh % 2).tolist()
        draw = itertools.chain(bulk, iter(self.random, None)).__next__
        return np.array([self._normal(draw) for _ in range(count)])


# ---------------------------------------------------------------------------
# jumps over GF(2): states as 256-bit columns, bit 64 * w + b of a column is
# bit b of state word w
# ---------------------------------------------------------------------------

def _to_bits(words: np.ndarray) -> np.ndarray:
    """(4, L) uint64 states -> (256, L) uint8 bit columns."""
    as_bytes = np.ascontiguousarray(words.T).astype("<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little").T


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """(256, L) uint8 bit columns -> (4, L) uint64 states."""
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64).T.copy()


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of 0/1 matrices over GF(2). float32 sums of at most 256 ones
    are exact, so the parity is exact."""
    product = a.astype(np.float32) @ b.astype(np.float32)
    return (product.astype(np.int32) & 1).astype(np.uint8)


@functools.cache
def _transition() -> np.ndarray:
    """T: column j is the state after one scalar step from unit state j."""
    unit = Rng(0)
    columns = []
    for j in range(256):
        unit._s = [(1 << (j - 64 * w)) if j // 64 == w else 0 for w in range(4)]
        unit.next_u64()
        columns.append(unit._s)
    return _to_bits(np.array(columns, dtype=np.uint64).T)


def _lane_starts(state: list[int], lanes: int) -> list[np.ndarray]:
    """Words s0..s3 of T^(k * _LANE) state for k = 0 .. lanes - 1."""
    jump = _transition()
    for _ in range(_LANE.bit_length() - 1):      # _LANE is a power of two
        jump = _gf2_matmul(jump, jump)
    starts = _to_bits(np.array(state, dtype=np.uint64)[:, None])
    while starts.shape[1] < lanes:
        # jump = T^(n * _LANE): lanes 0 .. n - 1 advanced to lanes n .. 2n - 1
        n = starts.shape[1]
        starts = np.hstack([starts, _gf2_matmul(jump, starts[:, :lanes - n])])
        jump = _gf2_matmul(jump, jump)
    return list(_from_bits(starts))
