"""The random stream: pinned values, and bulk draws equal to scalar draws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomatch import rng as rng_module
from geomatch.rng import Rng

LANE = rng_module._LANE

# first 8 next_u64() outputs, then first 8 random() values, per seed
GOLDEN = {
    0: ([0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc,
         0x02eebf8c3bbe5e1a, 0x7eca04ebaf4a5eea, 0x0543c37757f08d9a,
         0xdb7490c75ab5026e, 0xd87343e6464bc959],
        [0.3245752680314067, 0.38223929651167343, 0.3596172076473553,
         0.011455508934653635, 0.49527006868383106, 0.020565239559745874,
         0.8572473990158933, 0.8455088078683693]),
    1: ([0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520,
         0xbf08119f05cd56d6, 0x2f47184b86186fa4, 0x97299fcae7202345,
         0xfca3c79508f41507, 0x85fea5c90363f221],
        [0.8116121588818848, 0.7471047161582187, 0.10015090353378375,
         0.7462168706168104, 0.18467857211916938, 0.5904788847320792,
         0.9868740786414067, 0.5234168639903058]),
    11: ([0xdc1abbcc6a694280, 0xce74a193b8e6ac95, 0xf6d610eef4d89d39,
          0x9a6c78b8852dc00d, 0x432ab0518bbbcb12, 0xb6934fab6ceacaa0,
          0x2156423640caf95c, 0x0546054c2ce23af5],
         [0.8597829221784297, 0.8064671502733299, 0.9642038901700708,
          0.6032176447380868, 0.2623701285444745, 0.7131852906722244,
          0.13022245239771368, 0.020599680993549252]),
    2 ** 64 - 1: ([0x56ccf8ce948e27b2, 0xe68588432e5a5b90, 0xe3e9b5a48119ca8b,
                   0x460f19495532ae73, 0xa7d62040ea9263e1, 0x66f1fb2ac9402c14,
                   0xe243b47de8a73f68, 0x7c93fdab4c7b3dff],
                  [0.33906512301887703, 0.9004750408188128, 0.8902848745939088,
                   0.2736678890261809, 0.6556110533225108, 0.4021298388918245,
                   0.8838455970186744, 0.4866331618509151]),
}


def scalar_randoms(rng: Rng, count: int) -> np.ndarray:
    return np.array([rng.random() for _ in range(count)])


class TestGolden:
    def test_splitmix64_reference_value(self):
        # the published first splitmix64 output from state 0
        assert rng_module._splitmix64(0)[1] == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_first_draws(self, seed):
        words, floats = GOLDEN[seed]
        r = Rng(seed)
        assert [r.next_u64() for _ in range(8)] == words
        r = Rng(seed)
        assert [r.random() for _ in range(8)] == floats

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_bulk_first_draws(self, seed):
        assert Rng(seed).randoms(8).tolist() == GOLDEN[seed][1]


BOUNDARY_COUNTS = [0, 1, LANE - 1, LANE, LANE + 1, 2 * LANE - 1, 2 * LANE,
                   2 * LANE + 1, 3 * LANE + 1, 8 * LANE - 1, 8 * LANE + 1]

OPS = st.one_of(
    st.tuples(st.just("randoms"),
              st.sampled_from(BOUNDARY_COUNTS) | st.integers(0, 6 * LANE)),
    st.tuples(st.just("random"), st.just(0)),
    st.tuples(st.just("integer"), st.integers(1, 10 ** 6)),
)


class TestBulkMatchesScalar:
    @given(seed=st.integers(0, 2 ** 64 - 1), ops=st.lists(OPS, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_calls(self, seed, ops):
        bulk, scalar = Rng(seed), Rng(seed)
        for op, arg in ops:
            if op == "randoms":
                got = bulk.randoms(arg)
                assert got.dtype == np.float64 and got.shape == (arg,)
                assert np.array_equal(got, scalar_randoms(scalar, arg))
            elif op == "random":
                assert bulk.random() == scalar.random()
            else:
                assert bulk.integer(arg) == scalar.integer(arg)
            assert bulk._s == scalar._s
        assert bulk.next_u64() == scalar.next_u64()

    def test_over_a_million(self):
        count = 2 ** 20 + 3 * LANE + 7
        bulk, scalar = Rng(613), Rng(613)
        assert np.array_equal(bulk.randoms(count), scalar_randoms(scalar, count))
        assert bulk._s == scalar._s


def scalar_normals(rng: Rng, count: int) -> np.ndarray:
    return np.array([rng.normal() for _ in range(count)])


class TestNormals:
    def test_odd_counts_carry_the_pair_cache(self):
        bulk, scalar = Rng(21), Rng(21)
        for count in (1, 3, 0, 7, 2 * LANE + 1, 5, 2, 1):
            got = bulk.normals(count)
            assert got.shape == (count,)
            assert np.array_equal(got, scalar_normals(scalar, count))
            assert bulk._gauss_cache == scalar._gauss_cache
            assert bulk._s == scalar._s
        assert bulk.normal() == scalar.normal()

    def test_zero_uniform_is_redrawn_in_stream_order(self, monkeypatch):
        """u1 <= 0 (one draw in 2^53) takes further draws past the bulk ones."""
        stream = [0.0, 0.25, 0.5, 0.0, 0.0, 0.75, 0.125, 0.375, 0.625]

        def fake(rng):
            draws = iter(stream)
            monkeypatch.setattr(rng, "random", lambda: next(draws))
            monkeypatch.setattr(
                rng, "randoms", lambda n: np.array([next(draws) for _ in range(n)]))
            return rng

        got = fake(Rng(0)).normals(5)
        assert np.array_equal(got, scalar_normals(fake(Rng(0)), 5))
