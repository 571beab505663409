"""Covariance kernel: closed forms against brute-force and high-precision oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import mp

from fbmquad import (
    GRAM_CAP_DEFAULT,
    GeneratorKind,
    HurstGrid,
    cov,
    generate_batch,
    increment_gram,
    pathgen,
    rho,
)
from fbmquad.covariance import floor_index
from oracle import abs_power_sum, increment_cov, increment_level_cov, increment_midpoint_cov

# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------


class TestKernel:
    def test_brownian_case_is_min(self):
        grid = HurstGrid(0.5, 16, T=2.0)
        assert cov(grid, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("H", [0.05, 0.1, 1 / 6, 0.25, 0.5, 0.75])
    def test_diagonal_at_one(self, H):
        grid = HurstGrid(H, 16, T=2.0)
        assert cov(grid, 1.0, 1.0) == 1.0

    def test_high_precision_oracle(self):
        # evaluate (1 + 1.5^0.2 - 0.5^0.2)/2 in 50-digit arithmetic
        mp.dps = 50
        expected = float((1 + mp.mpf("1.5") ** mp.mpf("0.2") - mp.mpf("0.5") ** mp.mpf("0.2")) / 2)
        grid = HurstGrid(0.1, 16, T=2.0)
        assert cov(grid, 1.0, 1.5) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self, rng):
        grid = HurstGrid(0.2, 32)
        for _ in range(50):
            s, t = rng.uniform(0.0, 1.0, 2)
            assert cov(grid, s, t) == cov(grid, t, s)

    def test_domain_errors(self):
        grid = HurstGrid(0.3, 16)
        with pytest.raises(ValueError):
            cov(grid, -0.1, 0.5)
        with pytest.raises(ValueError):
            cov(grid, 0.5, 1.5)


class TestGridValidation:
    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.3])
    def test_bad_hurst(self, H):
        with pytest.raises(ValueError):
            HurstGrid(H, 16)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            HurstGrid(0.3, 1)

    @pytest.mark.parametrize("n", [16.5, 16.0, "16", np.float64(16.0), [16]])
    def test_non_integer_n_is_refused(self, n):
        # a float n would space the grid by 1/n and stop it short of T
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 2, got {n!r}")):
            HurstGrid(0.1, n)

    @pytest.mark.parametrize("n", [16, np.int64(16), np.uint8(16)])
    def test_integer_n_is_stored_as_int(self, n):
        grid = HurstGrid(0.1, n)
        assert type(grid.n) is int and grid.n == 16
        assert grid == HurstGrid(0.1, 16) and hash(grid) == hash(HurstGrid(0.1, 16))
        assert grid.times()[-1] == 1.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            HurstGrid(0.3, 16, T=0.0)

    @pytest.mark.parametrize(
        "kwargs, setting",
        [(dict(H="0.1"), "H"), (dict(H=None), "H"), (dict(T="1"), "T"), (dict(T=None), "T")],
    )
    def test_text_reals_are_refused(self, kwargs, setting):
        # a real is a number, never parsed from text
        with pytest.raises(ValueError, match=rf"^{setting} must be a real number, got "):
            HurstGrid(**{"H": 0.1, "n": 16, **kwargs})

    def test_too_few_points(self):
        # floor(nT) = 1 < 2
        with pytest.raises(ValueError):
            HurstGrid(0.3, 2, T=0.6)


class TestFloorIndex:
    @given(st.integers(2, 2**20), st.data())
    def test_grid_times_snap_to_their_index(self, n, data):
        k = data.draw(st.integers(0, 4 * n))
        assert floor_index(n, k / n) == k

    @given(st.integers(2, 2**20), st.floats(0.0, 4.0))
    def test_times_clear_of_the_next_integer_floor(self, n, t):
        v = n * t
        assume(math.floor(v) + 1 - v > 1e-9 * max(1.0, v))
        assert floor_index(n, t) == math.floor(v)


# ---------------------------------------------------------------------------
# increment shape rho
# ---------------------------------------------------------------------------


class TestRho:
    def test_lag_zero(self):
        for H in (0.05, 0.1, 0.5, 0.9):
            assert rho(0, H) == 2.0

    def test_brownian_lags_vanish(self):
        assert rho(1, 0.5) == 0.0
        assert np.all(rho(np.arange(1, 50), 0.5) == 0.0)

    def test_lag_one_rough(self):
        assert rho(1, 0.1) == pytest.approx(2**0.2 - 2.0, rel=1e-15)

    def test_even_in_lag(self, rng):
        for H in (0.1, 0.3, 0.7):
            p = rng.integers(1, 1000, 30)
            assert np.array_equal(rho(p, H), rho(-p, H))

    def test_negative_off_zero_for_rough(self):
        # concavity of x^{2H} for H < 1/2
        p = np.arange(1, 10_001)
        for H in (0.05, 0.1, 0.25, 0.49):
            assert np.all(rho(p, H) < 0.0)


# ---------------------------------------------------------------------------
# increment covariances
# ---------------------------------------------------------------------------


def brute_increment_cov(grid, j, k):
    """Four-term kernel difference; the independent oracle for increment_cov."""
    n = grid.n
    return (
        cov(grid, (j + 1) / n, (k + 1) / n)
        - cov(grid, (j + 1) / n, k / n)
        - cov(grid, j / n, (k + 1) / n)
        + cov(grid, j / n, k / n)
    )


class TestIncrementCov:
    def test_diagonal_exact(self):
        for H, n in ((0.1, 64), (0.25, 128), (0.5, 32)):
            grid = HurstGrid(H, n)
            assert increment_cov(grid, 3, 3) == n ** (-2.0 * H)

    def test_lag_one(self):
        grid = HurstGrid(0.1, 64)
        expected = (2**0.2 - 2.0) / (2.0 * 64**0.2)
        assert increment_cov(grid, 5, 6) == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force(self):
        # agreement within 1e-12 relative to the diagonal scale n^{-2H}
        for H in (0.1, 0.25, 0.4):
            grid = HurstGrid(H, 32)
            scale = grid.n ** (-2.0 * grid.H)
            for j in range(grid.num_increments):
                for k in range(grid.num_increments):
                    closed = increment_cov(grid, j, k)
                    brute = brute_increment_cov(grid, j, k)
                    assert abs(closed - brute) <= 1e-12 * scale

    def test_far_lag_bound(self):
        # |cov| <= C n^{-2H} |j-k|^{2H-2} with C calibrated by brute force
        grid = HurstGrid(0.1, 100)
        value = increment_cov(grid, 0, 10)
        assert value == pytest.approx(brute_increment_cov(grid, 0, 10), rel=1e-9)
        c = 2 * grid.H * (1 - 2 * grid.H)  # mean-value constant
        assert abs(value) <= c * 100 ** (-0.2) * 10 ** (0.2 - 2.0)

    def test_symmetry_and_stationarity(self):
        grid = HurstGrid(0.2, 64)
        for j, k in ((0, 5), (3, 9), (10, 60)):
            assert increment_cov(grid, j, k) == increment_cov(grid, k, j)
            lag = k - j
            shifted = increment_cov(grid, j + 2, k + 2) if k + 2 < 64 else None
            if shifted is not None:
                assert increment_cov(grid, j, k) == shifted
            assert increment_cov(grid, j, k) == increment_cov(grid, 0, lag)

    def test_index_errors(self):
        grid = HurstGrid(0.2, 16)
        with pytest.raises(IndexError):
            increment_cov(grid, -1, 3)
        with pytest.raises(IndexError):
            increment_cov(grid, 0, 16)


class TestIncrementLevelCov:
    def test_zero_at_origin(self):
        grid = HurstGrid(0.17, 32)
        for j in (0, 5, 31):
            assert increment_level_cov(grid, j, 0.0) == 0.0

    def test_brownian_level(self):
        grid = HurstGrid(0.5, 32)
        for j in (0, 7):
            for t in ((j + 1) / 32, 0.5, 1.0):
                if t >= (j + 1) / 32:
                    assert increment_level_cov(grid, j, t) == pytest.approx(1 / 32, rel=1e-12)

    def test_uniform_bound(self):
        # |cov(increment, level)| <= 2 n^{-2H} for H < 1/2
        for H in (0.05, 0.1, 1 / 6, 0.25, 0.4):
            for n in (16, 64, 256):
                grid = HurstGrid(H, n)
                bound = 2.0 * n ** (-2.0 * H)
                ts = np.linspace(0.0, 1.0, 41)
                for j in range(0, grid.num_increments, max(1, grid.num_increments // 16)):
                    for t in ts:
                        assert abs(increment_level_cov(grid, j, float(t))) <= bound

    def test_rough_case_within_bound(self):
        grid = HurstGrid(0.1, 64)
        assert abs(increment_level_cov(grid, 5, 0.5)) <= 2.0 * 64 ** (-0.2)


class TestIncrementMidpointCov:
    def test_telescoping_sum(self):
        # sum over j of cov(increment j, own midpoint) telescopes the level variance
        for H, n in ((0.1, 10), (0.3, 16)):
            grid = HurstGrid(H, n)
            for upto in (3, grid.num_increments):
                total = sum(increment_midpoint_cov(grid, j, j) for j in range(upto))
                expected = 0.5 * (upto / n) ** (2 * H)
                assert total == pytest.approx(expected, rel=1e-12)

    def test_brownian_disjoint(self):
        grid = HurstGrid(0.5, 32)
        for j in (0, 3):
            for k in (j + 1, j + 5):
                assert increment_midpoint_cov(grid, j, k) == pytest.approx(1 / 32, rel=1e-12)

    def test_direct_oracle(self):
        # E[dB_0 (B_0 + B_{0.1})/2] expanded through the kernel directly
        grid = HurstGrid(0.1, 10)
        expected = 0.5 * (
            (cov(grid, 0.1, 0.0) - cov(grid, 0.0, 0.0))
            + (cov(grid, 0.1, 0.1) - cov(grid, 0.0, 0.1))
        )
        assert increment_midpoint_cov(grid, 0, 0) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.5 * 0.1**0.2, rel=1e-13)


# ---------------------------------------------------------------------------
# row sums
# ---------------------------------------------------------------------------


class TestAbsPowerSum:
    def test_brownian_increment_row(self):
        # only the diagonal term survives at H = 1/2
        grid = HurstGrid(0.5, 64)
        assert abs_power_sum(grid, "increment", 1, 10) == pytest.approx(1 / 64, rel=1e-12)

    def test_level_sum_ratio_under_doubling(self):
        # ratio of sums at n and 2n stays below 2^{-2(r-1)H} with 15% slack
        H, r = 0.1, 2
        a = abs_power_sum(HurstGrid(H, 64), "level", r, 0.5)
        b = abs_power_sum(HurstGrid(H, 128), "level", r, 0.5)
        assert b / a <= 2 ** (-2 * (r - 1) * H) * 1.15

    def test_increment_cube_constant_from_small_n(self):
        # C estimated by brute force at n=32 is not exceeded later (10% slack)
        for H in (0.1, 0.25, 0.4):
            def scaled(n):
                grid = HurstGrid(H, n)
                k = grid.num_increments // 2
                return abs_power_sum(grid, "increment", 3, k) * n ** (6 * H)

            c32 = scaled(32)
            for n in (64, 128, 256):
                assert scaled(n) <= 1.1 * c32

    def test_level_and_midpoint_constants_stable(self):
        for kind, r, fixed, decay in (
            ("level", 1, 0.5, 0.0),
            ("level", 3, 0.5, 4 * 0.1),
            ("midpoint", 2, None, 2 * 0.1),
        ):
            def scaled(n):
                return abs_power_sum(HurstGrid(0.1, n), kind, r, fixed) * n**decay

            c32 = scaled(32)
            for n in (64, 128, 256):
                assert scaled(n) <= 1.1 * c32

    def test_invalid_inputs(self):
        grid = HurstGrid(0.2, 16)
        with pytest.raises(ValueError):
            abs_power_sum(grid, "nope", 2, 0.5)
        with pytest.raises(ValueError):
            abs_power_sum(grid, "level", 0, 0.5)
        with pytest.raises(IndexError):
            abs_power_sum(grid, "increment", 2, 99)


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------


class TestGram:
    @pytest.mark.parametrize("H", [0.05, 0.1, 0.25, 0.5, 0.7])
    def test_positive_semidefinite(self, H):
        gram = increment_gram(HurstGrid(H, 64))
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-10

    def test_matches_pointwise(self):
        grid = HurstGrid(0.3, 16)
        gram = increment_gram(grid)
        for j in range(16):
            for k in range(16):
                assert gram[j, k] == increment_cov(grid, j, k)

    def test_cap_enforced(self):
        # the check raises before any matrix is built
        grid = HurstGrid(0.3, GRAM_CAP_DEFAULT + 1)
        with pytest.raises(ValueError, match="above the Gram cap"):
            increment_gram(grid)

    def test_returned_array_is_the_callers(self):
        # each call builds a new matrix, so writing to one reaches neither a
        # later call nor a Cholesky factor built after the write
        grid = HurstGrid(0.2, 32)
        chol = GeneratorKind.CHOLESKY_EXACT
        paths = generate_batch(grid, chol, [1, 2])
        gram = increment_gram(grid)
        expected = gram.copy()
        gram[:] = 0.0
        pathgen._cholesky_factor.cache_clear()
        assert np.array_equal(increment_gram(grid), expected)
        assert np.array_equal(generate_batch(grid, chol, [1, 2]), paths)
