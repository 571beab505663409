"""Statistics helpers: calibration oracles and exactness checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov as scipy_kolmogorov
from scipy.special import ndtr as scipy_ndtr

from fbmquad import (
    correlation,
    fit_loglog_slope,
    kolmogorov_p_value,
    ks_test_normal,
    summarize,
)
from fbmquad.stats import _SQRT1_2, _ndtr

SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------------------
# moment summaries
# ---------------------------------------------------------------------------


class TestSummarize:
    def test_variance_matches_fsum_oracle(self, rng):
        x = rng.normal(2.0, 3.0, 1_000_000)
        s = summarize(x)
        mean = math.fsum(x) / len(x)
        var = math.fsum((v - mean) ** 2 for v in x) / (len(x) - 1)
        assert s.variance == pytest.approx(var, rel=1e-12)
        assert s.mean == pytest.approx(mean, rel=1e-12)

    def test_variance_se_fourth_moment_formula(self, rng):
        x = rng.standard_normal(10_000)
        s = summarize(x)
        centered = x - x.mean()
        m4 = np.mean(centered**4)
        assert s.variance_se == pytest.approx(
            math.sqrt((m4 - s.variance**2) / len(x)), rel=1e-12
        )

    def test_gaussian_shape_moments(self, rng):
        x = rng.standard_normal(200_000)
        s = summarize(x)
        assert abs(s.skewness) < 0.02
        assert abs(s.excess_kurtosis) < 0.05

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            summarize([1.0])


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


class TestKolmogorovPValue:
    def test_matches_scipy_survival_function(self):
        for y in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
            assert kolmogorov_p_value(y) == pytest.approx(float(scipy_kolmogorov(y)), abs=1e-10)

    def test_limits(self):
        assert kolmogorov_p_value(0.0) == 1.0
        assert kolmogorov_p_value(10.0) == pytest.approx(0.0, abs=1e-12)


# +-1, +-sqrt 2 and +-8 sqrt 2 are the branch edges of Cephes ndtr, the form
# scipy runs; from about -37.7 on Cephes underflows to 0 while erfc stays
# subnormal, until it too underflows before -38.5; 5e-324 is the smallest
# subnormal argument
_CDF_EDGES = tuple(
    sign * x
    for x in (0.0, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.7, 38.5, math.inf)
    for sign in (1.0, -1.0)
) + (5e-324,)


def _at_cdf_edges(test):
    for a in reversed(_CDF_EDGES):
        test = example(a)(test)
    return test


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestNormalCdf:
    @settings(max_examples=1000)
    @given(a=st.floats(-40.0, 40.0))
    @_at_cdf_edges
    def test_bit_equal_to_scalar_erfc(self, a):
        # a scalar gives a 0-d array; an array keeps its shape, every element
        # of it evaluated on its own
        ours = _ndtr(a)
        assert ours.shape == ()
        assert _bits(ours) == _bits(0.5 * math.erfc(-a * _SQRT1_2))
        grid = np.array([[a, *_CDF_EDGES], [*_CDF_EDGES, a]])
        expected = [[0.5 * math.erfc(-x * _SQRT1_2) for x in row] for row in grid.tolist()]
        assert np.array_equal(_bits(_ndtr(grid)), _bits(expected))

    @settings(max_examples=1000)
    @given(a=st.floats(-40.0, 40.0))
    @_at_cdf_edges
    def test_close_to_scipy(self, a):
        # x / sqrt 2 is rounded before erfc; in the lower tail the CDF's
        # relative error grows as x^2 times that rounding
        eps = np.finfo(np.float64).eps
        ours, theirs = float(_ndtr(a)), float(scipy_ndtr(a))
        assert abs(ours - theirs) <= 2.0 * eps
        if theirs >= 1e-300:
            assert abs(ours - theirs) <= 16.0 * eps * max(1.0, a * a) * theirs

    def test_nan_propagates(self):
        assert math.isnan(_ndtr(math.nan))

    def test_runtime_imports_no_scipy(self):
        code = (
            "import sys, fbmquad, fbmquad.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class TestKsTestNormal:
    def test_point_mass(self):
        result = ks_test_normal(np.zeros(1000), sigma2=1.0)
        assert result.statistic == pytest.approx(0.5, abs=1e-12)
        assert result.p_value < 1e-100

    def test_calibration_under_null(self):
        # fraction of p < 0.05 over 200 repetitions of matched nulls
        rng = np.random.Generator(np.random.Philox(1234))
        rejections = 0
        for _ in range(200):
            samples = rng.normal(0.0, 2.0, 10_000)
            if ks_test_normal(samples, sigma2=4.0).p_value < 0.05:
                rejections += 1
        assert 0.02 <= rejections / 200 <= 0.09

    def test_power_against_inflated_variance(self):
        rng = np.random.Generator(np.random.Philox(88))
        rejections = sum(
            ks_test_normal(rng.normal(0.0, 2.0, 10_000), sigma2=1.0).p_value < 0.05
            for _ in range(100)
        )
        assert rejections / 100 > 0.99

    def test_scale_equivariance(self, rng):
        x = rng.normal(0.0, 3.0, 5000)
        a = ks_test_normal(x, sigma2=9.0)
        b = ks_test_normal(x / 3.0, sigma2=1.0)
        assert abs(a.statistic - b.statistic) <= 1e-12
        assert abs(a.p_value - b.p_value) <= 1e-12

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            ks_test_normal(rng.standard_normal(49), 1.0)
        with pytest.raises(ValueError):
            ks_test_normal(rng.standard_normal(100), 0.0)
        with pytest.raises(ValueError):
            ks_test_normal(np.array([np.nan] * 100), 1.0)


# ---------------------------------------------------------------------------
# slope fits
# ---------------------------------------------------------------------------


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        pairs = [(n, 3.7 / n) for n in (16, 64, 256, 1024)]
        fit = fit_loglog_slope(pairs)
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)
        assert fit.stderr <= 1e-10

    def test_constant_sequence(self):
        fit = fit_loglog_slope([(16, 2.5), (64, 2.5), (256, 2.5)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_general_exponent(self):
        pairs = [(n, 0.2 * n**-1.7) for n in (8, 32, 128, 512)]
        assert fit_loglog_slope(pairs).slope == pytest.approx(-1.7, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(16, 1.0), (32, 0.5)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(16, 1.0), (32, -0.5), (64, 0.2)])


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


class TestCorrelation:
    def test_perfect_correlation(self, rng):
        x = rng.standard_normal(100)
        assert correlation(x, x) == pytest.approx(1.0, rel=1e-12)
        assert correlation(x, -x) == pytest.approx(-1.0, rel=1e-12)

    def test_independent_pairs_calibration(self):
        # |r| < 4/sqrt(N) should hold in at least 99% of repetitions
        rng = np.random.Generator(np.random.Philox(55))
        count = 10_000
        hits = sum(
            abs(correlation(rng.standard_normal(count), rng.standard_normal(count)))
            < 4.0 / math.sqrt(count)
            for _ in range(100)
        )
        assert hits >= 99

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            correlation(np.ones(10), np.arange(10.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            correlation(np.arange(5.0), np.arange(6.0))
