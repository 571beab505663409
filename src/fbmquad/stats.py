"""Statistical verdicts for the Monte Carlo experiments.

One-sample Kolmogorov-Smirnov against a fully specified normal null (the
limit theory supplies the variance, so no Lilliefors correction), log-log
slope fits for decay rates, Pearson correlation for independence checks, and
moment summaries whose variance standard error uses the fourth central moment
(the quintic-increment statistics are heavy-tailed, so chi-square intervals
would be wrong).

The normal CDF is ``_ndtr``, 0.5 erfc(-x / sqrt 2) through the standard
library's ``math.erfc``, so the runtime needs numpy alone.  No port of a
special-function library is needed to match one bit for bit: libm ``erfc`` is
within a few ulp of the true value, and the KS statistic only compares the CDF
with steps of 1/N, so a few ulp move it by a few 1e-16 absolute, far below
the resolution of any verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_SQRT1_2 = 7.07106781186547524401e-1


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-x / sqrt 2), elementwise through libm ``erfc``.

    A scalar a gives a 0-d array; nan gives nan.
    """
    x = np.asarray(a, dtype=np.float64) * -_SQRT1_2
    out = np.fromiter(map(math.erfc, x.ravel().tolist()), dtype=np.float64, count=x.size)
    out *= 0.5
    return out.reshape(x.shape)


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float
    variance_se: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float


def summarize(samples) -> SampleSummary:
    """Moment summary; variance is unbiased, its SE comes from the 4th moment."""
    x = np.asarray(samples, dtype=np.float64)
    count = len(x)
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    variance = float(np.var(x, ddof=1))
    variance_se = math.sqrt(max(m4 - variance**2, 0.0) / count)
    if m2 > 0.0:
        skewness = m3 / m2**1.5
        excess_kurtosis = m4 / m2**2 - 3.0
    else:
        skewness = 0.0
        excess_kurtosis = 0.0
    return SampleSummary(count, mean, variance, variance_se, skewness, excess_kurtosis)


def ks_test_normal(samples, sigma2: float) -> KsResult:
    """One-sample KS statistic and asymptotic p-value against N(0, sigma2)."""
    x = np.asarray(samples, dtype=np.float64)
    count = len(x)
    if count < 50:
        raise ValueError(f"KS test needs at least 50 samples, got {count}")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    z = np.sort(x) / math.sqrt(sigma2)
    cdf = _ndtr(z)
    steps = np.arange(1, count + 1) / count
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / count)))
    statistic = max(d_plus, d_minus)
    return KsResult(statistic=statistic, p_value=kolmogorov_p_value(math.sqrt(count) * statistic))


def kolmogorov_p_value(y: float) -> float:
    """Asymptotic KS survival probability 2 sum_k (-1)^{k-1} exp(-2 k^2 y^2).

    Terms are added until they fall below 1e-12, with at least 100 terms when
    the series is that slow; the result is clamped to [0, 1].
    """
    if y <= 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100_000):
        term = math.exp(-2.0 * k * k * y * y)
        total += sign * term
        if term < 1e-12 and k >= 100:
            break
        if term == 0.0:
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def fit_loglog_slope(pairs) -> SlopeFit:
    """Ordinary least squares of log y on log n for power-law rate estimation."""
    ns = np.array([float(n) for n, _ in pairs])
    ys = np.array([float(y) for _, y in pairs])
    if len(set(ns)) < 3:
        raise ValueError("need at least 3 distinct n values")
    if np.any(ys <= 0.0):
        raise ValueError("all y values must be positive")
    lx = np.log(ns)
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    sxx = float(np.sum(lx_c**2))
    slope = float(np.sum(lx_c * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (intercept + slope * lx)
    dof = len(ns) - 2
    stderr = math.sqrt(float(np.sum(residuals**2)) / dof / sxx)
    return SlopeFit(slope=slope, stderr=stderr)


def correlation(x, y) -> float:
    """Pearson correlation; rejects constant inputs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-d arrays with >= 2 entries")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.sum(xc**2)) * float(np.sum(yc**2)))
    if denom == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(np.sum(xc * yc) / denom)
