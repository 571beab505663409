"""Statistical verdicts for the Monte Carlo experiments.

One-sample Kolmogorov-Smirnov against a fully specified normal null (the
limit theory supplies the variance, so no Lilliefors correction), log-log
slope fits for decay rates, Pearson correlation for independence checks, and
moment summaries whose variance standard error uses the fourth central moment
(the quintic-increment statistics are heavy-tailed, so chi-square intervals
would be wrong).

The normal CDF is ``_ndtr``, an array port of the Cephes ``ndtr`` (S. L.
Moshier) that ``scipy.special.ndtr`` runs, so the runtime needs numpy alone
and every KS statistic keeps scipy's bits.  Each branch of ``ndtr``, ``erf``
and ``erfc`` runs on the subset of elements that reaches it, with Cephes'
coefficient tables and evaluation order (``(e * P) / Q``, not ``e * (P / Q)``)
and libm ``exp`` (``math.exp``, which ``np.exp`` does not match bit for bit)
on the erfc subset alone; the branches that ``ndtr`` never reaches (erf at
|x| > 1, erfc at x < 0) are left out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# normal CDF (Cephes ndtr.c)
# ---------------------------------------------------------------------------

# Rational approximations of erfc on [1, 8) (P / Q) and [8, inf) (R / S), and
# of erf on [0, 1] (T / U); the leading 1 of Q, S and U is implicit (p1evl).
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF of an array, elementwise bit-equal to ``scipy.special.ndtr`` (Cephes).

    A scalar a gives a 0-d array; nan gives nan.
    """
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    out = np.full(x.shape, np.nan)
    # |x| < 1/sqrt 2: 0.5 + 0.5 erf(x), erf(x) = x T(x^2) / U(x^2); Cephes'
    # erf(-x) = -erf(x) is exact, so the sign needs no branch
    inner = z < _SQRT1_2
    w = x[inner]
    w2 = w * w
    out[inner] = 0.5 + 0.5 * (w * _polevl(w2, _ERF_T) / _p1evl(w2, _ERF_U))
    # else 0.5 erfc(|x|), reflected for x > 0; below |x| = 1 erfc is 1 - erf
    outer = z >= _SQRT1_2
    v = z[outer]
    y = np.zeros_like(v)
    near = v < 1.0
    w = v[near]
    w2 = w * w
    y[near] = 1.0 - w * _polevl(w2, _ERF_T) / _p1evl(w2, _ERF_U)
    # from 1 on, exp(-x^2) P(x) / Q(x) with libm exp, 0 once exp underflows
    for lo, hi, num, den in ((1.0, 8.0, _ERFC_P, _ERFC_Q), (8.0, np.inf, _ERFC_R, _ERFC_S)):
        part = (v >= lo) & (v < hi) & (v * v <= _MAXLOG)
        w = v[part]
        e = np.fromiter(map(math.exp, (-w * w).tolist()), dtype=np.float64, count=len(w))
        y[part] = e * _polevl(w, num) / _p1evl(w, den)
    y *= 0.5
    out[outer] = np.where(x[outer] > 0.0, 1.0 - y, y)
    return out


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
