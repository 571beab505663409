"""Closed-form covariance kernel of fractional Brownian motion on a uniform grid.

Every second-order quantity needed by the samplers and the Monte Carlo
experiments reduces to two closed forms: the kernel

    R(s, t) = (s^{2H} + t^{2H} - |t - s|^{2H}) / 2

and the stationary increment shape

    rho(p) = |p+1|^{2H} - 2|p|^{2H} + |p-1|^{2H},

the discrete second difference of x -> |x|^{2H}.  Nothing here is obtained by
numeric quadrature, so these functions double as the brute-force oracle for
the path generators.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

#: Largest number of increments for which a dense Gram matrix is materialized.
GRAM_CAP_DEFAULT = 4096


def floor_index(n: int, t: float) -> int:
    """floor(n*t), snapping up when the float product sits just below an integer."""
    v = n * t
    f = math.floor(v)
    if (f + 1) - v < 1e-9 * max(1.0, abs(v)):
        f += 1
    return f


@dataclass(frozen=True)
class HurstGrid:
    """Uniform partition {j/n : 0 <= j <= floor(nT)} of [0, T] with Hurst exponent H."""

    H: float
    n: int
    T: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", _real(self.H, "H must be a real number"))
        object.__setattr__(self, "n", _integer(self.n, "n must be an integer >= 2"))
        object.__setattr__(self, "T", _real(self.T, "T must be a real number"))
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"H must lie in the open interval (0, 1), got {self.H}")
        if self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.num_increments < 2:
            raise ValueError("grid must have at least 3 points, i.e. floor(nT) >= 2")

    @property
    def num_increments(self) -> int:
        """Number of full increments on [0, T], i.e. floor(nT)."""
        return floor_index(self.n, self.T)

    def times(self) -> np.ndarray:
        """Grid points j/n for j = 0..floor(nT)."""
        return np.arange(self.num_increments + 1, dtype=np.float64) / self.n


def rho(p, H: float):
    """Second difference of |x|^{2H} at integer lag p (scalar or array).

    This is the autocorrelation shape of unit-spacing fractional Gaussian
    noise: rho(0) = 2, rho(p) = rho(-p), and every off-zero lag vanishes for
    Brownian motion (H = 1/2).
    """
    q = np.abs(np.asarray(p, dtype=np.float64))
    out = np.abs(q + 1.0) ** (2 * H) - 2.0 * q ** (2 * H) + np.abs(q - 1.0) ** (2 * H)
    if np.isscalar(p) or np.ndim(p) == 0:
        return float(out)
    return out


def cov(grid: HurstGrid, s: float, t: float) -> float:
    """Kernel R(s, t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2 for times in [0, T]."""
    _check_time(grid, s)
    _check_time(grid, t)
    H2 = 2.0 * grid.H
    gap = 0.0 if s == t else abs(t - s) ** H2
    return 0.5 * (s**H2 + t**H2 - gap)


def increment_gram(grid: HurstGrid) -> np.ndarray:
    """Dense Gram matrix [Cov(increment j, increment k)], up to ``GRAM_CAP_DEFAULT`` increments.

    The matrix is Toeplitz by stationarity; above the cap it raises ValueError,
    and callers should work with lag-indexed values from :func:`rho` instead.
    Each call builds a new array.
    """
    m = grid.num_increments
    if m > GRAM_CAP_DEFAULT:
        raise ValueError(f"grid has {m} increments, above the Gram cap {GRAM_CAP_DEFAULT}")
    row = fgn_autocov(grid, m - 1)
    idx = np.arange(m)
    return row[np.abs(idx[:, None] - idx[None, :])]


def fgn_autocov(grid: HurstGrid, max_lag: int) -> np.ndarray:
    """Autocovariance gamma(k) = n^{-2H} rho(k)/2 of the increment sequence, k = 0..max_lag."""
    lags = np.arange(max_lag + 1)
    return grid.n ** (-2.0 * grid.H) * rho(lags, grid.H) / 2.0


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _integer(value, message: str) -> int:
    """``value`` as an int, exactly; anything without ``__index__`` raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{message}, got {value!r}") from None


def _real(value, message: str) -> float:
    """``value`` as a float, for any ``numbers.Real``; text, None and the rest raise ValueError."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{message}, got {value!r}")
    return float(value)


def _check_time(grid: HurstGrid, t: float) -> None:
    if not 0.0 <= t <= grid.T:
        raise ValueError(f"time {t} outside [0, {grid.T}]")

