"""Covariance and seeding helpers that only the tests use.

They restate closed forms of the fBm kernel entry by entry and serve as
oracles for the package's vectorized Gram matrix, samplers and seed windows.
"""

import numpy as np

from fbmquad import HurstGrid, cov, replication_seeds, rho

#: Sum families supported by :func:`abs_power_sum`.
SUM_KINDS = ("level", "midpoint", "increment")


def increment_cov(grid: HurstGrid, j: int, k: int) -> float:
    """Covariance of the j-th and k-th grid increments.

    Equals n^{-2H} * rho(j - k) / 2; in particular n^{-2H} on the diagonal and
    (2^{2H} - 2) / (2 n^{2H}) at lag one.  Depends on (j, k) only through
    |j - k| (increment stationarity).
    """
    _check_increment_index(grid, j)
    _check_increment_index(grid, k)
    return grid.n ** (-2.0 * grid.H) * rho(j - k, grid.H) / 2.0


def increment_level_cov(grid: HurstGrid, j: int, t: float) -> float:
    """Covariance of the j-th increment with the path level at time t."""
    _check_increment_index(grid, j)
    return cov(grid, (j + 1) / grid.n, t) - cov(grid, j / grid.n, t)


def increment_midpoint_cov(grid: HurstGrid, j: int, k: int) -> float:
    """Covariance of the j-th increment with the k-th midpoint level (B_k + B_{k+1})/2."""
    _check_increment_index(grid, j)
    _check_increment_index(grid, k)
    n = grid.n
    return 0.5 * (increment_level_cov(grid, j, k / n) + increment_level_cov(grid, j, (k + 1) / n))


def abs_power_sum(grid: HurstGrid, kind: str, r: int, fixed=None) -> float:
    """Row sum sum_j |c_j|^r of one family of increment covariances.

    kind selects the family, with ``fixed`` supplying its parameter:

    - ``"level"``: c_j = Cov(increment j, level at fixed time s), fixed = s;
    - ``"midpoint"``: c_j = Cov(increment j, its own midpoint level), fixed unused;
    - ``"increment"``: c_j = Cov(increment j, increment k), fixed = k.

    These sums decay like n^{-2(r-1)H} (level/midpoint) and n^{-2rH}
    (increment) for H < 1/2.
    """
    if kind not in SUM_KINDS:
        raise ValueError(f"kind must be one of {SUM_KINDS}, got {kind!r}")
    if r < 1:
        raise ValueError(f"power r must be a positive integer, got {r}")
    m = grid.num_increments
    if kind == "level":
        s = float(fixed)
        if not 0.0 <= s <= grid.T:
            raise ValueError(f"time {s} outside [0, {grid.T}]")
        terms = _level_cov_profile(grid, np.full(m, s))
    elif kind == "midpoint":
        nodes = grid.times()
        left = _level_cov_profile(grid, nodes[:-1])
        right = _level_cov_profile(grid, nodes[1:])
        terms = 0.5 * (left + right)
    else:
        k = int(fixed)
        _check_increment_index(grid, k)
        lags = np.arange(m) - k
        terms = grid.n ** (-2.0 * grid.H) * rho(lags, grid.H) / 2.0
    return float(np.sum(np.abs(terms) ** r))


def replication_seed(master_seed: int, stream_index: int) -> int:
    """64-bit sub-seed for one replication stream of a seeded experiment."""
    return int(replication_seeds(master_seed, stream_index, stream_index + 1)[0])


def _check_increment_index(grid: HurstGrid, j: int) -> None:
    if not 0 <= j <= grid.num_increments - 1:
        raise IndexError(f"increment index {j} outside 0..{grid.num_increments - 1}")


def _level_cov_profile(grid: HurstGrid, s_values: np.ndarray) -> np.ndarray:
    """Cov(increment j, level at s_j) for a per-increment vector of times."""
    H2 = 2.0 * grid.H
    t = grid.times()
    lo, hi = t[:-1], t[1:]

    def kernel(a, b):
        return 0.5 * (a**H2 + b**H2 - np.abs(a - b) ** H2)

    return kernel(hi, s_values) - kernel(lo, s_values)
