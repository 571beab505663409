"""Covariance, seeding, path and kernel helpers that only the tests use.

They restate closed forms of the fBm kernel entry by entry, draw from freshly
seeded streams and keep the straightforward loop, ``pow`` and
allocate-per-step forms of the samplers, test functions and statistics, as
oracles for the package's vectorized Gram matrix, seed windows, samplers,
cached derivatives and in-place quadrature kernels.
"""

import numpy as np

from fbmquad import (
    FbmPath,
    GeneratorKind,
    HurstGrid,
    Polynomial,
    ScaledCosine,
    circulant_eigenvalues,
    cov,
    increment_gram,
    replication_seeds,
    rho,
)

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


def fresh_stream(seed: int) -> np.random.Generator:
    """The generator a path with this seed must draw from."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def increments(path: FbmPath) -> np.ndarray:
    """B_{(j+1)/n} - B_{j/n} for j = 0..floor(nT)-1."""
    return np.diff(path.values)


def midpoints(path: FbmPath) -> np.ndarray:
    """(B_{j/n} + B_{(j+1)/n}) / 2 for j = 0..floor(nT)-1."""
    return 0.5 * (path.values[:-1] + path.values[1:])


def per_row_levels(grid: HurstGrid, kind: GeneratorKind, seeds) -> np.ndarray:
    """Paths sampled one row at a time from fresh streams, spectrum assembled per row.

    The straightforward form of both samplers; ``generate_batch`` must equal it
    bit for bit.
    """
    m = grid.num_increments
    fgn = np.empty((len(seeds), m))
    if kind is GeneratorKind.CHOLESKY_EXACT:
        factor = np.linalg.cholesky(increment_gram(grid))
        for i, seed in enumerate(seeds):
            fgn[i] = factor @ fresh_stream(int(seed)).standard_normal(m)
    else:
        sq = np.sqrt(np.clip(circulant_eigenvalues(grid), 0.0, None))
        two_m = 2 * m
        spectral = np.empty((len(seeds), two_m), dtype=np.complex128)
        half = sq[1:m] / np.sqrt(2.0)
        for i, seed in enumerate(seeds):
            z = fresh_stream(int(seed)).standard_normal(two_m)
            spectral[i, 0] = sq[0] * z[0]
            spectral[i, m] = sq[m] * z[1]
            interior = half * (z[2:two_m:2] + 1j * z[3:two_m:2])
            spectral[i, 1:m] = interior
            spectral[i, m + 1 :] = np.conj(interior[::-1])
        fgn[:] = np.fft.fft(spectral, axis=1).real[:, :m] / np.sqrt(two_m)
    paths = np.zeros((len(seeds), m + 1))
    np.cumsum(fgn, axis=1, out=paths[:, 1:])
    return paths


def pow_midpoint_terms(values: np.ndarray, g, r: int) -> np.ndarray:
    """Row-wise terms g(mid_j) dB_j^r with dB^r through ``pow``, g always evaluated."""
    db = np.diff(values, axis=1)
    mid = 0.5 * (values[:, :-1] + values[:, 1:])
    return g(mid) * db**r


def kfold_derivative(coeffs, k: int) -> tuple:
    """Coefficients of the k-th derivative, differentiated k times from scratch."""
    coeffs = list(coeffs)
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
    return tuple(coeffs)


def per_step_value(f, x):
    """f(x) allocating at every step: Horner as ``acc = acc * x + c``, all four cosine branches."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(f, ScaledCosine):
        arg = f.frequency * x
        base = (np.cos(arg), -np.sin(arg), -np.cos(arg), np.sin(arg))[f.quarter_turns]
        return f.amplitude * base
    acc = np.zeros_like(x)
    for c in reversed(f.coeffs):
        acc = acc * x + float(c)
    return acc


def per_step_riemann_sums(values: np.ndarray, f, kind) -> np.ndarray:
    """Row-wise Riemann sums with fresh arrays for every node, value and product."""
    left = values[:, :-1]
    db = np.diff(values, axis=1)
    if isinstance(f, Polynomial):
        fprime = Polynomial(kfold_derivative(f.coeffs, 1))
    else:
        fprime = f.derivative(1)
    acc = np.zeros_like(db)
    for offset, weight in zip(kind.offsets, kind.weights):
        acc += float(weight) * per_step_value(fprime, left + float(offset) * db)
    return np.sum(acc * db, axis=1)


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
