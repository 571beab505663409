"""Exact sampling of fractional Brownian motion trajectories on a uniform grid.

Two generators, both exact in law:

- ``CHOLESKY_EXACT``: dense Cholesky factor of the increment Gram matrix, the
  slow reference method, limited to grids below the Gram cap;
- ``CIRCULANT_EMBEDDING``: the stationary increment sequence is embedded into
  a circulant covariance diagonalized by the FFT (O(m log m)), then summed.

Randomness comes from counter-based Philox streams: the path for seed ``s``
draws its normals from ``Generator(Philox(SeedSequence(s)))``, so a path is a
pure function of (grid, kind, seed) and replications of an experiment can be
generated in any order or thread count.

The stream layer reproduces numpy's seeding bit for bit without running it
per path.  ``SeedSequence.generate_state`` has a closed form for each output
word, so a window of replication seeds costs O(stop - start) wherever it sits
in the master expansion.  A Philox stream is a function of its key and
counter alone (Salmon et al., SC'11), so the keys of a whole batch are derived
at once with the same hash arithmetic, and one bit generator per batch is
re-keyed for each row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .covariance import HurstGrid, fgn_autocov, increment_gram

#: Embedding eigenvalues in [EIGENVALUE_TOL, 0) are clamped to zero; anything
#: below makes circulant generation raise ValueError.
EIGENVALUE_TOL = -1e-9

#: Seeds accepted by the samplers: entropy of at most four 32-bit words, which
#: the vectorized key derivation reproduces exactly.
SEED_LIMIT = 2**128

# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


class GeneratorKind(Enum):
    CHOLESKY_EXACT = "cholesky"
    CIRCULANT_EMBEDDING = "circulant"


@dataclass
class FbmPath:
    """One sampled trajectory: values B_{j/n} for j = 0..floor(nT)."""

    grid: HurstGrid
    values: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) != self.grid.num_increments + 1:
            raise ValueError("path length must equal floor(nT) + 1")
        if self.values[0] != 0.0:
            raise ValueError("path must start at exactly 0")


def replication_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Sub-seeds for streams start..stop-1, sliced from the master expansion.

    Equals ``SeedSequence(master_seed).generate_state(stop, np.uint64)[start:stop]``
    and costs O(stop - start).  The expansion is prefix-stable, so a stream's
    seed does not depend on how many other streams an experiment uses.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start}..{stop}")
    pool = np.random.SeedSequence(int(master_seed)).pool
    index = np.arange(2 * start, 2 * stop)
    h = _hash_constants(_INIT_B, _MULT_B, 2 * start, 2 * (stop - start))
    return _hashmix(pool[index % _POOL_SIZE], h).astype("<u4").view("<u8").astype(np.uint64)


def generate(grid: HurstGrid, kind: GeneratorKind, seed: int) -> FbmPath:
    """Sample one trajectory; deterministic in (grid, kind, seed)."""
    values = generate_batch(grid, kind, [seed])[0]
    return FbmPath(grid=grid, values=values, seed=int(seed))


def generate_batch(grid: HurstGrid, kind: GeneratorKind, seeds) -> np.ndarray:
    """Sample one trajectory per seed; row i equals generate(grid, kind, seeds[i]).

    Each row consumes its own Philox stream, so the batch decomposition has no
    effect on the values.  Seeds must lie in [0, 2**128).  Returns an array of
    shape (len(seeds), floor(nT)+1).
    """
    seeds = [int(s) for s in np.atleast_1d(seeds).tolist()]
    bad = [s for s in seeds if not 0 <= s < SEED_LIMIT]
    if bad:
        raise ValueError(f"seeds must lie in [0, 2**128), got {bad[0]}")
    if kind is GeneratorKind.CIRCULANT_EMBEDDING:
        fgn = _circulant_fgn(grid, seeds)
    else:
        fgn = _cholesky_fgn(grid, seeds)
    paths = np.empty((len(seeds), grid.num_increments + 1))
    paths[:, 0] = 0.0
    np.cumsum(fgn, axis=1, out=paths[:, 1:])
    return paths


def circulant_eigenvalues(grid: HurstGrid) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the increment autocovariance.

    Nonnegative in exact arithmetic for fractional Gaussian noise; the
    generator clamps values within EIGENVALUE_TOL of zero and raises
    ValueError below that.
    """
    m = grid.num_increments
    gamma = fgn_autocov(grid, m)
    first_row = np.concatenate([gamma, gamma[m - 1 : 0 : -1]])
    return np.fft.fft(first_row).real


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Hash multipliers h_i = init * mult**i mod 2**32 for i = first..first+count."""
    h = np.full(count + 1, mult, dtype=np.uint32)
    h[0] = init * pow(mult, first, 2**32) % 2**32
    return np.cumprod(h, dtype=np.uint32)


def _hashmix(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix along the last axis: w_i = (v_i ^ h_i) * h_{i+1}, w ^= w >> 16."""
    words = (values ^ h[:-1]) * h[1:]
    return words ^ (words >> _XSHIFT)


#: Multipliers of the 4 + 12 hashmix calls in ``SeedSequence.mix_entropy``.
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, 0, 16)
#: Multipliers of the 4 words of ``generate_state(2, np.uint64)``, a Philox key.
_KEY_HASH = _hash_constants(_INIT_B, _MULT_B, 0, _POOL_SIZE)


def _philox_keys(seeds: list[int]) -> np.ndarray:
    """Key of ``Philox(SeedSequence(s))`` for each seed s in [0, 2**128), shape (N, 2).

    Replays ``SeedSequence.mix_entropy`` and ``generate_state`` on all seeds at
    once.  The multiplier sequence does not depend on the data, and an entropy
    word past the end of a short seed hashes like a zero word, so every seed
    is padded to the four words of the pool.  Within one source word the
    three mixes into the other pool words are independent, so they run as one
    array operation.
    """
    entropy = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in seeds), dtype="<u4")
    pool = _hashmix(entropy.reshape(-1, _POOL_SIZE), _ENTROPY_HASH[:5])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[:, src, None], _ENTROPY_HASH[k : k + 4])
        mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * hashed
        pool[:, dst] = mixed ^ (mixed >> _XSHIFT)
        k += 3
    return _hashmix(pool, _KEY_HASH).astype("<u4").view("<u8").astype(np.uint64)


def _fill_normals(seeds: list[int], out: np.ndarray) -> None:
    """Fill row i of ``out`` with standard normals from seeds[i]'s Philox stream, in order.

    One bit generator serves the whole batch: for each row it is reset to
    that seed's key with a zero counter and an empty buffer, which is exactly
    the state of a freshly seeded ``Philox(SeedSequence(seed))``.  The state
    setter copies its words one element at a time, so they are handed over as
    Python ints, which it reads faster than numpy scalars.  The rows of
    ``out`` must be C-contiguous; they are written without a temporary.
    """
    bit_generator = np.random.Philox(0)
    normals = np.random.Generator(bit_generator)
    zeros = [0, 0, 0, 0]
    for row, key in zip(out, _philox_keys(seeds).tolist()):
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        normals.standard_normal(out=row)


@lru_cache(maxsize=8)
def _sqrt_eigenvalues(grid: HurstGrid) -> np.ndarray:
    """sqrt of the embedding eigenvalues, after clamping those in [EIGENVALUE_TOL, 0)."""
    lam = circulant_eigenvalues(grid)
    if lam.min() < EIGENVALUE_TOL:
        raise ValueError(
            f"circulant embedding of H={grid.H}, n={grid.n} is not nonnegative definite: "
            f"minimum eigenvalue {float(lam.min())!r} < {EIGENVALUE_TOL}"
        )
    sq = np.sqrt(np.clip(lam, 0.0, None))
    sq.setflags(write=False)
    return sq


@lru_cache(maxsize=8)
def _cholesky_factor(grid: HurstGrid) -> np.ndarray:
    factor = np.linalg.cholesky(increment_gram(grid))
    factor.setflags(write=False)
    return factor


def _cholesky_fgn(grid: HurstGrid, seeds: list[int]) -> np.ndarray:
    factor = _cholesky_factor(grid)  # increment_gram enforces the Gram cap
    normals = np.empty((len(seeds), grid.num_increments))
    _fill_normals(seeds, normals)
    # a stack of matrix-vector products, one gemv per row, gives the bits of
    # ``factor @ row``; one GEMM ``normals @ factor.T`` would round differently
    return np.matmul(factor, normals[:, :, None])[:, :, 0]


def _circulant_fgn(grid: HurstGrid, seeds: list[int]) -> np.ndarray:
    """Davies-Harte sampling, assembled in one preallocated (N, 2m) complex spectrum.

    Row i's 2m normals z are drawn straight into the float view of its
    spectrum, where z[2k], z[2k+1] already sit at Re X_k, Im X_k.  Scaling by
    sqrt(lambda_k) (over sqrt 2 inside) then gives X_1..X_{m-1}; X_0 is real
    (its imaginary part is scaled by 0), X_m = sqrt(lambda_m) z[1] is real, and
    X_{2m-k} = conj(X_k).  The complex FFT runs in place; the result is a view
    of its real part.
    """
    m = grid.num_increments
    sq = _sqrt_eigenvalues(grid)
    two_m = 2 * m
    spectral = np.empty((len(seeds), two_m), dtype=np.complex128)
    floats = spectral.view(np.float64)[:, :two_m]
    _fill_normals(seeds, floats)
    x_m = sq[m] * floats[:, 1]
    scale = np.empty(two_m)
    scale[:2] = sq[0], 0.0
    scale[2:] = np.repeat(sq[1:m] / np.sqrt(2.0), 2)
    floats *= scale
    spectral[:, m] = x_m
    np.conjugate(spectral[:, m - 1 : 0 : -1], out=spectral[:, m + 1 :])
    np.fft.fft(spectral, axis=1, out=spectral)
    fgn = spectral.real[:, :m]
    fgn /= np.sqrt(two_m)
    return fgn
