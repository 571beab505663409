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
counter alone (Salmon et al., SC'11), so the keys of a whole block are derived
at once with the same hash arithmetic, and one bit generator per block is
re-keyed for each row.  Seeds are integers, taken exactly: a float, a string
or a nested sequence is refused with ValueError rather than rounded or parsed.

``generate_batch`` runs its rows in blocks of ``block_rows(m)`` =
max(8, 2**17 // m) rows for m increments, for both samplers, and sums each
block straight into the returned levels.  A circulant block reuses one
spectrum buffer, allocated once per call: at most 2^18 complex entries
(4 MiB), or 8 rows of 2m above m = 2^14.  So a batch costs its levels plus one
block, whatever its length.  Rows are independent and numpy's FFT gives the
same bits at any row count, so the block size moves no output bit.  Eight
rows is the floor because numpy's FFT loses its row batching below about 4
rows (per-row cost of a length-2^15 FFT on a 2-core Xeon, numpy 2.4.6, at 1,
2, 3, 4, 8 and 16 rows: 625, 616, 518, 316, 272 and 256 us).  A one-block
call allocates the spectrum first and the levels only after the transform:
allocating the levels first raised the benchmark's peak RSS by about 1 MiB
through glibc's adaptive mmap threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .covariance import HurstGrid, _integer, fgn_autocov, increment_gram

#: Embedding eigenvalues in [EIGENVALUE_TOL, 0) are clamped to zero; anything
#: below makes circulant generation raise ValueError.
EIGENVALUE_TOL = -1e-9

#: Seeds accepted by the samplers: entropy of at most four 32-bit words, which
#: the vectorized key derivation reproduces exactly.
SEED_LIMIT = 2**128

#: Increments in one sampler block, and the fewest rows a block holds.
_BLOCK_INCREMENTS = 2**17
_MIN_BLOCK_ROWS = 8

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
    pool = np.random.SeedSequence(_integer(master_seed, "master seed must be an integer")).pool
    index = np.arange(2 * start, 2 * stop)
    h = _hash_constants(_INIT_B, _MULT_B, 2 * start, 2 * (stop - start))
    return _hashmix(pool[index % _POOL_SIZE], h).astype("<u4").view("<u8").astype(np.uint64)


def generate(grid: HurstGrid, kind: GeneratorKind, seed: int) -> FbmPath:
    """Sample one trajectory; deterministic in (grid, kind, seed)."""
    values = generate_batch(grid, kind, [seed])[0]
    return FbmPath(grid=grid, values=values, seed=int(seed))


def generate_batch(grid: HurstGrid, kind: GeneratorKind, seeds) -> np.ndarray:
    """Sample one trajectory per seed; row i equals generate(grid, kind, seeds[i]).

    Each row consumes its own Philox stream, so neither the batch nor its
    blocks have any effect on the values.  Seeds must be integers in
    [0, 2**128).  Returns an array of shape (len(seeds), floor(nT)+1).
    """
    seeds = _seed_list(seeds)
    sample = _circulant_blocks if kind is GeneratorKind.CIRCULANT_EMBEDDING else _cholesky_blocks
    paths = None
    for rows, fgn in sample(grid, seeds):
        if paths is None:  # after the first transform: see the module docstring
            paths = np.empty((len(seeds), grid.num_increments + 1))
            paths[:, 0] = 0.0
        np.cumsum(fgn, axis=1, out=paths[rows, 1:])
    return paths


def block_rows(m: int) -> int:
    """Rows in one ``generate_batch`` block at m increments: max(8, 2**17 // m)."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_INCREMENTS // m)


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


def _seed_list(seeds) -> list[int]:
    """Path seeds as Python ints in [0, SEED_LIMIT).

    An integer array goes through ``tolist()``, so a uint64 stays exact where
    a float64 round trip would not; any other sequence is taken element by
    element, so a list that mixes int64- and uint64-range ints is exact too.
    """
    message = "seeds must be integers in [0, 2**128)"
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        seeds = seeds.tolist()
    try:
        seeds = list(seeds)
    except TypeError:
        raise ValueError(f"seeds must be a sequence of integers, got {seeds!r}") from None
    out = [_integer(s, message) for s in seeds]
    for s in out:
        if not 0 <= s < SEED_LIMIT:
            raise ValueError(f"{message}, got {s}")
    return out


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


def _blocks(seeds: list[int], m: int):
    """(rows, seeds) of each block; a batch without seeds is one empty block."""
    step = block_rows(m)
    for lo in range(0, max(len(seeds), 1), step):
        part = seeds[lo : lo + step]
        yield slice(lo, lo + len(part)), part


def _cholesky_blocks(grid: HurstGrid, seeds: list[int]):
    """Yield (rows, fgn) per block, the increments as factor @ z row by row."""
    factor = _cholesky_factor(grid)  # increment_gram enforces the Gram cap
    m = grid.num_increments
    normals = np.empty((min(len(seeds), block_rows(m)), m))
    for rows, part in _blocks(seeds, m):
        block = normals[: len(part)]
        _fill_normals(part, block)
        # a stack of matrix-vector products, one gemv per row, gives the bits of
        # ``factor @ row``; one GEMM ``normals @ factor.T`` would round differently
        yield rows, np.matmul(factor, block[:, :, None])[:, :, 0]


def _circulant_blocks(grid: HurstGrid, seeds: list[int]):
    """Davies-Harte sampling; yield (rows, fgn) per block of one reused complex spectrum.

    Row i's 2m normals z are drawn straight into the float view of its
    spectrum, where z[2k], z[2k+1] already sit at Re X_k, Im X_k.  Scaling by
    sqrt(lambda_k) (over sqrt 2 inside) then gives X_1..X_{m-1}; X_0 is real
    (its imaginary part is scaled by 0), X_m = sqrt(lambda_m) z[1] is real, and
    X_{2m-k} = conj(X_k).  The complex FFT runs in place; fgn is a view of its
    real part, valid until the next block overwrites the spectrum.
    """
    m = grid.num_increments
    sq = _sqrt_eigenvalues(grid)
    two_m = 2 * m
    spectrum = np.empty((min(len(seeds), block_rows(m)), two_m), dtype=np.complex128)
    for rows, part in _blocks(seeds, m):
        spectral = spectrum[: len(part)]
        floats = spectral.view(np.float64)[:, :two_m]
        _fill_normals(part, floats)
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
        yield rows, fgn
