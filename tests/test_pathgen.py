"""Path generators: reproducibility, law correctness, embedding health."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from fbmquad import pathgen
from fbmquad import (
    EIGENVALUE_TOL,
    FbmPath,
    GeneratorKind,
    HurstGrid,
    circulant_eigenvalues,
    fgn_autocov,
    generate,
    generate_batch,
    increment_gram,
    replication_seeds,
    write_path_csv,
)
from oracle import fresh_stream, increments, midpoints, per_row_levels, replication_seed

CIRC = GeneratorKind.CIRCULANT_EMBEDDING
CHOL = GeneratorKind.CHOLESKY_EXACT


# ---------------------------------------------------------------------------
# path container
# ---------------------------------------------------------------------------


class TestFbmPath:
    def test_increment_arithmetic(self):
        grid = HurstGrid(0.5, 4)
        path = FbmPath(grid, np.array([0.0, 1.0, 3.0, 2.0, 5.0]), seed=0)
        assert np.array_equal(increments(path), [1.0, 2.0, -1.0, 3.0])

    def test_zero_path(self):
        grid = HurstGrid(0.5, 4)
        path = FbmPath(grid, np.zeros(5), seed=0)
        assert np.all(increments(path) == 0.0)
        assert np.all(midpoints(path) == 0.0)

    def test_increments_telescope(self):
        grid = HurstGrid(0.1, 32)
        path = generate(grid, CIRC, 7)
        assert increments(path).sum() == pytest.approx(path.values[-1], rel=1e-12)

    def test_midpoint_values(self):
        grid = HurstGrid(0.5, 4)
        path = FbmPath(grid, np.array([0.0, 2.0, 1.0, 1.0, 4.0]), seed=0)
        assert midpoints(path)[0] == 1.0
        assert np.array_equal(midpoints(path), path.values[:-1] + increments(path) / 2.0)

    def test_validation(self):
        grid = HurstGrid(0.5, 4)
        with pytest.raises(ValueError):
            FbmPath(grid, np.ones(5), seed=0)  # does not start at 0
        with pytest.raises(ValueError):
            FbmPath(grid, np.zeros(4), seed=0)  # wrong length


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestReproducibility:
    @pytest.mark.parametrize("kind", [CIRC, CHOL])
    def test_bit_identical_regeneration(self, kind):
        grid = HurstGrid(0.1, 128)
        a = generate(grid, kind, 12345)
        b = generate(grid, kind, 12345)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", [CIRC, CHOL])
    def test_batch_rows_equal_single_calls(self, kind):
        grid = HurstGrid(0.2, 64)
        seeds = replication_seeds(11, 0, 17)
        batch = generate_batch(grid, kind, seeds)
        for i, s in enumerate(seeds):
            assert np.array_equal(batch[i], generate(grid, kind, int(s)).values)

    def test_batch_rows_independent_of_batch_split(self):
        grid = HurstGrid(0.1, 64)
        seeds = replication_seeds(11, 0, 20)
        whole = generate_batch(grid, CIRC, seeds)
        parts = np.vstack([generate_batch(grid, CIRC, seeds[:7]), generate_batch(grid, CIRC, seeds[7:])])
        assert np.array_equal(whole, parts)

    @given(
        H=st.floats(0.05, 0.95),
        n=st.integers(3, 300),
        T=st.floats(0.7, 1.3),
        master=st.integers(0, 2**64),
        rows=st.integers(1, 70),
        kind=st.sampled_from([CIRC, CHOL]),
    )
    def test_batch_equals_per_row_loop(self, H, n, T, master, rows, kind):
        grid = HurstGrid(H, n, T=T)
        seeds = replication_seeds(master, 0, rows)
        assert np.array_equal(generate_batch(grid, kind, seeds), per_row_levels(grid, kind, seeds))

    @pytest.mark.parametrize("H", [0.1, 0.75])
    def test_cholesky_batch_equals_per_row_loop_at_m_1024(self, H):
        # the stacked matrix-vector product must stay on the per-row gemv path
        # at sizes the property above does not reach
        grid = HurstGrid(H, 1024)
        seeds = replication_seeds(41, 0, 6)
        assert np.array_equal(generate_batch(grid, CHOL, seeds), per_row_levels(grid, CHOL, seeds))

    def test_different_seeds_differ(self):
        grid = HurstGrid(0.1, 64)
        assert not np.array_equal(generate(grid, CIRC, 1).values, generate(grid, CIRC, 2).values)

    def test_replication_seeds_distinct_and_prefix_stable(self):
        long = replication_seeds(99, 0, 100_000)
        assert len(np.unique(long)) == 100_000
        assert replication_seed(99, 41) == int(long[41])
        short = replication_seeds(99, 10, 20)
        assert np.array_equal(short, long[10:20])

    def test_streams_differ_across_masters(self):
        a = replication_seeds(1, 0, 1000)
        b = replication_seeds(2, 0, 1000)
        assert len(np.intersect1d(a, b)) == 0


# ---------------------------------------------------------------------------
# stream layer against numpy's own seeding
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=pathgen.SEED_LIMIT - 1)


class TestStreamLayer:
    @given(
        master=st.integers(min_value=0, max_value=2**200),
        start=st.integers(min_value=0, max_value=3000),
        length=st.integers(min_value=0, max_value=600),
    )
    def test_window_equals_generate_state(self, master, start, length):
        stop = start + length
        expected = np.random.SeedSequence(master).generate_state(stop, np.uint64)[start:stop]
        window = replication_seeds(master, start, stop)
        assert window.dtype == np.uint64
        assert np.array_equal(window, expected)

    @given(seeds=st.lists(SEEDS, max_size=20))
    def test_keys_equal_seeded_philox(self, seeds):
        keys = pathgen._philox_keys(seeds)
        assert keys.shape == (len(seeds), 2)
        for seed, key in zip(seeds, keys):
            expected = np.random.Philox(np.random.SeedSequence(seed)).state["state"]["key"]
            assert np.array_equal(key, expected)

    @given(
        seeds=st.lists(SEEDS, max_size=8),
        size=st.integers(min_value=0, max_value=300),
        pad=st.integers(min_value=0, max_value=3),
    )
    def test_reset_generator_equals_fresh_streams(self, seeds, size, pad):
        # rows are filled in place, as in the float view of the circulant spectrum
        out = np.full((len(seeds), size + pad), np.nan)
        pathgen._fill_normals(seeds, out[:, :size])
        assert np.isnan(out[:, size:]).all()
        for seed, row in zip(seeds, out[:, :size]):
            assert np.array_equal(row, fresh_stream(seed).standard_normal(size))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            generate(HurstGrid(0.1, 16), CIRC, seed)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            generate_batch(HurstGrid(0.1, 16), CHOL, [1, seed, 2])

    def test_seed_range_edges_accepted(self):
        grid = HurstGrid(0.1, 16)
        batch = generate_batch(grid, CIRC, [0, 2**128 - 1])
        assert batch.shape == (2, 17)
        assert not np.array_equal(batch[0], batch[1])


# ---------------------------------------------------------------------------
# distributional correctness
# ---------------------------------------------------------------------------


class TestLaw:
    def test_brownian_increments_iid(self):
        # lag-1 correlation over 10^4 paths within 4 SE of zero
        grid = HurstGrid(0.5, 64)
        values = generate_batch(grid, CIRC, replication_seeds(3, 0, 10_000))
        db = np.diff(values, axis=1)
        x = db[:, :-1].ravel()
        y = db[:, 1:].ravel()
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(len(x))
        assert db.var(ddof=1) == pytest.approx(1 / 64, rel=0.05)

    def test_rough_increment_variance(self):
        # Var(dB) = n^{-2H} at H = 0.1, n = 256, within 4 SE over 10^4 paths
        grid = HurstGrid(0.1, 256)
        values = generate_batch(grid, CIRC, replication_seeds(4, 0, 10_000))
        db = np.diff(values, axis=1)
        sq = db**2
        est = sq.mean()
        # increments across one path are correlated; use per-path means for the SE
        per_path = sq.mean(axis=1)
        se = per_path.std(ddof=1) / math.sqrt(len(per_path))
        assert abs(est - 256**-0.2) <= 4.0 * se

    @pytest.mark.parametrize("kind", [CIRC, CHOL])
    def test_increment_gram_matches(self, kind):
        # every empirical Gram entry within 5 SE at m = 16 and 2*10^4 paths
        grid = HurstGrid(0.1, 16)
        reps = 20_000
        values = generate_batch(grid, kind, replication_seeds(5, 0, reps))
        db = np.diff(values, axis=1)
        emp = db.T @ db / reps
        exact = increment_gram(grid)
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / reps)
        assert np.all(np.abs(emp - exact) <= 5.0 * se)

    def test_self_similar_level_variance(self):
        # Var(B_t) = t^{2H} within 4 SE at a few times
        grid = HurstGrid(0.25, 64)
        values = generate_batch(grid, CIRC, replication_seeds(6, 0, 20_000))
        for t_idx, t in ((16, 0.25), (32, 0.5), (64, 1.0)):
            level = values[:, t_idx]
            sq = level**2
            se = sq.std(ddof=1) / math.sqrt(len(sq))
            assert abs(sq.mean() - t ** (2 * 0.25)) <= 4.0 * se

    def test_generators_share_marginal_law(self):
        # two-sample KS on the first increment across fresh seed sets
        grid = HurstGrid(0.1, 64)
        a = generate_batch(grid, CHOL, replication_seeds(7, 0, 10_000))
        b = generate_batch(grid, CIRC, replication_seeds(8, 0, 10_000))
        result = ks_2samp(np.diff(a, axis=1)[:, 0], np.diff(b, axis=1)[:, 0])
        assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# embedding health and caps
# ---------------------------------------------------------------------------


class TestEmbedding:
    @pytest.mark.parametrize("H", [0.05, 0.1, 1 / 6, 0.25, 0.4, 0.5, 0.7])
    def test_eigenvalues_nonnegative_up_to_2_16(self, H):
        for n in (64, 4096, 2**16):
            lam = circulant_eigenvalues(HurstGrid(H, n))
            assert lam.min() >= EIGENVALUE_TOL
            assert lam.min() >= -1e-12  # clamping never actually needed here

    def test_circulant_covariance_identity(self):
        # FFT of the embedding row reproduces the autocovariance exactly
        grid = HurstGrid(0.3, 32)
        lam = circulant_eigenvalues(grid)
        m = grid.num_increments
        back = np.fft.ifft(lam).real
        gamma = fgn_autocov(grid, m)
        assert np.allclose(back[: m + 1], gamma, rtol=1e-10, atol=1e-15)

    def test_failed_embedding_raises(self, monkeypatch):
        # a negative spectrum must stop the circulant sampler, not reroute it
        grid = HurstGrid(0.3, 24)
        lam = circulant_eigenvalues(grid)
        lam[5] = -1e-3
        monkeypatch.setattr(pathgen, "circulant_eigenvalues", lambda g: lam)
        pathgen._sqrt_eigenvalues.cache_clear()
        try:
            with pytest.raises(ValueError, match=r"minimum eigenvalue -0\.001"):
                generate(grid, CIRC, 1)
        finally:
            pathgen._sqrt_eigenvalues.cache_clear()

    def test_clamped_eigenvalues_within_tolerance(self, monkeypatch):
        grid = HurstGrid(0.3, 24)
        lam = circulant_eigenvalues(grid)
        lam[5] = EIGENVALUE_TOL / 2
        monkeypatch.setattr(pathgen, "circulant_eigenvalues", lambda g: lam)
        pathgen._sqrt_eigenvalues.cache_clear()
        try:
            assert pathgen._sqrt_eigenvalues(grid)[5] == 0.0
        finally:
            pathgen._sqrt_eigenvalues.cache_clear()

    def test_cholesky_cap(self):
        grid = HurstGrid(0.3, 8192)
        with pytest.raises(ValueError):
            generate(grid, CHOL, 1)

    def test_circulant_handles_large_grids(self):
        grid = HurstGrid(0.1, 8192)
        path = generate(grid, CIRC, 1)
        assert len(path.values) == 8193
        assert path.values[0] == 0.0


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_batch_peak_memory():
    # one (N, 2m) complex spectrum plus the levels is 5x the level array; the
    # bound keeps a stray (N, 2m) temporary from creeping back
    grid = HurstGrid(0.1, 2**14)
    seeds = replication_seeds(12, 0, 64)
    generate_batch(grid, CIRC, seeds[:1])  # warm the eigenvalue cache
    tracemalloc.start()
    try:
        values = generate_batch(grid, CIRC, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (64, 2**14 + 1)
    assert peak <= 6 * values.nbytes


# ---------------------------------------------------------------------------
# CSV dump
# ---------------------------------------------------------------------------


class TestCsv:
    def test_round_trip(self):
        grid = HurstGrid(0.1, 16)
        path = generate(grid, CIRC, 42)
        buf = io.StringIO()
        write_path_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,B"
        assert len(lines) == 18  # header + 17 grid points
        ts, bs = zip(*(map(float, line.split(",")) for line in lines[1:]))
        assert np.array_equal(np.array(bs), path.values)
        assert np.array_equal(np.array(ts), path.grid.times())
