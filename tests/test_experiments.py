"""Experiment harness: determinism, verdict logic, exact second-moment targets."""

import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fbmquad import (
    ExperimentConfig,
    GeneratorKind,
    HurstGrid,
    Polynomial,
    ScaledCosine,
    SchemeKind,
    canonical_json,
    partial_interval_second_moment,
    predicted_error_variance,
    run_clt_experiment,
    run_divergence_probe,
    run_rate_experiment,
)
from fbmquad.pathgen import generate_batch, replication_seeds

QUINTIC = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(H=0.1, n_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(H=0.1, n_values=(64, 64), replications=100)
        with pytest.raises(ValueError):
            ExperimentConfig(H=0.1, n_values=(64, 32), replications=100)
        with pytest.raises(ValueError):
            ExperimentConfig(H=0.1, n_values=(64,), replications=99)
        with pytest.raises(ValueError):
            ExperimentConfig(H=0.1, n_values=(64,), replications=100, t=0.0)
        for H in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="H must lie"):
                ExperimentConfig(H=H, n_values=(64,), replications=100)
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig(H=0.1, n_values=(64,), replications=100, master_seed=-1)

    def test_frozen_and_replace_revalidates(self):
        cfg = ExperimentConfig(H=0.1, n_values=(64,), replications=100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.replications = 50
        assert dataclasses.replace(cfg, replications=120).replications == 120
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, replications=50)

    def test_hashable_and_equal_by_value(self):
        a = ExperimentConfig(H=0.2, n_values=(16, 32))
        b = ExperimentConfig(H=0.2, n_values=[16, 32], f=Polynomial(QUINTIC.coeffs))
        assert a == b and hash(a) == hash(b)
        c = dataclasses.replace(a, f=ScaledCosine())
        assert c == dataclasses.replace(a, f=ScaledCosine(1, 1, 4))
        assert hash(c) == hash(dataclasses.replace(a, f=ScaledCosine(1, 1, 4)))
        assert len({a, b, c}) == 2

    def test_from_mapping_takes_comma_string_or_sequence(self):
        a = ExperimentConfig.from_mapping({"H": "0.1", "n": "16,32"})
        b = ExperimentConfig.from_mapping({"H": 0.1, "n": [16, 32]})
        assert a == b
        assert a.n_values == (16, 32)

    def test_from_file(self, tmp_path):
        text = """
            # critical-case run
            H = 0.1
            n = 64,128
            M = 120
            t = 1.0
            seed = 99
            scheme = simpson
            f = 0,0,0,0,0,1/120
            generator = circulant
            threads = 2
        """
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        cfg = ExperimentConfig.from_file(cfg_file)
        assert cfg.H == 0.1
        assert cfg.n_values == (64, 128)
        assert cfg.replications == 120
        assert cfg.master_seed == 99
        assert cfg.scheme is SchemeKind.SIMPSON
        assert cfg.f == QUINTIC
        assert cfg.generator is GeneratorKind.CIRCULANT_EMBEDDING
        assert cfg.threads == 2

    def test_from_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("H = 0.1\nwhat = 3\nn = 64,128\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(bad)
        bad.write_text("n = 64,128\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(bad)
        bad.write_text("H 0.1\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(bad)

    def test_echo_round_trips_through_json(self):
        cfg = ExperimentConfig(H=0.1, n_values=(64,), replications=100)
        echoed = json.loads(canonical_json(cfg.echo()))
        assert echoed["f"] == "0,0,0,0,0,1/120"
        assert echoed["n_values"] == [64]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_reports_byte_identical_across_thread_counts(self):
        reports = []
        for threads in (1, 4):
            cfg = ExperimentConfig(
                H=0.1, n_values=(16, 32), replications=100, master_seed=7, threads=threads
            )
            reports.append(run_clt_experiment(cfg))
        assert reports[0].to_json() == reports[1].to_json()
        assert reports[0].csv_text() == reports[1].csv_text()

    def test_rate_and_probe_deterministic(self):
        for runner, H in ((run_rate_experiment, 0.2), (run_divergence_probe, 0.05)):
            outs = []
            for threads in (1, 3):
                cfg = ExperimentConfig(
                    H=H, n_values=(16, 32, 64), replications=100, master_seed=3, threads=threads
                )
                outs.append(runner(cfg).to_json())
            assert outs[0] == outs[1]

    def test_json_round_trip_is_byte_identical(self):
        cfg = ExperimentConfig(H=0.1, n_values=(16,), replications=100, master_seed=2)
        text = run_clt_experiment(cfg).to_json()
        assert canonical_json(json.loads(text)) == text

    def test_replication_streams_do_not_collide(self):
        cfg = ExperimentConfig(H=0.1, n_values=(16, 32), replications=150, master_seed=11)
        report = run_clt_experiment(cfg)
        seeds = [row[1] for row in report.rows]
        assert len(set(seeds)) == len(seeds)


# ---------------------------------------------------------------------------
# exact targets
# ---------------------------------------------------------------------------


class TestPredictedVariance:
    def test_against_gauss_hermite_oracle_at_tiny_n(self):
        # independent oracle: 2-d Gauss-Hermite for E[X^5 Y^5] summed over pairs
        H, n = 0.1, 4
        grid = HurstGrid(H, n)
        from fbmquad import increment_gram

        gram = increment_gram(grid)
        nodes, weights = np.polynomial.hermite_e.hermegauss(24)
        weights = weights / math.sqrt(2 * math.pi)
        total = 0.0
        for j in range(n):
            for k in range(n):
                if j == k:
                    std = math.sqrt(gram[j, j])
                    total += float(np.sum(weights * (std * nodes) ** 10))
                    continue
                l11 = math.sqrt(gram[j, j])
                l21 = gram[j, k] / l11
                l22 = math.sqrt(gram[k, k] - l21**2)
                u, v = np.meshgrid(nodes, nodes, indexing="ij")
                w2 = np.outer(weights, weights)
                total += float(np.sum(w2 * (l11 * u) ** 5 * (l21 * u + l22 * v) ** 5))
        assert predicted_error_variance(H, n, 1.0) == pytest.approx(total, rel=1e-10)

    def test_monte_carlo_agreement(self):
        H, n, reps = 0.1, 64, 40_000
        grid = HurstGrid(H, n)
        values = generate_batch(
            grid, GeneratorKind.CIRCULANT_EMBEDDING, replication_seeds(21, 0, reps)
        )
        stat = np.sum(np.diff(values, axis=1) ** 5, axis=1)
        est = stat.var(ddof=1)
        fourth = np.mean((stat - stat.mean()) ** 4)
        se = math.sqrt((fourth - est**2) / reps)
        assert abs(est - predicted_error_variance(H, n, 1.0)) <= 4.0 * se

    def test_approaches_beta_squared(self):
        from fbmquad import beta

        target = beta(0.1) ** 2
        errors = [abs(predicted_error_variance(0.1, n, 1.0) / target - 1.0) for n in (2**10, 2**12, 2**14)]
        assert errors[0] < 0.002
        assert errors == sorted(errors, reverse=True)


class TestPartialInterval:
    def test_zero_on_grid(self):
        grid = HurstGrid(0.1, 64)
        assert partial_interval_second_moment(grid, QUINTIC, 1.0) == 0.0

    def test_positive_and_decaying_off_grid(self):
        # the leftover gap scales like |t - floor(nt)/n|^{2H}: slow but monotone-ish
        t = 0.73
        for H, factor in ((0.1, 1.5), (0.3, 4.0)):
            values = []
            for n in (16, 64, 256, 1024):
                grid = HurstGrid(H, n, T=t)
                values.append(partial_interval_second_moment(grid, QUINTIC, t))
            assert all(v > 0.0 for v in values)
            assert values == sorted(values, reverse=True)
            assert values[-1] < values[0] / factor

    def test_matches_monte_carlo(self):
        # sanity: bivariate sampling of (B_s, B_t) reproduces the quadrature value
        t = 0.73
        grid = HurstGrid(0.3, 16, T=t)
        s = math.floor(16 * t) / 16
        from fbmquad import cov

        cmat = np.array(
            [[cov(grid, s, s), cov(grid, s, t)], [cov(grid, s, t), cov(grid, t, t)]]
        )
        L = np.linalg.cholesky(cmat)
        rng = np.random.Generator(np.random.Philox(17))
        z = L @ rng.standard_normal((2, 400_000))
        mc = np.mean((QUINTIC(z[1]) - QUINTIC(z[0])) ** 2)
        exact = partial_interval_second_moment(grid, QUINTIC, t)
        assert exact == pytest.approx(mc, rel=0.05)


# ---------------------------------------------------------------------------
# verdict logic
# ---------------------------------------------------------------------------


class TestCltExperiment:
    def test_requires_simpson_and_valid_H(self):
        with pytest.raises(ValueError):
            run_clt_experiment(
                ExperimentConfig(
                    H=0.1, n_values=(16,), replications=100, scheme=SchemeKind.MILNE
                )
            )
        with pytest.raises(ValueError):
            run_clt_experiment(ExperimentConfig(H=0.6, n_values=(16,), replications=100))

    def test_degenerate_low_degree_function(self):
        cfg = ExperimentConfig(
            H=0.1, n_values=(16,), replications=100, f=Polynomial([0, 1, 0, 2, 1])
        )
        report = run_clt_experiment(cfg)
        entry = report.payload["results"][0]
        assert entry["degenerate"] is True
        assert entry["variance"] == 0.0
        assert report.overall_pass

    def test_brownian_sanity_run(self):
        # supercritical control: scaled statistic has mean ~ 0 and variance
        # tracking the exact finite-n prediction (which includes the level term
        # the asymptotic constant drops)
        cfg = ExperimentConfig(H=0.5, n_values=(32, 64), replications=2000, master_seed=31)
        report = run_clt_experiment(cfg)
        for entry, n in zip(report.payload["results"], cfg.n_values):
            scale_sq = float(n) ** (10 * 0.5 - 1.0)
            predicted = entry["predicted_variance_exact"]
            assert predicted == pytest.approx(scale_sq * predicted_error_variance(0.5, n, 1.0))
            assert abs(entry["variance"] - predicted) <= 6.0 * entry["variance_se"]
            assert abs(entry["mean"]) <= 4.0 * math.sqrt(entry["variance"] / entry["count"])
        assert report.payload["verdicts"]["mean_final"]

    def test_nonconstant_f5_reports_variance_only(self):
        cfg = ExperimentConfig(
            H=0.1, n_values=(32,), replications=200, f=Polynomial([0, 0, 0, 0, 0, 0, 1])
        )
        report = run_clt_experiment(cfg)
        entry = report.payload["results"][0]
        assert entry["ks_p_value"] is None
        assert entry["predicted_variance_exact"] is None
        assert entry["target_variance"] > 0.0

    def test_report_structure(self):
        cfg = ExperimentConfig(H=0.1, n_values=(16, 32), replications=100, master_seed=5)
        report = run_clt_experiment(cfg)
        assert report.payload["experiment"] == "clt"
        assert len(report.rows) == 200
        assert set(report.payload["verdicts"]) == {
            "variance_final",
            "variance_trend",
            "ks_final",
            "corr_final",
            "mean_final",
        }
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "replication,seed,n,B_t,statistic"
        assert len(lines) == 201


class TestRateExperiment:
    def test_rejects_at_or_below_threshold(self):
        with pytest.raises(ValueError):
            run_rate_experiment(ExperimentConfig(H=0.1, n_values=(16, 32, 64), replications=100))
        with pytest.raises(ValueError):
            run_rate_experiment(ExperimentConfig(H=0.05, n_values=(16, 32, 64), replications=100))

    def test_exact_scheme_reports_exact(self):
        cfg = ExperimentConfig(
            H=0.2, n_values=(16, 32, 64), replications=100, f=Polynomial([0, 0, 0, 0, 1])
        )
        report = run_rate_experiment(cfg)
        assert report.payload["fit"]["exact"] is True
        assert report.payload["fit"]["slope"] is None
        assert report.overall_pass
        # residuals at machine scale
        assert all(r["second_moment"] < 1e-20 for r in report.payload["results"])

    def test_slope_recovery_small_scale(self):
        cfg = ExperimentConfig(
            H=0.25,
            n_values=(64, 128, 256, 512),
            replications=400,
            master_seed=13,
            slope_tol=0.5,
        )
        report = run_rate_experiment(cfg)
        fit = report.payload["fit"]
        assert fit["target"] == pytest.approx(1.0 - 10 * 0.25)
        assert abs(fit["slope"] - fit["target"]) <= 0.5


class TestDivergenceProbe:
    def test_below_threshold_grows(self):
        cfg = ExperimentConfig(H=0.05, n_values=(64, 128, 256), replications=150, master_seed=9)
        report = run_divergence_probe(cfg)
        assert report.payload["regime"] == "below-threshold"
        assert report.payload["verdicts"]["non_vanishing"]

    def test_critical_plateau(self):
        cfg = ExperimentConfig(H=0.1, n_values=(128, 256), replications=300, master_seed=10)
        report = run_divergence_probe(cfg)
        assert report.payload["regime"] == "critical"
        plateau_note = report.payload["notes"][0]
        assert "plateau" in plateau_note
        assert report.payload["verdicts"]["non_vanishing"]

    def test_above_threshold_control_decays(self):
        cfg = ExperimentConfig(
            H=0.2, n_values=(64, 256, 1024), replications=300, master_seed=12
        )
        report = run_divergence_probe(cfg)
        assert report.payload["regime"] == "above-threshold"
        assert report.payload["verdicts"]["vanishing"]
