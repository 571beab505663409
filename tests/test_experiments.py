"""Experiment harness: determinism, verdict logic, exact second-moment targets."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmquad import (
    ExperimentConfig,
    experiments,
    GeneratorKind,
    HurstGrid,
    Polynomial,
    ScaledCosine,
    SchemeKind,
    beta_squared,
    beta_terms,
    canonical_json,
    partial_interval_second_moment,
    predicted_error_variance,
    run_clt_experiment,
    run_divergence_probe,
    run_rate_experiment,
)
from fbmquad.experiments import read_config
from fbmquad.pathgen import generate_batch, replication_seeds
from fbmquad.schemes import midpoint_power_sums, riemann_sums
from test_cli import CONFIG_VALUES, run_cli

QUINTIC = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])

#: Nested JSON payloads of finite floats (signed zeros, subnormals and values
#: near the top of the range included), ints, bools and None.
PAYLOADS = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 2.225073858507201e-308, 1e308, -1.7976931348623157e308])
    | st.integers()
    | st.booleans()
    | st.none(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@pytest.fixture
def batch_calls(monkeypatch):
    """Arguments of every ``generate_batch`` call the experiments make."""
    calls = []

    def counting(*args):
        calls.append(args)
        return generate_batch(*args)

    monkeypatch.setattr(experiments, "generate_batch", counting)
    return calls

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
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                ExperimentConfig(H=0.1, n_values=(64,), replications=100, threads=threads)
        for slope_tol in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="slope_tol must be positive and finite"):
                ExperimentConfig(H=0.1, n_values=(64,), replications=100, slope_tol=slope_tol)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(n_values=(16.7, 32, 64)), "n_values"),
            (dict(n_values=(16, "32")), "n_values"),
            (dict(replications=150.5), "replications"),
            (dict(replications="150"), "replications"),
            (dict(master_seed=2.0), "master_seed"),
            (dict(threads=1.5), "threads"),
        ],
    )
    def test_integer_fields_taken_exactly(self, kwargs, field):
        # a float or a string is refused, naming the field, not truncated or parsed
        with pytest.raises(ValueError, match=rf"^{field} must be (an integer|integers), got "):
            ExperimentConfig(**{"H": 0.1, "n_values": (64,), **kwargs})

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("n", [16.7, 32], "n_values"),
            ("M", 150.5, "replications"),
            ("seed", 2.0, "master_seed"),
            ("threads", 1.5, "threads"),
        ],
    )
    def test_from_mapping_takes_typed_integers_exactly(self, key, value, field):
        # text is parsed by int(); an already typed value reaches the config as it is
        with pytest.raises(ValueError, match=rf"^{field} must be (an integer|integers), got "):
            ExperimentConfig.from_mapping({"H": 0.1, "n": [64], key: value})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(H="0.1"), "H"),
            (dict(H=None), "H"),
            (dict(t="1"), "t"),
            (dict(slope_tol="0.3"), "slope_tol"),
        ],
    )
    def test_real_fields_refuse_text(self, kwargs, field):
        # text is parsed by the CONFIG_KEYS converters, never by the config itself
        with pytest.raises(ValueError, match=rf"^{field} must be a real number, got "):
            ExperimentConfig(**{"H": 0.1, "n_values": (64,), **kwargs})

    def test_integer_fields_accept_numpy_integers(self):
        cfg = ExperimentConfig(
            H=0.1, n_values=np.array([16, 32]), replications=np.int64(150), threads=np.uint8(2)
        )
        assert cfg.n_values == (16, 32) and type(cfg.n_values[0]) is int
        assert (cfg.replications, cfg.threads) == (150, 2)
        assert type(cfg.replications) is int

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
            threads = 2
        """
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(text)
        cfg = ExperimentConfig.from_mapping(read_config(cfg_file))
        assert cfg.H == 0.1
        assert cfg.n_values == (64, 128)
        assert cfg.replications == 120
        assert cfg.master_seed == 99
        assert cfg.scheme is SchemeKind.SIMPSON
        assert cfg.f == QUINTIC
        assert cfg.threads == 2

    def test_from_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("H = 0.1\nwhat = 3\nn = 64,128\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping(read_config(bad))
        bad.write_text("n = 64,128\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping(read_config(bad))
        bad.write_text("H 0.1\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping(read_config(bad))

    @given(keys=st.sets(st.sampled_from(sorted(CONFIG_VALUES))), data=st.data())
    def test_echo_round_trips_through_json(self, keys, data):
        raw = {k: data.draw(CONFIG_VALUES[k], label=k) for k in sorted(keys | {"H", "n"})}
        cfg = ExperimentConfig.from_mapping(raw)
        echoed = json.loads(canonical_json(cfg.echo()))
        assert ExperimentConfig.from_mapping(echoed) == dataclasses.replace(cfg, threads=None)

    def test_echo_uses_config_keys_without_threads(self):
        cfg = ExperimentConfig(H=0.1, n_values=(64,), replications=100, threads=2)
        echoed = cfg.echo()
        assert list(echoed) == [k for k in experiments.CONFIG_KEYS if k != "threads"]
        assert echoed["f"] == "0,0,0,0,0,1/120"
        assert echoed["n"] == [64]
        assert echoed["M"] == 100

    def test_kappa_tolerance_is_not_a_config_key(self):
        with pytest.raises(ValueError, match="unknown config key 'tol'"):
            ExperimentConfig.from_mapping({"H": "0.1", "n": "16,32", "tol": "1e-9"})

    def test_generator_is_not_a_config_key(self):
        # experiments always sample by circulant embedding
        with pytest.raises(ValueError, match="unknown config key 'generator'"):
            ExperimentConfig.from_mapping({"H": "0.1", "n": "16,32", "generator": "circulant"})

    def test_one_field_per_config_key(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {name for name, _, _ in experiments.CONFIG_KEYS.values()} == fields
        assert len(experiments.CONFIG_KEYS) == len(fields)

    @pytest.mark.parametrize(
        "key", ["variance_rel_tol", "ks_alpha", "sigma_gate", "decrease_factor"]
    )
    def test_fixed_thresholds_are_not_config_keys(self, key):
        assert key in experiments.THRESHOLDS
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_mapping({"H": "0.1", "n": "16,32", key: "1.0"})


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
        for runner, H, n_values in (
            (run_clt_experiment, 0.1, (16,)),
            (run_rate_experiment, 0.2, (16, 32, 64)),
            (run_divergence_probe, 0.05, (16, 32)),
        ):
            cfg = ExperimentConfig(H=H, n_values=n_values, replications=100, master_seed=2)
            text = runner(cfg).to_json()
            assert canonical_json(json.loads(text)) == text

    @given(payload=PAYLOADS)
    def test_canonical_json_round_trips_any_payload(self, payload):
        text = canonical_json(payload)
        assert canonical_json(json.loads(text)) == text

    def test_worker_pool_capped_at_core_count(self, monkeypatch):
        workers, real = [], experiments.ThreadPoolExecutor

        def recording(*, max_workers):
            workers.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        for threads in (64, None, 1):
            cfg = ExperimentConfig(H=0.2, n_values=(16, 32), replications=200, threads=threads)
            run_divergence_probe(cfg)
        assert workers == [2, 2, 1]

    def test_replication_streams_do_not_collide(self):
        cfg = ExperimentConfig(H=0.1, n_values=(16, 32), replications=150, master_seed=11)
        report = run_clt_experiment(cfg)
        seeds = report.columns["seed"].tolist()
        assert len(set(seeds)) == len(seeds)
        assert [int(line.split(",")[1]) for line in report.csv_text().splitlines()[1:]] == seeds


# ---------------------------------------------------------------------------
# exact targets
# ---------------------------------------------------------------------------


class TestPredictedVariance:
    def test_against_gauss_hermite_oracle_at_tiny_n(self):
        # independent oracle: 2-d Gauss-Hermite for E[X^r Y^r] summed over
        # pairs, for the error powers of midpoint, Simpson and Milne
        H, n = 0.1, 4
        grid = HurstGrid(H, n)
        from fbmquad import increment_gram

        gram = increment_gram(grid)
        nodes, weights = np.polynomial.hermite_e.hermegauss(24)
        weights = weights / math.sqrt(2 * math.pi)
        for r in (3, 5, 7):
            total = 0.0
            for j in range(n):
                for k in range(n):
                    if j == k:
                        std = math.sqrt(gram[j, j])
                        total += float(np.sum(weights * (std * nodes) ** (2 * r)))
                        continue
                    l11 = math.sqrt(gram[j, j])
                    l21 = gram[j, k] / l11
                    l22 = math.sqrt(gram[k, k] - l21**2)
                    u, v = np.meshgrid(nodes, nodes, indexing="ij")
                    w2 = np.outer(weights, weights)
                    total += float(np.sum(w2 * (l11 * u) ** r * (l21 * u + l22 * v) ** r))
            assert predicted_error_variance(grid, r) == pytest.approx(total, rel=1e-10)

    @pytest.mark.parametrize("T", [1.0, 0.7])
    @pytest.mark.parametrize("r", [3, 5, 7, 9])
    def test_brownian_closed_form(self, r, T):
        # at H = 1/2 the m = floor(nT) increments are independent N(0, 1/n), so
        # Var(sum_j dB_j^r) = m (2r-1)!! n^{-r}: every row of the chaos table
        # down to q = 1 enters, and only the grid's full increments count
        n = 64
        grid = HurstGrid(0.5, n, T=T)
        m = math.floor(n * T)
        expected = m * math.prod(range(2 * r - 1, 0, -2)) * float(n) ** -r
        assert predicted_error_variance(grid, r) == pytest.approx(expected, rel=1e-15)
        assert predicted_error_variance(grid, r, 3.0) == pytest.approx(9.0 * expected, rel=1e-15)

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
        assert abs(est - predicted_error_variance(grid, 5)) <= 4.0 * se

    def test_approaches_beta_squared(self):
        from fbmquad import beta

        target = beta(0.1) ** 2
        errors = [
            abs(predicted_error_variance(HurstGrid(0.1, n), 5) / target - 1.0)
            for n in (2**10, 2**12, 2**14)
        ]
        assert errors[0] < 0.002
        assert errors == sorted(errors, reverse=True)


class TestPartialInterval:
    def test_zero_on_grid(self):
        grid = HurstGrid(0.1, 64)
        assert partial_interval_second_moment(grid, QUINTIC) == 0.0

    def test_positive_and_decaying_off_grid(self):
        # the leftover gap scales like |t - floor(nt)/n|^{2H}: slow but monotone-ish
        t = 0.73
        for H, factor in ((0.1, 1.5), (0.3, 4.0)):
            values = []
            for n in (16, 64, 256, 1024):
                grid = HurstGrid(H, n, T=t)
                values.append(partial_interval_second_moment(grid, QUINTIC))
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
        exact = partial_interval_second_moment(grid, QUINTIC)
        assert exact == pytest.approx(mc, rel=0.05)


# ---------------------------------------------------------------------------
# verdict logic
# ---------------------------------------------------------------------------


class TestCltExperiment:
    def test_requires_valid_H(self):
        # above the critical exponent the residual vanishes: the rate experiment's case
        for scheme in SchemeKind:
            H = math.nextafter(float(scheme.critical_hurst), 1.0)
            cfg = ExperimentConfig(H=H, n_values=(16,), replications=100, scheme=scheme)
            with pytest.raises(ValueError, match=r"^clt needs H at or below .*fbmquad rate"):
                run_clt_experiment(cfg)

    def test_midpoint_at_its_critical_exponent(self):
        # the scheme's error power r = 3 sets the constants and the scaling;
        # only deterministic fields are checked
        H = 1 / 6
        cfg = ExperimentConfig(
            H=H,
            n_values=(16, 32),
            replications=100,
            scheme=SchemeKind.MIDPOINT,
            f=Polynomial([0, 0, 0, Fraction(1, 6)]),
        )
        payload = run_clt_experiment(cfg).payload
        k3, = beta_terms(H, r=3)
        assert list(payload["constants"]) == ["kappa3", "beta", "beta_squared"]
        assert payload["constants"]["kappa3"] == k3.value
        assert payload["constants"]["beta_squared"] == beta_squared(k3) == 0.75 * k3.value
        assert payload["statistic_scale_exponent"] == (6 * H - 1) / 2

    @pytest.mark.parametrize("f", ["0,1,0,2,1", "cos:0,1", "cos:1,0"])
    @pytest.mark.parametrize(
        "command, H",
        [
            ("clt", "0.1"),
            ("rate", "0.25"),
            ("diverge", "0.05"),
            ("diverge", "0.1"),
            ("diverge", "0.2"),
        ],
    )
    def test_zero_leading_term_is_refused_before_any_path(
        self, capsys, batch_calls, command, H, f
    ):
        # f^(5) = 0 makes the error statistic and its limit vanish: nothing to test
        argv = (command, "--H", H, "--n", "16", "--n", "32", "--M", "100", "--f", f)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, batch_calls) == (2, "", [])
        assert "error: f^(5) is identically zero for the simpson scheme (f = " in err
        assert "Traceback" not in err

    def test_subcritical_sanity_run(self):
        # below the critical exponent the scaled statistic has mean ~ 0 and
        # variance tracking the exact finite-n prediction (which includes the
        # level term the asymptotic constant drops)
        H = 0.05
        cfg = ExperimentConfig(H=H, n_values=(32, 64), replications=2000, master_seed=31)
        report = run_clt_experiment(cfg)
        for entry, n in zip(report.payload["results"], cfg.n_values):
            scale_sq = float(n) ** (10 * H - 1.0)
            predicted = entry["predicted_variance_exact"]
            grid = HurstGrid(H, n)
            assert predicted == pytest.approx(scale_sq * predicted_error_variance(grid, 5))
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
        # no KS test ran and one grid has no trend, so neither verdict is reported
        assert list(report.payload["verdicts"]) == ["variance_final", "corr_final", "mean_final"]

    def test_one_grid_reports_no_variance_trend(self):
        cfg = ExperimentConfig(H=0.1, n_values=(16,), replications=100, master_seed=7)
        verdicts = run_clt_experiment(cfg).payload["verdicts"]
        assert list(verdicts) == ["variance_final", "ks_final", "corr_final", "mean_final"]
        two_grids = dataclasses.replace(cfg, n_values=(16, 32))
        assert "variance_trend" in run_clt_experiment(two_grids).payload["verdicts"]

    def test_report_structure(self):
        cfg = ExperimentConfig(H=0.1, n_values=(16, 32), replications=100, master_seed=5)
        report = run_clt_experiment(cfg)
        assert report.payload["experiment"] == "clt"
        assert list(report.payload)[:3] == ["experiment", "config", "thresholds"]
        assert report.payload["thresholds"] == experiments.THRESHOLDS
        assert list(report.columns) == ["replication", "seed", "n", "B_t", "statistic"]
        assert all(len(column) == 200 for column in report.columns.values())
        assert set(report.payload["verdicts"]) == {
            "variance_final",
            "variance_trend",
            "ks_final",
            "corr_final",
            "mean_final",
        }
        lines = report.csv_text().strip().splitlines()
        assert lines[0] == "replication,seed,n,B_t,statistic"
        assert len(lines) == 201


def _monomial(r: int, c: int = 1) -> Polynomial:
    """c x^r / r!, whose r-th derivative is the constant c."""
    return Polynomial([0] * r + [Fraction(c, math.factorial(r))])


def _sweep_batches(cfg: ExperimentConfig):
    """(grid, level array) of each grid of a sweep, drawn from the streams the sweep uses."""
    M = cfg.replications
    for i, n in enumerate(cfg.n_values):
        grid = HurstGrid(cfg.H, n, T=cfg.t)
        seeds = replication_seeds(cfg.master_seed, i * M, (i + 1) * M)
        yield grid, generate_batch(grid, GeneratorKind.CIRCULANT_EMBEDDING, seeds)


class TestCltStatistic:
    """The clt's statistic is the rule's own residual: n^e (riemann_sum - (f(B_t) - f(0))) / a_r."""

    def test_csv_statistic_is_the_scaled_residual(self):
        # f = x^7/5040 has degree r + 2 for Simpson, so the residual's r = 7
        # term enters, and f^(5) = x^2/2 is not constant
        f = _monomial(7)
        cfg = ExperimentConfig(H=0.1, n_values=(16, 64), replications=100, master_seed=12, f=f)
        report = run_clt_experiment(cfg)
        e = report.payload["statistic_scale_exponent"]
        a_r = float(SchemeKind.SIMPSON.error_coefficients[5])
        expected = []
        for grid, values in _sweep_batches(cfg):
            residual = riemann_sums(values, f, SchemeKind.SIMPSON) - (f(values[:, -1]) - f(0.0))
            expected.append(float(grid.n) ** e * (residual / a_r))
        rows = report.csv_text().splitlines()[1:]
        column = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
        assert np.array_equal(column, np.concatenate(expected))

    def test_midpoint_and_trapezoid_measure_their_own_sums(self):
        # with f = x^5/120 each rule's residual over a_3 is sum f^(3)(mid) dB^3
        # plus (a_5/a_3) sum dB^5, with a_5/a_3 = 1/80 (midpoint) and 1/40
        # (trapezoid), so the two statistics differ by sum dB^5 / 80
        ratios = {SchemeKind.MIDPOINT: Fraction(1, 80), SchemeKind.TRAPEZOID: Fraction(1, 40)}
        stats = {}
        for scheme, ratio in ratios.items():
            coefficients = scheme.error_coefficients
            assert coefficients[5] / coefficients[3] == ratio
            cfg = ExperimentConfig(
                H=1 / 6, n_values=(64,), replications=100, scheme=scheme, f=QUINTIC
            )
            report = run_clt_experiment(cfg)
            assert report.payload["statistic_scale_exponent"] == 0.0
            stats[scheme] = report.columns["statistic"]
        assert not np.array_equal(stats[SchemeKind.TRAPEZOID], stats[SchemeKind.MIDPOINT])
        difference = stats[SchemeKind.TRAPEZOID] - stats[SchemeKind.MIDPOINT]
        (_, values), = _sweep_batches(cfg)
        fifth = midpoint_power_sums(values, Polynomial([1]), 5) / 80
        rms = math.sqrt(float(np.mean(fifth**2)))
        assert float(np.max(np.abs(difference - fifth))) <= 1e-9 * rms

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_equals_the_leading_power_sum_for_f_of_degree_r(self, scheme):
        # for f of degree r the residual is exactly a_r c sum_j dB_j^r, so at
        # the critical exponent the statistic equals c * midpoint_power_sums
        # up to the rounding of the residual's cancellation
        r, H = scheme.error_power, float(scheme.critical_hurst)
        cfg = ExperimentConfig(
            H=H, n_values=(64, 4096), replications=100, master_seed=12, scheme=scheme,
            f=_monomial(r, 3),
        )
        report = run_clt_experiment(cfg)
        e = report.payload["statistic_scale_exponent"]
        stats = np.split(report.columns["statistic"], len(cfg.n_values))
        for got, (grid, values) in zip(stats, _sweep_batches(cfg)):
            power_sum = float(grid.n) ** e * 3.0 * midpoint_power_sums(values, Polynomial([1]), r)
            rms = math.sqrt(float(np.mean(power_sum**2)))
            assert float(np.max(np.abs(got - power_sum))) <= 1e-9 * rms


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_runs_split_H_at_the_critical_exponent(capsys, batch_calls, scheme):
    # clt takes H <= H_c and rate H > H_c; diverge refuses H_c itself, where its
    # residual is the clt's statistic, and each refusal names the run to use
    f = _monomial(scheme.error_power).spec()
    critical = float(scheme.critical_hurst)
    for command, H, other in (
        ("diverge", critical, "fbmquad clt"),
        ("clt", math.nextafter(critical, 1.0), "fbmquad rate"),
    ):
        argv = ("--H", repr(H), "--n", "16", "--n", "32", "--M", "100", "--f", f)
        code, out, err = run_cli(capsys, command, *argv, "--scheme", scheme.value)
        assert (code, out, batch_calls) == (2, "", [])
        assert other in err and "Traceback" not in err


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("runner", [run_clt_experiment, run_rate_experiment, run_divergence_probe])
def test_exactly_integrated_f_is_refused_before_any_path(batch_calls, runner, scheme):
    # f = x^d, d the scheme's exactness degree, has f^(r) = 0: the rule integrates
    # it exactly, so there is no limit law, rate or plateau to test.  Two grids,
    # so that a rate run is refused for its f and not for its grid count.
    H = 0.4 if runner is run_rate_experiment else float(scheme.critical_hurst)
    f = Polynomial([0] * scheme.exact_degree + [1])
    cfg = ExperimentConfig(H=H, n_values=(16, 32), replications=100, scheme=scheme, f=f)
    with pytest.raises(ValueError, match=rf"^f\^\({scheme.error_power}\) is identically zero"):
        runner(cfg)
    assert batch_calls == []


class TestRateExperiment:
    def test_rejects_at_or_below_threshold(self):
        # the clt takes H at or below the threshold, so the refusal names it
        for H in (0.1, 0.05):
            with pytest.raises(ValueError, match="fbmquad clt tests H at or below it"):
                run_rate_experiment(ExperimentConfig(H=H, n_values=(16, 32, 64), replications=100))

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

    def test_too_few_grids_fail_before_any_path(self, batch_calls):
        cfg = ExperimentConfig(H=0.25, n_values=(16, 32), replications=100)
        with pytest.raises(ValueError, match="at least 3 grids"):
            run_rate_experiment(cfg)
        assert batch_calls == []


class TestDivergenceProbe:
    def test_below_threshold_grows(self):
        cfg = ExperimentConfig(H=0.05, n_values=(64, 128, 256), replications=150, master_seed=9)
        report = run_divergence_probe(cfg)
        assert report.payload["regime"] == "below-threshold"
        assert report.payload["verdicts"]["non_vanishing"]

    @pytest.mark.parametrize("H, regime", [(0.05, "below-threshold"), (0.2, "above-threshold")])
    def test_one_grid_off_threshold_fails_before_any_path(self, capsys, batch_calls, H, regime):
        # one grid leaves no step to compare, and above threshold the verdict
        # would reduce to v >= 4 v
        code, out, err = run_cli(capsys, "diverge", "--H", str(H), "--n", "256", "--M", "100")
        assert (code, out, batch_calls) == (2, "", [])
        assert f"error: the {regime} divergence probe compares grids and needs at least 2" in err
        assert "Traceback" not in err

    def test_above_threshold_control_decays(self):
        cfg = ExperimentConfig(
            H=0.2, n_values=(64, 256, 1024), replications=300, master_seed=12
        )
        report = run_divergence_probe(cfg)
        assert report.payload["regime"] == "above-threshold"
        assert report.payload["verdicts"]["vanishing"]
