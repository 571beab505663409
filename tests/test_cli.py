"""CLI contract: JSON outputs, CSV outputs, exit codes, determinism."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmquad import ExperimentConfig, SchemeKind, experiments, run_rate_experiment
from fbmquad.cli import _build_parser, _config_from_args, main
from fbmquad.constants import DEFAULT_TOL
from fbmquad.experiments import CONFIG_KEYS, read_config

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: A valid rate run that draws paths, to which a test appends one bad flag.
RATE_ARGV = ("rate", "--H", "0.25", "--n", "16", "--n", "32", "--n", "64", "--M", "100")

#: Config key -> flags giving it a bad value; one case per key of ``CONFIG_KEYS``.
BAD_CONFIG_FLAGS = {
    "H": ("--H", "nan"),
    "n": ("--n", "32", "--n", "16"),
    "M": ("--M", "99"),
    "t": ("--t", "inf"),
    "seed": ("--seed", "-1"),
    "scheme": ("--scheme", "bogus"),
    "f": ("--f", "x"),
    "threads": ("--threads", "0"),
    "slope_tol": ("--slope-tol", "nan"),
}


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


#: Exact stdout of ``fbmquad constants --H 0.1 --tol 1e-9``.
CONSTANTS_H01 = """{
  "H": 0.1,
  "kappa3": 6.765790285291862,
  "kappa5": 31.105773113908402,
  "beta": 24.981611648851764,
  "tol": 1e-09,
  "truncation_P": 85,
  "tail_bound_kappa3": 6.354895427856887e-12,
  "tail_bound_kappa5": 6.710886400000007e-11
}
"""


class TestConstantsCommand:
    def test_critical_point_output(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--H", "0.1", "--tol", "1e-9")
        assert code == 0
        assert out == CONSTANTS_H01
        payload = json.loads(out)
        assert payload["beta"] == pytest.approx(24.9816116488, abs=1e-6)
        assert payload["tail_bound_kappa3"] < 1e-8
        assert payload["tail_bound_kappa5"] < 1e-8

    def test_brownian_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--H", "0.5")
        payload = json.loads(out)
        assert payload["kappa3"] == 8.0
        assert payload["kappa5"] == 32.0
        assert payload["beta"] == math.sqrt(720.0)
        assert payload["tol"] == DEFAULT_TOL


# ---------------------------------------------------------------------------
# simulate / integrate
# ---------------------------------------------------------------------------


class TestSimulateCommand:
    def test_csv_file_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "path.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--H", "0.1", "--n", "256", "--T", "1", "--seed", "42",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "t,B"
        assert len(lines) == 258  # header + 257 grid points
        summary = json.loads(out)
        assert summary["rows"] == 257

    def test_seed_determinism(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            run_cli(capsys, "simulate", "--H", "0.2", "--n", "64", "--seed", "9",
                    "--out", str(out_file))
            files.append(out_file.read_text())
        assert files[0] == files[1]

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--H", "0.3", "--n", "16", "--seed", "1")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["B"]) == 17
        assert payload["B"][0] == 0.0

    def test_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--H", "0.3", "--n", "16", "--seed", "1", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "t,B"

    def test_out_and_csv_write_and_print_the_csv(self, capsys, tmp_path):
        out_file = tmp_path / "path.csv"
        argv = ("simulate", "--H", "0.3", "--n", "16", "--seed", "1")
        _, expected, _ = run_cli(capsys, *argv, "--csv")
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_file), "--csv")
        assert code == 0
        assert out == expected
        assert out_file.read_text() == expected


class TestIntegrateCommand:
    def test_simpson_exact_on_quartic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--H", "0.2", "--n", "64", "--seed", "4",
            "--scheme", "simpson", "--f", "0,0,0,0,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["residual"]) <= 1e-10 * max(1.0, abs(payload["increment_of_f"]))
        assert payload["decomposition"]["term5"] == 0.0

    def test_decomposition_for_every_scheme(self, capsys):
        for scheme in ("midpoint", "trapezoid", "simpson", "milne"):
            code, out, _ = run_cli(
                capsys,
                "integrate", "--H", "0.2", "--n", "64", "--seed", "4",
                "--scheme", scheme, "--f", "1,-2,0,3,0,0,0,1,0,1,2",
            )
            assert code == 0
            payload = json.loads(out)
            d = payload["decomposition"]
            power = SchemeKind(scheme).error_power
            assert list(d) == ["main"] + [f"term{r}" for r in range(power, 10, 2)]
            telescoped = d["main"] - sum(v for k, v in d.items() if k != "main")
            assert telescoped == pytest.approx(payload["increment_of_f"], rel=1e-9, abs=1e-9)

    def test_vanishing_terms_print_as_positive_zero(self, capsys):
        # x^5/120 has f^(7) = f^(9) = 0, and midpoint's a_7 and a_9 are negative
        code, out, _ = run_cli(
            capsys,
            "integrate", "--H", "0.1", "--n", "256", "--seed", "3",
            "--scheme", "midpoint", "--f", "0,0,0,0,0,1/120",
        )
        assert code == 0
        d = json.loads(out)["decomposition"]
        for key in ("term7", "term9"):
            assert d[key] == 0.0 and math.copysign(1.0, d[key]) == 1.0

    def test_bad_function_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--H", "0.2", "--n", "64", "--f", "1,zzz"
        )
        assert code == 2
        assert "error" in err


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class TestExperimentCommands:
    def test_clt_json_and_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "clt", "--H", "0.1", "--n", "16", "--n", "32", "--M", "100", "--seed", "7",
        )
        payload = json.loads(out)
        assert payload["experiment"] == "clt"
        assert code == (0 if payload["overall_pass"] else 1)

    def test_threads_do_not_change_bytes(self, capsys):
        outputs = []
        for threads in ("1", "4"):
            _, out, _ = run_cli(
                capsys,
                "clt", "--H", "0.1", "--n", "16", "--n", "32", "--M", "100",
                "--seed", "7", "--threads", threads,
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_clt_takes_scheme_flag(self, capsys):
        argv = ["clt", "--H", "0.1", "--n", "16", "--M", "100", "--seed", "7"]
        _, default_out, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--scheme", "simpson")
        assert code in (0, 1)
        assert out == default_out
        code, out, _ = run_cli(
            capsys,
            "clt", "--H", repr(1 / 6), "--n", "16", "--M", "100", "--seed", "7",
            "--scheme", "midpoint", "--f", "0,0,0,1/6",
        )
        assert code in (0, 1)
        payload = json.loads(out)
        assert payload["config"]["scheme"] == "midpoint"
        assert list(payload["constants"]) == ["kappa3", "beta", "beta_squared"]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("H = 0.05\nn = 16,32\nM = 100\nseed = 3\n")
        code, out, _ = run_cli(capsys, "diverge", "--config", str(cfg), "--M", "120")
        payload = json.loads(out)
        assert payload["config"]["M"] == 120
        assert payload["config"]["H"] == 0.05

    def test_rate_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "rate", "--H", "0.25", "--n", "16", "--n", "32", "--n", "64",
            "--M", "100", "--seed", "2", "--out", str(out_file),
        )
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "replication,seed,n,B_t,statistic"
        assert len(lines) == 301
        assert json.loads(out)["experiment"] == "rate"

    def test_out_and_csv_write_csv_text(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "rate", "--H", "0.25", "--n", "16", "--n", "32", "--n", "64",
            "--M", "100", "--seed", "2", "--out", str(out_file), "--csv",
        )
        assert code in (0, 1)
        config = ExperimentConfig(H=0.25, n_values=(16, 32, 64), replications=100, master_seed=2)
        expected = run_rate_experiment(config).csv_text()
        assert out == expected
        assert out_file.read_bytes() == expected.encode("utf-8")

    def test_json_round_trip_bytes(self, capsys):
        _, out, _ = run_cli(
            capsys, "clt", "--H", "0.1", "--n", "16", "--M", "100", "--seed", "7"
        )
        assert json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n" == out


# ---------------------------------------------------------------------------
# selftest and usage errors
# ---------------------------------------------------------------------------


class TestSelftestAndUsage:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert all(check["pass"] for check in payload["checks"])

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_flags(self, capsys):
        code, _, err = run_cli(capsys, "clt")
        assert code == 2

    def test_invalid_H_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--H", "1.5", "--n", "64")
        assert code == 2
        assert "error" in err

    def test_experiment_config_error(self, capsys):
        # M below the minimum replication count
        code, _, err = run_cli(capsys, "clt", "--H", "0.1", "--n", "16", "--M", "50")
        assert code == 2

    def test_negative_master_seed_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", "--H", "0.2", "--n", "16", "--n", "32", "--M", "100", "--seed", "-1"
        )
        assert code == 2
        assert "master_seed must be a nonnegative integer" in err

    def test_bad_flag_value_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "clt", "--H", "0.1", "--n", "16", "--M", "abc")
        assert (code, out) == (2, "")
        assert "config key M" in err

    def test_bad_grid_size_names_its_key(self, capsys):
        code, out, err = run_cli(capsys, "clt", "--H", "0.1", "--n", "16,32", "--M", "100")
        assert (code, out) == (2, "")
        assert "config key n: invalid literal for int()" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("clt", "--H", "0.1", "--n", "16", "--M", "100", "--scheme", "bogus"),
            ("diverge", "--H", "0.1", "--n", "16", "--M", "100", "--scheme", "bogus"),
        ],
    )
    def test_enum_flags_reject_unknown_values(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("command", ["clt", "rate", "diverge"])
    def test_experiments_take_no_generator_flag(self, capsys, command):
        argv = (command, "--H", "0.1", "--n", "16", "--M", "100", "--generator", "circulant")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --generator circulant" in err

    @pytest.mark.parametrize(
        "argv, setting",
        [
            (("clt", "--H", "0.1", "--n", "16", "--n", "32", "--M", "100", "--t", "inf"), "t"),
            (("simulate", "--H", "0.1", "--n", "8", "--T", "inf"), "T"),
            (("constants", "--H", "0.1", "--tol", "nan"), "tol"),
            (RATE_ARGV + ("--slope-tol", "nan"), "slope_tol"),
            (("clt", "--H", "nan", "--n", "16", "--n", "32", "--M", "100"), "H"),
            (("simulate", "--H", "0.1", "--n", "1"), "n"),
            (("clt", "--H", "0.1", "--n", "16", "--n", "32", "--M", "100", "--threads", "0"), "threads"),
            (("constants", "--H", "0.1", "--tol", "inf"), "tol"),
        ],
    )
    def test_bad_inputs_exit_2_without_traceback(self, capsys, argv, setting):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {setting} must ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", sorted(BAD_CONFIG_FLAGS))
    def test_every_config_key_rejects_a_bad_value_before_any_path(self, capsys, monkeypatch, key):
        assert set(BAD_CONFIG_FLAGS) == set(CONFIG_KEYS)  # a new key needs a rejection case
        calls, real = [], experiments.generate_batch
        monkeypatch.setattr(experiments, "generate_batch", lambda *a: calls.append(a) or real(*a))
        code, out, err = run_cli(capsys, *RATE_ARGV, *BAD_CONFIG_FLAGS[key])
        assert (code, out, calls) == (2, "", [])
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--H", "0.5"),
            ("simulate", "--H", "0.3", "--n", "16"),
            ("simulate", "--H", "0.3", "--n", "16", "--csv"),
            ("integrate", "--H", "0.2", "--n", "16"),
            ("clt", "--H", "0.1", "--n", "16", "--M", "100"),
            ("rate", "--H", "0.25", "--n", "16", "--n", "32", "--n", "64", "--M", "100"),
            ("diverge", "--H", "0.05", "--n", "16", "--n", "32", "--M", "100"),
            ("selftest",),
        ],
    )
    def test_one_timing_line_per_run(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1)
        assert re.fullmatch(rf"\[fbmquad\] {argv[0]} finished in \d+\.\d\ds\n", err)


# ---------------------------------------------------------------------------
# config files and flags share one key vocabulary
# ---------------------------------------------------------------------------

#: Config-file key -> strategy for its text value, as written in a file.
CONFIG_VALUES = {
    "H": st.floats(0.15, 0.45).map(repr),
    "n": st.lists(st.integers(3, 64), min_size=1, max_size=3, unique=True).map(
        lambda ns: ",".join(str(n) for n in sorted(ns))
    ),
    "t": st.sampled_from(["0.5", "1.0", "2.0"]),
    "M": st.integers(100, 500).map(str),
    "seed": st.integers(0, 2**64).map(str),
    "f": st.sampled_from(["0,0,0,0,0,1/120", "1,-2,3/4", "0,0,0,0,0,0,0,1/5040"]),
    "threads": st.integers(1, 4).map(str),
    "scheme": st.sampled_from(["midpoint", "trapezoid", "simpson", "milne"]),
    "slope_tol": st.floats(0.1, 1.0).map(repr),
}


def _flags(key: str, text: str) -> list[str]:
    flag = "--" + key.replace("_", "-")
    if key == "n":
        return [arg for n in text.split(",") for arg in (flag, n)]
    return [flag, text]


class TestConfigMerge:
    @given(
        command=st.sampled_from(["clt", "rate", "diverge"]),
        file_keys=st.sets(st.sampled_from(sorted(CONFIG_VALUES))),
        flag_keys=st.sets(st.sampled_from(sorted(CONFIG_VALUES))),
        data=st.data(),
    )
    def test_flags_override_file_keys(self, tmp_path_factory, command, file_keys, flag_keys, data):
        file_keys |= {"H"}
        flag_keys |= {"n"}
        file_raw = {k: data.draw(CONFIG_VALUES[k], label=f"file {k}") for k in sorted(file_keys)}
        flag_raw = {k: data.draw(CONFIG_VALUES[k], label=f"flag {k}") for k in sorted(flag_keys)}
        cfg_file = tmp_path_factory.mktemp("config") / "run.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in file_raw.items()))
        argv = [command, "--config", str(cfg_file)]
        for key, text in flag_raw.items():
            argv += _flags(key, text)
        config = _config_from_args(_build_parser().parse_args(argv))
        assert config == ExperimentConfig.from_mapping({**file_raw, **flag_raw})


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang: str, after: str) -> str:
    """The first fenced ``lang`` block of README.md after the line ``after``."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index(f"\n{after}\n") :]
    start = text.index(f"```{lang}\n") + len(lang) + 4
    return text[start : text.index("```", start)]


class TestReadmeExamples:
    def test_cli_lines_parse_and_configure(self):
        lines = [line for line in _readme_block("bash", "## CLI").splitlines() if line]
        assert len(lines) == 8 and all(line.startswith("fbmquad ") for line in lines)
        for line in lines:
            args = _build_parser().parse_args(shlex.split(line)[1:])
            if args.command in ("clt", "rate", "diverge"):
                assert isinstance(_config_from_args(args), ExperimentConfig), line

    def test_config_file_example_builds_a_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(_readme_block("ini", "### Config files"), encoding="utf-8")
        config = ExperimentConfig.from_mapping(read_config(path))
        assert (config.H, config.n_values, config.replications) == (0.1, (1024, 4096, 16384), 2000)
