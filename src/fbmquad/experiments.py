"""Seeded Monte Carlo experiments probing the quadrature limit theory.

Three experiments, all deterministic functions of their configuration, read
one per-replication quantity: the scheme's residual
riemann_sum - (f(B_{t_n}) - f(0)) over the floor(nt) increments up to the last
grid level, t_n = floor(nt)/n, which is t only when nt is an integer
(``partial_interval_second_moment`` measures the gap).  For polynomial f it is
sum_r a_r sum_j f^(r)(mid_j) dB_j^r, r >= the error power; the first term leads.

- ``run_clt_experiment``: at or below a scheme's critical Hurst exponent
  H_c = 1/(2r), the statistic n^{(2rH-1)/2} residual / a_r converges in law to
  an independent centered Gaussian with variance
  beta_r^2 integral f^(r)(B_s)^2 ds; checked through its variance, a KS test,
  correlation with the terminal level, and a mean gate.
- ``run_rate_experiment``: above H_c the squared residual decays like
  n^{1 - 2rH}; checked by a log-log slope fit.
- ``run_divergence_probe``: below H_c the raw residual variance stops
  vanishing, and above it, as a control, it vanishes.  At H_c the residual is
  the clt's statistic, so the probe refuses it.

All three run one sweep over the grids.  Replication r of the sweep's
n_index-th grid draws from the Philox stream keyed by (master_seed,
n_index * M + r), so results are bit-identical for any worker pool size.
Replications are cut into work items of ``pathgen.block_rows(m)`` =
max(8, 2^17 // m) rows, so that each item is exactly one block of
``generate_batch``.  Each is reduced to its rows' residuals by the row-wise
kernels of ``schemes`` and reassembled in replication order.  The two sizes
differ on purpose: an item is a sampler block, large so that the FFT keeps
batching its rows (halving it slowed the clt by a quarter, and below 4 rows
the FFT stops batching), and the kernels block at 2^15 elements so that their
buffers stay in L2 cache.  Paths are sampled by circulant embedding,
nonnegative definite for fGn at every H.  One pool of at most one thread per
CPU the process may run on works through the items, grid after grid, or the
calling thread does; rows are independent, so neither the item size nor the
thread count changes the output.  The sweep fills the summary fields every
results entry shares and the per-replication columns (replication, seed, n,
B_t, statistic), ``B_t`` holding B_{t_n} under the header the golden digests
pin; each experiment adds its own fields and verdicts to one report builder.

A run is described by one frozen ``ExperimentConfig``, which converts and
validates its settings.  ``_leading_term`` then refuses a run that would test
nothing, in one order for all three: a zero f^(r); H on another run's side of
H_c, by one exact comparison with float(H_c) (``clt`` takes H <= H_c, ``rate``
H > H_c, ``diverge`` H != H_c); too few grids.  ``_sweep`` checks
floor(nt) >= 2 as it builds the grids, still before the first path.  Config
files and CLI flags share one key vocabulary through
``ExperimentConfig.from_mapping``, and a report echoes its config under the
same keys.  The verdict thresholds are fixed (``THRESHOLDS``), so no config
can loosen a verdict.
"""

from __future__ import annotations

import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .constants import beta_squared, beta_terms, predicted_error_variance
from .covariance import HurstGrid, _integer, _real, cov
from .hermite import SUPPORTED_POWERS, hermite_eval, power_to_hermite
from .pathgen import FbmPath, GeneratorKind, block_rows, generate_batch, replication_seeds
from .schemes import (
    Polynomial,
    SchemeKind,
    TestFunction,
    constant_value,
    midpoint_power_sums,
    parse_test_function,
    riemann_sums,
    simpson_error_decomposition,
)
from .stats import correlation, fit_loglog_slope, ks_test_normal, summarize

#: Default master seed for CLI runs and the shipped acceptance configuration.
DEFAULT_MASTER_SEED = 12

_DEFAULT_F = Polynomial((0, 0, 0, 0, 0, Fraction(1, 120)))

#: Verdict thresholds.  They are engineering choices (the limit theory is
#: asymptotic), fixed so that no config can loosen a verdict, and every report
#: echoes them.
THRESHOLDS = {
    "variance_rel_tol": 0.15,
    "ks_alpha": 0.01,
    "sigma_gate": 4.0,
    "decrease_factor": 4.0,
}

_value = operator.attrgetter("value")


def _int(value):
    """Text through ``int``; a typed value as is, for ``ExperimentConfig`` to take exactly."""
    return int(value) if isinstance(value, str) else value


#: Config-file key, which is also the dest of the experiment commands' CLI
#: flag, -> (ExperimentConfig field, converter from text or from a typed value,
#: converter to the report's JSON echo, or None to leave the key out of it).
#: An Enum converter gives its flag the Enum's values as choices.
CONFIG_KEYS = {
    "H": ("H", float, float),
    "n": (
        "n_values",
        lambda v: [_int(n) for n in (v if isinstance(v, (list, tuple)) else str(v).split(","))],
        list,
    ),
    "M": ("replications", _int, int),
    "t": ("t", float, float),
    "seed": ("master_seed", _int, int),
    "scheme": ("scheme", SchemeKind, _value),
    "f": ("f", parse_test_function, operator.methodcaller("spec")),
    "threads": ("threads", _int, None),  # reports are byte-identical across thread counts
    "slope_tol": ("slope_tol", float, float),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo run; validates its settings, numbers only."""

    H: float
    n_values: tuple[int, ...]
    replications: int = 2000
    t: float = 1.0
    master_seed: int = DEFAULT_MASTER_SEED
    scheme: SchemeKind = SchemeKind.SIMPSON
    f: TestFunction = field(default_factory=lambda: _DEFAULT_F)
    threads: int | None = None
    slope_tol: float = 0.35

    def __post_init__(self) -> None:
        ns = tuple(_integer(n, "n_values must be integers") for n in self.n_values)
        object.__setattr__(self, "n_values", ns)
        for name in ("replications", "master_seed", "threads"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _integer(value, f"{name} must be an integer"))
        for name in ("H", "t", "slope_tol"):
            value = _real(getattr(self, name), f"{name} must be a real number")
            object.__setattr__(self, name, value)
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"H must lie in the open interval (0, 1), got {self.H}")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError(f"n_values must be strictly increasing, got {self.n_values}")
        if self.replications < 100:
            raise ValueError(f"need at least 100 replications, got {self.replications}")
        if not 0.0 < self.t < math.inf:
            raise ValueError(f"t must be positive and finite, got {self.t}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {self.master_seed}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if not 0.0 < self.slope_tol < math.inf:
            raise ValueError(f"slope_tol must be positive and finite, got {self.slope_tol}")

    def echo(self) -> dict:
        """Configuration echo for reports, under the config-file keys.

        ``from_mapping`` rebuilds the config from it, except ``threads``, which
        is left out so that reports are byte-identical across thread counts.
        """
        return {
            key: dump(getattr(self, name))
            for key, (name, _, dump) in CONFIG_KEYS.items()
            if dump is not None
        }

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from config-file keys, which are also the CLI flag names.

        Values may be text, as read from a file or a flag, or already typed, as
        in a report's echo; ``n`` is a comma list or a sequence.
        """
        kwargs = {}
        for key, value in raw.items():
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            name, parse, _ = CONFIG_KEYS[key]
            try:
                kwargs[name] = parse(value)
            except ValueError as exc:
                raise ValueError(f"config key {key}: {exc}") from None
        if "H" not in kwargs or "n_values" not in kwargs:
            raise ValueError("config must define at least H and n")
        return cls(**kwargs)


def read_config(path) -> dict[str, str]:
    """Raw ``key = value`` pairs of the config file at ``path`` (``#`` starts a comment).

    A key given on two lines raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"config key {key!r} is set on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        raw[key] = value.strip()
    return raw


@dataclass
class ExperimentReport:
    """Canonical JSON payload plus the per-replication table behind it.

    ``columns`` maps each CSV field (replication, seed, n, B_t, statistic) to a
    numpy column with one entry per replication per grid, written by
    :func:`csv_text`.  Wall-clock time is kept out of the payload so that
    reports with equal configurations are byte-identical; the CLI logs timing
    to stderr.
    """

    payload: dict
    columns: dict[str, np.ndarray]

    @property
    def overall_pass(self) -> bool:
        return bool(self.payload["overall_pass"])

    def to_json(self) -> str:
        return canonical_json(self.payload)

    def csv_text(self) -> str:
        """The per-replication table as CSV, by :func:`csv_text`."""
        return csv_text(self.columns)


def csv_text(columns: dict[str, np.ndarray]) -> str:
    """The one CSV writer: a header, then one line per row, floats in shortest round-trip form."""
    rows = zip(*(column.tolist() for column in columns.values()))
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def canonical_json(payload) -> str:
    """Fixed-order, round-trip-stable JSON (floats in shortest lossless form)."""
    return json.dumps(payload, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# exact second-moment targets
# ---------------------------------------------------------------------------


def partial_interval_second_moment(grid: HurstGrid, f: TestFunction) -> float:
    """E[(f(B_t) - f(B_s))^2] for t = T and s = floor(nT)/n, by 2-d Gauss-Hermite quadrature.

    Exact for polynomial f up to degree 10 (integrand degree <= 20 < 2 * 24).
    Returns 0 when T falls on the grid.  The finite-n variance of the error
    statistic, ``constants.predicted_error_variance``, is the other exact target.
    """
    t = grid.T
    s = grid.num_increments / grid.n
    if s >= t:
        return 0.0
    l11 = math.sqrt(cov(grid, s, s))
    l21 = cov(grid, s, t) / l11
    l22 = math.sqrt(max(cov(grid, t, t) - l21**2, 0.0))
    nodes, weights = np.polynomial.hermite_e.hermegauss(24)
    weights = weights / math.sqrt(2.0 * math.pi)
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    w = np.outer(weights, weights)
    b_s = l11 * u
    b_t = l21 * u + l22 * v
    return float(np.sum(w * (f(b_t) - f(b_s)) ** 2))


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------


def exact_identity_checks() -> dict[str, bool]:
    """Named pass/fail flags of the deterministic identities behind ``fbmquad selftest``.

    Hermite reconstruction of x^r (points from Philox(101), to 1e-9); quadrature
    exactness at H = 0.1, 0.25, 0.45, n = 64 (master seed 102, to 1e-10); Simpson
    telescoping at H = 0.1, n = 16, 64, 256 (master seed 103, to 1e-9).
    """
    circ = GeneratorKind.CIRCULANT_EMBEDDING
    xs = np.random.Generator(np.random.Philox(101)).uniform(-5.0, 5.0, 100)
    hermite_ok = True
    for r in SUPPORTED_POWERS:
        recon = power_to_hermite(r).reconstruct(xs)
        hermite_ok &= bool(np.all(np.abs(recon - xs**r) <= 1e-9 * np.maximum(1.0, np.abs(xs) ** r)))

    quad_ok = True
    for H in (0.1, 0.25, 0.45):
        grid = HurstGrid(H, 64)
        values = generate_batch(grid, circ, replication_seeds(102, 0, 34))
        for scheme in SchemeKind:
            f = Polynomial([0] * scheme.exact_degree + [1])
            expected = f(values[:, -1]) - f(0.0)
            err = np.abs(riemann_sums(values, f, scheme) - expected)
            quad_ok &= bool(np.all(err <= 1e-10 * np.maximum(1.0, np.abs(expected))))

    telescoping_ok = True
    functions = (
        _DEFAULT_F,
        Polynomial([0] * 7 + [1]),
        Polynomial([0] * 9 + [1]),
        Polynomial([1, -2, 0, 3, 0, 0, 0, 1, 0, 1, 2]),
    )
    for n in (16, 64, 256):
        grid = HurstGrid(0.1, n)
        values = generate_batch(grid, circ, replication_seeds(103, 0, 100))
        for row in values:
            path = FbmPath(grid, row, seed=0)
            for f in functions:
                expected = f(float(row[-1])) - f(0.0)
                got = simpson_error_decomposition(path, f, 1.0).telescoped()
                telescoping_ok &= abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    return {
        "hermite_reconstruction": hermite_ok,
        "hermite_small_values": hermite_eval(3, 2.0) == 2.0
        and hermite_eval(5, 1.0) == 6.0
        and hermite_eval(2, 0.0) == -1.0,
        "quadrature_exactness": quad_ok,
        "simpson_telescoping": telescoping_ok,
    }


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------


def _sweep(config: ExperimentConfig, describe, statistic=None, extra=None):
    """Run every grid of the sweep; returns the results entries and the CSV columns.

    Each row of paths is reduced to the scheme's residual
    riemann_sum - (f(B_{t_n}) - f(0)) over its floor(nT) increments, up to its
    last level, at t_n = floor(nT)/n (B_T only when nT is an integer).  That is
    the row's ``"statistic"``, the value summarized and written to the CSV,
    unless statistic(grid, residual) maps it (the clt's scaling).
    extra(grid, values), if given, maps a work item's (rows, floor(nT)+1)
    matrix of paths to a dict of further per-replication arrays.  An item
    holds block_rows(m) rows for m = floor(nT) increments, one sampler block,
    and adds the last levels ``b_end`` (the CSV's ``B_t``) and the stream
    ``seed`` of its rows.  One pool of min(threads, CPUs the process may run
    on) workers runs the items of every grid, or this thread if that is 1.
    Rows are independent and the items are reassembled in replication order,
    so neither the item size nor the thread count changes the output.
    describe(grid, data, summary) returns the fields that follow the shared n,
    count, mean, variance and variance_se of the grid's results entry; data
    holds the concatenated arrays.
    """
    grids = [HurstGrid(config.H, n, T=config.t) for n in config.n_values]
    M = config.replications
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(config.threads or cpus, cpus)

    f, scheme = config.f, config.scheme
    f0 = float(f(0.0))

    def item(i: int, grid: HurstGrid, lo: int, hi: int) -> dict:
        seeds = replication_seeds(config.master_seed, i * M + lo, i * M + hi)
        values = generate_batch(grid, GeneratorKind.CIRCULANT_EMBEDDING, seeds)
        b_end = values[:, -1].copy()
        residual = riemann_sums(values, f, scheme) - (f(b_end) - f0)
        if statistic is not None:
            residual = statistic(grid, residual)
        out = {"statistic": residual, "b_end": b_end, "seed": seeds}
        if extra is not None:
            out.update(extra(grid, values))
        return out

    results, data = [], []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, grid in enumerate(grids):
            rows = block_rows(grid.num_increments)
            los = range(0, M, rows)
            run = pool.map if threads > 1 and len(los) > 1 else map
            pieces = list(run(partial(item, i, grid), los, [min(lo + rows, M) for lo in los]))
            data.append({key: np.concatenate([p[key] for p in pieces]) for key in pieces[0]})
            summary = summarize(data[-1]["statistic"])
            results.append(
                {
                    "n": grid.n,
                    "count": summary.count,
                    "mean": summary.mean,
                    "variance": summary.variance,
                    "variance_se": summary.variance_se,
                    **describe(grid, data[-1], summary),
                }
            )
    columns = {
        "replication": np.tile(np.arange(M), len(data)),
        "seed": np.concatenate([d["seed"] for d in data]),
        "n": np.repeat(config.n_values, M),
        "B_t": np.concatenate([d["b_end"] for d in data]),
        "statistic": np.concatenate([d["statistic"] for d in data]),
    }
    return results, columns


def _report(
    experiment: str, config: ExperimentConfig, body: dict, verdicts: dict, notes: list, columns
) -> ExperimentReport:
    """Assemble a report: the config and threshold echoes, the experiment's body, its verdicts."""
    payload = {
        "experiment": experiment,
        "config": config.echo(),
        "thresholds": dict(THRESHOLDS),
        **body,
        "verdicts": verdicts,
        "overall_pass": all(verdicts.values()),
        "notes": notes,
    }
    return ExperimentReport(payload, columns)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Distributional check of the critical-case Gaussian limit, at H <= 1/(2r).

    With r the scheme's error power and a_r its leading error coefficient, the
    statistic is n^{(2rH-1)/2} (riemann_sum - (f(B_{t_n}) - f(0))) / a_r, the
    rule's own residual up to the last grid level, at t_n = floor(nt)/n (the
    exponent is zero at the critical H = 1/(2r)).  That level is B_t only when
    nt is an integer; ``partial_interval_second_moment`` measures the gap.
    With constant f^(r) = c the limit is an unconditional N(0, c^2 beta_r^2 t);
    otherwise only the variance is compared, against beta_r^2 times the Monte
    Carlo mean of integral f^(r)(B_s)^2 ds.  ``_leading_term`` refuses a zero
    f^(r) and H above 1/(2r), where the residual vanishes (``rate``'s case).
    """
    r, a_r, fr, c = _leading_term(config, "clt")
    kappas = beta_terms(config.H, r=r)
    beta_sq = beta_squared(*kappas)
    exponent = (2 * r * config.H - 1.0) / 2.0

    def statistic(grid: HurstGrid, residual: np.ndarray) -> np.ndarray:
        return float(grid.n) ** exponent * (residual / a_r)

    def fr_sq_integral(grid: HurstGrid, values: np.ndarray) -> dict:
        fr_sq = midpoint_power_sums(values, lambda x, out: np.square(fr(x, out), out), 0)
        return {"fr_sq_integral": fr_sq / grid.n}

    def describe(grid: HurstGrid, data: dict, summary) -> dict:
        stat = data["statistic"]
        if c is None:  # no unconditional limit law: compare the variance only
            sigma2 = beta_sq * float(np.mean(data["fr_sq_integral"]))
            predicted = ks = None
        else:
            sigma2 = c * c * beta_sq * config.t
            scale = float(grid.n) ** exponent
            predicted = scale * scale * predicted_error_variance(grid, r, c)
            ks = ks_test_normal(stat, sigma2)
        return {
            "skewness": summary.skewness,
            "excess_kurtosis": summary.excess_kurtosis,
            "target_variance": float(sigma2),
            "predicted_variance_exact": predicted,
            "partial_interval_second_moment": partial_interval_second_moment(grid, config.f),
            "ks_statistic": None if ks is None else ks.statistic,
            "ks_p_value": None if ks is None else ks.p_value,
            "corr_with_level": correlation(stat, data["b_end"]),
            "variance_ratio_error": abs(summary.variance / sigma2 - 1.0),
        }

    extra = fr_sq_integral if c is None else None
    results, columns = _sweep(config, describe, statistic, extra)
    last = results[-1]
    ratio_errors = [entry["variance_ratio_error"] for entry in results]
    M = config.replications
    sigma_gate = THRESHOLDS["sigma_gate"]
    var_tol = max(
        THRESHOLDS["variance_rel_tol"], 3.0 * last["variance_se"] / last["target_variance"]
    )
    trend = all(b <= a + 1e-15 for a, b in zip(ratio_errors, ratio_errors[1:]))
    verdicts = {
        "variance_final": ratio_errors[-1] <= var_tol,
        **({"variance_trend": trend} if len(results) > 1 else {}),
        **({"ks_final": last["ks_p_value"] > THRESHOLDS["ks_alpha"]} if c is not None else {}),
        "corr_final": abs(last["corr_with_level"]) < sigma_gate / math.sqrt(M),
        "mean_final": abs(last["mean"]) < sigma_gate * math.sqrt(last["variance"] / M),
    }
    body = {
        "constants": {
            **{f"kappa{k.m}": k.value for k in reversed(kappas)},
            "beta": math.sqrt(beta_sq),
            "beta_squared": beta_sq,
        },
        "statistic_scale_exponent": exponent,
        "results": results,
    }
    notes = [
        "verdict thresholds are engineering choices; the limit law is asymptotic "
        "and finite-n agreement is trend plus tolerance",
    ]
    return _report("clt", config, body, verdicts, notes, columns)


def run_rate_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Decay-rate check E[(riemann_sum - increment of f)^2] ~ n^{1 - 2rH}; needs a nonzero f^(r)."""
    r = _leading_term(config, "rate")[0]
    results, columns = _sweep(config, partial(_residual_moments, config))
    target = 1.0 - 2.0 * r * config.H
    fit = fit_loglog_slope([(e["n"], e["second_moment"]) for e in results])
    # "exact" reads true on every run; perfbench/reference.json pins the rate verdict keys
    verdicts = {"exact": True, "slope": abs(fit.slope - target) <= config.slope_tol}
    fit_entry = {"slope": fit.slope, "stderr": fit.stderr, "target": target}
    return _report("rate", config, {"results": results, "fit": fit_entry}, verdicts, [], columns)


def run_divergence_probe(config: ExperimentConfig) -> ExperimentReport:
    """Raw residual variance below and, as a control, above the critical exponent (not at it)."""
    _leading_term(config, "diverge")
    regime = f"{_side(config)[0]}-threshold"
    results, columns = _sweep(config, partial(_residual_moments, config))
    variances = [e["variance"] for e in results]
    ses = [e["variance_se"] for e in results]
    if regime == "below-threshold":  # no step may fall by more than its combined SE
        steps = zip(variances, variances[1:], ses, ses[1:])
        verdicts = {"non_vanishing": all(b >= a - math.hypot(sa, sb) for a, b, sa, sb in steps)}
    else:  # control case: the residual must vanish
        verdicts = {"vanishing": variances[0] >= THRESHOLDS["decrease_factor"] * variances[-1]}
    body = {"regime": regime, "results": results}
    return _report("divergence", config, body, verdicts, [], columns)


def _residual_moments(config: ExperimentConfig, grid: HurstGrid, data: dict, summary) -> dict:
    """A rate or divergence entry's fields: residual second moment and SE, partial interval."""
    residual = data["statistic"]
    return {
        "second_moment": float(np.mean(residual**2)),
        "second_moment_se": float(np.std(residual**2, ddof=1)) / math.sqrt(config.replications),
        "partial_interval_second_moment": partial_interval_second_moment(grid, config.f),
    }


#: Each run's sides of H_c, least number of grids, and refusals of another side and of fewer.
_RUNS = {
    "clt": (("below", "at"), 1, "clt needs H at or below the {scheme} threshold {H_c:.6g}, "
            "got {H}; fbmquad rate tests the residual above it", "clt needs a grid"),
    "rate": (("above",), 3, "rate experiment needs H above the {scheme} threshold "
             "{H_c:.6g}, got {H}; fbmquad clt tests H at or below it",
             "rate experiment fits a slope and needs at least 3 grids, got {grids}"),
    "diverge": (("below", "above"), 2, "the divergence probe does not run at the {scheme} "
                "threshold {H_c:.6g}; fbmquad clt tests the residual's limit law there",
                "the {side}-threshold divergence probe compares grids and needs at least 2, "
                "got {grids}"),
}


def _side(config: ExperimentConfig) -> tuple[str, float]:
    """("below", "at" or "above", H_c): H against H_c = 1/(2r), compared exactly as float(H_c)."""
    H, H_c = config.H, float(config.scheme.critical_hurst)
    return ("below" if H < H_c else "at" if H == H_c else "above"), H_c


def _leading_term(config: ExperimentConfig, run: str):
    """(r, a_r, f^(r), c): the scheme's error power and coefficient, f^(r), its value if constant.

    First checks, in this order, that f^(r) is not zero (f integrated exactly: no error term,
    no limit, no rate), then that H and the grid count suit ``run`` (``_RUNS``).
    """
    scheme, f = config.scheme, config.f
    r = scheme.error_power
    fr = f.derivative(r)
    c = constant_value(fr)
    if c == 0.0:
        raise ValueError(
            f"f^({r}) is identically zero for the {scheme.value} scheme "
            f"(f = {f.spec()}), so its error term vanishes and there is nothing to test"
        )
    sides, least, wrong_side, too_few = _RUNS[run]
    side, H_c = _side(config)
    fields = dict(scheme=scheme.value, H_c=H_c, H=config.H, side=side, grids=len(config.n_values))
    if side not in sides:
        raise ValueError(wrong_side.format(**fields))
    if fields["grids"] < least:
        raise ValueError(too_few.format(**fields))
    return r, float(scheme.error_coefficients[r]), fr, c
