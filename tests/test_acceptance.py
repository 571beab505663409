"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scales and tolerances are pinned from the package contract.  Criteria 4-6
run the config files of ``configs/``, each through the CLI's own parser, so a
test runs exactly what ``fbmquad <command> --config FILE`` runs:

1. exact identities (Hermite expansion, quadrature exactness, Simpson
   telescoping decomposition), deterministic, < 10 s;
2. sampler correctness at H in {0.1, 1/6, 0.25, 0.5} with 1e5 replications
   plus Cholesky-vs-circulant marginal equivalence, < 2 min;
3. limit constants: closed forms at H = 1/2, truncation stability, tail
   bounds, < 5 s;
4. critical-case distributional experiment, ``configs/clt-simpson-H0.1.ini``
   (trend + tolerance, KS, correlation, mean gates) — the law is asymptotic,
   so the shipped master seed documents one reproducible passing
   configuration;
5. decay rates, ``configs/rate-simpson-H0.2.ini`` and
   ``configs/rate-milne-H0.15.ini`` (slope 1 - 2rH within the file's
   ``slope_tol``);
6. divergence probe, ``configs/diverge-simpson-H0.05.ini`` (growth) and
   ``configs/diverge-simpson-H0.2.ini`` (>= 4x decay);
7. byte-identical reports across thread counts.
"""

import json
import math
import time

import numpy as np
from scipy.stats import ks_2samp

import fbmquad as fq
from fbmquad import DEFAULT_MASTER_SEED, ExperimentConfig, GeneratorKind, HurstGrid
from fbmquad.experiments import exact_identity_checks
from oracle import acceptance_run

CIRC = GeneratorKind.CIRCULANT_EMBEDDING
CHOL = GeneratorKind.CHOLESKY_EXACT


def record(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. exact-identity suite
# ---------------------------------------------------------------------------


def test_criterion_1_exact_identities():
    started = time.perf_counter()
    checks = exact_identity_checks()
    elapsed = time.perf_counter() - started
    ok = all(checks.values()) and elapsed < 10.0
    detail = " ".join(f"{name}={passed}" for name, passed in checks.items())
    record(1, "exact identities", ok, f"{detail} runtime={elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# 2. sampler correctness
# ---------------------------------------------------------------------------


def test_criterion_2_sampler_correctness():
    started = time.perf_counter()
    reps = 100_000
    worst_z = 0.0
    for h_index, H in enumerate((0.1, 1 / 6, 0.25, 0.5)):
        grid = HurstGrid(H, 64)
        exact = fq.increment_gram(grid)
        accum = np.zeros_like(exact)
        base = 1_000_000 * (h_index + 1)
        for lo in range(0, reps, 4096):
            hi = min(lo + 4096, reps)
            seeds = fq.replication_seeds(DEFAULT_MASTER_SEED, base + lo, base + hi)
            db = np.diff(fq.generate_batch(grid, CIRC, seeds), axis=1)
            accum += db.T @ db
        emp = accum / reps
        se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2) / reps)
        worst_z = max(worst_z, float(np.max(np.abs(emp - exact) / se)))
    gram_ok = worst_z <= 5.0

    grid = HurstGrid(0.1, 64)
    per_side = 10_000
    passed_checks = 0
    for check in range(100):
        base = 10_000_000 + check * 2 * per_side
        chol_seeds = fq.replication_seeds(DEFAULT_MASTER_SEED, base, base + per_side)
        circ_seeds = fq.replication_seeds(DEFAULT_MASTER_SEED, base + per_side, base + 2 * per_side)
        a = np.diff(fq.generate_batch(grid, CHOL, chol_seeds), axis=1)[:, 0]
        b = np.diff(fq.generate_batch(grid, CIRC, circ_seeds), axis=1)[:, 0]
        if ks_2samp(a, b).pvalue > 0.01:
            passed_checks += 1
    ks_ok = passed_checks >= 95

    elapsed = time.perf_counter() - started
    ok = gram_ok and ks_ok and elapsed < 120.0
    record(
        2,
        "sampler correctness",
        ok,
        f"max Gram |z|={worst_z:.2f} (<=5), KS checks passed={passed_checks}/100 (>=95), "
        f"runtime={elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# 3. constants
# ---------------------------------------------------------------------------


def test_criterion_3_constants():
    started = time.perf_counter()

    stable = True
    for m in (3, 5):
        res = fq.kappa(m, 0.1, 1e-8)
        doubled = 2.0 * math.fsum(
            fq.rho(p, 0.1) ** m for p in range(2 * res.truncation_P, 0, -1)
        ) + 2.0**m
        stable &= abs(res.value - doubled) < 1e-8

    closed = (
        fq.kappa(5, 0.5, 1e-12).value == 32.0
        and fq.kappa(3, 0.5, 1e-12).value == 8.0
        and fq.beta(0.5) == math.sqrt(720.0)
    )

    k5, k3 = fq.beta_terms(0.1, 1e-9)
    tails_ok = k5.tail_bound < 1e-8 and k3.tail_bound < 1e-8
    beta_value = math.sqrt(120.0 / 32.0 * k5.value + 75.0 * k3.value)

    elapsed = time.perf_counter() - started
    ok = stable and closed and tails_ok and elapsed < 5.0
    record(
        3,
        "constants",
        ok,
        f"truncation-stable={stable} closed-forms={closed} tails<1e-8={tails_ok} "
        f"beta(0.1)={beta_value:.9f} runtime={elapsed:.1f}s (<5s)",
    )


# ---------------------------------------------------------------------------
# 4. critical-case limit law
# ---------------------------------------------------------------------------


def test_criterion_4_critical_case_clt():
    started = time.perf_counter()
    runner, config = acceptance_run("clt-simpson-H0.1")
    report = runner(config)
    v = report.payload["verdicts"]
    corr_gate = report.payload["thresholds"]["sigma_gate"] / math.sqrt(config.replications)
    last = report.payload["results"][-1]
    errors = [r["variance_ratio_error"] for r in report.payload["results"]]
    elapsed = time.perf_counter() - started
    ok = (
        v["variance_trend"]
        and v["variance_final"]
        and v["ks_final"]
        and v["corr_final"]
        and v["mean_final"]
        and elapsed < 900.0
    )
    record(
        4,
        "critical-case limit law",
        ok,
        f"|Var/beta^2-1|={[f'{e:.4f}' for e in errors]} (monotone + final<=max(0.15,3SE)), "
        f"KS p={last['ks_p_value']:.3f} (>0.01), |corr|={abs(last['corr_with_level']):.4f} "
        f"(<{corr_gate:.4f}), mean gate={v['mean_final']}, "
        f"runtime={elapsed:.0f}s (<900s)",
    )


# ---------------------------------------------------------------------------
# 5. decay rates
# ---------------------------------------------------------------------------


def test_criterion_5_rate_law():
    started = time.perf_counter()
    runner, simpson_cfg = acceptance_run("rate-simpson-H0.2")
    simpson = runner(simpson_cfg)
    runner, milne_cfg = acceptance_run("rate-milne-H0.15")
    milne = runner(milne_cfg)
    elapsed = time.perf_counter() - started
    s_fit = simpson.payload["fit"]
    m_fit = milne.payload["fit"]
    ok = simpson.overall_pass and milne.overall_pass and elapsed < 600.0
    record(
        5,
        "rate law",
        ok,
        f"simpson slope={s_fit['slope']:.3f} "
        f"(target {s_fit['target']:g} +-{simpson_cfg.slope_tol}), "
        f"milne slope={m_fit['slope']:.3f} (target {m_fit['target']:.2f} +-{milne_cfg.slope_tol}), "
        f"runtime={elapsed:.0f}s (<600s)",
    )


# ---------------------------------------------------------------------------
# 6. divergence probe
# ---------------------------------------------------------------------------


def test_criterion_6_divergence_probe():
    started = time.perf_counter()
    runner, grow_cfg = acceptance_run("diverge-simpson-H0.05")
    grow = runner(grow_cfg)
    runner, control_cfg = acceptance_run("diverge-simpson-H0.2")
    control = runner(control_cfg)
    grow_vars = [r["variance"] for r in grow.payload["results"]]
    control_vars = [r["variance"] for r in control.payload["results"]]
    elapsed = time.perf_counter() - started
    ok = grow.overall_pass and control.overall_pass and elapsed < 600.0
    record(
        6,
        "divergence probe",
        ok,
        f"H={grow_cfg.H} variances={[f'{x:.3e}' for x in grow_vars]} (non-decreasing within 1 SE), "
        f"H={control_cfg.H} decay={control_vars[0] / control_vars[-1]:.1f}x (>=4x), "
        f"runtime={elapsed:.0f}s (<600s)",
    )


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------


def test_criterion_7_determinism():
    outputs = {}
    for runner, H in ((fq.run_clt_experiment, 0.1), (fq.run_rate_experiment, 0.2)):
        for threads in (1, 4):
            config = ExperimentConfig(
                H=H,
                n_values=(16, 32, 64),
                replications=100,
                master_seed=DEFAULT_MASTER_SEED,
                threads=threads,
            )
            report = runner(config)
            outputs.setdefault(runner.__name__, []).append(
                (report.to_json(), report.csv_text())
            )
    ok = all(pair[0] == pair[1] for pair in outputs.values())
    json_ok = all(
        fq.canonical_json(json.loads(pair[0][0])) == pair[0][0] for pair in outputs.values()
    )
    record(
        7,
        "determinism",
        ok and json_ok,
        f"threads 1 vs 4 byte-identical={ok}, JSON round-trip stable={json_ok}",
    )
