"""Command-line front end.

Subcommands: ``constants``, ``simulate``, ``integrate``, ``clt``, ``rate``,
``diverge``, ``selftest``.  Results go to stdout as canonical JSON, or as CSV
with --csv where applicable; --out also writes the CSV to a file.  ``main``
writes one timing line per run to stderr.
The experiment commands get one flag per ``CONFIG_KEYS`` key, kept as text for
``ExperimentConfig.from_mapping``.  Every command that draws paths samples
them by circulant embedding; the Cholesky sampler is an API reference only.
Exit codes: 0 success and all verdicts pass, 1 verdict failure, 2 usage or
config error.  Any other exception is a defect and propagates.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from enum import EnumMeta

from .constants import DEFAULT_TOL, beta_squared, beta_terms
from .covariance import HurstGrid
from .experiments import (
    CONFIG_KEYS,
    DEFAULT_MASTER_SEED,
    _DEFAULT_F,
    ExperimentConfig,
    canonical_json,
    csv_text,
    exact_identity_checks,
    read_config,
    run_clt_experiment,
    run_divergence_probe,
    run_rate_experiment,
)
from .pathgen import FbmPath, GeneratorKind, generate
from .schemes import SchemeKind, cut_levels, error_decomposition, parse_test_function, riemann_sum


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'fbmquad {args.command} --help' for usage", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"[fbmquad] {args.command} finished in {elapsed:.2f}s", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmquad",
        description="Riemann-sum stochastic integration against fractional "
        "Brownian motion: constants, simulation, integration, and "
        "Monte Carlo verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="limit constants kappa3, kappa5, beta")
    p.add_argument("--H", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("simulate", help="sample one trajectory")
    _grid_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--out", help="write CSV (t,B) here; the JSON then omits the path")
    p.add_argument("--csv", action="store_true", help="emit CSV on stdout")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("integrate", help="one Riemann sum on one sampled path")
    _grid_flags(p)
    p.add_argument("--t", type=float, default=None, help="upper time (default T)")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--scheme", choices=[s.value for s in SchemeKind], default="simpson")
    p.add_argument("--f", default=_DEFAULT_F.spec(), help=_FLAG_HELP["f"])
    p.set_defaults(handler=_cmd_integrate)

    for name, runner, help_text in (
        ("clt", run_clt_experiment, "critical-case distributional experiment"),
        ("rate", run_rate_experiment, "squared-residual decay-rate experiment"),
        ("diverge", run_divergence_probe, "residual variance probe off the critical exponent"),
    ):
        p = sub.add_parser(name, help=help_text)
        _experiment_flags(p)
        p.set_defaults(handler=_cmd_experiment, runner=runner)

    p = sub.add_parser("selftest", help="fast deterministic exact-identity suite")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def _grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=float, default=1.0)


#: Help text of the experiment flags, by config key.
_FLAG_HELP = {
    "n": "repeatable for sweeps",
    "M": "replications",
    "seed": "master seed",
    "f": "polynomial coeffs lowest degree first, or cos[:a,w[,q]]",
    "threads": "worker pool cap (default: all cores)",
    "slope_tol": "rate-fit slope tolerance",
}


def _experiment_flags(p: argparse.ArgumentParser) -> None:
    """One flag per config key, left as text for ``ExperimentConfig.from_mapping``."""
    p.add_argument("--config", help="key = value config file; flags override it")
    for key, (_, parse, _) in CONFIG_KEYS.items():
        choices = [member.value for member in parse] if isinstance(parse, EnumMeta) else None
        action = "append" if key == "n" else "store"
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, action=action, choices=choices, help=_FLAG_HELP.get(key))
    p.add_argument("--out", help="write per-replication CSV here")
    p.add_argument("--csv", action="store_true", help="emit per-replication CSV on stdout")


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> int:
    kappas = beta_terms(args.H, args.tol)  # q = r, r-2, ..., 3; rendered by ascending q
    payload = {
        "H": args.H,
        **{f"kappa{k.m}": k.value for k in reversed(kappas)},
        "beta": math.sqrt(beta_squared(*kappas)),
        "tol": args.tol,
        "truncation_P": max(k.truncation_P for k in kappas),
        **{f"tail_bound_kappa{k.m}": k.tail_bound for k in reversed(kappas)},
    }
    print(canonical_json(payload))
    return 0


def _make_path(args) -> FbmPath:
    grid = HurstGrid(args.H, args.n, T=args.T)
    return generate(grid, GeneratorKind.CIRCULANT_EMBEDDING, args.seed)


def _emit(args, columns: dict, payload: dict) -> None:
    """Write the CSV of ``columns`` to --out if given, then print it with --csv, else the JSON."""
    text = csv_text(columns) if args.out or args.csv else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.csv:
        sys.stdout.write(text)
    else:
        print(canonical_json(payload))


def _cmd_simulate(args) -> int:
    path = _make_path(args)
    columns = {"t": path.grid.times(), "B": path.values}
    payload = {key: getattr(args, key) for key in ("H", "n", "T", "seed")}
    if args.out:
        payload |= {"rows": len(path.values), "out": args.out}  # data rows, one per grid point
    else:
        payload |= {key: column.tolist() for key, column in columns.items()}
    _emit(args, columns, payload)
    return 0


def _cmd_integrate(args) -> int:
    t = args.t if args.t is not None else args.T
    path = _make_path(args)
    f = parse_test_function(args.f)
    scheme = SchemeKind(args.scheme)
    value = riemann_sum(path, f, scheme, t)
    end_level = float(cut_levels(path, t)[0, -1])
    increment_of_f = float(f(end_level) - f(0.0))
    payload = {
        "H": args.H,
        "n": args.n,
        "t": t,
        "seed": args.seed,
        "scheme": scheme.value,
        "f": f.spec(),
        "riemann_sum": value,
        "increment_of_f": increment_of_f,
        "residual": value - increment_of_f,
    }
    if f.degree is not None and f.degree <= 10:
        d = error_decomposition(path, f, scheme, t)
        payload["decomposition"] = {"main": d.main} | {f"term{r}": v for r, v in d.terms.items()}
    print(canonical_json(payload))
    return 0


def _cmd_experiment(args) -> int:
    report = args.runner(_config_from_args(args))
    _emit(args, report.columns, report.payload)
    return 0 if report.overall_pass else 1


def _config_from_args(args) -> ExperimentConfig:
    raw = read_config(args.config) if args.config else {}
    raw.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    return ExperimentConfig.from_mapping(raw)


def _cmd_selftest(args) -> int:
    checks = [{"name": name, "pass": ok} for name, ok in exact_identity_checks().items()]
    all_pass = all(c["pass"] for c in checks)
    print(canonical_json({"checks": checks, "all_pass": all_pass}))
    return 0 if all_pass else 1


if __name__ == "__main__":
    entrypoint()
