"""Pass rates of the acceptance verdicts over 32 master seeds that no test uses.

    python scripts/calibrate.py

Runs the five experiment configs of acceptance criteria 4-6 (the clt at
H = 0.1; the rate runs for Simpson at H = 0.2 and Milne at H = 0.15; the
divergence probes at H = 0.05 and H = 0.2) through the public API at master
seeds 100-131, and prints, per config, how many of the 32 runs pass each
verdict and ``overall_pass``, as a Markdown table.  The configs are those of
``tests/test_acceptance.py`` with only the master seed changed, so a table
row is the false-alarm rate of that acceptance check on working code.  The
run time goes to stderr.  It takes no flags, and pytest does not collect it.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fbmquad import (  # noqa: E402
    ExperimentConfig,
    Polynomial,
    SchemeKind,
    run_clt_experiment,
    run_divergence_probe,
    run_rate_experiment,
)

#: Master seeds no test or benchmark uses.
SEEDS = range(100, 132)

QUINTIC = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
SEPTIC = Polynomial([0] * 7 + [Fraction(1, 5040)])
RATE_GRIDS = tuple(2**k for k in range(8, 14))
PROBE_GRIDS = (2**8, 2**10, 2**12)

#: Label -> (runner, config settings other than the master seed), as in criteria 4-6.
CONFIGS = {
    "clt, Simpson, H = 0.1": (
        run_clt_experiment,
        dict(H=0.1, n_values=(2**10, 2**12, 2**14), replications=2000, f=QUINTIC),
    ),
    "rate, Simpson, H = 0.2": (
        run_rate_experiment,
        dict(H=0.2, n_values=RATE_GRIDS, replications=500, f=QUINTIC, slope_tol=0.35),
    ),
    "rate, Milne, H = 0.15": (
        run_rate_experiment,
        dict(
            H=0.15,
            n_values=RATE_GRIDS,
            replications=500,
            scheme=SchemeKind.MILNE,
            f=SEPTIC,
            slope_tol=0.4,
        ),
    ),
    "diverge, Simpson, H = 0.05": (
        run_divergence_probe,
        dict(H=0.05, n_values=PROBE_GRIDS, replications=500, f=QUINTIC),
    ),
    "diverge, Simpson, H = 0.2": (
        run_divergence_probe,
        dict(H=0.2, n_values=PROBE_GRIDS, replications=500, f=QUINTIC),
    ),
}


def pass_counts(runner, settings: dict) -> dict[str, int]:
    """Verdict name -> number of seeds at which it passed, then ``overall_pass``."""
    counts: dict[str, int] = {}
    for seed in SEEDS:
        payload = runner(ExperimentConfig(**settings, master_seed=seed)).payload
        for name, ok in [*payload["verdicts"].items(), ("overall_pass", payload["overall_pass"])]:
            counts[name] = counts.get(name, 0) + bool(ok)
    return counts


def main() -> int:
    started = time.perf_counter()
    print(f"| config | verdict | passes of {len(SEEDS)} |")
    print("|---|---|---|")
    for label, (runner, settings) in CONFIGS.items():
        for name, count in pass_counts(runner, settings).items():
            print(f"| {label} | `{name}` | {count} |", flush=True)
    elapsed = time.perf_counter() - started
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}: {elapsed:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
