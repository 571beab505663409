"""Pass rates of the acceptance verdicts over 32 master seeds that no test uses.

    python scripts/calibrate.py

Runs each config file of ``configs/`` (the acceptance runs of criteria 4-6)
at master seeds 100-131, through the CLI's own parser as
``fbmquad <command> --config FILE --seed S`` builds it, the file name's prefix
up to its first ``-`` naming the command, and prints, per file, how many of
the 32 runs pass each verdict and ``overall_pass``, as a Markdown table.  Only
the master seed differs from the acceptance run, so a table row is the
false-alarm rate of that acceptance check on working code.  The run time goes
to stderr.  It takes no flags, and pytest does not collect it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fbmquad.cli import _build_parser, _config_from_args  # noqa: E402

#: Master seeds no test or benchmark uses.
SEEDS = range(100, 132)

#: The acceptance runs of criteria 4-6, one config file each.
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))


def pass_counts(path: Path) -> dict[str, int]:
    """Verdict name -> number of seeds at which the file's run passed it, then ``overall_pass``."""
    command = path.stem.split("-", 1)[0]
    counts: dict[str, int] = {}
    for seed in SEEDS:
        args = _build_parser().parse_args([command, "--config", str(path), "--seed", str(seed)])
        payload = args.runner(_config_from_args(args)).payload
        for name, ok in [*payload["verdicts"].items(), ("overall_pass", payload["overall_pass"])]:
            counts[name] = counts.get(name, 0) + bool(ok)
    return counts


def main() -> int:
    started = time.perf_counter()
    print(f"| config | verdict | passes of {len(SEEDS)} |")
    print("|---|---|---|")
    for path in CONFIGS:
        for name, count in pass_counts(path).items():
            print(f"| `{path.stem}` | `{name}` | {count} |", flush=True)
    elapsed = time.perf_counter() - started
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}: {elapsed:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
