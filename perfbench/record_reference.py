"""Write reference.json: each workload's results at the shipped seed, and its counts.

    python3 perfbench/record_reference.py

For every operation it stores the verdicts and values of an untraced pass at
the shipped seed; for every workload, the work counts of a traced pass, which
do not depend on the seed.  Run it only when a change is meant to alter the
draws, the formulas or the work done, and say so in CHANGES.md with the
verdicts before and after; a 1-ulp change in a kernel stays within run.py's
REL_TOL and needs no new reference.
"""

import json
import sys

import run


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        plain = run.run_pass(workload, run.SHIPPED_SEED, run.nproc(), trace=False, tiny=False)
        traced = run.run_pass(workload, run.SHIPPED_SEED, 1, trace=True, tiny=False)
        raised = [op["name"] for op in plain["ops"] + traced["ops"] if op["error"]]
        if raised:
            print(f"error: {workload} operations raised: {raised}", file=sys.stderr)
            return 1
        counts = run.layer_metrics(traced["spans"])
        reference[workload] = {
            "ops": {op["name"]: {"verdicts": op["verdicts"], "values": op["values"]} for op in plain["ops"]},
            "counts": {key: counts[key] for key in run.COUNTS},
        }
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
