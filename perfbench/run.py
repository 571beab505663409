"""fbmquad benchmark: time to a verdict on three seeded Monte Carlo workloads.

    python3 perfbench/run.py --workload clt-critical --seed 12 --seconds 40 --trace 0

Workloads (each on one process with at most nproc threads; BLAS pinned to one):

- ``clt-critical``: acceptance criterion 4 (H = 0.1, n = 2^10, 2^12, 2^14,
  M = 2000), ending in ``to_json()`` + ``csv_text()``.  Time goes to large
  circulant FFTs and the quintic error statistic.
- ``rate-sweep``: criteria 5 and 6 (Simpson and Milne rate laws over
  n = 2^8..2^13, divergence probes at H = 0.05 and 0.2, M = 500).  Time goes
  to the Riemann-sum kernel over 18 mid-size grids.
- ``small-paths``: criteria 1 and 2 scaled down (Gram z-checks, Cholesky vs
  circulant KS checks at stream offsets above 10^7, single-path quadrature
  identities).  Per-path overhead and seed expansion dominate.

A run repeats passes, each in a fresh interpreter, until ``--seconds`` is
spent (at least one group of passes), and reports medians.  ``--trace 0``
alternates a ``threads = nproc`` pass with a ``threads = 1`` pass and prints
the end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
pass, both at ``threads = 1``, and prints the per-layer metrics derived from
the spans of the traced passes (see tracer.py).

Every operation is checked (see workloads.py); the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  Machine info, every pass
and the spans are written once at the end under ``perfbench/results/``.
The script exits 2 without a result when the checkout has no ``src/fbmquad``
or a pass fails to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import BOUNDARIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("clt-critical", "rate-sweep", "small-paths")
THREADED = ("clt-critical", "rate-sweep")

#: Seed of the shipped acceptance configuration; reference.json holds its values.
SHIPPED_SEED = 12
#: Relative tolerance for reference values: loose enough for 1-ulp changes in
#: the kernels, tight enough that any change of draws or formulas shows.
REL_TOL = 1e-9

#: A pass that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "wall_1t_s": "s",
    "increments_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: (generator, m) pairs the workloads sample; each gets a per-path cost.
SAMPLED_GRIDS = [("circulant", m) for m in (16, 64, 256, 512, 1024, 2048, 4096, 8192, 16384)]
SAMPLED_GRIDS.append(("cholesky", 64))


def _busy_name(boundary: str) -> str:
    """Busy-time metric of a boundary; report I/O keeps the name the issue gave it."""
    return "experiments.report_io_s" if boundary == "experiments.report_io" else f"{boundary}.busy_s"


PER_LAYER = {}
for _name in BOUNDARIES:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[_busy_name(_name)] = "s"
    PER_LAYER[f"{_name}.errors"] = "count"
PER_LAYER.update(
    {
        "pathgen.replication_seeds.max_stop": "count",
        "pathgen.generate_batch.paths": "count",
        **{f"pathgen.generate_batch.us_per_path.{g}.m{m}": "us" for g, m in SAMPLED_GRIDS},
        "pathgen.increments": "count",
        "pathgen.normals_drawn": "count",
        "pathgen.bytes_computed": "B",
        "schemes.riemann_sum.us_per_call": "us",
        "schemes.simpson_error_decomposition.us_per_call": "us",
        "experiments.self_s": "s",
        "experiments.self_frac": "ratio",
        "experiments.rows": "count",
        "experiments.csv_bytes": "B",
        "trace.overhead_s": "s",
    }
)

#: Per-layer counts of work that repeat exactly at any seed; reference.json stores them.
COUNTS = (
    "pathgen.generate_batch.paths",
    "pathgen.increments",
    "pathgen.normals_drawn",
    "pathgen.bytes_computed",
    "experiments.rows",
)
#: Counts that repeat exactly within a run.  The CSV holds the seeds and the
#: digits of the draws, so its size changes with the seed.
REPEATED = COUNTS + ("experiments.csv_bytes",)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    """Environment for passes: the checkout's src first, BLAS on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(workload: str, seed: int, threads: int, trace: bool, tiny: bool) -> dict:
    """Run one pass in a fresh interpreter; adds ``setup_s`` measured from spawn."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--threads", str(threads), "--trace", str(int(trace))]
    if tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {cmd} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {cmd} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(setup_s=result["ready"] - spawned, threads=threads, traced=trace)
    return result


def run_groups(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> list[list[dict]]:
    """Repeat groups of passes while the next group is predicted to fit in ``seconds``."""
    if trace:
        plan = [(1, False), (1, True)]
    elif workload in THREADED:
        plan = [(nproc(), False), (1, False)]
    else:
        plan = [(1, False)]
    started = time.monotonic()
    groups, durations = [], []
    while True:
        group_started = time.monotonic()
        groups.append([run_pass(workload, seed, t, tr, tiny) for t, tr in plan])
        durations.append(time.monotonic() - group_started)
        print(f"group {len(groups)}: {durations[-1]:.2f} s", file=sys.stderr, flush=True)
        if time.monotonic() - started + statistics.median(durations) > seconds:
            return groups


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    """``{"ops": {name: {"verdicts", "values"}}, "counts": {...}}`` of one workload."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def op_failures(op: dict, first: dict, reference: dict | None) -> list[str]:
    """Reasons one operation execution failed; empty when it passed."""
    if op["error"]:
        return [f"raised {op['error']}"]
    reasons = [f"gate {k} false" for k, ok in op["gates"].items() if not ok]
    if op["digest"] != first.get("digest"):
        reasons.append("output bytes differ from the first pass")
    if reference is not None:
        ref = reference.get(op["name"])
        if ref is None:
            return reasons + ["no reference"]
        reasons += [f"verdict {k} false" for k, ok in op["verdicts"].items() if not ok]
        if ref["verdicts"] != op["verdicts"]:
            reasons.append("verdicts differ from the reference")
        for key, want in ref["values"].items():
            got = op["values"].get(key)
            if got is None or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                reasons.append(f"{key}={got!r}, reference {want!r}")
        if set(op["values"]) != set(ref["values"]):
            reasons.append("value names differ from the reference")
    return reasons


def check_ops(passes: list[dict], reference: dict | None) -> tuple[int, list[str]]:
    """Check every operation of every pass; returns (attempted, one line per failed one)."""
    first = {op["name"]: op for op in passes[0]["ops"]}
    attempted, failures = 0, []
    for i, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            reasons = op_failures(op, first[op["name"]], reference)
            if reasons:
                failures.append(f"pass {i} {op['name']}: {'; '.join(reasons)}")
    return attempted, failures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, reach = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, derived from its spans alone."""
    out = {name: 0 for name in PER_LAYER}
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    for name in BOUNDARIES:
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[_busy_name(name)] = sum(s["end"] - s["start"] for s in group)
        out[f"{name}.errors"] = sum(s["error"] is not None for s in group)

    seeds = by_name.get("pathgen.replication_seeds", [])
    out["pathgen.replication_seeds.max_stop"] = max((s["stop"] for s in seeds), default=0)
    per_grid: dict[tuple, list[float]] = {}
    for s in by_name.get("pathgen.generate_batch", []):
        if "paths" not in s:  # the call raised
            continue
        m, paths = s["m"], s["paths"]
        out["pathgen.generate_batch.paths"] += paths
        out["pathgen.increments"] += paths * m
        normals = paths * (2 * m if s["generator"] == "circulant" else m)
        out["pathgen.normals_drawn"] += normals
        out["pathgen.bytes_computed"] += 8 * (normals + paths * (m + 1))
        busy = per_grid.setdefault((s["generator"], m), [0.0, 0])
        busy[0] += s["end"] - s["start"]
        busy[1] += paths
    for (gen, m), (busy, paths) in per_grid.items():
        key = f"pathgen.generate_batch.us_per_path.{gen}.m{m}"
        if key in out:
            out[key] = 1e6 * busy / paths
    for name in ("schemes.riemann_sum", "schemes.simpson_error_decomposition"):
        if out[f"{name}.calls"]:
            out[f"{name}.us_per_call"] = 1e6 * out[f"{name}.busy_s"] / out[f"{name}.calls"]

    runs = by_name.get("experiments.run", [])
    out["experiments.self_s"] = sum(self_time(s, children.get(s["id"], [])) for s in runs)
    if out["experiments.run.busy_s"]:
        out["experiments.self_frac"] = out["experiments.self_s"] / out["experiments.run.busy_s"]
    for s in by_name.get("experiments.report_io", []):
        if "rows" in s:
            out["experiments.rows"] += s["rows"]
            out["experiments.csv_bytes"] += s["bytes"]
    return out


def end_to_end_metrics(groups: list[list[dict]]) -> dict:
    main = [g[0] for g in groups]
    single = [g[-1] for g in groups]  # small-paths: the same, single-threaded passes
    wall = statistics.median(p["wall_s"] for p in main)
    return {
        "wall_s": wall,
        "wall_1t_s": statistics.median(p["wall_s"] for p in single),
        "increments_per_s": main[0]["increments"] / wall,
        "setup_s": statistics.median(p["setup_s"] for g in groups for p in g),
        # from the threads = 1 passes: the pool's peak varies +-5 % with chunk interleaving
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in single) / 1024.0,
    }


def trace_metrics(groups: list[list[dict]], counts: dict | None) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced passes, plus count mismatches.

    The counts must repeat exactly in every traced pass and, when ``counts``
    is given, equal the stored ones.
    """
    per_pass = [layer_metrics(g[1]["spans"]) for g in groups]
    problems = []
    for key in REPEATED:
        seen = {m[key] for m in per_pass}
        want = counts.get(key) if counts else None
        if len(seen) != 1 or (want is not None and seen != {want}):
            problems.append(f"count {key}: {sorted(seen)}, reference {want}")
    if per_pass[0]["pathgen.increments"] != groups[0][1]["increments"]:
        problems.append("traced pathgen.increments differs from the workload's own count")
    out = {}
    for name in PER_LAYER:
        values = [m[name] for m in per_pass]
        ints = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        out[name] = statistics.median_low(values) if ints else statistics.median(values)
    untraced = statistics.median(g[0]["wall_s"] for g in groups)
    traced = statistics.median(g[1]["wall_s"] for g in groups)
    out["trace.overhead_s"] = traced - untraced
    return out, problems


# ---------------------------------------------------------------------------
# machine info and output
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them; empty when unavailable."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def machine_info(first_pass: dict, workload: str, seed: int) -> dict:
    return {
        **first_pass["machine"],
        "nproc": nproc(),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        **cache_sizes(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the result line plus everything written to results/."""
    if not (SRC / "fbmquad" / "__init__.py").is_file():
        raise BenchError(f"no fbmquad package under {SRC}")
    groups = run_groups(workload, seed, seconds, trace, tiny)
    passes = [p for g in groups for p in g]
    reference = None if tiny else load_reference(workload)
    shipped = reference["ops"] if seed == SHIPPED_SEED and reference else None
    attempted, failures = check_ops(passes, shipped)
    if trace:
        metrics, problems = trace_metrics(groups, reference and reference["counts"])
        names = PER_LAYER
    else:
        metrics, problems = end_to_end_metrics(groups), []
        names = END_TO_END
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": names[k]} for k in names},
    }
    return {
        "result": result,
        "machine": machine_info(passes[0], workload, seed),
        "failures": failures + problems,
        "passes": [
            {k: p[k] for k in ("threads", "traced", "setup_s", "wall_s", "peak_rss_kb")}
            for p in passes
        ],
        "spans": [
            dict(span, group=i) for i, g in enumerate(groups) for p in g if p["spans"] for span in p["spans"]
        ],
    }


def write_results(out: dict, workload: str, seed: int, trace: bool) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    summary = {k: out[k] for k in ("machine", "result", "failures", "passes")}
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n")
    if out["spans"]:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in out["spans"])


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_results(out, args.workload, args.seed, bool(args.trace))
    result = out["result"]
    for line in out["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"machine": out["machine"]}))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"ops_failed_frac {result['failed'] / result['attempted']!r} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
