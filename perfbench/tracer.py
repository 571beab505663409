"""Boundary tracer: times the calls between fbmquad modules from outside the package.

``install`` rebinds the module attributes through which one fbmquad module
calls another, and the package names the workloads call, to wrappers that
record one span per call.  No file of fbmquad changes, and a pass that never
calls ``install`` runs the package untouched.

A span is (id, name, start, end, parent, thread) plus ``error`` and a few
counts read from the call's arguments and result.  Spans stay in memory; the
caller writes them out once.  Parents come from a per-thread stack, so spans
nest correctly only within one thread: traced passes run with threads = 1.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

#: Span name -> bindings ``module:attribute[.attribute]`` rebound to one wrapper each.
#: ``pathgen.circulant_eigenvalues`` is reached through pathgen's own module
#: global, from the cached square-root spectrum; every other binding is the
#: name one module imported from another, or the package name a workload calls.
BOUNDARIES = {
    "pathgen.replication_seeds": (
        "fbmquad.experiments:replication_seeds",
        "fbmquad:replication_seeds",
    ),
    "pathgen.generate_batch": ("fbmquad.experiments:generate_batch", "fbmquad:generate_batch"),
    "pathgen.circulant_eigenvalues": ("fbmquad.pathgen:circulant_eigenvalues",),
    "covariance.fgn_autocov": ("fbmquad.pathgen:fgn_autocov",),
    "covariance.increment_gram": ("fbmquad.pathgen:increment_gram", "fbmquad:increment_gram"),
    "schemes.riemann_sum": ("fbmquad:riemann_sum",),
    "schemes.simpson_error_decomposition": ("fbmquad:simpson_error_decomposition",),
    "experiments.run": (
        "fbmquad:run_clt_experiment",
        "fbmquad:run_rate_experiment",
        "fbmquad:run_divergence_probe",
    ),
    "experiments.exact_targets": (
        "fbmquad.experiments:predicted_error_variance",
        "fbmquad.experiments:partial_interval_second_moment",
    ),
    "experiments.report_io": (
        "fbmquad.experiments:ExperimentReport.to_json",
        "fbmquad.experiments:ExperimentReport.csv_text",
    ),
    "stats": (
        "fbmquad.experiments:summarize",
        "fbmquad.experiments:ks_test_normal",
        "fbmquad.experiments:correlation",
        "fbmquad.experiments:fit_loglog_slope",
    ),
    "constants.beta_terms": ("fbmquad.experiments:beta_terms",),
    "hermite.power_to_hermite": (
        "fbmquad.experiments:power_to_hermite",
        "fbmquad:power_to_hermite",
    ),
}


def _batch_counts(fn, args, kwargs, result) -> dict:
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    paths, points = result.shape
    return {"generator": kind.value, "m": points - 1, "paths": paths}


def _seed_counts(fn, args, kwargs, result) -> dict:
    return {"stop": int(kwargs["stop"] if "stop" in kwargs else args[2])}


def _text_counts(fn, args, kwargs, result) -> dict:
    counts = {"bytes": len(result.encode("utf-8"))}
    if fn.__name__ == "csv_text":  # one header line, then one line per row
        counts["rows"] = result.count("\n") - 1
    return counts


_COUNTS = {
    "pathgen.generate_batch": _batch_counts,
    "pathgen.replication_seeds": _seed_counts,
    "experiments.report_io": _text_counts,
}


class Tracer:
    """In-memory span recorder; ``wrap`` turns a function into a traced one."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(),
                "error": None,
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(fn, args, kwargs, result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind every binding in BOUNDARIES to a wrapper recording into ``tracer``."""
    for name, bindings in BOUNDARIES.items():
        for binding in bindings:
            module_name, _, path = binding.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
