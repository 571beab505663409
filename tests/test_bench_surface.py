"""The package surface that the benchmark in ``perfbench/`` calls and traces.

The tracer rebinds the names listed in its ``BOUNDARIES`` table; a name that
no longer resolves would break every traced benchmark run, so each one is
resolved here without installing the tracer, and the tiny clt-critical
operation is run with every binding wrapped, so that a layer the package no
longer calls through its binding shows as a missing span instead of a per-layer
metric that silently reads 0.  The benchmark also compares the
value names and verdict keys of every experiment report with those stored in
``perfbench/reference.json``, so each experiment operation of its workloads is
run here on small grids and its names are checked against the stored ones.
The small-paths operations, which reach the kernels through the single-path
functions, are run at their tiny size and must pass every gate.  The
clt-critical and rate-sweep workloads write out the configs of acceptance
criteria 4-6, so those must equal the files in ``configs/``.
"""

import dataclasses
import importlib
import importlib.util
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest

import fbmquad
from fbmquad import GeneratorKind, HurstGrid, Polynomial, generate
from oracle import CONFIG_DIR, acceptance_run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("tracer")
BOUNDARIES = TRACING.BOUNDARIES
WORKLOADS = _load("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _small_config(**kwargs):
    """The benchmark's config at M = 100 on as many grids as it has, from n = 16 up."""
    config = fbmquad.ExperimentConfig(**kwargs)
    n_values = tuple(2**k for k in range(4, 4 + len(config.n_values)))
    return dataclasses.replace(config, n_values=n_values, replications=100)


#: fbmquad as the workload builders see it, with every experiment made small.
SMALL = types.SimpleNamespace(**vars(fbmquad))
SMALL.ExperimentConfig = _small_config


@pytest.mark.parametrize(
    "binding", sorted(b for bindings in BOUNDARIES.values() for b in bindings)
)
def test_tracer_binding_resolves(binding):
    module_name, _, path = binding.partition(":")
    assert module_name == "fbmquad" or module_name.startswith("fbmquad.")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tiny_clt_records_a_span_per_layer(monkeypatch):
    # the tracer's own rebinding, through monkeypatch so that it is undone
    tracer = TRACING.Tracer()
    for name, bindings in BOUNDARIES.items():
        for binding in bindings:
            module_name, _, path = binding.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    ops, _ = WORKLOADS.BUILDERS["clt-critical"](fbmquad, 12, 1, True)
    for _, op in ops:
        op()
    names = [span["name"] for span in tracer.spans]
    # both exact targets on each of the three grids, and beta_r's sums once
    assert names.count("experiments.exact_targets") == 6
    assert names.count("constants.beta_terms") == 1
    assert {
        "experiments.run",
        "pathgen.replication_seeds",
        "pathgen.generate_batch",
        "stats",
        "experiments.report_io",
    } <= set(names)
    assert not [span for span in tracer.spans if span["error"]]


def test_simpson_decomposition_name_telescopes():
    path = generate(HurstGrid(0.1, 64), GeneratorKind.CIRCULANT_EMBEDDING, 7)
    f = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
    expected = f(float(path.values[-1])) - f(0.0)
    got = fbmquad.simpson_error_decomposition(path, f, 1.0).telescoped()
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("workload", ["clt-critical", "rate-sweep"])
def test_report_names_match_benchmark_reference(workload):
    ops, _ = WORKLOADS.BUILDERS[workload](SMALL, 12, 1, False)
    reference = REFERENCE[workload]["ops"]
    assert sorted(name for name, _ in ops) == sorted(reference)
    for name, op in ops:
        result = op()
        assert sorted(result["values"]) == sorted(reference[name]["values"]), name
        assert sorted(result["verdicts"]) == sorted(reference[name]["verdicts"]), name


def test_small_paths_operations_pass_their_gates():
    # the single-path schemes, samplers and identities of small-paths at its
    # tiny size; its verdicts are not asserted, the tiny KS check fails by design
    ops, _ = WORKLOADS.BUILDERS["small-paths"](fbmquad, 12, 1, True)
    for name, op in ops:
        assert all(op()["gates"].values()), name


def test_benchmark_configs_equal_the_config_files():
    # the files in the order the clt-critical and rate-sweep builders make
    # their configs, read as the benchmark runs them, at one thread
    stems = (
        "clt-simpson-H0.1",
        "rate-simpson-H0.2",
        "rate-milne-H0.15",
        "diverge-simpson-H0.05",
        "diverge-simpson-H0.2",
    )
    recorded = []

    def recording_config(**kwargs):
        recorded.append(fbmquad.ExperimentConfig(**kwargs))
        return recorded[-1]

    recording = types.SimpleNamespace(**vars(fbmquad))
    recording.ExperimentConfig = recording_config
    for workload in ("clt-critical", "rate-sweep"):
        WORKLOADS.BUILDERS[workload](recording, 12, 1, False)
    assert recorded == [acceptance_run(stem, "--threads", "1")[1] for stem in stems]
    assert sorted(path.name for path in CONFIG_DIR.iterdir()) == sorted(f"{s}.ini" for s in stems)
