"""Golden bytes: pinned SHA-256 digests of reports, CSVs and sampled paths.

The path digests were recorded before the stream layer was rewritten
(closed-form seed windows, vectorized Philox keys, one re-keyed bit generator
per batch) and still hold after the circulant spectrum moved to batch
assembly.  ``clt-H0.1`` was re-recorded when the error statistic began to
form dB^5 by multiplication instead of ``pow``, which moves the statistic in
its last bits.  All six report digests were re-recorded when a report's
``config`` block took the config-file keys (then ``n``, ``M``, ``seed``,
``tol``, without ``threads``) and gained a ``thresholds`` block after it; with
those two blocks removed, every report and CSV kept its bytes.  They were
re-recorded again when the kappa tolerance became the package constant
``constants.DEFAULT_TOL`` instead of the config key ``tol``, which drops the
``"tol"`` line of the ``config`` block; with that line removed, every report
and CSV kept its bytes.  They were re-recorded once more when experiments
began to sample by circulant embedding only, which drops the ``"generator"``
line of the ``config`` block, and when the clt began to refuse an f with
f^(5) = 0 instead of passing it, which drops the ``"degenerate"`` field of
every clt results entry; with those removed, every report and CSV kept its
bytes.  The two rate digests were re-recorded when the rate experiment began
to refuse an f with f^(r) = 0, which drops the ``"exact"`` field of its
``fit`` block; with that line removed, both reports and CSVs kept their
bytes.  The digests pin every output bit, so any change to
how seeds, streams, paths or statistics are produced shows up here.  A digest
may only change together with a CHANGES.md entry that says which outputs moved
and why.  They are pinned on numpy 2.x.  Two report digests are also checked
with one row per work item, since rows are independent of how replications
are cut.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from fbmquad import (
    ExperimentConfig,
    GeneratorKind,
    HurstGrid,
    Polynomial,
    SchemeKind,
    experiments,
    generate,
    generate_batch,
    replication_seeds,
    run_clt_experiment,
    run_divergence_probe,
    run_rate_experiment,
)

CIRC = GeneratorKind.CIRCULANT_EMBEDDING
CHOL = GeneratorKind.CHOLESKY_EXACT
QUINTIC = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])

#: Small versions of acceptance criteria 4 (clt), 5 (rate) and 6 (divergence),
#: each with the digest of its JSON report and CSV at M = 300, seed 12.
REPORTS = {
    "clt-H0.1": (
        run_clt_experiment,
        dict(H=0.1, n_values=(64, 128, 256), f=QUINTIC),
        "e5bfc13d5ef121b57f35a78e9a8aa731eeba2ea0970bc7e8d09e260688cf8675",
    ),
    "rate-simpson-H0.2": (
        run_rate_experiment,
        dict(H=0.2, n_values=(32, 64, 128, 256), f=QUINTIC),
        "9b4eb52b2eebfe642469bd7c91c6fb54941a5a8092cce6eb50941a20740ee3b0",
    ),
    "rate-milne-H0.15": (
        run_rate_experiment,
        dict(
            H=0.15,
            n_values=(64, 128, 256),
            scheme=SchemeKind.MILNE,
            f=Polynomial([0] * 7 + [Fraction(1, 5040)]),
        ),
        "519717973bc71e978f49b5ce79047559d361bfab531f486eaf162f9f587cf18a",
    ),
    "diverge-H0.05": (
        run_divergence_probe,
        dict(H=0.05, n_values=(64, 128, 256), f=QUINTIC),
        "f3a849675fbbea4b42ffb4e56ad8b44561f0c26eeaba4d4dde759110fc0e9c0e",
    ),
    "diverge-H0.1": (
        run_divergence_probe,
        dict(H=0.1, n_values=(64, 128, 256), f=QUINTIC),
        "5aa5e759f47ba36536721ed3d4675e06cc3a7b48eb52cb7c769ae1afa1b71faa",
    ),
    "diverge-H0.2": (
        run_divergence_probe,
        dict(H=0.2, n_values=(64, 128, 256), f=QUINTIC),
        "dbd6cebb5fbae0f73252790d3af817db616ff5ae64d2ac3e6a09699a4ca5152f",
    ),
}

#: Seed window far from the start of the master expansion, as the benchmark uses.
FAR = (10**7, 10**7 + 500)

ARRAYS = {
    "seeds-far": "1a6df5229e62d6628a1bc176d2d567d19ae63687b8c60623a78036023842a004",
    "cholesky-far": "47f190dc432a81c65fa5a4f8b518e56c67ea2da7f7b5db7415bcbe3fac0a4d7b",
    "circulant-far": "73389bb2313d556ce7b27dde7ed317691ae6000fdf7287ba3cae9322534ce655",
    "circulant-seed42": "45cdbb5d2400e6e6d6474400c70fa8d6b999e7e32064b8391bfb4a348c68ef1a",
    "cholesky-seed2^100": "ab70f38a0198c31539a3b2a95d61575d55d7559004fb4bf13286a61afe3f8c36",
}


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def report_digest(name: str, threads: int) -> str:
    runner, kwargs, _ = REPORTS[name]
    config = ExperimentConfig(**kwargs, replications=300, master_seed=12, threads=threads)
    report = runner(config)
    return _digest(report.to_json().encode(), report.csv_text().encode())


def _array_bytes(values: np.ndarray) -> bytes:
    dtype = "<u8" if values.dtype.kind == "u" else "<f8"
    return f"{values.shape}".encode() + np.ascontiguousarray(values, dtype=dtype).tobytes()


def array_digest(name: str) -> str:
    grid = HurstGrid(0.1, 64)
    if name == "seeds-far":
        values = replication_seeds(12, *FAR)
    elif name == "cholesky-far":
        values = generate_batch(grid, CHOL, replication_seeds(12, *FAR))
    elif name == "circulant-far":
        values = generate_batch(grid, CIRC, replication_seeds(12, *FAR))
    elif name == "circulant-seed42":
        values = generate(HurstGrid(0.1, 256), CIRC, 42).values
    else:
        values = generate(HurstGrid(0.3, 100, T=0.75), CHOL, 2**100 + 7).values
    return _digest(_array_bytes(values))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name, threads):
    assert report_digest(name, threads) == REPORTS[name][2]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["clt-H0.1", "rate-milne-H0.15"])
def test_report_bytes_with_one_row_per_work_item(name, threads, monkeypatch):
    monkeypatch.setattr(experiments, "_CHUNK", 1)
    assert report_digest(name, threads) == REPORTS[name][2]


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_array_bytes(name):
    assert array_digest(name) == ARRAYS[name]


if __name__ == "__main__":  # print the current digests: python tests/test_golden.py
    for name in sorted(REPORTS):
        print(name, report_digest(name, 1), report_digest(name, 2))
    for name in sorted(ARRAYS):
        print(name, array_digest(name))
