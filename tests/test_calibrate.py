"""``scripts/calibrate.py``, which pytest does not collect: every config passes its preconditions.

The script runs for minutes, so this test stops each config at its first
path: ``experiments.generate_batch`` raises a sentinel.  A config that reaches
it passed every check a run makes before sampling, so a change to a
precondition cannot silently break the script.
"""

import importlib.util
from pathlib import Path

import pytest

from fbmquad import experiments

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate.py"


class FirstPath(Exception):
    """Raised in place of the first sampled batch."""


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALIBRATE = _load_script()


@pytest.mark.parametrize("label", list(CALIBRATE.CONFIGS))
def test_config_reaches_its_first_path(label, monkeypatch):
    def first_path(*args):
        raise FirstPath

    monkeypatch.setattr(experiments, "generate_batch", first_path)
    runner, settings = CALIBRATE.CONFIGS[label]
    assert CALIBRATE.SEEDS[0] == 100
    with pytest.raises(FirstPath):
        CALIBRATE.pass_counts(runner, settings)
