"""``scripts/calibrate.py``, which pytest does not collect, runs every file of ``configs/``.

The script runs for minutes, so this test stops each file's run at its first
path: ``experiments.generate_batch`` raises a sentinel.  A file that reaches
it passed every check a run makes before sampling, so a change to a
precondition, or a config file the script does not run, cannot silently
break the script.
"""

import importlib.util
from pathlib import Path

import pytest

from fbmquad import experiments
from oracle import CONFIG_DIR

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate.py"


class FirstPath(Exception):
    """Raised in place of the first sampled batch."""


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALIBRATE = _load_script()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda path: path.stem)
def test_config_reaches_its_first_path(path, monkeypatch):
    def first_path(*args):
        raise FirstPath

    monkeypatch.setattr(experiments, "generate_batch", first_path)
    assert path in CALIBRATE.CONFIGS
    assert CALIBRATE.SEEDS[0] == 100
    with pytest.raises(FirstPath):
        CALIBRATE.pass_counts(path)
