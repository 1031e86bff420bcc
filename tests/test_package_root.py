"""The package root imports a module only when one of its names is first
used, so the commands that do not track start without scipy. Each check
runs in a fresh interpreter, since this process has imported every
module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mipmot

# The directory that holds this mipmot, put first on the child's path.
PACKAGE_DIR = Path(mipmot.__file__).resolve().parents[1]

PRINT_SCIPY = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"


def fresh(code: str):
    """The JSON value that ``code``, run in a fresh interpreter, prints on
    its last line."""
    path = [str(PACKAGE_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("statement", ["import mipmot", "import mipmot.cli"])
def test_import_loads_no_scipy(statement):
    assert fresh(f"{statement}\n{PRINT_SCIPY}") == []


def test_simulate_and_score_load_no_scipy():
    """Each template's labels, scored against themselves: every box
    matched, with no scipy module loaded."""
    code = f"""
from mipmot import evaluate_sequence, generate, scenario_template
from mipmot.cli import labels_to_frames
from mipmot.simgen import TEMPLATES

for name in TEMPLATES:
    labels, _ = generate(scenario_template(name, seed=0))
    frames = labels_to_frames(labels)
    report = evaluate_sequence(frames, frames)
    assert report.tp == len(labels) > 0 and report.mota == 1.0, (name, report)
{PRINT_SCIPY}
"""
    assert fresh(code) == []


def test_submodules_resolve_after_a_bare_import():
    """Submodules resolve through the root; a name that left the root,
    or was never in it, does not."""
    code = """
import mipmot

names = [mipmot.evaluation.__name__, mipmot.io_formats.__name__]
print(json.dumps(names + [hasattr(mipmot, "kf_predict"), hasattr(mipmot, "no_such_name")]))
"""
    assert fresh(code) == ["mipmot.evaluation", "mipmot.io_formats", False, False]


def test_star_import_binds_all():
    code = """
import mipmot

namespace = {}
exec("from mipmot import *", namespace)
print(json.dumps([sorted(set(namespace) - {"__builtins__"}), sorted(mipmot.__all__)]))
"""
    bound, names = fresh(code)
    assert bound == names and len(names) == len(set(names)) > 0
