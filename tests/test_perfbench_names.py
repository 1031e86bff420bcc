"""The benchmark looks program names up by string and reports a missing
one as a null metric, and it reads the tracker's state between steps.
These tests make a rename, or a change of that state, fail here instead."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from mipmot.simgen import generate, scenario_template
from mipmot.tracker import Tracker

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _spans() -> list[tuple[str, str]]:
    """(module, attribute) of every wrapped span and counted call in worker.py."""
    names = []
    for node in ast.walk(_tree("worker.py")):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            names += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_count"
        ):
            names.append((ast.literal_eval(node.args[0]), ast.literal_eval(node.args[1])))
    return names


def _imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from mipmot... import name`` in the harness."""
    names = []
    for script in ("worker.py", "probe.py"):
        for node in ast.walk(_tree(script)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mipmot"):
                names += [(node.module, alias.name) for alias in node.names]
    return names


def test_harness_names_found():
    assert len(_spans()) >= 13
    assert ("mipmot.tracker", "Tracker") in _imports()


@pytest.mark.parametrize("module, attr", _spans() + _imports())
def test_name_resolves(module, attr):
    target = importlib.import_module(module)
    assert hasattr(target, attr), f"{module}.{attr} is gone"


def test_properties_read_the_tracker(monkeypatch):
    """``Properties.on_step`` counts what it reads from the tracker."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    _, detections = generate(scenario_template("clutter", seed=0))
    tracker, props, alive = Tracker(), worker.Properties(), []
    for frame in range(max(detections) + 1):
        # as Run.track passes them: a frame without detections is []
        frame_dets = detections.get(frame, [])
        tracker.step(frame, frame_dets)
        props.on_step(frame, frame_dets, tracker)
        if frame >= worker.WARMUP_FRAMES:
            alive.append(len(tracker.ids))
    summary = props.summary()
    assert summary["tracks_alive"] == pytest.approx(np.mean(alive))
    assert summary["births_per_frame"] > 0 and summary["coasting_per_frame"] > 0
