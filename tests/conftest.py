"""Fixtures shared by the test modules: the benchmark's workloads."""

import importlib.util
import sys
from pathlib import Path

import pytest

from mipmot import io_formats

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
WORKLOAD_NAMES = ["kitti-20", "sparse-300", "dense-clutter"]


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, imported from its file."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.fixture(scope="session")
def workload_detections(workloads, tmp_path_factory):
    """``load(name, seed)``: a workload's ``{frame: DetectionBatch}``,
    written to its file and read back, as the benchmark tracks it."""
    cache = {}

    def load(name, seed):
        if (name, seed) not in cache:
            out = tmp_path_factory.mktemp(name)
            workloads.generate_files(workloads.WORKLOADS[name], seed, out)
            cache[name, seed] = io_formats.read_detections(out / "seq.dets.txt")
        return cache[name, seed]

    return load
