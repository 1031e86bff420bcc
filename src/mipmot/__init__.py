"""Online 3D multi-object tracking with DIoU affinities and exact MIP
data association.

The package root holds what reading or simulating, tracking and scoring
take from Python. Each of its names, and each submodule, is imported on
first access (PEP 562), so a command loads only the modules it runs.
The stages (``kf_predict``, ``compute_affinities``, ``solve_mip`` and
the rest) are imported from their own modules.
"""

import importlib

__version__ = "0.1.0"

# Each name of the root and the submodule that defines it.
_EXPORTS = {
    "DetectionBatch": "io_formats",
    "FrameResult": "tracker",
    "MotReport": "evaluation",
    "ScenarioConfig": "simgen",
    "Tracker": "tracker",
    "TrackerConfig": "config",
    "aggregate_reports": "evaluation",
    "evaluate_sequence": "evaluation",
    "generate": "simgen",
    "run_sequence": "tracker",
    "scenario_template": "simgen",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """A root name from its submodule, or a submodule by its name."""
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as error:
        if error.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
