"""Tracker configuration: one frozen set of keys, checked when built.

The same keys are the fields of ``TrackerConfig``, the keys of the JSON
config file and, for a few of them, command-line flags. Unknown keys
are rejected by name and every value is checked for type and range, so
a bad config fails before the first frame. The defaults are the field
defaults below.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

from .evaluation import DEFAULT_IOU_THRESHOLD
from .io_formats import is_real
from .motion import (
    DEFAULT_P0_DIAG,
    DEFAULT_Q_SCALE,
    DEFAULT_R_DIAG,
    MEAS_DIM,
    STATE_DIM,
)

ASSOCIATORS = ("mip", "hungarian")

_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")

# Each real-valued key: the test its value must pass, and how the error
# message states that test. NaN fails every test.
_REAL_KEYS = {
    "theta_cls": _UNIT,
    "default_start_prob": _UNIT,
    "default_end_prob": _UNIT,
    # infinity is allowed: alpha = 0, motion only
    "beta_over_alpha": (lambda v: v >= 0.0, "nonnegative"),
    "w_cls": _POSITIVE,
    "w_aff": _POSITIVE,
    "w_se": _POSITIVE,
    "ha_gate": (math.isfinite, "finite or null"),
    "confidence_smoothing": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "eval_iou_threshold": _UNIT,
    "kalman_q_scale": (lambda v: 0.0 <= v < math.inf, "nonnegative and finite"),
}


@dataclass(frozen=True)
class TrackerConfig:
    """Every setting of the tracker, of result writing and of sweep scoring."""

    theta_cls: float = 0.85  # detection confidence filter
    theta_hit: int = 0  # matches needed beyond one to confirm a tentative track
    theta_miss: int = 2  # consecutive misses tolerated before deletion
    default_start_prob: float = 0.5  # start probability when absent from input
    default_end_prob: float = 0.5  # end probability of every track
    beta_over_alpha: float = 10.0  # motion-over-appearance fusion ratio
    use_dis: bool = True  # normalized-distance motion term
    use_iou: bool = True  # 3D IoU motion term
    w_cls: float = 100.0  # selection penalty weight
    w_aff: float = 22.0  # match reward weight
    w_se: float = 1.0  # start/end reward weight
    associator: str = "mip"  # "mip" or "hungarian"
    ha_gate: Optional[float] = None  # affinity gate of the Hungarian baseline
    # 0 carries the last associated detection confidence; > 0 blends it
    # with the track's previous confidence (exponential smoothing).
    confidence_smoothing: float = 0.0
    eval_iou_threshold: float = DEFAULT_IOU_THRESHOLD  # `sweep` scoring only
    object_type: str = "Car"  # class written to result files
    kalman_p0_diag: tuple[float, ...] = DEFAULT_P0_DIAG  # initial covariance
    kalman_r_diag: tuple[float, ...] = DEFAULT_R_DIAG  # measurement covariance
    kalman_q_scale: float = DEFAULT_Q_SCALE  # process covariance, times identity

    def __post_init__(self):
        for name, (test, text) in _REAL_KEYS.items():
            value = getattr(self, name)
            if name == "ha_gate" and value is None:
                continue
            if not is_real(value) or not test(value):
                raise ValueError(f"{name} must be a number {text}, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("theta_hit", "theta_miss"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("use_dis", "use_iou"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not (self.use_dis or self.use_iou):
            raise ValueError("use_dis and use_iou cannot both be false")
        if self.associator not in ASSOCIATORS:
            raise ValueError(f"associator must be one of {ASSOCIATORS}, got {self.associator!r}")
        # KITTI result files are whitespace-separated
        if not isinstance(self.object_type, str) or len(self.object_type.split()) != 1:
            raise ValueError(f"object_type must be one word, got {self.object_type!r}")
        # P0 and Q may be singular; a positive R keeps the innovation
        # covariance invertible.
        self._check_diagonal("kalman_p0_diag", STATE_DIM, lambda v: v >= 0.0, "nonnegative")
        self._check_diagonal("kalman_r_diag", MEAS_DIM, lambda v: v > 0.0, "positive")

    def _check_diagonal(self, name: str, size: int, test, text: str) -> None:
        value = getattr(self, name)
        if isinstance(value, (str, bytes)) or not hasattr(value, "__len__") or len(value) != size:
            raise ValueError(f"{name} must be a list of {size} numbers, got {value!r}")
        if not all(is_real(v) and math.isfinite(v) and test(v) for v in value):
            raise ValueError(f"{name} entries must be finite and {text}, got {value!r}")
        object.__setattr__(self, name, tuple(float(v) for v in value))

    @classmethod
    def _check_keys(cls, keys) -> None:
        unknown = set(keys) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, data: dict) -> "TrackerConfig":
        cls._check_keys(data)
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "TrackerConfig":
        with open(os.fspath(path), "r", encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as f:
            json.dump(dataclasses.asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")

    def override(self, **changes) -> "TrackerConfig":
        """New config with the given fields replaced; None is a value
        (it clears ``ha_gate``) and is checked like any other."""
        self._check_keys(changes)
        return dataclasses.replace(self, **changes)
