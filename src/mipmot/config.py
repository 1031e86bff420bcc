"""Tracker configuration: one frozen set of keys, checked when built.

The same keys are the fields of ``TrackerConfig``, the keys of the JSON
config file and, for a few of them, command-line flags. Unknown keys
are rejected by name and every value is checked for type and range, so
a bad config fails before the first frame. The defaults are the field
defaults below.

The field checker is shared with ``simgen.ScenarioConfig`` and
``simgen.ObjectSpec``: each type declares one rule per field (``real``,
``reals`` or ``rule``) and ``check_fields`` runs them. A real-valued
field takes a number that fits a float and passes the field's range
test. ``from_json`` builds any of the three from a JSON object, with
unknown and missing keys rejected by name, and ``load_json`` from a
JSON file. ``read_json``, behind ``load_json`` and the sweep grid, fails
at the file and line of a syntax error or a byte that is not UTF-8, and
names a key given twice or nesting too deep. The rule of
``eval_iou_threshold``, ``UNIT``, and its default are also those of
``evaluation``'s ``iou_threshold``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from .io_formats import FormatError, is_integer, is_real
from .motion import MEAS_DIM, STATE_DIM

ASSOCIATORS = ("mip", "hungarian")

DEFAULT_IOU_THRESHOLD = 0.5  # of CLEARMOT matching


def rule(text: str, accept, convert=None):
    """A field rule, ``(name, value) -> value``: the value must pass
    ``accept``, else the error reads ``<name> must be <text>, got
    <value>``; it is given back through ``convert``, if given."""

    def check(name, value):
        if not accept(value):
            raise ValueError(f"{name} must be {text}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def nullable(check):
    """The field rule ``check`` that also takes None."""
    return lambda name, value: None if value is None else check(name, value)


def _float(value) -> float | None:
    """A real number as a float; None for any other value and for an
    integer too large for a float."""
    try:
        return float(value) if is_real(value) else None
    except OverflowError:
        return None


def real(*tests):
    """A field rule for a real number that fits a float, given back as
    one. ``tests`` are ``(test, text)`` pairs run in order on the float;
    the text of the first that fails, or of the first pair for any other
    value, makes the error ``<name> must be <text>, got <value>``."""

    def check(name, value):
        number = _float(value)
        for test, text in tests:
            if number is None or not test(number):
                raise ValueError(f"{name} must be {text}, got {value!r}")
        return number

    return check


def reals(size: int, test, text: str):
    """A field rule for a list of ``size`` finite real numbers that pass
    ``test``, given back as a tuple of floats."""

    def check(name, value):
        if isinstance(value, (str, bytes)) or not hasattr(value, "__len__") or len(value) != size:
            raise ValueError(f"{name} must be a list of {size} numbers, got {value!r}")
        numbers = [_float(v) for v in value]
        if not all(v is not None and math.isfinite(v) and test(v) for v in numbers):
            raise ValueError(f"{name} entries must be finite and {text}, got {value!r}")
        return tuple(numbers)

    return check


COUNT = rule("a nonnegative integer", lambda v: is_integer(v) and v >= 0, int)
# KITTI files are whitespace-separated
WORD = rule("one word", lambda v: isinstance(v, str) and len(v.split()) == 1)


def check_fields(obj, rules: dict) -> dict:
    """``{name: value}`` of each field of ``obj`` that ``rules`` names,
    as its rule gives the value back. The first field that fails its
    rule raises a ValueError that names it."""
    return {name: check(name, getattr(obj, name)) for name, check in rules.items()}


def from_json(cls, data, what: str):
    """``cls(**data)`` for a dataclass ``cls``, when ``data`` is a JSON
    object that holds every field without a default and no other key;
    ``what`` names the object in the errors."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"{what} has unknown keys: {sorted(unknown)}")
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    if not set(required) <= set(data):
        optional = ", ".join(f.name for f in fields if f.name not in required)
        raise ValueError(
            f"{what} must hold {', '.join(required)} and optionally {optional}, got {data!r}"
        )
    return cls(**data)


def read_json(path):
    """The JSON value of the file at ``path``. A byte that is not UTF-8
    and a syntax error fail with a FormatError that names the file and
    the line; a key given twice in one object, and nesting too deep for
    the parser, name the file and the fault."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8: byte {data[e.start]:#04x}") from None

    def once(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise FormatError(f"{path}: key {key!r} is given twice")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=once)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}: bad JSON: {e.msg}") from None
    except RecursionError:
        raise FormatError(f"{path}: bad JSON: nested too deeply") from None


def load_json(cls, path, what: str):
    """``from_json`` of the JSON file at ``path`` (see ``read_json``)."""
    return from_json(cls, read_json(path), what)


UNIT = real((lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"))
_POSITIVE = real((lambda v: 0.0 < v < math.inf, "a number positive and finite"))

# The rule of each key. NaN fails every test of a real.
_RULES = {
    **dict.fromkeys(("theta_cls", "default_start_prob", "default_end_prob"), UNIT),
    **dict.fromkeys(("theta_hit", "theta_miss"), COUNT),
    # infinity is allowed: alpha = 0, motion only
    "beta_over_alpha": real((lambda v: v >= 0.0, "a number nonnegative")),
    **dict.fromkeys(("use_dis", "use_iou"), rule("true or false", lambda v: isinstance(v, bool))),
    **dict.fromkeys(("w_cls", "w_aff", "w_se"), _POSITIVE),
    "associator": rule(f"one of {ASSOCIATORS}", lambda v: v in ASSOCIATORS),
    "ha_gate": nullable(real((math.isfinite, "a number finite or null"))),
    "confidence_smoothing": real((lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")),
    "eval_iou_threshold": UNIT,
    "object_type": WORD,
    # P0 and Q may be singular; a positive R keeps the innovation
    # covariance invertible.
    "kalman_p0_diag": reals(STATE_DIM, lambda v: v >= 0.0, "nonnegative"),
    "kalman_r_diag": reals(MEAS_DIM, lambda v: v > 0.0, "positive"),
    "kalman_q_scale": real((lambda v: 0.0 <= v < math.inf, "a number nonnegative and finite")),
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
    eval_iou_threshold: float = DEFAULT_IOU_THRESHOLD  # `sweep` and `eval` scoring
    object_type: str = "Car"  # class written to result files
    # Initial covariance diagonal over (x, y, z, l, w, h, a, vx, vy, vz).
    # The velocity variance is large: the initial velocity is unknown.
    kalman_p0_diag: tuple[float, ...] = (1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 10.0, 10.0, 10.0)
    # Measurement covariance diagonal over (x, y, z, l, w, h, a).
    kalman_r_diag: tuple[float, ...] = (0.5, 0.5, 0.5, 0.05, 0.05, 0.05, 0.05)
    kalman_q_scale: float = 0.01  # process covariance, times identity

    def __post_init__(self):
        for name, value in check_fields(self, _RULES).items():
            object.__setattr__(self, name, value)
        if not (self.use_dis or self.use_iou):
            raise ValueError("use_dis and use_iou cannot both be false")

    @classmethod
    def from_dict(cls, data: dict) -> "TrackerConfig":
        return from_json(cls, data, "config")

    @classmethod
    def from_file(cls, path) -> "TrackerConfig":
        return load_json(cls, path, "config file")

    def save(self, path) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as f:
            json.dump(dataclasses.asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")

    def override(self, **changes) -> "TrackerConfig":
        """New config with the given fields replaced; None is a value
        (it clears ``ha_gate``) and is checked like any other."""
        return self.from_dict({**dataclasses.asdict(self), **changes})
