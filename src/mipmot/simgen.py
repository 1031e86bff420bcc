"""Deterministic synthetic scenarios: ground truth plus corrupted detections.

Objects follow constant-velocity (optionally turning) trajectories;
detections are the true boxes with Gaussian position noise, dropped
inside per-object occlusion windows, mixed with Poisson-count false
positives carrying low confidences. Embeddings are drawn around one
mean vector per identity (or per group, to model lookalike objects).

``generate`` gives the data in the forms the readers give: the labels
as one table, as ``io_formats.read_kitti_labels`` gives it, and the
detections as ``{frame: DetectionBatch}``, as
``io_formats.read_detections`` gives them. It builds one batch per frame
and no object per detection.

All randomness comes from an explicitly specified generator so the
same config reproduces byte-identical files anywhere; see SplitMix64.

``ScenarioConfig`` and ``ObjectSpec`` are checked when built by the
field checker of ``config`` (``check_fields``), with the rules declared
below, and a scenario file and its ``objects`` load through
``config.from_json``. Only the reach of what is generated has checks
of its own here: the objects' paths, the detections' noise around them
and the false positives' spread must stay within the box coordinate
limit of ``io_formats``' row rules (1e100 in magnitude), as the box
extents must by their field rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import COUNT, WORD, check_fields, from_json, nullable, real, rule
from .geometry import wrap_angle
from .io_formats import _BOX_LIMIT, DetectionBatch, is_integer, object_table

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 sequence generator.

    State advances by the 64-bit odd constant 0x9E3779B97F4A7C15; each
    output is the new state mixed by xor-shift-multiply:

        z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27; z *= 0x94D049BB133111EB
        z ^= z >> 31

    (all arithmetic mod 2^64). Floats take the top 53 bits of an
    output, normals use the Box-Muller transform on two floats, and
    Poisson counts use Knuth's product-of-uniforms method.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = ((self.next_u64() >> 11) + 1) * (1.0 / (1 << 53))  # (0, 1]
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z

    def poisson(self, lam: float) -> int:
        if lam <= 0.0:
            return 0
        limit = math.exp(-lam)
        k, p = 0, 1.0
        while True:
            p *= self.random()
            if p <= limit:
                return k
            k += 1


@dataclass
class ObjectSpec:
    """Explicit initial conditions for one simulated object."""

    x: float
    y: float
    vx: float
    vy: float
    group: int | None = None  # objects in one group share an embedding mean

    def __post_init__(self):
        check_fields(self, _OBJECT_RULES)


# The largest magnitude of a standard normal draw: the Box-Muller radius
# sqrt(-2 ln u1) with u1 >= 2**-53 is at most 8.5717.
_NORMAL_REACH = 8.58

_FINITE = (math.isfinite, "a finite number")
_REAL = real(_FINITE)
_OBJECT_RULES = {
    **dict.fromkeys(("x", "y", "vx", "vy"), _REAL),
    "group": nullable(rule("an integer or null", is_integer)),
}
# The rule of each scenario key but the objects. The values are
# checked, not converted: the scenario holds them as given.
_RULES = {
    **dict.fromkeys(("num_objects", "num_frames", "embedding_dim"), COUNT),
    "seed": rule("an integer", is_integer),
    **dict.fromkeys(("extent", "speed_min", "speed_max", "turn_rate", "fp_near_sigma"), _REAL),
    **dict.fromkeys(("tp_score_mean", "fp_score_low", "fp_score_high"), _REAL),
    # a box extent keeps the row rules' limit
    **dict.fromkeys(
        ("box_l", "box_w", "box_h"),
        real(_FINITE, (lambda v: 0.0 <= v <= _BOX_LIMIT, f"in [0, {_BOX_LIMIT!r}]")),
    ),
    # rates and spreads cannot be negative
    **dict.fromkeys(
        ("fp_rate", "pos_noise", "tp_score_sigma", "embedding_noise"),
        real(_FINITE, (lambda v: v >= 0.0, "nonnegative")),
    ),
    "object_type": WORD,
    "occlusions": rule(
        "a list of [object, start_frame, num_frames] integers",
        lambda v: isinstance(v, (list, tuple))
        and all(isinstance(o, (list, tuple)) and len(o) == 3 for o in v)
        and all(is_integer(i) for o in v for i in o),
    ),
}


@dataclass
class ScenarioConfig:
    num_objects: int = 10
    num_frames: int = 100
    extent: float = 80.0  # world square is [-extent/2, extent/2]^2
    speed_min: float = 0.3  # meters per frame
    speed_max: float = 1.0
    turn_rate: float = 0.0  # radians per frame applied to every velocity
    # (object_index, start_frame, num_frames): detections dropped inside.
    occlusions: list[tuple[int, int, int]] = field(default_factory=list)
    fp_rate: float = 0.0  # expected false positives per frame
    # 0 scatters false positives uniformly; > 0 drops them around a
    # random object with this sigma (ghost / double detections).
    fp_near_sigma: float = 0.0
    pos_noise: float = 0.0  # detection position sigma, meters
    tp_score_mean: float = 1.0
    tp_score_sigma: float = 0.0
    fp_score_low: float = 0.3
    fp_score_high: float = 0.6
    embedding_dim: int = 0  # 0 disables embeddings
    embedding_noise: float = 0.1
    box_l: float = 4.0
    box_w: float = 1.8
    box_h: float = 1.5
    object_type: str = "Car"
    # Overrides random placement when given; num_objects then follows it.
    objects: list[ObjectSpec] | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, _RULES)
        if self.objects is not None:
            if not isinstance(self.objects, (list, tuple)):
                raise ValueError(f"scenario objects must be a list, got {self.objects!r}")
            self.objects = [
                o if isinstance(o, ObjectSpec) else from_json(ObjectSpec, o, f"scenario object {k}")
                for k, o in enumerate(self.objects)
            ]
            self.num_objects = len(self.objects)
        self._check_reach()
        self.occlusions = [tuple(o) for o in self.occlusions]

    def _check_reach(self):
        """Every generated box coordinate stays within the magnitude the
        row rules allow. An object moves by its speed every frame, from
        within 0.4 * extent when drawn from the speed range; a detection
        lies within _NORMAL_REACH * pos_noise of its object (and its z of
        box_h / 2), and a false positive within 0.5 * extent of the
        origin, or within _NORMAL_REACH * fp_near_sigma of an object."""
        frames = min(self.num_frames, sys.float_info.max)
        reach = 0.0  # how far an object's path gets from the origin
        if self.objects is None:
            low, high = float(self.speed_min), float(self.speed_max)
            if not math.isfinite(high - low):
                raise ValueError(
                    f"speed_max - speed_min must be a finite number, got speed_min {low!r} "
                    f"and speed_max {high!r}"
                )
            reach = 0.4 * abs(float(self.extent)) + max(abs(low), abs(high)) * frames
            beyond = _beyond(reach)
            if beyond:
                raise ValueError(
                    f"speed_min {low!r} and speed_max {high!r} move an object beyond {beyond} "
                    f"in {self.num_frames} frames"
                )
        for k, spec in enumerate(self.objects or ()):
            start = max(abs(float(spec.x)), abs(float(spec.y)))
            path = start + math.hypot(spec.vx, spec.vy) * frames
            beyond = _beyond(path)
            if beyond:
                raise ValueError(
                    f"object {k}: vx {spec.vx!r} and vy {spec.vy!r} move it from x {spec.x!r}, "
                    f"y {spec.y!r} beyond {beyond} in {self.num_frames} frames"
                )
            reach = max(reach, path)
        z = 0.5 * float(self.box_h)  # a detection's height before its noise
        beyond = _beyond(max(reach, z) + _NORMAL_REACH * float(self.pos_noise))
        if beyond:
            raise ValueError(f"pos_noise {self.pos_noise!r} moves a detection beyond {beyond}")
        if self.fp_rate > 0.0:
            if self.fp_near_sigma > 0.0 and self.num_objects:
                name, spread = "fp_near_sigma", reach + _NORMAL_REACH * float(self.fp_near_sigma)
            else:
                name, spread = "extent", 0.5 * abs(float(self.extent))
            beyond = _beyond(spread)
            if beyond:
                raise ValueError(
                    f"{name} {getattr(self, name)!r} puts a false positive beyond {beyond}"
                )


def _beyond(reach: float) -> str | None:
    """What a path that reaches ``reach`` from the origin goes beyond: the
    float range, or the box coordinate limit of the row rules; None when
    it stays within both."""
    if not math.isfinite(reach):
        return "the float range"
    return f"{_BOX_LIMIT!r} in magnitude" if reach > _BOX_LIMIT else None


def _clip01(v: float) -> float:
    return min(1.0, max(0.0, v))


def _occluded(cfg: ScenarioConfig, obj: int, frame: int) -> bool:
    for index, start, length in cfg.occlusions:
        if index == obj and start <= frame < start + length:
            return True
    return False


def generate(cfg: ScenarioConfig) -> tuple[np.recarray, dict[int, DetectionBatch]]:
    """Produce ground-truth labels and detections for a scenario.

    The labels are one table, as ``io_formats.read_kitti_labels`` gives
    it: frame, type, id (the object's index), box and a NaN score. The
    detections are ``{frame: DetectionBatch}``, as
    ``io_formats.read_detections`` gives them: ascending frames, only
    the frames with detections, the objects' detections in object order
    and then the false positives.
    """
    rng = SplitMix64(cfg.seed)
    half = 0.4 * cfg.extent  # spawn inside 80% of the world
    z0 = 0.5 * cfg.box_h

    if cfg.objects is not None:
        specs = list(cfg.objects)
    else:
        specs = []
        for _ in range(cfg.num_objects):
            x = rng.uniform(-half, half)
            y = rng.uniform(-half, half)
            speed = rng.uniform(cfg.speed_min, cfg.speed_max)
            angle = rng.uniform(-math.pi, math.pi)
            specs.append(
                ObjectSpec(x=x, y=y, vx=speed * math.cos(angle), vy=speed * math.sin(angle))
            )

    means: list[np.ndarray] = []
    if cfg.embedding_dim > 0:
        group_means: dict[int, np.ndarray] = {}
        for i, spec in enumerate(specs):
            key = spec.group if spec.group is not None else -(i + 1)
            if key not in group_means:
                group_means[key] = np.array(
                    [rng.normal() for _ in range(cfg.embedding_dim)]
                )
            means.append(group_means[key])

    # Per-object pose advanced frame by frame; turn_rate bends every path.
    states = [
        [spec.x, spec.y, math.hypot(spec.vx, spec.vy), math.atan2(spec.vy, spec.vx)]
        for spec in specs
    ]

    label_boxes: list[tuple] = []  # every object in every frame, frame by frame
    detections: dict[int, DetectionBatch] = {}
    for frame in range(cfg.num_frames):
        boxes, scores, embeddings = [], [], []
        for i, state in enumerate(states):
            x, y, speed, angle = state
            heading = wrap_angle(angle)
            label_boxes.append((x, y, z0, cfg.box_l, cfg.box_w, cfg.box_h, heading))
            state[0] = x + speed * math.cos(angle)
            state[1] = y + speed * math.sin(angle)
            state[3] = angle + cfg.turn_rate

            if _occluded(cfg, i, frame):
                continue
            boxes.append((
                x + rng.normal(0.0, cfg.pos_noise) if cfg.pos_noise else x,
                y + rng.normal(0.0, cfg.pos_noise) if cfg.pos_noise else y,
                z0 + rng.normal(0.0, cfg.pos_noise) if cfg.pos_noise else z0,
                cfg.box_l,
                cfg.box_w,
                cfg.box_h,
                heading,
            ))
            scores.append(
                _clip01(rng.normal(cfg.tp_score_mean, cfg.tp_score_sigma))
                if cfg.tp_score_sigma
                else _clip01(cfg.tp_score_mean)
            )
            if cfg.embedding_dim > 0:
                embeddings.append(
                    means[i]
                    + [rng.normal(0.0, cfg.embedding_noise) for _ in range(cfg.embedding_dim)]
                )

        for _ in range(rng.poisson(cfg.fp_rate)):
            if cfg.fp_near_sigma > 0.0 and states:
                anchor = states[int(rng.random() * len(states)) % len(states)]
                fx = anchor[0] + rng.normal(0.0, cfg.fp_near_sigma)
                fy = anchor[1] + rng.normal(0.0, cfg.fp_near_sigma)
            else:
                fx = rng.uniform(-0.5 * cfg.extent, 0.5 * cfg.extent)
                fy = rng.uniform(-0.5 * cfg.extent, 0.5 * cfg.extent)
            # the batch wraps this heading
            heading = rng.uniform(-math.pi, math.pi)
            boxes.append((fx, fy, z0, cfg.box_l, cfg.box_w, cfg.box_h, heading))
            scores.append(_clip01(rng.uniform(cfg.fp_score_low, cfg.fp_score_high)))
            if cfg.embedding_dim > 0:
                embeddings.append([rng.normal() for _ in range(cfg.embedding_dim)])

        if boxes:
            detections[frame] = DetectionBatch(frame, boxes, scores, embeddings=embeddings or None)

    n = len(label_boxes)
    frames = np.repeat(np.arange(cfg.num_frames), len(states))
    ids = np.tile(np.arange(len(states)), cfg.num_frames)
    labels = object_table(frames, ids, [cfg.object_type] * n, label_boxes, np.full(n, np.nan))
    return labels, detections


def crossing_objects(
    num_pairs: int, span: float = 40.0, lane_gap: float = 8.0, speed: float = 0.8
) -> list[ObjectSpec]:
    """Pairs of lookalike objects driving toward each other on shared lanes.

    Each pair shares an embedding group, so appearance alone cannot
    tell its members apart; their paths meet mid-sequence.
    """
    specs = []
    y0 = -0.5 * (num_pairs - 1) * lane_gap
    for j in range(num_pairs):
        y = y0 + j * lane_gap
        specs.append(ObjectSpec(x=-0.5 * span, y=y, vx=speed, vy=0.0, group=j))
        specs.append(ObjectSpec(x=0.5 * span, y=y, vx=-speed, vy=0.0, group=j))
    return specs


# The names ``scenario_template`` takes.
TEMPLATES = ("clean", "crossing", "clutter")


def scenario_template(name: str, seed: int = 0) -> ScenarioConfig:
    """Named scenarios used by the experiment harness (``TEMPLATES``).

    clean     ideal detections, for sanity checks
    crossing  lookalike pairs with head-on crossings and occlusions
    clutter   noisy confidences plus near-object false positives
    """
    if name not in TEMPLATES:
        raise ValueError(f"unknown scenario template: {name!r}")
    if name == "clean":
        return ScenarioConfig(num_objects=10, num_frames=100, seed=seed)
    if name == "crossing":
        specs = crossing_objects(num_pairs=5)
        num_frames = 60
        cross = num_frames // 2
        occlusions = [(2 * j + 1, cross - 1, 2) for j in range(5)]
        return ScenarioConfig(
            num_frames=num_frames,
            objects=specs,
            occlusions=occlusions,
            embedding_dim=16,
            embedding_noise=0.05,
            pos_noise=0.05,
            seed=seed,
        )
    # clutter: ghost detections near objects plus short per-object
    # dropouts. An associator that trusts every input is forced into bad
    # matches exactly when the true detection is missing.
    occlusions = [(i, 18 + 5 * i, 2) for i in range(8)]
    return ScenarioConfig(
        num_objects=8,
        num_frames=80,
        extent=60.0,
        fp_rate=2.0,
        fp_near_sigma=2.0,
        occlusions=occlusions,
        pos_noise=0.1,
        tp_score_mean=0.97,
        tp_score_sigma=0.015,
        fp_score_low=0.86,
        fp_score_high=0.99,
        seed=seed,
    )
