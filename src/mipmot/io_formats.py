"""File formats: detection input, tracking labels and tracking output.

Detection files hold one record per line. Two interchangeable layouts
are auto-detected from the first non-blank character:

* plain text (whitespace-separated)::

      frame x y z l w h heading score [start_prob] [[e0 e1 ... eD]]

  The optional embedding is a bracketed vector at the end of the line;
  a bare trailing number before it (or on its own) is the start
  probability.

* JSON lines (first character ``{``)::

      {"frame": 0, "box": [x, y, z, l, w, h, a], "score": 0.97,
       "start_prob": 0.5, "embedding": [ ... ]}

  ``start_prob`` and ``embedding`` are optional. Values keep their JSON
  types: the frame is an integer, the box a list of 7 numbers, the
  scores and embedding entries numbers (a bool or string is rejected).

Label and result files use the KITTI tracking layout: one object per
line, ``frame id type truncated occluded alpha bbox(4) h w l x y z
rotation_y [score]``. The image-plane fields cannot be produced here
and are written as the customary -1 / -10 placeholders.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box3D


# The readers give Python floats and ints; those skip the slower checks
# against the abstract number types.
def _is_real(v) -> bool:
    """A real number (numpy scalars included), but not a bool."""
    return type(v) is float or (
        isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
    )


def check_frame(frame) -> int:
    """A frame index as an int; a bool or non-integer frame is rejected."""
    if type(frame) is int:
        return frame
    if not isinstance(frame, numbers.Integral) or isinstance(frame, (bool, np.bool_)):
        raise ValueError(f"frame must be an integer, got {frame!r}")
    return int(frame)


@dataclass
class Detection:
    """One frame's measurement of one object."""

    frame: int
    box: Box3D
    score: float
    embedding: Optional[np.ndarray] = None
    start_prob: Optional[float] = None

    def __post_init__(self):
        self.frame = check_frame(self.frame)
        if self.frame < 0:
            raise ValueError(f"frame must be nonnegative, got {self.frame}")
        if not _is_real(self.score):
            raise ValueError(f"score must be a number, got {self.score!r}")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.start_prob is not None:
            if not _is_real(self.start_prob):
                raise ValueError(f"start_prob must be a number, got {self.start_prob!r}")
            if not (math.isfinite(self.start_prob) and 0.0 <= self.start_prob <= 1.0):
                raise ValueError(f"start_prob must be in [0, 1], got {self.start_prob}")
        if self.embedding is not None:
            self.embedding = np.asarray(self.embedding, dtype=float)
            if self.embedding.ndim != 1 or self.embedding.size == 0:
                raise ValueError("embedding must be a nonempty 1-D vector")
            if not np.all(np.isfinite(self.embedding)):
                raise ValueError("embedding contains non-finite values")


@dataclass
class LabelRecord:
    """One ground-truth (or result) object in one frame, KITTI style."""

    frame: int
    track_id: int
    object_type: str
    box: Box3D
    score: Optional[float] = None


class FormatError(ValueError):
    """Malformed input file; the message carries file and line context."""


def _fail(path: str, lineno: int, msg: str):
    raise FormatError(f"{path}:{lineno}: {msg}")


def _parse_float(token: str, path: str, lineno: int) -> float:
    try:
        v = float(token)
    except ValueError:
        _fail(path, lineno, f"not a number: {token!r}")
    if not math.isfinite(v):
        _fail(path, lineno, f"non-finite value: {token!r}")
    return v


def _parse_detection_text(line: str, path: str, lineno: int) -> Detection:
    embedding = None
    if "[" in line:
        head, _, tail = line.partition("[")
        vec = tail.rsplit("]", 1)
        if len(vec) != 2 or vec[1].strip():
            _fail(path, lineno, "malformed embedding brackets")
        raw = vec[0].replace(",", " ").split()
        if not raw:
            _fail(path, lineno, "empty embedding")
        embedding = [_parse_float(t, path, lineno) for t in raw]
        line = head
    tokens = line.split()
    if len(tokens) not in (9, 10):
        _fail(path, lineno, f"expected 9 or 10 leading fields, got {len(tokens)}")
    try:
        frame = int(tokens[0])
    except ValueError:
        _fail(path, lineno, f"bad frame index: {tokens[0]!r}")
    values = [_parse_float(t, path, lineno) for t in tokens[1:]]
    start_prob = values[8] if len(values) == 9 else None
    try:
        box = Box3D(*values[:7])
        return Detection(
            frame=frame,
            box=box,
            score=values[7],
            embedding=embedding,
            start_prob=start_prob,
        )
    except ValueError as e:
        _fail(path, lineno, str(e))


def _is_number(v) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_detection_json(line: str, path: str, lineno: int) -> Detection:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        _fail(path, lineno, f"bad JSON: {e.msg}")
    if not isinstance(obj, dict):
        _fail(path, lineno, "JSON record must be an object")
    unknown = set(obj) - {"frame", "box", "score", "embedding", "start_prob"}
    if unknown:
        _fail(path, lineno, f"unknown keys: {sorted(unknown)}")
    missing = [k for k in ("frame", "box", "score") if k not in obj]
    if missing:
        _fail(path, lineno, f"missing key: {missing[0]}")
    frame, box, score = obj["frame"], obj["box"], obj["score"]
    start_prob, embedding = obj.get("start_prob"), obj.get("embedding")
    if not isinstance(frame, int) or isinstance(frame, bool):
        _fail(path, lineno, f"frame must be an integer, got {frame!r}")
    if not (isinstance(box, list) and len(box) == 7 and all(map(_is_number, box))):
        _fail(path, lineno, f"box must be a list of 7 numbers, got {box!r}")
    if not _is_number(score):
        _fail(path, lineno, f"score must be a number, got {score!r}")
    if start_prob is not None and not _is_number(start_prob):
        _fail(path, lineno, f"start_prob must be a number, got {start_prob!r}")
    if embedding is not None and not (
        isinstance(embedding, list) and all(map(_is_number, embedding))
    ):
        _fail(path, lineno, "embedding must be a list of numbers")
    try:
        return Detection(
            frame=frame,
            box=Box3D(*(float(v) for v in box)),
            score=float(score),
            embedding=embedding,
            start_prob=None if start_prob is None else float(start_prob),
        )
    except (TypeError, ValueError, OverflowError) as e:
        _fail(path, lineno, str(e))


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file into {frame: [detections]}.

    Frames are returned in ascending order; the in-file order within a
    frame is preserved. Every embedding in a file has the same size,
    since tracks compare embeddings across frames.
    """
    path = os.fspath(path)
    records = []
    first_embedding = None  # (size, line number)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped[0] == "{":
                rec = _parse_detection_json(stripped, path, lineno)
            else:
                rec = _parse_detection_text(stripped, path, lineno)
            if rec.embedding is not None:
                if first_embedding is None:
                    first_embedding = (rec.embedding.size, lineno)
                elif rec.embedding.size != first_embedding[0]:
                    _fail(
                        path,
                        lineno,
                        f"embedding has {rec.embedding.size} values, "
                        f"line {first_embedding[1]} has {first_embedding[0]}",
                    )
            records.append(rec)
    by_frame: dict[int, list[Detection]] = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append(rec)
    return {frame: by_frame[frame] for frame in sorted(by_frame)}


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def write_detections(detections, path, json_lines: bool = False) -> None:
    """Write detection records; inverse of read_detections."""
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        for det in detections:
            if json_lines:
                rec = {
                    "frame": det.frame,
                    "box": [round(v, 9) for v in det.box.to_array().tolist()],
                    "score": round(det.score, 9),
                }
                if det.start_prob is not None:
                    rec["start_prob"] = round(det.start_prob, 9)
                if det.embedding is not None:
                    rec["embedding"] = [round(v, 9) for v in det.embedding.tolist()]
                f.write(json.dumps(rec, sort_keys=True) + "\n")
            else:
                fields = [str(det.frame)]
                fields += [_fmt(v) for v in det.box.to_array()]
                fields.append(_fmt(det.score))
                if det.start_prob is not None:
                    fields.append(_fmt(det.start_prob))
                if det.embedding is not None:
                    fields.append("[" + " ".join(_fmt(v) for v in det.embedding) + "]")
                f.write(" ".join(fields) + "\n")


def read_kitti_labels(path, keep_types=None, skip_negative_ids: bool = True):
    """Read KITTI tracking labels (or results) as a list of LabelRecord.

    The 2D bbox, truncation and occlusion fields are parsed for
    validation but not kept. ``keep_types`` optionally restricts the
    object classes; DontCare rows (negative ids) are dropped by default.
    """
    path = os.fspath(path)
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) not in (17, 18):
                _fail(path, lineno, f"expected 17 or 18 fields, got {len(tokens)}")
            try:
                frame = int(tokens[0])
                track_id = int(tokens[1])
            except ValueError:
                _fail(path, lineno, "bad frame or track id")
            obj_type = tokens[2]
            values = [_parse_float(t, path, lineno) for t in tokens[3:]]
            if skip_negative_ids and track_id < 0:
                continue
            if keep_types is not None and obj_type not in keep_types:
                continue
            h, w, l = values[7], values[8], values[9]
            x, y, z = values[10], values[11], values[12]
            rotation_y = values[13]
            score = values[14] if len(values) == 15 else None
            try:
                box = Box3D(x, y, z, l, w, h, rotation_y)
            except ValueError as e:
                _fail(path, lineno, str(e))
            out.append(LabelRecord(frame, track_id, obj_type, box, score))
    return out


def write_kitti_tracking(frame_results, path, object_type: str = "Car") -> None:
    """Write tracker output in the KITTI tracking result layout.

    ``frame_results`` is an iterable of FrameResult-like objects with a
    ``frame`` index and ``tracks`` list of (id, box, score) entries,
    sorted by frame. Image-plane fields are -1 / -10 placeholders.
    """
    seen: set[tuple[int, int]] = set()
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        for result in frame_results:
            for track_id, box, score in result.tracks:
                key = (result.frame, track_id)
                if key in seen:
                    raise ValueError(f"duplicate (frame, id) pair: {key}")
                seen.add(key)
                fields = [
                    str(result.frame),
                    str(track_id),
                    object_type,
                    "-1",
                    "-1",
                    "-10",
                    "-1",
                    "-1",
                    "-1",
                    "-1",
                    _fmt(box.h),
                    _fmt(box.w),
                    _fmt(box.l),
                    _fmt(box.x),
                    _fmt(box.y),
                    _fmt(box.z),
                    _fmt(box.a),
                    _fmt(score),
                ]
                f.write(" ".join(fields) + "\n")


def write_kitti_labels(records, path) -> None:
    """Write LabelRecords in the KITTI tracking label layout."""
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        for rec in records:
            box = rec.box
            fields = [
                str(rec.frame),
                str(rec.track_id),
                rec.object_type,
                "0",
                "0",
                "-10",
                "-1",
                "-1",
                "-1",
                "-1",
                _fmt(box.h),
                _fmt(box.w),
                _fmt(box.l),
                _fmt(box.x),
                _fmt(box.y),
                _fmt(box.z),
                _fmt(box.a),
            ]
            if rec.score is not None:
                fields.append(_fmt(rec.score))
            f.write(" ".join(fields) + "\n")


def labels_by_frame(records) -> dict[int, list[LabelRecord]]:
    """Group label records into {frame: [records]}, frames ascending."""
    by_frame: dict[int, list[LabelRecord]] = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append(rec)
    return {frame: by_frame[frame] for frame in sorted(by_frame)}
