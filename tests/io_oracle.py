"""Per-line readers of detection and KITTI label files, and a per-line
writer of detection files.

The references that ``mipmot.io_formats.read_detections``,
``read_kitti_labels`` and ``write_detections`` are compared against.
The readers parse one line at a time with Python's ``float`` and
``int``, check each record against the row rules, stated here as scalar
checks of their own (``check_box``, ``check_detection``), and fail at
the first faulty line with the message the bulk readers give for a line
with one fault. A detection line starting with ``{`` is a JSON line,
which is not read: it is a fault of its line. The writer writes one
record per line, in list order, so that it can write the frames of a
file in any order.
"""

import math
import os
from typing import NamedTuple, Optional

from mipmot.geometry import wrap_angle
from mipmot.io_formats import FormatError


class Record(NamedTuple):
    """One detection as the reference reads it: the box as a list of 7
    floats, its heading wrapped to (-pi, pi]; the embedding a list of
    floats or None, the start probability a float or None."""

    frame: int
    box: list
    score: float
    embedding: Optional[list] = None
    start_prob: Optional[float] = None


def check_box(box) -> list:
    """The box rules, checked in order: each of x, y, z, l, w, h, a
    finite, the extents nonnegative, each of x, y, z, l, w, h at most
    1e100 in magnitude. Returns the box with its heading wrapped."""
    for name, v in zip("xyzlwha", box):
        if not math.isfinite(v):
            raise ValueError(f"box field {name} is not finite: {v!r}")
    x, y, z, l, w, h, a = box
    if l < 0 or w < 0 or h < 0:
        raise ValueError(f"box extents must be nonnegative, got l={l} w={w} h={h}")
    for name, v in zip("xyzlwh", box):
        if abs(v) > 1e100:
            raise ValueError(f"box field {name} is beyond 1e+100 in magnitude: {v!r}")
    return [x, y, z, l, w, h, wrap_angle(a)]


def check_detection(frame, box, score, embedding, start_prob) -> Record:
    """The rules of a detection record, checked in order: the box rules,
    the frame nonnegative and within 64 bits, the score in [0, 1], a
    given start probability in [0, 1], a given embedding finite, each of
    its values at most 1e100 in magnitude."""
    box = check_box(box)
    if frame < 0:
        raise ValueError(f"frame must be nonnegative, got {frame}")
    if frame >= 2**63:
        raise ValueError(f"frame beyond 64 bits: {frame}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    if start_prob is not None and not 0.0 <= start_prob <= 1.0:
        raise ValueError(f"start_prob must be in [0, 1], got {start_prob}")
    if embedding is not None and not all(map(math.isfinite, embedding)):
        raise ValueError("embedding contains non-finite values")
    for v in embedding or ():
        if abs(v) > 1e100:
            raise ValueError(f"embedding value is beyond 1e+100 in magnitude: {v!r}")
    return Record(frame, box, score, embedding, start_prob)


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


def _parse_text(line: str, path: str, lineno: int) -> Record:
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
        return check_detection(frame, values[:7], values[7], embedding, start_prob)
    except ValueError as e:
        _fail(path, lineno, str(e))


def read_detections(path) -> dict[int, list[Record]]:
    """{frame: [Record]} in ascending frame order, file order within a
    frame; every embedding in the file has the same size."""
    path = os.fspath(path)
    records = []
    first_embedding = None  # (size, line number)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if stripped[0] == "{":
                _fail(path, lineno, "JSON lines are not read; a detection line is whitespace text")
            rec = _parse_text(stripped, path, lineno)
            if rec.embedding is not None:
                if first_embedding is None:
                    first_embedding = (len(rec.embedding), lineno)
                elif len(rec.embedding) != first_embedding[0]:
                    _fail(
                        path,
                        lineno,
                        f"embedding has {len(rec.embedding)} values, "
                        f"line {first_embedding[1]} has {first_embedding[0]}",
                    )
            records.append(rec)
    by_frame: dict[int, list[Record]] = {}
    for rec in records:
        by_frame.setdefault(rec.frame, []).append(rec)
    return {frame: by_frame[frame] for frame in sorted(by_frame)}


def write_detections(detections, path) -> None:
    """Write detection records (objects with a ``frame``, a 7-value
    ``box``, a ``score`` and a ``start_prob`` and ``embedding`` or None)
    one text line each, in list order, with 6 decimals."""
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        for det in detections:
            fields = [str(det.frame), *(f"{v:.6f}" for v in det.box)]
            fields.append(f"{det.score:.6f}")
            if det.start_prob is not None:
                fields.append(f"{det.start_prob:.6f}")
            if det.embedding is not None:
                fields.append("[" + " ".join(f"{v:.6f}" for v in det.embedding) + "]")
            f.write(" ".join(fields) + "\n")


def read_kitti_labels(path, keep_types=None) -> list[tuple]:
    """The (frame, id, type, box, score or None) records of a KITTI
    tracking label (or result) file, in file order; DontCare rows, rows
    with a negative id and rows of a type outside ``keep_types`` are
    dropped; a box is a list of 7 floats. A frame or id beyond 64 bits,
    a kept row that breaks a box rule, and a kept row whose (frame, id)
    pair an earlier kept row holds, are faults."""
    path = os.fspath(path)
    records = []
    first_line = {}  # (frame, id) -> line number of its kept row
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) not in (17, 18):
                _fail(path, lineno, f"expected 17 or 18 fields, got {len(tokens)}")
            try:
                frame, track_id = int(tokens[0]), int(tokens[1])
            except ValueError:
                _fail(path, lineno, "bad frame or track id")
            if not all(-(2**63) <= v < 2**63 for v in (frame, track_id)):
                _fail(path, lineno, "frame or track id beyond 64 bits")
            values = [_parse_float(t, path, lineno) for t in tokens[3:]]
            if track_id < 0 or tokens[2] == "DontCare":
                continue
            if keep_types is not None and tokens[2] not in keep_types:
                continue
            h, w, l, x, y, z, a = values[7:14]
            try:
                box = check_box([x, y, z, l, w, h, a])
            except ValueError as e:
                _fail(path, lineno, str(e))
            if (frame, track_id) in first_line:
                _fail(
                    path,
                    lineno,
                    f"duplicate (frame, id) pair: ({frame}, {track_id}), "
                    f"first on line {first_line[frame, track_id]}",
                )
            first_line[frame, track_id] = lineno
            score = values[14] if len(values) == 15 else None
            records.append((frame, track_id, tokens[2], box, score))
    return records
