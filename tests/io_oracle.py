"""Per-line readers of detection and KITTI label files, and a per-line
writer of detection files.

The references that ``mipmot.io_formats.read_detections``,
``read_kitti_labels`` and ``write_detections`` are compared against.
The readers parse one line at a time with Python's ``float`` and
``int``, check each record by building its ``Box3D`` (and
``Detection``), and fail at the first faulty line with the message the
bulk readers give for a line with one fault. The writer writes one
``Detection`` per line, in list order, so that it can write the frames
of a file in any order.
"""

import json
import math
import os

from mipmot.geometry import Box3D
from mipmot.io_formats import Detection, FormatError, is_real


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


def _parse_text(line: str, path: str, lineno: int) -> Detection:
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
        return Detection(
            frame=frame,
            box=Box3D(*values[:7]),
            score=values[7],
            embedding=embedding,
            start_prob=start_prob,
        )
    except ValueError as e:
        _fail(path, lineno, str(e))


def _parse_json(line: str, path: str, lineno: int) -> Detection:
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
    if not (isinstance(box, list) and len(box) == 7 and all(map(is_real, box))):
        _fail(path, lineno, f"box must be a list of 7 numbers, got {box!r}")
    if not is_real(score):
        _fail(path, lineno, f"score must be a number, got {score!r}")
    if start_prob is not None and not is_real(start_prob):
        _fail(path, lineno, f"start_prob must be a number, got {start_prob!r}")
    if embedding is not None and not (
        isinstance(embedding, list) and all(map(is_real, embedding))
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
    """{frame: [Detection]} in ascending frame order, file order within a
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
                rec = _parse_json(stripped, path, lineno)
            else:
                rec = _parse_text(stripped, path, lineno)
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


def write_detections(detections, path, json_lines: bool = False) -> None:
    """Write ``Detection`` records one line each, in list order: text with
    6 decimals, or JSON lines with 9 (``round``)."""
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
                fields = [str(det.frame), *(f"{v:.6f}" for v in det.box.to_array())]
                fields.append(f"{det.score:.6f}")
                if det.start_prob is not None:
                    fields.append(f"{det.start_prob:.6f}")
                if det.embedding is not None:
                    fields.append("[" + " ".join(f"{v:.6f}" for v in det.embedding) + "]")
                f.write(" ".join(fields) + "\n")


def read_kitti_labels(path, keep_types=None) -> list[tuple]:
    """The (frame, id, type, Box3D, score or None) records of a KITTI
    tracking label (or result) file, in file order; DontCare rows, rows
    with a negative id and rows of a type outside ``keep_types`` are
    dropped. A frame or id
    beyond 64 bits, and a kept row whose (frame, id) pair an earlier kept
    row holds, are faults."""
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
                box = Box3D(x, y, z, l, w, h, a)
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
