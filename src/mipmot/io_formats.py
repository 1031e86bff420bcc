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

``read_detections`` gives one ``DetectionBatch`` per frame: the frame's
boxes, scores, start probabilities and embeddings as arrays, checked
once. Each line is split into its fields as text; the numbers of a few
thousand lines at a time are then read by one ``np.loadtxt`` call,
which reads a number to the same bits as Python's ``float``, and
checked as a table. A faulty file fails at its first faulty line, with
the file and line number. For a line with one fault the message names
that fault; for a line with several it names one of them.

Label and result files use the KITTI tracking layout: one object per
line, ``frame id type truncated occluded alpha bbox(4) h w l x y z
rotation_y [score]``. The image-plane fields cannot be produced here
and are written as the customary -1 / -10 placeholders. Their numeric
columns are read and checked in bulk in the same way.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box3D, wrap_angle

# Lines whose numbers are read by one np.loadtxt call. Bounds the text
# held at once, about 0.4 MB per 1000 lines of 32-D embeddings.
_CHUNK_LINES = 4096

_BOX_FIELDS = ("x", "y", "z", "l", "w", "h", "a")


# The readers give Python floats and ints; those skip the slower checks
# against the abstract number types.
def is_real(v) -> bool:
    """A real number (numpy scalars included), but not a bool."""
    return type(v) in (float, int) or (
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
        if not is_real(self.score):
            raise ValueError(f"score must be a number, got {self.score!r}")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.start_prob is not None:
            if not is_real(self.start_prob):
                raise ValueError(f"start_prob must be a number, got {self.start_prob!r}")
            if not (math.isfinite(self.start_prob) and 0.0 <= self.start_prob <= 1.0):
                raise ValueError(f"start_prob must be in [0, 1], got {self.start_prob}")
        if self.embedding is not None:
            self.embedding = np.asarray(self.embedding, dtype=float)
            if self.embedding.ndim != 1 or self.embedding.size == 0:
                raise ValueError("embedding must be a nonempty 1-D vector")
            if not np.all(np.isfinite(self.embedding)):
                raise ValueError("embedding contains non-finite values")


def _first_fault(boxes, scores, start_prob, has_start_prob, embeddings, has_embedding):
    """(row, message) of the first row that breaks a rule, or None.

    Each row is checked by the rules of ``Box3D`` and ``Detection``, in
    their order and with their messages: box fields finite, extents
    nonnegative, score in [0, 1], the start probability in [0, 1] where
    given and the embedding finite where given.
    """
    finite = np.isfinite(boxes)
    rules = [
        ~finite.all(axis=1),
        (boxes[:, 3:6] < 0.0).any(axis=1),
        ~((scores >= 0.0) & (scores <= 1.0)),
        has_start_prob & ~((start_prob >= 0.0) & (start_prob <= 1.0)),
    ]
    if embeddings is not None:
        rules.append(has_embedding & ~np.isfinite(embeddings).all(axis=1))
    bad = np.logical_or.reduce(rules)
    if not bad.any():
        return None
    i = int(bad.argmax())
    rule = next(k for k, broken in enumerate(rules) if broken[i])
    box = boxes[i].tolist()
    if rule == 0:
        k = int(finite[i].argmin())
        return i, f"Box3D field {_BOX_FIELDS[k]} is not finite: {box[k]!r}"
    if rule == 1:
        return i, f"Box3D extents must be nonnegative, got l={box[3]} w={box[4]} h={box[5]}"
    if rule == 2:
        return i, f"score must be in [0, 1], got {float(scores[i])}"
    if rule == 3:
        return i, f"start_prob must be in [0, 1], got {float(start_prob[i])}"
    return i, "embedding contains non-finite values"


def _real_array(name: str, values) -> np.ndarray:
    """A float copy of an array of real numbers; bools and other types fail."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float)


class DetectionBatch(Sequence):
    """One frame's detections as arrays, checked once when built.

    ``boxes`` is (M, 7) with headings wrapped to (-pi, pi], ``scores``
    (M,) and ``start_prob`` (M,), NaN where a detection has none.
    ``embeddings`` is (M, D), with a NaN row where a detection has none,
    or None when no detection has one. Indexing and iteration give a
    ``Detection`` view of one row.
    """

    def __init__(self, frame, boxes, scores, start_prob=None, embeddings=None):
        frame = check_frame(frame)
        if frame < 0:
            raise ValueError(f"frame must be nonnegative, got {frame}")
        boxes = _real_array("boxes", boxes)
        if boxes.size == 0:
            boxes = boxes.reshape(0, 7)
        if boxes.ndim != 2 or boxes.shape[1] != 7:
            raise ValueError(f"boxes must be an (M, 7) array, got shape {boxes.shape}")
        m = len(boxes)
        scores = _real_array("scores", scores).reshape(-1)
        if start_prob is None:
            start_prob = np.full(m, np.nan)
        start_prob = _real_array("start_prob", start_prob).reshape(-1)
        if len(scores) != m or len(start_prob) != m:
            raise ValueError(f"{m} boxes but {len(scores)} scores, {len(start_prob)} start_prob")
        has_embedding = np.zeros(m, dtype=bool)
        if embeddings is not None:
            embeddings = _real_array("embeddings", embeddings)
            if embeddings.ndim != 2 or len(embeddings) != m or embeddings.shape[1] == 0:
                raise ValueError(
                    f"embeddings must be an ({m}, D) array, D >= 1, got shape {embeddings.shape}"
                )
            has_embedding = ~np.isnan(embeddings).all(axis=1)
        fault = _first_fault(
            boxes, scores, start_prob, ~np.isnan(start_prob), embeddings, has_embedding
        )
        if fault is not None:
            raise ValueError(f"detection {fault[0]}: {fault[1]}")
        boxes[:, 6] = wrap_angle(boxes[:, 6])
        self._set(frame, boxes, scores, start_prob, embeddings if has_embedding.any() else None)

    def _set(self, frame, boxes, scores, start_prob, embeddings) -> None:
        self.frame = frame
        self.boxes = boxes
        self.scores = scores
        self.start_prob = start_prob
        self.embeddings = embeddings

    @classmethod
    def _checked(cls, frame, boxes, scores, start_prob, embeddings) -> "DetectionBatch":
        """A batch of arrays that ``read_detections`` has already checked."""
        batch = cls.__new__(cls)
        batch._set(frame, boxes, scores, start_prob, embeddings)
        return batch

    @classmethod
    def from_detections(cls, detections, frame) -> "DetectionBatch":
        """The batch of one frame's ``Detection``s; a batch is returned as is."""
        if isinstance(detections, DetectionBatch):
            return detections
        detections = list(detections)
        embeddings = None
        given = [(i, d.embedding) for i, d in enumerate(detections) if d.embedding is not None]
        if given:
            size = given[0][1].size
            embeddings = np.full((len(detections), size), np.nan)
            for i, e in given:
                if e.size != size:
                    raise ValueError(
                        f"frame {frame}, detection {i}: embedding has {e.size} values, "
                        f"expected {size}"
                    )
                embeddings[i] = e
        return cls(
            frame,
            np.array([d.box.to_array() for d in detections]).reshape(-1, 7),
            [d.score for d in detections],
            [np.nan if d.start_prob is None else d.start_prob for d in detections],
            embeddings,
        )

    @property
    def has_embedding(self) -> np.ndarray:
        """(M,) bool: which detections carry an embedding."""
        if self.embeddings is None:
            return np.zeros(len(self), dtype=bool)
        return ~np.isnan(self.embeddings[:, 0])

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i) -> Detection:
        i = range(len(self))[operator.index(i)]
        start_prob = float(self.start_prob[i])
        embedding = None
        if self.embeddings is not None and not math.isnan(self.embeddings[i, 0]):
            embedding = self.embeddings[i]
        return Detection(
            frame=self.frame,
            box=Box3D.from_array(self.boxes[i]),
            score=float(self.scores[i]),
            embedding=embedding,
            start_prob=None if math.isnan(start_prob) else start_prob,
        )

    def __repr__(self) -> str:
        return f"DetectionBatch(frame={self.frame}, {len(self)} detections)"


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


def _check_tokens(tokens, path: str, lineno: int) -> None:
    """Fail at the first token that is not a finite number."""
    for token in tokens:
        try:
            v = float(token)
        except ValueError:
            _fail(path, lineno, f"not a number: {token!r}")
        if not math.isfinite(v):
            _fail(path, lineno, f"non-finite value: {token!r}")


def _floats(rows, width: int | None = None) -> np.ndarray:
    """The numbers of text rows as an (n, width) array, where n is the
    number of leading rows that hold only numbers, ``width`` of them
    (when None, as many as the first row).

    Rows ``np.loadtxt`` reads whole take one call. Otherwise each row is
    read with ``float``, up to the first that does not read, which also
    takes the numerals ``float`` reads beyond ``np.loadtxt``'s
    (underscores, non-ASCII digits).
    """
    if rows:
        try:
            values = np.loadtxt(rows, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if width is None or values.shape[1] == width:
                return values
    kept = []
    for row in rows:
        try:
            values = [float(t) for t in row.split()]
        except ValueError:
            break
        width = len(values) if width is None else width
        if len(values) != width:
            break
        kept.append(values)
    return np.array(kept, dtype=float).reshape(len(kept), width or 0)


class _DetectionReader:
    """The records of one detection file, checked a chunk of lines at a time.

    A line is split into its fields as text and kept as a row: its line
    number, frame, head (a frame column, the 7 box values, the score and
    the start probability, "nan" when absent), whether the start
    probability is given, its embedding text or None, and whether the
    line is text (whose non-finite numbers are named by token) or JSON.
    """

    def __init__(self, path: str):
        self.path = path
        self.rows: list[tuple] = []
        self.first_embedding: tuple[int, int] | None = None  # (size, line number)
        self.parts: list[tuple] = []  # checked arrays of each chunk

    def fail(self, lineno: int, msg: str):
        """Fail at ``lineno`` once the rows before it, which may hold an
        earlier fault, are checked."""
        self.flush()
        _fail(self.path, lineno, msg)

    def add(self, lineno, frame, head, has_start_prob, embedding, text) -> None:
        if frame < 0:
            self.fail(lineno, f"frame must be nonnegative, got {frame}")
        self.rows.append((lineno, frame, head, has_start_prob, embedding, text))
        if len(self.rows) == _CHUNK_LINES:
            self.flush()

    def add_text(self, line: str, lineno: int) -> None:
        embedding = None
        if "[" in line:
            head, _, tail = line.partition("[")
            vec = tail.rsplit("]", 1)
            if len(vec) != 2 or vec[1].strip():
                self.fail(lineno, "malformed embedding brackets")
            embedding = vec[0].replace(",", " ")
            if not embedding.strip():
                self.fail(lineno, "empty embedding")
            line = head
        tokens = line.split()
        if len(tokens) not in (9, 10):
            self.fail(lineno, f"expected 9 or 10 leading fields, got {len(tokens)}")
        try:
            frame = int(tokens[0])
        except ValueError:
            self.fail(lineno, f"bad frame index: {tokens[0]!r}")
        given = len(tokens) == 10
        self.add(lineno, frame, line if given else line + " nan", given, embedding, True)

    def add_json(self, line: str, lineno: int) -> None:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            self.fail(lineno, f"bad JSON: {e.msg}")
        if not isinstance(obj, dict):
            self.fail(lineno, "JSON record must be an object")
        unknown = set(obj) - {"frame", "box", "score", "embedding", "start_prob"}
        if unknown:
            self.fail(lineno, f"unknown keys: {sorted(unknown)}")
        missing = [k for k in ("frame", "box", "score") if k not in obj]
        if missing:
            self.fail(lineno, f"missing key: {missing[0]}")
        frame, box, score = obj["frame"], obj["box"], obj["score"]
        start_prob, embedding = obj.get("start_prob"), obj.get("embedding")
        if not isinstance(frame, int) or isinstance(frame, bool):
            self.fail(lineno, f"frame must be an integer, got {frame!r}")
        if not (isinstance(box, list) and len(box) == 7 and all(map(is_real, box))):
            self.fail(lineno, f"box must be a list of 7 numbers, got {box!r}")
        if not is_real(score):
            self.fail(lineno, f"score must be a number, got {score!r}")
        if start_prob is not None and not is_real(start_prob):
            self.fail(lineno, f"start_prob must be a number, got {start_prob!r}")
        if embedding is not None and not (
            isinstance(embedding, list) and all(map(is_real, embedding))
        ):
            self.fail(lineno, "embedding must be a list of numbers")
        if embedding == []:
            self.fail(lineno, "embedding must be a nonempty 1-D vector")
        try:
            given = start_prob is not None
            head = [*map(float, box), float(score), float(start_prob) if given else math.nan]
            if embedding is not None:
                embedding = " ".join(map(repr, map(float, embedding)))
        except OverflowError as e:
            self.fail(lineno, str(e))
        # repr() writes each float so that reading it back gives the same bits.
        head = "0 " + " ".join(map(repr, head))
        self.add(lineno, frame, head, given, embedding, False)

    def flush(self) -> None:
        """Read and check the pending rows; fail at the first faulty one."""
        rows, self.rows = self.rows, []
        if not rows:
            return
        linenos, frames, heads, given, embeddings, text = zip(*rows)
        with_embedding = [i for i, e in enumerate(embeddings) if e is not None]
        head = _floats(heads, 10)
        size = self.first_embedding[0] if self.first_embedding else None
        emb = _floats([embeddings[i] for i in with_embedding], size)
        if len(emb) and self.first_embedding is None:
            self.first_embedding = (emb.shape[1], linenos[with_embedding[0]])
        # Rows up to the first one whose numbers did not read.
        n = len(head)
        if len(emb) < len(with_embedding):
            n = min(n, with_embedding[len(emb)])
        k = int(np.searchsorted(with_embedding, n))
        has_embedding = np.zeros(n, dtype=bool)
        has_embedding[with_embedding[:k]] = True
        full = None
        if k:
            full = np.full((n, emb.shape[1]), np.nan)
            full[with_embedding[:k]] = emb[:k]
        given = np.array(given, dtype=bool)
        nonfinite = ~np.isfinite(head[:n, 1:9]).all(axis=1) | (
            given[:n] & ~np.isfinite(head[:n, 9])
        )
        if full is not None:
            nonfinite |= has_embedding & ~np.isfinite(full).all(axis=1)
        token_fault = np.flatnonzero(np.array(text[:n], dtype=bool) & nonfinite)
        boxes, scores, start_prob = head[:n, 1:8], head[:n, 8], head[:n, 9]
        fault = _first_fault(boxes, scores, start_prob, given[:n], full, has_embedding)
        if len(token_fault) and (fault is None or token_fault[0] <= fault[0]):
            n, fault = token_fault[0], None
        if fault is not None:
            _fail(self.path, linenos[fault[0]], fault[1])
        if n < len(rows):
            # A text line names its first token that is not a finite
            # number; with none, the line's embedding has another size.
            embedding = embeddings[n] or ""
            if text[n]:
                tokens = embedding.split() + heads[n].split()[1 : 9 + given[n]]
                _check_tokens(tokens, self.path, linenos[n])
            size, first = self.first_embedding
            _fail(
                self.path,
                linenos[n],
                f"embedding has {len(embedding.split())} values, line {first} has {size}",
            )
        self.parts.append((frames, boxes, scores, start_prob, full))

    def batches(self) -> dict[int, DetectionBatch]:
        self.flush()
        if not self.parts:
            return {}
        frames = [f for part in self.parts for f in part[0]]
        boxes, scores, start_prob = (
            np.concatenate([part[k] for part in self.parts]) for k in (1, 2, 3)
        )
        embeddings = None
        if self.first_embedding is not None:
            size = self.first_embedding[0]
            embeddings = np.concatenate(
                [
                    np.full((len(part[0]), size), np.nan) if part[4] is None else part[4]
                    for part in self.parts
                ]
            )
        boxes[:, 6] = wrap_angle(boxes[:, 6])
        rows_of: dict[int, list[int]] = {}
        for i, frame in enumerate(frames):
            rows_of.setdefault(frame, []).append(i)
        out = {}
        for frame in sorted(rows_of):
            rows = rows_of[frame]
            # A frame's records are usually adjacent: a slice is a view.
            if rows[-1] - rows[0] + 1 == len(rows):
                rows = slice(rows[0], rows[-1] + 1)
            emb = None
            if embeddings is not None:
                emb = embeddings[rows]
                if np.isnan(emb[:, 0]).all():
                    emb = None
            out[frame] = DetectionBatch._checked(
                frame, boxes[rows], scores[rows], start_prob[rows], emb
            )
        return out


def read_detections(path) -> dict[int, DetectionBatch]:
    """Read a detection file into {frame: DetectionBatch}.

    Frames are returned in ascending order; the in-file order within a
    frame is preserved. Every embedding in a file has the same size,
    since tracks compare embeddings across frames.
    """
    path = os.fspath(path)
    reader = _DetectionReader(path)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            if stripped[0] == "{":
                reader.add_json(stripped, lineno)
            else:
                reader.add_text(stripped, lineno)
    return reader.batches()


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

    The 2D bbox, truncation and occlusion fields are read for validation
    but not kept. ``keep_types`` optionally restricts the object classes;
    DontCare rows (negative ids) are dropped by default. Every number
    must be finite; the extents of a kept row must be nonnegative.
    """
    path = os.fspath(path)
    out: list[LabelRecord] = []
    rows: list[tuple] = []  # (line number, frame, id, type, 15 numbers as text, score given)

    def flush() -> None:
        """Check the pending rows as a table, then keep their records."""
        values = _floats([row[4] for row in rows], 15)
        n = len(values)
        scored = np.array([row[5] for row in rows[:n]], dtype=bool)
        kept = [
            i
            for i, (_, _, track_id, object_type, _, _) in enumerate(rows[:n])
            if not (skip_negative_ids and track_id < 0)
            and (keep_types is None or object_type in keep_types)
        ]
        is_kept = np.zeros(n, dtype=bool)
        is_kept[kept] = True
        nonfinite = ~np.isfinite(values[:, :14]).all(axis=1) | (
            scored & ~np.isfinite(values[:, 14])
        )
        negative = is_kept & (values[:, 7:10] < 0.0).any(axis=1)
        faulty = np.flatnonzero(nonfinite | negative)
        # The first faulty row, else row n when it did not read.
        i = int(faulty[0]) if len(faulty) else n
        if i < len(rows):
            # A token that is not a finite number, or else negative extents.
            lineno, _, _, _, numbers, score_given = rows[i]
            _check_tokens(numbers.split()[: 14 + score_given], path, lineno)
            h, w, l = values[i, 7:10].tolist()
            _fail(path, lineno, f"Box3D extents must be nonnegative, got l={l} w={w} h={h}")
        table = values[kept]
        boxes = table[:, [10, 11, 12, 9, 8, 7, 13]]
        boxes[:, 6] = wrap_angle(boxes[:, 6])
        for i, box, score in zip(kept, boxes.tolist(), table[:, 14].tolist()):
            _, frame, track_id, object_type, _, score_given = rows[i]
            score = score if score_given else None
            out.append(
                LabelRecord(frame, track_id, object_type, Box3D._from_checked(*box), score)
            )
        rows.clear()

    def fail(lineno: int, msg: str):
        flush()
        _fail(path, lineno, msg)

    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) not in (17, 18):
                fail(lineno, f"expected 17 or 18 fields, got {len(tokens)}")
            try:
                frame = int(tokens[0])
                track_id = int(tokens[1])
            except ValueError:
                fail(lineno, "bad frame or track id")
            # 15 numbers on every row: a missing score reads as NaN.
            scored = len(tokens) == 18
            numbers = " ".join(tokens[3:] if scored else [*tokens[3:], "nan"])
            rows.append((lineno, frame, track_id, tokens[2], numbers, scored))
            if len(rows) == _CHUNK_LINES:
                flush()
    flush()
    return out


# frame id type truncation occlusion, the image-plane placeholders, then
# h w l x y z rotation_y. %-formatting takes two thirds of the time of
# the same row as an f-string, and gives the same text.
_KITTI_ROW = "%s %s %s %s -10 -1 -1 -1 -1 %.6f %.6f %.6f %.6f %.6f %.6f %.6f"


def _kitti_row(frame, track_id, object_type, visibility, box, score) -> str:
    """One line of the KITTI tracking layout. ``visibility`` holds the
    truncation and occlusion fields; the score is left out when None."""
    row = _KITTI_ROW % (
        frame, track_id, object_type, visibility, box.h, box.w, box.l, box.x, box.y, box.z, box.a
    )
    return row + "\n" if score is None else "%s %.6f\n" % (row, score)


def write_kitti_tracking(frame_results, path, object_type: str = "Car") -> None:
    """Write tracker output in the KITTI tracking result layout.

    ``frame_results`` is an iterable of FrameResult-like objects with a
    ``frame`` index and ``tracks`` list of (id, box, score) entries,
    sorted by frame. Truncation and occlusion are written as -1, the
    image-plane fields as -10 / -1 placeholders. A duplicate (frame, id)
    pair fails before the file is opened.
    """
    seen: set[tuple[int, int]] = set()
    lines = []
    for result in frame_results:
        for track_id, box, score in result.tracks:
            key = (result.frame, track_id)
            if key in seen:
                raise ValueError(f"duplicate (frame, id) pair: {key}")
            seen.add(key)
            lines.append(_kitti_row(result.frame, track_id, object_type, "-1 -1", box, score))
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write("".join(lines))


def write_kitti_labels(records, path) -> None:
    """Write LabelRecords in the KITTI tracking label layout, with
    truncation and occlusion 0."""
    lines = [
        _kitti_row(rec.frame, rec.track_id, rec.object_type, "0 0", rec.box, rec.score)
        for rec in records
    ]
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write("".join(lines))
