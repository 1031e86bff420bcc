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

A detection sequence has one form in memory, ``{frame:
DetectionBatch}``: ascending frames, only the frames that have
detections, each batch holding the frame's boxes, scores, start
probabilities and embeddings as arrays, checked once, in file order.
``read_detections`` gives it, as does ``simgen.generate``, and
``write_detections`` writes it back, whole frames at a time, with 6
decimals in text and 9 in JSON lines. A batch is also the tracker's one
input form for a frame. ``Detection`` states the rules of one row; it is
the view that indexing a batch gives, and it names a faulty row.

``read_detections`` splits each line into its fields as text; the
numbers of a few thousand lines at a time are then read by one
``np.loadtxt`` call, which reads a number to the same bits as Python's
``float``, and checked as a table. A faulty file fails at its first
faulty line, with the file and line number.

A structural fault (brackets, the number of fields, the frame token,
the shape of a JSON record) fails as its line is split. A chunk of
lines whose numbers do not all read, or that holds a row breaking a
rule, is read again one row at a time, and each row is checked in the
order a per-record reader checks it: a text line's tokens, embedding
first (``not a number`` or ``non-finite value``); then the rules of
``Box3D`` and ``Detection``, by building them, so that their messages
are the ones given; then the embedding size against the file's first
embedding. A line whose faults are all value faults thus names the
first of them in that order; only a line with both a structural and a
value fault names the structural one, wherever it stands.

Label and result files use the KITTI tracking layout: one object per
line, ``frame id type truncated occluded alpha bbox(4) h w l x y z
rotation_y [score]``. The image-plane fields cannot be produced here
and are written as the customary -1 / -10 placeholders. Their numeric
columns are read and checked in bulk in the same way, with the same
token check and the extents rule of ``Box3D``. A kept row may not
repeat the (frame, id) pair of an earlier kept row.

Objects are stored as record arrays, never as one object per row.
``read_kitti_labels`` (and ``simgen.generate``) give one table for a
whole file, in file order, with the fields ``frame``, ``type``, ``id``,
``box`` (x, y, z, l, w, h, a) and ``score``; the score is NaN where the
file has no score column. One frame's objects, such as a tracker's
``FrameResult.tracks``, have the fields ``id``, ``box`` and ``score``
(``ROW_DTYPE``). ``write_kitti_labels`` and ``write_kitti_tracking``
write from these arrays and leave a NaN score out.
"""

from __future__ import annotations

import itertools
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


# The readers give Python floats and ints; those skip the slower checks
# against the abstract number types.
def is_real(v) -> bool:
    """A real number (numpy scalars included), but not a bool."""
    return type(v) in (float, int) or (
        isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
    )


# The frames and ids a table holds.
_INT64 = range(-(2**63), 2**63)


def check_frame(frame) -> int:
    """A frame index as an int; a bool, non-integer or negative frame, or
    one beyond 64 bits, is rejected."""
    if type(frame) is not int:
        if not isinstance(frame, numbers.Integral) or isinstance(frame, (bool, np.bool_)):
            raise ValueError(f"frame must be an integer, got {frame!r}")
        frame = int(frame)
    if frame < 0:
        raise ValueError(f"frame must be nonnegative, got {frame}")
    if frame not in _INT64:
        raise ValueError(f"frame beyond 64 bits: {frame}")
    return frame


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


def _broken(boxes, scores, start_prob, has_start_prob, embeddings, has_embedding):
    """(M,) bool: the rows that break a rule of ``Box3D`` or ``Detection``:
    a finite box with nonnegative extents, a score and a given start
    probability in [0, 1], a finite embedding where given."""
    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 3:6] < 0.0).any(axis=1)
    bad |= ~((scores >= 0.0) & (scores <= 1.0))
    bad |= has_start_prob & ~((start_prob >= 0.0) & (start_prob <= 1.0))
    if embeddings is not None:
        bad |= has_embedding & ~np.isfinite(embeddings).all(axis=1)
    return bad


def _real_array(name: str, values) -> np.ndarray:
    """A float copy of an array of real numbers; bools and other types fail."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float)


# One frame's objects, one record each: the track id, the (x, y, z, l,
# w, h, a) box and the score, NaN where there is none.
ROW_DTYPE = np.dtype([("id", np.int64), ("box", np.float64, (7,)), ("score", np.float64)])


def object_table(frames, ids, types, boxes, scores) -> np.recarray:
    """The objects of a whole file as one record array: ``frame``,
    ``type`` and the fields of ``ROW_DTYPE``."""
    types = np.asarray(types, dtype=str)
    dtype = [("frame", np.int64), ("type", types.dtype), *ROW_DTYPE.descr]
    return np.rec.fromarrays((frames, types, ids, np.reshape(boxes, (-1, 7)), scores), dtype=dtype)


def frame_groups(frames: np.ndarray) -> tuple[np.ndarray | None, list[tuple[int, int, int]]]:
    """Group rows by ascending frame: the stable order that does it (None
    when the rows already are in frame order, so that each group is a
    slice of them) and the (frame, start, stop) of each group in that
    order."""
    if not len(frames):
        return None, []
    order = np.argsort(frames, kind="stable") if (frames[1:] < frames[:-1]).any() else None
    if order is not None:
        frames = frames[order]
    cuts = [0, *(np.flatnonzero(frames[1:] != frames[:-1]) + 1).tolist(), len(frames)]
    return order, [(int(frames[a]), a, b) for a, b in zip(cuts, cuts[1:])]


class DetectionBatch(Sequence):
    """One frame's detections as arrays, checked once when built.

    ``boxes`` is (M, 7) with headings wrapped to (-pi, pi], ``scores``
    (M,) and ``start_prob`` (M,), NaN where a detection has none.
    ``embeddings`` is (M, D), with a NaN row where a detection has none,
    or None when no detection has one. Indexing and iteration give a
    ``Detection`` view of one row. The frame is an integer in [0, 2**63).
    """

    def __init__(self, frame, boxes, scores, start_prob=None, embeddings=None):
        frame = check_frame(frame)
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
        # The first faulty row is built as a Detection, which names its fault.
        bad = _broken(boxes, scores, start_prob, ~np.isnan(start_prob), embeddings, has_embedding)
        for i in np.flatnonzero(bad):
            try:
                Detection(
                    frame,
                    Box3D(*boxes[i].tolist()),
                    float(scores[i]),
                    embeddings[i] if has_embedding[i] else None,
                    None if math.isnan(start_prob[i]) else float(start_prob[i]),
                )
            except ValueError as e:
                raise ValueError(f"detection {i}: {e}") from None
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


class FormatError(ValueError):
    """Malformed input file; the message carries file and line context."""


def _fail(path: str, lineno: int, msg: str):
    raise FormatError(f"{path}:{lineno}: {msg}")


def _number(token: str) -> float:
    """A text token as a finite float; a faulty token is named."""
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"non-finite value: {token!r}")
    return v


def _floats(rows) -> np.ndarray | None:
    """The numbers of text rows as one 2-D array, read by one
    ``np.loadtxt`` call; None when a row does not read (a numeral that
    only ``float`` reads, such as ``1_0``, included) or the rows differ
    in length."""
    try:
        return np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError:
        return None


class _DetectionReader:
    """The records of one detection file, checked a chunk of lines at a time.

    A line is split into its fields as text and kept as a row: its line
    number, frame, head (a frame column, the 7 box values, the score and
    the start probability, "nan" when absent), whether the start
    probability is given, its embedding text or None, and whether the
    line is text (whose numbers are checked token by token) or JSON.
    """

    def __init__(self, path: str):
        self.path = path
        self.rows: list[tuple] = []
        self.first_embedding: tuple[int, int] | None = None  # (size, line number)
        self.parts: list[tuple] = []  # (frames, values, embeddings) of each checked chunk

    def fail(self, lineno: int, msg: str):
        """Fail at ``lineno`` once the rows before it, which may hold an
        earlier fault, are checked."""
        self.flush()
        _fail(self.path, lineno, msg)

    def add(self, lineno, frame, head, has_start_prob, embedding, text) -> None:
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
        if rows:
            frames = np.array([row[1] for row in rows])
            self.parts.append((frames, *(self.read(rows, frames) or self.walk(rows))))

    def read(self, rows, frames) -> tuple[np.ndarray, np.ndarray | None] | None:
        """The (M, 9) box, score and start probability array and the
        embedding array of the rows, read by ``np.loadtxt``; None when a
        row does not read, has an embedding of another size or breaks a
        rule."""
        linenos, _, heads, given, embeddings, _ = zip(*rows)
        head = _floats(heads)
        if head is None:
            return None
        with_embedding = [i for i, e in enumerate(embeddings) if e is not None]
        full = None
        if with_embedding:
            emb = _floats([embeddings[i] for i in with_embedding])
            if emb is None:
                return None
            if self.first_embedding is None:
                self.first_embedding = (emb.shape[1], linenos[with_embedding[0]])
            if emb.shape[1] != self.first_embedding[0]:
                return None
            full = np.full((len(rows), emb.shape[1]), np.nan)
            full[with_embedding] = emb
        has_embedding = np.array([e is not None for e in embeddings])
        bad = _broken(head[:, 1:8], head[:, 8], head[:, 9], np.array(given), full, has_embedding)
        # A frame beyond 64 bits makes the column uint64 or object.
        if frames.dtype != np.int64 or (bad | (frames < 0)).any():
            return None
        return head[:, 1:], full

    def walk(self, rows) -> tuple[np.ndarray, np.ndarray | None]:
        """The arrays ``read`` gives, of rows read one at a time, each
        checked in turn: a text line's tokens, embedding first; then the
        rules of ``Box3D`` and ``Detection``, by building them; then the
        embedding size. Fails at the first faulty row."""
        table, vectors = [], {}
        for i, (lineno, frame, head, given, embedding, text) in enumerate(rows):
            number = _number if text else float
            try:
                vector = None if embedding is None else [number(t) for t in embedding.split()]
                values = [number(t) for t in head.split()[1 : 9 + given]]
                start_prob = values[8] if given else None
                Detection(frame, Box3D(*values[:7]), values[7], vector, start_prob)
            except ValueError as e:
                _fail(self.path, lineno, str(e))
            if vector is not None:
                size, first = self.first_embedding = self.first_embedding or (len(vector), lineno)
                if len(vector) != size:
                    msg = f"embedding has {len(vector)} values, line {first} has {size}"
                    _fail(self.path, lineno, msg)
                vectors[i] = vector
            table.append(values + [math.nan] * (not given))
        full = None
        if vectors:
            full = np.full((len(rows), self.first_embedding[0]), np.nan)
            full[list(vectors)] = list(vectors.values())
        return np.array(table), full

    def batches(self) -> dict[int, DetectionBatch]:
        self.flush()
        if not self.parts:
            return {}
        frames, values = (np.concatenate([part[k] for part in self.parts]) for k in (0, 1))
        embeddings = None
        if self.first_embedding is not None:
            size = self.first_embedding[0]
            embeddings = np.concatenate(
                [np.full((len(f), size), np.nan) if e is None else e for f, _, e in self.parts]
            )
        order, groups = frame_groups(frames)
        if order is not None:
            values = values[order]
            embeddings = None if embeddings is None else embeddings[order]
        values[:, 6] = wrap_angle(values[:, 6])
        out = {}
        for frame, a, b in groups:
            emb = None if embeddings is None else embeddings[a:b]
            if emb is not None and np.isnan(emb[:, 0]).all():
                emb = None
            out[frame] = DetectionBatch._checked(
                frame, values[a:b, :7], values[a:b, 7], values[a:b, 8], emb
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


# frame, the box and the score; a given start probability and embedding follow.
_TEXT_ROW = "%d" + " %.6f" * 8


def write_detections(detections, path, json_lines: bool = False) -> None:
    """Write ``{frame: DetectionBatch}``, as ``read_detections`` gives it.

    Frames are written in the dict's order, each batch's rows in their
    order. Text lines hold 6 decimals, JSON lines 9 (``round``); a start
    probability or embedding is written only where a detection has one.
    """
    lines = []
    for batch in detections.values():
        heads = np.column_stack([batch.boxes, batch.scores]).tolist()
        embeddings = batch.embeddings
        if embeddings is None:
            embeddings = np.full((len(batch), 1), np.nan)
        for head, p, e in zip(heads, batch.start_prob.tolist(), embeddings.tolist()):
            # NaN marks a start probability or embedding the detection lacks
            p, e = (None if math.isnan(p) else p), (None if math.isnan(e[0]) else e)
            if json_lines:
                rec = {"frame": batch.frame, "box": [round(v, 9) for v in head[:7]]}
                rec["score"] = round(head[7], 9)
                if p is not None:
                    rec["start_prob"] = round(p, 9)
                if e is not None:
                    rec["embedding"] = [round(v, 9) for v in e]
                lines.append(json.dumps(rec, sort_keys=True))
            else:
                line = _TEXT_ROW % (batch.frame, *head)
                if p is not None:
                    line += " %.6f" % p
                if e is not None:
                    line += " [" + " ".join(["%.6f"] * len(e)) % tuple(e) + "]"
                lines.append(line)
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def _first_repeat(frames: np.ndarray, ids: np.ndarray) -> int | None:
    """The first row, in row order, whose (frame, id) pair an earlier row
    holds; None when every pair is distinct."""
    order = np.lexsort((ids, frames))  # stable: row order within a pair
    frames, ids = frames[order], ids[order]
    repeats = order[1:][(frames[1:] == frames[:-1]) & (ids[1:] == ids[:-1])]
    return int(repeats.min()) if repeats.size else None


def read_kitti_labels(path, keep_types=None) -> np.recarray:
    """Read KITTI tracking labels (or results) as one table, in file order.

    The table is a record array with the fields ``frame``, ``type``,
    ``id``, ``box`` (x, y, z, l, w, h, a) and ``score``, NaN where a
    row has no score column. The 2D bbox, truncation and occlusion
    fields are read for validation but not kept. ``keep_types``
    optionally restricts the object classes; DontCare rows (negative
    ids) are always dropped. Every number must be finite; the extents of
    a kept row must be nonnegative, and its (frame, id) pair must not
    repeat an earlier kept row's.
    """
    path = os.fspath(path)
    rows: list[tuple] = []  # (line number, frame, id, type, 15 numbers as text, score given)
    # (line numbers, frames, ids, types, 15 numbers) of the kept rows, a chunk each
    kept = [(np.zeros(0, np.int64),) * 3 + (np.zeros(0, str), np.zeros((0, 15)))]

    def flush() -> None:
        """Check the pending rows as a table, then keep the rows to keep. A
        table that does not read or holds a faulty row is read again one
        row at a time, to fail at the first faulty one."""
        if not rows:
            return
        linenos, frames, ids, types, numbers, scored = zip(*rows)
        rows.clear()
        ids, scored = np.array(ids, dtype=np.int64), np.array(scored)
        keep = ids >= 0
        if keep_types is not None:
            keep &= np.array([object_type in keep_types for object_type in types])
        values = _floats(numbers)
        if values is not None:
            bad = ~np.isfinite(values[:, :14]).all(axis=1) | (scored & ~np.isfinite(values[:, 14]))
            if (bad | (keep & (values[:, 7:10] < 0.0).any(axis=1))).any():
                values = None
        fault = None
        if values is None:
            values = np.full((len(ids), 15), np.nan)
            for i, (lineno, text, given) in enumerate(zip(linenos, numbers, scored)):
                try:
                    v = [_number(t) for t in text.split()[: 14 + given]]
                    if keep[i]:
                        Box3D(v[10], v[11], v[12], v[9], v[8], v[7], v[13])
                except ValueError as e:
                    fault = (lineno, str(e))
                    keep[i:] = False
                    break
                values[i, : len(v)] = v
        columns = (linenos, np.array(frames, dtype=np.int64), ids, np.array(types), values)
        kept.append(tuple(np.asarray(column)[keep] for column in columns))
        if fault is not None:
            fail(*fault)

    def table() -> tuple[np.ndarray, ...]:
        """The kept rows so far; fails at the first repeated (frame, id) pair."""
        linenos, frames, ids, types, values = (np.concatenate(c) for c in zip(*kept))
        i = _first_repeat(frames, ids)
        if i is not None:
            first = linenos[(frames == frames[i]) & (ids == ids[i])][0]
            msg = f"duplicate (frame, id) pair: ({frames[i]}, {ids[i]}), first on line {first}"
            _fail(path, linenos[i], msg)
        return frames, ids, types, values

    def fail(lineno: int, msg: str):
        flush()
        table()
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
            if frame not in _INT64 or track_id not in _INT64:
                fail(lineno, "frame or track id beyond 64 bits")
            # 15 numbers on every row: a missing score reads as NaN.
            scored = len(tokens) == 18
            numbers = " ".join(tokens[3:] if scored else [*tokens[3:], "nan"])
            rows.append((lineno, frame, track_id, tokens[2], numbers, scored))
            if len(rows) == _CHUNK_LINES:
                flush()
    flush()
    frames, ids, types, values = table()
    boxes = values[:, [10, 11, 12, 9, 8, 7, 13]]
    boxes[:, 6] = wrap_angle(boxes[:, 6])
    return object_table(frames, ids, types, boxes, values[:, 14])


# frame id type truncation occlusion, the image-plane placeholders, then
# h w l x y z rotation_y and the score; "%.0s" writes a NaN score as
# nothing. %-formatting takes two thirds of the time of the same row as
# an f-string, and gives the same text.
_KITTI_ROW = "%s %s %s %s -10 -1 -1 -1 -1 %.6f %.6f %.6f %.6f %.6f %.6f %.6f"
_KITTI_ROWS = (_KITTI_ROW + " %.6f\n", _KITTI_ROW + "%.0s\n")


def _write_kitti(path, frames, types, visibility, rows) -> None:
    """Write rows with the fields of ``ROW_DTYPE`` in the KITTI tracking
    layout, with one call. ``visibility`` holds the truncation and
    occlusion fields; a NaN score is left out."""
    columns = [frames.tolist(), rows["id"].tolist(), types, itertools.repeat(visibility)]
    columns += [rows["box"][:, k].tolist() for k in (5, 4, 3, 0, 1, 2, 6)]
    columns.append(rows["score"].tolist())
    unscored = np.isnan(rows["score"]).tolist()
    lines = [_KITTI_ROWS[u] % row for u, row in zip(unscored, zip(*columns))]
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write("".join(lines))


def write_kitti_tracking(frame_results, path, object_type: str = "Car") -> None:
    """Write tracker output in the KITTI tracking result layout.

    ``frame_results`` is an iterable of FrameResult-like objects with a
    ``frame`` index and ``tracks`` record array (fields ``id``, ``box``
    and ``score``, as ``ROW_DTYPE``), sorted by frame. Truncation and
    occlusion are written as -1, the image-plane fields as -10 / -1
    placeholders, and a NaN score is left out. A duplicate (frame, id)
    pair fails before the file is opened.
    """
    results = list(frame_results)
    tracks = np.concatenate([np.zeros(0, ROW_DTYPE), *(r.tracks for r in results)])
    frames = np.repeat([r.frame for r in results], [len(r.tracks) for r in results])
    i = _first_repeat(frames, tracks["id"])
    if i is not None:
        raise ValueError(f"duplicate (frame, id) pair: ({frames[i]}, {tracks['id'][i]})")
    _write_kitti(path, frames, itertools.repeat(object_type), "-1 -1", tracks)


def write_kitti_labels(table, path) -> None:
    """Write a label table, as ``read_kitti_labels`` gives it, in the KITTI
    tracking label layout, with truncation and occlusion 0."""
    _write_kitti(path, table["frame"], table["type"].tolist(), "0 0", table)
