"""File formats: detection input, tracking labels and tracking output.

Detection files hold one record per line, as whitespace text::

      frame x y z l w h heading score [start_prob] [[e0 e1 ... eD]]

The optional embedding is a bracketed vector at the end of the line; a
bare trailing number before it (or on its own) is the start
probability. Blank lines and lines starting with ``#`` are skipped. A
line starting with ``{`` is a JSON line, which is not read: it is a
structural fault of its line.

A detection sequence has one form in memory, ``{frame:
DetectionBatch}``: ascending frames, only the frames that have
detections, each batch holding the frame's boxes, scores, start
probabilities and embeddings as arrays, checked once, in file order.
``read_detections`` gives it, as does ``simgen.generate``, and
``write_detections`` writes it back as text lines, whole frames at a
time, with 6 decimals. A batch is also the tracker's one input form for
a frame; indexing it gives a ``Detection``, an unchecked view of one row.

The rules of a row are stated once, as one table of rules over many
rows, each rule the mask of the rows that break it and the message of
such a row, in the order a row is checked. The box rules
(``_box_rules``): every field x, y, z, l, w, h, a finite (the message
names the first that is not), the extents nonnegative, and each of x,
y, z, l, w, h at most 1e100 in magnitude (``_BOX_LIMIT``; the message
names the first that is not). Within that limit nothing the program
computes from two boxes overflows a float: the squared distance of
their centres and the diagonal of the box enclosing both, their
footprints and volumes and the sums of two. Then the detection rules
(``_detection_rules``): the frame nonnegative and within 64 bits, the
score in [0, 1], a given start probability in [0, 1], a given embedding
finite, each of its values at most 1e100 in magnitude
(``_EMBEDDING_LIMIT``), so that the distance of two embeddings stays
finite. A ``DetectionBatch`` and both readers check
rows against this table, and a faulty row is named by the first rule it
breaks (``_first_fault``).

Label and result files use the KITTI tracking layout: one object per
line, ``frame id type truncated occluded alpha bbox(4) h w l x y z
rotation_y [score]``. The image-plane fields cannot be produced here
and are written as the customary -1 / -10 placeholders. DontCare rows
and rows with a negative id are dropped; every number must be finite,
a dropped row's too, a kept row keeps the box rules, and no kept row
repeats the (frame, id) pair of an earlier kept row (``_repeat_rule``).
A type name is read whole, at any length.

Both readers first read a whole file in bulk and check it as a table.
``read_detections`` splits each line into its fields as text, then reads
the numbers of the whole file by one ``np.loadtxt`` call for the leading
fields and one for the embeddings, which read a number to the same bits
as Python's ``float``. ``read_kitti_labels`` opens a file once and reads
it by one structured ``np.loadtxt`` call, with the field count of its
first non-blank line.

A faulty file fails at its first faulty line, with the file and line
number, by one reading path for both readers:

* one line loop (``_read_lines``) reads the file up to its first
  structural fault: a byte that is not UTF-8, then what the reader's
  line split (``_split_text``, ``_split_label``) finds: a detection
  line's JSON form, brackets, number of fields or frame token, a label
  line's field count and a frame and id beyond 64 bits;
* when the bulk check fails, one numeric walk (``_walk``) reads those
  rows' tokens one row at a time, up to the first that does not read
  as a finite number (``not a number`` or ``non-finite value``; a
  detection line's embedding before its head);
* one table check (``_check``) names the first faulty row read, by the
  first rule it breaks: for a detection row the box rules, the frame,
  the detection rules, then the embedding size against the file's first
  embedding; for a kept label row the box rules, then its (frame, id)
  pair.

A faulty row read fails first, then the walk's token fault, then the
structural fault. A line whose faults are all value faults thus names
the first of them in that order; only a line with both a structural
and a value fault names the structural one, wherever it stands.

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
import math
import numbers
import operator
import os
from typing import NamedTuple, Optional

import numpy as np

from .geometry import wrap_angle

# A JSON config gives Python floats and ints; those skip the slower
# checks against the abstract number types.
def is_real(v) -> bool:
    """A real number (numpy scalars included), but not a bool."""
    return type(v) in (float, int) or (
        isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
    )


def is_integer(v) -> bool:
    """An integer (numpy integers included), but not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, (bool, np.bool_))


# The largest magnitude of a box's x, y, z, l, w and h. Below it, what is
# computed from two boxes stays finite: the square of a difference of
# their coordinates or of an enclosing span (at most about 1e201, three
# of them summed), a footprint or the sum of two (2e200), a volume or
# the sum of two (2e300).
_BOX_LIMIT = 1e100

# The largest magnitude of an embedding value. Below it, the L1 distance
# of two embeddings of D values stays finite for any D below 8e207.
_EMBEDDING_LIMIT = 1e100

# The frames and ids a table holds.
_INT64 = range(-(2**63), 2**63)


def _frame_fault(frame: int) -> str | None:
    """The fault of a frame index that is negative or beyond 64 bits."""
    if frame < 0:
        return f"frame must be nonnegative, got {frame}"
    if frame not in _INT64:
        return f"frame beyond 64 bits: {frame}"
    return None


def check_frame(frame) -> int:
    """A frame index as an int; a bool, non-integer or negative frame, or
    one beyond 64 bits, is rejected."""
    if type(frame) is not int:
        if not is_integer(frame):
            raise ValueError(f"frame must be an integer, got {frame!r}")
        frame = int(frame)
    fault = _frame_fault(frame)
    if fault is not None:
        raise ValueError(fault)
    return frame


def _box_rules(box) -> list[tuple]:
    """The box rules over (M, 7) boxes, in the order a box is checked,
    each the mask of the boxes that break it and the message of box i:
    every field finite (the message names the first that is not), the
    extents nonnegative, and each of x, y, z, l, w, h at most
    ``_BOX_LIMIT`` in magnitude (the message names the first that is
    not), so that nothing computed from two boxes overflows a float."""

    def first(i, fields, fault):
        return next((n, v) for n, v in zip(fields, box[i].tolist()) if fault(v))

    def not_finite(i):
        name, v = first(i, "xyzlwha", lambda v: not math.isfinite(v))
        return f"box field {name} is not finite: {v!r}"

    def beyond(i):
        name, v = first(i, "xyzlwh", lambda v: abs(v) > _BOX_LIMIT)
        return f"box field {name} is beyond {_BOX_LIMIT!r} in magnitude: {v!r}"

    def got(i):
        return "got l={} w={} h={}".format(*box[i, 3:6].tolist())

    return [
        (~np.isfinite(box).all(axis=1), not_finite),
        ((box[:, 3:6] < 0.0).any(axis=1), lambda i: f"box extents must be nonnegative, {got(i)}"),
        ((np.abs(box[:, :6]) > _BOX_LIMIT).any(axis=1), beyond),
    ]


def _detection_rules(frames, table, given, has_embedding) -> list[tuple]:
    """The rules of detection rows in the order a row is checked, in the
    form of ``_box_rules``: the box rules, then the detection rules: the
    frame nonnegative and within 64 bits, the score in [0, 1], a given
    start probability in [0, 1], a given embedding finite and each of its
    values at most ``_EMBEDDING_LIMIT`` in magnitude (the message names
    the first that is not). ``table`` holds each row's box, score, start
    probability and D embedding values (D = 0 when no row has one);
    ``frames`` is an array of ints, an object array where they do not
    all fit 64 bits."""
    score, start_prob, embedding = table[:, 7], table[:, 8], table[:, 9:]
    nonfinite = has_embedding & ~np.isfinite(embedding).all(axis=1)
    beyond = has_embedding & (np.abs(embedding) > _EMBEDDING_LIMIT).any(axis=1)

    def beyond_limit(i):
        v = next(v for v in embedding[i].tolist() if abs(v) > _EMBEDDING_LIMIT)
        return f"embedding value is beyond {_EMBEDDING_LIMIT!r} in magnitude: {v!r}"

    return _box_rules(table[:, :7]) + [
        ((frames < 0) | (frames >= 2**63), lambda i: _frame_fault(int(frames[i]))),
        (~((score >= 0.0) & (score <= 1.0)), lambda i: f"score must be in [0, 1], got {score[i]}"),
        (
            given & ~((start_prob >= 0.0) & (start_prob <= 1.0)),
            lambda i: f"start_prob must be in [0, 1], got {start_prob[i]}",
        ),
        (nonfinite, lambda i: "embedding contains non-finite values"),
        (beyond, beyond_limit),
    ]


def _first_fault(rules) -> tuple[int, str] | None:
    """The first row that breaks one of ``rules`` and the message of the
    first rule it breaks; None when every row keeps every rule."""
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    if not broken.any():
        return None
    i = int(broken.argmax())
    return i, next(message for mask, message in rules if mask[i])(i)


def _repeat_rule(frames, ids, lines=None) -> tuple:
    """The rule, in the form of ``_box_rules``, that no row holds the
    (frame, id) pair of an earlier row. The message names the pair and,
    given the rows' ``lines``, the line of the pair's first row."""
    order = np.lexsort((ids, frames))  # stable: row order within a pair
    f, d = frames[order], ids[order]
    repeats = np.zeros(len(order), dtype=bool)
    repeats[order[1:]] = (f[1:] == f[:-1]) & (d[1:] == d[:-1])

    def message(i):
        pair = f"duplicate (frame, id) pair: ({frames[i]}, {ids[i]})"
        if lines is None:
            return pair
        first = np.flatnonzero((frames == frames[i]) & (ids == ids[i]))[0]
        return f"{pair}, first on line {lines[first]}"

    return repeats, message


class Detection(NamedTuple):
    """One row of a ``DetectionBatch``, as indexing the batch gives it:
    the frame, the (x, y, z, l, w, h, a) box as a (7,) array, the score,
    and the embedding and start probability, None where the detection
    has none. A view, unchecked: the batch holds the checked arrays."""

    frame: int
    box: np.ndarray
    score: float
    embedding: Optional[np.ndarray] = None
    start_prob: Optional[float] = None


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


class DetectionBatch:
    """One frame's detections as arrays, checked once when built.

    ``boxes`` is (M, 7) with headings wrapped to (-pi, pi], ``scores``
    (M,) and ``start_prob`` (M,), NaN where a detection has none.
    ``embeddings`` is (M, D), with a NaN row where a detection has none,
    or None when no detection has one. Indexing and iteration give a
    ``Detection`` view of one row. The frame is an integer in [0, 2**63),
    and each row keeps the row rules; a faulty row is named by its index
    and the first rule it breaks.
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
        if embeddings is not None:
            embeddings = _real_array("embeddings", embeddings)
            if embeddings.ndim != 2 or len(embeddings) != m or embeddings.shape[1] == 0:
                raise ValueError(
                    f"embeddings must be an ({m}, D) array, D >= 1, got shape {embeddings.shape}"
                )
        embeddings = np.zeros((m, 0)) if embeddings is None else embeddings
        has_embedding = ~np.isnan(embeddings).all(axis=1)
        table = np.column_stack([boxes, scores, start_prob, embeddings])
        rules = _detection_rules(np.full(m, frame), table, ~np.isnan(start_prob), has_embedding)
        fault = _first_fault(rules)
        if fault is not None:
            raise ValueError("detection {}: {}".format(*fault))
        boxes[:, 6] = wrap_angle(boxes[:, 6])
        self.frame, self.boxes, self.scores, self.start_prob = frame, boxes, scores, start_prob
        self.embeddings = embeddings if has_embedding.any() else None

    @classmethod
    def _checked(cls, frame, boxes, scores, start_prob, embeddings) -> "DetectionBatch":
        """A batch of arrays that ``read_detections`` has already checked."""
        batch = cls.__new__(cls)
        batch.frame, batch.boxes, batch.scores, batch.start_prob = frame, boxes, scores, start_prob
        batch.embeddings = embeddings
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
        start_prob = None if math.isnan(start_prob) else start_prob
        return Detection(self.frame, self.boxes[i], float(self.scores[i]), embedding, start_prob)

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


def _read_lines(path: str, split) -> tuple[list, tuple | None]:
    """The rows that ``split`` makes of a file's lines, each led by its
    line number, up to the first line with a structural fault, and that
    fault as (line number, message), or None. A line holding a byte that
    is not UTF-8 is faulty; blank lines, and lines that ``split`` gives
    None for, are skipped. ``split`` takes a stripped line and raises a
    ValueError naming a fault, or an OverflowError for a number too large
    for a float."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                if not line.isascii():  # a byte that is not UTF-8 reads as a lone surrogate
                    line.encode("utf-8")
                line = line.strip()
                if line and (row := split(line)) is not None:
                    rows.append((lineno, *row))
            except UnicodeEncodeError as e:
                return rows, (lineno, f"not UTF-8: byte {ord(line[e.start]) - 0xDC00:#04x}")
            except (ValueError, OverflowError) as e:
                return rows, (lineno, str(e))
    return rows, None


def _walk(rows) -> tuple[list[list[float]], tuple | None]:
    """The numbers of (line number, tokens) rows, read one row at a time
    (``_number``) up to the first whose tokens do not all read as finite
    numbers, and that row's (line number, message), or None."""
    values = []
    for lineno, tokens in rows:
        try:
            values.append([_number(t) for t in tokens])
        except ValueError as e:
            return values, (lineno, str(e))
    return values, None


def _check(path: str, lines, rules, fault) -> None:
    """Fail at the line (``lines[i]``) of the first row that breaks one of
    ``rules`` (see ``_first_fault``), else at ``fault``, a (line number,
    message) from a later line, if given."""
    row_fault = _first_fault(rules)
    if row_fault is not None:
        _fail(path, lines[row_fault[0]], row_fault[1])
    if fault is not None:
        _fail(path, *fault)


def _split_text(line: str) -> tuple | None:
    """The fields of a detection line's row that follow its line number
    (see ``_read_rows``); None for a comment line. A structural fault
    raises a ValueError naming it."""
    if line[0] == "#":
        return None
    if line[0] == "{":
        raise ValueError("JSON lines are not read; a detection line is whitespace text")
    embedding = None
    if "[" in line:
        head, _, tail = line.partition("[")
        vec = tail.rsplit("]", 1)
        if len(vec) != 2 or vec[1].strip():
            raise ValueError("malformed embedding brackets")
        embedding = vec[0].replace(",", " ")
        if not embedding.strip():
            raise ValueError("empty embedding")
        line = head
    tokens = line.split()
    if len(tokens) not in (9, 10):
        raise ValueError(f"expected 9 or 10 leading fields, got {len(tokens)}")
    try:
        frame = int(tokens[0])
    except ValueError:
        raise ValueError(f"bad frame index: {tokens[0]!r}") from None
    given = len(tokens) == 10
    return frame, line if given else line + " nan", given, embedding


def _read_rows(path: str, rows: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The frames (M,) of a detection file's rows and their (M, 9 + D)
    table: the box, the score, the start probability (NaN when absent)
    and the D embedding values (NaN when absent).

    A row holds a line's number, frame, head (the frame token, the 7 box
    values, the score and the start probability, "nan" when absent),
    whether the start probability is given, and its embedding text or
    None. The heads are read by one ``np.loadtxt`` call and the
    embeddings by another, and checked as a table. When a check fails,
    the rows' tokens are walked one row at a time (``_walk``), a row's
    embedding before its head, and the rows read are checked as a table:
    each row against ``_detection_rules``, then its embedding size
    against the first embedding's. This fails at the first faulty row."""
    lines, frames, heads, given, embeddings = zip(*rows)
    has_embedding = np.array([e is not None for e in embeddings])
    vectors = [e for e in embeddings if e is not None]
    head, emb = _floats(heads), _floats(vectors) if vectors else np.zeros((0, 0))
    # A frame beyond 64 bits makes the column uint64, float or object,
    # and breaks the frame rule.
    frame_column = np.array(frames)
    if head is not None and emb is not None:
        table = np.full((len(rows), 9 + emb.shape[1]), np.nan)
        table[:, :9] = head[:, 1:]
        table[has_embedding, 9:] = emb
        rules = _detection_rules(frame_column, table, np.array(given), has_embedding)
        if _first_fault(rules) is None:
            return frame_column, table
    tokens = ((e or "").split() + h.split()[1 : 9 + g] for h, g, e in zip(heads, given, embeddings))
    values, fault = _walk(zip(lines, tokens))
    n = len(values)
    given = np.array(given[:n], dtype=bool)
    sizes = np.array([len(v) for v in values], dtype=int) - 8 - given  # of the embeddings
    table = np.zeros((n, 9 + sizes.max(initial=0)))  # embedding tails left 0
    for i, (v, k) in enumerate(zip(values, sizes.tolist())):
        table[i, : len(v) - k] = v[k:]
        table[i, 9 : 9 + k] = v[:k]
    table[~given, 8] = np.nan
    has_embedding = sizes > 0
    size = next(iter(sizes[has_embedding].tolist()), 0)  # the first embedding's

    def size_fault(i):
        return f"embedding has {sizes[i]} values, line {lines[has_embedding.argmax()]} has {size}"

    rules = _detection_rules(np.array(frames[:n], dtype=object), table, given, has_embedding)
    _check(path, lines, rules + [(has_embedding & (sizes != size), size_fault)], fault)
    table[~has_embedding, 9:] = np.nan
    return np.array(frames, dtype=np.int64), table


def read_detections(path) -> dict[int, DetectionBatch]:
    """Read a detection file into {frame: DetectionBatch}.

    Frames are returned in ascending order; the in-file order within a
    frame is preserved. Every embedding in a file has the same size,
    since tracks compare embeddings across frames.

    Each line is split into its fields as text, up to the first line
    with a structural fault (``_read_lines``); the numbers of those lines
    are then read and checked at once (``_read_rows``), so that an
    earlier faulty line fails first, before the structural fault fails
    at its line.
    """
    path = os.fspath(path)
    rows, fault = _read_lines(path, _split_text)
    frames, table = _read_rows(path, rows) if rows else (np.zeros(0, np.int64), np.zeros((0, 9)))
    del rows  # the row text is not held while the batches are built
    if fault is not None:
        _fail(path, *fault)
    order, groups = frame_groups(frames)
    table = table if order is None else table[order]
    table[:, 6] = wrap_angle(table[:, 6])
    out = {}
    for frame, a, b in groups:
        part = table[a:b]
        emb = None if np.isnan(part[:, 9:10]).all() else part[:, 9:]  # None when none has one
        out[frame] = DetectionBatch._checked(frame, part[:, :7], part[:, 7], part[:, 8], emb)
    return out


# frame, the box and the score; a given start probability and embedding follow.
_TEXT_ROW = "%d" + " %.6f" * 8


def write_detections(detections, path) -> None:
    """Write ``{frame: DetectionBatch}``, as ``read_detections`` gives it,
    as text lines with 6 decimals.

    Frames are written in the dict's order, each batch's rows in their
    order; a start probability or embedding is written only where a
    detection has one.
    """
    lines = []
    for batch in detections.values():
        heads = np.column_stack([batch.boxes, batch.scores]).tolist()
        embeddings = batch.embeddings
        embeddings = np.full((len(batch), 1), np.nan) if embeddings is None else embeddings
        for head, p, e in zip(heads, batch.start_prob.tolist(), embeddings.tolist()):
            # NaN marks a start probability or embedding the detection lacks
            line = _TEXT_ROW % (batch.frame, *head)
            if not math.isnan(p):
                line += " %.6f" % p
            if not math.isnan(e[0]):
                line += " [" + " ".join(["%.6f"] * len(e)) % tuple(e) + "]"
            lines.append(line)
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


# A KITTI row's h w l x y z rotation_y, as fields of an (x, y, z, l, w,
# h, a) box; the readers take a row's box in the inverse order, its argsort.
_KITTI_BOX = [5, 4, 3, 0, 1, 2, 6]


# The fields of a label line before its numbers.
_LABEL_FIELDS = [("frame", np.int64), ("id", np.int64), ("type", object)]


def _kept_rows(table, keep_types) -> tuple[tuple, np.ndarray]:
    """The rows of a label table that a reader keeps, as (frames, ids,
    types, boxes, scores), the score NaN without a score column, and the
    mask of those rows: DontCare rows, rows with a negative id and rows
    of a type outside ``keep_types`` (when given) are dropped."""
    keep = (table["id"] >= 0) & (table["type"] != "DontCare")
    if keep_types is not None:
        keep &= np.array([t in keep_types for t in table["type"].tolist()], dtype=bool)
    kept = table[keep]
    numbers = kept["numbers"]
    boxes = numbers[:, 7:14][:, np.argsort(_KITTI_BOX)]
    scores = numbers[:, 14] if numbers.shape[1] == 15 else np.full(len(kept), np.nan)
    return (kept["frame"], kept["id"], kept["type"], boxes, scores), keep


def _label_rules(columns, lines=None) -> list[tuple]:
    """The rules of kept label rows, as ``_kept_rows`` gives them, in the
    order a line is checked: the box rules, then a (frame, id) pair no
    earlier kept row holds (given the rows' ``lines``, the message names
    the line of that row)."""
    return _box_rules(columns[3]) + [_repeat_rule(*columns[:2], lines)]


def _label_rows(path: str, keep_types) -> tuple | None:
    """The kept rows of a label file, as ``_kept_rows`` gives them: the
    file read by one ``np.loadtxt`` call, its first non-blank line
    deciding the field count, and checked as a table. None when the file
    does not read so (no data line, a decoding fault, a line
    ``np.loadtxt`` does not read, 17 and 18 fields mixed) or holds a
    faulty row."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            fields = len(next((line for line in f if line.strip()), "").split())
            if fields not in (17, 18):
                return None
            f.seek(0)
            dtype = _LABEL_FIELDS + [("numbers", np.float64, (fields - 3,))]
            table = np.loadtxt(f, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    columns, _ = _kept_rows(table, keep_types)
    ok = np.isfinite(table["numbers"]).all() and _first_fault(_label_rules(columns)) is None
    return columns if ok else None


def _split_label(line: str) -> tuple:
    """The frame, id, type and number tokens of a label line; a
    structural fault (the field count, the frame or id) raises a
    ValueError naming it."""
    tokens = line.split()
    if len(tokens) not in (17, 18):
        raise ValueError(f"expected 17 or 18 fields, got {len(tokens)}")
    try:
        frame, track_id = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError("bad frame or track id") from None
    if frame not in _INT64 or track_id not in _INT64:
        raise ValueError("frame or track id beyond 64 bits")
    return frame, track_id, tokens[2], tokens[3:]


def _walk_labels(path: str, keep_types) -> tuple:
    """The rows ``_label_rows`` gives, of the file read one line at a time
    (``_read_lines``, ``_walk``) up to the first line with a structural
    fault or a token that does not read as a finite number; the kept rows
    read are then checked against ``_label_rules``. Fails at the first
    faulty line."""
    rows, fault = _read_lines(path, _split_label)
    values, walk_fault = _walk((row[0], row[4]) for row in rows)
    # a line without a score column reads a NaN score
    records = [(*row[1:4], v + [math.nan] * (15 - len(v))) for row, v in zip(rows, values)]
    table = np.array(records, dtype=_LABEL_FIELDS + [("numbers", np.float64, (15,))])
    columns, keep = _kept_rows(table, keep_types)
    lines = np.array([row[0] for row in rows[: len(values)]], dtype=np.int64)[keep]
    _check(path, lines, _label_rules(columns, lines), walk_fault or fault)
    return columns


def read_kitti_labels(path, keep_types=None) -> np.recarray:
    """Read KITTI tracking labels (or results) as one table, in file order.

    The table is a record array with the fields ``frame``, ``type``,
    ``id``, ``box`` (x, y, z, l, w, h, a) and ``score``, NaN where a
    row has no score column. The 2D bbox, truncation and occlusion
    fields are read for validation but not kept. ``keep_types``
    optionally restricts the object classes; rows of type DontCare, and
    rows with a negative id, are always dropped. Every number must be
    finite, a dropped row's too; a kept row must keep the box rules
    (nonnegative extents, each coordinate and extent at most 1e100 in
    magnitude), and its (frame, id) pair must not repeat an earlier
    kept row's.

    The file is read by one ``np.loadtxt`` call and its rules checked
    as vectors over the table, each type name read whole. A file that
    does not read so or breaks a rule is read again one line at a time,
    which fails at the first faulty line, with the file and line number;
    so does a line holding a byte that is not UTF-8.
    """
    path = os.fspath(path)
    rows = _label_rows(path, keep_types) or _walk_labels(path, keep_types)
    frames, ids, types, boxes, scores = rows
    boxes[:, 6] = wrap_angle(boxes[:, 6])
    return object_table(frames, ids, types, boxes, scores)


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
    columns += [rows["box"][:, k].tolist() for k in _KITTI_BOX]
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
    fault = _first_fault([_repeat_rule(frames, tracks["id"])])
    if fault is not None:
        raise ValueError(fault[1])
    _write_kitti(path, frames, itertools.repeat(object_type), "-1 -1", tracks)


def write_kitti_labels(table, path) -> None:
    """Write a label table, as ``read_kitti_labels`` gives it, in the KITTI
    tracking label layout, with truncation and occlusion 0."""
    _write_kitti(path, table["frame"], table["type"].tolist(), "0 0", table)
