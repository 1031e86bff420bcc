"""Frames built by hand, as the package's arrays.

Tests write one frame's objects as ``{id: Box3D}``; the tracker, the
KITTI readers and the evaluator hold them as record arrays of
``io_formats.ROW_DTYPE``. ``rows`` is the one conversion. Tests write
one frame's detections as objects with a box, score, start probability
and embedding; ``batch`` stacks them into the ``DetectionBatch`` the
tracker takes.
"""

import numpy as np

from mipmot.io_formats import ROW_DTYPE, DetectionBatch


def rows(boxes: dict, scores=None) -> np.recarray:
    """The rows of ``{id: Box3D}``, in dict order; the scores, one per
    box, are NaN unless given."""
    ids = np.array(list(boxes), dtype=np.int64)
    if scores is None:
        scores = np.full(len(ids), np.nan)
    arrays = np.reshape([b.to_array() for b in boxes.values()], (-1, 7))
    return np.rec.fromarrays((ids, arrays, scores), dtype=ROW_DTYPE)


def batch(frame, *detections) -> DetectionBatch:
    """The ``DetectionBatch`` of ``frame`` whose rows are ``detections``,
    in order: objects with a ``box`` (``Box3D``), ``score``,
    ``start_prob`` and ``embedding``, None where absent, such as
    ``Detection``s (whose own frame is not read)."""
    embeddings = [d.embedding for d in detections]
    given = [e for e in embeddings if e is not None]
    if given:
        embeddings = [np.full(len(given[0]), np.nan) if e is None else e for e in embeddings]
    return DetectionBatch(
        frame,
        np.reshape([d.box.to_array() for d in detections], (-1, 7)),
        [d.score for d in detections],
        [np.nan if d.start_prob is None else d.start_prob for d in detections],
        embeddings if given else None,
    )
