"""Frames of boxes built by hand, as the package's rows.

Tests write one frame's objects as ``{id: Box3D}``; the tracker, the
KITTI readers and the evaluator hold them as record arrays of
``io_formats.ROW_DTYPE``. ``rows`` is the one conversion.
"""

import numpy as np

from mipmot.io_formats import ROW_DTYPE


def rows(boxes: dict, scores=None) -> np.recarray:
    """The rows of ``{id: Box3D}``, in dict order; the scores, one per
    box, are NaN unless given."""
    ids = np.array(list(boxes), dtype=np.int64)
    if scores is None:
        scores = np.full(len(ids), np.nan)
    arrays = np.reshape([b.to_array() for b in boxes.values()], (-1, 7))
    return np.rec.fromarrays((ids, arrays, scores), dtype=ROW_DTYPE)
