"""Exact ground-plane overlap of two boxes, in rational arithmetic.

The reference that the overlap kernel of ``mipmot.geometry`` is checked
against. Each footprint's corners are computed without rounding, as
``fractions.Fraction``, from the box's float parameters and the float
cosine and sine of its heading. A Sutherland-Hodgman clip of one
footprint by the other and the shoelace sum of the clipped polygon then
run without rounding, so the area is exact for those corners wherever
the boxes sit.

Boxes are (x, y, z, l, w, h, a) 7-vectors or tuples.

The kernel's rules for degenerate input are applied as it states them:
a footprint whose float ``l * w`` is below ``EPS`` is flat and overlaps
nothing, and an overlap below ``EPS`` counts as zero.
"""

import math
import sys
from fractions import Fraction

from mipmot.geometry import EPS

# Signs of (l/2, w/2) at the footprint corners, counter-clockwise.
_SIGNS = ((1, 1), (-1, 1), (-1, -1), (1, -1))

# A kernel area may differ from the exact one by this share of the
# pair's size (``tolerance``): 8 machine epsilons.
RELATIVE = 8 * sys.float_info.epsilon


def corners(box):
    """The exact counter-clockwise corners of a box's footprint."""
    x, y, _, l, w, _, a = box
    x, y = Fraction(x), Fraction(y)
    c, s = Fraction(math.cos(a)), Fraction(math.sin(a))
    hl, hw = Fraction(l) / 2, Fraction(w) / 2
    return [(x + sl * hl * c - sw * hw * s, y + sl * hl * s + sw * hw * c) for sl, sw in _SIGNS]


def _clip(subject, clipper):
    """Sutherland-Hodgman clip of the convex polygon ``subject`` by the
    convex counter-clockwise polygon ``clipper``."""
    output = subject
    for i in range(len(clipper)):
        if not output:
            return []
        (ax, ay), (bx, by) = clipper[i], clipper[(i + 1) % len(clipper)]
        ex, ey = bx - ax, by - ay
        points, output = output, []
        prev = points[-1]
        prev_side = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in points:
            side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if (side >= 0) != (prev_side >= 0):
                t = prev_side / (prev_side - side)
                output.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if side >= 0:
                output.append(cur)
            prev, prev_side = cur, side
    return output


def _shoelace(poly):
    n = len(poly)
    terms = (
        poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1] for i in range(n)
    )
    return sum(terms, Fraction(0)) / 2


def area(b1, b2) -> Fraction:
    """The exact ground-plane overlap of two boxes, 0 if one is flat."""
    if b1[3] * b1[4] < EPS or b2[3] * b2[4] < EPS:
        return Fraction(0)
    return _shoelace(_clip(corners(b1), corners(b2)))


def tolerance(b1, b2) -> float:
    """``RELATIVE`` times half the squared diagonals of the two
    footprints together.

    For two squares that is their two areas together. It grows with
    elongation, because float arithmetic places a corner only to within
    about an epsilon of the distance it is measured over, here a
    footprint's length or the distance between the centres, and the
    rounding of a long footprint's heading moves its far end by one too.
    A 1 km by 1 cm footprint and the same one turned by pi differ by
    about 7e6 epsilons of their areas in the exact reference itself.
    """
    return RELATIVE * 0.5 * (b1[3] ** 2 + b1[4] ** 2 + b2[3] ** 2 + b2[4] ** 2)


def area_bounds(b1, b2, exact=None) -> tuple[Fraction, Fraction]:
    """The range a kernel area of the pair must lie in: the exact area
    within ``tolerance``, or 0 where that comes within it of ``EPS``."""
    exact = area(b1, b2) if exact is None else exact
    tol = Fraction(tolerance(b1, b2))
    return (Fraction(0) if exact < EPS + tol else exact - tol), exact + tol


def iou_bounds(b1, b2, height=1.0, total=None) -> tuple[Fraction, Fraction]:
    """The range an IoU ``inter / (total - inter)`` must lie in, where
    ``inter`` is a kernel area in ``area_bounds`` times ``height`` and
    ``total`` the two footprint areas (or volumes) together.

    The IoU grows with the overlap, so the range runs from the least
    overlap's IoU to the greatest's, widened by ``2 * RELATIVE`` for the
    rounding of the union and the division. Where the union may come to
    ``EPS`` or less, where the kernel scores 0, any IoU is allowed.
    """
    lo, hi = area_bounds(b1, b2)
    h = Fraction(height)
    total = Fraction(b1[3] * b1[4]) + Fraction(b2[3] * b2[4]) if total is None else Fraction(total)
    slack = Fraction(2 * RELATIVE)
    least_union = total - hi * h
    if least_union <= EPS * (1 + slack):
        return Fraction(0), Fraction(1)
    low = lo * h / (total - lo * h) - slack
    return max(Fraction(0), low), min(Fraction(1), hi * h / least_union + slack)


def within(value, bounds) -> bool:
    """Whether a float lies in a (low, high) range of fractions."""
    return bounds[0] <= Fraction(value) <= bounds[1]
