"""Scalar Sutherland-Hodgman clip over Python floats.

A float clip of two convex polygons given by their points, with the
shoelace sum of ``polygon_area``, for the acceptance check of a rotated
square. It works in world coordinates, so its last bits depend on where
the polygons sit; the overlap kernel of ``mipmot.geometry`` is checked
against the exact clip of ``exact_area.py`` instead.
"""

from mipmot.geometry import EPS, polygon_area


def _clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip of `subject` by convex CCW `clipper`.

    Both polygons are lists of (x, y) tuples; the result is the CCW
    intersection polygon (possibly empty).
    """
    output = subject
    n = len(clipper)
    for i in range(n):
        if not output:
            return []
        ax, ay = clipper[i]
        bx, by = clipper[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        points, output = output, []
        prev_x, prev_y = points[-1]
        prev_in = ex * (prev_y - ay) - ey * (prev_x - ax) >= 0.0
        for cur_x, cur_y in points:
            cur_in = ex * (cur_y - ay) - ey * (cur_x - ax) >= 0.0
            if cur_in != prev_in:
                # Edge crossing: intersect (prev, cur) with the clip line.
                dx, dy = cur_x - prev_x, cur_y - prev_y
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = (ex * (ay - prev_y) - ey * (ax - prev_x)) / denom
                    output.append((prev_x + t * dx, prev_y + t * dy))
            if cur_in:
                output.append((cur_x, cur_y))
            prev_x, prev_y, prev_in = cur_x, cur_y, cur_in
    return output


def convex_polygon_intersection_area(p, q) -> float:
    """Area of the intersection of two convex CCW polygons.

    Degenerate inputs or results (area below EPS) count as zero.
    """
    p = [(float(v[0]), float(v[1])) for v in p]
    q = [(float(v[0]), float(v[1])) for v in q]
    if polygon_area(p) < EPS or polygon_area(q) < EPS:
        return 0.0
    area = polygon_area(_clip_polygon(p, q))
    return area if area >= EPS else 0.0

