"""Reference kernel that scales measured times to a reference machine speed.

A shared machine changes speed from second to second when its
neighbours load the cores, by up to about 1.8x on a 2-core virtual
machine. Wall times then say more about the neighbours than about the
program. So every timed interval of the benchmark is paired with runs
of this fixed kernel just before and after it (and, through Sampler,
every 50 ms inside it), and reported as

    reference time = wall time * REFERENCE_MS / kernel time

with the mean of those kernel runs: the wall time on a machine where
the kernel takes exactly REFERENCE_MS. The kernel mixes what the
tracker does: small numpy matrix products and solves, a polygon clip
over Python tuples, and plain Python arithmetic. It does not use the program under test, so a
change to the program cannot move it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REFERENCE_MS = 1.0

_A = np.eye(10)
_A[0, 7] = _A[1, 8] = _A[2, 9] = 1.0
_Q = 0.01 * np.eye(10)
_H = np.eye(7, 10)
_R = 0.5 * np.eye(7)
_Z = np.ones(7)


def _filter(steps: int) -> np.ndarray:
    x, p = np.ones(10), np.eye(10)
    for _ in range(steps):
        x = _A @ x
        p = _A @ p @ _A.T + _Q
        s = _H @ p @ _H.T + _R
        k = np.linalg.solve(s, _H @ p).T
        x = x + k @ (_Z - _H @ x)
        p = (np.eye(10) - k @ _H) @ p
    return x


def _rectangle(x: float, y: float, a: float) -> list[tuple[float, float]]:
    c, s = math.cos(a), math.sin(a)
    return [(x + c * u - s * v, y + s * u + c * v) for u, v in ((2, 0.9), (-2, 0.9), (-2, -0.9), (2, -0.9))]


def _clip(subject, clipper):
    out = subject
    for i, (ax, ay) in enumerate(clipper):
        if not out:
            break
        bx, by = clipper[(i + 1) % len(clipper)]
        ex, ey = bx - ax, by - ay
        points, out = out, []
        px, py = points[-1]
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        for cx, cy in points:
            c_in = ex * (cy - ay) - ey * (cx - ax) >= 0.0
            if c_in != p_in:
                dx, dy = cx - px, cy - py
                den = ex * dy - ey * dx
                if den:
                    t = (ex * (ay - py) - ey * (ax - px)) / den
                    out.append((px + t * dx, py + t * dy))
            if c_in:
                out.append((cx, cy))
            px, py, p_in = cx, cy, c_in
    return out


def _kernel() -> float:
    total = float(_filter(15)[0])
    for i in range(40):
        total += len(_clip(_rectangle(0.0, 0.0, 0.1 * i), _rectangle(0.5, 0.3, 0.07 * i)))
    for i in range(1500):
        total += i * i
    return total


def kernel_s() -> float:
    """Wall seconds of one kernel run (about 1 ms)."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def to_reference(wall_s: float, *kernel_runs_s: float) -> float:
    """Scale a wall time by the mean of the kernel runs measured next to it."""
    kernel = sum(kernel_runs_s) / len(kernel_runs_s)
    return wall_s * (REFERENCE_MS / 1000.0) / kernel


class Sampler:
    """Runs the kernel every ``interval_s`` while a long call is inside it.

    A timer signal interrupts the call between bytecodes; the handler
    runs the kernel and adds its own time to ``handler_s``, which the
    caller takes off the call's wall time. Use as a context manager in
    the main thread. With ``interval_s=None`` it samples nothing.
    """

    def __init__(self, interval_s: float | None):
        self.interval_s = interval_s
        self.kernels: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernels.append(kernel_s())
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        if self.interval_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
