"""One benchmark run of one workload, in one fresh process.

Started by ``run.py`` with the BLAS and OpenMP pools limited to one
thread. The run generates the workload from the seed, then replays it
through the public API in a closed loop: frame f+1 is given to
``Tracker.step`` only after step f returns. A sequence pass is what
``mipmot track`` plus ``mipmot eval`` do: read the detections, track
every frame, write the KITTI results, read labels and results back and
score them. Passes repeat until --seconds are used, and at least until
100 frames after warm-up have been timed.

--trace 0  set-up probes, then untraced passes; prints the end-to-end
           metrics.
--trace 1  pairs of an untraced tracking pass and a traced sequence
           pass; prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import Sampler, kernel_s, to_reference  # noqa: E402
from tracer import Tracer, covered_ns  # noqa: E402
from workloads import WARMUP_FRAMES, WORKLOADS  # noqa: E402

from mipmot import evaluation, io_formats  # noqa: E402
from mipmot.cli import labels_to_frames  # noqa: E402
from mipmot.tracker import Tracker, TrackerConfig  # noqa: E402

SETUP_PROBES = 5
MIN_TIMED_FRAMES = 100
MIN_TRACED_PAIRS = 2
# Kernel runs (median taken) before and after each timed call other
# than a step; a step has one run on each side. Untraced calls also
# run the kernel every SAMPLE_INTERVAL_S while they last.
CALL_KERNEL_RUNS = 3
SAMPLE_INTERVAL_S = 0.05
EVALS_PER_PASS = 2
CHILD_TIMEOUT_S = 60
GEOMETRY_EPS = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "track.frames_per_s": "1/s",
    "track.frame_ms.p50": "ms",
    "track.frame_ms.p90": "ms",
    "eval.frames_per_s": "1/s",
    "sequence_s": "s",
    "peak_rss_mb": "MB",
    "mota": "ratio",
    "motp": "ratio",
}

# Functions traced as spans: (module the caller looks the name up in,
# attribute, span name). The span name's first part is the layer.
SPANS = [
    ("mipmot.io_formats", "read_detections", "io_formats.read_detections"),
    ("mipmot.io_formats", "write_kitti_tracking", "io_formats.write_kitti_tracking"),
    ("mipmot.io_formats", "read_kitti_labels", "io_formats.read_kitti_labels"),
    ("mipmot.tracker", "kf_predict", "motion.kf_predict"),
    ("mipmot.tracker", "kf_update", "motion.kf_update"),
    ("mipmot.tracker", "kf_init", "motion.kf_init"),
    ("mipmot.tracker", "compute_affinities", "affinity.compute_affinities"),
    ("mipmot.affinity", "motion_affinity_matrix", "affinity.motion_affinity_matrix"),
    ("mipmot.affinity", "raw_appearance_matrix", "affinity.raw_appearance_matrix"),
    ("mipmot.affinity", "softmax_ranking", "affinity.softmax_ranking"),
    ("mipmot.tracker", "solve_mip", "association.solve_mip"),
    ("mipmot.evaluation", "evaluate_sequence", "evaluation.evaluate_sequence"),
    ("mipmot.evaluation", "match_frame", "evaluation.match_frame"),
]


def inputs_digest(paths: list[Path]) -> str:
    """sha256 over the program's source files and the given input files.

    Keys the stored result digests, so only runs of the same code on
    the same inputs are compared.
    """
    h = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), *paths]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(dets_path: Path) -> tuple[float, float]:
    """Time until the first step can start, in fresh processes.

    Returns the median over probes in wall seconds and in reference
    seconds; the parent runs the reference kernel before and after
    each probe.
    """
    wall, ref = [], []
    for _ in range(SETUP_PROBES):
        before = statistics.median(kernel_s() for _ in range(CALL_KERNEL_RUNS))
        start = time.monotonic_ns()
        out = run_child([str(HERE / "probe.py"), str(dets_path)])
        seconds = (int(out.split()[0]) - start) / 1e9
        after = statistics.median(kernel_s() for _ in range(CALL_KERNEL_RUNS))
        wall.append(seconds)
        ref.append(to_reference(seconds, before, after))
    return statistics.median(wall), statistics.median(ref)


def post_warmup(step_s: list[float]) -> list[float]:
    return step_s[WARMUP_FRAMES:]


def frames_per_s(step_s: list[float]) -> float:
    timed = post_warmup(step_s)
    return len(timed) / sum(timed)


def run_passes(seconds: float, min_passes: int, one_pass) -> list:
    """``min_passes`` passes, then more while the next is expected to fit."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


class Run:
    """Counts operations, checks outputs and replays one workload.

    Every timed call is paired with a reference-kernel run just before
    it (``calibrate``), so its wall time can be scaled to reference
    speed; see calibrate.py.
    """

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.dets_path = work / "seq.dets.txt"
        self.labels_path = work / "seq.labels.txt"
        self.results_path = work / "seq.txt"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.reports: list[dict] = []
        # (perf_counter_ns when a kernel run ended, its seconds)
        self.calibrations: list[tuple[int, float]] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def calibrate(self, repeats: int = 1) -> float:
        kernel = statistics.median(kernel_s() for _ in range(repeats))
        self.calibrations.append((time.perf_counter_ns(), kernel))
        return kernel

    def timed(self, call, sample: bool, runs: int = CALL_KERNEL_RUNS):
        """Run ``call``; return its result, wall seconds and reference seconds.

        The kernel runs before and after the call and, when ``sample``,
        every SAMPLE_INTERVAL_S inside it; the runs inside are not
        counted in the call's wall time. The traced pass does not
        sample, so that no kernel run lands inside a span.
        """
        before = self.calibrate(runs)
        with Sampler(SAMPLE_INTERVAL_S if sample else None) as sampler:
            start = time.perf_counter()
            result = call()
            wall = time.perf_counter() - start - sampler.handler_s
        after = self.calibrate(runs)
        return result, wall, to_reference(wall, before, *sampler.kernels, after)

    def track(self, detections, on_step=None, tracer: Tracer | None = None):
        """Closed-loop replay; returns frame results and per-step wall and
        reference seconds. ``on_step`` runs between steps, untimed."""
        tracker = Tracker(TrackerConfig())
        results, step_s, step_ref = [], [], []
        for frame in range(self.workload.frames):
            frame_dets = detections.get(frame, [])
            self.attempted += 1

            def step():
                try:
                    if tracer is None:
                        return tracker.step(frame, frame_dets)
                    tracer.frame = frame
                    with tracer.span("tracker.step"):
                        return tracker.step(frame, frame_dets)
                except Exception:  # a failed step is counted and the run goes on
                    self.fail(f"step {frame}: {traceback.format_exc(limit=3)}")
                    return None

            result, wall, ref = self.timed(step, sample=tracer is None, runs=1)
            step_s.append(wall)
            step_ref.append(ref)
            if result is not None:
                results.append(result)
            if on_step is not None:
                on_step(frame, frame_dets, tracker)
        if tracer is not None:
            tracer.frame = None
        return results, step_s, step_ref

    def evaluate(self, gt, hyp) -> dict | None:
        self.attempted += 1
        try:
            return evaluation.evaluate_sequence(gt, hyp).as_dict()
        except Exception:  # a failed evaluation is counted and the run goes on
            self.fail(f"evaluate: {traceback.format_exc(limit=3)}")
            return None

    def sequence_pass(self, on_step=None, tracer: Tracer | None = None) -> dict:
        """Detection file to CLEARMOT report, as ``mipmot track`` + ``eval``."""

        def read_both():
            gt_records = io_formats.read_kitti_labels(self.labels_path)
            hyp_records = io_formats.read_kitti_labels(self.results_path)
            gt = labels_to_frames(gt_records)
            return gt_records, hyp_records, gt, labels_to_frames(hyp_records)

        sample = tracer is None
        detections, read_s, read_ref = self.timed(
            lambda: io_formats.read_detections(self.dets_path), sample
        )
        results, step_s, step_ref = self.track(detections, on_step, tracer)
        _, write_s, write_ref = self.timed(
            lambda: io_formats.write_kitti_tracking(results, self.results_path), sample
        )
        (_, hyp_records, gt, hyp), labels_s, labels_ref = self.timed(read_both, sample)
        report, eval_s, eval_ref = self.timed(lambda: self.evaluate(gt, hyp), sample)
        self.check_outputs(results, hyp_records, report)
        evals_s, evals_ref = [eval_s], [eval_ref]
        # Untraced passes evaluate the same results again, outside the
        # sequence time, for more eval.frames_per_s samples per run.
        for _ in range(EVALS_PER_PASS - 1 if sample else 0):
            again, again_s, again_ref = self.timed(lambda: self.evaluate(gt, hyp), sample)
            if again != report:
                self.fail("evaluate_sequence gave another report for the same results")
            evals_s.append(again_s)
            evals_ref.append(again_ref)
        return {
            "step_s": step_s,
            "step_ref": step_ref,
            "evals_s": evals_s,
            "evals_ref": evals_ref,
            "sequence_s": read_s + sum(step_s) + write_s + labels_s + eval_s,
            "sequence_ref": read_ref + sum(step_ref) + write_ref + labels_ref + eval_ref,
            "report": report,
        }

    def check_outputs(self, results, hyp_records, report) -> None:
        emitted = sum(len(r.tracks) for r in results)
        if len(hyp_records) != emitted:
            self.fail(f"results file holds {len(hyp_records)} rows, tracker emitted {emitted}")
        digest = hashlib.sha256(self.results_path.read_bytes()).hexdigest()
        if self.digests and digest != self.digests[0]:
            self.fail(f"result digest {digest} differs from {self.digests[0]} in one run")
        self.digests.append(digest)
        if report is None:
            return
        if self.reports and report != self.reports[0]:
            self.fail("CLEARMOT report differs between passes of one run")
        self.reports.append(report)
        if not report["MOTA"] >= self.workload.min_mota:
            self.fail(f"MOTA {report['MOTA']:.4f} below {self.workload.min_mota}")

    def check_digest_history(self, store: Path) -> None:
        """A digest that differs from an earlier run on the same code and inputs fails."""
        if not self.digests:
            return
        key = inputs_digest([self.dets_path, self.labels_path])
        history = json.loads(store.read_text()) if store.exists() else {}
        known = history.get(key)
        if known is None:
            history[key] = self.digests[0]
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
            os.replace(tmp, store)
        elif known != self.digests[0]:
            self.fail(f"result digest {self.digests[0]} differs from earlier run's {known}")


class Properties:
    """Workload properties seen while tracking, counted between steps."""

    def __init__(self):
        self.theta_cls = TrackerConfig().theta_cls
        self.frames = 0
        self.dets = 0
        self.below = 0
        self.alive = 0
        self.births = 0
        self.deaths = 0
        self.coasting = 0
        self.embedding_dim = 0
        self._ids: set[int] = set()

    def on_step(self, frame, frame_dets, tracker) -> None:
        tracks = tracker.tracks
        ids = {t.id for t in tracks}
        if frame >= WARMUP_FRAMES:
            self.frames += 1
            self.dets += len(frame_dets)
            self.below += sum(1 for d in frame_dets if d.score < self.theta_cls)
            self.alive += len(tracks)
            self.births += len(ids - self._ids)
            self.deaths += len(self._ids - ids)
            self.coasting += sum(1 for t in tracks if t.misses > 0 and t.id in self._ids)
        if frame_dets and frame_dets[0].embedding is not None:
            self.embedding_dim = len(frame_dets[0].embedding)
        self._ids = ids

    def per_frame(self, count: int) -> float:
        return count / self.frames if self.frames else 0.0

    def summary(self) -> dict:
        return {
            "dets_per_frame": self.per_frame(self.dets),
            "tracks_alive": self.per_frame(self.alive),
            "births_per_frame": self.per_frame(self.births),
            "deaths_per_frame": self.per_frame(self.deaths),
            "coasting_per_frame": self.per_frame(self.coasting),
            "below_theta_cls_share": self.below / self.dets if self.dets else 0.0,
            "embedding_dim": self.embedding_dim,
        }


def timings(passes: list[dict], frames: int, kind: str) -> dict:
    """Timing metrics from the ``kind`` ("s" wall or "ref") figures of passes."""
    samples_ms = [1000.0 * s for p in passes for s in post_warmup(p[f"step_{kind}"])]
    return {
        "track.frames_per_s": statistics.median(frames_per_s(p[f"step_{kind}"]) for p in passes),
        "track.frame_ms.p50": statistics.median(samples_ms),
        "track.frame_ms.p90": statistics.quantiles(samples_ms, n=10, method="inclusive")[8],
        "eval.frames_per_s": statistics.median(
            frames / e for p in passes for e in p[f"evals_{kind}"]
        ),
        "sequence_s": statistics.median(p[f"sequence_{kind}"] for p in passes),
    }


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_wall, setup_ref = setup_seconds(run.dets_path)
    props = Properties()
    min_passes = math.ceil(MIN_TIMED_FRAMES / (run.workload.frames - WARMUP_FRAMES))
    passes = run_passes(seconds, min_passes, lambda: run.sequence_pass(props.on_step))
    report = passes[0]["report"] or {"MOTA": 0.0, "MOTP": 0.0}
    frames = run.workload.frames
    metrics = {
        "setup_s": setup_ref,
        **timings(passes, frames, "ref"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mota": report["MOTA"],
        "motp": report["MOTP"],
    }
    extra = {
        "passes": len(passes),
        "frame_latency_samples": len(passes) * (frames - WARMUP_FRAMES),
        "wall_clock": {"setup_s": setup_wall, **timings(passes, frames, "s")},
        "kernel_ms_median": 1000.0 * statistics.median(k for _, k in run.calibrations),
        "quality": report,
        # Clip pairs are counted in the traced pass only.
        "properties": dict(props.summary(), clip_pairs_per_det=None),
    }
    return metrics, extra


class LayerStats:
    """What the traced hooks saw; each hook only keeps references."""

    def __init__(self, tracer: Tracer, run: Run):
        self.tracer = tracer
        self.run = run
        self.pending: list[tuple] = []
        self.pairs = 0
        self.size = self.matches = self.starts = self.ends = self.matchable = 0
        self.records_read = 0

    def on_solve(self, args, result) -> None:
        self.pending.append((args[0], result))

    def on_affinities(self, args, result) -> None:
        if self.tracer.frame >= WARMUP_FRAMES:
            self.pairs += len(args[0]) * len(args[1])

    def on_read(self, args, result) -> None:
        self.records_read += (
            sum(len(v) for v in result.values()) if isinstance(result, dict) else len(result)
        )

    def after_step(self, frame: int) -> None:
        """Check and count this frame's association, outside the step span."""
        for problem, result in self.pending:
            if not result.satisfies_constraints():
                self.run.fail(f"frame {frame}: association result breaks its constraints")
            if frame >= WARMUP_FRAMES:
                m, n = problem.shape
                self.size += m + n
                self.matches += len(result.matches)
                self.starts += int(result.y_se_det.sum())
                self.ends += int(result.y_se_trk.sum())
                self.matchable += min(m, n)
        self.pending.clear()


def span_totals(tracer: Tracer, calibrations: list[tuple[int, float]]):
    """Per span name: total ms, calls and self ms, warm-up frames left out.

    Times are in reference ms: each span is scaled by the last kernel
    run that ended before it started. Also returns the span coverage
    of ``tracker.step``: child span time plus step self time, over step
    time. It is 1 when the child spans nest inside their step and do
    not overlap.
    """
    ends = [end for end, _ in calibrations]
    children = tracer.children()
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    step_ns = step_parts_ns = 0
    for index, (name, start, end, _parent, frame) in enumerate(tracer.spans):
        if frame is not None and frame < WARMUP_FRAMES:
            continue
        kernel = calibrations[max(0, bisect.bisect_right(ends, start) - 1)][1]
        scale = to_reference(1e-6, kernel)  # reference ms per wall ns
        intervals = [tracer.spans[k][1:3] for k in children.get(index, [])]
        covered = covered_ns(start, end, intervals)
        total_ms[name] = total_ms.get(name, 0.0) + (end - start) * scale
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - covered) * scale
        if name == "tracker.step":
            step_ns += end - start
            step_parts_ns += sum(hi - lo for lo, hi in intervals) + (end - start - covered)
    return total_ms, calls, self_ms, (step_parts_ns / step_ns if step_ns else None)


def clip_counts(tracer: Tracer) -> tuple[dict, int]:
    """polygon_area calls and hits by the layer of the enclosing span."""
    clip = {"affinity": [0, 0], "evaluation": [0, 0]}
    bev_calls = 0
    for (name, parent, frame), (n_calls, hits) in tracer.counts.items():
        layer = parent.split(".", 1)[0]
        if name == "geometry.polygon_area" and layer in clip:
            if layer == "affinity" and frame < WARMUP_FRAMES:
                continue
            clip[layer][0] += n_calls
            clip[layer][1] += hits
        elif name == "evaluation.bev_iou":
            bev_calls += n_calls
    return clip, bev_calls


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced(run: Run, seconds: float, generate_s: float) -> tuple[dict, dict, Tracer]:
    tracer = Tracer()
    stats = LayerStats(tracer, run)
    props = Properties()
    hooks = {
        "association.solve_mip": stats.on_solve,
        "affinity.compute_affinities": stats.on_affinities,
        "io_formats.read_detections": stats.on_read,
        "io_formats.read_kitti_labels": stats.on_read,
    }
    for module, attr, name in SPANS:
        tracer.add_span(module, attr, name, hooks.get(name))
    tracer.add_count(
        "mipmot.geometry", "polygon_area", "geometry.polygon_area",
        lambda area: abs(area) >= GEOMETRY_EPS,
    )
    tracer.add_count("mipmot.evaluation", "bev_iou", "evaluation.bev_iou", lambda iou: iou > 0.0)

    def on_step(frame, frame_dets, tracker):
        props.on_step(frame, frame_dets, tracker)
        stats.after_step(frame)

    # Untraced and traced passes alternate, so a drift in machine speed
    # does not show up as tracing overhead.
    detections = io_formats.read_detections(run.dets_path)
    untraced_fps = []

    def pair():
        untraced_fps.append(frames_per_s(run.track(detections)[2]))
        tracer.install()
        try:
            return run.sequence_pass(on_step, tracer)
        finally:
            if not tracer.restore():
                run.fail("a traced function was not restored")

    passes = run_passes(seconds, MIN_TRACED_PAIRS, pair)

    frames = run.workload.frames
    timed = props.frames  # post-warm-up frames of all traced passes
    eval_frames = frames * len(passes)
    missing = set(tracer.missing)
    total_ms, calls, self_ms, coverage = span_totals(tracer, run.calibrations)
    clip, bev_calls = clip_counts(tracer)
    report = passes[0]["report"] or {}

    def per(name, table, n=timed):
        return None if name in missing else table.get(name, 0) / n

    def unless(names, value):
        return None if missing & set(names) else value

    p = props.summary()
    solve = ["association.solve_mip"]
    polygon = ["geometry.polygon_area"]
    clip_per_det = unless(polygon, ratio(clip["affinity"][0], props.dets))
    metrics = {
        "io_formats.read_detections.ms": per("io_formats.read_detections", total_ms, len(passes)),
        "io_formats.write_kitti_tracking.ms": per(
            "io_formats.write_kitti_tracking", total_ms, len(passes)
        ),
        "io_formats.read_kitti_labels.ms": per("io_formats.read_kitti_labels", total_ms, len(passes)),
        "io_formats.records_read": unless(
            ["io_formats.read_detections", "io_formats.read_kitti_labels"],
            stats.records_read / len(passes),
        ),
        "motion.kf_predict.calls_per_frame": per("motion.kf_predict", calls),
        "motion.kf_predict.ms_per_frame": per("motion.kf_predict", total_ms),
        "motion.kf_update.calls_per_frame": per("motion.kf_update", calls),
        "motion.kf_update.ms_per_frame": per("motion.kf_update", total_ms),
        "motion.kf_init.calls_per_frame": per("motion.kf_init", calls),
        "affinity.compute_affinities.self_ms_per_frame": per("affinity.compute_affinities", self_ms),
        "affinity.motion_affinity_matrix.ms_per_frame": per(
            "affinity.motion_affinity_matrix", total_ms
        ),
        "affinity.raw_appearance_matrix.ms_per_frame": per(
            "affinity.raw_appearance_matrix", total_ms
        ),
        "affinity.raw_appearance_matrix.calls_per_frame": per("affinity.raw_appearance_matrix", calls),
        "affinity.softmax_ranking.ms_per_frame": per("affinity.softmax_ranking", total_ms),
        "affinity.pairs_per_frame": unless(["affinity.compute_affinities"], stats.pairs / timed),
        "geometry.clip_pairs_per_frame": unless(polygon, clip["affinity"][0] / timed),
        "geometry.clip_pairs_per_det": clip_per_det,
        "geometry.clip_hit_ratio": unless(polygon, ratio(clip["affinity"][1], clip["affinity"][0])),
        "geometry.eval_clip_pairs_per_frame": unless(polygon, clip["evaluation"][0] / eval_frames),
        "geometry.eval_clip_hit_ratio": unless(
            polygon, ratio(clip["evaluation"][1], clip["evaluation"][0])
        ),
        "association.solve_mip.ms_per_frame": per("association.solve_mip", total_ms),
        "association.size_per_frame": unless(solve, stats.size / timed),
        "association.matches_per_frame": unless(solve, stats.matches / timed),
        "association.starts_per_frame": unless(solve, stats.starts / timed),
        "association.ends_per_frame": unless(solve, stats.ends / timed),
        "association.match_ratio": unless(solve, ratio(stats.matches, stats.matchable)),
        "tracker.step.self_ms_per_frame": self_ms.get("tracker.step", 0.0) / timed,
        "tracker.tracks_alive": p["tracks_alive"],
        "tracker.births_per_frame": p["births_per_frame"],
        "tracker.deaths_per_frame": p["deaths_per_frame"],
        "tracker.coasting_per_frame": p["coasting_per_frame"],
        "tracker.filtered_dets_per_frame": props.per_frame(props.below),
        "evaluation.evaluate_sequence.ms_per_frame": per(
            "evaluation.evaluate_sequence", total_ms, eval_frames
        ),
        "evaluation.match_frame.ms_per_frame": per("evaluation.match_frame", total_ms, eval_frames),
        "evaluation.bev_iou.calls_per_frame": unless(["evaluation.bev_iou"], bev_calls / eval_frames),
        "evaluation.idsw": report.get("IDSW"),
        "evaluation.frag": report.get("FRAG"),
        "simgen.generate.ms_per_frame": 1000.0 * generate_s / frames,
        "trace.overhead": statistics.median(frames_per_s(q["step_ref"]) for q in passes)
        / statistics.median(untraced_fps),
        "trace.span_coverage": coverage,
    }
    extra = {
        "pairs": len(passes),
        "missing_names": sorted(missing),
        "untraced_frames_per_s": statistics.median(untraced_fps),
        "properties": dict(p, clip_pairs_per_det=clip_per_det),
    }
    return metrics, extra, tracer


def per_layer_unit(name: str) -> str:
    if name.endswith(("ms_per_frame", ".ms")):
        return "ms"
    if name.endswith(("_ratio", ".overhead", ".span_coverage")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    state = HERE / ".work"
    out_dir = HERE / "out"
    work = state / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tracer = None
    try:
        generated = json.loads(
            run_child([str(HERE / "workloads.py"), workload.name, str(args.seed), str(work)])
        )
        run = Run(workload, work)
        if args.trace:
            metrics, extra, tracer = traced(run, args.seconds, generated["generate_s"])
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, extra = untraced(run, args.seconds)
            units = END_TO_END_UNITS
        run.check_digest_history(state / "digests.json")
    finally:
        for path in work.glob("*"):
            path.unlink()
        work.rmdir()

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"{tag}.spans.tsv")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "frames_per_pass": workload.frames,
        "warmup_frames": WARMUP_FRAMES,
        "generated": generated,
        "result_digest": run.digests[0] if run.digests else None,
        "errors": run.errors,
        "environment": environment(),
        **extra,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(dict(details, result=result), indent=1) + "\n")
    for message in run.errors:
        print(message, file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
