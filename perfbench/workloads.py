"""Benchmark workloads: simulated scenarios built from a seed.

Every workload turns its objects at a constant rate, so objects circle
instead of drifting apart and the load per frame stays the same however
many frames a run replays.

Run as a script to generate one workload into a directory:

    python3 perfbench/workloads.py <workload> <seed> <out_dir>

It writes ``<out_dir>/seq.labels.txt`` and ``<out_dir>/seq.dets.txt``
and prints one JSON line with the time ``simgen.generate`` took.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# Frames at the start of a sequence, while the first tracks are born,
# that are left out of per-frame latencies and per-frame counts.
WARMUP_FRAMES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    why: str
    # Lowest MOTA a correct tracker reaches on this workload; a result
    # below it fails the run's correctness check.
    min_mota: float
    scenario: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kitti-20",
            frames=100,
            why="KITTI scale: 20 objects, 32-D embeddings, few false positives; "
            "fixed per-call costs dominate",
            min_mota=0.9,
            scenario=dict(
                num_objects=20,
                extent=80.0,
                turn_rate=0.05,
                fp_rate=3.0,
                fp_score_low=0.3,
                fp_score_high=0.9,
                pos_noise=0.1,
                tp_score_mean=0.95,
                tp_score_sigma=0.01,
                embedding_dim=32,
            ),
        ),
        Workload(
            name="sparse-300",
            frames=30,
            why="300 well separated objects with 32-D embeddings: Kalman, appearance, "
            "solver and evaluator work; no births after warm-up",
            min_mota=0.9,
            scenario=dict(
                num_objects=300,
                extent=600.0,
                turn_rate=0.05,
                pos_noise=0.1,
                tp_score_mean=0.95,
                tp_score_sigma=0.01,
                embedding_dim=32,
            ),
        ),
        Workload(
            name="dense-clutter",
            frames=60,
            why="60 overlapping objects, ghost detections and occlusions, no embeddings: "
            "polygon clip, births and deletions, nonzero IDSW",
            min_mota=0.5,
            scenario=dict(
                num_objects=60,
                extent=60.0,
                turn_rate=0.05,
                fp_rate=30.0,
                fp_near_sigma=0.8,
                fp_score_low=0.80,
                fp_score_high=0.97,
                pos_noise=0.1,
                tp_score_mean=0.97,
                tp_score_sigma=0.015,
            ),
        ),
    )
}


def occlusions(workload: Workload) -> list[tuple[int, int, int]]:
    """Two-frame dropouts, one per object, spread over the sequence."""
    if workload.name != "dense-clutter":
        return []
    n, f = workload.scenario["num_objects"], workload.frames
    return [(i, WARMUP_FRAMES + (37 * i) % (f - 2 * WARMUP_FRAMES), 2) for i in range(n)]


def scenario_config(workload: Workload, seed: int):
    from mipmot import simgen

    return simgen.ScenarioConfig(
        num_frames=workload.frames,
        occlusions=occlusions(workload),
        seed=seed,
        **workload.scenario,
    )


def generate_files(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the labels and detections of one workload; time the simulator."""
    from mipmot import io_formats, simgen

    cfg = scenario_config(workload, seed)
    start = time.perf_counter()
    labels, detections = simgen.generate(cfg)
    generate_s = time.perf_counter() - start
    io_formats.write_kitti_labels(labels, out_dir / "seq.labels.txt")
    io_formats.write_detections(detections, out_dir / "seq.dets.txt")
    return {
        "generate_s": generate_s,
        "frames": workload.frames,
        "labels": len(labels),
        "detections": len(detections),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        print(
            f"usage: workloads.py {{{','.join(WORKLOADS)}}} <seed> <out_dir>",
            file=sys.stderr,
        )
        return 2
    info = generate_files(WORKLOADS[argv[0]], int(argv[1]), Path(argv[2]))
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
