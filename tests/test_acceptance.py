"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import softmax

from clip_oracle import convex_polygon_intersection_area
from diou_oracle import volume
from mip_oracle import brute_force_oracle
from mipmot.affinity import compute_affinities, motion_affinity_matrix, softmax_ranking
from mipmot.association import AssociationProblem, solve_mip
from mipmot.cli import labels_to_frames, results_to_frames
from mipmot.evaluation import evaluate_sequence
from mipmot.io_formats import (
    Detection,
    DetectionBatch,
    read_detections,
    write_detections,
    write_kitti_tracking,
)
from mipmot.motion import kf_init, kf_predict, kf_update
from mipmot.simgen import generate, scenario_template
from mipmot.tracker import Tracker, TrackerConfig, run_sequence
from tables import batch, box


def verdict(ok: bool, criterion: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_box(rng, spread) -> np.ndarray:
    return box(
        *rng.uniform(-spread, spread, 3),
        *rng.uniform(0.5, 4.0, 3),
        rng.uniform(-math.pi, math.pi),
    )


def track_scenario(cfg, tracker_cfg):
    labels, dets = generate(cfg)
    results = run_sequence(dets, tracker_cfg)
    return evaluate_sequence(labels_to_frames(labels), results_to_frames(results))


def test_criterion_1_mip_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(0, 5))
        p = AssociationProblem(
            x_cls_det=rng.uniform(0, 1, m),
            x_cls_trk=rng.uniform(0, 1, n),
            x_aff=rng.uniform(0, 2, (m, n)),
            x_se_det=rng.uniform(0, 1, m),
            x_se_trk=rng.uniform(0, 1, n),
            w_cls=100.0,
            w_aff=22.0,
            w_se=1.0,
        )
        solved = solve_mip(p)
        oracle = brute_force_oracle(p)
        worst = max(worst, abs(solved.objective - oracle.objective))
        assert solved.satisfies_constraints()
        assert oracle.satisfies_constraints()
    elapsed = time.perf_counter() - start
    verdict(
        worst <= 1e-9 and elapsed < 10.0,
        "criterion 1 (MIP exactness)",
        f"1000 instances, max objective gap {worst:.2e}, constraints hold, {elapsed:.2f}s",
    )


def _monte_carlo_iou(b1, b2, rng, samples=1_000_000) -> float:
    x1, y1, z1, l1, w1, h1, a1 = b1
    x2, y2, z2, l2, w2, h2, a2 = b2
    local = rng.uniform(-0.5, 0.5, size=(samples, 3)) * np.array([l1, w1, h1])
    c, s = math.cos(a1), math.sin(a1)
    x = c * local[:, 0] - s * local[:, 1] + x1
    y = s * local[:, 0] + c * local[:, 1] + y1
    z = local[:, 2] + z1
    c2, s2 = math.cos(a2), math.sin(a2)
    dx, dy = x - x2, y - y2
    u = c2 * dx + s2 * dy
    v = -s2 * dx + c2 * dy
    hit = (np.abs(u) <= 0.5 * l2) & (np.abs(v) <= 0.5 * w2) & (np.abs(z - z2) <= 0.5 * h2)
    inter = volume(b1) * float(hit.mean())
    union = volume(b1) + volume(b2) - inter
    return inter / union if union > 0 else 0.0


def test_criterion_2_geometry_oracle():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        a = random_box(rng, spread=2.0)
        b = random_box(rng, spread=2.0)
        iou = motion_affinity_matrix(a[None], b[None], use_dis=False)
        worst = max(worst, abs(iou[0, 0] - _monte_carlo_iou(a, b, rng)))
    square = [(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)]
    rotated = [
        (0.5 * math.sqrt(2) * math.cos(t), 0.5 * math.sqrt(2) * math.sin(t))
        for t in (math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)
    ]
    area = convex_polygon_intersection_area(square, rotated)
    analytic_gap = abs(area - 2.0 * (math.sqrt(2.0) - 1.0))
    elapsed = time.perf_counter() - start
    verdict(
        worst <= 0.01 and analytic_gap <= 1e-6 and elapsed < 30.0,
        "criterion 2 (geometry oracle)",
        f"200 pairs vs 1e6-sample MC, max gap {worst:.4f}; "
        f"rotated-square gap {analytic_gap:.2e}; {elapsed:.2f}s",
    )


def test_criterion_3_affinity_bounds():
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 30))
        raw = rng.normal(size=(m, n)) * rng.uniform(0.1, 20)
        P = softmax(raw, axis=0)
        Q = softmax(raw, axis=1)
        worst_sum = max(
            worst_sum,
            float(np.abs(P.sum(axis=0) - 1).max()),
            float(np.abs(Q.sum(axis=1) - 1).max()),
        )
        np.testing.assert_allclose(softmax_ranking(raw), 0.5 * (P + Q), atol=1e-12)

    diou_ok = True
    for _ in range(500):
        a, b = random_box(rng, 12.0), random_box(rng, 12.0)
        v = motion_affinity_matrix(a[None], b[None])[0, 0]
        diou_ok = diou_ok and 0.0 <= v <= 2.0

    cfg = TrackerConfig()
    alpha = 1.0 / (1.0 + cfg.beta_over_alpha)
    bound = alpha + 2.0 * (1.0 - alpha)
    refined_ok = True
    for _ in range(50):
        dets = [
            Detection(0, random_box(rng, 8.0), 1.0, embedding=rng.normal(size=8))
            for _ in range(int(rng.integers(1, 6)))
        ]
        predicted, track_embeddings = [], []
        for _ in range(int(rng.integers(1, 6))):
            mean, _ = kf_predict(*kf_init(random_box(rng, 8.0), cfg), cfg)
            predicted.append(mean[:7])
            track_embeddings.append(rng.normal(size=8))
        out = compute_affinities(
            np.array([d.box for d in dets]),
            np.array(predicted),
            np.asarray([d.embedding for d in dets]),
            np.asarray(track_embeddings),
            cfg,
        )
        refined_ok = refined_ok and bool(
            np.all(out.refined >= 0.0) and np.all(out.refined <= bound + 1e-12)
        )
    verdict(
        worst_sum <= 1e-9 and diou_ok and refined_ok,
        "criterion 3 (affinity bounds)",
        f"500 matrices, worst softmax sum error {worst_sum:.2e}; "
        f"diou in [0,2]; refined in [0, {bound:.3f}]",
    )


def test_criterion_4_clean_scenario_perfection():
    start = time.perf_counter()
    report = track_scenario(scenario_template("clean"), TrackerConfig())
    elapsed = time.perf_counter() - start
    verdict(
        report.mota == 1.0 and report.idsw == 0 and report.frag == 0 and elapsed < 5.0,
        "criterion 4 (clean-scenario perfection)",
        f"MOTA {100 * report.mota:.2f}%, IDSW {report.idsw}, FRAG {report.frag}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_mip_beats_hungarian():
    cfg = scenario_template("clutter", seed=1)
    lines = []
    ok = True
    for theta in (0.85, 0.90, 0.95):
        ha = track_scenario(cfg, TrackerConfig(theta_cls=theta, associator="hungarian"))
        mip = track_scenario(cfg, TrackerConfig(theta_cls=theta, associator="mip"))
        ok = ok and mip.idsw < ha.idsw and mip.mota > ha.mota
        lines.append(
            f"theta={theta:.2f} HA: idsw={ha.idsw} mota={100 * ha.mota:.1f}% | "
            f"MIP: idsw={mip.idsw} mota={100 * mip.mota:.1f}%"
        )
    verdict(ok, "criterion 5 (HA vs MIP trend)", "; ".join(lines))


def test_criterion_6_affinity_ablation():
    cfg = scenario_template("crossing")
    variants = {
        # ratio 0 gives alpha = 1, beta = 0; infinity gives alpha = 0, beta = 1
        "APP": TrackerConfig(beta_over_alpha=0.0),
        "DIS": TrackerConfig(beta_over_alpha=math.inf, use_iou=False),
        "IOU": TrackerConfig(beta_over_alpha=math.inf, use_dis=False),
        "ALL": TrackerConfig(),
    }
    idsw = {name: track_scenario(cfg, tc).idsw for name, tc in variants.items()}
    singles = [idsw["APP"], idsw["DIS"], idsw["IOU"]]
    ok = idsw["APP"] > idsw["ALL"] and idsw["ALL"] <= max(singles)
    verdict(
        ok,
        "criterion 6 (affinity ablation trend)",
        f"IDSW APP={idsw['APP']} DIS={idsw['DIS']} IOU={idsw['IOU']} ALL={idsw['ALL']}",
    )


def test_criterion_7_kalman_correctness():
    cfg = TrackerConfig()

    def prediction_errors(velocity):
        velocity = np.asarray(velocity, float)
        mean, cov = kf_init(box(0, 0, 0, 4, 2, 1.5, 0), cfg)
        errors = []
        for frame in range(1, 13):
            mean, cov = kf_predict(mean, cov, cfg)
            true_pos = velocity * frame
            errors.append(float(np.linalg.norm(mean[:3] - true_pos)))
            mean, cov = kf_update(
                mean, cov, np.concatenate([true_pos, [4, 2, 1.5, 0]]), cfg
            )
        return errors, mean

    ok = True
    details = []
    for name, v in (("1d", [0.9, 0.0, 0.0]), ("3d", [0.6, -0.8, 0.2])):
        errors, mean = prediction_errors(v)
        monotone = all(e1 <= e0 + 1e-9 for e0, e1 in zip(errors[1:], errors[2:]))
        v_err = float(np.linalg.norm(mean[7:] - v))
        ok = ok and monotone and v_err < 1e-3
        details.append(f"{name}: monotone={monotone}, velocity error {v_err:.1e}")

    rng = np.random.default_rng(3)
    mean, cov = kf_init(box(0, 0, 0, 4, 2, 1.5, 0), cfg)
    min_eig = np.inf
    for _ in range(1000):
        mean, cov = kf_predict(mean, cov, cfg)
        obs = mean[:7] + rng.normal(scale=0.3, size=7)
        obs[3:6] = np.abs(obs[3:6])
        mean, cov = kf_update(mean, cov, obs, cfg)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(cov))))
    ok = ok and min_eig >= -1e-9
    details.append(f"min eigenvalue over 1000 cycles {min_eig:.1e}")
    verdict(ok, "criterion 7 (Kalman correctness)", "; ".join(details))


def test_criterion_8_determinism_and_round_trips(tmp_path):
    outputs = []
    for attempt in range(2):
        cfg = scenario_template("clutter", seed=3)
        labels, dets = generate(cfg)
        det_path = tmp_path / f"run{attempt}.dets.txt"
        write_detections(dets, det_path)
        by_frame = read_detections(det_path)
        results = run_sequence(by_frame, TrackerConfig())
        res_path = tmp_path / f"run{attempt}.txt"
        write_kitti_tracking(results, res_path)
        outputs.append(det_path.read_bytes() + res_path.read_bytes())
    identical = outputs[0] == outputs[1]

    rng = np.random.default_rng(23)
    batches = {}
    for frame in range(10):
        records = [
            Detection(
                frame=frame,
                box=random_box(rng, 50.0),
                score=float(rng.uniform(0, 1)),
                embedding=rng.normal(size=6) if rng.random() < 0.5 else None,
                start_prob=float(rng.uniform(0, 1)) if rng.random() < 0.5 else None,
            )
            for _ in range(int(rng.integers(0, 10)))
        ]
        if records:
            batches[frame] = batch(frame, *records)
    rt_path = tmp_path / "roundtrip.txt"
    write_detections(batches, rt_path)
    recovered = read_detections(rt_path)
    round_trip_ok = list(recovered) == list(batches)
    for frame, a in batches.items():
        b = recovered.get(frame, a)
        for name in ("boxes", "scores", "start_prob", "embeddings"):
            x, y = getattr(a, name), getattr(b, name)
            round_trip_ok = round_trip_ok and (x is None) == (y is None)
            if x is not None and y is not None:
                round_trip_ok = round_trip_ok and np.allclose(x, y, atol=1e-6, equal_nan=True)
    verdict(
        identical and round_trip_ok,
        "criterion 8 (determinism and round-trips)",
        f"reruns byte-identical={identical}, io round-trip within 1e-6={round_trip_ok}",
    )


def test_criterion_9_throughput():
    rng = np.random.default_rng(5)
    tracker = Tracker(TrackerConfig())
    lanes = [(-60.0 + 6.0 * i, 0.6 + 0.02 * i) for i in range(20)]

    def frame_dets(frame):
        y, speed = np.array(lanes).T
        x = -40.0 + speed * frame + 4.0 * np.arange(20)
        boxes = np.column_stack((x, y, np.tile([0.75, 4.0, 1.8, 1.5, 0.0], (20, 1))))
        return DetectionBatch(frame, boxes, np.ones(20), embeddings=rng.normal(size=(20, 32)))

    tracker.step(0, frame_dets(0))  # builds the 20 tracks
    times = []
    for frame in range(1, 51):
        dets = frame_dets(frame)
        start = time.perf_counter()
        tracker.step(frame, dets)
        times.append(time.perf_counter() - start)
    mean_ms = 1000.0 * float(np.mean(times))
    worst_ms = 1000.0 * float(np.max(times))
    assert len(tracker.tracks) == 20
    # target 10 ms; hard gate at twice that
    verdict(
        mean_ms < 20.0,
        "criterion 9 (throughput)",
        f"20 detections x 20 tracks: mean {mean_ms:.2f} ms/frame "
        f"(target 10 ms, gate 20 ms), worst {worst_ms:.2f} ms",
    )
    if mean_ms >= 10.0:
        print(f"note: mean {mean_ms:.2f} ms exceeds the 10 ms target but is within the 2x gate")
