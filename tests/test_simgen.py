import math
import re

import numpy as np
import pytest

from mipmot import io_formats
from mipmot.cli import labels_to_frames
from mipmot.geometry import wrap_angle
from mipmot.io_formats import (
    DetectionBatch,
    read_detections,
    write_detections,
    write_kitti_labels,
)
from mipmot.simgen import (
    TEMPLATES,
    ObjectSpec,
    ScenarioConfig,
    SplitMix64,
    crossing_objects,
    generate,
    scenario_template,
)

# Known outputs of the splitmix64 recurrence for seed 1234567.
SPLITMIX_SEED = 1234567
SPLITMIX_REFERENCE = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


class TestSplitMix64:
    def test_reference_vector(self):
        gen = SplitMix64(SPLITMIX_SEED)
        assert [gen.next_u64() for _ in range(5)] == SPLITMIX_REFERENCE

    def test_random_unit_interval(self):
        gen = SplitMix64(9)
        values = [gen.random() for _ in range(10_000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert abs(np.mean(values) - 0.5) < 0.02

    def test_normal_moments(self):
        gen = SplitMix64(10)
        values = np.array([gen.normal() for _ in range(20_000)])
        assert abs(values.mean()) < 0.03
        assert abs(values.std() - 1.0) < 0.03

    def test_poisson_mean(self):
        gen = SplitMix64(11)
        values = [gen.poisson(2.0) for _ in range(20_000)]
        assert abs(np.mean(values) - 2.0) < 0.05
        assert gen.poisson(0.0) == 0

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(42), SplitMix64(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def batch_bytes(dets) -> list[tuple]:
    """The frames and array bits of {frame: DetectionBatch}."""
    return [
        (frame, b.boxes.tobytes(), b.scores.tobytes(), b.start_prob.tobytes(),
         None if b.embeddings is None else b.embeddings.tobytes())
        for frame, b in dets.items()
    ]


def as_written(values: np.ndarray) -> np.ndarray:
    """Each value as a detection file holds it, with 6 decimals; NaN
    stays NaN."""
    return np.reshape([float(f"{v:.6f}") for v in values.ravel().tolist()], values.shape)


class TestGenerate:
    def test_clean_limit_detections_equal_gt(self):
        cfg = ScenarioConfig(num_objects=4, num_frames=20, seed=3)
        labels, dets = generate(cfg)
        assert len(labels) == 80
        gt = labels_to_frames(labels)
        assert list(dets) == list(gt) == list(range(20))
        for frame, batch in dets.items():
            assert isinstance(batch, DetectionBatch) and batch.frame == frame
            np.testing.assert_array_equal(batch.boxes, gt[frame]["box"])
            np.testing.assert_array_equal(batch.scores, 1.0)
            assert np.isnan(batch.start_prob).all() and batch.embeddings is None

    def test_occlusion_window_drops_frames(self):
        cfg = ScenarioConfig(
            num_objects=5, num_frames=20, occlusions=[(3, 10, 2)], seed=1
        )
        labels, dets = generate(cfg)
        assert [len(dets[frame]) for frame in (9, 10, 11, 12)] == [5, 4, 4, 5]
        # clean scenario: detections appear in object order per frame
        gt = labels_to_frames(labels)
        np.testing.assert_array_equal(dets[10].boxes, gt[10]["box"][[0, 1, 2, 4]])

    def test_same_seed_reproduces(self):
        cfg = scenario_template("clutter", seed=7)
        l1, d1 = generate(cfg)
        l2, d2 = generate(cfg)
        assert l1.tobytes() == l2.tobytes()
        assert batch_bytes(d1) == batch_bytes(d2)

    def test_written_files_are_identical(self, tmp_path):
        cfg = scenario_template("crossing", seed=2)
        for attempt in ("a", "b"):
            labels, dets = generate(cfg)
            write_detections(dets, tmp_path / f"{attempt}.dets.txt")
            write_kitti_labels(labels, tmp_path / f"{attempt}.labels.txt")
        assert (tmp_path / "a.dets.txt").read_bytes() == (tmp_path / "b.dets.txt").read_bytes()
        assert (tmp_path / "a.labels.txt").read_bytes() == (tmp_path / "b.labels.txt").read_bytes()

    def test_fp_count_follows_rate(self):
        cfg = ScenarioConfig(num_objects=1, num_frames=1000, fp_rate=2.0, seed=13)
        _, dets = generate(cfg)
        n_fp = sum(len(batch) for batch in dets.values()) - 1000
        # total is Poisson(2000): three sigma is about 134
        assert abs(n_fp - 2000) < 3 * math.sqrt(2000)

    def test_fp_scores_in_configured_range(self):
        cfg = ScenarioConfig(
            num_objects=1, num_frames=200, fp_rate=1.0, fp_score_low=0.6,
            fp_score_high=0.8, seed=17,
        )
        _, dets = generate(cfg)
        scores = np.concatenate([batch.scores for batch in dets.values()])
        fp_scores = scores[scores != 1.0]
        assert len(fp_scores)
        assert ((0.6 <= fp_scores) & (fp_scores <= 0.8)).all()

    def test_embedding_groups_share_means(self):
        specs = [
            ObjectSpec(0, 0, 1, 0, group=0),
            ObjectSpec(10, 0, -1, 0, group=0),
            ObjectSpec(0, 20, 1, 0),
        ]
        cfg = ScenarioConfig(
            num_frames=40, objects=specs, embedding_dim=8, embedding_noise=0.01, seed=5
        )
        _, dets = generate(cfg)
        first = dets[0].embeddings
        paired = np.abs(first[0] - first[1]).mean()
        other = np.abs(first[0] - first[2]).mean()
        assert paired < 0.05
        assert other > 0.2

    @pytest.mark.parametrize("name", TEMPLATES)
    def test_written_batches_read_back(self, tmp_path, name):
        """Reading the written detections gives generate's batches back,
        each value with 6 decimals, the heading wrapped after rounding; a
        frame whose detections have no embedding reads back without one."""
        _, dets = generate(scenario_template(name, seed=1))
        path = tmp_path / "dets.txt"
        write_detections(dets, path)
        back = read_detections(path)
        assert list(back) == list(dets)
        for frame, batch in dets.items():
            got = back[frame]
            boxes = as_written(batch.boxes)
            boxes[:, 6] = wrap_angle(boxes[:, 6])
            assert got.boxes.tobytes() == boxes.tobytes()
            assert got.scores.tobytes() == as_written(batch.scores).tobytes()
            np.testing.assert_array_equal(got.start_prob, batch.start_prob)
            assert (got.embeddings is None) == (batch.embeddings is None)
            if batch.embeddings is not None:
                expected = as_written(batch.embeddings)
                assert got.embeddings.tobytes() == expected.tobytes()

    def test_builds_no_box_or_detection(self, monkeypatch):
        """generate builds one batch per frame with detections, its boxes
        an array, and no Detection view per detection."""
        views = []

        def counted(*args):
            views.append(args)
            return detection(*args)

        detection = io_formats.Detection
        monkeypatch.setattr(io_formats, "Detection", counted)
        for name in TEMPLATES:
            labels, dets = generate(scenario_template(name, seed=1))
            assert len(labels) and sum(len(batch) for batch in dets.values()) > len(dets)
            assert all(batch.boxes.shape == (len(batch), 7) for batch in dets.values())
        assert views == []
        dets[max(dets)][0]  # the count sees a view that is built
        assert len(views) == 1

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(fp_rate=-1.0)

    @pytest.mark.parametrize(
        "scenario, message",
        [
            (
                dict(objects=[ObjectSpec(x=1e150, y=0, vx=1, vy=0)], num_frames=3),
                "object 0: vx 1 and vy 0 move it from x 1e+150, y 0 beyond 1e+100 in magnitude",
            ),
            (
                dict(objects=[ObjectSpec(0, 0, 0, 0), ObjectSpec(0, 9e99, 0, 2e98)], num_frames=6),
                "object 1: vx 0 and vy 2e+98 move it from x 0, y 9e+99 beyond 1e+100",
            ),
            (
                dict(speed_min=0, speed_max=1e99, num_frames=100),
                "speed_min 0.0 and speed_max 1e+99 move an object beyond 1e+100 in magnitude",
            ),
            (
                dict(box_l=1e150, num_objects=1, num_frames=2),
                "box_l must be in [0, 1e+100], got 1e+150",
            ),
            (dict(box_w=-1, num_objects=1, num_frames=2), "box_w must be in [0, 1e+100], got -1"),
            (
                dict(pos_noise=1e120, num_objects=1, num_frames=2),
                "pos_noise 1e+120 moves a detection beyond 1e+100 in magnitude",
            ),
            (
                dict(extent=2.4e100, fp_rate=3, num_objects=1, num_frames=2),
                "extent 2.4e+100 puts a false positive beyond 1e+100 in magnitude",
            ),
            (
                dict(fp_near_sigma=1e101, fp_rate=3, num_objects=1, num_frames=2),
                "fp_near_sigma 1e+101 puts a false positive beyond 1e+100 in magnitude",
            ),
        ],
        ids=[
            "object-start", "object-path", "speed-range", "box-extent", "negative-box-extent",
            "position-noise", "false-positive-extent", "false-positive-sigma",
        ],
    )
    def test_path_beyond_the_box_limit_rejected(self, scenario, message):
        # the config passed these, and generate failed at a detection row
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ScenarioConfig(**scenario)

    def test_path_just_inside_the_box_limit_generates(self):
        specs = [ObjectSpec(x=1e100, y=-1e100, vx=0, vy=0), ObjectSpec(x=9e99, y=0, vx=1e97, vy=0)]
        labels, dets = generate(ScenarioConfig(objects=specs, num_frames=50))
        assert np.abs(labels["box"][:, :2]).max() == 1e100
        assert len(dets) == 50
        labels, _ = generate(ScenarioConfig(speed_min=0, speed_max=1e97, num_frames=100))
        assert np.abs(labels["box"][:, :2]).max() > 1e98

    @pytest.mark.parametrize(
        "scenario",
        [
            dict(box_l=1e100, box_w=0.0, box_h=1e100),
            # 0.4 * extent + 2 frames at speed 1 is 34; 34 + 8.58 * sigma
            dict(pos_noise=1.165e99),
            dict(extent=2e100, fp_rate=3),
            dict(fp_near_sigma=1.165e99, fp_rate=3),
        ],
        ids=["box-extent", "position-noise", "false-positive-extent", "false-positive-sigma"],
    )
    def test_just_inside_the_box_limit_generates(self, scenario):
        _, dets = generate(ScenarioConfig(num_objects=1, num_frames=2, seed=3, **scenario))
        assert len(dets) == 2


class TestTemplates:
    def test_crossing_paths_intersect(self):
        cfg = scenario_template("crossing")
        labels, _ = generate(cfg)
        # rows 0 and 1 of a frame are objects 0 and 1, the first pair
        closest = min(
            np.linalg.norm(rows["box"][0, :3] - rows["box"][1, :3])
            for rows in labels_to_frames(labels).values()
        )
        assert closest < 1.0  # the pair really meets

    def test_crossing_objects_layout(self):
        specs = crossing_objects(num_pairs=3)
        assert len(specs) == 6
        assert {s.group for s in specs} == {0, 1, 2}

    def test_templates_build(self):
        for name in TEMPLATES:
            labels, dets = generate(scenario_template(name))
            assert len(labels) and dets

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            scenario_template("nope")
