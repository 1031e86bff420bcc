import math

import numpy as np
import pytest

from diou_oracle import center_distance
from mipmot.io_formats import write_detections, write_kitti_labels
from mipmot.simgen import (
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


class TestGenerate:
    def test_clean_limit_detections_equal_gt(self):
        cfg = ScenarioConfig(num_objects=4, num_frames=20, seed=3)
        labels, dets = generate(cfg)
        assert len(labels) == 80
        assert len(dets) == 80
        by_key = {(rec.frame, rec.track_id): rec for rec in labels}
        for i, det in enumerate(dets):
            gt = by_key[(det.frame, i % 4)]
            np.testing.assert_array_equal(det.box.to_array(), gt.box.to_array())
            assert det.score == 1.0

    def test_occlusion_window_drops_frames(self):
        cfg = ScenarioConfig(
            num_objects=5, num_frames=20, occlusions=[(3, 10, 2)], seed=1
        )
        _, dets = generate(cfg)
        frames_per_obj = {}
        for det in dets:
            # clean scenario: detections appear in object order per frame
            frames_per_obj.setdefault(det.frame, []).append(det)
        assert len(frames_per_obj[9]) == 5
        assert len(frames_per_obj[10]) == 4
        assert len(frames_per_obj[11]) == 4
        assert len(frames_per_obj[12]) == 5

    def test_same_seed_reproduces(self):
        cfg = scenario_template("clutter", seed=7)
        l1, d1 = generate(cfg)
        l2, d2 = generate(cfg)
        assert repr(l1) == repr(l2)
        assert repr(d1) == repr(d2)

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
        n_fp = len(dets) - 1000
        # total is Poisson(2000): three sigma is about 134
        assert abs(n_fp - 2000) < 3 * math.sqrt(2000)

    def test_fp_scores_in_configured_range(self):
        cfg = ScenarioConfig(
            num_objects=1, num_frames=200, fp_rate=1.0, fp_score_low=0.6,
            fp_score_high=0.8, seed=17,
        )
        _, dets = generate(cfg)
        fp_scores = [d.score for d in dets if d.score != 1.0]
        assert fp_scores
        assert all(0.6 <= s <= 0.8 for s in fp_scores)

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
        first = [d for d in dets if d.frame == 0]
        paired = np.abs(first[0].embedding - first[1].embedding).mean()
        other = np.abs(first[0].embedding - first[2].embedding).mean()
        assert paired < 0.05
        assert other > 0.2

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(fp_rate=-1.0)


class TestTemplates:
    def test_crossing_paths_intersect(self):
        cfg = scenario_template("crossing")
        labels, _ = generate(cfg)
        per_frame = {}
        for rec in labels:
            per_frame.setdefault(rec.frame, {})[rec.track_id] = rec.box
        closest = min(
            center_distance(frame[0], frame[1]) for frame in per_frame.values()
        )
        assert closest < 1.0  # the pair really meets

    def test_crossing_objects_layout(self):
        specs = crossing_objects(num_pairs=3)
        assert len(specs) == 6
        assert {s.group for s in specs} == {0, 1, 2}

    def test_templates_build(self):
        for name in ("clean", "crossing", "clutter"):
            labels, dets = generate(scenario_template(name))
            assert labels and dets

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            scenario_template("nope")
