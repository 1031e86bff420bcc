import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracker_oracle
from conftest import WORKLOAD_NAMES
from mipmot import affinity
from mipmot import tracker as tracker_module
from mipmot.geometry import wrap_angle
from mipmot.io_formats import ROW_DTYPE, DetectionBatch
from mipmot.simgen import generate, scenario_template
from mipmot.tracker import Tracker, TrackerConfig, run_sequence
from tables import batch, box


def det(x, y, score=1.0, start_prob=None, embedding=None):
    """A car-sized detection at (x, y): one row of a ``batch``."""
    b = box(x, y, 0.75, 4.0, 1.8, 1.5, 0.0)
    return SimpleNamespace(box=b, score=score, start_prob=start_prob, embedding=embedding)


def assert_covariance_table(tracker):
    """Each track points at one covariance entry, and every entry is
    pointed at."""
    assert tracker.cov_index.shape == tracker.ids.shape
    assert tracker.cov_table.shape[1:] == (10, 10)
    assert np.bincount(tracker.cov_index, minlength=len(tracker.cov_table)).all()


class TestStep:
    def test_empty_frame_no_tracks(self):
        result = Tracker().step(0, [])
        assert result.frame == 0
        assert len(result.tracks) == 0

    def test_certain_detection_confirms_immediately(self):
        tracker = Tracker()
        ids = []
        for frame in range(5):
            result = tracker.step(frame, batch(frame, det(0.0, 0.0, score=1.0)))
            assert len(result.tracks) == 1
            ids.append(result.tracks[0][0])
        assert len(set(ids)) == 1  # one id for the whole run, from frame 0

    def test_high_start_prob_creates_confirmed_track(self):
        # 100*(0.99 - 1) + 1*1.0 = 0: the solver still selects the start
        tracker = Tracker()
        result = tracker.step(0, batch(0, det(0.0, 0.0, score=0.99, start_prob=1.0)))
        assert len(result.tracks) == 1
        assert tracker.tracks[0].confirmed

    def test_midscore_detection_enters_tentative(self):
        tracker = Tracker()
        result = tracker.step(0, batch(0, det(0.0, 0.0, score=0.9)))
        assert len(result.tracks) == 0  # tentative tracks are never emitted
        assert len(tracker.tracks) == 1
        track = tracker.tracks[0]
        assert not track.confirmed
        assert track.misses == 1
        result = tracker.step(1, batch(1, det(0.0, 0.0, score=0.9)))
        assert len(result.tracks) == 1  # matched once, theta_hit=0 confirms

    def test_below_threshold_detections_dropped(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0, score=0.5)))
        assert len(tracker.tracks) == 0

    def test_out_of_order_frame_rejected(self):
        tracker = Tracker()
        tracker.step(3, [])
        with pytest.raises(ValueError):
            tracker.step(3, [])
        with pytest.raises(ValueError):
            tracker.step(1, [])

    def test_embedding_size_change_rejected_before_any_change(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0, embedding=[1.0, 2.0, 3.0, 4.0])))
        tracks = tracker.tracks
        before = (tracker.mean.copy(), tracker.cov_table.copy(), tracker.embeddings.copy())
        frame = batch(1, det(0.1, 0.0), det(9.0, 0.0, embedding=[1.0, 2.0, 3.0]))
        message = "frame 1, detection 1: embedding has 3 values, expected 4"
        with pytest.raises(ValueError, match=message):
            tracker.step(1, frame)
        np.testing.assert_array_equal(tracker.tracks, tracks)
        np.testing.assert_array_equal(tracker.mean, before[0])
        np.testing.assert_array_equal(tracker.cov_table, before[1])
        np.testing.assert_array_equal(tracker.embeddings, before[2])
        assert tracker._last_frame == 0
        # the frame can be given again once fixed
        assert len(tracker.step(1, batch(1, det(0.1, 0.0))).tracks) == 1

    @pytest.mark.parametrize("frame", [0.5, 1.0, True, "1", None])
    def test_non_integer_frame_rejected_before_any_change(self, frame):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0)))
        tracks, mean = tracker.tracks, tracker.mean.copy()
        with pytest.raises(ValueError, match="frame must be an integer"):
            tracker.step(frame, batch(1, det(0.1, 0.0)))
        np.testing.assert_array_equal(tracker.tracks, tracks)
        np.testing.assert_array_equal(tracker.mean, mean)
        assert tracker._last_frame == 0
        assert tracker.step(1, batch(1, det(0.1, 0.0))).frame == 1

    def test_negative_frame_rejected_before_any_change(self):
        tracker = Tracker()
        for detections in ([], DetectionBatch(0, [], [])):
            with pytest.raises(ValueError, match="frame must be nonnegative, got -1"):
                tracker.step(-1, detections)
        assert tracker._last_frame is None
        assert tracker.step(0, []).frame == 0

    def test_frame_beyond_64_bits_rejected(self):
        tracker = Tracker()
        with pytest.raises(ValueError, match="frame beyond 64 bits: 9223372036854775808"):
            tracker.step(2**63, [])
        assert tracker._last_frame is None
        assert tracker.step(2**63 - 1, []).frame == 2**63 - 1

    def test_detections_of_another_frame_rejected_before_any_change(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0)))
        tracks, mean = tracker.tracks, tracker.mean.copy()
        with pytest.raises(ValueError, match="frame 2: the batch is of frame 5"):
            tracker.step(2, batch(5, det(0.1, 0.0)))
        np.testing.assert_array_equal(tracker.tracks, tracks)
        np.testing.assert_array_equal(tracker.mean, mean)
        assert tracker._last_frame == 0
        assert tracker.step(2, batch(2, det(0.1, 0.0))).frame == 2

    def test_one_filter_call_per_frame_and_boxes_only_for_output(self, monkeypatch):
        calls = dict.fromkeys(("kf_init", "kf_predict", "kf_update"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("kf_init", "kf_predict", "kf_update"):
            monkeypatch.setattr(tracker_module, name, counted(name, getattr(tracker_module, name)))

        _, detections = generate(scenario_template("clutter", seed=0))
        tracker = Tracker()
        for frame in range(max(detections) + 1):
            calls.update(dict.fromkeys(calls, 0))
            result = tracker.step(frame, detections.get(frame, []))
            assert max(calls.values()) <= 1
            # the emitted tracks are rows of arrays
            assert result.tracks.dtype == ROW_DTYPE
            assert tracker.mean.shape == (len(tracker.tracks), 10)
            assert_covariance_table(tracker)
            # every column of the table is row-aligned, and the rows are
            # in id order, so the emitted tracks need no sort
            for name in ("confidence", "hits", "misses", "confirmed", "embeddings"):
                assert len(getattr(tracker, name)) == len(tracker.ids), name
            assert np.all(np.diff(tracker.ids) > 0)

    def test_tracks_with_one_history_share_one_covariance(self, monkeypatch):
        """Tracks born on one frame and matched on the same frames hold one
        covariance entry, and the update solves once per entry of the
        matched rows. Tracks born on frames 0, 3 and 10 keep one entry per
        birth frame, and the track missed on frame 20 splits off its own.
        Entries are not merged: those of frames 0 and 3 have equal bytes
        once both reach the filter's fixed point, after 71 updates."""
        solved = []

        def counted_solve(a, b):
            solved.append(len(a))
            return solve(a, b)

        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        births = {0.0: 0, 20.0: 0, 40.0: 3, 60.0: 10, 80.0: 10}
        history = {}  # x -> (birth frame, missed on frame 20)
        tracker = Tracker()
        for frame in range(90):
            shown = [x for x, born in births.items() if born <= frame and (x, frame) != (20.0, 20)]
            matched = {history[x] for x in shown if x in history}
            history = {
                x: (born, x == 20.0 and frame >= 20) for x, born in births.items() if born <= frame
            }
            solved.clear()
            tracker.step(frame, batch(frame, *(det(x, 0.0) for x in shown)))
            assert solved == [len(matched)]
            assert_covariance_table(tracker)
            assert len(tracker.cov_table) == len(set(history.values()))
        assert len(tracker.ids) == 5
        assert tracker.cov_index[3] == tracker.cov_index[4]  # born on frame 10
        first, second = tracker.cov_table[tracker.cov_index[[0, 2]]]
        assert tracker.cov_index[0] != tracker.cov_index[2]
        assert first.tobytes() == second.tobytes()

    def test_empty_sequence_coasts_and_other_input_rejected(self):
        """``[]`` is a frame without detections; any other input that is
        not a batch fails before any state changes."""
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0)))
        coasted = tracker.step(1, [])
        assert len(coasted.tracks) == 0
        assert tracker.misses.tolist() == [1] and tracker.hits.tolist() == [0]
        tracks, mean = tracker.tracks, tracker.mean.copy()
        for detections in ([det(0.0, 0.0)], list(batch(2, det(0.0, 0.0)))):
            with pytest.raises(TypeError, match="frame 2: detections must be a DetectionBatch"):
                tracker.step(2, detections)
        np.testing.assert_array_equal(tracker.tracks, tracks)
        np.testing.assert_array_equal(tracker.mean, mean)
        assert tracker._last_frame == 1
        assert [t[0] for t in tracker.step(2, batch(2, det(0.0, 0.0))).tracks] == [1]

    def test_births_keep_their_own_embeddings(self):
        """A track born from a detection with an embedding keeps it, also
        when another detection of the frame has none."""
        tracker = Tracker()
        frame = DetectionBatch(
            0,
            [[0, 0, 0.75, 4, 1.8, 1.5, 0], [20, 0, 0.75, 4, 1.8, 1.5, 0]],
            [1.0, 1.0],
            embeddings=[[1.0, 2.0], [np.nan, np.nan]],
        )
        tracker.step(0, frame)
        assert len(tracker.ids) == 2
        np.testing.assert_array_equal(tracker.embeddings[0], [1.0, 2.0])
        assert np.isnan(tracker.embeddings[1]).all()
        # a match with a detection that has none keeps the track's embedding
        tracker.step(1, batch(1, det(0.1, 0.0), det(20.1, 0.0, embedding=[3.0, 4.0])))
        np.testing.assert_array_equal(tracker.embeddings[0], [1.0, 2.0])
        np.testing.assert_array_equal(tracker.embeddings[1], [3.0, 4.0])

    def test_batch_embedding_size_checked_against_tracks(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0, embedding=[1.0, 2.0])))
        frame = DetectionBatch(
            1,
            [[0, 0, 0.75, 4, 1.8, 1.5, 0]] * 2,
            [1.0, 1.0],
            embeddings=[[np.nan] * 3, [1.0, 2.0, 3.0]],
        )
        message = "frame 1, detection 1: embedding has 3 values, expected 2"
        with pytest.raises(ValueError, match=message):
            tracker.step(1, frame)
        assert tracker._last_frame == 0

    def test_embedding_size_free_once_no_track_has_one(self):
        """The tracks' embedding size binds a batch only while a live
        track has an embedding."""
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0, embedding=[1.0, 2.0]), det(20.0, 0.0)))
        for frame in range(1, 4):  # the track with an embedding misses 3 > 2 times
            tracker.step(frame, batch(frame, det(20.0, 0.0)))
        assert len(tracker.ids) == 1 and np.isnan(tracker.embeddings).all()
        frame = batch(
            4,
            det(20.0, 0.0, embedding=[1.0, 2.0, 3.0]),
            det(-20.0, 0.0, embedding=[3.0, 2.0, 1.0]),
        )
        result = tracker.step(4, frame)
        assert len(result.tracks) == 2
        np.testing.assert_array_equal(tracker.embeddings, [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])

    def test_crossing_objects_keep_ids(self):
        tracker = Tracker()
        id_by_object = {}
        for frame in range(20):
            a = det(-10.0 + frame, 2.0)
            b = det(10.0 - frame, -2.0)
            result = tracker.step(frame, batch(frame, a, b))
            assert len(result.tracks) == 2
            for tid, box, _ in result.tracks:
                obj = 0 if box[1] > 0 else 1
                id_by_object.setdefault(obj, set()).add(tid)
        assert len(id_by_object[0]) == 1
        assert len(id_by_object[1]) == 1
        assert id_by_object[0] != id_by_object[1]


class TestLifecycle:
    def test_tentative_track_expires(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0, score=0.9)))  # tentative, misses=1
        tracker.step(1, [])  # misses=2
        tracker.step(2, [])  # misses=3 > 2: deleted
        assert len(tracker.tracks) == 0

    def test_confirmed_track_bridges_occlusion(self):
        tracker = Tracker()
        first = tracker.step(0, batch(0, det(0.0, 0.0)))
        tid = first.tracks[0][0]
        missed = tracker.step(1, [])
        assert len(missed.tracks) == 0  # no output while coasting
        back = tracker.step(2, batch(2, det(0.0, 0.0)))
        assert [t[0] for t in back.tracks] == [tid]

    def test_confirmed_track_expires_after_three_misses(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0)))
        for frame in range(1, 4):
            tracker.step(frame, [])
        assert len(tracker.tracks) == 0

    def test_miss_resets_hit_streak(self):
        tracker = Tracker(TrackerConfig(theta_hit=1))
        tracker.step(0, batch(0, det(0.0, 0.0, score=0.9)))  # tentative
        tracker.step(1, batch(1, det(0.0, 0.0, score=0.9)))  # hits=1, still tentative
        tracker.step(2, [])  # miss: hits back to 0
        assert tracker.tracks[0].hits == 0
        result = tracker.step(3, batch(3, det(0.0, 0.0, score=0.9)))
        assert len(result.tracks) == 0  # hits=1 again, not yet above theta_hit

    def test_ids_increase_in_creation_order(self):
        tracker = Tracker()
        result = tracker.step(0, batch(0, det(0.0, 0.0), det(20.0, 0.0), det(-20.0, 5.0)))
        ids = [t[0] for t in result.tracks]
        assert ids == sorted(ids)
        r2 = tracker.step(1, batch(1, det(40.0, 40.0)))
        new_ids = [t[0] for t in r2.tracks if t[0] not in ids]
        assert all(n > max(ids) for n in new_ids)

    @pytest.mark.parametrize(
        "associator, emitted",
        [("mip", [(1, [1]), (4, [1])]), ("hungarian", [(0, [1]), (1, [1]), (4, [1])])],
    )
    def test_confirmed_track_coasts_over_an_empty_detection_side(self, associator, emitted):
        """Frame 2's one detection is below theta_cls and frame 3 has
        none: the track coasts over two frames without a detection, then
        keeps its id. The MIP starts it tentative at frame 0; the
        baseline starts it confirmed."""
        by_frame = {
            0: batch(0, det(0.0, 0.0, score=0.95)),
            1: batch(1, det(0.5, 0.0, score=0.95)),
            2: batch(2, det(1.0, 0.0, score=0.5)),
            4: batch(4, det(2.0, 0.0, score=0.95)),
        }
        results = run_sequence(by_frame, TrackerConfig(associator=associator))
        rows = [(r.frame, r.tracks["id"].tolist()) for r in results if len(r.tracks)]
        assert rows == emitted

    def test_coasting_uses_prediction(self):
        tracker = Tracker()
        for frame in range(5):
            tracker.step(frame, batch(frame, det(float(frame), 0.0)))
        tracker.step(5, [])
        # after learning ~1 m/frame, the coasted box should sit near x=5
        assert tracker.mean[0, 0] == pytest.approx(5.0, abs=0.3)


class TestAssociators:
    def test_hungarian_starts_everything(self):
        tracker = Tracker(TrackerConfig(associator="hungarian"))
        result = tracker.step(0, batch(0, det(0.0, 0.0, score=0.86), det(9.0, 0.0, score=0.9)))
        assert len(result.tracks) == 2  # baseline trusts all inputs

    def test_mip_suppresses_low_confidence_clutter(self):
        tracker = Tracker(TrackerConfig(associator="mip"))
        result = tracker.step(0, batch(0, det(0.0, 0.0, score=0.86), det(9.0, 0.0, score=0.9)))
        assert len(result.tracks) == 0

    def test_unknown_associator_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(associator="greedy")


class TestTrackConfidence:
    def test_last_detection_by_default(self):
        tracker = Tracker()
        tracker.step(0, batch(0, det(0.0, 0.0, score=1.0)))
        tracker.step(1, batch(1, det(0.0, 0.0, score=0.9)))
        assert tracker.tracks[0].confidence == pytest.approx(0.9)

    def test_exponential_smoothing(self):
        tracker = Tracker(TrackerConfig(confidence_smoothing=0.5))
        tracker.step(0, batch(0, det(0.0, 0.0, score=1.0)))
        tracker.step(1, batch(1, det(0.0, 0.0, score=0.9)))
        assert tracker.tracks[0].confidence == pytest.approx(0.95)

    def test_smoothing_range_validated(self):
        with pytest.raises(ValueError):
            TrackerConfig(confidence_smoothing=1.0)


class TestDeterminism:
    def _run(self):
        rng = np.random.default_rng(77)
        frames = []
        for frame in range(15):
            dets = [
                det(
                    float(rng.uniform(-20, 20)),
                    float(rng.uniform(-20, 20)),
                    score=float(rng.uniform(0.85, 1.0)),
                )
                for _ in range(rng.integers(0, 6))
            ]
            frames.append(batch(frame, *dets))
        tracker = Tracker()
        return [tracker.step(i, d) for i, d in enumerate(frames)]

    def test_identical_runs(self):
        r1, r2 = self._run(), self._run()
        assert [(r.frame, r.tracks.tobytes()) for r in r1] == [
            (r.frame, r.tracks.tobytes()) for r in r2
        ]
        assert any(len(r.tracks) for r in r1)

    def test_run_sequence_covers_missing_frames(self):
        by_frame = {0: batch(0, det(0.0, 0.0)), 4: batch(4, det(0.0, 0.0))}
        results = run_sequence(by_frame)
        assert [r.frame for r in results] == [0, 1, 2, 3, 4]

    def test_run_sequence_skips_frames_without_tracks(self):
        """A lone frame near 2**63 is stepped at once: the empty frames
        before it, with no track to change, are skipped."""
        last = 2**63 - 1
        start = time.perf_counter()
        results = run_sequence({last: batch(last, det(0.0, 0.0))})
        assert time.perf_counter() - start < 1.0
        assert [(r.frame, r.tracks["id"].tolist()) for r in results] == [(last, [1])]

    @pytest.mark.parametrize("theta_miss", [0, 2, 5])
    def test_skipped_frames_change_no_row(self, theta_miss):
        """run_sequence steps an empty frame only while a track lives, at
        most theta_miss + 1 after a frame with detections; its results are
        those of stepping every frame, less empty frames without a row."""
        rng = np.random.default_rng(theta_miss)
        cfg = TrackerConfig(theta_miss=theta_miss)
        frames = np.cumsum(rng.integers(1, 8, size=15)).tolist()
        # three still objects, each seen on a frame with probability 0.7
        by_frame = {}
        for f in frames:
            seen = [x for x in (0.0, 10.0, 20.0) if rng.random() < 0.7]
            by_frame[f] = batch(f, *(det(x + rng.normal(0, 0.1), 0.0) for x in seen))
        num_frames = frames[-1] + 10
        tracker = Tracker(cfg)
        every = [tracker.step(f, by_frame.get(f, [])) for f in range(num_frames)]
        results = run_sequence(by_frame, cfg)
        stepped = {r.frame for r in results}
        assert [(r.frame, r.tracks.tobytes()) for r in results] == [
            (r.frame, r.tracks.tobytes()) for r in every if r.frame in stepped
        ]
        assert not any(len(r.tracks) for r in every if r.frame not in stepped)
        assert stepped >= set(frames) and len(stepped) < num_frames
        for s in stepped - set(frames):
            assert s - max(f for f in frames if f < s) <= theta_miss + 1


def trajectories(results, x_max=math.inf) -> list:
    """Each id's (frame, box bytes, score) sequence, sorted: the output
    with the id values left out, and the ids whose box ever reaches
    x = ``x_max``."""
    by_id, beyond = {}, set()
    for r in results:
        for tid, box, score in r.tracks:
            by_id.setdefault(tid, []).append((r.frame, box.tobytes(), score.hex()))
            if box[0] >= x_max:
                beyond.add(tid)
    return sorted(rows for tid, rows in by_id.items() if tid not in beyond)


class TestShuffleWithinFrame:
    """Shuffling the detections inside each frame gives the same
    trajectories, bit for bit, up to a relabelling of ids."""

    @staticmethod
    def permuted(b: DetectionBatch, order) -> DetectionBatch:
        """The batch ``b`` with its rows in ``order``."""
        embeddings = None if b.embeddings is None else b.embeddings[order]
        arrays = (b.boxes[order], b.scores[order], b.start_prob[order], embeddings)
        return DetectionBatch(b.frame, *arrays)

    @pytest.mark.parametrize("associator", ["mip", "hungarian"])
    @pytest.mark.parametrize("template", ["clean", "crossing", "clutter"])
    def test_same_trajectories(self, template, associator):
        cfg = TrackerConfig(associator=associator)
        for seed in range(3):
            scenario = scenario_template(template, seed=seed)
            _, detections = generate(scenario)
            rng = np.random.default_rng(seed)
            shuffled = {
                f: self.permuted(b, rng.permutation(len(b))) for f, b in detections.items()
            }
            expected = trajectories(run_sequence(detections, cfg))
            assert expected
            got = trajectories(run_sequence(shuffled, cfg))
            assert got == expected, seed

    @pytest.mark.parametrize("associator", ["mip", "hungarian"])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_same_trajectories_at_workload_scale(self, workload_detections, name, associator):
        """The benchmark's workloads at its default seed: ``sparse-300``
        runs the gate on every frame but the first, which no template
        reaches."""
        cfg = TrackerConfig(associator=associator)
        detections = workload_detections(name, 1)
        rng = np.random.default_rng(1)
        shuffled = {f: self.permuted(b, rng.permutation(len(b))) for f, b in detections.items()}
        expected = trajectories(run_sequence(detections, cfg))
        assert expected
        assert trajectories(run_sequence(shuffled, cfg)) == expected


class TestFarCopy:
    """A copy of every frame's detections 1e5 m further in x, with the
    same scores, start probabilities and embeddings, leaves the
    trajectories of the tracks that stay below x = 5e4 as they were,
    bit for bit, up to a relabelling of ids.

    With appearance off (``beta_over_alpha`` = inf) this holds by
    construction, up to assignment ties: a pair across the gap scores
    almost no motion affinity, so each half is associated as if alone.
    At the default ``beta_over_alpha`` of 10 it is an observation, not
    a theorem: the two-way softmax normalises each row and column over
    the whole frame, so the copy changes the near pairs' appearance
    values, yet every association stayed the same on these workloads.
    The copy takes ``dense-clutter`` past the size where the gate runs:
    on 59 of its 60 frames, against none without the copy, so the near
    half is scored in pair form here and densely in the plain run.
    """

    SHIFT = 1e5

    @classmethod
    def with_far_copy(cls, b: DetectionBatch) -> DetectionBatch:
        """The batch ``b`` followed by its copy ``SHIFT`` further in x."""
        far = b.boxes.copy()
        far[:, 0] += cls.SHIFT
        embeddings = None if b.embeddings is None else np.concatenate((b.embeddings,) * 2)
        columns = (np.concatenate((b.boxes, far)), np.tile(b.scores, 2), np.tile(b.start_prob, 2))
        return DetectionBatch(b.frame, *columns, embeddings)

    @pytest.mark.parametrize("ratio", [math.inf, 10.0])
    @pytest.mark.parametrize("associator", ["mip", "hungarian"])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_near_trajectories_unchanged(self, workload_detections, name, associator, ratio):
        cfg = TrackerConfig(associator=associator, beta_over_alpha=ratio)
        detections = workload_detections(name, 1)
        doubled = {f: self.with_far_copy(b) for f, b in detections.items()}
        expected = trajectories(run_sequence(detections, cfg))
        assert expected
        got = run_sequence(doubled, cfg)
        assert trajectories(got, x_max=self.SHIFT / 2) == expected
        assert len(trajectories(got)) > len(expected)


@pytest.mark.parametrize(
    "source, seed",
    [(t, s) for t in ("clean", "crossing", "clutter") for s in range(3)]
    + [(name, 1) for name in WORKLOAD_NAMES],
)
def test_mean_heading_stays_wrapped(workload_detections, source, seed):
    """After every step each track's heading is in (-pi, pi], with the
    bits ``wrap_angle`` gives it: ``kf_init`` and ``kf_update`` wrap it
    and ``kf_predict`` keeps its bits, so the output reads it as it is."""
    if source in WORKLOAD_NAMES:
        detections = workload_detections(source, seed)
    else:
        _, detections = generate(scenario_template(source, seed=seed))
    tracker = Tracker()
    for frame in range(max(detections) + 1):
        tracker.step(frame, detections.get(frame, []))
        heading = tracker.mean[:, 6]
        assert heading.tobytes() == wrap_angle(heading).tobytes(), frame


@st.composite
def reference_runs(draw):
    """A sequence of up to 8 frames of up to 6 objects, as
    ``{frame: [Det]}``, and a config drawn at random.

    Objects are born and die within the sequence, move at constant
    velocity and are missed at random. Each frame holds up to 3 clutter
    detections, ghosts near an object or scattered, and its embeddings
    are all there, all missing or missing at random. Frames after the
    first come 1 to 3 apart. The objects start within 15 m or within
    400 m of the origin; at 400 m the gate, where it is tried, cuts some
    frames. The continuous values come from one drawn seed, so that no
    score or probability is a boundary value."""
    num_frames = draw(st.integers(1, 8))
    gaps = [draw(st.integers(1, 3)) for _ in range(1, num_frames)]
    frames = np.cumsum([draw(st.integers(0, 2)), *gaps])
    lives = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 8)), max_size=6))
    clutter = [draw(st.integers(0, 3)) for _ in range(num_frames)]
    embedded = [draw(st.sampled_from(["all", "none", "some"])) for _ in range(num_frames)]
    spread = draw(st.sampled_from([15.0, 400.0]))
    use_dis, use_iou = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    cfg = TrackerConfig(
        associator=draw(st.sampled_from(["mip", "hungarian"])),
        theta_hit=draw(st.integers(0, 2)),
        theta_miss=draw(st.integers(0, 3)),
        confidence_smoothing=draw(st.sampled_from([0.0, 0.3, 0.8])),
        beta_over_alpha=draw(st.sampled_from([0.0, 1.0, 10.0, math.inf])),
        use_dis=use_dis,
        use_iou=use_iou,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    objects = []
    for first, length in lives:
        size = rng.uniform((3.5, 1.5, 1.4), (5.0, 2.0, 1.8))
        heading = rng.uniform(-math.pi, math.pi)
        # a certain object starts a track, a likely one enters tentative,
        # and an unlikely one is filtered out
        scores = (rng.uniform(0.996, 1.0), rng.uniform(0.86, 0.99), rng.uniform(0.5, 0.85))
        objects.append(
            SimpleNamespace(
                frames=range(first, first + length),
                start=np.r_[rng.uniform(-spread, spread, 2), 0.75, size, heading],
                velocity=np.r_[rng.uniform(-2.0, 2.0, 2), np.zeros(5)],
                embedding=rng.uniform(-1.0, 1.0, 4),
                score=scores[rng.integers(3)],
            )
        )

    def detection(box, score, embedding, mode):
        box = box + np.r_[rng.normal(0.0, 0.2, 3), np.zeros(4)]
        start_prob = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else None
        if mode == "none" or (mode == "some" and rng.random() < 0.3):
            embedding = None
        else:
            embedding = embedding + rng.normal(0.0, 0.1, 4)
        return tracker_oracle.Det(box, score, start_prob, embedding)

    sequence = {}
    for i, frame in enumerate(frames.tolist()):
        dets = [
            detection(o.start + frame * o.velocity, o.score, o.embedding, embedded[i])
            for o in objects
            if i in o.frames and rng.random() < 0.85
        ]
        for _ in range(clutter[i]):
            # a ghost near an object, or a box anywhere
            if objects and rng.random() < 0.5:
                o = objects[rng.integers(len(objects))]
                centre = o.start + frame * o.velocity
            else:
                centre = np.r_[rng.uniform(-spread, spread, 2), 0.75, 4.0, 1.8, 1.5, 0.0]
            ghost = centre + np.r_[rng.normal(0.0, 2.0, 2), np.zeros(4), rng.uniform(-3.0, 3.0)]
            score = rng.uniform(0.3, 1.0)
            dets.append(detection(ghost, score, rng.uniform(-1.0, 1.0, 4), embedded[i]))
        sequence[frame] = dets
    return sequence, cfg


class TestReferenceTracker:
    """``run_sequence`` against ``tracker_oracle``: the same ids on
    every frame, boxes within 1e-9 and equal confidences. Sequences
    whose association ties on some frame (``TiedAssociation``) are
    skipped and counted. Run as it is, and with the gate tried on every
    mip frame (``_GATE_MIN_PAIRS`` = 0), so that the pair form is
    checked too; the counts are printed."""

    @pytest.mark.parametrize("gate_min_pairs", [None, 0])
    def test_same_tracks_as_reference(self, monkeypatch, gate_min_pairs):
        if gate_min_pairs is not None:
            monkeypatch.setattr(affinity, "_GATE_MIN_PAIRS", gate_min_pairs)
        counts = dict.fromkeys(("runs", "tied", "frames", "gated"), 0)
        compute = tracker_module.compute_affinities

        def counted(*args, **kwargs):
            aff = compute(*args, **kwargs)
            counts["frames"] += 1
            counts["gated"] += aff.pairs is not None
            return aff

        monkeypatch.setattr(tracker_module, "compute_affinities", counted)

        @settings(max_examples=300, deadline=None)
        @given(reference_runs())
        def check(run):
            sequence, cfg = run
            try:
                expected = tracker_oracle.run_sequence(sequence, cfg)
            except tracker_oracle.TiedAssociation:
                counts["tied"] += 1
                return
            counts["runs"] += 1
            batches = {f: batch(f, *dets) for f, dets in sequence.items()}
            got = run_sequence(batches, cfg)
            assert [r.frame for r in got] == [frame for frame, _ in expected]
            for result, (frame, rows) in zip(got, expected):
                tracks = result.tracks
                assert tracks["id"].tolist() == [i for i, _, _ in rows], frame
                assert tracks["score"].tolist() == [c for _, _, c in rows], frame
                want = np.reshape([b for _, b, _ in rows], (-1, 7))
                diff = tracks["box"] - want
                diff[:, 6] = wrap_angle(diff[:, 6])
                assert np.abs(diff).max(initial=0.0) <= 1e-9, frame

        check()
        print(f"reference tracker: {counts}")
        assert counts["runs"] >= 30
        assert gate_min_pairs is None or counts["gated"] > 0
