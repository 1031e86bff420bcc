from types import SimpleNamespace

import numpy as np
import pytest

from mipmot import tracker as tracker_module
from mipmot.geometry import Box3D
from mipmot.io_formats import DetectionBatch
from mipmot.simgen import generate, scenario_template
from mipmot.tracker import Tracker, TrackerConfig, run_sequence
from tables import batch


def det(x, y, score=1.0, start_prob=None, embedding=None):
    """A car-sized detection at (x, y): one row of a ``batch``."""
    box = Box3D(x, y, 0.75, 4.0, 1.8, 1.5, 0.0)
    return SimpleNamespace(box=box, score=score, start_prob=start_prob, embedding=embedding)


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
        before = (tracker.mean.copy(), tracker.cov.copy(), tracker.embeddings.copy())
        frame = batch(1, det(0.1, 0.0), det(9.0, 0.0, embedding=[1.0, 2.0, 3.0]))
        message = "frame 1, detection 1: embedding has 3 values, expected 4"
        with pytest.raises(ValueError, match=message):
            tracker.step(1, frame)
        np.testing.assert_array_equal(tracker.tracks, tracks)
        np.testing.assert_array_equal(tracker.mean, before[0])
        np.testing.assert_array_equal(tracker.cov, before[1])
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
        calls = dict.fromkeys(("kf_init", "kf_predict", "kf_update", "Box3D"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("kf_init", "kf_predict", "kf_update"):
            monkeypatch.setattr(tracker_module, name, counted(name, getattr(tracker_module, name)))

        _, detections = generate(scenario_template("clutter", seed=0))
        monkeypatch.setattr(Box3D, "__init__", counted("Box3D", Box3D.__init__))
        tracker = Tracker()
        for frame in range(max(detections) + 1):
            calls.update(dict.fromkeys(calls, 0))
            result = tracker.step(frame, detections.get(frame, []))
            assert max(calls[n] for n in ("kf_init", "kf_predict", "kf_update")) <= 1
            # the emitted tracks are rows of arrays, not boxes
            assert calls["Box3D"] == 0
            assert tracker.mean.shape == (len(tracker.tracks), 10)
            assert tracker.cov.shape == (len(tracker.tracks), 10, 10)
            # every column of the table is row-aligned, and the rows are
            # in id order, so the emitted tracks need no sort
            for name in ("confidence", "hits", "misses", "confirmed", "embeddings"):
                assert len(getattr(tracker, name)) == len(tracker.ids), name
            assert np.all(np.diff(tracker.ids) > 0)

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


def trajectories(results) -> list:
    """Each id's (frame, box bytes, score) sequence, sorted: the output
    with the id values left out."""
    by_id = {}
    for r in results:
        for tid, box, score in r.tracks:
            by_id.setdefault(tid, []).append((r.frame, box.tobytes(), score.hex()))
    return sorted(by_id.values())


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
            expected = trajectories(run_sequence(detections, cfg, scenario.num_frames))
            assert expected
            got = trajectories(run_sequence(shuffled, cfg, scenario.num_frames))
            assert got == expected, seed
