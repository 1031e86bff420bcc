import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipmot.geometry import Box3D
from mipmot.io_formats import (
    Detection,
    FormatError,
    LabelRecord,
    read_detections,
    read_kitti_labels,
    write_detections,
    write_kitti_labels,
    write_kitti_tracking,
)
from mipmot.tracker import FrameResult


def random_detection(rng, frame) -> Detection:
    box = Box3D(
        *rng.uniform(-90, 90, 3),
        *rng.uniform(0.5, 8, 3),
        rng.uniform(-math.pi, math.pi),
    )
    embedding = rng.normal(size=8) if rng.random() < 0.5 else None
    start_prob = float(rng.uniform(0, 1)) if rng.random() < 0.5 else None
    return Detection(
        frame=frame,
        box=box,
        score=float(rng.uniform(0, 1)),
        embedding=embedding,
        start_prob=start_prob,
    )


def assert_detections_close(a: Detection, b: Detection, tol=1e-6):
    assert a.frame == b.frame
    np.testing.assert_allclose(a.box.to_array(), b.box.to_array(), atol=tol)
    assert a.score == pytest.approx(b.score, abs=tol)
    assert (a.start_prob is None) == (b.start_prob is None)
    if a.start_prob is not None:
        assert a.start_prob == pytest.approx(b.start_prob, abs=tol)
    assert (a.embedding is None) == (b.embedding is None)
    if a.embedding is not None:
        np.testing.assert_allclose(a.embedding, b.embedding, atol=tol)


class TestDetectionFiles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dets.txt"
        path.write_text("")
        assert read_detections(path) == {}

    def test_grouping_preserves_order(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "1 9 9 9 1 1 1 0 0.7\n"
            "0 1 0 0 1 1 1 0 0.9\n"
            "0 2 0 0 1 1 1 0 0.8\n"
        )
        frames = read_detections(path)
        assert list(frames) == [0, 1]
        assert [d.box.x for d in frames[0]] == [1.0, 2.0]
        assert len(frames[1]) == 1

    @pytest.mark.parametrize("json_lines", [False, True])
    def test_round_trip(self, tmp_path, json_lines):
        rng = np.random.default_rng(83)
        dets = [random_detection(rng, int(rng.integers(0, 20))) for _ in range(60)]
        path = tmp_path / "roundtrip.txt"
        write_detections(dets, path, json_lines=json_lines)
        frames = read_detections(path)
        flat = [d for frame in sorted(frames) for d in frames[frame]]
        dets_sorted = sorted(dets, key=lambda d: d.frame)
        assert len(flat) == len(dets)
        for a, b in zip(dets_sorted, flat):
            assert_detections_close(a, b)

    def test_mixed_formats_in_one_file(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text(
            "0 1 2 3 4 2 1.5 0.1 0.9\n"
            '{"frame": 0, "box": [5, 6, 7, 4, 2, 1.5, 0.2], "score": 0.8}\n'
        )
        frames = read_detections(path)
        assert len(frames[0]) == 2

    def test_text_with_start_prob_and_embedding(self, tmp_path):
        path = tmp_path / "full.txt"
        path.write_text("0 1 2 3 4 2 1.5 0.1 0.9 0.25 [0.5 -1.0 2.0]\n")
        d = read_detections(path)[0][0]
        assert d.start_prob == pytest.approx(0.25)
        np.testing.assert_allclose(d.embedding, [0.5, -1.0, 2.0])

    def test_embedding_without_start_prob(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 1 2 3 4 2 1.5 0.1 0.9 [1, 2, 3]\n")
        d = read_detections(path)[0][0]
        assert d.start_prob is None
        np.testing.assert_allclose(d.embedding, [1, 2, 3])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3 4 2 1.5 0.1 0.9\n0 1 2 3\n")
        with pytest.raises(FormatError, match=":2:"):
            read_detections(path)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 nan 2 3 4 2 1.5 0.1 0.9\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_detections(path)

    def test_rejects_bad_json_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame": 0, "box": [0,0,0,1,1,1,0], "score": 0.5, "oops": 1}\n')
        with pytest.raises(FormatError, match="oops"):
            read_detections(path)

    @pytest.mark.parametrize(
        "field, message",
        [
            ('"frame": 1.7', "frame must be an integer"),
            ('"frame": true', "frame must be an integer"),
            ('"box": "1234567"', "box must be a list of 7 numbers"),
            ('"box": [0, 0, 0, 1, 1, 1]', "box must be a list of 7 numbers"),
            ('"box": [0, 0, 0, 1, 1, 1, "0"]', "box must be a list of 7 numbers"),
            ('"score": true', "score must be a number"),
            ('"score": "0.5"', "score must be a number"),
            ('"start_prob": true', "start_prob must be a number"),
            ('"start_prob": "0.5"', "start_prob must be a number"),
            ('"embedding": ["1", "2"]', "embedding must be a list of numbers"),
            ('"embedding": [true, false]', "embedding must be a list of numbers"),
            ('"score": 1e400', "score must be in"),
            ('"score": 1' + "0" * 400, "int too large"),
            ('"box": [0, 0, 0, 1, 1, 1, 1e400]', "Box3D field a is not finite"),
        ],
    )
    def test_rejects_bad_json_values(self, tmp_path, field, message):
        """A bad value fails at its line, not as a coerced record."""
        record = {"frame": 0, "box": [0, 0, 0, 1, 1, 1, 0], "score": 0.9}
        lines = [json.dumps(record)] * 3
        record.update(json.loads("{" + field + "}"))
        lines.append(json.dumps(record))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"bad\.jsonl:4: {message}"):
            read_detections(path)

    def test_json_integers_accepted_as_numbers(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"frame": 2, "box": [1, 2, 3, 4, 2, 1, 0], "score": 1, "start_prob": 0}\n')
        d = read_detections(path)[2][0]
        assert (d.box, d.score, d.start_prob) == (Box3D(1, 2, 3, 4, 2, 1, 0), 1.0, 0.0)
        assert type(d.score) is float and type(d.start_prob) is float

    def test_rejects_embedding_size_change(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text(
            "0 1 2 3 4 2 1.5 0.1 0.9 [1 2 3 4]\n"
            "0 5 2 3 4 2 1.5 0.1 0.9\n"
            "1 1 2 3 4 2 1.5 0.1 0.9 [1 2 3]\n"
        )
        with pytest.raises(FormatError, match=r"dims\.txt:3: .*3 values, line 1 has 4"):
            read_detections(path)

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Detection(frame=0, box=Box3D(0, 0, 0, 1, 1, 1, 0), score=1.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(frame=1.7), "frame must be an integer, got 1.7"),
            (dict(frame=True), "frame must be an integer, got True"),
            (dict(frame="3"), "frame must be an integer, got '3'"),
            (dict(score=True), "score must be a number, got True"),
            (dict(score="0.9"), "score must be a number, got '0.9'"),
            (dict(start_prob=False), "start_prob must be a number, got False"),
            (dict(start_prob="1"), "start_prob must be a number, got '1'"),
        ],
    )
    def test_in_memory_types_rejected(self, fields, message):
        values = {**dict(frame=0, box=Box3D(0, 0, 0, 1, 1, 1, 0), score=0.9), **fields}
        with pytest.raises(ValueError, match=message):
            Detection(**values)

    def test_numpy_scalars_accepted(self):
        det = Detection(
            frame=np.int64(3), box=Box3D(0, 0, 0, 1, 1, 1, 0), score=np.float32(0.5),
            start_prob=np.float64(0.25),
        )
        assert det.frame == 3 and type(det.frame) is int


COORDS = st.floats(-1e4, 1e4)
KITTI_BOXES = st.builds(
    Box3D, COORDS, COORDS, COORDS, *[st.floats(0.0, 50.0)] * 3, st.floats(-10.0, 10.0)
)
OBJECT_TYPES = st.text("abcXYZ_-019", min_size=1, max_size=10)
UNIT = st.floats(0.0, 1.0)


def as_written(box: Box3D) -> Box3D:
    """The box a KITTI file holds: every field at 6 decimals, the heading
    wrapped again after rounding."""
    return Box3D(*(float(f"{v:.6f}") for v in box.to_array()))


def read_back(path) -> list[tuple]:
    return [
        (r.frame, r.track_id, r.object_type, r.box, r.score) for r in read_kitti_labels(path)
    ]


class TestKittiFiles:
    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 10**6),
            st.dictionaries(st.integers(0, 10**6), st.tuples(KITTI_BOXES, UNIT), max_size=4),
            max_size=5,
        ),
        OBJECT_TYPES,
    )
    def test_result_file_round_trip(self, tmp_path_factory, frames, object_type):
        path = tmp_path_factory.mktemp("kitti") / "res.txt"
        results = [
            FrameResult(frame=f, tracks=[(i, box, score) for i, (box, score) in tracks.items()])
            for f, tracks in frames.items()
        ]
        write_kitti_tracking(results, path, object_type=object_type)
        assert read_back(path) == [
            (r.frame, i, object_type, as_written(box), float(f"{score:.6f}"))
            for r in results
            for i, box, score in r.tracks
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                LabelRecord,
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                OBJECT_TYPES,
                KITTI_BOXES,
                st.none() | UNIT,
            ),
            max_size=8,
        )
    )
    def test_label_file_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("kitti") / "labels.txt"
        write_kitti_labels(records, path)
        assert read_back(path) == [
            (
                r.frame,
                r.track_id,
                r.object_type,
                as_written(r.box),
                None if r.score is None else float(f"{r.score:.6f}"),
            )
            for r in records
        ]

    def test_write_one_line_17_fields(self, tmp_path):
        path = tmp_path / "res.txt"
        result = FrameResult(frame=0, tracks=[(1, Box3D(1, 2, 3, 4, 2, 1.5, 0.1), 0.9)])
        write_kitti_tracking([result], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        fields = lines[0].split()
        assert len(fields) == 18  # 17 label fields plus score
        assert fields[0] == "0" and fields[1] == "1" and fields[2] == "Car"

    def test_empty_results(self, tmp_path):
        path = tmp_path / "res.txt"
        write_kitti_tracking([], path)
        assert path.read_text() == ""

    def test_duplicate_frame_id_rejected(self, tmp_path):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        result = FrameResult(frame=0, tracks=[(1, box, 0.9), (1, box, 0.8)])
        with pytest.raises(ValueError, match="duplicate"):
            write_kitti_tracking([result], tmp_path / "res.txt")

    def test_parse_back_recovers_ids_and_boxes(self, tmp_path):
        path = tmp_path / "res.txt"
        box = Box3D(1.25, -3.5, 0.75, 4.1, 1.9, 1.6, -0.7)
        results = [
            FrameResult(frame=0, tracks=[(3, box, 0.95)]),
            FrameResult(frame=1, tracks=[(3, box, 0.94), (5, box, 0.75)]),
        ]
        write_kitti_tracking(results, path)
        records = read_kitti_labels(path)
        assert [(r.frame, r.track_id) for r in records] == [(0, 3), (1, 3), (1, 5)]
        np.testing.assert_allclose(records[0].box.to_array(), box.to_array(), atol=1e-6)
        assert records[0].score == pytest.approx(0.95, abs=1e-6)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        records = [
            LabelRecord(0, 0, "Car", Box3D(1, 2, 0.75, 4, 2, 1.5, 0.3)),
            LabelRecord(0, 1, "Car", Box3D(-5, 2, 0.75, 4, 2, 1.5, -0.3)),
            LabelRecord(1, 0, "Car", Box3D(1.5, 2, 0.75, 4, 2, 1.5, 0.3)),
        ]
        write_kitti_labels(records, path)
        parsed = read_kitti_labels(path)
        assert len(parsed) == 3
        for a, b in zip(records, parsed):
            assert (a.frame, a.track_id, a.object_type) == (
                b.frame,
                b.track_id,
                b.object_type,
            )
            np.testing.assert_allclose(a.box.to_array(), b.box.to_array(), atol=1e-6)

    def test_negative_ids_skipped_by_default(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "0 -1 DontCare 0 0 -10 -1 -1 -1 -1 1 1 1 0 0 0 0\n"
            "0 2 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1\n"
        )
        records = read_kitti_labels(path)
        assert [r.track_id for r in records] == [2]

    def test_type_filter(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "0 1 Pedestrian 0 0 -10 -1 -1 -1 -1 1.8 0.6 0.8 1 2 0.9 0.0\n"
            "0 2 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1\n"
        )
        records = read_kitti_labels(path, keep_types={"Car"})
        assert [r.object_type for r in records] == ["Car"]

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1 Car 0 0\n")
        with pytest.raises(FormatError, match=":1:"):
            read_kitti_labels(path)
