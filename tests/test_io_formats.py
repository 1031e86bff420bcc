import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import io_oracle
from mipmot import io_formats
from mipmot.cli import labels_to_frames
from mipmot.io_formats import (
    Detection,
    DetectionBatch,
    FormatError,
    object_table,
    read_detections,
    read_kitti_labels,
    write_detections,
    write_kitti_labels,
    write_kitti_tracking,
)
from mipmot.tracker import FrameResult
from tables import batch, rows
from tables import box as make_box


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
        assert [d.box[0] for d in frames[0]] == [1.0, 2.0]
        assert len(frames[1]) == 1

    def test_mixed_formats_in_one_file(self, tmp_path):
        """A JSON line is not read: it fails at its line, after the faults
        of earlier text lines, in either reader."""
        good = "0 1 2 3 4 2 1.5 0.1 0.9"
        record = '{"frame": 0, "box": [5, 6, 7, 4, 2, 1.5, 0.2], "score": 0.8}'
        path = tmp_path / "mixed.txt"
        for lines, message in [
            ([good, good, "  " + record, good], "3: JSON lines are not read; a detection line is"),
            ([good, good.replace("0.9", "1.5"), record], "2: score must be in [0, 1], got 1.5"),
        ]:
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(FormatError, match=re.escape(f"mixed.txt:{message}")):
                read_detections(path)
            assert outcome(io_oracle.read_detections, path).startswith(f"{path}:{message}")

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

    def test_byte_not_utf8_rejected_at_its_line(self, tmp_path):
        """A byte that is not UTF-8 fails at its line, after the faults of
        earlier lines; a comment line must be UTF-8 too."""
        good = b"0 1 2 3 4 2 1.5 0.1 0.9\n"
        path = tmp_path / "d.txt"
        for second in (b"0 1 2 3 4 2 1.5 0.1 0.9\xe9\n", b"# caf\xe9\n"):
            path.write_bytes(good + second + good)
            with pytest.raises(FormatError, match=r"d\.txt:2: not UTF-8: byte 0xe9$"):
                read_detections(path)
        path.write_bytes(good.replace(b"0.9", b"1.5") + b"\xe9\n")
        with pytest.raises(FormatError, match=r"d\.txt:1: score must be in"):
            read_detections(path)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 nan 2 3 4 2 1.5 0.1 0.9\n")
        with pytest.raises(FormatError, match="non-finite"):
            read_detections(path)

    @pytest.mark.parametrize("trail", [1, 4096])
    @pytest.mark.parametrize("frame", [2**63, 2**64, 10**20])
    def test_frame_beyond_64_bits_rejected_at_its_line(self, tmp_path, frame, trail):
        """A frame column that does not fit int64 is read again row by
        row, and the frame is named at its line, as the reference names
        it; ``trail`` good lines follow the faulty one."""
        first = "0 1 2 3 4 2 1.5 0.1 0.9"
        line = f"{frame} 1 2 3 4 2 1.5 0.1 0.9"
        path = tmp_path / "big.txt"
        path.write_text(f"{first}\n{line}\n" + f"{first}\n" * trail)
        with pytest.raises(FormatError, match=rf"big\.txt:2: frame beyond 64 bits: {frame}$"):
            read_detections(path)
        assert outcome(io_oracle.read_detections, path) == f"{path}:2: frame beyond 64 bits: {frame}"

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
        """Detections built in memory form a ``DetectionBatch``, which
        checks every row as the readers do."""
        boxes = [[0, 0, 0, 1, 1, 1, 0]]
        for scores, start_prob in [([1.5], None), ([-0.1], None), ([0.5], [1.5])]:
            with pytest.raises(ValueError, match="detection 0: (score|start_prob) must be in"):
                DetectionBatch(0, boxes, scores, start_prob)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(frame=1.7), "frame must be an integer, got 1.7"),
            (dict(frame=True), "frame must be an integer, got True"),
            (dict(frame="3"), "frame must be an integer, got '3'"),
            (dict(scores=[True]), "scores must be real numbers, got dtype bool"),
            (dict(scores=["0.9"]), "scores must be real numbers, got dtype <U3"),
            (dict(start_prob=[False]), "start_prob must be real numbers, got dtype bool"),
            (dict(start_prob=["1"]), "start_prob must be real numbers, got dtype <U1"),
        ],
    )
    def test_in_memory_types_rejected(self, fields, message):
        """Detections built in memory form a ``DetectionBatch``, which
        takes real numbers only; a bool or string is not converted."""
        values = {**dict(frame=0, boxes=[[0, 0, 0, 1, 1, 1, 0]], scores=[0.9]), **fields}
        with pytest.raises(ValueError, match=message):
            DetectionBatch(**values)

    def test_numpy_scalars_accepted(self):
        batch = DetectionBatch(
            np.int64(3), [[0, 0, 0, 1, 1, 1, 0]], np.float32([0.5]), np.float64([0.25])
        )
        assert batch.frame == 3 and type(batch.frame) is int
        assert batch[0].score == 0.5 and batch[0].start_prob == 0.25


COORDS = st.floats(-1e4, 1e4)
KITTI_BOXES = st.builds(
    make_box, COORDS, COORDS, COORDS, *[st.floats(0.0, 50.0)] * 3, st.floats(-10.0, 10.0)
)
OBJECT_TYPES = st.text("abcXYZ_-019", min_size=1, max_size=10)
UNIT = st.floats(0.0, 1.0)


def as_written(box) -> list:
    """The box a KITTI file holds: every field at 6 decimals, the heading
    wrapped again after rounding."""
    return make_box(*(float(f"{v:.6f}") for v in box)).tolist()


@st.composite
def detection_files(draw):
    """Detections of any frames, in any order; each carries a start
    probability or not and an embedding or not, all of one size."""
    dim = draw(st.integers(1, 6))
    embeddings = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    return draw(
        st.lists(
            st.builds(
                Detection,
                st.integers(0, 10**6),
                KITTI_BOXES,
                UNIT,
                st.none() | embeddings,
                st.none() | UNIT,
            ),
            max_size=8,
        )
    )


def detection_fields(det: Detection, rounded) -> tuple:
    """A detection's values, each passed through ``rounded``."""
    return (
        det.frame,
        make_box(*(rounded(v) for v in det.box)).tolist(),
        rounded(det.score),
        None if det.start_prob is None else rounded(det.start_prob),
        None if det.embedding is None else [rounded(v) for v in det.embedding],
    )


def table_records(table) -> list[tuple]:
    """The (frame, id, type, box values, score or None) of each row of a
    label table, as Python values."""
    columns = (table[name].tolist() for name in ("frame", "id", "type", "box", "score"))
    return [
        (frame, track_id, object_type, box, None if math.isnan(score) else score)
        for frame, track_id, object_type, box, score in zip(*columns)
    ]


def label_table(records) -> np.recarray:
    """The label table of (frame, id, type, box, score or None) records."""
    frames, ids, types, boxes, scores = zip(*records) if records else [()] * 5
    return object_table(frames, ids, types, boxes, [np.nan if s is None else s for s in scores])


def read_back(path) -> list[tuple]:
    return table_records(read_kitti_labels(path))


class TestDetectionRoundTrip:
    """Detection files hold 6 decimals; reading groups the records by
    ascending frame and keeps the file order within a frame. The files
    are written one record per line, in any frame order, by the
    reference writer of tests/io_oracle.py."""

    @settings(max_examples=60, deadline=None)
    @example(
        dets=[
            Detection(5, make_box(1, 2, 0.5, 4, 1.8, 1.5, 0.3), 0.9, [0.5, -1.0, 2.0], 0.25),
            Detection(2, make_box(-3, 1, 0.5, 4, 1.8, 1.5, -2.0), 0.4, None, None),
            Detection(5, make_box(7, -2, 0.5, 3, 1.6, 1.4, 1.0), 0.7, None, 0.5),
            Detection(0, make_box(0, 0, 0, 2, 1, 1, 0), 0.1, [1.0, 0.0, -3.5], None),
            Detection(5, make_box(9, 9, 1, 5, 2, 2, -0.5), 1.0, [0.0, 0.0, 0.0], None),
        ]
    )
    @given(detection_files())
    def test_text_round_trip(self, tmp_path_factory, dets):
        path = tmp_path_factory.mktemp("dets") / "dets.txt"
        io_oracle.write_detections(dets, path)
        frames = read_detections(path)
        got = [detection_fields(d, float) for f in frames for d in frames[f]]
        by_frame = sorted(dets, key=lambda d: d.frame)
        assert got == [detection_fields(d, lambda v: float(f"{v:.6f}")) for d in by_frame]

    @settings(max_examples=60, deadline=None)
    @given(detection_files())
    def test_batches_written_as_the_reference_writes_their_rows(self, tmp_path_factory, dets):
        """``write_detections`` of {frame: DetectionBatch} writes the bytes
        the reference writes for the batches' rows, frame by frame."""
        frames = sorted({d.frame for d in dets})
        batches = {f: batch(f, *[d for d in dets if d.frame == f]) for f in frames}
        directory = tmp_path_factory.mktemp("dets")
        write_detections(batches, directory / "batches.txt")
        records = [d for batch in batches.values() for d in batch]
        io_oracle.write_detections(records, directory / "rows.txt")
        written = (directory / "batches.txt").read_bytes()
        assert written == (directory / "rows.txt").read_bytes()
        assert len(written.splitlines()) == len(dets)


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
            FrameResult(
                frame=f,
                tracks=rows(
                    {i: box for i, (box, _) in tracks.items()}, [s for _, s in tracks.values()]
                ),
            )
            for f, tracks in frames.items()
        ]
        write_kitti_tracking(results, path, object_type=object_type)
        assert read_back(path) == [
            (f, i, object_type, as_written(box), float(f"{score:.6f}"))
            for f, tracks in frames.items()
            for i, (box, score) in tracks.items()
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                OBJECT_TYPES,
                KITTI_BOXES,
                st.none() | UNIT,
            ),
            max_size=8,
            unique_by=lambda record: record[:2],  # a (frame, id) pair appears once
        )
    )
    def test_label_file_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("kitti") / "labels.txt"
        write_kitti_labels(label_table(records), path)
        assert read_back(path) == [
            (frame, i, object_type, as_written(box), None if s is None else float(f"{s:.6f}"))
            for frame, i, object_type, box, s in records
        ]

    def test_write_one_line_17_fields(self, tmp_path):
        path = tmp_path / "res.txt"
        result = FrameResult(frame=0, tracks=rows({1: make_box(1, 2, 3, 4, 2, 1.5, 0.1)}, [0.9]))
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
        box = make_box(0, 0, 0, 1, 1, 1, 0)
        tracks = np.concatenate([rows({1: box}, [0.9]), rows({1: box}, [0.8])])
        result = FrameResult(frame=0, tracks=tracks)
        with pytest.raises(ValueError, match="duplicate"):
            write_kitti_tracking([result], tmp_path / "res.txt")

    def test_parse_back_recovers_ids_and_boxes(self, tmp_path):
        path = tmp_path / "res.txt"
        box = make_box(1.25, -3.5, 0.75, 4.1, 1.9, 1.6, -0.7)
        results = [
            FrameResult(frame=0, tracks=rows({3: box}, [0.95])),
            FrameResult(frame=1, tracks=rows({3: box, 5: box}, [0.94, 0.75])),
        ]
        write_kitti_tracking(results, path)
        table = read_kitti_labels(path)
        assert list(zip(table["frame"].tolist(), table["id"].tolist())) == [(0, 3), (1, 3), (1, 5)]
        np.testing.assert_allclose(table["box"][0], box, atol=1e-6)
        assert table["score"][0] == pytest.approx(0.95, abs=1e-6)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        records = [
            (0, 0, "Car", make_box(1, 2, 0.75, 4, 2, 1.5, 0.3), None),
            (0, 1, "Car", make_box(-5, 2, 0.75, 4, 2, 1.5, -0.3), None),
            (1, 0, "Car", make_box(1.5, 2, 0.75, 4, 2, 1.5, 0.3), None),
        ]
        write_kitti_labels(label_table(records), path)
        parsed = table_records(read_kitti_labels(path))
        assert len(parsed) == 3
        for a, b in zip(records, parsed):
            assert a[:3] == b[:3] and b[4] is None
            np.testing.assert_allclose(a[3], b[3], atol=1e-6)

    def test_table_grouped_by_frame(self, tmp_path):
        """labels_to_frames gives ascending frames and the file order within
        a frame, whether or not the file is in frame order."""
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 4, 200)
        row = "%d %d Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 %d 2 0.75 0.1\n"
        path = tmp_path / "labels.txt"
        path.write_text("".join(row % (f, 1000 - i, i) for i, f in enumerate(frames.tolist())))
        table = read_kitti_labels(path)
        grouped = labels_to_frames(table)
        assert list(grouped) == [0, 1, 2, 3]
        for frame, rows in grouped.items():
            lines = np.flatnonzero(frames == frame)
            assert rows["id"].tolist() == (1000 - lines).tolist()
            np.testing.assert_array_equal(rows["box"][:, 0], lines)
        in_order = labels_to_frames(table[np.argsort(frames, kind="stable")])
        assert all(in_order[f].tobytes() == grouped[f].tobytes() for f in grouped)

    def test_dontcare_rows_dropped_by_type(self, tmp_path):
        """A DontCare row is dropped whatever its id and ``keep_types``, in
        bulk and in the walk; its numbers must still be finite."""
        line = "0 3 DontCare 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1"
        path = tmp_path / "labels.txt"
        path.write_text(line + "\n")
        for keep_types in (None, {"Car", "DontCare"}):
            assert len(read_kitti_labels(path, keep_types)) == 0
            assert io_oracle.read_kitti_labels(path, keep_types) == []
        # 1_0 is read only by the walk
        path.write_text(line + "\n" + line.replace("3 DontCare", "1_0 Car") + "\n")
        assert read_kitti_labels(path)["id"].tolist() == [10]
        path.write_text(line.replace("1.8", "nan") + "\n")
        with pytest.raises(FormatError, match=r"labels\.txt:1: non-finite value: 'nan'"):
            read_kitti_labels(path)

    def test_byte_not_utf8_rejected_at_its_line(self, tmp_path):
        """A byte that is not UTF-8 fails at its line, after the faults of
        earlier lines."""
        line = b"0 1 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1\n"
        path = tmp_path / "labels.txt"
        path.write_bytes(line + line.replace(b"Car", b"Caf\xe9").replace(b"0 1", b"1 1") + line)
        with pytest.raises(FormatError, match=r"labels\.txt:2: not UTF-8: byte 0xe9$"):
            read_kitti_labels(path)
        path.write_bytes(line + line + b"\xe9\n")
        with pytest.raises(FormatError, match=r"labels\.txt:2: duplicate"):
            read_kitti_labels(path)

    def test_negative_ids_skipped_by_default(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "0 -1 DontCare 0 0 -10 -1 -1 -1 -1 1 1 1 0 0 0 0\n"
            "0 2 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1\n"
        )
        assert read_kitti_labels(path)["id"].tolist() == [2]

    def test_type_filter(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "0 1 Pedestrian 0 0 -10 -1 -1 -1 -1 1.8 0.6 0.8 1 2 0.9 0.0\n"
            "0 2 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1\n"
        )
        assert read_kitti_labels(path, keep_types={"Car"})["type"].tolist() == ["Car"]

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1 Car 0 0\n")
        with pytest.raises(FormatError, match=":1:"):
            read_kitti_labels(path)


NUMBER_FORMS = st.sampled_from(["repr", "fixed", "exp", "int"])
# A coordinate beyond the box rules' limit of 1e100 in magnitude, by as
# little as one float.
BEYOND_LIMIT = st.sampled_from(["1e200", "-1e200", "1.0000000000000002e100", "-2e100"])


def numeral(v: float, form: str) -> str:
    """One of the ways a number is written in a text record."""
    if form == "int" and v == int(v):
        return str(int(v))
    return {"fixed": f"{v:.6f}", "exp": f"{v:.4e}"}.get(form, repr(v))


@st.composite
def oracle_files(draw, min_size=0):
    """Lines of a detection file: text records, comments and blank lines;
    each record has a start probability or not and an embedding or not,
    all of one size. Returns (lines, records, size), a record being
    (frame, box, score, start_prob, embedding)."""
    dim = draw(st.integers(1, 5))
    finite = st.floats(-1e3, 1e3)
    record = st.tuples(
        st.integers(0, 12),
        st.tuples(finite, finite, finite, *[st.floats(0.0, 50.0)] * 3, st.floats(-20.0, 20.0)),
        UNIT,
        st.none() | UNIT,
        st.none() | st.lists(finite, min_size=dim, max_size=dim),
    )
    records = draw(st.lists(record, min_size=min_size, max_size=12))
    lines = []
    for rec in records:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a comment", "   "])))
        lines.append(draw(record_line(rec)))
    return lines, records, dim


@st.composite
def record_line(draw, rec, fault=None, size=1):
    """The text line of one record; with ``fault``, a line with that one
    fault, or with each value fault of a tuple of them (the file's
    embeddings have ``size`` values). The "JSON line" fault writes the
    record as a JSON object, which no reader reads."""
    faults = (fault,) if isinstance(fault, str) else fault or ()
    frame, box, score, start_prob, embedding = rec
    if "JSON line" in faults:
        obj = {"frame": frame, "box": list(box), "score": score}
        if start_prob is not None:
            obj["start_prob"] = start_prob
        if embedding is not None:
            obj["embedding"] = embedding
        return json.dumps(obj)
    form = draw(NUMBER_FORMS)
    fields = [str(frame), *(numeral(v, form) for v in box), numeral(score, form)]
    if start_prob is not None:
        fields.append(numeral(start_prob, form))
    vector = None if embedding is None else [numeral(v, form) for v in embedding]
    close = "]"
    if "embedding size" in faults:
        vector = ["0.25"] * (size + 1)
    if "overflowing volume" in faults:
        # l * w * h overflows, or l * w does and h is 0: inf times 0
        fields[4:7] = ["1e200", "1e200", draw(st.sampled_from(["1e200", "0"]))]
    if "coordinate beyond 1e100" in faults:
        fields[draw(st.integers(1, 3))] = draw(BEYOND_LIMIT)
    if "embedding beyond 1e100" in faults:
        vector = vector or ["0.25"] * size
        vector[draw(st.integers(0, len(vector) - 1))] = draw(BEYOND_LIMIT)
    if "start_prob -0.1" in faults:
        fields[9:] = ["-0.1"]
    if "negative extent" in faults:
        fields[draw(st.integers(4, 6))] = "-1.5"
    if "score 1.5" in faults:
        fields[8] = "1.5"
    if "negative frame" in faults:
        fields[0] = f"-{frame + 1}"
    for bad in ("nan", "inf"):
        if bad in faults:
            # A lone fault may take any number; among others, a box or
            # embedding value, so that it leaves the others in place.
            last = len(fields) - 1 if len(faults) == 1 else 7
            where = draw(st.integers(1, last + len(vector or [])))
            spellings = ["nan", "NaN"] if bad == "nan" else ["inf", "-inf", "Infinity"]
            spelled = draw(st.sampled_from(spellings))
            if where <= last:
                fields[where] = spelled
            else:
                vector[where - last - 1] = spelled
    if "frame 1.0" in faults:
        fields[0] = f"{frame}.0"
    elif "8 leading fields" in faults:
        fields = fields[:8]
    elif "unclosed bracket" in faults:
        vector, close = vector or ["0.5"], ""
    line = draw(st.sampled_from([" ", "\t", "  "])).join(fields)
    if vector is not None:
        line += " [" + draw(st.sampled_from([" ", ", ", ","])).join(vector) + close
    return line


def outcome(read, path):
    """What a reader makes of a file: its records (frame, box, score,
    start_prob, embedding, bits as hex) by frame, or its error text."""
    try:
        frames = read(path)
    except FormatError as e:
        return str(e)
    return [
        (
            f,
            d.frame,
            [v.hex() for v in np.asarray(d.box).tolist()],
            d.score.hex(),
            None if d.start_prob is None else d.start_prob.hex(),
            None if d.embedding is None else [v.hex() for v in np.asarray(d.embedding).tolist()],
        )
        for f, dets in frames.items()
        for d in dets
    ]


FAULTS = [
    "nan",
    "inf",
    "negative extent",
    "score 1.5",
    "frame 1.0",
    "8 leading fields",
    "unclosed bracket",
    "embedding size",
    "overflowing volume",
    "coordinate beyond 1e100",
    "embedding beyond 1e100",
    "JSON line",
]

VALUE_FAULTS = [
    "negative frame",
    "nan",
    "inf",
    "negative extent",
    "score 1.5",
    "start_prob -0.1",
    "embedding size",
    "overflowing volume",
    "coordinate beyond 1e100",
    "embedding beyond 1e100",
]


class TestReaderOracle:
    """The bulk reader against the per-line reference of tests/io_oracle.py.

    Each file follows ``skipped`` comment lines, 3 or 4096, so that its
    line numbers count lines that no reader keeps.
    """

    @pytest.mark.parametrize("skipped", [3, 4096])
    @settings(max_examples=80, deadline=None)
    @given(oracle_files())
    def test_same_records(self, tmp_path_factory, skipped, file):
        lines, records, _ = file
        path = tmp_path_factory.mktemp("oracle") / "dets.txt"
        path.write_text("# skipped\n" * skipped + "\n".join(lines) + "\n")
        got = outcome(read_detections, path)
        frames = read_detections(path)
        assert got == outcome(io_oracle.read_detections, path)
        assert len(got) == len(records)
        for frame, batch in frames.items():
            assert isinstance(batch, DetectionBatch) and batch.frame == frame
            for i, d in enumerate(batch):
                assert d.box.tobytes() == batch.boxes[i].tobytes()

    @pytest.mark.parametrize("skipped", [3, 4096])
    @pytest.mark.parametrize("fault", FAULTS)
    @settings(max_examples=25, deadline=None)
    @given(oracle_files(min_size=1), st.data())
    def test_same_error(self, tmp_path_factory, skipped, fault, file, data):
        """One line with one fault: both readers fail at its line, with
        the same message (a changed embedding size fails where it first
        differs from the file's first embedding)."""
        lines, records, size = file
        lines = ["# skipped"] * skipped + lines
        target = data.draw(st.integers(0, len(records) - 1))
        bad_line = data.draw(record_line(records[target], fault, size))
        numbered = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
        lines[numbered[target]] = bad_line
        path = tmp_path_factory.mktemp("oracle") / "dets.txt"
        path.write_text("\n".join(lines) + "\n")
        got = outcome(read_detections, path)
        expected = outcome(io_oracle.read_detections, path)
        assert got == expected
        others = [r for i, r in enumerate(records) if i != target and r[4] is not None]
        if fault != "embedding size" or others:
            assert isinstance(expected, str) and expected.startswith(f"{path}:")
        if fault != "embedding size":
            assert expected.startswith(f"{path}:{numbered[target] + 1}: ")

    @pytest.mark.parametrize("skipped", [3, 4096])
    @settings(max_examples=150, deadline=None)
    @given(
        oracle_files(min_size=1),
        st.lists(st.sampled_from(VALUE_FAULTS), min_size=2, max_size=3, unique=True),
        st.data(),
    )
    def test_same_error_for_value_faults_on_one_line(
        self, tmp_path_factory, skipped, file, faults, data
    ):
        """Two or three value faults on one text line: both readers fail
        at its line and name the same one of them."""
        lines, records, size = file
        lines = ["# skipped"] * skipped + lines
        target = data.draw(st.integers(0, len(records) - 1))
        numbered = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
        lines[numbered[target]] = data.draw(record_line(records[target], tuple(faults), size))
        path = tmp_path_factory.mktemp("oracle") / "dets.txt"
        path.write_text("\n".join(lines) + "\n")
        got = outcome(read_detections, path)
        expected = outcome(io_oracle.read_detections, path)
        assert got == expected
        assert expected.startswith(f"{path}:{numbered[target] + 1}: ")


class TestDetectionBatch:
    BOXES = [[0, 0, 0, 4, 2, 1.5, 0.0], [5, 1, 0, 4, 2, 1.5, 4.0]]

    def test_arrays_and_views(self):
        batch = DetectionBatch(
            3, self.BOXES, [0.9, 0.8], [np.nan, 0.25], [[1.0, 2.0], [np.nan, np.nan]]
        )
        assert len(batch) == 2 and batch
        assert batch.boxes[1, 6] == make_box(5, 1, 0, 4, 2, 1.5, 4.0)[6]  # wrapped
        np.testing.assert_array_equal(batch.has_embedding, [True, False])
        first, second = batch
        assert (first.frame, first.score, first.start_prob) == (3, 0.9, None)
        np.testing.assert_array_equal(first.embedding, [1.0, 2.0])
        assert (second.start_prob, second.embedding) == (0.25, None)
        assert batch[-1].box.tobytes() == second.box.tobytes()
        with pytest.raises(IndexError):
            batch[2]
        with pytest.raises(TypeError):
            batch[0:1]

    def test_no_embedding_rows_give_none(self):
        batch = DetectionBatch(0, self.BOXES, [0.9, 0.8], embeddings=np.full((2, 3), np.nan))
        assert batch.embeddings is None
        assert not batch.has_embedding.any()

    def test_empty(self):
        batch = DetectionBatch(0, [], [])
        assert len(batch) == 0 and not batch
        assert batch.boxes.shape == (0, 7) and list(batch) == []

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(frame=1.5), "frame must be an integer"),
            (dict(frame=-1), "frame must be nonnegative"),
            (dict(boxes=[[0, 0, 0, 4, 2, 1.5]] * 2), r"boxes must be an \(M, 7\) array"),
            (dict(boxes=[[True] * 7] * 2), "boxes must be real numbers"),
            (dict(scores=[True, False]), "scores must be real numbers"),
            (dict(scores=["0.9", "0.8"]), "scores must be real numbers"),
            (dict(scores=[0.9]), "2 boxes but 1 scores"),
            (dict(scores=[0.9, 1.5]), "detection 1: score must be in \\[0, 1\\], got 1.5"),
            (dict(scores=[np.nan, 0.5]), "detection 0: score must be in"),
            (dict(start_prob=[0.5, -0.1]), "detection 1: start_prob must be in"),
            (dict(start_prob=[np.inf, 0.5]), "detection 0: start_prob must be in"),
            (
                dict(boxes=[[0, 0, 0, 4, 2, 1.5, 0], [0, 0, np.inf, 4, 2, 1.5, 0]]),
                "detection 1: box field z is not finite: inf",
            ),
            (
                dict(boxes=[[0, 0, 0, 4, -2, 1.5, 0]] * 2),
                "detection 0: box extents must be nonnegative, got l=4.0 w=-2.0 h=1.5",
            ),
            (
                dict(embeddings=[[1.0, np.nan], [1.0, 2.0]]),
                "detection 0: embedding contains non-finite values",
            ),
            (dict(embeddings=[[1.0, 2.0]]), r"embeddings must be an \(2, D\) array"),
            (dict(embeddings=np.zeros((2, 0))), r"embeddings must be an \(2, D\) array"),
            (dict(frame=2**63), "frame beyond 64 bits: 9223372036854775808"),
            (
                dict(boxes=[[0, 0, 0, 4, 2, 1.5, 0], [0, 0, 0, 1e200, 1e200, 0.0, 0]]),
                r"detection 1: box field l is beyond 1e\+100 in magnitude: 1e\+200",
            ),
            (
                dict(boxes=[[0, 0, 0, 4, 2, 1.5, 0], [0, -2e100, 0, 4, 2, 1.5, 0]]),
                r"detection 1: box field y is beyond 1e\+100 in magnitude: -2e\+100",
            ),
            (
                dict(embeddings=[[1.0, 2.0], [1e100, -1e308]]),
                r"detection 1: embedding value is beyond 1e\+100 in magnitude: -1e\+308",
            ),
        ],
    )
    def test_checked_on_construction(self, change, message):
        fields = dict(frame=0, boxes=self.BOXES, scores=[0.9, 0.8], start_prob=None)
        fields.update(change)
        with pytest.raises(ValueError, match=message):
            DetectionBatch(**fields)


class TestBulkReading:
    def test_embedding_presence_per_row(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "0 1 0 0 4 2 1.5 0 0.9 [1 2]\n"
            "0 2 0 0 4 2 1.5 0 0.9\n"
            "1 2 0 0 4 2 1.5 0 0.9\n"
        )
        frames = read_detections(path)
        np.testing.assert_array_equal(frames[0].has_embedding, [True, False])
        assert frames[0][1].embedding is None
        assert frames[1].embeddings is None

    def test_numerals_python_reads(self, tmp_path):
        """Underscores and non-ASCII digits, which np.loadtxt does not read."""
        path = tmp_path / "d.txt"
        path.write_text("0 1_0 ٢ 0 4 2 1.5 0 0.9\n1 1 0 0 4 2 1.5 0 0.9\n", encoding="utf-8")
        frames = read_detections(path)
        assert frames[0][0].box[:2].tolist() == [10.0, 2.0]
        assert len(frames[1]) == 1

    @pytest.mark.parametrize("trail", [1, 2, 3, 4096])
    def test_first_faulty_line_across_chunks(self, tmp_path, trail):
        """A value fault is reported before a later structural one, and a
        structural one before a later value fault, with ``trail`` good
        lines after each case's lines."""
        good = "0 1 0 0 4 2 1.5 0 0.9 [1 2]"
        cases = [
            ([good, good, "0 1 0 0 4 2 1.5 0 1.5 [1 2]", "0 1 2"], ":3: score must be in"),
            ([good, "0 1 2", good, "0 1 0 0 4 2 1.5 0 1.5 [1 2]"], ":2: expected 9 or 10"),
            (
                [good, good, good, "0 1 0 0 4 2 1.5 0 0.9 [1 2 3]"],
                ":4: embedding has 3 values, line 1 has 2",
            ),
            ([good, good, "0 x 0 0 4 2 1.5 0 0.9"], ":3: not a number: 'x'"),
        ]
        for lines, message in cases:
            path = tmp_path / "d.txt"
            path.write_text("\n".join(lines + [good] * trail) + "\n")
            with pytest.raises(FormatError, match=message):
                read_detections(path)

    def test_value_fault_before_structural_fault_thousands_of_lines_later(self, tmp_path):
        good = "0 1 0 0 4 2 1.5 0 0.9 [1 2]"
        lines = [good.replace("0.9", "1.5")] + [good] * 4998 + ["0 1 2"]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"d\.txt:1: score must be in"):
            read_detections(path)
        assert outcome(io_oracle.read_detections, path).startswith(f"{path}:1: score must be in")

    @pytest.mark.parametrize("trail", [1, 2, 4096])
    def test_label_faults_in_file_order(self, tmp_path, trail):
        """Each case's first faulty line is named, with ``trail`` good
        lines of other frames after the case's lines."""
        good = "0 1 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1"
        negative = "0 1 Car 0 0 -10 -1 -1 -1 -1 1.5 -1.8 4.0 1 2 0.75 0.1"
        other_frame = good.replace("0 1 Car", "1 1 Car")
        cases = [
            ([good, negative, "0 1 Car"], ":2: box extents must be nonnegative, got l=4.0"),
            ([good, "0 1 Car", negative], ":2: expected 17 or 18 fields, got 3"),
            ([good, good.replace(" 1 2 ", " 1 inf "), "x 1 Car"], ":2: non-finite value: 'inf'"),
            ([good, good.replace("-10", "ten")], ":2: not a number: 'ten'"),
            # a DontCare row is checked for numbers but not for extents
            ([negative.replace("0 1 Car", "0 -1 DontCare"), good.replace("-10", "nan")], ":2: non"),
            # a kept row repeating an earlier kept row's (frame, id) pair
            (
                [good, good, "0 1 Car"],
                r":2: duplicate \(frame, id\) pair: \(0, 1\), first on line 1",
            ),
            (
                [good, other_frame, good.replace("0 1 Car", "0 2 Car"), other_frame, "0 1 Car"],
                r":4: duplicate \(frame, id\) pair: \(1, 1\), first on line 2",
            ),
            ([good, other_frame, other_frame, negative], r":3: duplicate .* first on line 2"),
            ([good, negative.replace("0 1", "0 2"), good], ":2: box extents must be"),
        ]
        after = [good.replace("0 1 Car", f"{2 + i} 1 Car") for i in range(trail)]
        for lines, message in cases:
            path = tmp_path / "labels.txt"
            path.write_text("\n".join(lines + after) + "\n")
            with pytest.raises(FormatError, match=message):
                read_kitti_labels(path)

    def test_pairs_repeat_only_among_kept_rows(self, tmp_path):
        good = "0 1 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1"
        dontcare = good.replace("0 1 Car", "0 -1 DontCare")
        van = good.replace("Car", "Van")
        path = tmp_path / "labels.txt"
        path.write_text("\n".join([dontcare, dontcare, van, good, good.replace("0 1", "1 1")]))
        assert read_kitti_labels(path, keep_types={"Car"})["id"].tolist() == [1, 1]
        with pytest.raises(FormatError, match=":4: duplicate .* first on line 3"):
            read_kitti_labels(path)

    def test_duplicate_pair_leaves_no_file(self, tmp_path):
        box = make_box(0, 0, 0, 1, 1, 1, 0)
        path = tmp_path / "res.txt"
        tracks = np.concatenate([rows({1: box}, [0.9]), rows({1: box}, [0.8])])
        with pytest.raises(ValueError, match="duplicate"):
            write_kitti_tracking([FrameResult(0, tracks)], path)
        assert not path.exists()


LABEL_FAULTS = [
    "not a number",
    "nan",
    "inf",
    "negative extent",
    "negative extent, DontCare",
    "16 fields",
    "bad id",
    "duplicate",
    "overflowing volume",
    "coordinate beyond 1e100",
]


@st.composite
def label_line(draw, frame, fault=None):
    """One line of a KITTI label file of the given frame: a record of any
    id (a row with a negative one is a DontCare row; a DontCare row may
    have negative extents), with a score or not, its numbers in one of the ways a
    number is written; with ``fault``, a line with that fault. The
    "duplicate" line is a kept record without a fault: the test repeats
    it."""
    if fault == "duplicate":  # a record every keep_types keeps
        track_id, object_type = draw(st.integers(0, 20)), "Car"
    else:
        track_id = draw(st.integers(-2, 20))
        types = st.sampled_from(["Car", "Van", "DontCare"])
        object_type = "DontCare" if track_id < 0 else draw(types)
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=14, max_size=14))
    extents = st.floats(-50.0 if object_type == "DontCare" else 0.0, 50.0)
    values[7:10] = draw(st.lists(extents, min_size=3, max_size=3))
    score = draw(st.none() | UNIT)
    if score is not None:
        values.append(score)
    if fault in ("negative extent", "overflowing volume", "coordinate beyond 1e100"):
        track_id, object_type = draw(st.integers(0, 20)), "Car"
    elif fault == "negative extent, DontCare":
        track_id, object_type = -1, "DontCare"
    form = draw(NUMBER_FORMS)
    numbers = [numeral(v, form) for v in values]
    if fault in ("not a number", "nan", "inf"):
        spellings = {
            "not a number": ["x", "1.2.3", "ten", "--1", "0x10"],
            "nan": ["nan", "NaN"],
            "inf": ["inf", "-inf", "Infinity"],
        }[fault]
        numbers[draw(st.integers(0, len(numbers) - 1))] = draw(st.sampled_from(spellings))
    elif fault is not None and fault.startswith("negative extent"):
        numbers[draw(st.integers(7, 9))] = "-1.5"
    elif fault == "overflowing volume":  # h w l; inf times 0 when h is 0
        numbers[7:10] = [draw(st.sampled_from(["1e200", "0"])), "1e200", "1e200"]
    elif fault == "coordinate beyond 1e100":  # x y z
        numbers[draw(st.integers(10, 12))] = draw(BEYOND_LIMIT)
    fields = [str(frame), str(track_id), object_type, *numbers]
    if fault == "16 fields":
        del fields[draw(st.integers(0, 15)) :]
        fields += ["0"] * (16 - len(fields))
    elif fault == "bad id":
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(["x", "1.5", "1e3", ""]))
    return draw(st.sampled_from([" ", "\t", "  "])).join(fields)


def label_outcome(read, path, keep_types):
    """What a label reader makes of a file: its records (frame, id, type,
    box and score bits as hex), or its error text."""
    try:
        records = read(path, keep_types=keep_types)
    except FormatError as e:
        return str(e)
    if isinstance(records, np.ndarray):  # the package's table
        records = table_records(records)
    return [
        (frame, track_id, object_type, [v.hex() for v in box], None if s is None else s.hex())
        for frame, track_id, object_type, box, s in records
    ]


class TestLabelReaderOracle:
    """read_kitti_labels against the per-line reference of tests/io_oracle.py,
    on label files with one faulty line, each after ``skipped`` blank
    lines, 1, 3 or 4096."""

    @pytest.mark.parametrize("skipped", [1, 3, 4096])
    @pytest.mark.parametrize("fault", LABEL_FAULTS)
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_same_records_or_error(self, tmp_path_factory, skipped, fault, data):
        # Each line has its own frame, so that only the faulty line repeats
        # a (frame, id) pair.
        n = data.draw(st.integers(0, 10))
        frame_numbers = st.lists(st.integers(0, 50), min_size=n + 1, max_size=n + 1, unique=True)
        frames = data.draw(frame_numbers)
        blank = st.sampled_from(["", "   "])
        lines = [data.draw(label_line(frame) | blank) for frame in frames[:n]]
        target = data.draw(st.integers(0, n))
        lines.insert(target, data.draw(label_line(frames[n], fault)))
        if fault == "duplicate":  # a copy of the line goes before it
            lines.insert(data.draw(st.integers(0, target)), lines[target])
            target += 1
        keep_types = data.draw(st.none() | st.just({"Car", "DontCare"}))
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        path.write_text("\n" * skipped + "\n".join(lines) + "\n")
        got = label_outcome(read_kitti_labels, path, keep_types)
        expected = label_outcome(io_oracle.read_kitti_labels, path, keep_types)
        assert got == expected
        if fault == "negative extent, DontCare":
            assert isinstance(expected, list)
        else:
            assert expected.startswith(f"{path}:{skipped + target + 1}: ")


@st.composite
def valid_label_files(draw):
    """The lines of a label file without a fault, all with a score or all
    without: records of a few types, DontCare rows of any id (and extents
    of any sign), blank lines, numbers in one of the ways a number
    is written. Returns (lines, keep_types)."""
    scored = draw(st.booleans())
    keep_types = draw(st.none() | st.just({"Car"}) | st.just({"Car", "Pedestrian", "DontCare"}))
    lines, pairs = [], set()  # the (frame, id) pairs of the kept rows
    for _ in range(draw(st.integers(1, 12))):
        frame, track_id = draw(st.integers(0, 5)), draw(st.integers(-2, 6))
        object_type = draw(st.sampled_from(["Car", "Pedestrian", "Van", "DontCare"]))
        if track_id < 0:
            object_type = "DontCare"
        dropped = object_type == "DontCare"
        if not dropped and (keep_types is None or object_type in keep_types):
            if (frame, track_id) in pairs:
                continue
            pairs.add((frame, track_id))
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=14, max_size=14))
        extents = st.floats(-50.0 if dropped else 0.0, 50.0)
        values[7:10] = draw(st.lists(extents, min_size=3, max_size=3))
        if scored:
            values.append(draw(UNIT))
        form = draw(NUMBER_FORMS)
        fields = [str(frame), str(track_id), object_type, *(numeral(v, form) for v in values)]
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(fields))
    return lines, keep_types


LABEL_ROW = "0 1 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1"


class TestLabelFastPath:
    """A valid file with one field count is read by one np.loadtxt call;
    a file that does not read so, or has a faulty row, takes the per-line
    walk, and either way the outcome is the reference's."""

    def outcomes(self, path, keep_types=None):
        """The package's and the reference's outcomes, and how many times
        the package walked the file."""
        with mock.patch.object(io_formats, "_walk_labels", wraps=io_formats._walk_labels) as walk:
            got = label_outcome(read_kitti_labels, path, keep_types)
        return got, label_outcome(io_oracle.read_kitti_labels, path, keep_types), walk.call_count

    @settings(max_examples=150, deadline=None)
    @given(valid_label_files())
    def test_valid_files_read_in_bulk(self, tmp_path_factory, file):
        lines, keep_types = file
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        path.write_text("\n".join(lines) + "\n")
        got, expected, walks = self.outcomes(path, keep_types)
        assert got == expected and walks == 0
        width = max((len(record[2]) for record in expected), default=1)
        assert read_kitti_labels(path, keep_types).dtype == object_table(
            [], [], np.array([], f"U{width}"), np.zeros((0, 7)), []
        ).dtype

    @pytest.mark.parametrize(
        "lines, keep_types, walks",
        [
            # type names around 32 characters read whole, in bulk
            ([LABEL_ROW.replace("Car", "C" * (32 - 1))], None, 0),
            ([LABEL_ROW.replace("Car", "C" * 32)], None, 0),
            ([LABEL_ROW.replace("Car", "C" * (32 + 1))], None, 0),
            ([LABEL_ROW, LABEL_ROW.replace("Car", "C" * (32 + 1))], {"Car"}, 0),
            # a trailing NUL is part of the type, in bulk as in the walk
            ([LABEL_ROW.replace("Car", "Car\0")], {"Car"}, 0),
            # 17 and 18 fields mixed, either first
            ([LABEL_ROW, LABEL_ROW.replace("0 1", "1 1") + " 0.5"], None, 1),
            ([LABEL_ROW + " 0.5", LABEL_ROW.replace("0 1", "1 1")], None, 1),
            # ids only int reads: +5 reads in bulk too, 5.0 is a fault
            ([LABEL_ROW.replace("0 1", "0 +5")], None, 0),
            ([LABEL_ROW.replace("0 1", "0 5.0")], None, 1),
            ([LABEL_ROW.replace("0 1", "0 ٥")], None, 1),  # ARABIC-INDIC DIGIT FIVE
            ([LABEL_ROW.replace("0 1", "0 1_0")], None, 1),
            # the last frame 64 bits hold, and the first they do not
            ([LABEL_ROW.replace("0 1", f"{2**63 - 1} 1")], None, 0),
            ([LABEL_ROW, LABEL_ROW.replace("0 1", f"{2**63} 1")], None, 1),
            ([LABEL_ROW.replace("0 1", f"0 {-(2**63) - 1}")], None, 1),
            # whitespace that str.split and np.loadtxt both split at
            ([LABEL_ROW.replace(" Car ", "\x0bCar\xa0")], None, 0),
            ([LABEL_ROW.replace("Car", "C\xa0r")], None, 1),
            ([LABEL_ROW.replace("Car", "C\x0br") + " 0.5"], None, 1),
            # a numeral only float reads, and a non-finite one
            ([LABEL_ROW.replace("1.5", "1_5")], None, 1),
            ([LABEL_ROW, LABEL_ROW.replace("1.5", "1e500")], None, 1),
            # a faulty DontCare row
            ([LABEL_ROW.replace("0 1 Car", "0 -1 DontCare").replace("1.8", "-1.8")], None, 0),
            ([LABEL_ROW.replace("0 1 Car", "0 -1 DontCare").replace("1.8", "nan")], None, 1),
            # a DontCare row with a nonnegative id is dropped by its type
            ([LABEL_ROW.replace("0 1 Car", "0 3 DontCare").replace("1.8", "-1.8")], None, 0),
            ([LABEL_ROW.replace("0 1 Car", "0 3 DontCare").replace("1.8", "nan")], None, 1),
            # a type name of 100 characters
            ([LABEL_ROW.replace("Car", "C" * 100)], None, 0),
        ],
    )
    def test_boundaries(self, tmp_path, lines, keep_types, walks):
        path = tmp_path / "labels.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, expected, walked = self.outcomes(path, keep_types)
        assert got == expected and walked == walks

    def test_width_of_the_type_field(self, tmp_path):
        path = tmp_path / "labels.txt"
        long = "P" * (32 + 3)
        for types, width in [(["Car"], 3), (["Car", "Pedestrian"], 10), (["Car", long], len(long))]:
            rows = [LABEL_ROW.replace("0 1 Car", f"0 {i} {t}") for i, t in enumerate(types)]
            path.write_text("\n".join(rows) + "\n")
            table = read_kitti_labels(path)
            assert table.dtype["type"] == np.dtype(f"<U{width}") and table["type"].tolist() == types
        # a dropped row's type does not widen the field
        path.write_text(LABEL_ROW + "\n" + LABEL_ROW.replace("0 1 Car", "0 -1 DontCare") + "\n")
        assert read_kitti_labels(path).dtype["type"] == np.dtype("<U3")

    @pytest.mark.parametrize("text", ["", "\n\n", "   \n\t\n", "\x0b\n \xa0 \n"])
    def test_files_without_records(self, tmp_path, text):
        path = tmp_path / "labels.txt"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = read_kitti_labels(path)
        assert len(table) == 0 and io_oracle.read_kitti_labels(path) == []
        assert table.dtype == object_table([], [], [], np.zeros((0, 7)), []).dtype
