import csv
import json
import math
import time

import pytest

from mipmot.cli import main
from mipmot.config import TrackerConfig
from mipmot.evaluation import aggregate_reports, format_report_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def simulate(capsys, out_dir, template="clean", name=None, seed=0):
    argv = ["simulate", "--template", template, "--output-dir", str(out_dir), "--seed", str(seed)]
    if name:
        argv += ["--name", name]
    code, _, err = run(capsys, *argv)
    assert code == 0, err


class TestSimulate:
    def test_writes_both_files(self, tmp_path, capsys):
        simulate(capsys, tmp_path, name="seq0")
        assert (tmp_path / "seq0.dets.txt").exists()
        assert (tmp_path / "seq0.labels.txt").exists()

    def test_seeded_rerun_identical(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "a", template="clutter", name="s")
        simulate(capsys, tmp_path / "b", template="clutter", name="s")
        assert (tmp_path / "a" / "s.dets.txt").read_bytes() == (
            tmp_path / "b" / "s.dets.txt"
        ).read_bytes()

    def test_scenario_file(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"num_objects": 3, "num_frames": 10, "seed": 4}))
        code, _, err = run(
            capsys, "simulate", "--scenario", str(scenario),
            "--output-dir", str(tmp_path), "--name", "mini",
        )
        assert code == 0, err
        assert (tmp_path / "mini.dets.txt").exists()

    def test_seed_replaces_the_scenario_files(self, tmp_path, capsys):
        """--seed replaces a scenario file's seed; without it the file's
        seed stands, and a template's is 0."""
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"num_objects": 3, "num_frames": 10, "seed": 4}))

        def dets(name, *argv):
            argv = argv or ("--scenario", str(scenario))
            code, _, err = run(
                capsys, "simulate", *argv, "--output-dir", str(tmp_path), "--name", name
            )
            assert code == 0, err
            return (tmp_path / f"{name}.dets.txt").read_bytes()

        assert dets("s5", "--scenario", str(scenario), "--seed", "5") != dets(
            "s9", "--scenario", str(scenario), "--seed", "9"
        )
        assert dets("file") == dets("s4", "--scenario", str(scenario), "--seed", "4")
        assert dets("file") != dets("s5", "--scenario", str(scenario), "--seed", "5")
        assert dets("t", "--template", "clutter") == dets(
            "t0", "--template", "clutter", "--seed", "0"
        )

    def test_unknown_scenario_key(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"num_object": 3}))
        code, _, err = run(
            capsys, "simulate", "--scenario", str(scenario), "--output-dir", str(tmp_path)
        )
        assert code == 1
        assert "num_object" in err

    @pytest.mark.parametrize(
        "scenario, message",
        [
            (5, "scenario file must hold a JSON object"),
            ({"num_frames": "x"}, "num_frames must be a nonnegative integer, got 'x'"),
            ({"num_objects": -3}, "num_objects must be a nonnegative integer, got -3"),
            ({"fp_rate": None}, "fp_rate must be a finite number, got None"),
            ({"extent": 10**400}, "extent must be a finite number"),
            ({"objects": [{"x": 0}]}, "scenario object 0 must hold x, y, vx, vy"),
            ({"objects": [{"x": 0, "y": 0, "vx": "a", "vy": 1}]}, "vx must be a finite number"),
            ({"objects": 5}, "scenario objects must be a list, got 5"),
            ({"objects": [5]}, "scenario object 0 must hold a JSON object"),
            (
                {"objects": [{"x": 0, "y": 0, "vx": 0, "vy": 0, "z": 0}]},
                "scenario object 0 has unknown keys: ['z']",
            ),
            ({"occlusions": [[0, 1]]}, "occlusions must be a list of [object, start_frame"),
            (
                {"speed_min": 1e308, "speed_max": -1e308},
                "speed_max - speed_min must be a finite number, got speed_min 1e+308",
            ),
            (
                {"speed_min": 1e308, "speed_max": 1e308, "num_frames": 3},
                "speed_min 1e+308 and speed_max 1e+308 move an object beyond the float range",
            ),
            (
                {"objects": [{"x": 0, "y": 0, "vx": 1e308, "vy": 1e308}], "num_frames": 3},
                "object 0: vx 1e+308 and vy 1e+308 move it from x 0, y 0 beyond the float range",
            ),
            # the objects' reach is checked, and the speed range they override is not
            (
                {
                    "speed_min": 1e308,
                    "speed_max": -1e308,
                    "objects": [
                        {"x": 0, "y": 0, "vx": 1, "vy": 1},
                        {"x": 1e308, "y": 0, "vx": 1e308, "vy": 0},
                    ],
                },
                "object 1: vx 1e+308 and vy 0 move it from x 1e+308, y 0 beyond the float range",
            ),
            # within the float range, beyond the row rules' 1e100
            (
                {"speed_min": 0, "speed_max": 1e99, "num_frames": 100},
                "speed_min 0.0 and speed_max 1e+99 move an object beyond 1e+100 in magnitude",
            ),
            (
                {"objects": [{"x": 1e150, "y": 0, "vx": 1, "vy": 0}], "num_frames": 3},
                "object 0: vx 1 and vy 0 move it from x 1e+150, y 0 beyond 1e+100 in magnitude",
            ),
            # a generated box beyond the row rules' 1e100
            (
                {"box_l": 1e150, "num_objects": 1, "num_frames": 2},
                "box_l must be in [0, 1e+100], got 1e+150",
            ),
            (
                {"box_w": -1, "num_objects": 1, "num_frames": 2},
                "box_w must be in [0, 1e+100], got -1",
            ),
            (
                {"pos_noise": 1e120, "num_objects": 1, "num_frames": 2},
                "pos_noise 1e+120 moves a detection beyond 1e+100 in magnitude",
            ),
            (
                {"extent": 2.4e100, "fp_rate": 3, "num_objects": 1, "num_frames": 2},
                "extent 2.4e+100 puts a false positive beyond 1e+100 in magnitude",
            ),
        ],
        ids=[
            "number", "text-count", "negative-count", "null-rate", "huge-extent", "object-keys",
            "object-value", "objects-number", "object-number", "object-extra-key", "occlusion-pair",
            "speed-range", "speed-reach", "object-reach", "object-reach-over-range",
            "speed-beyond-box-limit", "object-beyond-box-limit", "box-extent-beyond-box-limit",
            "negative-box-extent", "noise-beyond-box-limit", "false-positive-beyond-box-limit",
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_malformed_scenario_rejected(self, tmp_path, capsys, scenario, message, command):
        """A scenario file of the wrong shape or types fails with its
        message before anything is generated."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        if command == "simulate":
            argv = ["simulate", "--scenario", str(path), "--output-dir", str(tmp_path / "out")]
        else:
            (tmp_path / "grid.json").write_text(json.dumps({"theta_cls": [0.5]}))
            argv = [
                "sweep", "--scenario", str(path), "--grid", str(tmp_path / "grid.json"),
                "--output", str(tmp_path / "out.csv"),
            ]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()


class TestTrack:
    def test_end_to_end(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "seqs", name="seq0")
        code, out, err = run(
            capsys, "track", "--input-dir", str(tmp_path / "seqs"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 0, err
        assert "ms/frame" in out
        result = tmp_path / "out" / "seq0.txt"
        assert result.exists() and result.read_text().strip()

    def test_embedding_beyond_limit_fails_at_its_line(self, tmp_path, capsys):
        """Embedding values whose distance overflows fail at their file
        and line, not in the appearance softmax of a later frame."""
        (tmp_path / "seqs").mkdir()
        (tmp_path / "seqs" / "seq0.dets.txt").write_text(
            "0 0 0 0.75 4 1.8 1.5 0 0.9 [1e308 0]\n1 0 0 0.75 4 1.8 1.5 0 0.9 [-1e308 0]\n"
        )
        code, _, err = run(
            capsys, "track", "--input-dir", str(tmp_path / "seqs"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "seq0.dets.txt:1: embedding value is beyond 1e+100 in magnitude: 1e+308" in err

    def test_json_line_fails_at_its_line(self, tmp_path, capsys):
        """A detection line written as a JSON object is not read: it fails
        at its file and line, without a traceback."""
        (tmp_path / "seqs").mkdir()
        (tmp_path / "seqs" / "seq0.dets.txt").write_text(
            "0 0 0 0.75 4 1.8 1.5 0 0.9\n"
            '{"frame": 1, "box": [0, 0, 0.75, 4, 1.8, 1.5, 0], "score": 0.9}\n'
        )
        code, _, err = run(
            capsys, "track", "--input-dir", str(tmp_path / "seqs"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "seq0.dets.txt:2: JSON lines are not read" in err and "Traceback" not in err

    def test_frame_near_64_bits(self, tmp_path, capsys):
        """A one-line file at frame 2**63 - 1 steps one frame, not every
        frame before it, and writes its row."""
        (tmp_path / "seqs").mkdir()
        (tmp_path / "seqs" / "seq0.dets.txt").write_text(f"{2**63 - 1} 0 0 0.75 4 1.8 1.5 0 1.0\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys, "track", "--input-dir", str(tmp_path / "seqs"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0, err
        assert out.startswith("seq0: 1 frames stepped, ")
        row = (tmp_path / "out" / "seq0.txt").read_text().split()
        assert row[:3] == [str(2**63 - 1), "1", "Car"] and row[10:17] == [
            "1.500000", "1.800000", "4.000000", "0.000000", "0.000000", "0.750000", "0.000000"
        ]

    def test_rerun_byte_identical(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "seqs", template="clutter", name="s")
        for d in ("o1", "o2"):
            code, _, err = run(
                capsys, "track", "--input-dir", str(tmp_path / "seqs"),
                "--output-dir", str(tmp_path / d),
            )
            assert code == 0, err
        assert (tmp_path / "o1" / "s.txt").read_bytes() == (
            tmp_path / "o2" / "s.txt"
        ).read_bytes()

    def test_empty_sequence(self, tmp_path, capsys):
        seqs = tmp_path / "seqs"
        seqs.mkdir()
        (seqs / "empty.dets.txt").write_text("")
        code, _, err = run(
            capsys, "track", "--input-dir", str(seqs), "--output-dir", str(tmp_path / "out")
        )
        assert code == 0, err
        assert (tmp_path / "out" / "empty.txt").read_text() == ""

    def test_missing_input_dir(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "track", "--input-dir", str(tmp_path / "nope"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "nope" in err

    def test_bad_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_clss": 0.9}))
        simulate(capsys, tmp_path / "seqs", name="seq0")
        code, _, err = run(
            capsys, "track", "--config", str(cfg),
            "--input-dir", str(tmp_path / "seqs"), "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "theta_clss" in err

    def test_config_round_trip(self, tmp_path):
        cfg = TrackerConfig(theta_cls=0.9, associator="hungarian", kalman_q_scale=0.5)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert TrackerConfig.from_file(path) == cfg

    def test_bad_config_value_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_miss": "2"}))
        simulate(capsys, tmp_path / "seqs", name="seq0")
        code, _, err = run(
            capsys, "track", "--config", str(cfg),
            "--input-dir", str(tmp_path / "seqs"), "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert err.startswith("error:") and "theta_miss" in err

    def test_config_value_too_large_for_float(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w_cls": 10**400}))
        simulate(capsys, tmp_path / "seqs", name="seq0")
        code, _, err = run(
            capsys, "track", "--config", str(cfg),
            "--input-dir", str(tmp_path / "seqs"), "--output-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert err.startswith("error: w_cls")

    def test_int_accepted_for_float(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"w_cls": 100, "beta_over_alpha": 10}))
        simulate(capsys, tmp_path / "seqs", template="clutter", name="s")
        for out, extra in (("o1", []), ("o2", ["--config", str(cfg)])):
            code, _, err = run(
                capsys, "track", *extra,
                "--input-dir", str(tmp_path / "seqs"), "--output-dir", str(tmp_path / out),
            )
            assert code == 0, err
        assert (tmp_path / "o1" / "s.txt").read_bytes() == (
            tmp_path / "o2" / "s.txt"
        ).read_bytes()


class TestEval:
    def test_results_equal_labels_scores_hundred(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "seqs", name="seq0")
        # use the label file itself as the result
        labels = (tmp_path / "seqs" / "seq0.labels.txt").read_text()
        results = tmp_path / "results"
        results.mkdir()
        (results / "seq0.txt").write_text(labels)
        code, out, err = run(
            capsys, "eval", "--results-dir", str(results),
            "--labels-dir", str(tmp_path / "seqs"),
        )
        assert code == 0, err
        assert "100.00%" in out

    def test_kitti_named_labels_beside_detections(self, tmp_path, capsys):
        """Labels named ``<seq>.txt`` next to ``<seq>.dets.txt``, the layout
        ``track`` reads: the detection file is not taken for a sequence."""
        seqs = tmp_path / "seqs"
        simulate(capsys, seqs, name="0000")
        (seqs / "0000.labels.txt").rename(seqs / "0000.txt")
        code, _, err = run(
            capsys, "track", "--input-dir", str(seqs), "--output-dir", str(tmp_path / "out")
        )
        assert code == 0, err
        report = tmp_path / "report.json"
        code, _, err = run(
            capsys, "eval", "--results-dir", str(tmp_path / "out"),
            "--labels-dir", str(seqs), "--json-out", str(report),
        )
        assert code == 0, err
        assert sorted(json.loads(report.read_text())) == ["0000", "OVERALL"]
        assert json.loads(report.read_text())["0000"]["MOTA"] == 1.0

    def test_repeated_result_row_rejected(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "seqs", name="seq0")
        first = (tmp_path / "seqs" / "seq0.labels.txt").read_text().splitlines()[0]
        results = tmp_path / "results"
        results.mkdir()
        (results / "seq0.txt").write_text(f"{first}\n{first}\n")
        code, _, err = run(
            capsys, "eval", "--results-dir", str(results),
            "--labels-dir", str(tmp_path / "seqs"),
        )
        assert code == 1
        assert "seq0.txt:2: duplicate (frame, id) pair: (0, 0), first on line 1" in err

    def test_missing_sequence_listed(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "seqs", name="seq0")
        simulate(capsys, tmp_path / "seqs", name="seq1", seed=1)
        results = tmp_path / "results"
        results.mkdir()
        (results / "seq0.txt").write_text("")
        code, _, err = run(
            capsys, "eval", "--results-dir", str(results),
            "--labels-dir", str(tmp_path / "seqs"),
        )
        assert code == 1
        assert "seq1" in err

    def test_full_pipeline_with_json_report(self, tmp_path, capsys):
        simulate(capsys, tmp_path / "seqs", name="seq0")
        code, _, err = run(
            capsys, "track", "--input-dir", str(tmp_path / "seqs"),
            "--output-dir", str(tmp_path / "out"),
        )
        assert code == 0, err
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "eval", "--results-dir", str(tmp_path / "out"),
            "--labels-dir", str(tmp_path / "seqs"), "--json-out", str(report),
        )
        assert code == 0, err
        payload = json.loads(report.read_text())
        assert payload["seq0"]["MOTA"] == 1.0
        assert payload["OVERALL"]["IDSW"] == 0


    @pytest.fixture
    def shifted(self, tmp_path, capsys):
        """Labels and results whose boxes overlap with an IoU of 0.6."""
        simulate(capsys, tmp_path / "seqs", name="seq0")
        labels = (tmp_path / "seqs" / "seq0.labels.txt").read_text()
        rows = [line.split() for line in labels.splitlines()]
        for row in rows:
            # 1 m along the heading, a quarter of l = 4: IoU 3 / 5
            heading = float(row[16])
            row[13] = f"{float(row[13]) + math.cos(heading):.6f}"
            row[14] = f"{float(row[14]) + math.sin(heading):.6f}"
        results = tmp_path / "results"
        results.mkdir()
        (results / "seq0.txt").write_text("".join(" ".join(row) + "\n" for row in rows))
        return ["eval", "--results-dir", str(results), "--labels-dir", str(tmp_path / "seqs")]

    @pytest.mark.parametrize(
        "config, flag, matched",
        [
            (None, None, True),  # default threshold 0.5
            ({"eval_iou_threshold": 0.7}, None, False),
            ({"eval_iou_threshold": 0.7}, "0.5", True),  # the flag wins
            ({"eval_iou_threshold": 0.5}, "0.7", False),
        ],
    )
    def test_config_threshold_and_flag(self, tmp_path, capsys, shifted, config, flag, matched):
        argv = list(shifted)
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        if flag is not None:
            argv += ["--iou-threshold", flag]
        report = tmp_path / "report.json"
        code, _, err = run(capsys, *argv, "--json-out", str(report))
        assert code == 0, err
        overall = json.loads(report.read_text())["OVERALL"]
        assert (overall["FP"] == 0) == matched
        assert overall["MOTA"] == (1.0 if matched else -1.0)

    def test_bad_config_threshold_rejected(self, tmp_path, capsys, shifted):
        """A threshold outside [0, 1] fails by the config's rule, whether
        the config file or --iou-threshold gives it."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"eval_iou_threshold": 1.5}))
        flags = (["--iou-threshold", value] for value in ("-1", "1.5", "nan"))
        for extra in (["--config", str(path)], *flags):
            code, _, err = run(capsys, *shifted, *extra)
            assert code == 1, extra
            assert "error: eval_iou_threshold must be a number in [0, 1]" in err, extra

    @pytest.mark.parametrize(
        "config, report",
        [
            (None, {"MOTA": 1.0, "FP": 0, "FN": 0}),
            ({"object_type": "Pedestrian"}, {"MOTA": 0.0, "FP": 0, "FN": 1}),
        ],
    )
    def test_scores_the_config_class_only(self, tmp_path, capsys, config, report):
        """A label file with a Car and a Pedestrian, against a result that
        tracks the Car: only the rows of the config's ``object_type``, on
        both sides, are scored."""
        car = "0 1 Car 0 0 -10 -1 -1 -1 -1 1.5 1.8 4.0 1 2 0.75 0.1"
        pedestrian = "0 2 Pedestrian 0 0 -10 -1 -1 -1 -1 1.7 0.6 0.8 9 9 0.85 0.1"
        (tmp_path / "labels").mkdir()
        (tmp_path / "labels" / "seq0.labels.txt").write_text(f"{car}\n{pedestrian}\n")
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "seq0.txt").write_text(f"{car} 0.9\n")
        argv = ["eval", "--results-dir", str(tmp_path / "results")]
        argv += ["--labels-dir", str(tmp_path / "labels"), "--json-out", str(tmp_path / "r.json")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        overall = json.loads((tmp_path / "r.json").read_text())["OVERALL"]
        assert {key: overall[key] for key in report} == report

    def test_empty_labels_dir_rejected(self, tmp_path, capsys):
        """Two empty directories score nothing, instead of MOTA 100%."""
        (tmp_path / "results").mkdir()
        (tmp_path / "labels").mkdir()
        code, out, err = run(
            capsys, "eval", "--results-dir", str(tmp_path / "results"),
            "--labels-dir", str(tmp_path / "labels"),
        )
        assert code == 1
        assert out == ""
        assert f"label files in {tmp_path / 'labels'}" in err


class TestSweep:
    def _grid(self, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return path

    def test_single_point_matches_direct_run(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"theta_cls": [0.85]})
        out_csv = tmp_path / "metrics.csv"
        code, _, err = run(
            capsys, "sweep", "--template", "clean", "--grid", str(grid),
            "--output", str(out_csv),
        )
        assert code == 0, err
        rows = read_csv(out_csv)
        assert len(rows) == 1
        assert float(rows[0]["mota"]) == 1.0
        assert int(rows[0]["idsw"]) == 0

    def test_grid_of_four_rows(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"theta_cls": [0.85, 0.9], "associator": ["mip", "hungarian"]})
        out_csv = tmp_path / "metrics.csv"
        code, _, err = run(
            capsys, "sweep", "--template", "clutter", "--grid", str(grid),
            "--output", str(out_csv),
        )
        assert code == 0, err
        rows = read_csv(out_csv)
        assert len(rows) == 4

    def test_fusion_ratio_comparison_rows(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"beta_over_alpha": [1.0, 10.0]})
        out_csv = tmp_path / "metrics.csv"
        code, _, err = run(
            capsys, "sweep", "--template", "crossing", "--grid", str(grid),
            "--output", str(out_csv),
        )
        assert code == 0, err
        rows = read_csv(out_csv)
        assert [r["beta_over_alpha"] for r in rows] == ["1.0", "10.0"]

    def test_null_grid_value_overrides_base(self, tmp_path, capsys):
        base = tmp_path / "cfg.json"
        base.write_text(json.dumps({"associator": "hungarian", "ha_gate": 0.3}))
        grid = self._grid(tmp_path, {"ha_gate": [None, 0.3]})
        out_csv = tmp_path / "metrics.csv"
        code, _, err = run(
            capsys, "sweep", "--config", str(base), "--template", "clutter", "--seed", "1",
            "--grid", str(grid), "--output", str(out_csv),
        )
        assert code == 0, err
        rows = {r.pop("ha_gate"): r for r in read_csv(out_csv)}
        # the null row runs without a gate, as a run with no gate anywhere
        ungated_csv = tmp_path / "ungated.csv"
        code, _, err = run(
            capsys, "sweep", "--associator", "hungarian", "--template", "clutter",
            "--seed", "1", "--grid", str(self._grid(tmp_path, {"w_cls": [100.0]})),
            "--output", str(ungated_csv),
        )
        assert code == 0, err
        (ungated,) = read_csv(ungated_csv)
        del ungated["w_cls"]
        assert rows["null"] == ungated
        assert rows["null"] != rows["0.3"]

    def test_metric_columns_are_the_table_header(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"theta_cls": [0.85]})
        out_csv = tmp_path / "metrics.csv"
        code, _, err = run(
            capsys, "sweep", "--template", "clean", "--grid", str(grid),
            "--output", str(out_csv),
        )
        assert code == 0, err
        with open(out_csv, newline="", encoding="utf-8") as f:
            header = next(csv.reader(f))
        table = format_report_table({"seq0": aggregate_reports([])}).splitlines()[0].split()
        assert header == ["theta_cls"] + [name.lower() for name in table[1:]]

    def test_seed_replaces_the_scenario_files(self, tmp_path, capsys):
        """--seed replaces a scenario file's seed, in the sweep too."""
        scenario = tmp_path / "scenario.json"
        fields = {"num_objects": 5, "num_frames": 20, "pos_noise": 0.3, "seed": 4}
        scenario.write_text(json.dumps(fields))
        grid = self._grid(tmp_path, {"theta_cls": [0.85]})

        def metrics(*seed):
            out_csv = tmp_path / "metrics.csv"
            code, _, err = run(
                capsys, "sweep", "--scenario", str(scenario), *seed, "--grid", str(grid),
                "--output", str(out_csv),
            )
            assert code == 0, err
            return read_csv(out_csv)

        assert metrics() == metrics("--seed", "4") != metrics("--seed", "5")

    def test_unknown_grid_key(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"w_clss": [1.0]})
        code, _, err = run(
            capsys, "sweep", "--template", "clean", "--grid", str(grid),
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == 1
        assert "w_clss" in err

    def test_grid_value_too_large_for_float(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"w_cls": [10**400]})
        code, _, err = run(
            capsys, "sweep", "--template", "clean", "--grid", str(grid),
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == 1
        assert err.startswith("error: w_cls")

    def test_associator_side_by_side(self, tmp_path, capsys):
        # same detections through both associators, one row each
        grid = self._grid(tmp_path, {"associator": ["hungarian", "mip"]})
        out_csv = tmp_path / "metrics.csv"
        code, _, err = run(
            capsys, "sweep", "--template", "clutter", "--seed", "1",
            "--grid", str(grid), "--output", str(out_csv),
        )
        assert code == 0, err
        rows = {r["associator"]: r for r in read_csv(out_csv)}
        assert int(rows["mip"]["idsw"]) < int(rows["hungarian"]["idsw"])
        assert float(rows["mip"]["mota"]) > float(rows["hungarian"]["mota"])


class TestJsonFiles:
    """Config, scenario and grid files are read by one reader, which fails
    at the file and line of a fault, or names a key given twice."""

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--config", b'{"theta_cls": 0.5,,}',
             ":1: bad JSON: Expecting property name enclosed in double quotes"),
            ("--scenario", b'{\n"num_frames": 3,\n}',
             ":3: bad JSON: Expecting property name enclosed in double quotes"),
            ("--grid", b'{"theta_cls": [0.5, 0.9]', ":1: bad JSON: Expecting ',' delimiter"),
            ("--config", b'{"theta_cls": 0.5,\n"object_type": "Caf\xe9"}',
             ":2: not UTF-8: byte 0xe9"),
            ("--scenario", b'{"object_type": "Caf\xe9"}', ":1: not UTF-8: byte 0xe9"),
            ("--grid", b'{\n\n"object_type": ["Caf\xe9"]}', ":3: not UTF-8: byte 0xe9"),
            ("--config", b'{"theta_cls": 0.5, "theta_cls": 0.9}',
             ": key 'theta_cls' is given twice"),
            ("--scenario", b'{"objects": [{"x": 0, "y": 0, "x": 1}]}', ": key 'x' is given twice"),
            ("--grid", b'{"theta_cls": [0.5], "theta_cls": [0.9]}',
             ": key 'theta_cls' is given twice"),
        ],
        ids=[
            f"{flag[2:]}-{fault}" for fault in ("syntax", "utf8", "repeated-key")
            for flag in ("--config", "--scenario", "--grid")
        ],
    )
    def test_fault_named_with_its_file(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        out = str(tmp_path / "out")
        argv = {
            "--config": ["track", "--config", str(path), "--input-dir", str(tmp_path),
                         "--output-dir", out],
            "--scenario": ["simulate", "--scenario", str(path), "--output-dir", out],
            "--grid": ["sweep", "--template", "clean", "--grid", str(path), "--output", out],
        }[flag]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err == f"error: {path}{message}\n"
        assert not (tmp_path / "out").exists()

    def test_nesting_too_deep_named_with_its_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(
            capsys, "track", "--config", str(path), "--input-dir", str(tmp_path),
            "--output-dir", str(tmp_path / "out"),
        )
        assert (code, err) == (1, f"error: {path}: bad JSON: nested too deeply\n")
