import csv
import json

import pytest

from mipmot.cli import main
from mipmot.config import TrackerConfig


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

    def test_unknown_scenario_key(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"num_object": 3}))
        code, _, err = run(
            capsys, "simulate", "--scenario", str(scenario), "--output-dir", str(tmp_path)
        )
        assert code == 1
        assert "num_object" in err


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

    def test_unknown_grid_key(self, tmp_path, capsys):
        grid = self._grid(tmp_path, {"w_clss": [1.0]})
        code, _, err = run(
            capsys, "sweep", "--template", "clean", "--grid", str(grid),
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == 1
        assert "w_clss" in err

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
