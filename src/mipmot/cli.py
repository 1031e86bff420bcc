"""Command-line interface: track, eval, simulate and sweep.

Sequence directories hold one detection file and one optional label
file per sequence, named ``<seq>.dets.txt`` and ``<seq>.labels.txt``.
Tracking writes one KITTI-format result file ``<seq>.txt`` per
sequence. All randomness is seeded, so repeated runs produce
byte-identical files.

Every tracker setting comes from one ``--config`` JSON file, read by
``TrackerConfig.from_file``; without it the defaults hold. ``sweep``
varies keys over that base config by its ``--grid`` file.

Each subcommand imports what it runs: the tracker, and with it scipy,
is imported by ``track`` and ``sweep`` only, so ``eval`` and
``simulate`` start without it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import evaluation, io_formats, simgen
from .config import TrackerConfig, load_json, read_json

if TYPE_CHECKING:
    from .tracker import FrameResult


class CliError(Exception):
    """User-facing failure: printed to stderr, exit status 1."""


def _load_config(path: str | None) -> TrackerConfig:
    return TrackerConfig() if path is None else TrackerConfig.from_file(path)


def _sequences(directory: Path, suffix: str) -> dict[str, Path]:
    if not directory.is_dir():
        raise CliError(f"not a directory: {directory}")
    return {
        p.name[: -len(suffix)]: p for p in sorted(directory.glob(f"*{suffix}"))
    }


def _kitti_files(directory: Path) -> dict[str, Path]:
    """{sequence: file} of the KITTI files ``<seq>.txt``, without the
    ``<seq>.dets.txt`` and ``<seq>.labels.txt`` files beside them."""
    files = _sequences(directory, ".txt")
    return {name: p for name, p in files.items() if not name.endswith((".dets", ".labels"))}


def results_to_frames(results: list[FrameResult]) -> dict:
    """{frame: rows} of the frames with tracks."""
    return {r.frame: r.tracks for r in results if len(r.tracks)}


def labels_to_frames(table) -> dict:
    """{frame: rows} of a label or result table, frames ascending and file
    order within a frame."""
    order, groups = io_formats.frame_groups(table["frame"])
    if order is not None:
        table = table[order]
    return {frame: table[a:b] for frame, a, b in groups}


def cmd_track(args) -> int:
    from .tracker import run_sequence

    cfg = _load_config(args.config)
    input_dir = Path(args.input_dir)
    output_dir = Path(args.output_dir)
    sequences = _sequences(input_dir, ".dets.txt")
    if not sequences:
        raise CliError(f"no *.dets.txt files in {input_dir}")
    output_dir.mkdir(parents=True, exist_ok=True)
    for name, det_path in sequences.items():
        dets = io_formats.read_detections(det_path)
        start = time.perf_counter()
        results = run_sequence(dets, cfg)
        elapsed = time.perf_counter() - start
        io_formats.write_kitti_tracking(
            results, output_dir / f"{name}.txt", object_type=cfg.object_type
        )
        per_frame_ms = 1000.0 * elapsed / len(results) if results else 0.0
        print(f"{name}: {len(results)} frames stepped, {per_frame_ms:.2f} ms/frame")
    return 0


def _evaluate_dirs(results_dir: Path, labels_dir: Path, cfg: TrackerConfig):
    """{sequence: report} of each label file against its result file, both
    read for the config's ``object_type`` only and matched at its
    ``eval_iou_threshold``."""
    label_files = _sequences(labels_dir, ".labels.txt") or _kitti_files(labels_dir)
    if not label_files:
        raise CliError(f"no *.labels.txt or KITTI *.txt label files in {labels_dir}")
    result_files = _kitti_files(results_dir)
    missing = sorted(set(label_files) - set(result_files))
    extra = sorted(set(result_files) - set(label_files))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing results for: {', '.join(missing)}")
        if extra:
            parts.append(f"results without labels: {', '.join(extra)}")
        raise CliError("; ".join(parts))
    reports = {}
    keep = {cfg.object_type}
    for name in sorted(label_files):
        gt = labels_to_frames(io_formats.read_kitti_labels(label_files[name], keep))
        hyp = labels_to_frames(io_formats.read_kitti_labels(result_files[name], keep))
        reports[name] = evaluation.evaluate_sequence(gt, hyp, cfg.eval_iou_threshold)
    return reports


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    reports = _evaluate_dirs(Path(args.results_dir), Path(args.labels_dir), cfg)
    overall = evaluation.aggregate_reports(list(reports.values()))
    table = dict(reports)
    table["OVERALL"] = overall
    print(evaluation.format_report_table(table))
    if not overall.mota_defined:
        print("note: no ground-truth boxes, MOTA reported as 100%")
    if args.json_out:
        payload = {name: r.as_dict() for name, r in table.items()}
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def _scenario_from_args(args) -> simgen.ScenarioConfig:
    """The scenario of --template or --scenario; a given --seed replaces
    the scenario file's seed, checked again, and a template's default 0."""
    if args.template:
        return simgen.scenario_template(args.template, seed=args.seed or 0)
    cfg = load_json(simgen.ScenarioConfig, args.scenario, "scenario file")
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def cmd_simulate(args) -> int:
    cfg = _scenario_from_args(args)
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    labels, detections = simgen.generate(cfg)
    name = args.name or (args.template or "scenario")
    io_formats.write_detections(detections, output_dir / f"{name}.dets.txt")
    io_formats.write_kitti_labels(labels, output_dir / f"{name}.labels.txt")
    print(f"wrote {name}.dets.txt and {name}.labels.txt to {output_dir}")
    return 0


def cmd_sweep(args) -> int:
    from .tracker import run_sequence

    base = _load_config(args.config)
    scenario = _scenario_from_args(args)
    labels, detections = simgen.generate(scenario)
    gt = labels_to_frames(labels)

    grid = read_json(args.grid)
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise CliError("grid file must map config keys to value lists")

    keys = sorted(grid)
    # Build every config first, so a bad grid value fails before any run.
    combos = list(itertools.product(*(grid[k] for k in keys)))
    configs = [base.override(**dict(zip(keys, combo))) for combo in combos]
    rows = []
    for combo, cfg in zip(combos, configs):
        results = run_sequence(detections, cfg)
        report = evaluation.evaluate_sequence(
            gt, results_to_frames(results), cfg.eval_iou_threshold
        )
        metrics = report.as_dict()
        # csv writes None as an empty cell; a null grid value reads "null"
        cells = ["null" if v is None else v for v in combo]
        rows.append(cells + [metrics[m] for m in evaluation.METRICS])

    with open(args.output, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(keys + [m.lower() for m in evaluation.METRICS])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipmot", description="3D multi-object tracking backend"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--template", choices=simgen.TEMPLATES)
        group.add_argument("--scenario", help="scenario config JSON file")
        p.add_argument("--seed", type=int, help="default: the scenario file's seed, or 0")

    p_track = sub.add_parser("track", help="run the tracker over sequences")
    p_track.add_argument("--config", help="tracker config JSON file; keys left out keep defaults")
    p_track.add_argument("--input-dir", required=True)
    p_track.add_argument("--output-dir", required=True)
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score results against labels")
    p_eval.add_argument("--results-dir", required=True)
    p_eval.add_argument("--labels-dir", required=True)
    p_eval.add_argument("--config", help="reads object_type and eval_iou_threshold")
    p_eval.add_argument("--json-out")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic sequence")
    add_scenario(p_sim)
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument("--name")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid-run track+eval on a scenario")
    p_sweep.add_argument("--config", help="base tracker config JSON file, which --grid varies")
    add_scenario(p_sweep)
    p_sweep.add_argument("--grid", required=True, help="JSON {key: [values]}")
    p_sweep.add_argument("--output", required=True, help="metrics CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
