"""mipmot benchmark entry point.

    python3 perfbench/run.py --workload kitti-20 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout. Each workload runs in its own
fresh process (``perfbench/worker.py``) that imports the program from
``src/``, with the BLAS and OpenMP thread pools limited to one thread.
For one workload the worker's output is passed through: its last line
is the JSON result. ``--workload all`` runs every workload in turn and
prints a table of its metrics, with units, and of failed / attempted
operations. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170
SINGLE_THREAD = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, workload: str, capture: bool) -> tuple[int, str]:
    """Run one workload in a fresh process; kill its process group on timeout."""
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE if capture else None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def print_table(results: dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    rows = [["metric", "unit", *results]]
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = []
        for result in results.values():
            value = result["metrics"].get(name, {}).get("value")
            cells.append("absent" if value is None else f"{value:.6g}")
        rows.append([name, unit, *cells])
    rows.append(["failed / attempted", "count",
                 *(f"{r['failed']} / {r['attempted']}" for r in results.values())])
    rows.append(["correct", "", *(str(r["correct"]) for r in results.values())])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mipmot benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mipmot" / "__init__.py").is_file():
        print(f"no mipmot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, _ = run_worker(args, args.workload, capture=False)
        return code

    results = {}
    for workload in WORKLOADS:
        code, out = run_worker(args, workload, capture=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"{workload}: worker exited with code {code}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(f"seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}")
    print_table(results)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
