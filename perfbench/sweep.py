"""Run workloads over several seeds and summarise every metric.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1-10 --out-dir perf-results
    python3 perfbench/sweep.py --seeds 1-10 --out-dir perf-results \
        parent=../repo-parent change=.
    python3 perfbench/sweep.py --workloads fresh-1k,tenant-swap --seeds 1-5 --trace 1

The positional arguments name checkouts as ``LABEL=DIR`` (default: this one,
labelled ``this``).  Each run is the checkout's own ``perfbench/run.py`` in
its own process, started in that checkout.  With several checkouts every
seed runs on each of them in turn, rotating which goes first from seed to
seed, so each seed-matched pair of runs is also close in time and the host's
drift in speed falls on both sides alike.

One JSON record per run (checkout, workload, seed, trace, exit code, wall
time and the run's result) is appended to ``--out-dir/<LABEL>.jsonl``; the
summary prints, per checkout and workload, each metric's median, quartiles
and quartile spread as a share of the median, with the number of runs behind
it.  The exit code is non-zero if any run failed its correctness gate.  Feed
two ``.jsonl`` files to ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def parse_checkout(text: str) -> tuple[str, Path]:
    label, sep, directory = text.partition("=")
    path = Path(directory).resolve()
    if not sep or not label or not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not LABEL=DIR of a checkout with perfbench/run.py"
        )
    return label, path


def run_order(checkouts: list, index: int) -> list:
    """The checkouts for the ``index``-th seed, rotated so each leads in turn."""
    shift = index % len(checkouts)
    return checkouts[shift:] + checkouts[:shift]


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "exit": completed.returncode, "wall_s": round(wall, 3), "result": result,
    }


def quartile_summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def metric_values(records: list[dict], workload: str, trace: int) -> dict[str, list]:
    """``metric -> [(seed, value, unit), ...]`` over one workload's runs."""
    values: dict[str, list] = {}
    for record in records:
        if record["workload"] != workload or record["trace"] != trace:
            continue
        for name, metric in ((record["result"] or {}).get("metrics") or {}).items():
            values.setdefault(name, []).append((record["seed"], metric["value"], metric["unit"]))
    return values


def print_summary(label: str, records: list[dict]) -> None:
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            walls = [r["wall_s"] for r in runs]
            requests = [r["result"]["attempted"] for r in runs if r["result"]]
            print(f"\n{label}: {workload} (trace {trace}): {len(runs)} runs, "
                  f"wall {min(walls):.1f}-{max(walls):.1f}s, "
                  f"requests per run {min(requests, default=0)}-{max(requests, default=0)}")
            print(f"  {'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
            for name, entries in metric_values(records, workload, trace).items():
                med, q1, q3, spread = quartile_summary([value for _, value, _ in entries])
                print(f"  {name:32} {entries[0][2]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f}  (n={len(entries)})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: the workloads of BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="append each checkout's records to <LABEL>.jsonl here")
    parser.add_argument("checkouts", nargs="*", type=parse_checkout, metavar="LABEL=DIR")
    args = parser.parse_args(argv)
    checkouts = args.checkouts or [("this", ROOT)]
    if len({label for label, _ in checkouts}) != len(checkouts):
        parser.error("checkout labels must differ")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        workload["name"] for workload in spec["workloads"]
    ]
    for workload in workloads:
        if workload not in WORKLOAD_NAMES:
            parser.error(f"unknown workload {workload!r}")
    records: dict[str, list[dict]] = {label: [] for label, _ in checkouts}
    for workload in workloads:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            for label, checkout in run_order(checkouts, index):
                record = {"checkout": label,
                          **run_one(checkout, workload, seed, seconds, args.trace)}
                records[label].append(record)
                print(f"{label} {workload} seed {seed}: exit {record['exit']} "
                      f"in {record['wall_s']}s", flush=True)
                if args.out_dir is not None:
                    args.out_dir.mkdir(parents=True, exist_ok=True)
                    with (args.out_dir / f"{label}.jsonl").open("a") as handle:
                        handle.write(json.dumps(record) + "\n")
    for label, label_records in records.items():
        print_summary(label, label_records)
    return 0 if all(r["exit"] == 0 for rs in records.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
