"""Run one RePaGer benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fresh-1k --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every response passed the
correctness gate.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fresh-8k", "fresh-1k", "repeat-routed", "tenant-swap")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no RePaGer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perf_workloads import WORKLOADS, Run  # needs the package on sys.path

    signal.signal(signal.SIGTERM, _terminate)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    # In-process eviction snapshots land in tempfile's directory.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    run = Run(ROOT, workdir, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    finally:
        run.fleet.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    for note in run.notes:
        print(f"{args.workload}: {note}")
    for violation in run.gate.violations:
        print(f"{args.workload}: VIOLATION {violation}")
    result = {
        "correct": run.gate.correct,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if run.gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
