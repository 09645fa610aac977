"""Compare the untraced results of two commits, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py perf-results/parent.jsonl perf-results/change.jsonl

Both files are ``sweep.py`` records, best made by one ``sweep.py`` call that
alternates the two checkouts seed by seed.  For every workload and
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the share of seed-matched pairs the change wins (ties count for
neither side; ``-`` when the two files share no seed) and a verdict.

Timed metrics are judged on their spread:

* ``improved``   -- the change wins at least 9/10 of the pairs and the medians
  differ, in the better direction, by more than the parent's own quartile
  spread;
* ``unresolved`` -- the parent's quartile spread is wider than the metric's
  bound and not every run of the change beats every run of the parent;
* ``worse``      -- the change's median is worse than the parent's by more than
  the bound;
* ``no-worse``   -- otherwise.

``EXACT`` metrics repeat exactly for a seed, so they are judged pair by pair
instead: ``worse`` when any seed reads worse, ``improved`` when some seed
reads better and none worse, ``no-worse`` when every seed reads the same, and
``unresolved`` without seed-matched pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sweep import load_records, metric_values  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WIN_SHARE = 0.9
#: Metrics that are a pure function of the seed: any difference means the
#: outputs changed.
EXACT = frozenset({"f1_at_30", "ok_ratio"})


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float) -> tuple[str, float | None]:
    """``(verdict, share of pairs won by the change, or None without pairs)``."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    share = wins / len(pairs) if pairs else None
    base_med, new_med = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base_med, 0, base_med)
    gain = sign * (new_med - base_med)
    if share is not None and share >= WIN_SHARE and gain > q3 - q1:
        return "improved", share
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if base_med and (q3 - q1) / abs(base_med) > bound and not all_better:
        return "unresolved", share
    if base_med and -gain / abs(base_med) > bound:
        return "worse", share
    return "no-worse", share


def exact_verdict(pairs: list[tuple[float, float]],
                  higher_is_better: bool) -> tuple[str, float | None]:
    """Verdict for a metric that must repeat exactly for a seed."""
    if not pairs:
        return "unresolved", None
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if any(sign * (n - b) < 0 for b, n in pairs):
        return "worse", wins / len(pairs)
    return ("improved" if wins else "no-worse"), wins / len(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = load_records(args.parent), load_records(args.change)
    worse = False
    print(f"{'workload':14} {'metric':16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>6}  verdict")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        base_values = metric_values(parent, workload, 0)
        new_values = metric_values(change, workload, 0)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            base = {seed: value for seed, value, _ in base_values.get(name, [])}
            new = {seed: value for seed, value, _ in new_values.get(name, [])}
            if not base or not new:
                print(f"{workload:14} {name:16} missing on one side")
                continue
            pairs = [(base[seed], new[seed]) for seed in sorted(set(base) & set(new))]
            higher = metric["better"] == "higher"
            if name in EXACT:
                result, share = exact_verdict(pairs, higher)
            else:
                result, share = verdict(
                    list(base.values()), list(new.values()), pairs, higher, metric["bound"]
                )
            worse |= result == "worse"
            won = "-" if share is None else f"{share:.0%}"
            print(f"{workload:14} {name:16} {_describe(list(base.values())):>34} "
                  f"{_describe(list(new.values())):>34} {won:>6}  {result}")
    return 1 if worse else 0


def _describe(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.5g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


if __name__ == "__main__":
    sys.exit(main())
