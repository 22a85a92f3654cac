"""Compare two result sets of perfbench/run.py, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files of one commit (run.py --out DIR).
Runs pair up by workload, trace mode and seed.  For every metric the
command prints each side's median and quartiles, the share of pairs the
new side wins, and a verdict by the rule of the choosing-metrics guide:

  improved      the new side wins at least 9 in 10 pairs and the medians
                differ by more than the base side's interquartile range
  worse         the new median is worse than the base median by more than
                the metric's bound
  within bound  neither, and both sides' spread is within the bound
  unresolved    the spread of either side is wider than the bound, and
                not every new run beats every base run

Per-layer metrics have no bound: a time is improved, worse (the mirror of
the improved rule) or unresolved, and a count is unchanged or changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _improved(base, new, pairs, sign) -> bool:
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    q1, q3 = quartiles(base)
    return bool(pairs) and wins >= 0.9 * len(pairs) and (
        sign * (statistics.median(base) - statistics.median(new)) > q3 - q1)


def verdict(base: List[float], new: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: Optional[float], unit: str = "") -> str:
    """Verdict for one metric; `pairs` holds (base, new) values of one seed."""
    sign = 1 if better == "lower" else -1
    if bound is None and unit == "count":
        return "unchanged" if all(b == n for b, n in pairs) and pairs else "changed"
    if _improved(base, new, pairs, sign):
        return "improved"
    if bound is None:
        mirrored = [(n, b) for b, n in pairs]
        return "worse" if _improved(new, base, mirrored, sign) else "unresolved"
    base_med, new_med = statistics.median(base), statistics.median(new)

    def spread(values):
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        return (q3 - q1) / abs(median) if median else float("inf")

    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if sign * (new_med - base_med) > bound * abs(base_med):
        return "worse"
    return "within bound"


def load(directory: Path) -> Dict[Tuple[str, int], Dict[int, dict]]:
    """(workload, trace) -> seed -> metrics of that run."""
    runs: Dict[Tuple[str, int], Dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = record["result"]["metrics"]
    return runs


def compare(base_dir: Path, new_dir: Path, spec: dict) -> List[str]:
    base_runs, new_runs = load(base_dir), load(new_dir)
    lines = []
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base, new = base_runs[key], new_runs[key]
        seeds = sorted(set(base) & set(new))
        lines.append(f"{workload} ({'per-layer' if trace else 'end-to-end'}): "
                     f"{len(base)} base runs, {len(new)} new runs, {len(seeds)} pairs by seed")
        lines.append(f"  {'metric':42s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}"
                     f" {'change':>8s} {'wins':>5s}  verdict")
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name = metric["name"]
            b = [run[name]["value"] for run in base.values() if name in run]
            n = [run[name]["value"] for run in new.values() if name in run]
            if not b or not n:
                continue
            pairs = [(base[s][name]["value"], new[s][name]["value"]) for s in seeds
                     if name in base[s] and name in new[s]]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            bmed, nmed = statistics.median(b), statistics.median(n)
            change = f"{100 * (nmed - bmed) / bmed:+.1f}%" if bmed else "n/a"
            text = verdict(b, n, pairs, metric["better"], metric.get("bound"), metric["unit"])
            lines.append(
                f"  {name:42s} {_stats(b):>34s} {_stats(n):>34s} {change:>8s}"
                f" {f'{wins}/{len(pairs)}':>5s}  {text}")
    return lines


def _stats(values: List[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = compare(args.base, args.new, spec)
    if not lines:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
