"""effdyn benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload info-rate --seed 1 --seconds 30 --trace 0

Tasks run one after another in a single thread; the next starts only when
the previous one has finished and its output has been checked.  The task
list is run in whole passes until --seconds have gone by, so every run
measures the same mix.  With --trace 0 the run prints the end-to-end
metrics of BENCHMARK.json, with task times divided by the time of a
reference loop run around each task (perfbench/README.md says why); with
--trace 1 it alternates an untraced and a traced pass and prints the
per-layer metrics.  The last line of standard
output is the JSON result; a copy with metadata goes to --out.

    python3 perfbench/run.py --workload grid --record-digests

re-records the CSV digests of the default seed, for use only when an
output change is intended.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
MODULES = ("numerics", "space", "measure", "dynamics", "symbolic", "coding", "entropy",
           "stats", "reporting", "cli")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
WALL_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms", "setup_s": "s"}
# set-up time is reported in seconds of a host on which the reference loop
# takes exactly this long
REF_NOMINAL_S = 0.001


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def effdyn_modules() -> SimpleNamespace:
    """effdyn's modules, imported from this checkout's src/."""
    package_dir = SRC / "effdyn"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no effdyn sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{name: importlib.import_module(f"effdyn.{name}") for name in MODULES})
    loaded = Path(sys.modules["effdyn"].__file__).resolve().parent
    if loaded != package_dir.resolve():
        raise BenchError(f"effdyn was imported from {loaded}, not {package_dir}")
    return lib


def load_effdyn() -> SimpleNamespace:
    """A fresh import of effdyn, as a new process would pay for it."""
    for name in [m for m in sys.modules if m == "effdyn" or m.startswith("effdyn.")]:
        del sys.modules[name]
    return effdyn_modules()


def setup(workload: str, seed: int):
    """Import effdyn and generate the tasks, SETUP_REPEATS times.

    Returns the last repetition's modules and tasks, the median set-up time
    in nominal seconds (each repetition's time over the mean reference-loop
    time around it, times REF_NOMINAL_S) and the median wall time.
    """
    times, normalized, first = [], [], None
    for _ in range(SETUP_REPEATS):
        before = time_reference()
        start = time.perf_counter()
        lib = load_effdyn()
        tasks = workloads.generate(workload, seed, lib)
        times.append(time.perf_counter() - start)
        normalized.append(REF_NOMINAL_S * times[-1] / ((before + time_reference()) / 2))
        described = [task.describe() for task in tasks]
        if first is None:
            first = described
        elif described != first:
            raise BenchError("the same seed generated different tasks")
    return lib, tasks, statistics.median(normalized), statistics.median(times)


def reference_loop() -> int:
    """About a millisecond of fixed pure-Python work of the kinds effdyn
    spends its time on: Fraction arithmetic, big-integer shifts and
    reductions, tuples and dicts."""
    acc = Fraction(0)
    table = {}
    x = 1
    for i in range(1, 200):
        acc += Fraction(i, (1 << (i % 48)) + 3)
        x = (x << 3) % ((1 << 521) - 1)
        table[(i, x & 255)] = tuple(range(i % 7))
    return len(table) + acc.denominator.bit_length()


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


@dataclass
class PassResult:
    wall: float
    latencies: List[float]  # seconds per task
    normalized: List[float]  # per task: seconds / reference loop time around it
    refs: List[float]  # reference loop seconds, before each task and after the last
    failures: List[str]
    findings: Counter


def run_pass(lib, tasks, digests: Optional[Dict[str, str]], tracer=None) -> PassResult:
    """One closed-loop pass over the tasks, each timed, then checked.

    The reference loop runs before each task and after the last; a task's
    normalized time divides its latency by the mean of the two reference
    times around it, which cancels most of the host's changing speed.
    """
    result = PassResult(wall=0.0, latencies=[], normalized=[], refs=[], failures=[],
                        findings=Counter())
    refs = result.refs
    pass_start = time.perf_counter()
    for index, task in enumerate(tasks):
        refs.append(time_reference())
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workloads.run_task(lib, task)
            else:
                with tracer.task(index):
                    output = workloads.run_task(lib, task)
            result.latencies.append(time.perf_counter() - start)
            expected = None if digests is None else digests.get(task.id, "missing")
            problem = workloads.check_task(task, output, expected)
            finding = workloads.audit(task, output)
            if finding is not None:
                result.findings[finding] += 1
        except Exception:  # a task that raises is a failed task; the run goes on
            result.latencies.append(time.perf_counter() - start)
            problem = traceback.format_exc(limit=3)
        if problem is not None:
            result.failures.append(f"{task.id}: {problem}")
    refs.append(time_reference())
    result.wall = time.perf_counter() - pass_start
    result.normalized = [
        latency / ((refs[i] + refs[i + 1]) / 2) for i, latency in enumerate(result.latencies)]
    return result


def tail(latencies: List[float]):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank; the median when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = 50
    for q in TAIL_LADDER:
        if n - math.ceil(q * n / 100) >= 10:
            best = q
    rank = max(1, math.ceil(best * n / 100))
    return best, ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _git_revision() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata() -> Dict[str, object]:
    sources = sorted(SRC.rglob("*.py"))
    return {
        "git_revision": _git_revision(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(path.read_text().splitlines()) for path in sources),
        "effdyn_cache_dir": "unset",
        "workers": "program default",
    }


def load_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != DEFAULT_SEED:
        return None
    if not DIGESTS.is_file():
        raise BenchError(f"missing {DIGESTS}")
    return json.loads(DIGESTS.read_text()).get(workload, {})


def measure(lib, tasks, digests, seconds: float) -> List[PassResult]:
    """Untraced whole passes until `seconds` have elapsed."""
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        passes.append(run_pass(lib, tasks, digests))
    return passes


def traced(lib, tasks, digests, seconds: float):
    """Pairs of an untraced and a traced pass until `seconds` have elapsed.

    Returns the first pass's tracer, the untimed warm-up pass, every
    pair's (untraced, traced) pass results, and each traced pass's layer
    table and counters.
    """
    pairs, tables, counts = [], [], []
    first = None
    begin = time.perf_counter()
    # a first pass runs slower (the heap grows), which would bias the overhead
    warmup = run_pass(lib, tasks, digests)
    while not pairs or time.perf_counter() - begin < seconds:
        plain = run_pass(lib, tasks, digests)
        tracer = tracing.Tracer(lib)
        with tracer.patched():
            traced_pass = run_pass(lib, tasks, digests, tracer)
        pairs.append((plain, traced_pass))
        tables.append(tracing.layer_table(tracer.names, tracer.spans))
        counts.append({**tracer.counts, **traced_pass.findings})
        if first is None:
            first = tracer
    return first, warmup, pairs, tables, counts


def layer_metrics(tables, counts, overheads) -> Dict[str, float]:
    """Per-layer figures: counts from the first traced pass, times as the
    median over traced passes."""
    out: Dict[str, float] = dict(counts)
    for name in {name for table in tables for name in table}:
        out[f"{name}.calls"] = tables[0].get(name, {"calls": 0})["calls"]
        for time_kind in ("self_s", "total_s"):
            out[f"{name}.{time_kind}"] = statistics.median(
                table.get(name, {time_kind: 0.0})[time_kind] for table in tables)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            v for k, v in out.items() if k.startswith(module + ".") and k.endswith(".self_s"))
    out["bench.self_s"] = out.get("task.self_s", 0.0)
    grid = out.get("entropy.spanning_separated.grid_points", 0)
    out["entropy.spanning_separated.kept_frac"] = (
        out.get("entropy.spanning_separated.kept", 0) / grid if grid else 0.0)
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def _select(spec_metrics, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The metrics BENCHMARK.json lists, in its order; absent counts are 0."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        out[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "results"),
                        help="directory for the result file (and spans when traced)")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass of the default seed and record its CSV digests")
    args = parser.parse_args(argv)
    # the spanning-count cache would let h1 tasks time a file read
    os.environ.pop("EFFDYN_CACHE_DIR", None)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.record_digests:
            return record_digests(args.workload)
        lib, tasks, setup_s, setup_wall_s = setup(args.workload, args.seed)
        digests = load_digests(args.workload, args.seed)
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    meta = metadata()
    print("meta: " + json.dumps(meta, sort_keys=True))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        tracer, warmup, pairs, tables, counts = traced(lib, tasks, digests, args.seconds)
        results = [warmup] + [p for pair in pairs for p in pair]
        failures = [f for p in results for f in p.failures]
        if any(c != counts[0] for c in counts):
            failures.append("layer counts differ between traced passes of the same tasks")
        # traced minus untraced pass time, from reference-normalized task
        # times (raw pass times swing by more than the overhead), in seconds
        # at the run's median reference loop time
        ref_s = statistics.median(r for pair in pairs for p in pair for r in p.refs)
        overheads = [ref_s * (sum(t.normalized) - sum(p.normalized)) for p, t in pairs]
        values = layer_metrics(tables, counts[0], overheads)
        metrics = _select(spec["per_layer"], values)
        spans_path = out_dir / f"{stem}.spans.json.gz"
        tracer.write(spans_path)
        extra = {"layers": dict(sorted(values.items()))}
        print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs of an untraced and a "
              f"traced pass of {len(tasks)} tasks; spans in {spans_path}")
    else:
        results = measure(lib, tasks, digests, args.seconds)
        failures = [f for p in results for f in p.failures]
        latencies = [x for p in results for x in p.latencies]
        normalized = [x for p in results for x in p.normalized]
        completed = len(latencies) - len(failures)
        q, tail_ref = tail(normalized)
        _, tail_s = tail(latencies)
        values = {
            "tasks_per_kref": 1000 * completed / sum(normalized),
            "task_p50_ref": statistics.median(normalized),
            "task_tail_ref": tail_ref,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = _select(spec["end_to_end"], values)
        wall = {"tasks_per_s": completed / sum(p.wall for p in results),
                "task_p50_ms": 1000 * statistics.median(latencies),
                "task_tail_ms": 1000 * tail_s,
                "setup_s": setup_wall_s}
        extra = {"wall_clock": wall, "tail_percentile": q, "tail_samples": len(latencies)}
        print(f"{args.workload} seed {args.seed}: {len(results)} passes of {len(tasks)} tasks")
        for name, value in wall.items():
            print(f"  wall-clock {name:33s} {value:>14.6g} {WALL_UNITS[name]}")
    attempted = sum(len(p.latencies) for p in results)
    failed = len(failures)
    findings = sum((p.findings for p in results), Counter())
    for name, metric in metrics.items():
        note = f"  (p{q} of {len(latencies)} tasks)" if name == "task_tail_ref" else ""
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  {'failed_frac':44s} {failed / attempted:>14.6g}  ({failed} of {attempted} tasks)")
    for finding, count in sorted(findings.items()):
        print(f"  known shortfall {finding}: {count} of {attempted} tasks")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "meta": meta, "result": result, **extra,
              "failed_frac": failed / attempted, "findings": dict(findings),
              "failures": failures[:50], "pass_walls": [p.wall for p in results],
              "pass_latencies": [p.latencies for p in results],
              "pass_normalized": [p.normalized for p in results]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def record_digests(workload: str) -> int:
    lib, tasks, _, _ = setup(workload, DEFAULT_SEED)
    recorded = {}
    for task in tasks:
        output = workloads.run_task(lib, task)
        problem = workloads.check_task(task, output)
        if problem is not None:
            print(f"not recorded, {task.id} fails its check: {problem}", file=sys.stderr)
            return 1
        recorded[task.id] = workloads.output_digest(output)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = recorded
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests for {workload} in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
