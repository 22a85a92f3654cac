"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json

import pytest

import compare
import run
import tracing
import workloads

LIB = run.effdyn_modules()


def _cheapest(workload, kind=None, check=None, seed=3):
    tasks = workloads.generate(workload, seed, LIB)
    return next(t for t in tasks if (kind is None or t.kind == kind)
                and (check is None or t.check == check))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_generates_identical_tasks(workload):
    first = [t.describe() for t in workloads.generate(workload, 7, LIB)]
    again = [t.describe() for t in workloads.generate(workload, 7, LIB)]
    other = [t.describe() for t in workloads.generate(workload, 8, LIB)]
    assert first == again
    assert first != other
    # the seed draws contents only: the task shapes are the same
    assert [d.split(",")[0] for d in first] == [d.split(",")[0] for d in other]


def test_checker_rejects_a_perturbed_report_value():
    task = _cheapest("info-rate", check="rate-window")
    output = workloads.run_task(LIB, task)
    assert workloads.check_task(task, output) is None
    report = output["reports"][0]
    bad = dataclasses.replace(report, rate=report.rate + 0.2)
    assert workloads.check_task(task, {**output, "reports": [bad]}) is not None


def test_checker_rejects_a_perturbed_codec_output():
    task = _cheapest("codec")
    output = workloads.run_task(LIB, task)
    assert workloads.check_task(task, output) is None
    assert workloads.check_task(task, {**output, "bits_v": output["bits_v"] + 1}) is not None
    # a flipped codeword bit keeps every length check, so only the digest sees it
    flipped = output["code"][:-1] + ("1" if output["code"][-1] == "0" else "0")
    assert workloads.check_task(task, {**output, "code": flipped}) is None
    assert workloads.check_task(task, {**output, "code": flipped},
                                workloads.output_digest(output)) is not None


def test_checker_rejects_a_perturbed_csv_byte():
    task = _cheapest("grid", check="h1")
    output = workloads.run_task(LIB, task)
    digest = workloads.output_digest(output)
    assert workloads.check_task(task, output, digest) is None
    csv = output["csv"]
    at = csv.index("\n") + 5
    perturbed = csv[:at] + chr(ord(csv[at]) ^ 1) + csv[at + 1:]
    assert workloads.check_task(task, {**output, "csv": perturbed}, digest) is not None


def test_default_seed_digests_cover_every_task():
    table = json.loads(run.DIGESTS.read_text())
    for workload in workloads.WORKLOADS:
        ids = {t.id for t in workloads.generate(workload, run.DEFAULT_SEED, LIB)}
        assert set(table[workload]) == ids


def test_self_time_of_nested_spans():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),  # child holding a grandchild
        (2, 2.0, 3.0, 1, 0),
        (1, 5.0, 6.0, 0, 0),
        (3, 7.0, 9.0, 0, 0),  # two overlapping children of one parent
        (3, 8.0, 9.5, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 1 - 2.5, 2, 1, 1, 2, 1.5])
    table = tracing.layer_table(["task", "a", "b", "c"], spans)
    assert table["a"] == {"calls": 2, "self_s": pytest.approx(3.0), "total_s": pytest.approx(4.0)}


def _bindings():
    tracer = tracing.Tracer(LIB)
    return [(holder, name, original)
            for _, owner, attribute, _ in tracing.targets(LIB)
            for holder, name, original in tracer._bindings(owner, attribute)]


def test_traced_run_restores_every_patched_function():
    before = _bindings()
    assert len(before) > len(tracing.targets(LIB))  # module re-exports are patched too
    tasks = [_cheapest("info-rate", check="rate-window"), _cheapest("codec"),
             _cheapest("grid", kind="local-info")]
    tracer = tracing.Tracer(LIB)
    with tracer.patched():
        assert all(getattr(h, n) is not o for h, n, o in before)
        result = run.run_pass(LIB, tasks, None, tracer)
    assert not result.failures
    assert all(getattr(holder, name) is original for holder, name, original in before)
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"task", "cli.run_config", "coding.encode", "entropy.local_info"} <= names
    assert tracer.counts["coding.bits_len.symbols"] > 0


def test_tail_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 301)]
    assert run.tail(latencies) == (95, 285.0)
    assert run.tail(latencies[:150]) == (90, 135.0)


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [x * 0.8 for x in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, "lower", 0.1) == "improved"
    assert compare.verdict(faster, base, [(b, a) for a, b in pairs], "lower", 0.1) == "worse"
    same = [x * 1.01 for x in base]
    assert compare.verdict(base, same, list(zip(base, same)), "lower", 0.1) == "within bound"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
    assert compare.verdict(base, noisy, list(zip(base, noisy)), "lower", 0.1) == "unresolved"
    assert compare.verdict([3, 3], [3, 3], [(3, 3), (3, 3)], "lower", None, "count") == "unchanged"


def test_every_per_layer_metric_is_measured():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tasks = []
    for workload in workloads.WORKLOADS:
        firsts = {}
        for task in workloads.generate(workload, 3, LIB):
            firsts.setdefault((task.check, task.inputs.get("system")), task)
        tasks.extend(firsts.values())
    tracer = tracing.Tracer(LIB)
    with tracer.patched():
        result = run.run_pass(LIB, tasks, None, tracer)
    assert not result.failures
    values = run.layer_metrics([tracing.layer_table(tracer.names, tracer.spans)],
                               {**tracer.counts, **result.findings}, [0.0])
    # branch wins and the criterion-7 count appear only when they occur
    optional = {"coding.branch.lz78", "coding.branch.lz77", "coding.c7_excess_over_48"}
    missing = {m["name"] for m in spec["per_layer"]} - set(values) - optional
    assert not missing
