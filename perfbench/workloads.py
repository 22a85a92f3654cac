"""The three benchmark workloads: seeded task generation, execution and checks.

A workload is a fixed list of task shapes (estimator, system, sizes); the
seed only draws the contents (orbit seeds, rational angles, Markov rows,
words, sample points).  So every seed runs the same amount of work and a
run's figures move with the program, not with the seed.

Each task is one estimator call, made the way a user makes it: a config
through `cli.run_config`, or a direct call for what the CLI does not
expose.  Its output is turned into CSV bytes with `reporting.rows_to_csv`,
and the check compares the values with the tolerance of the matching
criterion in tests/test_acceptance.py.  Checks only read the outputs; they
call nothing in effdyn, so a traced run records no spans for them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

F = Fraction

WORKLOADS = ("info-rate", "codec", "grid")

# tests/test_acceptance.py: criterion 7's audited constant (see `audit`)
LZ_DIFF_AUDIT_CONSTANT = 48


@dataclass
class Task:
    id: str
    kind: str  # selects the runner
    check: str  # selects the checker
    inputs: Dict[str, object]  # data the program receives
    spec: Dict[str, object] = field(default_factory=dict)  # what the checker needs

    def describe(self) -> str:
        """Canonical text of everything generated for this task."""
        shown = {k: v for k, v in self.inputs.items() if k not in ("cfg", "points", "samples")}
        return repr((self.id, self.kind, self.check, sorted(shown.items()), sorted(self.spec.items())))


def _config_task(task_id: str, check: str, sections, **spec) -> Task:
    cfg = configparser.ConfigParser()
    cfg.read_dict(sections)
    return Task(task_id, "config", check, {"sections": sections, "cfg": cfg}, spec)


# ---------------------------------------------------------------------------
# info-rate: orbit information rates through cli.run_config
# ---------------------------------------------------------------------------

_RATE_SYSTEMS = {
    "doubling": ({"kind": "doubling"}, {"kind": "halves"}, 1.0),
    "tent": ({"kind": "tent"}, {"kind": "halves"}, 1.0),
    "shift2": ({"kind": "shift", "alphabet": "2"}, {"kind": "cylinders", "length": "1"}, 1.0),
    "rotation": ({"kind": "rotation", "angle": "sqrt2-1"}, {"kind": "halves"}, 0.0),
}

# (estimator, system, top exponent of n_grid = 2^6..2^top, scales, copies)
_INFO_RATE_SHAPES = (
    ("symbol-rate", "doubling", 8, None, 8),
    ("symbol-rate", "doubling", 9, None, 6),
    ("symbol-rate", "doubling", 10, None, 3),
    ("symbol-rate", "doubling", 12, None, 2),
    ("symbol-rate", "tent", 8, None, 8),
    ("symbol-rate", "tent", 9, None, 4),
    ("symbol-rate", "tent", 10, None, 2),
    ("symbol-rate", "shift2", 8, None, 8),
    ("symbol-rate", "shift2", 9, None, 6),
    ("symbol-rate", "shift2", 10, None, 4),
    ("symbol-rate", "shift2", 12, None, 1),
    ("symbol-rate", "rotation", 12, None, 2),
    ("orbit-rate", "doubling", 8, "4,6,8", 4),
    ("orbit-rate", "doubling", 9, "4,6,8", 2),
    ("orbit-rate", "doubling", 10, "4,6,8", 1),
    ("orbit-rate", "doubling", 12, "4", 1),
    ("orbit-rate", "shift2", 9, "4,6", 1),
    ("orbit-rate", "tent", 9, "6", 1),
    ("orbit-rate", "rotation", 11, "4", 1),
)


def _info_rate(rng: random.Random, lib) -> List[Task]:
    tasks = []
    for estimator, system, top, scales, copies in _INFO_RATE_SHAPES:
        sys_sec, part_sec, h_top = _RATE_SYSTEMS[system]
        for copy in range(copies):
            grids = {"n_grid": f"2^6..2^{top}", "seeds": str(rng.randrange(1, 1 << 31))}
            sections = {"system": dict(sys_sec), "estimator": {"kind": estimator}, "grids": grids}
            task_id = f"{estimator}-{system}-e{top}-{copy}"
            if estimator == "symbol-rate":
                sections["partition"] = dict(part_sec)
                if system == "rotation":
                    # criterion 2's rotation cap
                    tasks.append(_config_task(task_id, "rate-cap", sections, cap=0.12))
                else:
                    # criterion 2's doubling window; tent and shift(2) also have entropy 1
                    tasks.append(_config_task(task_id, "rate-window", sections, lo=0.85, hi=1.1))
            else:
                grids["scales"] = scales
                tasks.append(
                    _config_task(task_id, "orbit-rate", sections, h_top=h_top, system=system, top=top)
                )
    # negative controls: the periodic point 1/3 of doubling (criterion 2)
    periodic = {"system": {"kind": "doubling"}, "partition": {"kind": "halves"},
                "estimator": {"kind": "symbol-rate"}, "grids": {"n_grid": "2^6..2^12", "point": "1/3"}}
    tasks.append(_config_task("symbol-rate-periodic-e12", "rate-cap", periodic, cap=0.05))
    # a small share of statistics configs (criterion 9)
    rotation = {"kind": "rotation", "angle": "sqrt2-1"}
    seed = str(rng.randrange(1, 1 << 31))
    tasks.append(_config_task("birkhoff-rotation", "birkhoff", {
        "system": dict(rotation), "estimator": {"kind": "birkhoff"},
        "grids": {"n_grid": "2000", "seeds": seed, "target": "0,1/2"}}))
    seed = str(rng.randrange(1, 1 << 31))
    tasks.append(_config_task("typicality-doubling", "typical", {
        "system": {"kind": "doubling"}, "measure": {"kind": "lebesgue"},
        "estimator": {"kind": "typicality"},
        "grids": {"n_grid": "30000", "seeds": seed, "level": "4", "tol": "0.02"}}))
    tasks.append(_config_task("typicality-periodic", "atypical", {
        "system": {"kind": "doubling"}, "measure": {"kind": "lebesgue"},
        "estimator": {"kind": "typicality"},
        "grids": {"n_grid": "2000", "point": "1/3", "level": "4", "tol": "0.02"}}))
    seed = str(rng.randrange(1, 1 << 31))
    tasks.append(_config_task("recurrence-rotation", "recurrence", {
        "system": dict(rotation), "estimator": {"kind": "recurrence"},
        "grids": {"n_grid": "2,5,12,29,70", "seeds": seed}}))
    return tasks


# ---------------------------------------------------------------------------
# codec: compressor round trips on seeded words
# ---------------------------------------------------------------------------

_STYLES = ("random", "zeros", "periodic", "biased")
_CODEC_EXPONENTS = (8, 8, 9, 9, 10, 11, 12, 13)
# zero words of length 2^14 add little work beyond 2^13
_CODEC_LONG = {(2, "random"), (2, "periodic"), (2, "biased"),
               (3, "random"), (3, "periodic"), (3, "biased")}
# Criterion 7 draws the share alpha and the period at random; here they are
# fixed per task shape, so that seeds change contents but not the work.
_ALPHAS = (0.002, 0.01, 0.03, 0.1, 0.2, 0.35, 0.49)


def _primitive_base(rng: random.Random, k: int, length: int) -> Tuple[int, ...]:
    """A seeded word of exactly this minimal period."""
    while True:
        base = tuple(rng.randrange(k) for _ in range(length))
        if all(base != base[d:] + base[:d] for d in range(1, length)):
            return base


def _word(rng: random.Random, k: int, n: int, style: str, period: int) -> Tuple[int, ...]:
    """Criterion 7's word styles, generalised to alphabet k."""
    if style == "random":
        return tuple(rng.randrange(k) for _ in range(n))
    if style == "zeros":
        return (0,) * n
    if style == "periodic":
        return (_primitive_base(rng, k, period) * n)[:n]
    return tuple(rng.randrange(1, k) if rng.random() < 0.15 else 0 for _ in range(n))


def _codec(rng: random.Random, lib) -> List[Task]:
    tasks = []
    for k in (2, 3):
        for style in _STYLES:
            exponents = _CODEC_EXPONENTS + ((14,) if (k, style) in _CODEC_LONG else ())
            for copy, e in enumerate(exponents):
                n = 1 << e
                v = _word(rng, k, n, style, period=1 + copy % 4)
                # criterion 7's perturbation: fewer than alpha * n differences
                alpha = _ALPHAS[copy % len(_ALPHAS)]
                positions = sorted(rng.sample(range(n), int(alpha * n) // 2))
                u = list(v)
                diffs = []
                for i in positions:
                    u[i] = (v[i] + rng.randrange(1, k)) % k
                    diffs.append(i if k == 2 else (i, u[i]))
                inputs = {"alphabet": k, "v": v, "u": tuple(u), "diffs": tuple(diffs),
                          "alpha": F(alpha).limit_denominator(10**6)}
                tasks.append(Task(f"codec-k{k}-{style}-e{e}-{copy}", "codec", "codec", inputs))
    return tasks


# ---------------------------------------------------------------------------
# grid: exact counting on the ideal-point grid
# ---------------------------------------------------------------------------


def _rational_angle(rng: random.Random) -> str:
    q = rng.randrange(3, 17)
    while True:
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def _markov_rows(rng: random.Random) -> Tuple[F, F]:
    """Off-diagonal transition probabilities of a two-state chain."""
    return tuple(F(rng.randrange(1, 10), 10) for _ in range(2))


def _grid(rng: random.Random, lib) -> List[Task]:
    tasks = []
    shift2 = {"kind": "shift", "alphabet": "2"}
    shift3 = {"kind": "shift", "alphabet": "3"}
    for i in range(5):
        tasks.append(_config_task(f"h1-shift2-{i}", "h1", {
            "system": dict(shift2), "estimator": {"kind": "h1"},
            "grids": {"p_grid": "1,2", "n_grid": "2..7"}}, target=1.0, tol=0.05))
    tasks.append(_config_task("h1-shift3", "h1", {
        "system": dict(shift3), "estimator": {"kind": "h1"},
        "grids": {"p_grid": "1,2", "n_grid": "2..7"}}, target=math.log2(3), tol=0.05))
    for top in (9, 10, 11):
        tasks.append(_config_task(f"h1-doubling-n{top}", "h1", {
            "system": {"kind": "doubling"}, "estimator": {"kind": "h1"},
            "grids": {"p_grid": "2,3", "n_grid": f"4..{top}"}}, target=1.0, tol=0.1))
    for i in range(7):
        tasks.append(_config_task(f"h1-rotation-{i}", "rate-cap", {
            "system": {"kind": "rotation", "angle": _rational_angle(rng)},
            "estimator": {"kind": "h1"}, "grids": {"p_grid": "2,3,4", "n_grid": "2..12"}}, cap=0.05))
    tasks.append(_config_task("h1-rotation-sqrt2", "rate-cap", {
        "system": {"kind": "rotation", "angle": "sqrt2-1"}, "estimator": {"kind": "h1"},
        "grids": {"p_grid": "2,3,4", "n_grid": "2..12"}}, cap=0.05))

    for system in ("doubling", "tent"):
        for i, n_max in enumerate((6, 8, 8, 10, 12)):
            tasks.append(_config_task(f"block-{system}-n{n_max}-{i}", "block-exact", {
                "system": {"kind": system}, "measure": {"kind": "lebesgue"},
                "partition": {"kind": "halves"}, "estimator": {"kind": "block-entropy"},
                "grids": {"n_max": str(n_max)}}))
    tasks.append(_config_task("block-doubling-n14", "block-exact", {
        "system": {"kind": "doubling"}, "measure": {"kind": "lebesgue"},
        "partition": {"kind": "halves"}, "estimator": {"kind": "block-entropy"},
        "grids": {"n_max": "14"}}))
    for i, n_max in enumerate((6, 6, 6, 8, 8, 10)):
        a, b = _markov_rows(rng)
        rows = f"{1 - a},{a};{b},{1 - b}"
        tasks.append(_config_task(f"block-markov-n{n_max}-{i}", "block-markov", {
            "system": {"kind": "markov-shift", "alphabet": "2", "rows": rows},
            "partition": {"kind": "cylinders", "length": "1"},
            "estimator": {"kind": "block-entropy"}, "grids": {"n_max": str(n_max)}},
            a=a, b=b))
    for i, n_max in enumerate((64, 64, 64, 128, 128, 256)):
        tasks.append(_config_task(f"block-rotation-{i}", "rate-cap", {
            "system": {"kind": "rotation", "angle": _rational_angle(rng)},
            "partition": {"kind": "halves"}, "estimator": {"kind": "block-entropy"},
            "grids": {"n_max": str(n_max)}}, cap=0.05))
    for n_max in (256, 1024):
        tasks.append(_config_task(f"block-rotation-sqrt2-n{n_max}", "rate-cap", {
            "system": {"kind": "rotation", "angle": "sqrt2-1"},
            "partition": {"kind": "halves"}, "estimator": {"kind": "block-entropy"},
            "grids": {"n_max": str(n_max)}}, cap=0.05))

    for n, p in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)):
        tasks.append(Task(f"spanning-tent-n{n}-p{p}", "spanning", "separated", {"n": n, "p": p}))
    line = lib.space.unit_interval()
    for i, top in enumerate((8, 8, 9, 10)):
        values = tuple(F(rng.getrandbits(48), 1 << 48) for _ in range(16))
        inputs = {"depths": (4, top), "values": values,
                  "samples": [lib.space.rational_point(line, q) for q in values]}
        tasks.append(Task(f"cover-doubling-d{top}-{i}", "cover", "cover", inputs))
    circle = lib.space.circle()
    for i in range(18):
        system = ("doubling", "tent", "rotation")[i % 3]
        values = tuple(F(rng.getrandbits(64) | 1, 1 << 64) for _ in range(8))
        angle = F(_rational_angle(rng)) if system == "rotation" else None
        space = circle if angle is not None else line
        inputs = {"system": system, "angle": angle, "values": values, "ns": tuple(range(8, 16)),
                  "points": [lib.space.rational_point(space, q) for q in values]}
        tasks.append(Task(f"local-info-{system}-{i}", "local-info", "local-info", inputs))
    return tasks


# Each workload has 70 tasks.  The tail is the 95th percentile over whole
# passes, so 0.05 * 70 = 3.5 puts it in the middle of the copies of one
# task shape rather than at the edge between two shapes, where it would
# jump with noise.
_GENERATORS = {"info-rate": _info_rate, "codec": _codec, "grid": _grid}


def generate(workload: str, seed: int, lib) -> List[Task]:
    """The workload's tasks for this seed; the same seed gives the same tasks."""
    rng = random.Random(f"effdyn-bench:{workload}:{seed}")
    return _GENERATORS[workload](rng, lib)


# ---------------------------------------------------------------------------
# Runners: the timed part of a task
# ---------------------------------------------------------------------------


def _run_config(lib, task: Task) -> dict:
    reports = lib.cli.run_config(task.inputs["cfg"])
    rows = [row for report in reports for row in report.to_rows()]
    return {"reports": reports, "csv": lib.reporting.rows_to_csv(rows)}


def _run_codec(lib, task: Task) -> dict:
    k = task.inputs["alphabet"]
    v, u = task.inputs["v"], task.inputs["u"]
    alpha = task.inputs["alpha"]
    coding = lib.coding
    compressor = coding.PrefixFreeCompressor(k)
    code = compressor.encode(v)
    decoded = compressor.decode(code)
    bits_v = compressor.bits_len(v)
    patch = coding.gap_encode(v, task.inputs["diffs"], k)
    patched = coding.gap_apply(v, patch, k)
    bits_u = compressor.bits_len(u)
    # n * a * f(1/a) with f's certified upper end, exact
    bound = len(v) * alpha * lib.numerics.eval_f(1 / alpha).hi
    rows = [("codec", f"alphabet={k}", task.id, len(v), float(bits_v),
             f"bits_u={bits_u};patch_bits={len(patch)}")]
    return {"code": code, "decoded": decoded, "bits_v": bits_v, "patch": patch,
            "patched": patched, "bits_u": bits_u, "bound": bound,
            "csv": lib.reporting.rows_to_csv(rows)}


def _run_spanning(lib, task: Task) -> dict:
    n, p = task.inputs["n"], task.inputs["p"]
    span = lib.entropy.spanning_separated(lib.dynamics.tent(), n, p)
    verified = lib.entropy.verify_separated(span)
    rows = [("spanning", "tent", f"eps=2^-{p}", n, float(span.count), f"verified={verified}")]
    return {"count": span.count, "verified": verified, "csv": lib.reporting.rows_to_csv(rows)}


def _run_cover(lib, task: Task) -> dict:
    lo, hi = task.inputs["depths"]
    # criterion 6: the light (s = 1.2) cover at scale 2^-2, weight cap 12, k <= 6
    cover = lib.entropy.cover_from_spanning(lib.dynamics.doubling(), range(lo, hi + 1), 2, 1.2)
    report = lib.entropy.verify_null_s_cover(cover, task.inputs["samples"], 6, weight_cap=12.0)
    rows = [("cover", "doubling", f"k={k}", hi, float(c), "") for k, c in sorted(report.covered.items())]
    rows.append(("cover", "doubling", "weight", hi, report.weight, f"weight_ok={report.weight_ok}"))
    return {"report": report, "csv": lib.reporting.rows_to_csv(rows)}


def _run_local_info(lib, task: Task) -> dict:
    angle = task.inputs["angle"]
    if angle is None:
        system = getattr(lib.dynamics, task.inputs["system"])()
    else:
        system = lib.dynamics.rotation(angle)
    mu = lib.measure.ComputableMeasure.lebesgue(system.space)
    partition = lib.symbolic.halves(system.space)
    values = [lib.entropy.local_info(system, mu, x, partition, n)
              for x, n in zip(task.inputs["points"], task.inputs["ns"])]
    rows = [("local-info", system.name, f"point={i}", n, value, "")
            for i, (n, value) in enumerate(zip(task.inputs["ns"], values))]
    return {"values": values, "csv": lib.reporting.rows_to_csv(rows)}


RUNNERS: Dict[str, Callable] = {
    "config": _run_config,
    "codec": _run_codec,
    "spanning": _run_spanning,
    "cover": _run_cover,
    "local-info": _run_local_info,
}


def run_task(lib, task: Task) -> dict:
    return RUNNERS[task.kind](lib, task)


# ---------------------------------------------------------------------------
# Checks: None when the output is right, else what is wrong
# ---------------------------------------------------------------------------


def _report(output) -> object:
    reports = output["reports"]
    if len(reports) != 1:
        raise AssertionError(f"expected one report, got {len(reports)}")
    return reports[0]


def _check_rate_window(task, output) -> Optional[str]:
    report = _report(output)
    if "truncated_at" in report.diagnostics:
        return f"orbit coding truncated at {report.diagnostics['truncated_at']}"
    lo, hi = task.spec["lo"], task.spec["hi"]
    if not lo <= report.rate <= hi:
        return f"rate {report.rate} outside [{lo}, {hi}]"
    return None


def _check_rate_cap(task, output) -> Optional[str]:
    report = _report(output)
    if not report.rate <= task.spec["cap"]:
        return f"rate {report.rate} above cap {task.spec['cap']}"
    return None


def _check_orbit_rate(task, output) -> Optional[str]:
    report = _report(output)
    values = [v for _, _, v in report.rows]
    if not values or not all(math.isfinite(v) and v > 0 for v in values):
        return "orbit rates not finite and positive"
    if task.spec["system"] == "tent":
        # no acceptance criterion covers tent pseudo-orbits: the predictor
        # family leaves the fold uncaptured (about p bits per step)
        return None
    # criterion 3: the rate at 2^-6 and n = 2^12 lies in [0.85, 1.15]; it is
    # applied here at the largest n, from 2^9 on
    if task.spec["h_top"] == 1.0 and task.spec["top"] >= 9:
        at6 = [v for param, _, v in report.rows if param.endswith("eps=2^-6")]
        if at6 and not 0.85 <= at6[-1] <= 1.15:
            return f"rate at 2^-6 {at6[-1]} outside [0.85, 1.15]"
    # criterion 5: the upper proxy stays below h1 + 0.15
    upper = max(report.diagnostics["upper_by_scale"].values())
    if not upper <= task.spec["h_top"] + 0.15:
        return f"upper proxy {upper} above {task.spec['h_top']} + 0.15"
    return None


def _check_birkhoff(task, output) -> Optional[str]:
    rows = {param.split(";")[-1]: v for param, _, v in _report(output).rows}
    if rows["undecided"] != 0.0 or abs(rows["average"] - 0.5) > 0.01:
        return f"rotation average {rows} not 0.5 +- 0.01 with nothing undecided"
    return None


def _check_typical(task, output) -> Optional[str]:
    report = _report(output)
    if report.diagnostics["verdict"] is not True:
        return f"seeded point not typical: residual {report.rate}"
    return None


def _check_atypical(task, output) -> Optional[str]:
    report = _report(output)
    if report.diagnostics["verdict"] is not False or report.rate < 0.1:
        return f"periodic control passed typicality: residual {report.rate}"
    return None


def _check_recurrence(task, output) -> Optional[str]:
    report = _report(output)
    if not report.rate <= 51 / 10_000:
        return f"recurrence bound {report.rate} above 0.0051"
    return None


def _check_h1(task, output) -> Optional[str]:
    rate = _report(output).rate
    if abs(rate - task.spec["target"]) > task.spec["tol"]:
        return f"h1 {rate} not within {task.spec['tol']} of {task.spec['target']}"
    return None


def _check_block_exact(task, output) -> Optional[str]:
    table = dict((n, v) for _, n, v in _report(output).rows)
    if table.get(1) != 1.0 or any(table[n] - table[n - 1] != 1.0 for n in sorted(table)[1:]):
        return f"block entropies not exactly one bit per step: {table}"
    return None


def _binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _check_block_markov(task, output) -> Optional[str]:
    a, b = task.spec["a"], task.spec["b"]  # P(0 -> 1), P(1 -> 0)
    pi0 = b / (a + b)
    target = float(pi0) * _binary_entropy(float(a)) + float(1 - pi0) * _binary_entropy(float(b))
    rate = _report(output).rate
    if abs(rate - target) >= 1e-6:
        return f"markov block rate {rate} vs stationary formula {target}"
    return None


def _check_separated(task, output) -> Optional[str]:
    if not output["verified"] or output["count"] < 1:
        return f"witness of {output['count']} points not verified separated"
    return None


def _check_cover(task, output) -> Optional[str]:
    report = output["report"]
    if not (report.weight_ok and report.all_covered):
        return f"cover weight {report.weight} / covered {report.covered} of {report.samples}"
    return None


def _check_local_info(task, output) -> Optional[str]:
    angle = task.inputs["angle"]
    for n, value in zip(task.inputs["ns"], output["values"]):
        if angle is None:
            # Lebesgue cylinders of doubling and tent under halves have mass 2^-n
            if value != float(n):
                return f"local info {value} != {n}"
        elif not 0 <= value <= math.log2(2 * angle.denominator):
            # the cut points of a rotation by p/q lie on the grid 1/(2q), so
            # every nonempty cylinder has mass at least 1/(2q)
            return f"local info {value} outside [0, log2(2q)] for angle {angle}"
    return None


def _delta_len(n: int) -> int:
    """Length of the Elias delta code of n >= 1 (README, code formats)."""
    length = n.bit_length()
    return 2 * length.bit_length() - 1 + length - 1


def _check_codec(task, output) -> Optional[str]:
    v, k = task.inputs["v"], task.inputs["alphabet"]
    if output["decoded"] != v:
        return "decode(encode(w)) != w"
    if len(output["code"]) != output["bits_v"]:
        return f"len(encode(w)) = {len(output['code'])} != bits_len(w) = {output['bits_v']}"
    if output["patched"] != task.inputs["u"]:
        return "gap patch does not round-trip"
    # The gap code's share of criterion 7: each delta(gap) costs at most
    # f(gap), and f's concavity gives sum f(gap) <= n*a*f(1/a) for p <= a*n
    # differences; a replacement symbol adds ceil(log2(k - 1)) bits each.
    p = len(task.inputs["diffs"])
    limit = _delta_len(p + 1) + output["bound"] + p * (k - 2).bit_length()
    if len(output["patch"]) > limit:
        return f"patch of {len(output['patch'])} bits above n*a*f(1/a) bound {float(limit)}"
    return None


def audit(task: Task, output: dict) -> Optional[str]:
    """A known shortfall this output shows, counted but not failed.

    Criterion 7 asserts |bits(u) - bits(v)| - n*a*f(1/a) <= 48 over its
    one seeded batch.  The constant is an audit, not a bound the
    compressor guarantees: the same batch with seeds 2020-2029 exceeds it
    in 8 of 10 seeds (about 1% of words, mostly periodic ones with
    scattered flips).  The benchmark reports how many tasks exceed it.
    """
    if task.kind != "codec":
        return None
    excess = abs(output["bits_u"] - output["bits_v"]) - output["bound"]
    return "coding.c7_excess_over_48" if excess > LZ_DIFF_AUDIT_CONSTANT else None


CHECKS: Dict[str, Callable] = {
    "rate-window": _check_rate_window,
    "rate-cap": _check_rate_cap,
    "orbit-rate": _check_orbit_rate,
    "birkhoff": _check_birkhoff,
    "typical": _check_typical,
    "atypical": _check_atypical,
    "recurrence": _check_recurrence,
    "h1": _check_h1,
    "block-exact": _check_block_exact,
    "block-markov": _check_block_markov,
    "separated": _check_separated,
    "cover": _check_cover,
    "local-info": _check_local_info,
    "codec": _check_codec,
}


def output_digest(output: dict) -> str:
    """sha256 of the task's CSV bytes, plus the codeword and patch for codec."""
    digest = hashlib.sha256(output["csv"].encode())
    for extra in ("code", "patch"):
        if extra in output:
            digest.update(b"\0" + output[extra].encode())
    return digest.hexdigest()


def check_task(task: Task, output: dict, expected_digest: Optional[str] = None) -> Optional[str]:
    problem = CHECKS[task.check](task, output)
    if problem is None and expected_digest is not None and output_digest(output) != expected_digest:
        problem = "output bytes differ from the recorded digest"
    return problem
