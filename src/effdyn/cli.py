"""Experiment driver.

Commands:
    effdyn run <config.cfg>             run one declarative experiment
    effdyn compare <report.csv> <oracle.json> <tol>
    effdyn list-systems
    effdyn list-estimators

Configs are ini-style key = value sections naming a system, a measure, a
partition, an estimator and its grids.  A run writes <output>.csv (frozen
schema: method,system,param,n,value,diag) and <output>.json with run
metadata (config hash, seed, generator).  Identical configs produce
byte-identical CSVs: a run reads its config and nothing else, no shell
variable included.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import random
import sys as _sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import stats as stt
from effdyn import symbolic as sb
from effdyn.reporting import CSV_COLUMNS, EntropyReport, reports_to_json, rows_to_csv

F = Fraction


class ConfigError(ValueError):
    def __init__(self, section: str, option: str, message: str):
        super().__init__(f"[{section}] {option}: {message}")
        self.section = section
        self.option = option


SYSTEMS = {
    "doubling": "angle doubling on [0,1) with Lebesgue",
    "tent": "tent map on [0,1] with Lebesgue",
    "rotation": "circle rotation; angle = p/q or sqrt2-1",
    "shift": "full shift on k symbols with uniform Bernoulli",
    "markov-shift": "shift with a Markov measure (rows = ...)",
}

ESTIMATORS = {
    "block-entropy": "exact Shannon block entropies and conditional rate",
    "symbol-rate": "compressed bits per step of the coded orbit",
    "orbit-rate": "grid pseudo-orbit information rate per scale",
    "h1": "capacity slope from spanning/separated counts",
    "birkhoff": "certified visit frequency of an interval",
    "typicality": "max residual against dyadic balls",
    "recurrence": "min certified upper bound on d(x, T^n x)",
}

# The options each section may hold; run_config rejects any other.
OPTIONS = {
    "system": ("kind", "angle", "alphabet", "rows"),
    "measure": ("kind", "base_weight", "atoms", "probs", "rows"),
    "partition": ("kind", "level", "length"),
    "estimator": ("kind",),
    "run": ("output",),
}

# The [grids] options each estimator reads; run_config rejects any other.
_POINT_GRIDS = ("n_grid", "seeds", "point")
GRIDS = {
    "block-entropy": ("n_max",),
    "h1": ("p_grid", "n_grid"),
    "symbol-rate": _POINT_GRIDS,
    "orbit-rate": _POINT_GRIDS + ("scales",),
    "birkhoff": _POINT_GRIDS + ("target",),
    "typicality": _POINT_GRIDS + ("level", "tol"),
    "recurrence": _POINT_GRIDS,
}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@contextmanager
def _bad_value(section: str, option: str):
    """Report a value that does not parse, or that the object built from
    it rejects, as a ConfigError naming its option."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(section, option, f"invalid value ({exc})") from exc


def _fraction(text: str) -> F:
    return F(text.strip())


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # nan fails both comparisons
        raise ValueError(f"{value} is not a finite positive number")
    return value


def _grid(cfg, option: str, least: int) -> List[int]:
    """The required [grids] list `option`: nonempty, every entry >= least,
    no entry twice."""
    grid = _int_list(_get(cfg, "grids", option, required=True), option)
    if not grid:
        raise ConfigError("grids", option, "empty grid")
    if min(grid) < least:
        raise ConfigError("grids", option, f"entries must be at least {least}")
    _refuse_repeats(option, grid)
    return grid


def _refuse_repeats(option: str, entries: Sequence[int]) -> None:
    """A [grids] entry given twice would only write its rows twice."""
    repeated = sorted(e for e, count in Counter(entries).items() if count > 1)
    if repeated:
        raise ConfigError("grids", option, f"repeated entries {', '.join(map(str, repeated))}")


def _int_list(text: str, option: str) -> List[int]:
    """Comma list with 2^k entries allowed: "64,128", "2..7" or "2^6..2^12".

    A range takes both ends in one form; "1..2^3" is a config error.
    """
    text = text.strip()
    with _bad_value("grids", option):
        if ".." in text:
            lo, hi = text.split("..")
            if ("^" in lo) != ("^" in hi):
                raise ConfigError("grids", option, f"range {text!r} mixes k and 2^k ends")
            if "^" in lo:
                return [1 << e for e in range(int(lo.split("^")[1]), int(hi.split("^")[1]) + 1)]
            return list(range(int(lo), int(hi) + 1))
        out = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            out.append(1 << int(item.split("^")[1]) if "^" in item else int(item))
        return out


def _get(cfg, section: str, option: str, default=None, required=False) -> str:
    if cfg.has_option(section, option):
        return cfg.get(section, option)
    if required:
        raise ConfigError(section, option, "missing required field")
    return default


def _value(cfg, section: str, option: str, convert, default=None, required=False):
    """The option's text through `convert`; a text it rejects is a ConfigError."""
    text = _get(cfg, section, option, default, required)
    with _bad_value(section, option):
        return convert(text)


def build_system(cfg) -> dy.System:
    kind = _get(cfg, "system", "kind", required=True).strip()
    if kind == "doubling":
        return dy.doubling()
    if kind == "tent":
        return dy.tent()
    if kind == "rotation":
        angle = _get(cfg, "system", "angle", required=True).strip()
        if angle == "sqrt2-1":
            return dy.rotation(sp.sqrt2_minus_1(sp.circle()))
        with _bad_value("system", "angle"):
            return dy.rotation(_fraction(angle))
    if kind in ("shift", "markov-shift"):
        return _value(cfg, "system", "alphabet", lambda t: dy.shift(int(t)), "2")
    raise ConfigError("system", "kind", f"unknown system {kind!r}")


def build_measure(cfg, system: dy.System) -> ms.ComputableMeasure:
    kind = _get(cfg, "measure", "kind", "").strip()
    if not kind:
        # natural invariant measure of the named system
        if system.map_kind is not dy.MapKind.SHIFT:
            return ms.ComputableMeasure.lebesgue(system.space)
        if _get(cfg, "system", "kind", "").strip() == "markov-shift":
            return _value(cfg, "system", "rows", lambda t: _markov(system, t), required=True)
        k = system.space.alphabet
        return ms.ComputableMeasure.bernoulli(system.space, [F(1, k)] * k)
    if kind == "lebesgue":
        with _bad_value("measure", "kind"):
            return ms.ComputableMeasure.lebesgue(system.space)
    if kind == "lebesgue-atoms":
        base = _value(cfg, "measure", "base_weight", _fraction, required=True)
        text = _get(cfg, "measure", "atoms", required=True)
        with _bad_value("measure", "atoms"):
            atoms = [(F(pos), F(weight)) for pos, weight in (t.split(":") for t in text.split(","))]
            return ms.ComputableMeasure.lebesgue_with_atoms(system.space, base, atoms)
    if kind == "bernoulli":
        text = _get(cfg, "measure", "probs", required=True)
        with _bad_value("measure", "probs"):
            probs = [_fraction(p) for p in text.split(",")]
            return ms.ComputableMeasure.bernoulli(system.space, probs)
    if kind == "markov":
        return _value(cfg, "measure", "rows", lambda t: _markov(system, t), required=True)
    raise ConfigError("measure", "kind", f"unknown measure {kind!r}")


def _markov(system: dy.System, text: str) -> ms.ComputableMeasure:
    rows = [[_fraction(p) for p in row.split(",")] for row in text.split(";")]
    return ms.ComputableMeasure.markov(system.space, rows)


def build_partition(cfg, system: dy.System) -> sb.ComputablePartition:
    kind = _get(cfg, "partition", "kind", "halves").strip()
    if kind == "halves":
        with _bad_value("partition", "kind"):
            return sb.halves(system.space)
    if kind == "dyadic":
        level = _value(cfg, "partition", "level", int, "1")
        with _bad_value("partition", "level"):
            return sb.dyadic_intervals(system.space, level)
    if kind == "cylinders":
        length = _value(cfg, "partition", "length", int, "1")
        if length < 0:
            raise ConfigError("partition", "length", f"invalid value ({length} is below 0)")
        with _bad_value("partition", "length" if system.space.kind is sp.Kind.CANTOR else "kind"):
            return sb.cylinders(system.space, length)
    raise ConfigError("partition", "kind", f"unknown partition {kind!r}")


def _seeded_symbols(rng: random.Random, k: int, count: int) -> bytes:
    """`count` draws of rng.randrange(k), 0 < k < 256, drawn in bulk.

    randrange(k) takes the top k.bit_length() bits of one 32-bit
    Mersenne Twister output and draws again while they are >= k; the
    top byte of each output of one getrandbits(32 * m) call, low word
    first, carries those bits, so one translate keeps the accepted draws.
    Each round draws one output per symbol still missing, so it never
    reads past the last symbol's output.
    """
    shift = 8 - k.bit_length()
    top_bits = bytes(v >> shift for v in range(256))
    rejected = bytes(v for v in range(256) if v >> shift >= k)
    out = b""
    while len(out) < count:
        m = count - len(out)
        out += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(top_bits, rejected)
    return out


def build_points(cfg, system: dy.System, bits: int) -> List[Tuple[str, sp.Point]]:
    """Seeded pseudo-random points and/or explicit rational points.

    A seed's shift point is `bits` symbols of rng.randrange(k), held as
    bytes (drawn in bulk by `_seeded_symbols`) on alphabets below 256, as
    a tuple above, then zeros; an interval or circle point is the odd
    dyadic rng.getrandbits(bits) | 1 over 2**bits.
    """
    out = []
    with _bad_value("grids", "seeds"):
        seeds = [int(s) for s in _get(cfg, "grids", "seeds", "").split(",") if s.strip()]
    _refuse_repeats("seeds", seeds)
    for seed in seeds:
        rng = random.Random(seed)  # Mersenne Twister; seed recorded in meta
        if system.space.kind is sp.Kind.CANTOR:
            k = system.space.alphabet
            if k < 256:
                symbols = _seeded_symbols(rng, k, bits)
            else:
                symbols = tuple(rng.randrange(k) for _ in range(bits))
            point = sp.sequence_point(
                system.space, lambda j, s=symbols: s[j] if j < len(s) else 0
            )
        else:
            point = sp.rational_point(system.space, F(rng.getrandbits(bits) | 1, 1 << bits))
        out.append((f"seed={seed}", point))
    explicit = _get(cfg, "grids", "point", "")
    if explicit:
        value = explicit.strip()
        with _bad_value("grids", "point"):
            point = sp.rational_point(system.space, _fraction(value))
        out.append((f"point={value}", point))
    return out


# ---------------------------------------------------------------------------
# Estimator dispatch
# ---------------------------------------------------------------------------


def run_config(cfg) -> List[EntropyReport]:
    for section, known in OPTIONS.items():
        for option in cfg.options(section) if cfg.has_section(section) else ():
            if option not in known:
                raise ConfigError(section, option, "unknown option")
    estimator = _get(cfg, "estimator", "kind", required=True).strip()
    if estimator not in ESTIMATORS:
        raise ConfigError("estimator", "kind", f"unknown estimator {estimator!r}")
    for option in cfg.options("grids") if cfg.has_section("grids") else ():
        if option not in GRIDS[estimator]:
            raise ConfigError("grids", option, "unknown option")
    on_sequences = _get(cfg, "system", "kind", "").strip() in ("shift", "markov-shift")
    if on_sequences and estimator in ("birkhoff", "typicality"):
        raise ConfigError("system", "kind", f"{estimator} needs an interval or circle system")

    # every grid is checked before anything is built
    if estimator == "block-entropy":
        n_max = _value(cfg, "grids", "n_max", _positive, required=True)
        system = build_system(cfg)
        mu = build_measure(cfg, system)
        partition = build_partition(cfg, system)
        return [en.block_entropy(system, mu, partition, n_max)]

    if estimator == "h1":
        p_grid = _grid(cfg, "p_grid", 0)
        n_grid = _grid(cfg, "n_grid", 1)
        return [en.h1_estimate(build_system(cfg), p_grid, n_grid)]

    n_grid = _grid(cfg, "n_grid", 1)
    if estimator == "orbit-rate":
        scales = _grid(cfg, "scales", 0)
    elif estimator == "typicality":
        level = _value(cfg, "grids", "level", _positive, "4")
        tol = _value(cfg, "grids", "tol", _tolerance, "0.02")
    system = build_system(cfg)
    bits = max(n_grid) + 64
    points = build_points(cfg, system, bits)
    if not points:
        raise ConfigError("grids", "seeds", "no seeds or points given")

    # none of these depends on the point: each is built once, for all points
    if estimator == "symbol-rate":
        partition = build_partition(cfg, system)
    elif estimator == "birkhoff":
        text = _get(cfg, "grids", "target", "0,1/2")
        with _bad_value("grids", "target"):
            a, b = (_fraction(t) for t in text.split(","))
            target = ms.AlmostDecidableSet.from_interval(system.space, a, b)
    elif estimator == "typicality":
        mu = build_measure(cfg, system)
        with _bad_value("grids", "level"):
            family = stt.dyadic_ball_family(system.space, level)

    reports: List[EntropyReport] = []
    for label, point in points:
        if estimator == "symbol-rate":
            report = en.symbol_rate(system, point, partition, n_grid)
        elif estimator == "orbit-rate":
            report = en.orbit_rate(system, point, scales, n_grid)
        elif estimator == "birkhoff":
            rows = []
            for n in n_grid:
                result = stt.birkhoff_average(system, point, target, n)
                rows.append(("average", n, float(result.average)))
                rows.append(("undecided", n, float(result.undecided)))
            report = EntropyReport("birkhoff", system.name, tuple(rows), rows[-2][2], {})
        elif estimator == "typicality":
            result = stt.typicality_test(system, mu, point, family, max(n_grid), tol)
            rows = tuple(
                ("residual:" + label_set, max(n_grid), value)
                for label_set, value in result.residuals
            )
            report = EntropyReport(
                "typicality",
                system.name,
                rows,
                result.max_residual,
                {
                    "verdict": result.verdict,
                    "undecided_fraction": result.undecided_fraction,
                },
            )
        elif estimator == "recurrence":
            rows = []
            for n in n_grid:
                rows.append(("min_upper", n, float(stt.recurrence_stat(system, point, n))))
            report = EntropyReport("recurrence", system.name, tuple(rows), rows[-1][2], {})
        else:
            raise ConfigError("estimator", "kind", f"unhandled estimator {estimator!r}")
        reports.append(
            EntropyReport(
                report.method,
                report.system,
                tuple((f"{label};{param}" if param else label, n, v) for param, n, v in report.rows),
                report.rate,
                report.diagnostics,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists():
        print(f"config not found: {path}", file=_sys.stderr)
        return 2
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except configparser.Error as exc:
        print(f"config parse error: {exc}", file=_sys.stderr)
        return 2
    try:
        reports = run_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except (
        dy.PrecisionBlowup,
        ms.InvalidWitness,
        sb.UnsupportedCylinder,
        en.OracleUnavailable,
    ) as exc:
        print(f"estimator error: {exc}", file=_sys.stderr)
        return 1
    output = _get(cfg, "run", "output", "report")
    out_base = path.parent / output if not Path(output).is_absolute() else Path(output)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    rows = [row for report in reports for row in report.to_rows()]
    csv_text = rows_to_csv(rows)
    Path(f"{out_base}.csv").write_text(csv_text)
    meta = {
        "config_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "seeds": _get(cfg, "grids", "seeds", ""),
        "generator": "random.Random (Mersenne Twister)",
        "tool": "effdyn 0.1.0",
    }
    Path(f"{out_base}.json").write_text(reports_to_json(reports, meta))
    print(f"wrote {out_base}.csv and {out_base}.json ({len(rows)} rows)")
    return 0


def cmd_compare(args) -> int:
    report_path = Path(args.report)
    oracle_path = Path(args.oracle)
    try:  # refused input exits 2 with one line; JSONDecodeError is a ValueError
        try:
            tol = float(args.tol)
        except ValueError:
            tol = math.nan
        if not math.isfinite(tol) or tol < 0:
            raise ValueError(f"tolerance {args.tol} is not a finite number >= 0")
        with open(report_path) as handle:
            reader = csv.DictReader(handle)
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise ValueError(f"{report_path} lacks the CSV columns {','.join(CSV_COLUMNS)}")
            rows = []
            for row in reader:  # a short row fills None, a long one keys its extras by None
                where = f"{report_path} line {reader.line_num}"
                if None in row or None in row.values():
                    raise ValueError(f"{where} does not have the {len(CSV_COLUMNS)} CSV fields")
                try:
                    float(row["value"])
                except ValueError:
                    raise ValueError(f"{where} has the value {row['value']!r}, not a number") from None
                rows.append(row)
        oracle = json.loads(oracle_path.read_text())
        if not isinstance(oracle, dict) or not all(
            type(v) is int or type(v) is float and math.isfinite(v) for v in oracle.values()
        ):
            raise ValueError(f"{oracle_path} is not a JSON object of finite numbers")
    except (OSError, ValueError) as exc:
        print(f"compare error: {exc}", file=_sys.stderr)
        return 2
    failures = []
    lines = []
    for key, expected in sorted(oracle.items()):
        matched = [
            row
            for row in rows
            if key
            in (
                row["system"],
                f"{row['method']}:{row['system']}",
                f"{row['method']}:{row['system']}:{row['param']}",
                f"{row['method']}:{row['system']}:{row['param']}:{row['n']}",
            )
        ]
        # one rate row per report, so per seed; otherwise the last matched row
        checked = [r for r in matched if r["param"].endswith("rate")] or matched[-1:]
        if not checked:
            failures.append(key)
            lines.append(f"MISSING  {key}")
            continue
        for i, row in enumerate(checked, 1):
            value = float(row["value"])
            ok = abs(value - float(expected)) <= tol
            if not ok:
                failures.append(key)
            which = f" (row {i} of {len(checked)})" if len(checked) > 1 else ""
            lines.append(
                f"{'ok     ' if ok else 'FAIL   '} {key}{which}: got {value:.6g}, want {expected} +- {tol}"
            )
    print("\n".join(lines))
    return 0 if not failures else 1


def cmd_list_systems(_args) -> int:
    for name, desc in SYSTEMS.items():
        print(f"{name:14s} {desc}")
    return 0


def cmd_list_estimators(_args) -> int:
    for name, desc in ESTIMATORS.items():
        print(f"{name:14s} {desc}")
        print(f"{'':14s} [grids] {', '.join(GRIDS[name])}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="effdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a config")
    run_p.add_argument("config")
    run_p.set_defaults(fn=cmd_run)
    cmp_p = sub.add_parser("compare", help="compare a report against oracle values")
    cmp_p.add_argument("report")
    cmp_p.add_argument("oracle")
    cmp_p.add_argument("tol")
    cmp_p.set_defaults(fn=cmd_compare)
    sub.add_parser("list-systems", help="known systems").set_defaults(fn=cmd_list_systems)
    sub.add_parser("list-estimators", help="known estimators").set_defaults(
        fn=cmd_list_estimators
    )
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
