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
byte-identical CSVs.  EFFDYN_CACHE_DIR, when set, caches spanning-set
counts between runs; it is the only environment the driver reads.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import random
import sys as _sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from effdyn import dynamics as dy
from effdyn import entropy as en
from effdyn import measure as ms
from effdyn import space as sp
from effdyn import stats as stt
from effdyn import symbolic as sb
from effdyn.reporting import EntropyReport, reports_to_json, rows_to_csv

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


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _fraction(text: str) -> F:
    return F(text.strip())


def _int_list(text: str, option: str) -> List[int]:
    """Comma list with 2^k entries allowed: "64,128", "2..7" or "2^6..2^12".

    A range takes both ends in one form; "1..2^3" is a config error.
    """
    text = text.strip()
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
        return dy.rotation(_fraction(angle))
    if kind == "shift":
        return dy.shift(int(_get(cfg, "system", "alphabet", "2")))
    if kind == "markov-shift":
        return dy.shift(int(_get(cfg, "system", "alphabet", "2")))
    raise ConfigError("system", "kind", f"unknown system {kind!r}")


def build_measure(cfg, system: dy.System) -> ms.ComputableMeasure:
    kind = _get(cfg, "measure", "kind", "").strip()
    if not kind:
        # natural invariant measure of the named system
        if system.map_kind is not dy.MapKind.SHIFT:
            return ms.ComputableMeasure.lebesgue(system.space)
        if _get(cfg, "system", "kind", "").strip() == "markov-shift":
            rows = _parse_rows(_get(cfg, "system", "rows", required=True))
            return ms.ComputableMeasure.markov(system.space, rows)
        k = system.space.alphabet
        return ms.ComputableMeasure.bernoulli(system.space, [F(1, k)] * k)
    if kind == "lebesgue":
        return ms.ComputableMeasure.lebesgue(system.space)
    if kind == "lebesgue-atoms":
        atoms = [
            (F(pos), F(weight))
            for pos, weight in (
                item.split(":") for item in _get(cfg, "measure", "atoms", required=True).split(",")
            )
        ]
        base = _fraction(_get(cfg, "measure", "base_weight", required=True))
        return ms.ComputableMeasure.lebesgue_with_atoms(system.space, base, atoms)
    if kind == "bernoulli":
        probs = [_fraction(p) for p in _get(cfg, "measure", "probs", required=True).split(",")]
        return ms.ComputableMeasure.bernoulli(system.space, probs)
    if kind == "markov":
        rows = _parse_rows(_get(cfg, "measure", "rows", required=True))
        return ms.ComputableMeasure.markov(system.space, rows)
    raise ConfigError("measure", "kind", f"unknown measure {kind!r}")


def _parse_rows(text: str):
    return [[_fraction(p) for p in row.split(",")] for row in text.split(";")]


def build_partition(cfg, system: dy.System) -> sb.ComputablePartition:
    kind = _get(cfg, "partition", "kind", "halves").strip()
    if kind == "halves":
        return sb.halves(system.space)
    if kind == "dyadic":
        return sb.dyadic_intervals(system.space, int(_get(cfg, "partition", "level", "1")))
    if kind == "cylinders":
        return sb.cylinders(system.space, int(_get(cfg, "partition", "length", "1")))
    raise ConfigError("partition", "kind", f"unknown partition {kind!r}")


def build_points(cfg, system: dy.System, bits: int) -> List[Tuple[str, sp.Point]]:
    """Seeded pseudo-random points and/or explicit rational points."""
    out = []
    seeds = _get(cfg, "grids", "seeds", "")
    for seed_text in filter(None, (s.strip() for s in seeds.split(","))):
        seed = int(seed_text)
        rng = random.Random(seed)  # Mersenne Twister; seed recorded in meta
        if system.space.kind is sp.Kind.CANTOR:
            k = system.space.alphabet
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
        point = sp.rational_point(system.space, _fraction(value))
        out.append((f"point={value}", point))
    return out


# ---------------------------------------------------------------------------
# Estimator dispatch
# ---------------------------------------------------------------------------


def _spanning_cache_path() -> Optional[Path]:
    cache_dir = os.environ.get("EFFDYN_CACHE_DIR")
    if not cache_dir:
        return None
    path = Path(cache_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path / "spanning_counts.json"


def _spanning_cache_prefix(system: dy.System) -> Optional[str]:
    """Cache key prefix: spanning algorithm version plus a canonical system
    spec; None for a rotation by an angle given as a point, which has no
    spec and is not cached."""
    kind = system.map_kind
    if kind is dy.MapKind.ROTATION:
        if not isinstance(system.angle, F):
            return None
        spec = f"rotation({system.angle})"
    elif kind is dy.MapKind.SHIFT:
        spec = f"shift({system.space.alphabet})"
    else:
        spec = kind.value
    return f"v{en.SPANNING_VERSION}:{spec}"


def _write_atomically(path: Path, text: str) -> None:
    """Write a temp file next to `path`, then rename it over `path`."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _h1_with_cache(system: dy.System, p_grid, n_grid) -> EntropyReport:
    cache_path = _spanning_cache_path()
    prefix = _spanning_cache_prefix(system)
    if cache_path is None or prefix is None:
        return en.h1_estimate(system, p_grid, n_grid)
    cache: Dict[str, int] = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    fresh = []

    def count(n: int, p: int) -> int:
        key = f"{prefix}:{n}:{p}"
        if key not in cache:
            cache[key] = en.spanning_separated(system, n, p).count
            fresh.append(key)
        return cache[key]

    report = en.h1_estimate(system, p_grid, n_grid, count)
    if fresh:
        _write_atomically(cache_path, json.dumps(cache, sort_keys=True))
    return report


def run_config(cfg) -> List[EntropyReport]:
    system = build_system(cfg)
    estimator = _get(cfg, "estimator", "kind", required=True).strip()
    if estimator not in ESTIMATORS:
        raise ConfigError("estimator", "kind", f"unknown estimator {estimator!r}")
    reports: List[EntropyReport] = []
    workers = int(_get(cfg, "run", "workers", "1"))

    if estimator == "block-entropy":
        mu = build_measure(cfg, system)
        partition = build_partition(cfg, system)
        n_max = int(_get(cfg, "grids", "n_max", required=True))
        return [en.block_entropy(system, mu, partition, n_max)]

    if estimator == "h1":
        p_grid = _int_list(_get(cfg, "grids", "p_grid", required=True), "p_grid")
        n_grid = _int_list(_get(cfg, "grids", "n_grid", required=True), "n_grid")
        if not p_grid or not n_grid:
            raise ConfigError("grids", "p_grid", "empty grid")
        return [_h1_with_cache(system, p_grid, n_grid)]

    n_grid = _int_list(_get(cfg, "grids", "n_grid", required=True), "n_grid")
    if not n_grid:
        raise ConfigError("grids", "n_grid", "empty grid")
    bits = max(n_grid) + 64
    points = build_points(cfg, system, bits)
    if not points:
        raise ConfigError("grids", "seeds", "no seeds or points given")

    def run_one(item) -> List[EntropyReport]:
        label, point = item
        if estimator == "symbol-rate":
            partition = build_partition(cfg, system)
            report = en.symbol_rate(system, point, partition, n_grid)
        elif estimator == "orbit-rate":
            scales = _int_list(_get(cfg, "grids", "scales", required=True), "scales")
            report = en.orbit_rate(system, point, scales, n_grid)
        elif estimator == "birkhoff":
            a, b = (_fraction(t) for t in _get(cfg, "grids", "target", "0,1/2").split(","))
            target = ms.AlmostDecidableSet.from_interval(system.space, a, b)
            rows = []
            for n in n_grid:
                result = stt.birkhoff_average(system, point, target, n)
                rows.append(("average", n, float(result.average)))
                rows.append(("undecided", n, float(result.undecided)))
            report = EntropyReport("birkhoff", system.name, tuple(rows), rows[-2][2], {})
        elif estimator == "typicality":
            mu = build_measure(cfg, system)
            level = int(_get(cfg, "grids", "level", "4"))
            tol = float(_get(cfg, "grids", "tol", "0.02"))
            family = stt.dyadic_ball_family(system.space, level)
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
        return [
            EntropyReport(
                report.method,
                report.system,
                tuple((f"{label};{param}" if param else label, n, v) for param, n, v in report.rows),
                report.rate,
                report.diagnostics,
            )
        ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(run_one, points):
                reports.extend(result)
    else:
        for item in points:
            reports.extend(run_one(item))
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
        ms.SupportTooLarge,
        ms.ZeroMassCondition,
        ms.InvalidWitness,
        sb.UnsupportedCylinder,
        en.OracleUnavailable,
    ) as exc:
        print(f"estimator error: {exc}", file=_sys.stderr)
        return 1
    except (sp.SpaceMismatch, ZeroDivisionError, ValueError) as exc:
        print(f"config error: invalid value ({exc})", file=_sys.stderr)
        return 2
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
    import csv as _csv

    report_path = Path(args.report)
    oracle_path = Path(args.oracle)
    tol = float(args.tol)
    if not report_path.exists() or not oracle_path.exists():
        print("missing report or oracle file", file=_sys.stderr)
        return 2
    with open(report_path) as handle:
        rows = list(_csv.DictReader(handle))
    oracle = json.loads(oracle_path.read_text())
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
        rate_rows = [r for r in matched if r["param"].endswith("rate")] or matched
        if not rate_rows:
            failures.append(key)
            lines.append(f"MISSING  {key}")
            continue
        value = float(rate_rows[-1]["value"])
        ok = abs(value - float(expected)) <= tol
        if not ok:
            failures.append(key)
        lines.append(f"{'ok     ' if ok else 'FAIL   '} {key}: got {value:.6g}, want {expected} +- {tol}")
    print("\n".join(lines))
    return 0 if not failures else 1


def cmd_list_systems(_args) -> int:
    for name, desc in SYSTEMS.items():
        print(f"{name:14s} {desc}")
    return 0


def cmd_list_estimators(_args) -> int:
    for name, desc in ESTIMATORS.items():
        print(f"{name:14s} {desc}")
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
