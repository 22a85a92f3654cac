import configparser
import json
import shutil
from pathlib import Path

import pytest

from effdyn import cli


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


DOUBLING_CFG = """
[system]
kind = doubling

[measure]
kind = lebesgue

[partition]
kind = halves

[estimator]
kind = block-entropy

[grids]
n_max = 8

[run]
output = out/report
"""


def test_run_block_entropy_writes_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DOUBLING_CFG)
    assert cli.main(["run", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "report.csv"
    json_path = tmp_path / "out" / "report.json"
    assert csv_path.exists() and json_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,system,param,n,value,diag"
    rate_rows = [l for l in lines if ",rate," in l]
    assert any(",1," in l or l.endswith(",1,") or ",1," in l for l in rate_rows) or rate_rows
    assert any(l.split(",")[4] == "1" for l in rate_rows)
    meta = json.loads(json_path.read_text())["meta"]
    assert "config_sha256" in meta and meta["generator"].startswith("random.Random")


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, DOUBLING_CFG)
    assert cli.main(["run", str(cfg)]) == 0
    first = (tmp_path / "out" / "report.csv").read_bytes()
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "report.csv").read_bytes() == first


def test_run_recurrence_config(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
[system]
kind = rotation
angle = sqrt2-1

[estimator]
kind = recurrence

[grids]
n_grid = 2,5,12,29,70
point = 1/3

[run]
output = out/rec
""",
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "rec.csv").read_text().splitlines()
    at70 = [r for r in rows if r.split(",")[3] == "70"]
    assert at70 and float(at70[0].split(",")[4]) <= 0.0051


def test_empty_grid_config_fails(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
[system]
kind = doubling

[estimator]
kind = symbol-rate

[grids]
n_grid =
seeds = 0

[run]
output = out/x
""",
    )
    assert cli.main(["run", str(cfg)]) != 0
    assert "n_grid" in capsys.readouterr().err


def test_malformed_value_reports_config_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[system]\nkind = rotation\nangle = not-a-number\n\n"
        "[estimator]\nkind = recurrence\n\n[grids]\nn_grid = 4\npoint = 1/3\n",
    )
    assert cli.main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_required_field_reports_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[system]\nkind = rotation\n\n[estimator]\nkind = recurrence\n\n[grids]\nn_grid = 4\npoint = 1/3\n")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[system] angle" in err


def test_compare_pass_and_fail(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DOUBLING_CFG)
    assert cli.main(["run", str(cfg)]) == 0
    report = tmp_path / "out" / "report.csv"
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"block-entropy:doubling": 1.0}))
    assert cli.main(["compare", str(report), str(oracle), "0.01"]) == 0
    oracle.write_text(json.dumps({"block-entropy:doubling": 1.5}))
    assert cli.main(["compare", str(report), str(oracle), "0.01"]) == 1
    oracle.write_text(json.dumps({"no-such-key": 1.0}))
    assert cli.main(["compare", str(report), str(oracle), "0.01"]) == 1
    assert "MISSING" in capsys.readouterr().out


SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.cfg")))
def test_golden_report_reproduced(tmp_path, name):
    """Every shipped config reproduces its committed CSV and JSON byte for byte."""
    cfg = configparser.ConfigParser()
    cfg.read(SCRIPTS / f"{name}.cfg")
    output = cfg.get("run", "output")
    shutil.copy(SCRIPTS / f"{name}.cfg", tmp_path / f"{name}.cfg")
    assert cli.main(["run", str(tmp_path / f"{name}.cfg")]) == 0
    for ext in ("csv", "json"):
        produced = (tmp_path / f"{output}.{ext}").read_bytes()
        assert produced == (SCRIPTS / f"{output}.{ext}").read_bytes(), ext


@pytest.mark.parametrize(
    "name",
    [
        "block-doubling-n12",
        "block-tent-n12",
        "block-rotation-3-16",
        "block-rotation-sqrt2",
        "block-rotation-3-7-atoms",
        "block-markov-n10",
        "block-bernoulli-n12",
        "h1-doubling",
        "h1-tent",
        "symbol-rate-tent",
        "symbol-rate-tent-dyadic-2",
        "orbit-rate-tent",
    ],
)
def test_grid_golden_reproduced(tmp_path, name):
    golden_dir = Path(__file__).parent / "golden"
    shutil.copy(golden_dir / f"{name}.cfg", tmp_path / f"{name}.cfg")
    assert cli.main(["run", str(tmp_path / f"{name}.cfg")]) == 0
    produced = (tmp_path / "out" / f"{name}.csv").read_bytes()
    assert produced == (golden_dir / f"{name}.csv").read_bytes()


def test_list_commands(capsys):
    assert cli.main(["list-systems"]) == 0
    out = capsys.readouterr().out
    assert "doubling" in out and "rotation" in out
    assert cli.main(["list-estimators"]) == 0
    out = capsys.readouterr().out
    assert "block-entropy" in out and "recurrence" in out
    for options in cli.GRIDS.values():
        assert f"[grids] {', '.join(options)}\n" in out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 100, 255, 300])
def test_seeded_shift_symbols_are_randrange_draws(k):
    """A seed's shift point reads rng.randrange(k) per symbol for its first
    `bits` symbols and zeros after, whether the draws are made in bulk
    (k < 256) or one at a time."""
    import random

    from effdyn import dynamics as dy

    cfg = configparser.ConfigParser()
    seeds = (0, 1, 2024, (1 << 31) - 1)
    cfg.read_string(f"[grids]\nseeds = {','.join(map(str, seeds))}\n")
    for bits in (1, 64, 65, 4160):
        points = cli.build_points(cfg, dy.shift(k), bits)
        assert [label for label, _ in points] == [f"seed={seed}" for seed in seeds]
        for seed, (_, point) in zip(seeds, points):
            rng = random.Random(seed)
            expected = tuple(rng.randrange(k) for _ in range(bits))
            assert tuple(point.exact(j) for j in range(bits + 3)) == expected + (0, 0, 0), (seed, bits)


def test_seeded_symbol_rate_run(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
[system]
kind = doubling

[partition]
kind = halves

[estimator]
kind = symbol-rate

[grids]
n_grid = 2^5..2^10
seeds = 0

[run]
output = out/sr
""",
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "sr.csv").read_text().splitlines()
    rate = [r for r in rows if ",rate," in r][0]
    assert 0.7 <= float(rate.split(",")[4]) <= 1.35


def test_markov_shift_block_entropy(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
[system]
kind = markov-shift
alphabet = 2
rows = 9/10,1/10;1/2,1/2

[partition]
kind = cylinders
length = 1

[estimator]
kind = block-entropy

[grids]
n_max = 6

[run]
output = out/mk
""",
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "mk.csv").read_text().splitlines()
    rate = [r for r in rows if ",rate," in r][0]
    assert abs(float(rate.split(",")[4]) - 0.5574963) < 1e-5


H1_CFG = """
[system]
kind = {kind}
{extra}

[estimator]
kind = h1

[grids]
p_grid = 1,2
n_grid = 2..6

[run]
output = out/{name}
"""


def _counting_spanning(monkeypatch):
    from effdyn import entropy as en

    calls = []
    original = en.spanning_separated

    def counted(system, n, p, *args, **kwargs):
        calls.append((system.name, n, p))
        return original(system, n, p, *args, **kwargs)

    monkeypatch.setattr(en, "spanning_separated", counted)
    return calls


def test_h1_run_counts_each_pair_once(tmp_path, monkeypatch):
    calls = _counting_spanning(monkeypatch)
    cfg = write_cfg(tmp_path, H1_CFG.format(kind="shift", extra="alphabet = 2", name="h1"))
    produced = []
    for _ in range(2):
        del calls[:]
        assert cli.main(["run", str(cfg)]) == 0
        assert sorted(calls) == [("shift(2)", n, p) for n in range(2, 7) for p in (1, 2)]
        produced.append((tmp_path / "out" / "h1.csv").read_bytes())
    assert produced[0] == produced[1]


@pytest.mark.parametrize("kind", ["doubling", "tent"])
def test_h1_over_the_spanning_grid_cap_exits_1(tmp_path, capsys, kind):
    # n = 16 at p = 3 needs the 2**21 grid
    text = H1_CFG.format(kind=kind, extra="", name="capped").replace("p_grid = 1,2", "p_grid = 3")
    cfg = write_cfg(tmp_path, text.replace("n_grid = 2..6", "n_grid = 16"))
    assert cli.main(["run", str(cfg)]) == 1
    assert "estimator error: spanning scan capped at grid 2**20" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.csv"))


INVARIANT_ATOMS_CFG = """
[system]
kind = rotation
angle = {angle}

[measure]
kind = lebesgue-atoms
base_weight = 1/2
atoms = 1/10:1/6,13/30:1/6,23/30:1/6

[partition]
kind = halves

[estimator]
kind = block-entropy

[grids]
n_max = 4

[run]
output = out/atoms
"""


def test_rotation_block_entropy_under_atoms(tmp_path, capsys):
    # the atoms form one orbit of the rotation by 1/3; Lebesgue would give
    # log2(6) = 2.585 bits at n = 3
    cfg = write_cfg(tmp_path, INVARIANT_ATOMS_CFG.format(angle="1/3"))
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "atoms.csv").read_text().splitlines()
    assert "block-entropy,rotation(1/3),H_bits,3,2.396240625,rate_avg=0.5990601562950723" in rows
    # an irrational angle has no exact cylinders under point masses
    cfg = write_cfg(tmp_path, INVARIANT_ATOMS_CFG.format(angle="sqrt2-1"), name="irrational.cfg")
    (tmp_path / "out" / "atoms.csv").unlink()
    assert cli.main(["run", str(cfg)]) == 1
    assert "estimator error: irrational rotation" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.csv"))


SIGNED_MEASURE_BLOCK = """
[system]
kind = {system}
{angle}
[measure]
{measure}

[partition]
kind = {partition}
{level}
[estimator]
kind = block-entropy

[grids]
n_max = 2

[run]
output = out/signed
"""


def test_signed_measures_are_config_errors(tmp_path, capsys):
    # weights summing to 1 with one negative: the first wrote H_1 = H_2 =
    # 0.954 and exited 0, the other two failed in -log2 with exit 1; point
    # masses off the interval wrote H = 1, 1.5, 2 and exited 0, and on a
    # shift failed with exit 1
    rotation = {"system": "rotation", "angle": "angle = 1/2\n", "partition": "dyadic"}
    shift = {"system": "shift", "angle": "", "partition": "cylinders", "level": "length = 1\n"}
    line = {"system": "doubling", "angle": "", "partition": "halves", "level": ""}
    signed = [
        ("atoms", dict(rotation, level="level = 1\n"), "kind = lebesgue-atoms\nbase_weight = 5/4\natoms = 1/5:-1/4"),
        ("atoms", dict(rotation, level="level = 2\n"), "kind = lebesgue-atoms\nbase_weight = 2\natoms = 1/5:-1"),
        ("rows", shift, "kind = markov\nrows = 3/2,-1/2;1,0"),
    ]
    placed = [
        ("atoms", line, "kind = lebesgue-atoms\nbase_weight = 1/2\natoms = 3/2:1/2", "[0, 1]"),
        ("atoms", line, "kind = lebesgue-atoms\nbase_weight = 1/2\natoms = -1/4:1/2", "[0, 1]"),
        ("atoms", shift, "kind = lebesgue-atoms\nbase_weight = 1/2\natoms = 1/4:1/2", "interval or circle"),
    ]
    cases = [case + ("negative",) for case in signed] + placed
    for i, (option, system, measure, reason) in enumerate(cases):
        cfg = write_cfg(tmp_path, SIGNED_MEASURE_BLOCK.format(measure=measure, **system), f"signed-{i}.cfg")
        assert cli.main(["run", str(cfg)]) == 2, measure
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [measure] {option}: invalid value") and reason in err, err
        assert err.count("\n") == 1, err
    assert not list(tmp_path.glob("**/*.csv"))


ONE_ATOM_CFG = """
[system]
kind = rotation
angle = {angle}

[partition]
kind = dyadic
level = 0

[estimator]
kind = block-entropy

[grids]
n_max = 4

[run]
output = out/one-atom
"""


def test_rotation_block_entropy_of_one_atom(tmp_path, capsys):
    # one atom codes every orbit as 0000: no gap between cuts is a cylinder
    cfg = write_cfg(tmp_path, ONE_ATOM_CFG.format(angle="2/5"))
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "one-atom.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["0"] * 5
    # an irrational angle has neither the gap method nor an exact pullback
    cfg = write_cfg(tmp_path, ONE_ATOM_CFG.format(angle="sqrt2-1"), name="irrational.cfg")
    (tmp_path / "out" / "one-atom.csv").unlink()
    assert cli.main(["run", str(cfg)]) == 1
    assert "estimator error: irrational rotation" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.csv"))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("64,128", [64, 128]),
        ("2^3,5", [8, 5]),
        ("2..5", [2, 3, 4, 5]),
        ("2^1..2^3", [2, 4, 8]),
    ],
)
def test_int_list_forms(text, expected):
    assert cli._int_list(text, "n_grid") == expected


@pytest.mark.parametrize("grid", ["1..2^3", "2^1..8"])
def test_mixed_range_is_a_config_error(tmp_path, capsys, grid):
    cfg = write_cfg(
        tmp_path,
        "[system]\nkind = doubling\n\n[estimator]\nkind = h1\n\n"
        f"[grids]\np_grid = 2\nn_grid = {grid}\n",
    )
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[grids] n_grid" in err and grid in err


def test_compare_checks_every_seed(tmp_path, capsys):
    report = tmp_path / "two-seeds.csv"
    report.write_text(
        "method,system,param,n,value,diag\n"
        "symbol-rate,doubling,seed=1;bits_per_step,1024,0.5,\n"
        "symbol-rate,doubling,rate,0,0.5,\n"
        "symbol-rate,doubling,seed=2;bits_per_step,1024,1.0,\n"
        "symbol-rate,doubling,rate,0,1.0,\n"
    )
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"symbol-rate:doubling": 1.0}))
    assert cli.main(["compare", str(report), str(oracle), "0.05"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL") and "row 1 of 2" in out[0]
    assert out[1].startswith("ok") and "row 2 of 2" in out[1]
    oracle.write_text(json.dumps({"symbol-rate:doubling": 0.75}))
    assert cli.main(["compare", str(report), str(oracle), "0.3"]) == 0


def test_compare_refuses_bad_input(tmp_path, capsys):
    """A tolerance that is not a finite number >= 0, an oracle that is not
    a JSON object of numbers, a report without the frozen columns and a
    missing file exit 2 with a `compare error` line, before any key is
    checked."""
    report = tmp_path / "report.csv"
    report.write_text("method,system,param,n,value,diag\nh1,doubling,rate,0,1.0,\n")
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"h1:doubling": 1.0}))
    assert cli.main(["compare", str(report), str(oracle), "0"]) == 0
    capsys.readouterr()
    cases = [(report, oracle, tol) for tol in ("abc", "nan", "inf", "-1")]
    for text in ("{bad", "[1.0]", '{"h1:doubling": "1.0"}', '{"h1:doubling": NaN}', '{"h1:doubling": true}'):
        bad = tmp_path / f"oracle-{len(cases)}.json"
        bad.write_text(text)
        cases.append((report, bad, "0.01"))
    for text in ("", "method,system,param,n,value\nh1,doubling,rate,0,1.0\n", "a,b\n1,2\n"):
        bad = tmp_path / f"report-{len(cases)}.csv"
        bad.write_text(text)
        cases.append((bad, oracle, "0.01"))
    cases += [(tmp_path / "none.csv", oracle, "0.01"), (report, tmp_path / "none.json", "0.01")]
    for report_path, oracle_path, tol in cases:
        assert cli.main(["compare", str(report_path), str(oracle_path), tol]) == 2, (report_path, oracle_path, tol)
        out, err = capsys.readouterr()
        assert not out and err.startswith("compare error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "row, problem",
    [
        ("h1,doubling,rate,0,x,", "has the value 'x', not a number"),
        ("h1,shift(2),rate,0,,", "has the value '', not a number"),
        ("h1,doubling", "does not have the 6 CSV fields"),
        ("h1,doubling,rate,0,1.0,,", "does not have the 6 CSV fields"),
    ],
)
def test_compare_refuses_malformed_rows(tmp_path, capsys, row, problem):
    """A row with a missing or extra field or a value that is not a number
    exits 2 with one line naming its line, whether the oracle matches it
    or not."""
    report = tmp_path / "report.csv"
    report.write_text(f"method,system,param,n,value,diag\nh1,doubling,rate,0,1.0,\n{row}\n")
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"h1:doubling": 1.0}))
    assert cli.main(["compare", str(report), str(oracle), "0.01"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"compare error: {report} line 3 {problem}\n"


@pytest.mark.parametrize(
    "report, oracle",
    [("doubling-ks.csv", "doubling-ks-oracle.json"), ("h1-shift3.csv", "shift3-oracle.json")],
)
def test_shipped_oracles_pass(report, oracle):
    """The README's `compare` on each shipped report and its oracle."""
    assert cli.main(["compare", str(SCRIPTS / "out" / report), str(SCRIPTS / oracle), "0.001"]) == 0


def test_bad_values_are_config_errors(tmp_path, capsys):
    orbit_rate = (
        "[system]\nkind = doubling\n\n[estimator]\nkind = orbit-rate\n\n"
        "[grids]\nn_grid = 8\nseeds = 1\n"
    )
    h1 = "[system]\nkind = doubling\n\n[estimator]\nkind = h1\n\n[grids]\nn_grid = 4\n"
    typicality = (
        "[system]\nkind = doubling\n\n[estimator]\nkind = typicality\n\n"
        "[grids]\nn_grid = 128\nseeds = 1\nlevel = 2\n"
    )
    bad = [
        ("angle", "[system]\nkind = rotation\nangle = 1/0\n\n[estimator]\nkind = recurrence\n\n"
         "[grids]\nn_grid = 4\npoint = 1/3\n"),
        ("probs", "[system]\nkind = shift\n\n[measure]\nkind = bernoulli\nprobs = 1/2,1/3\n\n"
         "[partition]\nkind = cylinders\n\n[estimator]\nkind = block-entropy\n\n[grids]\nn_max = 3\n"),
        ("n_max", "[system]\nkind = doubling\n\n[estimator]\nkind = block-entropy\n\n"
         "[grids]\nn_max = 0\n"),
        ("n_grid", "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n"
         "[grids]\nn_grid = 0,8\nseeds = 1\n"),
        ("point", "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n"
         "[grids]\nn_grid = 8\npoint = 3/2\n"),
        ("kind", "[system]\nkind = shift\n\n[estimator]\nkind = symbol-rate\n\n"
         "[grids]\nn_grid = 8\nseeds = 1\n"),
        ("kind", "[system]\nkind = doubling\n\n[partition]\nkind = cylinders\n\n"
         "[estimator]\nkind = block-entropy\n\n[grids]\nn_max = 3\n"),
        ("length", "[system]\nkind = shift\n\n[partition]\nkind = cylinders\nlength = -1\n\n"
         "[estimator]\nkind = block-entropy\n\n[grids]\nn_max = 3\n"),
        ("scales", orbit_rate + "scales = -1\n"),
        ("scales", orbit_rate + "scales = 2,-1\n"),
        ("scales", orbit_rate + "scales =\n"),
        ("p_grid", h1 + "p_grid = -5\n"),
        ("p_grid", h1 + "p_grid =\n"),
        ("tol", typicality + "tol = nan\n"),
        ("tol", typicality + "tol = -0.5\n"),
        ("tol", typicality + "tol = 0\n"),
        ("tol", typicality + "tol = inf\n"),
    ]
    for i, (option, text) in enumerate(bad):
        cfg = write_cfg(tmp_path, text, f"{option}-{i}.cfg")
        assert cli.main(["run", str(cfg)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("config error: [") and f"] {option}:" in err, err
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".cfg"] * len(bad)


def test_repeated_grid_entries_are_config_errors(tmp_path, capsys, monkeypatch):
    # a repeated entry would only write its rows twice: scales = 4,4 every
    # eps=2^-4 row of doubling, n_grid = 64,64,128 the n = 64 row of symbol-rate
    def unreachable(*args):
        raise AssertionError("ran an estimator on a grid with a repeated entry")

    for name in ("orbit_rate", "symbol_rate", "h1_estimate"):
        monkeypatch.setattr(cli.en, name, unreachable)
    orbit_rate = "[system]\nkind = doubling\n\n[estimator]\nkind = orbit-rate\n\n[grids]\n"
    symbol_rate = "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n[grids]\n"
    h1 = "[system]\nkind = doubling\n\n[estimator]\nkind = h1\n\n[grids]\n"
    bad = [
        ("scales", "4", orbit_rate + "n_grid = 64,128\nseeds = 1\nscales = 4,4\n"),
        ("n_grid", "64", symbol_rate + "n_grid = 64,64,128\nseeds = 1\n"),
        ("n_grid", "8", symbol_rate + "n_grid = 2^3,8\nseeds = 1\n"),
        ("p_grid", "1, 2", h1 + "p_grid = 1,2,1,2\nn_grid = 2..7\n"),
        ("seeds", "3", symbol_rate + "n_grid = 64\nseeds = 3,5, 3\n"),
    ]
    for i, (option, repeated, text) in enumerate(bad):
        cfg = write_cfg(tmp_path, text + f"\n[run]\noutput = out/r{i}\n", f"repeat-{i}.cfg")
        assert cli.main(["run", str(cfg)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [grids] {option}: repeated entries {repeated}"), err
    assert not (tmp_path / "out").exists()


def test_unknown_options_are_config_errors(tmp_path, capsys, monkeypatch):
    def unreachable(cfg):
        raise AssertionError("built a system from a config with an unknown option")

    monkeypatch.setattr(cli, "build_system", unreachable)
    stale = (SCRIPTS / "ksym-doubling.cfg").read_text().replace(
        "[run]\n", "[run]\nworkers = 3\n"
    )
    bad = {
        ("system", "angel"): "[system]\nkind = rotation\nangel = 1/3\n\n"
        "[estimator]\nkind = recurrence\n\n[grids]\nn_grid = 4\npoint = 1/3\n",
        ("grids", "sedes"): "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n"
        "[grids]\nn_grid = 8\nsedes = 5\n",
        ("run", "workers"): stale,
        # valid for other estimators, but symbol-rate reads neither
        ("grids", "scales"): "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n"
        "[grids]\nn_grid = 8\nseeds = 1\nscales = 4\nn_max = 9\n",
    }
    assert set(cli.GRIDS) == set(cli.ESTIMATORS)
    for (section, option), text in bad.items():
        cfg = write_cfg(tmp_path, text, f"{option}.cfg")
        assert cli.main(["run", str(cfg)]) == 2, option
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] {option}: unknown option"), err
    assert not list(tmp_path.glob("**/*.csv"))


def test_partitions_and_families_over_their_caps_are_config_errors(tmp_path, capsys, monkeypatch):
    from effdyn import measure as ms
    from effdyn import symbolic as sb

    def unbuilt(*args, **kwargs):
        raise AssertionError("built an atom or a set over its cap")

    monkeypatch.setattr(sb, "ComputablePartition", unbuilt)
    monkeypatch.setattr(ms.AlmostDecidableSet, "from_interval", unbuilt)
    symbol_rate = "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n[grids]\nn_grid = 8\nseeds = 1\n"
    block = "[system]\nkind = shift\nalphabet = {k}\n\n[estimator]\nkind = block-entropy\n\n[grids]\nn_max = 3\n"
    typicality = "[system]\nkind = doubling\n\n[estimator]\nkind = typicality\n\n[grids]\nn_grid = 64\nseeds = 1\n"
    over = [
        ("[partition] level", symbol_rate + "\n[partition]\nkind = dyadic\nlevel = 11\n"),
        ("[partition] level", symbol_rate + "\n[partition]\nkind = dyadic\nlevel = 1000000000\n"),
        ("[partition] length", block.format(k=2) + "\n[partition]\nkind = cylinders\nlength = 11\n"),
        ("[partition] length", block.format(k=3) + "\n[partition]\nkind = cylinders\nlength = 1000000000\n"),
        ("[grids] level", typicality + "level = 10\n"),
        ("[grids] level", typicality + "level = 1000000000\n"),
    ]
    for i, (option, text) in enumerate(over):
        cfg = write_cfg(tmp_path, text + "\n[run]\noutput = out/capped\n", f"capped-{i}.cfg")
        assert cli.main(["run", str(cfg)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {option}: invalid value") and "_CAP = 1024" in err, err
    assert not list(tmp_path.glob("**/*.csv"))


def test_estimator_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    from effdyn import entropy as en

    def broken(*args, **kwargs):
        raise ValueError("estimator bug")

    monkeypatch.setattr(en, "symbol_rate", broken)
    cfg = write_cfg(
        tmp_path,
        "[system]\nkind = doubling\n\n[estimator]\nkind = symbol-rate\n\n"
        "[grids]\nn_grid = 8\nseeds = 1\n",
    )
    with pytest.raises(ValueError, match="estimator bug"):
        cli.main(["run", str(cfg)])


def test_visit_estimators_on_shift_systems_are_config_errors(tmp_path, capsys, monkeypatch):
    def unreachable(cfg):
        raise AssertionError("built a shift system for a visit count")

    monkeypatch.setattr(cli, "build_system", unreachable)
    grids = {"birkhoff": "target = 0,1/2\n", "typicality": "level = 2\n"}
    for system in ("shift", "markov-shift"):
        for estimator, extra in grids.items():
            cfg = write_cfg(
                tmp_path,
                f"[system]\nkind = {system}\n\n[estimator]\nkind = {estimator}\n\n"
                f"[grids]\nn_grid = 64\nseeds = 1\n{extra}\n[run]\noutput = out/{estimator}\n",
                f"{system}-{estimator}.cfg",
            )
            assert cli.main(["run", str(cfg)]) == 2, (system, estimator)
            err = capsys.readouterr().err
            assert err.startswith("config error: [system] kind:"), err
    assert not list(tmp_path.glob("**/*.csv"))


def test_birkhoff_on_an_arc_whose_outer_arc_crosses_zero_decides_every_step(tmp_path):
    # the outer arc of [1/2, 3/4) runs from 3/4 across 0 to 1/2
    cfg = write_cfg(
        tmp_path,
        "[system]\nkind = rotation\nangle = sqrt2-1\n\n[estimator]\nkind = birkhoff\n\n"
        "[grids]\nn_grid = 5000\nseeds = 1\ntarget = 1/2,3/4\n\n[run]\noutput = out/arc\n",
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "arc.csv").read_text().splitlines()
    assert "birkhoff,rotation(point),seed=1;undecided,5000,0," in rows


def test_birkhoff_reversed_circle_target_is_a_config_error(tmp_path, capsys):
    # a target with a >= b on the circle used to build an empty inner arc
    # and a whole-circle outer arc, and write an average of 0 at every n,
    # where the interval refused it; an arc across 0 is written 3/4,5/4
    birkhoff = (
        "[system]\nkind = rotation\nangle = {angle}\n\n[estimator]\nkind = birkhoff\n\n"
        "[grids]\nn_grid = 64\nseeds = 1\ntarget = {target}\n\n[run]\noutput = out/{name}\n"
    )
    for angle in ("sqrt2-1", "1/3"):
        for i, target in enumerate(("3/4,1/4", "1/2,1/2")):
            name = f"reversed-{i}"
            cfg = write_cfg(tmp_path, birkhoff.format(angle=angle, target=target, name=name), f"{name}.cfg")
            assert cli.main(["run", str(cfg)]) == 2, (angle, target)
            err = capsys.readouterr().err
            assert err.startswith("config error: [grids] target: invalid value"), err
    assert not list(tmp_path.glob("**/*.csv"))
    cfg = write_cfg(tmp_path, birkhoff.format(angle="sqrt2-1", target="3/4,5/4", name="across"), "across.cfg")
    assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "out" / "across.csv").read_text().splitlines()
    assert "birkhoff,rotation(point),seed=1;average,64,0.515625," in rows


def test_typicality_builds_its_family_once_for_every_seed(tmp_path, monkeypatch):
    """The family, measure, partition and target do not depend on the
    point, so a run builds them once, whatever the number of seeds; the
    CSV is the one the run gave when it built them per seed."""
    import hashlib

    from effdyn import stats as stt

    builds = []
    family = stt.dyadic_ball_family

    def counted(space, level):
        builds.append(level)
        return family(space, level)

    monkeypatch.setattr(stt, "dyadic_ball_family", counted)
    cfg = write_cfg(
        tmp_path,
        "[system]\nkind = doubling\n\n[estimator]\nkind = typicality\n\n"
        "[grids]\nn_grid = 4096\nseeds = 1,2,3,4\nlevel = 4\n\n[run]\noutput = out/typicality\n",
    )
    assert cli.main(["run", str(cfg)]) == 0
    assert builds == [4]
    produced = (tmp_path / "out" / "typicality.csv").read_bytes()
    assert len(produced.splitlines()) == 1 + 4 * (30 + 1)  # 30 residuals and a rate per seed
    assert hashlib.sha256(produced).hexdigest() == "b2b01f2964a5c1e80cb621a37fc2cbddd1c84d43efe9de2c3fbc74fb70318ec1"
