import json

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


def test_golden_report_reproduced(tmp_path):
    import shutil
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "doubling-ks.csv"
    cfg_src = Path(__file__).parent.parent / "scripts" / "doubling-ks.cfg"
    shutil.copy(cfg_src, tmp_path / "doubling-ks.cfg")
    assert cli.main(["run", str(tmp_path / "doubling-ks.cfg")]) == 0
    produced = (tmp_path / "out" / "doubling-ks.csv").read_bytes()
    assert produced == golden.read_bytes()


@pytest.mark.parametrize(
    "name", ["block-doubling-n12", "block-tent-n12", "h1-doubling", "h1-tent"]
)
def test_grid_golden_reproduced(tmp_path, name):
    import shutil
    from pathlib import Path

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


def test_workers_do_not_change_output(tmp_path):
    base = """
[system]
kind = doubling

[partition]
kind = halves

[estimator]
kind = symbol-rate

[grids]
n_grid = 2^5..2^9
seeds = 0,1,2

[run]
output = out/w{n}
workers = {n}
"""
    cfg1 = write_cfg(tmp_path, base.format(n=1), "w1.cfg")
    cfg3 = write_cfg(tmp_path, base.format(n=3), "w3.cfg")
    assert cli.main(["run", str(cfg1)]) == 0
    assert cli.main(["run", str(cfg3)]) == 0
    rows1 = (tmp_path / "out" / "w1.csv").read_text()
    rows3 = (tmp_path / "out" / "w3.csv").read_text()
    assert rows1 == rows3


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


def test_spanning_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("EFFDYN_CACHE_DIR", str(tmp_path / "cache"))
    calls = _counting_spanning(monkeypatch)
    cfg = write_cfg(tmp_path, H1_CFG.format(kind="shift", extra="alphabet = 2", name="h1"))
    assert cli.main(["run", str(cfg)]) == 0
    # every count computed exactly once, and stored under a versioned spec
    assert len(calls) == 2 * 5 and len(set(calls)) == len(calls)
    first = (tmp_path / "out" / "h1.csv").read_bytes()
    cache_file = tmp_path / "cache" / "spanning_counts.json"
    keys = sorted(json.loads(cache_file.read_text()))
    assert keys[0] == "v1:shift(2):2:1" and len(keys) == 10
    # the temp file was renamed over the cache, not left beside it
    assert [f.name for f in (tmp_path / "cache").iterdir()] == ["spanning_counts.json"]
    del calls[:]
    assert cli.main(["run", str(cfg)]) == 0  # second run served from cache
    assert calls == []
    assert (tmp_path / "out" / "h1.csv").read_bytes() == first
    # the same run without a cache gives the same bytes
    monkeypatch.delenv("EFFDYN_CACHE_DIR")
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "h1.csv").read_bytes() == first


def test_spanning_cache_keys_rotations_by_angle(tmp_path, monkeypatch):
    monkeypatch.setenv("EFFDYN_CACHE_DIR", str(tmp_path / "cache"))
    calls = _counting_spanning(monkeypatch)
    cache_file = tmp_path / "cache" / "spanning_counts.json"
    for i, angle in enumerate(("1/3", "2/5")):
        cfg = write_cfg(
            tmp_path, H1_CFG.format(kind="rotation", extra=f"angle = {angle}", name=f"r{i}")
        )
        assert cli.main(["run", str(cfg)]) == 0
    assert len(calls) == 2 * 10  # 2/5 did not reuse the counts of 1/3
    specs = {key.split(":")[1] for key in json.loads(cache_file.read_text())}
    assert specs == {"rotation(1/3)", "rotation(2/5)"}
    # an angle given as a point has no canonical spec: computed, never cached
    before = cache_file.read_bytes()
    cfg = write_cfg(tmp_path, H1_CFG.format(kind="rotation", extra="angle = sqrt2-1", name="r2"))
    for _ in range(2):
        del calls[:]
        assert cli.main(["run", str(cfg)]) == 0
        assert len(calls) == 10
    assert cache_file.read_bytes() == before


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
