"""Mutation checks that can be rerun.

Each mutant replaces one exact source fragment of a file under `src/` and
names the tests that are to catch it.  For one mutant the runner copies
`src/`, `tests/` and `pyproject.toml` into a temporary directory (all
three: pytest's `pythonpath = ["src"]` would otherwise import the
unmutated tree), applies the replacement there and runs only the named
tests.  The mutant is killed when one of them fails, and survives when all
pass.  Before any mutant, the named tests run once on the unmutated copy
and must pass, so that a failure is the mutant's.

    python tests/mutants.py

It prints one line per mutant and exits 1 if a mutant survives or a run
goes wrong.  pytest does not collect this file (its name does not start
with `test_`); `tests/test_mutants.py` checks in the suite that every
fragment still occurs exactly once, so a refactor that moves the code
updates its mutants.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: Tuple[str, ...]


_ORBIT = "tests/test_orbit_kernel.py::"

MUTANTS = [
    Mutant(
        "tent fold reads b_j instead of b_(j-1)",
        "src/effdyn/dynamics.py",
        "bytes([q == 1]) + digits[: n - 1]",
        "bytes([q == 1]) + digits[1:n]",
        (_ORBIT + "test_fast_doubling_symbols_match_scan_on_every_short_dyadic",),
    ),
    Mutant(
        "tent fold swaps the inside and on-grid complements",
        "src/effdyn/dynamics.py",
        "[top - w if f else w for w, f in zip(windows[:inside], folds)]\n"
        "        windows[inside:] = [top + 1 - w if f",
        "[top + 1 - w if f else w for w, f in zip(windows[:inside], folds)]\n"
        "        windows[inside:] = [top - w if f",
        (_ORBIT + "test_fast_doubling_symbols_match_scan_on_every_short_dyadic",),
    ),
    Mutant(
        "tent fold drops the point 1",
        "src/effdyn/dynamics.py",
        "bytes([q == 1])",
        "bytes(1)",
        (_ORBIT + "test_quantize_orbit_bit_windows_match_midpoint_on_seeded_dyadics",),
    ),
    Mutant(
        "strictly-inside prefix one step short",
        "src/effdyn/dynamics.py",
        "(num & -num).bit_length() - level + 1",
        "(num & -num).bit_length() - level",
        (_ORBIT + "test_fast_doubling_symbols_match_scan_on_every_short_dyadic",),
    ),
    Mutant(
        "quantizer drops the clip at the tent map's 1",
        "src/effdyn/entropy.py",
        "[w if w < cells else cells - 1 for w in windows[inside:]]",
        "windows[inside:]",
        (_ORBIT + "test_quantize_orbit_bit_windows_match_midpoint_on_seeded_dyadics",),
    ),
    Mutant(
        "rotation gap cap one step short",
        "src/effdyn/entropy.py",
        "sb._check_level(len(cuts) * max(ns), max(ns))",
        "sb._check_level(len(cuts) * (max(ns) - 1), max(ns))",
        ("tests/test_level_walk.py::test_rotation_gap_cap_refuses_before_building",),
    ),
    Mutant(
        "digit_windows keeps one digit too many",
        "src/effdyn/dynamics.py",
        "modulus, window, windows = base**width, 0, []",
        "modulus, window, windows = base ** (width + 1), 0, []",
        (_ORBIT + "test_digit_windows_match_per_window_slices",),
    ),
]


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(mutants) -> int:
    """Run the mutants and print one line each; the number of survivors
    and errors."""
    bad = 0
    with tempfile.TemporaryDirectory(prefix="effdyn-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = sorted({t for m in mutants for t in m.tests})
        code = _pytest(base, tests)
        if code != 0:
            print(f"error: the named tests exit {code} on the unmutated copy")
            return 1
        for i, m in enumerate(mutants):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            path = tree / m.file
            text = path.read_text()
            if text.count(m.fragment) != 1:
                print(f"{'error':<10}{m.name}: the fragment occurs {text.count(m.fragment)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.fragment, m.replacement))
            code = _pytest(tree, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{verdict:<10}{m.name}")
            bad += code != 1
            shutil.rmtree(tree)
    return bad


def main() -> int:
    bad = run(MUTANTS)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
