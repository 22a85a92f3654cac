"""The traced benchmark patches effdyn functions by name; each must exist.

`perfbench/tracing.py` wraps every (owner, attribute) that its `targets`
lists.  A function that a refactor deletes or renames would make the
traced run fail, so this guard loads the tracer as it is and looks every
name up in the effdyn modules.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (
    "cli",
    "coding",
    "dynamics",
    "entropy",
    "measure",
    "numerics",
    "reporting",
    "space",
    "stats",
    "symbolic",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    lib = SimpleNamespace(**{name: importlib.import_module(f"effdyn.{name}") for name in MODULES})
    targets = tracing.targets(lib)
    assert targets
    missing = [
        (span, attribute) for span, owner, attribute, _ in targets if attribute not in vars(owner)
    ]
    assert not missing, missing
