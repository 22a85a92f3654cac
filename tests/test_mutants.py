"""The mutants of `tests/mutants.py` still aim at the code: each fragment
occurs exactly once in its file under `src/`, its replacement differs,
and each named test is defined.  The mutants themselves run outside
the suite, with `python tests/mutants.py`."""

import re
from pathlib import Path

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_fragment_occurs_once_in_src():
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        assert m.file.startswith("src/"), m.name
        assert (ROOT / m.file).read_text().count(m.fragment) == 1, m.name
        assert m.replacement != m.fragment, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test
