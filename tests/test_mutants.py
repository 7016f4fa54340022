"""The mutant table of `scripts/mutants.py` still fits the code."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_tests_exist(m):
    assert mutants.mutated(m) != (mutants.ROOT / m.file).read_text()


def test_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
