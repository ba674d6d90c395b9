"""The replayable mutants of tools/mutants.py still apply, and a mutant counts
as killed only when one of its tests fails.

tools/mutants.py is loaded as it is, as test_perfbench_layers.py loads
perfbench/spans.py. A mutant whose old text went stale, or that names a test
module which is gone, is found here, without a mutation run.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS_PY = ROOT / "tools" / "mutants.py"


def _load():
    spec = importlib.util.spec_from_file_location("rbseries_mutants", MUTANTS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads its module from here
    spec.loader.exec_module(module)
    return module


mutants = _load()
NAMES = [m.name for m in mutants.MUTANTS]


def test_mutant_names_are_unique():
    assert len(NAMES) == len(set(NAMES))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=NAMES)
def test_old_text_occurs_once_and_the_tests_exist(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert mutant.tests
    for module in mutant.tests:
        assert (ROOT / module).is_file(), module


@pytest.mark.parametrize("code,want", [
    (0, "SURVIVED"), (1, "killed"),
    # a usage or collection error, an internal error, no tests collected, a timeout
    (2, "BROKEN"), (3, "BROKEN"), (4, "BROKEN"), (5, "BROKEN"), (-1, "BROKEN"),
])
def test_only_a_failing_test_kills_a_mutant(code, want):
    assert mutants.verdict(code) == want


@pytest.mark.parametrize("code,exit_code", [(1, 0), (0, 1), (2, 2), (4, 2), (5, 2), (-1, 2)])
def test_run_exits_by_the_verdicts(monkeypatch, capsys, code, exit_code):
    """run() with pytest replaced: the unmutated copy passes and the mutant's
    modules exit with `code`."""
    mutant = mutants.MUTANTS[0]

    def copy(dest):
        (dest / mutant.path).parent.mkdir(parents=True)
        shutil.copy(ROOT / mutant.path, dest / mutant.path)

    def pytest_exit(where, tests):
        mutated = where.name == mutant.name
        assert (where / mutant.path).read_text().count(mutant.old) == (0 if mutated else 1)
        return (0 if where.name == "unmutated" else code), 0.0

    monkeypatch.setattr(mutants, "_copy", copy)
    monkeypatch.setattr(mutants, "_pytest", pytest_exit)
    assert mutants.run([mutant]) == exit_code
    out = capsys.readouterr().out
    assert f"{mutant.name}: {mutants.verdict(code)} (pytest exit {code}," in out
