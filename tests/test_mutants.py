"""tools/mutants.py, loaded by path: the mutation list still matches the code and the tests."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tool  # its dataclass resolves its module by name
    try:
        spec.loader.exec_module(tool)
    finally:
        del sys.modules[spec.name]
    return tool


def test_each_mutant_old_text_occurs_once_and_its_tests_exist():
    tool = _tool()
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for mutant in tool.MUTANTS:
        assert tool.occurrences(mutant) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for node in mutant.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), (mutant.name, node)
