"""Every name a qmcrff module imports is used in that module.

No linter runs on this repository, so this reads each module of the
package with `ast` in its place.  A name counts as used when the module
refers to it as a name (an attribute chain starts with one), or, in
``__init__.py``, when ``__all__`` exports it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmcrff"

# perfbench/workloads.py (`_ENTRY_POINTS`) looks these up in qmcrff.cli.
READ_BY_THE_BENCHMARK = {"cli.py": {"Dataset", "estimate_box"}}


def _imported(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    unused = _imported(tree) - _used(tree) - READ_BY_THE_BENCHMARK.get(module, set())
    assert sorted(unused) == []


def test_the_benchmark_exceptions_are_still_imports():
    # An exception that is no longer imported should leave the list.
    for module, names in READ_BY_THE_BENCHMARK.items():
        assert names <= _imported(ast.parse((PACKAGE / module).read_text()))
