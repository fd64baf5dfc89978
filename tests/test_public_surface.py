"""Every name qmcrff exports has a caller outside the tests that check it.

A name in ``qmcrff.__all__`` must be referenced (as a name, an attribute or
an imported alias) by the package's own modules, by the benchmark under
perfbench/, or by the acceptance tests.  The benchmark also looks names up
by string: the "module:function" targets of its tracer and the names its
probes pass to ``_gram``; those count too.  A name only the unit tests call
belongs in tests/oracles.py or nowhere.  The sources are read with `ast`;
none of perfbench/ is imported.
"""

import ast
from pathlib import Path

import qmcrff
from test_perfbench_names import probe_names, trace_targets

ROOT = Path(__file__).resolve().parent.parent


def _callers():
    package = [p for p in (ROOT / "src" / "qmcrff").glob("*.py") if p.name != "__init__.py"]
    return package + sorted((ROOT / "perfbench").glob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py"]


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller():
    referenced = set().union(*(_referenced_names(p) for p in _callers()))
    referenced |= {target.split(":")[1] for target in trace_targets()} | probe_names()
    assert qmcrff.__all__
    assert sorted(set(qmcrff.__all__) - referenced) == []
