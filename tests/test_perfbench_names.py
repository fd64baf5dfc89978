"""The names the benchmark under perfbench/ looks up in qmcrff resolve, and
the flags it passes to the CLI exist.

The benchmark reaches the package by name (attribute lookups and
"module:function" strings) and drives ``qmcrff.cli pipeline`` with flags,
so a rename or a moved function would show up only when the benchmark
runs.  These tests read the benchmark's sources
with `ast` and import none of them.
"""

import argparse
import ast
import importlib
from pathlib import Path

import qmcrff
from qmcrff.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"perfbench defines no {name}")


def test_workload_entry_points_resolve_in_cli():
    cli = importlib.import_module("qmcrff.cli")
    names = ast.literal_eval(_assigned(_tree("workloads.py"), "_ENTRY_POINTS"))
    assert names
    assert [n for n in names if not hasattr(cli, n)] == []


def trace_targets():
    """The "module:function" strings of tracing.py's TARGETS."""
    return [ast.literal_eval(entry.elts[1])
            for entry in _assigned(_tree("tracing.py"), "TARGETS").elts]


def probe_names():
    """The package names the probes use: each probe receives the package as
    ``q``, and `_gram` takes the name of the function it times."""
    tree = _tree("probes.py")
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "q"}
    names |= {arg.value for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "_gram"
              for arg in node.args}
    return names


def test_trace_targets_resolve():
    targets = trace_targets()
    missing = []
    for target in targets:
        module, function = target.split(":")
        if not hasattr(importlib.import_module(module), function):
            missing.append(target)
    assert targets
    assert missing == []


def test_probe_names_resolve_in_the_package():
    names = probe_names()
    assert names
    assert sorted(n for n in names if not hasattr(qmcrff, n)) == []


def test_cli_flags_are_pipeline_options():
    # Workload.cli_argv passes these flags to ``qmcrff.cli pipeline``.
    workload = next(node for node in _tree("workloads.py").body
                    if isinstance(node, ast.ClassDef) and node.name == "Workload")
    cli_argv = next(node for node in workload.body
                    if isinstance(node, ast.FunctionDef) and node.name == "cli_argv")
    flags = {node.value for node in ast.walk(cli_argv)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith("--")}
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = subparsers.choices["pipeline"]._option_string_actions
    assert "--workers" in flags
    assert sorted(flags - set(options)) == []
