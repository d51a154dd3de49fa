"""The benchmark reaches the package by name; every name it uses must exist.

``perfbench/run.py`` only warns when a trace target is missing and drops its
span, so a rename in the package would silently shrink the per-layer report.
This test reads the benchmark's sources without importing or editing them.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from vqa_poisson.optimize import OptimizationTrace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"classical", "cost", "gradient", "operators", "optimize", "sampling", "states"}


def _trace_targets() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets):
            return [tuple(target) for target in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no TRACE_TARGETS")


def _workload_attributes() -> set[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}


def _trial_attributes() -> set[str]:
    """Attributes the workloads read from minimize's results, bound to ``trace`` or ``best``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("trace", "best")}


def test_trace_targets_resolve_to_callables():
    targets = _trace_targets()
    assert targets
    for module, name in targets:
        value = getattr(importlib.import_module(f"vqa_poisson.{module}"), name, None)
        assert callable(value), f"trace target vqa_poisson.{module}.{name} is missing"


def test_workload_attributes_resolve():
    used = _workload_attributes()
    assert ("sampling", "ancilla_x_term") in used
    for module, name in sorted(used):
        assert hasattr(importlib.import_module(f"vqa_poisson.{module}"), name), \
            f"perfbench/workloads.py uses vqa_poisson.{module}.{name}, which is missing"


def test_trial_attributes_are_trace_fields():
    used = _trial_attributes()
    assert {"final_theta", "iterations_used", "final_report"} <= used
    fields = {field.name for field in dataclasses.fields(OptimizationTrace)}
    assert used <= fields, f"perfbench/workloads.py reads missing trial fields {used - fields}"
