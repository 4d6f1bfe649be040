"""Source scans: every tolerance the library applies lives in one module, and
every public name has a caller outside the tests."""

import ast
import importlib
from pathlib import Path

import pytest

import fbcrs
from fbcrs import tolerances

SRC = Path(fbcrs.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _stray_literals(path: Path) -> list[tuple[int, float]]:
    """Float literals that look like a tolerance (0 < |v| <= 1e-6) or the
    Monte Carlo confidence (0.999), with their line numbers."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and (0.0 < abs(node.value) <= 1e-6 or node.value == 0.999)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_tolerance_literal_outside_the_table(path):
    if path.name == "tolerances.py":
        assert _stray_literals(path)  # the table itself holds them
    else:
        assert _stray_literals(path) == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("fbcrs.lp_si", "LP_TOL"),
        ("fbcrs.knapsack", "ATOM_TOL"),
        ("fbcrs.knapsack", "FEAS_TOL"),
        ("fbcrs.instances", "MASS_TOL"),
        ("fbcrs.rationing", "CALIBRATION_TOL"),
    ],
)
def test_modules_reexport_the_table(module, name):
    assert getattr(importlib.import_module(module), name) == getattr(tolerances, name)


# Exported for the reader although no library code calls them: phi and gamma
# are the paper's named curves, and monitor_invariants checks the paper's
# induction invariant on one fill law (the tests hand it violating laws).
EXPORTS_WITHOUT_CALLER = {"phi", "gamma", "monitor_invariants"}


def _referenced_names(path: Path) -> set[str]:
    """Names a file reads, as a bare name or an attribute; a def or class
    statement binds its name without reading it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += [*(REPO / "demos").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    used = set().union(*map(_referenced_names, callers))
    unused = sorted(set(fbcrs.__all__) - used - EXPORTS_WITHOUT_CALLER)
    assert unused == []
    assert EXPORTS_WITHOUT_CALLER <= set(fbcrs.__all__)
