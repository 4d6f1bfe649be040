"""The tolerance table: every tolerance the library applies lives in one module."""

import ast
import importlib
from pathlib import Path

import pytest

import fbcrs
from fbcrs import tolerances

SRC = Path(fbcrs.__file__).parent


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
