"""Drift guard for the hand-kept project tables in ``repro.devtools.tables``.

The rules match call sites against names listed there; a name that no
longer exists in the codebase makes its rule silently blind.  Until the
tables are derived from the code, this test ties each project table
back to it (the rest of the module is stdlib knowledge).
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.devtools import tables
from repro.gf import kernels, linalg
from repro.gf.field import GaloisField


def _repro_classes() -> set:
    """Every class name defined across the ``repro`` package."""
    classes: set = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        classes |= {
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        }
    return classes


def test_tables_name_what_the_code_defines():
    assert sorted(
        name
        for name in tables.GF_LINALG_FUNCTIONS
        if not (hasattr(linalg, name) or hasattr(kernels, name))
    ) == []
    field_calls = tables.CPU_HEAVY_GF_CALLS - tables.GF_LINALG_FUNCTIONS
    assert sorted(name for name in field_calls if not hasattr(GaloisField, name)) == []

    classes = _repro_classes()
    assert {
        attr: cls
        for attr, cls in tables.KNOWN_RECEIVER_CLASSES.items()
        if cls not in classes
    } == {}
