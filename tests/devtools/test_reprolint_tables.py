"""Drift guard for the hand-kept project tables in ``repro.devtools.tables``.

The rules match call sites against names listed there; a name that no
longer exists in the codebase makes its rule silently blind.  Until the
tables are derived from the code, this test ties each one back to it.
"""

from __future__ import annotations

import ast
import pathlib

import repro
from repro.devtools import tables
from repro.gf import kernels, linalg
from repro.gf.field import GaloisField

#: ``ASYNC_METHODS`` entries that are asyncio's own (streams, locks),
#: not ``async def``s of this project.
ASYNCIO_STREAM_METHODS = frozenset({"drain", "wait_closed", "readexactly", "acquire"})


def _repro_definitions() -> tuple[set, set]:
    """(class names, ``async def`` names) across the ``repro`` package."""
    classes: set = set()
    coroutines: set = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            elif isinstance(node, ast.AsyncFunctionDef):
                coroutines.add(node.name)
    return classes, coroutines


def test_tables_name_what_the_code_defines():
    gf_methods = tables.GF_FIELD_VALUE_METHODS | tables.GF_CONSUMER_METHODS
    assert sorted(name for name in gf_methods if not hasattr(GaloisField, name)) == []

    assert sorted(
        name
        for name in tables.GF_LINALG_FUNCTIONS
        if not (hasattr(linalg, name) or hasattr(kernels, name))
    ) == []

    classes, coroutines = _repro_definitions()
    assert {
        attr: cls
        for attr, cls in tables.KNOWN_RECEIVER_CLASSES.items()
        if cls not in classes
    } == {}

    assert sorted(
        tables.ASYNC_METHODS - ASYNCIO_STREAM_METHODS - coroutines
    ) == []
