"""The layer order of the system the paper measures, read off the imports.

``repro.gf`` (field and kernels) sits under ``repro.core`` (the code),
which sits under ``repro.net`` (the live stack); ``repro.obs`` is a leaf
any of them may use.  None of the four may reach up into the packages
built on top of them -- ``codes``, ``p2p``, ``analysis`` -- or sideways
into any other.  Above the boundary, the baseline schemes (``codes``)
and the analytic models (``analysis``) stand on ``core`` alone, and the
simulator (``p2p``) on ``core`` and ``codes``; none of them reaches into
``net`` or into each other beyond that.  The linter (``devtools``) reads
the code it checks as text and imports none of it.  Every import counts,
including the ones inside functions.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Each layer and the ``repro`` packages its modules may import.
ALLOWED = {
    "obs": {"obs"},
    "gf": {"gf"},
    "core": {"gf", "core"},
    "net": {"gf", "core", "net", "obs"},
    "codes": {"gf", "core", "codes"},
    "analysis": {"gf", "core", "analysis"},
    "p2p": {"gf", "core", "codes", "p2p"},
    "devtools": {"devtools"},
}


def imported_packages(path: pathlib.Path) -> set[str]:
    """The ``repro.<package>`` names a module imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            module = node.module or ""
            # ``from repro import x`` names the package ``x``.
            names = (
                [f"repro.{alias.name}" for alias in node.names]
                if module == "repro"
                else [module]
            )
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


@pytest.mark.parametrize("layer", sorted(ALLOWED))
def test_layer_imports_only_layers_below(layer):
    modules = sorted((SRC / layer).rglob("*.py"))
    assert modules
    upward = {
        f"{path.relative_to(SRC)} imports repro.{package}"
        for path in modules
        for package in imported_packages(path) - ALLOWED[layer]
    }
    assert not upward


def test_checker_sees_an_upward_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from repro.gf import kernels\n"
        "def f():\n"
        "    from repro import codes\n"
        "    import repro.p2p.system\n"
    )
    assert imported_packages(module) == {"gf", "codes", "p2p"}
