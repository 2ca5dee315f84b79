"""Rule base classes and the small AST helpers the per-file rules share."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding

__all__ = [
    "Rule",
    "ProjectRule",
    "terminal_name",
    "iter_scopes",
    "iter_scope_nodes",
]


class Rule:
    """One per-file rule: a code, a description, and a ``check``.

    ``roles`` limits where the rule runs: ``{"src", "test"}`` rules see
    everything, ``{"src"}`` rules skip test files (tests legitimately
    time with the wall clock, block and leak on purpose, where
    production code must not).
    """

    code: str = "RL000"
    name: str = "abstract"
    description: str = ""
    roles: frozenset = frozenset({"src", "test"})

    @property
    def codes(self) -> tuple:
        """Every code this rule may emit (``--select``/``--ignore``
        filter on these; :attr:`code` stays the primary one)."""
        return (self.code,)

    def check(self, ctx) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs to see several files at once (the RL5xx flow
    analysis resolves calls across the whole project).  Subclasses that
    emit several codes list them in ``codes``."""

    def check_project(self, ctxs) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, ctx) -> Iterator[Finding]:  # pragma: no cover - unused
        return iter(())


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a name/attribute chain.

    ``foo`` -> ``foo``; ``self.field.multiply`` -> ``multiply``;
    anything else -> ``None``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def iter_scopes(tree: ast.AST):
    """Module scope plus each function scope, nested functions excluded
    from their parent so taint does not leak across scopes."""
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    yield tree
    yield from functions


def iter_scope_nodes(scope: ast.AST):
    """Walk one scope without descending into nested function bodies."""

    def visit(node: ast.AST):
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                child is not node
            ):
                continue
            yield from visit(child)

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for stmt in scope.body:
            yield from visit(stmt)
    else:
        for stmt in getattr(scope, "body", []):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield from visit(stmt)
