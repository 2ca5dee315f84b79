"""Per-file flow analysis: intra-procedural rules and call summaries.

This module owns everything computable from one file alone:

- **RL501** -- a forward dataflow pass over the CFG.  Reading a ``self``
  attribute opens a *pending read* carrying the lock set held at the
  read; every ``await`` intersects pending covers with the locks held at
  the suspension point (an empty intersection means the read-to-write
  window crossed an await unprotected); a write to the attribute with a
  torn pending read is the finding.  Event order inside one statement is
  reads, then awaits, then writes -- so ``self.x += 1`` is atomic, while
  ``self.x = await f(self.x)`` tears.

- **RL503** -- for every resource acquisition bound to a local name, a
  DFS over normal *and* exception edges; a path that reaches function
  exit without releasing, re-binding, or transferring the resource
  (passing it to a callee, returning it, storing it in a container or
  attribute) is a leak path.

- **Function summaries** -- call sites and direct blocking-primitive
  hits, for the interprocedural RL502 pass in
  :mod:`~repro.devtools.flow.callgraph`.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

from repro.devtools.flow.cfg import CFG, CFGNode, _part_ast, build_cfg
from repro.devtools.findings import Finding
from repro.devtools.tables import (
    BLOCKING_FILE_METHODS,
    BLOCKING_MODULE_CALLS,
    CPU_HEAVY_GF_CALLS,
    OFFLOAD_CALL_NAMES,
    RESOURCE_ACQUIRE_CALLS,
    RESOURCE_RELEASE_METHODS,
)

__all__ = ["CallSite", "FunctionSummary", "FileFlowInfo", "analyze_file"]


# ---------------------------------------------------------------------------
# summary types
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CallSite:
    """One call in a function body, as the call graph sees it."""

    ref: list  # [name] or [receiver, name]; receiver "?" when dynamic
    line: int
    col: int


@dataclasses.dataclass
class FunctionSummary:
    """Everything the interprocedural pass needs about one function."""

    module: str
    cls: str | None  # owning class for direct methods, else None
    name: str
    is_async: bool
    lineno: int
    calls: list  # list[CallSite]
    #: Blocking primitives executed directly: [{"label", "line", "col"}].
    direct_blocking: list

    @property
    def qualname(self) -> str:
        if self.cls:
            return f"{self.module}.{self.cls}.{self.name}"
        return f"{self.module}.{self.name}"

    @property
    def display(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclasses.dataclass
class FileFlowInfo:
    """The per-file analysis product."""

    path: str
    module: str
    functions: list  # list[FunctionSummary]
    #: Intra-procedural findings (RL501/RL503), pre-suppression.
    local_findings: list  # list[Finding]


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


# ---------------------------------------------------------------------------
# statement events (RL501)
# ---------------------------------------------------------------------------


def _expr_events(expr, out: list) -> None:
    """Append (kind, ...) events of ``expr`` in evaluation order."""
    if isinstance(expr, ast.Await):
        _expr_events(expr.value, out)
        out.append(("await",))
        return
    if isinstance(expr, ast.Call):
        _expr_events(expr.func, out)
        for arg in expr.args:
            _expr_events(arg, out)
        for keyword in expr.keywords:
            _expr_events(keyword.value, out)
        return
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            if isinstance(expr.ctx, ast.Load):
                out.append(("read", expr.attr))
            return
        _expr_events(expr.value, out)
        return
    if isinstance(expr, ast.Lambda):
        return  # the body runs later, if ever
    if isinstance(expr, ast.AST):
        for child in ast.iter_child_nodes(expr):
            _expr_events(child, out)


def _write_events(target, out: list) -> None:
    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            out.append(("write", target.attr))
        else:
            _expr_events(target.value, out)
        return
    if isinstance(target, ast.Subscript):
        # ``self.d[k] = v`` mutates the mapping behind ``self.d``; for
        # torn-RMW purposes that *is* a write to the attribute.
        _expr_events(target.slice, out)
        if isinstance(target.value, ast.Attribute) and isinstance(
            target.value.value, ast.Name
        ) and target.value.value.id == "self":
            out.append(("write", target.value.attr))
        else:
            _expr_events(target.value, out)
        return
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _write_events(elt, out)
        return
    if isinstance(target, ast.Starred):
        _write_events(target.value, out)


def _node_events(node: CFGNode) -> list:
    stmt = node.stmt
    if stmt is None:
        return []
    out: list = []
    if node.part == "test":
        _expr_events(stmt.test, out)
    elif node.part == "iter":
        _expr_events(stmt.iter, out)
        if isinstance(stmt, ast.AsyncFor):
            out.append(("await",))
        _write_events(stmt.target, out)
    elif node.part == "enter":
        for item in stmt.items:
            _expr_events(item.context_expr, out)
            if isinstance(stmt, ast.AsyncWith):
                out.append(("await",))
            if item.optional_vars is not None:
                _write_events(item.optional_vars, out)
    elif node.part == "exit":
        if isinstance(stmt, ast.AsyncWith):
            out.append(("await",))
    elif node.part in ("except", "finally"):
        pass
    elif isinstance(stmt, ast.Assign):
        _expr_events(stmt.value, out)
        for target in stmt.targets:
            _write_events(target, out)
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            _expr_events(stmt.value, out)
            _write_events(stmt.target, out)
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Attribute) and isinstance(
            stmt.target.value, ast.Name
        ) and stmt.target.value.id == "self":
            out.append(("read", stmt.target.attr))
        _expr_events(stmt.value, out)
        _write_events(stmt.target, out)
    elif isinstance(stmt, (ast.Expr, ast.Return)):
        if stmt.value is not None:
            _expr_events(stmt.value, out)
    elif isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            _expr_events(stmt.exc, out)
    elif isinstance(stmt, ast.Assert):
        _expr_events(stmt.test, out)
    elif isinstance(stmt, ast.Match):
        _expr_events(stmt.subject, out)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id == "self":
                out.append(("write", target.attr))
    return out


# ---------------------------------------------------------------------------
# RL501: torn read-modify-write
# ---------------------------------------------------------------------------

#: Attribute-name suffixes that are concurrency primitives or config, not
#: shared mutable state; reads of these never open a pending window.
_RL501_IGNORED_READS = ("lock", "sem", "mutex", "obs")


def _rl501(cfg: CFG, func, path: str, findings: list) -> None:
    events = [_node_events(node) for node in cfg.nodes]
    if not any(event == ("await",) for node in events for event in node):
        return

    # state: attr -> frozenset of (cover frozenset, torn bool)
    states: list = [None] * len(cfg.nodes)
    states[cfg.entry] = {}
    worklist = [cfg.entry]
    reported: set = set()

    def transfer(state: dict, node: CFGNode) -> dict:
        state = {attr: set(pending) for attr, pending in state.items()}
        for event in events[node.nid]:
            if event[0] == "read":
                attr = event[1]
                if any(hint in attr.lower() for hint in _RL501_IGNORED_READS):
                    continue
                state.setdefault(attr, set()).add((node.locks, False))
            elif event[0] == "await":
                for attr, pending in state.items():
                    updated = set()
                    for cover, torn in pending:
                        cover = frozenset(cover) & node.locks
                        updated.add((cover, torn or not cover))
                    state[attr] = updated
            elif event[0] == "write":
                attr = event[1]
                pending = state.get(attr, set())
                if any(torn for _, torn in pending):
                    key = (attr, node.line)
                    if key not in reported:
                        reported.add(key)
                        findings.append(
                            Finding(
                                path=path,
                                line=node.line,
                                col=getattr(node.stmt, "col_offset", 0) + 1,
                                code="RL501",
                                message=(
                                    f"`self.{attr}` is read and later rewritten in "
                                    f"`{func.name}` across an await with no lock "
                                    "covering the window; another task can "
                                    "interleave an update between the read and "
                                    "this write (torn read-modify-write) -- hold "
                                    "one lock across both, or re-read after the "
                                    "await"
                                ),
                            )
                        )
                state[attr] = set()
        return state

    def merge(left: dict | None, right: dict) -> tuple:
        if left is None:
            return {attr: set(p) for attr, p in right.items()}, True
        changed = False
        for attr, pending in right.items():
            known = left.setdefault(attr, set())
            extra = pending - known
            if extra:
                known |= extra
                changed = True
        return left, changed

    while worklist:
        nid = worklist.pop()
        out = transfer(states[nid], cfg.nodes[nid])
        for succ in cfg.successors(nid):
            merged, changed = merge(states[succ], out)
            states[succ] = merged
            if changed:
                worklist.append(succ)


# ---------------------------------------------------------------------------
# RL503: resource leak paths
# ---------------------------------------------------------------------------


def _unwrap_call(expr):
    """The resource-producing call under ``await``/``wait_for`` wrappers."""
    if isinstance(expr, ast.Await):
        expr = expr.value
    if isinstance(expr, ast.Call):
        name = None
        if isinstance(expr.func, ast.Attribute):
            name = expr.func.attr
        elif isinstance(expr.func, ast.Name):
            name = expr.func.id
        if name == "wait_for" and expr.args and isinstance(expr.args[0], ast.Call):
            return expr.args[0]
        return expr
    return None


def _callee_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


_ESCAPE_PARENTS = (
    ast.Call,
    ast.keyword,
    ast.Return,
    ast.Yield,
    ast.YieldFrom,
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.NamedExpr,
    ast.Tuple,
    ast.List,
    ast.Set,
    ast.Dict,
    ast.Starred,
    ast.withitem,
    ast.Await,
)


def _name_effect(root: ast.AST, name: str) -> str:
    """How this node treats local ``name``: release > kill > escape > use
    > none.  "use" (attribute access, truthiness, comparison) keeps an
    RL503 path alive; the other three end it."""
    parents: dict = {}
    for parent in ast.walk(root):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    effect = "none"
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            callee = _callee_name(node)
            if callee in RESOURCE_RELEASE_METHODS:
                if (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    return "release"
                if any(
                    isinstance(arg, ast.Name) and arg.id == name for arg in node.args
                ):
                    return "release"
        if isinstance(node, ast.Name) and node.id == name:
            if isinstance(node.ctx, ast.Store):
                effect = _stronger(effect, "kill")
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                effect = _stronger(effect, "use")
            elif isinstance(parent, _ESCAPE_PARENTS):
                effect = _stronger(effect, "escape")
            else:
                effect = _stronger(effect, "use")
    return effect


_EFFECT_RANK = {"none": 0, "use": 1, "escape": 2, "kill": 3, "release": 4}


def _stronger(current: str, candidate: str) -> str:
    return candidate if _EFFECT_RANK[candidate] > _EFFECT_RANK[current] else current


def _acquire_sites(cfg: CFG) -> list:
    """``(nid, local name, label)`` for every tracked acquisition."""
    sites: list = []
    constructed: set = set()
    retired: set = set()
    for node in cfg.nodes:
        stmt = node.stmt
        if stmt is None or node.part != "whole":
            continue
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            call = _unwrap_call(stmt.value)
            target = stmt.targets[0]
            if call is not None:
                callee = _callee_name(call)
                binding = RESOURCE_ACQUIRE_CALLS.get(callee)
                if binding == "writer" and isinstance(target, ast.Tuple):
                    elts = target.elts
                    if len(elts) == 2 and isinstance(elts[1], ast.Name):
                        sites.append((node.nid, elts[1].id, f"{callee}(...)"))
                        continue
                if binding is not None and isinstance(target, ast.Name):
                    sites.append((node.nid, target.id, f"{callee}(...)"))
                    continue
                if isinstance(target, ast.Name):
                    constructed.add(target.id)
                    retired.discard(target.id)
                    continue
            if isinstance(target, ast.Name):
                retired.add(target.id)
        elif isinstance(stmt, ast.Expr):
            call = _unwrap_call(stmt.value)
            if (
                call is not None
                and _callee_name(call) == "start"
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
            ):
                owner = call.func.value.id
                if owner in constructed and owner not in retired:
                    sites.append((node.nid, owner, f"{owner}.start()"))
                continue
            # Any other mention may hand the object away; stop treating a
            # later .start() on it as this function's acquisition.
            for name in list(constructed):
                if _name_effect(stmt, name) in ("escape", "kill"):
                    retired.add(name)
        else:
            for name in list(constructed):
                if _name_effect(_part_ast(stmt, node.part), name) in (
                    "escape",
                    "kill",
                ):
                    retired.add(name)
    return sites


def _rl503(cfg: CFG, func, path: str, findings: list) -> None:
    for nid, name, label in _acquire_sites(cfg):
        origin = cfg.nodes[nid]
        effects: dict = {}

        def effect_of(node: CFGNode) -> str:
            cached = effects.get(node.nid)
            if cached is None:
                if node.stmt is None:
                    cached = "none"
                else:
                    cached = _name_effect(_part_ast(node.stmt, node.part), name)
                effects[node.nid] = cached
            return cached

        stack = list(origin.succs)
        seen: set = set()
        leaked = False
        while stack and not leaked:
            nid2 = stack.pop()
            if nid2 in seen:
                continue
            seen.add(nid2)
            if nid2 == cfg.exit:
                leaked = True
                break
            node = cfg.nodes[nid2]
            if effect_of(node) in ("release", "escape", "kill"):
                continue
            stack.extend(node.succs)
            stack.extend(node.raise_succs)
        if leaked:
            findings.append(
                Finding(
                    path=path,
                    line=origin.line,
                    col=getattr(origin.stmt, "col_offset", 0) + 1,
                    code="RL503",
                    message=(
                        f"`{name}` acquired via `{label}` in `{func.name}` has a "
                        "path to function exit (including exception edges) that "
                        "never releases it; close it in a `finally`, use "
                        "`async with`, or transfer ownership explicitly"
                    ),
                )
            )


# ---------------------------------------------------------------------------
# call-site / blocking summaries (consumed by callgraph.py)
# ---------------------------------------------------------------------------


def _call_ref(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            return [value.id, func.attr]
        if isinstance(value, ast.Attribute):
            return [value.attr, func.attr]
        return ["?", func.attr]
    return None


def _iter_calls(root: ast.AST):
    """Calls that execute when ``root`` evaluates (lambda bodies don't)."""

    def visit(node):
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    yield from visit(root)


def _summarize(cfg: CFG, func, module: str, cls: str | None) -> FunctionSummary:
    calls: list = []
    direct_blocking: list = []

    for node in cfg.nodes:
        if node.stmt is None:
            continue
        for call in _iter_calls(_part_ast(node.stmt, node.part)):
            ref = _call_ref(call)
            if ref is None:
                continue
            name = ref[-1]
            line = getattr(call, "lineno", node.line)
            col = getattr(call, "col_offset", 0) + 1
            if name in OFFLOAD_CALL_NAMES:
                continue
            label = None
            if len(ref) == 2 and (ref[0], ref[1]) in BLOCKING_MODULE_CALLS:
                label = BLOCKING_MODULE_CALLS[(ref[0], ref[1])]
            elif len(ref) == 2 and name in BLOCKING_FILE_METHODS:
                label = f"synchronous file I/O (`.{name}()`)"
            elif name in CPU_HEAVY_GF_CALLS:
                label = f"the CPU-heavy GF kernel `{name}()`"
            elif ref == ["open"]:
                label = "builtin open()"
            if label is not None:
                direct_blocking.append({"label": label, "line": line, "col": col})
                continue
            if len(ref) == 2 and ref[0] in ("?",) and name in RESOURCE_RELEASE_METHODS:
                continue
            calls.append(CallSite(ref=ref, line=line, col=col))

    return FunctionSummary(
        module=module,
        cls=cls,
        name=func.name,
        is_async=isinstance(func, ast.AsyncFunctionDef),
        lineno=func.lineno,
        calls=calls,
        direct_blocking=direct_blocking,
    )


# ---------------------------------------------------------------------------
# per-file driver
# ---------------------------------------------------------------------------


def _iter_functions(tree: ast.AST):
    """Yield ``(func, method_class)`` for every function.

    ``method_class`` is set only for direct class-body methods, which is
    what call resolution keys ``self.meth()`` on.
    """

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name if isinstance(node, ast.ClassDef) else None
                yield child, owner
            yield from visit(child)

    yield from visit(tree)


def analyze_file(ctx) -> FileFlowInfo:
    """Run the intra-procedural passes over one parsed file."""
    path = str(ctx.path)
    module = _module_name(pathlib.Path(path))
    functions: list = []
    local_findings: list = []
    for func, method_class in _iter_functions(ctx.tree):
        cfg = build_cfg(func)
        if isinstance(func, ast.AsyncFunctionDef):
            _rl501(cfg, func, path, local_findings)
        _rl503(cfg, func, path, local_findings)
        functions.append(_summarize(cfg, func, module, method_class))
    local_findings.sort()
    return FileFlowInfo(
        path=path, module=module, functions=functions, local_findings=local_findings
    )
