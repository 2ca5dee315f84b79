"""RL5xx: flow rules for the asyncio stack -- torn read-modify-write,
blocking reachability, resource leak paths.

One :class:`FlowRule` owns the family: RL502 needs every file's call
summaries, so three rule objects would analyze the tree three times.
``--select RL503`` still works, as the engine filters by code after
emission.  Production code only (``roles={"src"}``): a test that calls
``time.sleep`` in a stub daemon is exercising timeouts, not shipping a
stalled event loop.

No control-flow graph is built.  RL501 and RL503 walk each function's
statements in source order (:class:`_Walk`), carrying a state through
branches, loops and ``try`` nesting:

- **RL501** -- the state is the pending ``self.<attr>`` reads, each with
  the locks the enclosing ``async with`` blocks hold at the read.  An
  ``await`` keeps only the locks still held; a read left with none is
  torn, and a write to an attribute with a torn pending read is the
  finding.  Event order inside one statement is reads, then awaits, then
  writes, so ``self.x += 1`` is atomic while ``self.x = await
  f(self.x)`` tears.
- **RL503** -- per resource acquisition bound to a local name, the state
  is whether it is still held.  A statement part holding a call, an
  await or a subscript may raise into the enclosing ``try``'s handlers
  and ``finally``, or out of the function; ``return`` runs the innermost
  ``finally``.  Still holding the resource at function exit, with no
  release, re-bind or ownership transfer on the way, is a leak path.
- **RL502** -- one AST walk per function gives its call sites and direct
  blocking-primitive hits; :class:`CallGraph` resolves the call sites
  across the project and follows sync callees to a blocking primitive.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import operator
import pathlib
from typing import Iterator

from repro.devtools.findings import Finding
from repro.devtools.rules.base import ProjectRule, terminal_name
from repro.devtools.tables import (
    BLOCKING_FILE_METHODS,
    BLOCKING_MODULE_CALLS,
    CPU_HEAVY_GF_CALLS,
    KNOWN_RECEIVER_CLASSES,
    LOCK_NAME_HINTS,
    METHOD_RESOLUTION_STOPLIST,
    OFFLOAD_CALL_NAMES,
    RESOURCE_ACQUIRE_CALLS,
    RESOURCE_RELEASE_METHODS,
    STDLIB_MODULE_RECEIVERS,
)

__all__ = ["FlowRule", "CallGraph", "FunctionSummary", "analyze_file"]


# ---------------------------------------------------------------------------
# the statement walk shared by RL501 and RL503
# ---------------------------------------------------------------------------


def _lock_identity(expr: ast.AST) -> str | None:
    """The lock an ``async with`` item holds, or ``None`` if it holds none.

    ``self._lock`` is ``"self._lock"``, so another object's ``_lock``
    never covers a window on a ``self`` attribute.
    """
    name = terminal_name(expr)
    if name is None or not any(hint in name.lower() for hint in LOCK_NAME_HINTS):
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self":
            return f"self.{name}"
    return name


def _part_ast(stmt: ast.AST, part: str) -> ast.AST:
    """The AST fragment a statement part evaluates.

    Parts: ``"whole"`` for a simple statement, ``"test"`` (if/while),
    ``"iter"`` (for), ``"enter"``/``"exit"`` (with) and ``"except"``
    (a handler head).
    """
    if part == "test":
        return stmt.test
    if part == "iter":
        return stmt.iter
    if part == "enter":
        # Keep the withitem wrappers: RL503 reads ``with conn:`` as
        # handing the resource to a context manager.
        return ast.With(items=stmt.items, body=[ast.Pass()])
    if part in ("exit", "except"):
        return ast.Pass()
    return stmt


def _may_raise(stmt: ast.AST, part: str) -> bool:
    if part in ("enter", "exit", "except") or isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return any(
        isinstance(node, (ast.Call, ast.Await, ast.Subscript))
        for node in ast.walk(_part_ast(stmt, part))
    )


def _catches_all(handler: ast.ExceptHandler) -> bool:
    return handler.type is None or (
        isinstance(handler.type, ast.Name) and handler.type.id == "BaseException"
    )


class _Cell:
    """A join point: the joined states of every path that reaches it."""

    def __init__(self):
        self.state = None


class _Walk:
    """One function's body walked in source order over an abstract state.

    A subclass supplies ``step(stmt, part, state) -> (after, on_raise)``
    and ``join``; ``None`` is the state of code no path reaches.  Loops
    are walked again until the state at their head stops growing.  A
    part that may raise sends ``on_raise`` to the innermost ``try``'s
    handlers and ``finally`` (from a handler or ``else`` body: to the
    ``finally`` only), or to function exit.  ``return`` goes to the
    innermost ``finally``; the end of a ``finally`` reaches function exit
    as well as the next statement, and ``break``/``continue`` jump
    straight to their loop.  :attr:`locks` holds the locks of the
    enclosing ``async with`` blocks.
    """

    def __init__(self, func):
        self.func = func
        self.exit = _Cell()
        self.raises: list[list[_Cell]] = [[self.exit]]
        self.finals: list[_Cell] = []
        self.loops: list[tuple[_Cell, _Cell]] = []
        self.locks: frozenset = frozenset()

    def run(self, state):
        """Walk the body from ``state``; the joined state at exit."""
        self.send(self.exit, self.block(self.func.body, state))
        return self.exit.state

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return self.join(left, right)

    def send(self, cell: _Cell, state) -> None:
        cell.state = self.merge(cell.state, state)

    def part(self, stmt, part: str, state, may_raise: bool | None = None):
        after, on_raise = self.step(stmt, part, state)
        if _may_raise(stmt, part) if may_raise is None else may_raise:
            for cell in self.raises[-1]:
                self.send(cell, on_raise)
        return after

    def block(self, stmts, state):
        for stmt in stmts:
            if state is None:
                break
            state = self.stmt(stmt, state)
        return state

    def stmt(self, stmt, state):
        if isinstance(stmt, ast.If):
            state = self.part(stmt, "test", state)
            return self.merge(self.block(stmt.body, state), self.block(stmt.orelse, state))
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self.loop(stmt, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            state = self.part(stmt, "enter", state)
            outer = self.locks
            if isinstance(stmt, ast.AsyncWith):
                held = (_lock_identity(item.context_expr) for item in stmt.items)
                self.locks = outer | {lock for lock in held if lock is not None}
            state = self.block(stmt.body, state)
            self.locks = outer
            return None if state is None else self.part(stmt, "exit", state)
        if isinstance(stmt, ast.Try):
            return self.try_(stmt, state)
        after = self.part(stmt, "whole", state)
        if isinstance(stmt, ast.Return):
            self.send(self.finals[-1] if self.finals else self.exit, after)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loops:
                self.send(self.loops[-1][isinstance(stmt, ast.Continue)], after)
        elif not isinstance(stmt, ast.Raise):  # a raise went to its handlers
            return after
        return None

    def loop(self, stmt, state):
        breaks, continues = _Cell(), _Cell()
        part = "test" if isinstance(stmt, ast.While) else "iter"
        while True:
            head = self.part(stmt, part, state)
            self.loops.append((breaks, continues))
            end = self.merge(self.block(stmt.body, head), continues.state)
            self.loops.pop()
            grown = self.merge(state, end)
            if grown == state:
                return self.merge(self.block(stmt.orelse, head), breaks.state)
            state = grown

    def try_(self, stmt: ast.Try, state):
        final = _Cell() if stmt.finalbody else None
        onward = [final] if final is not None else self.raises[-1]
        handlers = [_Cell() for _ in stmt.handlers]
        # The body raises into the handlers, and into the finally too
        # (an exception no handler matches).
        self.raises.append(handlers + ([final] if final is not None else []))
        if final is not None:
            self.finals.append(final)
        body = self.block(stmt.body, state)
        self.raises[-1] = onward
        ends = [self.block(stmt.orelse, body)]
        for cell, handler in zip(handlers, stmt.handlers):
            if cell.state is not None:
                # A typed handler may not match: its head raises onward.
                head = self.part(handler, "except", cell.state, not _catches_all(handler))
                ends.append(self.block(handler.body, head))
        self.raises.pop()
        if final is None:
            return functools.reduce(self.merge, ends)
        self.finals.pop()
        for end in ends:
            self.send(final, end)
        if final.state is None:
            return None
        tail = self.block(stmt.finalbody, final.state)
        self.send(self.exit, tail)
        return tail


# ---------------------------------------------------------------------------
# RL501: torn read-modify-write
# ---------------------------------------------------------------------------

#: Attribute-name substrings of concurrency primitives and metrics, not
#: shared mutable state; reads of these never open a pending window.
_RL501_IGNORED_READS = ("lock", "sem", "mutex", "obs")


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _expr_events(expr, out: list) -> None:
    """Append the ``(kind, attr)`` events of ``expr`` in evaluation order."""
    if isinstance(expr, ast.Await):
        _expr_events(expr.value, out)
        out.append(("await", None))
    elif isinstance(expr, ast.Call):
        _expr_events(expr.func, out)
        for arg in expr.args:
            _expr_events(arg, out)
        for keyword in expr.keywords:
            _expr_events(keyword.value, out)
    elif _is_self_attr(expr):
        if isinstance(expr.ctx, ast.Load):
            out.append(("read", expr.attr))
    elif isinstance(expr, ast.Attribute):
        _expr_events(expr.value, out)
    elif not isinstance(expr, ast.Lambda):  # a lambda body runs later, if ever
        for child in ast.iter_child_nodes(expr):
            _expr_events(child, out)


def _write_events(target, out: list) -> None:
    if _is_self_attr(target):
        out.append(("write", target.attr))
    elif isinstance(target, ast.Attribute):
        _expr_events(target.value, out)
    elif isinstance(target, ast.Subscript):
        # ``self.d[k] = v`` mutates the mapping behind ``self.d``: for a
        # torn read-modify-write that *is* a write to the attribute.
        _expr_events(target.slice, out)
        if _is_self_attr(target.value):
            out.append(("write", target.value.attr))
        else:
            _expr_events(target.value, out)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _write_events(elt, out)
    elif isinstance(target, ast.Starred):
        _write_events(target.value, out)


def _events(stmt, part: str) -> list:
    out: list = []
    if part == "test":
        _expr_events(stmt.test, out)
    elif part == "iter":
        _expr_events(stmt.iter, out)
        if isinstance(stmt, ast.AsyncFor):
            out.append(("await", None))
        _write_events(stmt.target, out)
    elif part == "enter":
        for item in stmt.items:
            _expr_events(item.context_expr, out)
            if isinstance(stmt, ast.AsyncWith):
                out.append(("await", None))
            if item.optional_vars is not None:
                _write_events(item.optional_vars, out)
    elif part == "exit":
        if isinstance(stmt, ast.AsyncWith):
            out.append(("await", None))
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        if stmt.value is not None:
            _expr_events(stmt.value, out)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                _write_events(target, out)
    elif isinstance(stmt, ast.AugAssign):
        if _is_self_attr(stmt.target):
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
            if _is_self_attr(target):
                out.append(("write", target.attr))
    return out


class _TornWrites(_Walk):
    """RL501 over one async function: attr -> {(cover, torn)} pending."""

    def __init__(self, func, path: str, findings: list):
        super().__init__(func)
        self.path = path
        self.findings = findings
        self.reported: set = set()

    @staticmethod
    def join(left: dict, right: dict) -> dict:
        return {
            attr: left.get(attr, frozenset()) | right.get(attr, frozenset())
            for attr in left.keys() | right.keys()
        }

    def step(self, stmt, part: str, state: dict):
        state = dict(state)
        for kind, attr in _events(stmt, part):
            if kind == "read":
                if not any(hint in attr.lower() for hint in _RL501_IGNORED_READS):
                    state[attr] = state.get(attr, frozenset()) | {(self.locks, False)}
            elif kind == "await":
                state = {
                    name: frozenset(
                        (cover & self.locks, torn or not cover & self.locks)
                        for cover, torn in pending
                    )
                    for name, pending in state.items()
                }
            elif any(torn for _, torn in state.pop(attr, ())):
                self.report(stmt, attr)
        return state, state

    def report(self, stmt, attr: str) -> None:
        if (attr, stmt.lineno) in self.reported:
            return
        self.reported.add((attr, stmt.lineno))
        self.findings.append(
            Finding(
                path=self.path,
                line=stmt.lineno,
                col=stmt.col_offset + 1,
                code="RL501",
                message=(
                    f"`self.{attr}` is read and later rewritten in "
                    f"`{self.func.name}` across an await with no lock "
                    "covering the window; another task can interleave an "
                    "update between the read and this write (torn "
                    "read-modify-write) -- hold one lock across both, or "
                    "re-read after the await"
                ),
            )
        )


# ---------------------------------------------------------------------------
# RL503: resource leak paths
# ---------------------------------------------------------------------------


def _unwrap_call(expr):
    """The resource-producing call under ``await``/``wait_for`` wrappers."""
    if isinstance(expr, ast.Await):
        expr = expr.value
    if not isinstance(expr, ast.Call):
        return None
    if terminal_name(expr.func) == "wait_for" and expr.args:
        if isinstance(expr.args[0], ast.Call):
            return expr.args[0]
    return expr


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

_EFFECT_RANK = {"none": 0, "use": 1, "escape": 2, "kill": 3, "release": 4}


def _name_effect(root: ast.AST, name: str) -> str:
    """How ``root`` treats local ``name``: release > kill > escape > use
    > none.  A use (attribute access, truthiness, comparison) keeps the
    resource held; the other three end an RL503 path."""
    parents = {
        child: parent
        for parent in ast.walk(root)
        for child in ast.iter_child_nodes(parent)
    }
    effect = "none"
    for node in ast.walk(root):
        if isinstance(node, ast.Call) and terminal_name(node.func) in RESOURCE_RELEASE_METHODS:
            receiver = getattr(node.func, "value", None)
            if isinstance(receiver, ast.Name) and receiver.id == name:
                return "release"
            if any(isinstance(arg, ast.Name) and arg.id == name for arg in node.args):
                return "release"
        if isinstance(node, ast.Name) and node.id == name:
            parent = parents.get(node)
            if isinstance(node.ctx, ast.Store):
                found = "kill"
            elif isinstance(parent, ast.Attribute) and parent.value is node:
                found = "use"
            elif isinstance(parent, _ESCAPE_PARENTS):
                found = "escape"
            else:
                found = "use"
            effect = max(effect, found, key=_EFFECT_RANK.__getitem__)
    return effect


_COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith, ast.Try)


def _simple_statements(stmts):
    """Every simple statement of a body, nested blocks included, in
    source order."""
    for stmt in stmts:
        if not isinstance(stmt, _COMPOUND):
            yield stmt
            continue
        yield from _simple_statements(stmt.body)
        for handler in getattr(stmt, "handlers", ()):
            yield from _simple_statements(handler.body)
        yield from _simple_statements(getattr(stmt, "orelse", ()))
        yield from _simple_statements(getattr(stmt, "finalbody", ()))


def _acquire_sites(func) -> list:
    """``(stmt, local name, label)`` for every tracked acquisition."""
    sites: list = []
    constructed: set = set()
    retired: set = set()
    for stmt in _simple_statements(func.body):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            call = _unwrap_call(stmt.value)
            target = stmt.targets[0]
            if call is not None:
                callee = terminal_name(call.func)
                binding = RESOURCE_ACQUIRE_CALLS.get(callee)
                if binding == "writer" and isinstance(target, ast.Tuple):
                    if len(target.elts) == 2 and isinstance(target.elts[1], ast.Name):
                        sites.append((stmt, target.elts[1].id, f"{callee}(...)"))
                        continue
                if binding is not None and isinstance(target, ast.Name):
                    sites.append((stmt, target.id, f"{callee}(...)"))
                    continue
                if isinstance(target, ast.Name):
                    constructed.add(target.id)
                    retired.discard(target.id)
                    continue
            if isinstance(target, ast.Name):
                retired.add(target.id)
            continue
        call = _unwrap_call(stmt.value) if isinstance(stmt, ast.Expr) else None
        if (
            call is not None
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "start"
            and isinstance(call.func.value, ast.Name)
        ):
            owner = call.func.value.id
            if owner in constructed and owner not in retired:
                sites.append((stmt, owner, f"{owner}.start()"))
            continue
        # Any other mention may hand the object away; a later .start()
        # on it is no longer this function's acquisition.
        for name in list(constructed):
            if _name_effect(stmt, name) in ("escape", "kill"):
                retired.add(name)
    return sites


class _HeldResource(_Walk):
    """RL503 for one acquisition: the state is whether it is still held."""

    join = staticmethod(operator.or_)

    def __init__(self, func, origin, name: str):
        super().__init__(func)
        self.origin = origin
        self.name = name

    def step(self, stmt, part: str, held: bool):
        if held and _name_effect(_part_ast(stmt, part), self.name) not in ("none", "use"):
            held = False  # released, re-bound or handed away
        # A failed acquisition holds nothing: no raise carries the origin.
        return held or stmt is self.origin, held


def _rl503(func, path: str, findings: list) -> None:
    for origin, name, label in _acquire_sites(func):
        if _HeldResource(func, origin, name).run(False):
            findings.append(
                Finding(
                    path=path,
                    line=origin.lineno,
                    col=origin.col_offset + 1,
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
# RL502: per-function summaries and the call graph
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FunctionSummary:
    """Everything the call graph needs about one function."""

    path: str
    module: str
    cls: str | None  # owning class for direct methods, else None
    name: str
    is_async: bool
    #: Call sites: [(ref, line, col)], ``ref`` being ``[name]`` or
    #: ``[receiver, name]`` with receiver ``"?"`` when it is no name.
    calls: list
    #: Blocking primitives executed directly: [(label, line, col)].
    direct_blocking: list

    @property
    def display(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


def _call_ref(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        receiver = terminal_name(func.value)
        return [receiver if receiver is not None else "?", func.attr]
    return None


def _calls(func):
    """Every call in ``func``'s body in pre-order (lambda bodies never run
    here; nested function bodies count as the enclosing function's)."""

    def visit(node):
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    for stmt in func.body:
        yield from visit(stmt)


def _blocking_label(ref: list) -> str | None:
    name = ref[-1]
    if len(ref) == 2 and tuple(ref) in BLOCKING_MODULE_CALLS:
        return BLOCKING_MODULE_CALLS[tuple(ref)]
    if len(ref) == 2 and name in BLOCKING_FILE_METHODS:
        return f"synchronous file I/O (`.{name}()`)"
    if name in CPU_HEAVY_GF_CALLS:
        return f"the CPU-heavy GF kernel `{name}()`"
    if ref == ["open"]:
        return "builtin open()"
    return None


def _summarize(func, path: str, module: str, cls: str | None) -> FunctionSummary:
    calls: list = []
    direct_blocking: list = []
    for call in _calls(func):
        ref = _call_ref(call)
        if ref is None or ref[-1] in OFFLOAD_CALL_NAMES:
            continue
        site = (call.lineno, call.col_offset + 1)
        label = _blocking_label(ref)
        if label is not None:
            direct_blocking.append((label, *site))
        else:
            calls.append((ref, *site))
    return FunctionSummary(
        path=path,
        module=module,
        cls=cls,
        name=func.name,
        is_async=isinstance(func, ast.AsyncFunctionDef),
        calls=calls,
        direct_blocking=direct_blocking,
    )


class CallGraph:
    """Name-based, conservative-quiet call resolution, and RL502 on top.

    An edge exists only when the target is unambiguous:

    - ``self.meth()`` resolves within the caller's class;
    - a bare ``func()`` resolves in the caller's module, else to the
      unique project-wide function of that name;
    - ``obj.meth()`` resolves through :data:`KNOWN_RECEIVER_CLASSES`,
      else to the unique project-wide callable of that name -- unless
      the name sits on :data:`METHOD_RESOLUTION_STOPLIST`;
    - a receiver that is no name at all (``hashlib.sha256(b).digest()``,
      ``peers[i].ping()``) and a stdlib module receiver resolve to
      nothing.

    Every sync function gets a *blocking effect*: the first blocking
    primitive reachable through sync callees, with the call chain.  An
    async function calling a blocking primitive directly, or a sync
    function with an effect, is an RL502 finding at the call site.
    Async callees are skipped; they are analyzed themselves.
    """

    def __init__(self, functions):
        self.functions = functions
        #: (cls, name) -> method; (module, name) -> module-level function
        #: (first wins); name -> every function of that name.
        self.methods: dict = {}
        self.module_functions: dict = {}
        self.by_name: dict = {}
        for fn in functions:
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls is not None:
                self.methods.setdefault((fn.cls, fn.name), fn)
            else:
                self.module_functions.setdefault((fn.module, fn.name), fn)
        self._effects: dict = {}

    def resolve(self, caller: FunctionSummary, ref: list):
        name = ref[-1]
        if len(ref) == 1:
            local = self.module_functions.get((caller.module, name))
            return local if local is not None else self._unique(name, functions_only=True)
        receiver = ref[0]
        if receiver == "self" and caller.cls is not None:
            method = self.methods.get((caller.cls, name))
            if method is not None:
                return method
        if receiver == "?" or receiver in STDLIB_MODULE_RECEIVERS:
            return None
        hinted = KNOWN_RECEIVER_CLASSES.get(receiver)
        if hinted is not None:
            return self.methods.get((hinted, name))
        if name in METHOD_RESOLUTION_STOPLIST:
            return None
        return self._unique(name)

    def _unique(self, name: str, functions_only: bool = False):
        candidates = self.by_name.get(name, [])
        if functions_only:
            candidates = [fn for fn in candidates if fn.cls is None]
        return candidates[0] if len(candidates) == 1 else None

    def blocking_effect(self, fn: FunctionSummary):
        """``(label, chain)`` of the first blocking primitive reachable
        from sync ``fn`` through sync callees, or ``None``."""
        key = id(fn)
        if key in self._effects:
            return self._effects[key]
        self._effects[key] = None  # cycle guard: in progress reads clean
        result = None
        if fn.direct_blocking:
            result = (fn.direct_blocking[0][0], (fn.display,))
        else:
            for ref, _, _ in fn.calls:
                callee = self.resolve(fn, ref)
                if callee is None or callee.is_async or callee is fn:
                    continue
                effect = self.blocking_effect(callee)
                if effect is not None:
                    result = (effect[0], (fn.display,) + effect[1])
                    break
        self._effects[key] = result
        return result

    def iter_rl502(self) -> Iterator[Finding]:
        for fn in self.functions:
            if not fn.is_async:
                continue
            for label, line, col in fn.direct_blocking:
                yield Finding(
                    fn.path,
                    line,
                    col,
                    "RL502",
                    f"{label} runs on the event loop inside async "
                    f"`{fn.display}`; every coroutine sharing the loop "
                    "stalls behind it -- offload with `await "
                    "asyncio.to_thread(...)` or an executor",
                )
            for ref, line, col in fn.calls:
                callee = self.resolve(fn, ref)
                if callee is None or callee.is_async:
                    continue
                effect = self.blocking_effect(callee)
                if effect is None:
                    continue
                label, chain = effect
                route = " -> ".join((fn.display,) + chain)
                yield Finding(
                    fn.path,
                    line,
                    col,
                    "RL502",
                    f"call to `{callee.display}` reaches {label} from "
                    f"async `{fn.display}` ({route}); the event loop "
                    "stalls for the duration -- offload with `await "
                    "asyncio.to_thread(...)`",
                )


# ---------------------------------------------------------------------------
# per-file analysis and the rule
# ---------------------------------------------------------------------------


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _iter_functions(tree: ast.AST):
    """``(func, method_class)`` for every function; ``method_class`` is
    set only for direct class-body methods, which ``self.meth()``
    resolution keys on."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, node.name if isinstance(node, ast.ClassDef) else None


def analyze_file(ctx) -> tuple[list, list]:
    """One file's function summaries and its RL501/RL503 findings."""
    path = str(ctx.path)
    module = _module_name(pathlib.Path(path))
    summaries: list = []
    findings: list = []
    for func, method_class in _iter_functions(ctx.tree):
        if isinstance(func, ast.AsyncFunctionDef):
            _TornWrites(func, path, findings).run({})
        _rl503(func, path, findings)
        summaries.append(_summarize(func, path, module, method_class))
    return summaries, findings


class FlowRule(ProjectRule):
    code = "RL501"
    name = "flow-async"
    description = (
        "flow-sensitive async analysis: torn read-modify-write, blocking "
        "reachability, resource leak paths"
    )
    codes = ("RL501", "RL502", "RL503")
    code_descriptions = {
        "RL501": "shared self-attribute read-modify-write torn across an "
        "await without a covering lock",
        "RL502": "blocking call (sleep, sync I/O, subprocess, hashlib, GF "
        "kernels) reachable from async context",
        "RL503": "acquired resource with a path to function exit that "
        "skips release",
    }
    roles = frozenset({"src"})

    def check_project(self, ctxs) -> Iterator[Finding]:
        functions: list = []
        for ctx in ctxs:
            summaries, findings = analyze_file(ctx)
            functions += summaries
            yield from findings
        yield from CallGraph(functions).iter_rl502()
