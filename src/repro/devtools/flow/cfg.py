"""Per-function control-flow graphs for the RL5xx flow rules.

Statement granularity: one node per executed statement part, plus
synthetic ``entry``/``exit`` nodes.  Compound statements contribute the
part of themselves that evaluates at the node -- an ``if`` node carries
its test, a ``for`` node its iterable, a ``with`` node its context
expressions -- while their bodies become separate nodes.

Two annotations ride on every node:

- **locks**: the set of lock identities held when the node executes,
  derived from enclosing ``async with <lock>:`` regions.  A context
  expression is a lock when its terminal name contains one of
  :data:`repro.devtools.tables.LOCK_NAME_HINTS`.  ``self._lock`` gets
  the identity ``"self._lock"``, so RL501 never mistakes another
  object's ``_lock`` for the one covering a ``self`` attribute.
- **raise edges**: any node that evaluates a call, an await, or an
  assert may transfer control to the innermost enclosing handler (or
  function exit).  RL503 walks these edges, which is how it sees the
  release-skipping path a mid-function exception opens.

Deliberate approximations (shared by lightweight CFG builders
everywhere): ``return`` inside ``try/finally`` routes through the
innermost ``finally`` block, whose end then flows both onward and to
exit -- so a few impossible paths exist, but every path through a
``finally`` observes its release calls, which is the property RL503
needs.  ``break``/``continue`` jump directly to their loop targets.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.devtools.tables import LOCK_NAME_HINTS

__all__ = ["CFG", "CFGNode", "build_cfg"]


@dataclasses.dataclass
class CFGNode:
    """One executable point of a function."""

    nid: int
    kind: str  # "entry" | "exit" | "stmt"
    stmt: ast.stmt | None
    #: Which part of ``stmt`` evaluates here: "whole" for simple
    #: statements, "test" (if/while), "iter" (for), "enter"/"exit"
    #: (with blocks), "except" (handler heads), "finally" (block heads).
    part: str
    #: Lock identities held when this node executes.
    locks: frozenset
    #: Normal-control successors.
    succs: list = dataclasses.field(default_factory=list)
    #: Successors reachable if this node raises.
    raise_succs: list = dataclasses.field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


class CFG:
    """The graph: nodes indexed by id, with ``entry`` and ``exit``."""

    def __init__(self, func):
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry: int = 0
        self.exit: int = 0

    def node(self, nid: int) -> CFGNode:
        return self.nodes[nid]

    def successors(self, nid: int, *, exceptional: bool = True) -> list:
        node = self.nodes[nid]
        if exceptional:
            return node.succs + node.raise_succs
        return list(node.succs)

    def __len__(self) -> int:
        return len(self.nodes)


def _is_lock_expr(expr: ast.AST) -> bool:
    name = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    if name is None:
        return False
    lowered = name.lower()
    return any(hint in lowered for hint in LOCK_NAME_HINTS)


def _lock_identity(expr: ast.AST) -> str:
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return f"self.{expr.attr}"
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return "<lock>"


def _may_raise(stmt: ast.stmt, part: str) -> bool:
    """Whether evaluating this node part can transfer to a handler."""
    if part in ("enter", "exit", "except"):
        return True
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in ast.walk(_part_ast(stmt, part)):
        if isinstance(node, (ast.Call, ast.Await, ast.Subscript)):
            return True
    return False


def _part_ast(stmt: ast.stmt, part: str) -> ast.AST:
    """The AST fragment that actually evaluates at a (stmt, part) node."""
    if part == "test" and isinstance(stmt, (ast.If, ast.While)):
        return stmt.test
    if part == "iter" and isinstance(stmt, (ast.For, ast.AsyncFor)):
        return stmt.iter
    if part == "enter" and isinstance(stmt, (ast.With, ast.AsyncWith)):
        # Preserve the withitem wrappers: RL503's escape classifier needs
        # to see ``with conn:`` as handing the resource to a manager.
        return ast.With(items=stmt.items, body=[ast.Pass()])
    if part in ("exit", "except", "finally"):
        return ast.Pass()
    return stmt


class _Builder:
    def __init__(self, func):
        self.cfg = CFG(func)
        entry = self._new(None, "entry", "whole", frozenset())
        exit_ = self._new(None, "exit", "whole", frozenset())
        self.cfg.entry = entry
        self.cfg.exit = exit_
        #: Innermost-first stack of raise targets (lists of node ids).
        self.raise_targets: list[list[int]] = [[exit_]]
        #: (break sink list, continue target) per enclosing loop.
        self.loop_targets: list[tuple[list, int]] = []
        #: Innermost-first stack of finally-head node ids.
        self.finally_heads: list[int] = []

    # -- plumbing ------------------------------------------------------

    def _new(self, stmt, kind, part, locks) -> int:
        nid = len(self.cfg.nodes)
        self.cfg.nodes.append(
            CFGNode(nid=nid, kind=kind, stmt=stmt, part=part, locks=locks)
        )
        return nid

    def _stmt_node(self, stmt, part, locks) -> int:
        nid = self._new(stmt, "stmt", part, locks)
        if _may_raise(stmt, part):
            for target in self.raise_targets[-1]:
                self.cfg.nodes[nid].raise_succs.append(target)
        return nid

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.cfg.nodes[src].succs:
            self.cfg.nodes[src].succs.append(dst)

    def _edges(self, preds, dst: int) -> None:
        for pred in preds:
            self._edge(pred, dst)

    # -- construction --------------------------------------------------

    def build(self) -> CFG:
        preds = self._block(self.cfg.func.body, [self.cfg.entry], frozenset())
        self._edges(preds, self.cfg.exit)
        return self.cfg

    def _block(self, stmts, preds, locks) -> list:
        for stmt in stmts:
            preds = self._stmt(stmt, preds, locks)
        return preds

    def _terminal_exit(self, stmt, preds, locks, targets) -> list:
        """Return/raise/break/continue: one node, edges to ``targets``."""
        nid = self._stmt_node(stmt, "whole", locks)
        self._edges(preds, nid)
        for target in targets:
            self._edge(nid, target)
        return []

    def _stmt(self, stmt, preds, locks) -> list:
        if isinstance(stmt, ast.If):
            test = self._stmt_node(stmt, "test", locks)
            self._edges(preds, test)
            then_end = self._block(stmt.body, [test], locks)
            if stmt.orelse:
                else_end = self._block(stmt.orelse, [test], locks)
            else:
                else_end = [test]
            return then_end + else_end

        if isinstance(stmt, ast.While):
            test = self._stmt_node(stmt, "test", locks)
            self._edges(preds, test)
            breaks: list = []
            self.loop_targets.append((breaks, test))
            body_end = self._block(stmt.body, [test], locks)
            self.loop_targets.pop()
            self._edges(body_end, test)
            else_end = self._block(stmt.orelse, [test], locks) if stmt.orelse else [test]
            return else_end + breaks

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            head = self._stmt_node(stmt, "iter", locks)
            self._edges(preds, head)
            breaks = []
            self.loop_targets.append((breaks, head))
            body_end = self._block(stmt.body, [head], locks)
            self.loop_targets.pop()
            self._edges(body_end, head)
            else_end = self._block(stmt.orelse, [head], locks) if stmt.orelse else [head]
            return else_end + breaks

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            body_locks = locks
            if isinstance(stmt, ast.AsyncWith):
                for item in stmt.items:
                    if _is_lock_expr(item.context_expr):
                        body_locks = body_locks | {_lock_identity(item.context_expr)}
            enter = self._stmt_node(stmt, "enter", locks)
            self._edges(preds, enter)
            body_end = self._block(stmt.body, [enter], body_locks)
            leave = self._stmt_node(stmt, "exit", locks)
            self._edges(body_end, leave)
            return [leave]

        if isinstance(stmt, ast.Try):
            finally_head: int | None = None
            after_finally: list = []
            if stmt.finalbody:
                # The head itself is a no-op join point; it carries no
                # raise edges (a raise *inside* the finally body escapes
                # through that statement's own edges), so every path
                # entering the finally observes the body's releases.
                finally_head = self._stmt_node(stmt, "finally", locks)
                self.finally_heads.append(finally_head)
                self.cfg.nodes[finally_head].raise_succs.clear()

            handler_heads = []
            for handler in stmt.handlers:
                head = self._stmt_node(handler, "except", locks)
                if handler.type is None or (
                    isinstance(handler.type, ast.Name)
                    and handler.type.id == "BaseException"
                ):
                    # A catch-all always matches: the "no match, keep
                    # propagating" raise edge can never be taken.
                    self.cfg.nodes[head].raise_succs.clear()
                handler_heads.append(head)
            body_raise: list = list(handler_heads)
            if finally_head is not None:
                body_raise.append(finally_head)
            if not body_raise:
                body_raise = list(self.raise_targets[-1])

            self.raise_targets.append(body_raise)
            body_end = self._block(stmt.body, preds, locks)
            self.raise_targets.pop()

            # Exceptions inside handler bodies and the else block are not
            # caught by this try's handlers, but they do run the finally.
            escalate = (
                [finally_head]
                if finally_head is not None
                else list(self.raise_targets[-1])
            )
            self.raise_targets.append(escalate)
            else_end = (
                self._block(stmt.orelse, body_end, locks) if stmt.orelse else body_end
            )
            handler_ends: list = []
            for head, handler in zip(handler_heads, stmt.handlers):
                handler_ends += self._block(handler.body, [head], locks)
            self.raise_targets.pop()

            if finally_head is not None:
                self.finally_heads.pop()
                self._edges(else_end + handler_ends, finally_head)
                tail = self._block(stmt.finalbody, [finally_head], locks)
                # A finally entered by a return/raise continues to exit;
                # one entered normally continues onward.  Both edges
                # exist (documented approximation).
                self._edges(tail, self.cfg.exit)
                after_finally = tail
                return after_finally
            return else_end + handler_ends

        if isinstance(stmt, ast.Return):
            target = (
                self.finally_heads[-1] if self.finally_heads else self.cfg.exit
            )
            return self._terminal_exit(stmt, preds, locks, [target])

        if isinstance(stmt, ast.Raise):
            return self._terminal_exit(stmt, preds, locks, self.raise_targets[-1])

        if isinstance(stmt, ast.Break):
            nid = self._stmt_node(stmt, "whole", locks)
            self._edges(preds, nid)
            if self.loop_targets:
                self.loop_targets[-1][0].append(nid)
            return []

        if isinstance(stmt, ast.Continue):
            target = self.loop_targets[-1][1] if self.loop_targets else self.cfg.exit
            return self._terminal_exit(stmt, preds, locks, [target])

        if isinstance(stmt, ast.Match):
            subject = self._stmt_node(stmt, "whole", locks)
            self._edges(preds, subject)
            ends: list = [subject]
            for case in stmt.cases:
                ends += self._block(case.body, [subject], locks)
            return ends

        # Simple statements (including nested def/class, whose bodies are
        # separate analysis scopes).
        nid = self._stmt_node(stmt, "whole", locks)
        self._edges(preds, nid)
        return [nid]


def build_cfg(func) -> CFG:
    """Build the CFG of one ``def``/``async def``."""
    return _Builder(func).build()
