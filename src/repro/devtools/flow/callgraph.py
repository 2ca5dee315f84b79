"""The whole-project call graph and the interprocedural RL502 pass.

Resolution is *name-based and conservative-quiet*: an edge exists only
when the target is unambiguous.

- ``self.meth()`` resolves within the caller's class;
- a bare ``func()`` resolves in the caller's module, else to the unique
  project-wide function of that name;
- ``obj.meth()`` resolves through :data:`KNOWN_RECEIVER_CLASSES` (the
  project's attribute-type knowledge: ``self.store`` is the BlockStore),
  else to the unique project-wide callable of that name -- unless the
  name sits on :data:`METHOD_RESOLUTION_STOPLIST` (``get``, ``put``,
  ``close``... collide with dict/stream builtins, so an edge would be a
  guess).

Unresolved calls produce **no** edge and therefore no finding: the
engine prefers silence to speculation, and the fixture suite pins the
cases that must resolve.

On top of the graph, **RL502**: every sync function gets a transitive
*blocking effect* (the first blocking primitive reachable through sync
calls, with the call chain); an async function calling a blocking
primitive directly, or any sync function whose effect is non-empty, is
a finding at the call site.  Async callees are skipped -- they are
analyzed themselves.
"""

from __future__ import annotations

from repro.devtools.tables import (
    KNOWN_RECEIVER_CLASSES,
    METHOD_RESOLUTION_STOPLIST,
    STDLIB_MODULE_RECEIVERS,
)

__all__ = ["CallGraph"]


class CallGraph:
    def __init__(self, files):
        self.files = files
        #: (cls, name) -> summary (first wins; duplicate class names are
        #: rare and would make the pair ambiguous anyway).
        self.methods: dict = {}
        #: (module, name) -> module-level function summary.
        self.module_functions: dict = {}
        #: name -> list of all summaries sharing it (uniqueness checks).
        self.by_name: dict = {}
        for info in files:
            for fn in info.functions:
                self.by_name.setdefault(fn.name, []).append(fn)
                if fn.cls is not None:
                    self.methods.setdefault((fn.cls, fn.name), fn)
                else:
                    self.module_functions.setdefault((fn.module, fn.name), fn)
        self._blocking_memo: dict = {}

    # -- resolution ----------------------------------------------------

    def resolve(self, caller, ref):
        if not ref:
            return None
        name = ref[-1]
        if len(ref) == 1:
            local = self.module_functions.get((caller.module, name))
            if local is not None:
                return local
            return self._unique(name, functions_only=True)
        receiver = ref[0]
        if receiver == "self" and caller.cls is not None:
            method = self.methods.get((caller.cls, name))
            if method is not None:
                return method
        if receiver in STDLIB_MODULE_RECEIVERS:
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
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- RL502: blocking reachability -----------------------------------

    def blocking_effect(self, fn):
        """``(label, chain)`` of the first blocking primitive reachable
        from sync ``fn`` through sync callees, or ``None``."""
        memo = self._blocking_memo
        key = fn.qualname
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard: in-progress resolves to clean
        result = None
        if fn.direct_blocking:
            hit = fn.direct_blocking[0]
            result = (hit["label"], (fn.display,))
        else:
            for call in fn.calls:
                callee = self.resolve(fn, call.ref)
                if callee is None or callee.is_async or callee is fn:
                    continue
                sub = self.blocking_effect(callee)
                if sub is not None:
                    result = (sub[0], (fn.display,) + sub[1])
                    break
        memo[key] = result
        return result

    def iter_rl502(self):
        """``(summary, line, col, message)`` for every blocking reach."""
        for info in self.files:
            for fn in info.functions:
                if not fn.is_async:
                    continue
                for hit in fn.direct_blocking:
                    yield (
                        info,
                        hit["line"],
                        hit["col"],
                        f"{hit['label']} runs on the event loop inside async "
                        f"`{fn.display}`; every coroutine sharing the loop "
                        "stalls behind it -- offload with `await "
                        "asyncio.to_thread(...)` or an executor",
                    )
                for call in fn.calls:
                    callee = self.resolve(fn, call.ref)
                    if callee is None or callee.is_async:
                        continue
                    effect = self.blocking_effect(callee)
                    if effect is None:
                        continue
                    label, chain = effect
                    route = " -> ".join((fn.display,) + chain)
                    yield (
                        info,
                        call.line,
                        call.col,
                        f"call to `{callee.display}` reaches {label} from "
                        f"async `{fn.display}` ({route}); the event loop "
                        "stalls for the duration -- offload with `await "
                        "asyncio.to_thread(...)`",
                    )
