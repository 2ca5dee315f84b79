"""Span recorder for the ``--trace`` run, kept entirely in this directory.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` rebinds
the public callables at each layer boundary to recording wrappers --
including every ``from x import f`` copy other ``repro`` modules hold --
and spans accumulate in memory until the harness writes them out.

A span is a :class:`Span`.  ``parent`` is the id of the wrapped
call that was running in the same context when this one started (a
context variable, so it follows ``asyncio`` tasks and
``asyncio.to_thread``; the kernels' shard executor is swapped for one
that carries the context too, so parallel ``matmul`` shards are children
of their ``matmul_sharded``).  ``op`` is the life-cycle operation the
harness was driving, or ``None`` on the daemon side of the socket --
no trace id crosses the wire yet (ROADMAP item 5).
"""

from __future__ import annotations

import collections
import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

Span = collections.namedtuple(
    "Span", ("id", "parent", "op", "name", "thread", "start_ns", "end_ns", "detail")
)

#: ``(kind, serial)`` of the operation the harness is driving in this context.
OP: contextvars.ContextVar = contextvars.ContextVar("bench_op", default=None)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


class _ContextExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor whose workers see the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._originals: list[object] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn, detail=None):
        """``fn`` recorded as span ``name``; ``detail(args, result)`` annotates it."""
        spans, ids = self.spans, self._ids

        def begin():
            span_id = next(ids)
            parent = _CURRENT.get()
            return span_id, parent, _CURRENT.set(span_id), time.perf_counter_ns()

        def end(span_id, parent, token, start, note):
            stop = time.perf_counter_ns()
            _CURRENT.reset(token)
            spans.append(
                Span(span_id, parent, OP.get(), name, threading.get_ident(), start, stop, note)
            )

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                state, note = begin(), 0
                try:
                    result = await fn(*args, **kwargs)
                    if detail is not None:
                        note = detail(args, result)
                    return result
                finally:
                    end(*state, note)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state, note = begin(), 0
                try:
                    result = fn(*args, **kwargs)
                    if detail is not None:
                        note = detail(args, result)
                    return result
                finally:
                    end(*state, note)

        return wrapper

    def patch_function(self, module, attr: str, name: str, detail=None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module holds a reference."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, detail)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
        self._originals.append(original)

    def patch_method(self, cls, attr: str, name: str, detail=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, detail)))
        else:
            setattr(cls, attr, self._wrap(name, raw, detail))

    def install(self) -> None:
        """Wrap every layer boundary the ledger reports on."""
        import numpy as np

        from repro.core import regenerating, serialization
        from repro.gf import kernels, linalg
        from repro.gf.field import GaloisField
        from repro.net import blockstore, client, protocol

        def element_ops(args, _result):
            rows, inner = np.shape(args[1])
            return rows * inner * np.shape(args[2])[1]

        kernels.ThreadPoolExecutor = _ContextExecutor
        self.patch_function(kernels, "matmul_sharded", "gf.kernels.matmul_sharded")
        self.patch_function(kernels, "matmul", "gf.kernels.matmul", element_ops)
        self.patch_function(
            linalg,
            "extract_and_invert",
            "gf.linalg.extract_and_invert",
            lambda args, result: len(result[0]),
        )
        self.patch_method(GaloisField, "linear_combination", "gf.field.linear_combination")
        self.patch_method(GaloisField, "random", "gf.field.random")

        code = regenerating.RandomLinearRegeneratingCode
        for method in ("insert", "newcomer_repair", "plan_reconstruction"):
            self.patch_method(code, method, f"core.regenerating.{method}")
        for function in ("piece_to_bytes", "fragment_to_bytes"):
            self.patch_function(
                serialization,
                function,
                f"core.serialization.{function}",
                lambda _args, result: len(result),
            )
        for function in ("piece_from_bytes", "fragment_from_bytes"):
            self.patch_function(
                serialization,
                function,
                f"core.serialization.{function}",
                lambda args, _result: len(args[0]),
            )

        self.patch_function(
            protocol,
            "encode_frames",
            "net.protocol.encode_frames",
            lambda _args, result: sum(len(part) for part in result),
        )
        for message in protocol.Message.__subclasses__():
            if "decode_body" in message.__dict__:
                self.patch_method(
                    message,
                    "decode_body",
                    "net.protocol.decode_body",
                    lambda args, _result: len(args[1]),
                )
        self.patch_method(
            client.PeerClient,
            "request",
            "net.client.request",
            lambda args, _result: type(args[1]).__name__,
        )
        self.patch_method(
            blockstore.BlockStore,
            "put",
            "net.blockstore.put",
            lambda args, _result: len(args[2]),
        )
        self.patch_method(
            blockstore.BlockStore,
            "get",
            "net.blockstore.get",
            lambda _args, result: len(result),
        )

    def stale_bindings(self) -> list[str]:
        """``module.attr`` names in ``repro`` still bound to an unwrapped original.

        Catches the ``from x import f`` copy the patch missed; must be
        empty after :meth:`install`.
        """
        originals = {id(original) for original in self._originals}
        return [
            f"{holder.__name__}.{key}"
            for holder in list(sys.modules.values())
            if holder is not None and getattr(holder, "__name__", "").startswith("repro")
            for key, value in list(vars(holder).items())
            if id(value) in originals
        ]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def union_ns(intervals) -> int:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    result = {}
    for span in spans:
        inside = [
            (max(start, span.start_ns), min(end, span.end_ns))
            for start, end in children.get(span.id, ())
            if end > span.start_ns and start < span.end_ns
        ]
        result[span.id] = (span.end_ns - span.start_ns) - union_ns(inside)
    return result
