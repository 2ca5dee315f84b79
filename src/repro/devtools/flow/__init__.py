"""Flow-sensitive analysis under reprolint: per-function CFGs, a
whole-project call graph, and the RL5xx rule family on top.

The package splits per-file analysis from whole-project analysis (see
``docs/DEVTOOLS.md``):

- :mod:`repro.devtools.flow.cfg` -- statement-granularity control-flow
  graphs with ``await``-point annotation and a lock-context lattice;
- :mod:`repro.devtools.flow.summaries` -- per-file analysis: the
  intra-procedural rules (RL501 torn read-modify-write, RL503 resource
  leak paths) plus the per-function summaries the interprocedural
  passes consume;
- :mod:`repro.devtools.flow.callgraph` -- whole-project resolution and
  the interprocedural rule (RL502 blocking reachability);
- :mod:`repro.devtools.flow.rules` -- the :class:`FlowRule` project rule
  gluing it all into the reprolint engine.
"""

from __future__ import annotations

from repro.devtools.flow.callgraph import CallGraph
from repro.devtools.flow.cfg import CFG, CFGNode, build_cfg
from repro.devtools.flow.summaries import (
    FileFlowInfo,
    FunctionSummary,
    analyze_file,
)


def __getattr__(name: str):
    # FlowRule subclasses ProjectRule, and the rules package imports it
    # back for ALL_RULES; resolving it lazily keeps this package importable
    # on its own without that cycle.
    if name == "FlowRule":
        from repro.devtools.flow.rules import FlowRule

        return FlowRule
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "FileFlowInfo",
    "FunctionSummary",
    "analyze_file",
    "CallGraph",
    "FlowRule",
]
