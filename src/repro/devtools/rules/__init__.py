"""The reprolint rule registry.

Five families, mirroring where this project's bugs actually live:

- **RL1xx** asyncio (un-awaited coroutines, swallowed exceptions, locks
  across network awaits, dropped task handles);
- **RL2xx** GF(2^q) domain (plain arithmetic on field elements, raw
  arrays into field kernels);
- **RL3xx** wire protocol (opcode/dispatch/client drift, duplicated
  wire-format constants);
- **RL4xx** observability (wall-clock latency arithmetic, metric names
  outside the registry scheme);
- **RL5xx** flow-sensitive async analysis (torn read-modify-write,
  blocking reachability, resource leak paths, lock-order cycles).

Every run runs every family; ``--select``/``--ignore`` filter by code.
"""

from __future__ import annotations

from repro.devtools.flow.rules import FlowRule
from repro.devtools.rules.asyncio_rules import (
    DroppedTaskRule,
    LockAcrossNetworkAwaitRule,
    SwallowedExceptionRule,
    UnawaitedCoroutineRule,
)
from repro.devtools.rules.base import ProjectRule, Rule
from repro.devtools.rules.gf_rules import PlainArithmeticOnGFRule, RawArrayIntoGFRule
from repro.devtools.rules.obs_rules import MetricNameRule, WallClockLatencyRule
from repro.devtools.rules.protocol_rules import ProtocolDriftRule, WireConstantRule

__all__ = [
    "Rule",
    "ProjectRule",
    "FlowRule",
    "ALL_RULES",
    "RULE_CODES",
    "rule_table",
]

#: Every rule, instantiated once; the engine runs each of them.
ALL_RULES: tuple[Rule, ...] = (
    UnawaitedCoroutineRule(),
    SwallowedExceptionRule(),
    LockAcrossNetworkAwaitRule(),
    DroppedTaskRule(),
    PlainArithmeticOnGFRule(),
    RawArrayIntoGFRule(),
    ProtocolDriftRule(),
    WireConstantRule(),
    WallClockLatencyRule(),
    MetricNameRule(),
    FlowRule(),
)


def rule_table() -> list[tuple[str, str, str]]:
    """``(code, name, description)`` rows for ``--list-rules``."""
    rows = []
    for rule in ALL_RULES:
        per_code = getattr(rule, "code_descriptions", {})
        for code in rule.codes:
            rows.append((code, rule.name, per_code.get(code, rule.description)))
    return sorted(rows)


#: Every code any rule can emit.
RULE_CODES: frozenset = frozenset(code for code, _, _ in rule_table())
