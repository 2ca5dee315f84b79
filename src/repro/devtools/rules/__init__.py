"""The reprolint rule registry.

Three families, each kept because it has caught defects in this
project's history:

- **RL1xx** asyncio (swallowed exceptions);
- **RL4xx** observability (wall-clock latency arithmetic);
- **RL5xx** flow rules (torn read-modify-write, blocking reachability,
  resource leak paths): per-function statement walks and a call graph.

Every run runs every family; ``--select``/``--ignore`` filter by code.
"""

from __future__ import annotations

from repro.devtools.rules.asyncio_rules import SwallowedExceptionRule
from repro.devtools.rules.base import ProjectRule, Rule
from repro.devtools.rules.flow_rules import FlowRule
from repro.devtools.rules.obs_rules import WallClockLatencyRule

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
    SwallowedExceptionRule(),
    WallClockLatencyRule(),
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
