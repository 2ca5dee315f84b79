"""Finding and report types shared by the reprolint engine and rules."""

from __future__ import annotations

import dataclasses

__all__ = ["Finding", "LintReport", "REPORT_SCHEMA_VERSION"]

#: Bumped whenever the JSON report layout changes shape.
#: v2: added the ``baselined`` list (ratchet-tolerated findings).
#: v3: dropped ``baselined``; inline disables are the only tolerance.
REPORT_SCHEMA_VERSION = 3


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The classic ``path:line:col CODE message`` text form."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class LintReport:
    """Everything one lint run produced.

    ``findings`` are the live violations; ``suppressed`` are violations
    silenced by a ``# reprolint: disable=CODE`` comment (reported so a
    suppression can never hide silently); ``errors`` are files that
    could not be parsed at all.
    """

    findings: list[Finding] = dataclasses.field(default_factory=list)
    suppressed: list[Finding] = dataclasses.field(default_factory=list)
    errors: list[Finding] = dataclasses.field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.errors) else 0

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "findings": [finding.to_json() for finding in sorted(self.findings)],
            "suppressed": [finding.to_json() for finding in sorted(self.suppressed)],
            "errors": [finding.to_json() for finding in sorted(self.errors)],
        }
