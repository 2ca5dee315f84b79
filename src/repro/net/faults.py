"""Seeded, deterministic fault injection for the networked subsystem.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s plus a seed.
Every place the stack touches the wire (the daemon's request loop, the
client's request path) asks the plan whether to sabotage the current
operation; the answer is a pure function of

    (seed, rule index, side, scope, operation, key, hit number)

so two runs with the same plan inject the *same* faults no matter how
the event loop interleaves concurrent transfers.  Decisions are keyed
per operation/key pair -- not drawn from a shared RNG stream -- which is
what makes them immune to scheduling order.

Fault kinds (:class:`FaultKind`):

``drop``
    Sever the connection without answering -- a peer that dies between
    accept and reply.  The client sees a transport failure and retries.
``delay``
    Sleep ``rule.delay`` seconds before answering -- a stalled peer;
    with ``delay`` above the client's read timeout this exercises the
    timeout/retry path.
``truncate``
    Send only a prefix of the response frame, then close -- a transfer
    cut mid-frame.  The client's ``readexactly`` raises
    ``IncompleteReadError`` and the request is retried.
``corrupt``
    Flip bytes inside the frame *body* (the header stays parseable) --
    bit rot on the wire.  Piece and fragment payloads carry a CRC32
    (format v2), so downstream parsing raises ``SerializationError``
    and the coordinator must substitute another piece.  A ``ROWS``
    reply carries its own CRC32: the client raises ``ChecksumError``
    and retries the request.
``crash``
    Kill the daemon between request and response: the listener closes,
    every open connection is severed, and the in-flight request never
    gets an answer.  Server side only.

Wiring::

    plan = FaultPlan(
        [FaultRule(kind="crash", operation="repair_read", key="f/1", times=1)],
        seed=42,
    )
    async with LocalCluster(8, root, fault_plan=plan) as cluster:
        coordinator = Coordinator(params, fault_plan=plan)
        ...

``plan.injected`` records every fired fault; :meth:`FaultPlan.history`
returns it in canonical (sorted) order so tests can assert two runs with
the same seed injected the identical fault set.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Iterable

# Corruption and truncation never touch the frame header, so a sabotaged
# frame still parses far enough to fail in the *payload* integrity
# checks, like real bit rot.
from repro.net.protocol import FRAME_HEADER_SIZE

__all__ = ["FaultKind", "FaultRule", "FaultEvent", "FaultPlan"]


class FaultKind(str, enum.Enum):
    DROP = "drop"
    DELAY = "delay"
    TRUNCATE = "truncate"
    CORRUPT = "corrupt"
    CRASH = "crash"


#: Kinds that make sense when the *client* is the saboteur.
_CLIENT_KINDS = frozenset(
    {FaultKind.DROP, FaultKind.DELAY, FaultKind.TRUNCATE, FaultKind.CORRUPT}
)


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One injection rule: where to strike, how, and how often.

    Parameters
    ----------
    kind:
        A :class:`FaultKind` or its string value.
    operation:
        Request name to match (``"ping"``, ``"store_piece"``,
        ``"get_piece"``, ``"get_rows"``, ``"repair_read"``) or ``"*"``.
    side:
        ``"server"`` (the daemon sabotages its response -- default) or
        ``"client"`` (the client sabotages its own request).
    scope:
        Match only the participant with this scope label (a
        :class:`LocalCluster` daemon is ``"peerNN"``); ``None`` = any.
    key:
        Exact piece key to match (``"<file_id>/<index>"``); ``None`` = any.
    probability:
        Chance the rule fires on a matching hit, decided
        deterministically per (operation, key, hit number).
    times:
        Fire at most this many times *per (scope, operation, key)*;
        ``None`` = unlimited.  A budget of 1 models a one-off glitch the
        retry path should absorb.
    after:
        Skip the first ``after`` matching hits (per scope/operation/key)
        before becoming eligible -- e.g. let the insert succeed, then
        fail the re-reads.
    delay:
        Seconds to stall (``delay`` kind only).
    corrupt_bytes:
        How many body bytes to flip (``corrupt`` kind only).
    truncate_at:
        Fraction of the frame to let through (``truncate`` kind only);
        clamped so at least one byte is always cut.
    """

    kind: FaultKind
    operation: str = "*"
    side: str = "server"
    scope: str | None = None
    key: str | None = None
    probability: float = 1.0
    times: int | None = None
    after: int = 0
    delay: float = 1.0
    corrupt_bytes: int = 8
    truncate_at: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.side not in ("server", "client"):
            raise ValueError(f"side must be 'server' or 'client', got {self.side!r}")
        if self.side == "client" and self.kind not in _CLIENT_KINDS:
            raise ValueError(f"kind {self.kind.value!r} is server-side only")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.corrupt_bytes < 1:
            raise ValueError(f"corrupt_bytes must be >= 1, got {self.corrupt_bytes}")
        if not 0.0 < self.truncate_at < 1.0:
            raise ValueError(f"truncate_at must be in (0, 1), got {self.truncate_at}")

    def matches(self, side: str, scope: str | None, operation: str, key: str) -> bool:
        if self.side != side:
            return False
        if self.scope is not None and self.scope != scope:
            return False
        if self.operation != "*" and self.operation != operation:
            return False
        if self.key is not None and self.key != key:
            return False
        return True


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One fired fault: which rule struck which operation."""

    rule_index: int
    kind: FaultKind
    side: str
    scope: str | None
    operation: str
    key: str
    hit: int  # 0-based matching-hit number for this (scope, op, key)

    @property
    def as_tuple(self) -> tuple:
        return (
            self.rule_index,
            self.kind.value,
            self.side,
            self.scope or "",
            self.operation,
            self.key,
            self.hit,
        )


class FaultPlan:
    """A seeded schedule of faults, consulted by daemons and clients.

    One plan instance may be shared by every participant of a test (all
    daemons of a :class:`LocalCluster` plus the coordinator's clients);
    decisions are independent per participant because the scope label
    enters the hash.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        seed: int = 0,
        inactive: Iterable[int] = (),
    ):
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        #: Rule indices currently switched off (see :meth:`set_rule_active`).
        self._inactive: set[int] = set(inactive)
        for index in self._inactive:
            if not 0 <= index < len(self.rules):
                raise IndexError(f"inactive rule index {index} out of range")
        #: Matching-hit counters, keyed by (rule, side, scope, op, key).
        self._hits: dict[tuple, int] = {}
        #: Fire counters for ``times`` budgets, same key space.
        self._fired: dict[tuple, int] = {}
        #: Every fault fired so far, in firing order (scheduler-dependent
        #: across concurrent keys; use :meth:`history` for comparisons).
        self.injected: list[FaultEvent] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"injected={len(self.injected)})"
        )

    # ------------------------------------------------------------------
    # deterministic randomness
    # ------------------------------------------------------------------

    def _draw(self, *labels) -> float:
        """Uniform [0, 1) derived from the seed and the decision labels."""
        digest = hashlib.sha256(
            "|".join([str(self.seed), *map(str, labels)]).encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def _bytes(self, count: int, *labels) -> bytes:
        """``count`` deterministic bytes derived from the decision labels."""
        out = bytearray()
        block = 0
        while len(out) < count:
            out += hashlib.sha256(
                "|".join([str(self.seed), *map(str, labels), str(block)]).encode()
            ).digest()
            block += 1
        return bytes(out[:count])

    # ------------------------------------------------------------------
    # runtime rule activation
    # ------------------------------------------------------------------

    def set_rule_active(self, index: int, active: bool = True) -> None:
        """Switch rule ``index`` on or off at runtime.

        The scenario engine compiles fault phases (a straggler's slow
        window, a lossy-link episode) into a plan whose rules start
        inactive and are toggled at deterministic points of the event
        schedule.  An inactive rule neither fires nor observes hits, so
        its ``after``/``times`` counters only advance while it is on;
        toggling at deterministic operation boundaries keeps the whole
        plan reproducible.
        """
        if not 0 <= index < len(self.rules):
            raise IndexError(
                f"rule index {index} out of range (plan has {len(self.rules)})"
            )
        if active:
            self._inactive.discard(index)
        else:
            self._inactive.add(index)

    def rule_active(self, index: int) -> bool:
        """Whether rule ``index`` currently participates in decisions."""
        if not 0 <= index < len(self.rules):
            raise IndexError(
                f"rule index {index} out of range (plan has {len(self.rules)})"
            )
        return index not in self._inactive

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def decide(
        self, operation: str, key: str = "", side: str = "server", scope: str | None = None
    ) -> FaultEvent | None:
        """Should this operation be sabotaged?  First firing rule wins.

        Mutates the per-key hit counters, so call exactly once per
        observed operation.
        """
        for index, rule in enumerate(self.rules):
            if index in self._inactive:
                continue
            if not rule.matches(side, scope, operation, key):
                continue
            counter = (index, side, scope, operation, key)
            hit = self._hits.get(counter, 0)
            self._hits[counter] = hit + 1
            if hit < rule.after:
                continue
            if rule.times is not None and self._fired.get(counter, 0) >= rule.times:
                continue
            if self._draw(index, side, scope or "", operation, key, hit) >= rule.probability:
                continue
            self._fired[counter] = self._fired.get(counter, 0) + 1
            event = FaultEvent(
                rule_index=index,
                kind=rule.kind,
                side=side,
                scope=scope,
                operation=operation,
                key=key,
                hit=hit,
            )
            self.injected.append(event)
            return event
        return None

    def rule(self, event: FaultEvent) -> FaultRule:
        """The rule that produced ``event``."""
        return self.rules[event.rule_index]

    # ------------------------------------------------------------------
    # frame sabotage helpers
    # ------------------------------------------------------------------

    def corrupt_frame(self, frame: bytes, event: FaultEvent) -> bytes:
        """Flip ``corrupt_bytes`` payload bytes of an encoded frame.

        The header is left intact so the receiver parses the frame and
        fails in the payload integrity check (CRC32 / SHA-256), the way
        real bit rot presents.  Frames with an empty body are returned
        unchanged.  Deterministic per event.
        """
        body_len = len(frame) - FRAME_HEADER_SIZE
        if body_len <= 0:
            return frame
        rule = self.rule(event)
        count = min(rule.corrupt_bytes, body_len)
        noise = self._bytes(count * 5, *event.as_tuple, "corrupt")
        mutated = bytearray(frame)
        for n in range(count):
            offset = FRAME_HEADER_SIZE + (
                int.from_bytes(noise[n * 5 : n * 5 + 4], "big") % body_len
            )
            # XOR with a non-zero byte so the flip is never a no-op.
            mutated[offset] ^= (noise[n * 5 + 4] % 255) + 1
        return bytes(mutated)

    def truncate_frame(self, frame: bytes, event: FaultEvent) -> bytes:
        """A strict prefix of ``frame``: the transfer dies mid-frame."""
        cut = int(len(frame) * self.rule(event).truncate_at)
        return frame[: max(1, min(cut, len(frame) - 1))]

    # ------------------------------------------------------------------
    # reproducibility accounting
    # ------------------------------------------------------------------

    def history(self) -> tuple[tuple, ...]:
        """Canonical (sorted) record of every fault fired.

        Firing *order* across concurrent transfers is up to the event
        loop, but the *set* of faults is fully determined by the seed
        and the operations attempted -- so equal histories mean two runs
        saw identical fault schedules.
        """
        return tuple(sorted(event.as_tuple for event in self.injected))

    def reset(self) -> None:
        """Forget all counters and history (reuse the plan for a re-run)."""
        self._hits.clear()
        self._fired.clear()
        self.injected.clear()
