"""Seeded schedules of cluster events: the scenario engine's middle layer.

A :class:`Schedule` is a deterministic, time-ordered list of
:class:`ScenarioEvent`\\ s -- peer kills, restarts, permanent deaths,
newcomer spawns, and fault-rule activations -- compiled from a churn
source (a recorded :class:`repro.p2p.traces.ChurnTrace` or a generative
model from :mod:`repro.scenario.models`) and executed against a live
:class:`repro.net.cluster.LocalCluster` by
:class:`repro.scenario.runner.ScenarioRunner`.

The compilation contract is the reproducibility contract: a schedule is
a pure function of ``(source, seed, params)``, carries no wall-clock
state, and round-trips through JSON byte-for-byte -- so a failing run's
report contains everything needed to replay the identical event stream.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.net.faults import FaultPlan, FaultRule
from repro.p2p.traces import ChurnTrace, SessionEvent

__all__ = [
    "ACTIONS",
    "SCHEDULE_FORMAT",
    "ScenarioEvent",
    "Schedule",
]

SCHEDULE_FORMAT = "repro-scenario-schedule-v1"

#: ``kill``        -- transient downtime: the daemon stops, disk and
#:                    address survive, a later ``restart`` revives it.
#: ``restart``     -- bring a killed peer back at its old address.
#: ``death``       -- permanent departure: daemon stops *and* the
#:                    blockstore is wiped; the peer never returns.
#: ``spawn``       -- a newcomer joins the cluster on a fresh address.
#: ``fault_on`` /
#: ``fault_off``   -- activate / deactivate one FaultRule of the run's
#:                    shared plan (a straggler window, a lossy episode).
ACTIONS = ("kill", "restart", "death", "spawn", "fault_on", "fault_off")

_FAULT_ACTIONS = ("fault_on", "fault_off")

#: Trace event kind <-> schedule action, both directions exact.
_FROM_TRACE_KIND = {
    "join": "spawn",
    "offline": "kill",
    "online": "restart",
    "death": "death",
}
_TO_TRACE_KIND = {action: kind for kind, action in _FROM_TRACE_KIND.items()}


@dataclasses.dataclass(frozen=True)
class ScenarioEvent:
    """One timed cluster event.

    ``peer`` is the :class:`LocalCluster` daemon number for peer events
    and ``None`` for fault toggles (whose targeting lives in the rule's
    own ``scope``).  ``rule`` is set exactly for ``fault_on``/``fault_off``.
    """

    time: float
    action: str
    peer: int | None = None
    rule: FaultRule | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown scenario action {self.action!r}")
        if self.time < 0:
            raise ValueError("event time cannot be negative")
        if self.action in _FAULT_ACTIONS:
            if self.rule is None:
                raise ValueError(f"{self.action} events need a fault rule")
        else:
            if self.peer is None:
                raise ValueError(f"{self.action} events need a peer number")
            if self.rule is not None:
                raise ValueError(f"{self.action} events cannot carry a fault rule")

    @property
    def as_tuple(self) -> tuple:
        """Canonical comparison form (used for event-history equality)."""
        rule = dataclasses.astuple(self.rule) if self.rule is not None else ()
        return (self.time, self.action, -1 if self.peer is None else self.peer, rule)

    def to_jsonable(self) -> dict:
        payload: dict = {"time": self.time, "action": self.action}
        if self.peer is not None:
            payload["peer"] = self.peer
        if self.rule is not None:
            payload["rule"] = _rule_to_jsonable(self.rule)
        return payload

    @classmethod
    def from_jsonable(cls, payload: dict) -> "ScenarioEvent":
        rule = payload.get("rule")
        return cls(
            time=payload["time"],
            action=payload["action"],
            peer=payload.get("peer"),
            rule=FaultRule(**rule) if rule is not None else None,
        )


def _rule_to_jsonable(rule: FaultRule) -> dict:
    payload = dataclasses.asdict(rule)
    payload["kind"] = rule.kind.value
    return payload


@dataclasses.dataclass(frozen=True)
class Schedule:
    """A validated, time-ordered scenario over ``initial_peers`` daemons."""

    events: tuple[ScenarioEvent, ...]
    horizon: float
    initial_peers: int

    def __post_init__(self) -> None:
        if self.initial_peers < 1:
            raise ValueError("a schedule needs at least one initial peer")
        if self.horizon <= 0:
            raise ValueError("schedule horizon must be positive")
        times = [event.time for event in self.events]
        if times != sorted(times):
            raise ValueError("schedule events must be time-ordered")
        if any(event.time > self.horizon for event in self.events):
            raise ValueError("schedule contains events beyond its horizon")

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def event_times(self) -> list[float]:
        """Distinct event times, ascending (the runner's window anchors)."""
        return sorted({event.time for event in self.events})

    def events_at(self, time: float) -> list[ScenarioEvent]:
        return [event for event in self.events if event.time == time]

    def fault_rules(self) -> tuple[FaultRule, ...]:
        """Every distinct rule any fault event toggles, in first-seen order."""
        rules: list[FaultRule] = []
        for event in self.events:
            if event.rule is not None and event.rule not in rules:
                rules.append(event.rule)
        return tuple(rules)

    def build_fault_plan(self, seed: int) -> FaultPlan:
        """A plan holding every scheduled rule, all initially *inactive*.

        The runner toggles rules on and off as ``fault_on``/``fault_off``
        events fire; rule order (and therefore rule indices) follows
        :meth:`fault_rules`.
        """
        rules = self.fault_rules()
        return FaultPlan(rules, seed=seed, inactive=range(len(rules)))

    def max_concurrent_down(self) -> int:
        """Peak number of initial peers simultaneously off the network.

        Spawned newcomers are excluded: the survivability bound of a
        model (never kill more than ``n - k`` holders of one file's
        pieces at a time) is stated over the initial population that
        holds the pieces at insert time.
        """
        down: set[int] = set()
        peak = 0
        for event in self.events:
            if event.peer is None or event.peer >= self.initial_peers:
                continue
            if event.action in ("kill", "death"):
                down.add(event.peer)
            elif event.action == "restart":
                down.discard(event.peer)
            peak = max(peak, len(down))
        return peak

    def clamped_to_max_down(self, max_down: int) -> "Schedule":
        """A survivable projection: never more than ``max_down`` initial
        peers down at once.

        A ``kill``/``death`` that would push the concurrently-down count
        past the budget is dropped, together with the matching
        ``restart`` of a dropped kill (the peer never went down, so it
        must not "come back").  This is how a generative model is
        *configured as survivable*: compile freely, then project onto
        the ``n - k`` durability budget of the code.
        """
        if max_down < 0:
            raise ValueError(f"max_down must be >= 0, got {max_down}")
        down: set[int] = set()
        suppressed: set[int] = set()
        kept: list[ScenarioEvent] = []
        for event in self.events:
            if event.peer is None or event.peer >= self.initial_peers:
                kept.append(event)
                continue
            if event.action in ("kill", "death"):
                if event.peer not in down and len(down) >= max_down:
                    if event.action == "kill":
                        suppressed.add(event.peer)
                    continue
                down.add(event.peer)
                kept.append(event)
            elif event.action == "restart":
                if event.peer in suppressed:
                    suppressed.discard(event.peer)
                    continue
                down.discard(event.peer)
                kept.append(event)
            else:
                kept.append(event)
        return Schedule(
            events=tuple(kept),
            horizon=self.horizon,
            initial_peers=self.initial_peers,
        )

    # ------------------------------------------------------------------
    # churn-trace interchange
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: ChurnTrace) -> "Schedule":
        """Compile a simulator churn trace into a cluster schedule.

        Peers that join at t=0 become the cluster's initial daemons
        (their ``join`` events are implicit); later joins become
        ``spawn`` events.  ``offline``/``online``/``death`` map to
        ``kill``/``restart``/``death``.  Trace peer labels must be the
        dense 0..N-1 numbering :func:`repro.p2p.traces.generate_trace`
        emits, so labels and daemon numbers coincide.
        """
        labels = sorted({event.peer_label for event in trace.events})
        if labels != list(range(len(labels))):
            raise ValueError(
                f"trace peer labels must be dense 0..N-1, got {labels}"
            )
        initial = {
            event.peer_label
            for event in trace.events
            if event.kind == "join" and event.time == 0.0
        }
        if initial != set(range(len(initial))) or not initial:
            raise ValueError(
                "trace must start with at least one t=0 join, labelled before "
                "any later arrival"
            )
        events = []
        for event in trace.events:
            if event.kind == "join" and event.time == 0.0:
                continue  # an initial daemon, not a schedule event
            events.append(
                ScenarioEvent(
                    time=event.time,
                    action=_FROM_TRACE_KIND[event.kind],
                    peer=event.peer_label,
                )
            )
        return cls(
            events=tuple(events),
            horizon=trace.horizon,
            initial_peers=len(initial),
        )

    def to_trace(self) -> ChurnTrace:
        """The exact inverse of :meth:`from_trace` (event-for-event).

        Only peer events are representable in the trace vocabulary;
        converting a schedule with fault events raises, because dropping
        them silently would make the round trip lossy.
        """
        for event in self.events:
            if event.action in _FAULT_ACTIONS:
                raise ValueError(
                    "fault events have no churn-trace equivalent; "
                    "strip them explicitly before converting"
                )
        session_events = [
            SessionEvent(time=0.0, kind="join", peer_label=label)
            for label in range(self.initial_peers)
        ]
        for event in self.events:
            assert event.peer is not None
            session_events.append(
                SessionEvent(
                    time=event.time,
                    kind=_TO_TRACE_KIND[event.action],
                    peer_label=event.peer,
                )
            )
        session_events.sort(key=lambda event: (event.time, event.peer_label))
        return ChurnTrace(events=tuple(session_events), horizon=self.horizon)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "format": SCHEDULE_FORMAT,
            "horizon": self.horizon,
            "initial_peers": self.initial_peers,
            "events": [event.to_jsonable() for event in self.events],
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "Schedule":
        if payload.get("format") != SCHEDULE_FORMAT:
            raise ValueError(
                f"not a scenario schedule payload (format={payload.get('format')!r})"
            )
        return cls(
            events=tuple(
                ScenarioEvent.from_jsonable(entry) for entry in payload["events"]
            ),
            horizon=payload["horizon"],
            initial_peers=payload["initial_peers"],
        )

    def save(self, path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_jsonable(), indent=2))

    @classmethod
    def load(cls, path) -> "Schedule":
        return cls.from_jsonable(json.loads(pathlib.Path(path).read_text()))

