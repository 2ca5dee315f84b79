"""Execute a schedule against live daemons, asserting durability.

The :class:`ScenarioRunner` is the bridge's live half: it takes a
compiled :class:`~repro.scenario.schedule.Schedule`, spins up a real
:class:`~repro.net.cluster.LocalCluster`, and walks the schedule window
by window -- applying that window's events (daemon kills, restarts,
permanent deaths, newcomer spawns, fault-rule toggles), interleaving
coordinator life-cycle operations (inserts, repairs of degraded files,
reconstruction probes), and checking the durability invariants the
paper's section 5 maintenance story rests on:

- **reconstructable** -- every inserted file must reconstruct,
  byte-identical, whenever at least ``k`` of its pieces sit on live
  peers;
- **repair-bounded** -- a file degraded by churn returns to full
  redundancy within ``max_repair_lag`` maintenance windows, counting
  only windows in which repair was actually possible (``>= d`` live
  holders and a live newcomer);
- **no silent corruption** -- reconstructed bytes match the inserted
  SHA-256 (on top of the per-piece CRC32 the stack already enforces).

Everything the runner does is a pure function of ``(schedule, seed,
knobs)``: operations are drawn from a seeded generator at window
granularity, faults from the shared deterministic
:class:`~repro.net.faults.FaultPlan`, so two runs with the same inputs
produce the same event history and the same invariant outcomes -- the
property the ``scenario`` test tier asserts and the JSON report makes
replayable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import pathlib

import numpy as np

from repro.core.params import RCParams
from repro.net.client import RetryPolicy
from repro.net.cluster import LocalCluster
from repro.net.coordinator import Coordinator, NetManifest, PeerAddress
from repro.net.errors import NetError
from repro.net.faults import FaultPlan
from repro.scenario.schedule import ScenarioEvent, Schedule

__all__ = [
    "REPORT_FORMAT",
    "SUPPORTED_REPORT_FORMATS",
    "ScenarioReport",
    "ScenarioRunner",
    "WindowRecord",
]

REPORT_FORMAT = "repro-scenario-report-v2"
#: Formats :meth:`ScenarioReport.load_jsonable` accepts.  v1 reports
#: predate the embedded obs snapshots (their ``obs`` key reads as
#: ``None``); everything the replay machinery compares is unchanged.
SUPPORTED_REPORT_FORMATS = ("repro-scenario-report-v1", REPORT_FORMAT)


def _sha256_hex(data: bytes) -> str:
    """Ground-truth digest of one file; run via ``asyncio.to_thread``
    from the async paths (files are MBs, hashing them stalls the loop)."""
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass
class _FileState:
    """One inserted file's ground truth and degradation bookkeeping."""

    file_id: str
    data: bytes
    sha256: str
    manifest: NetManifest
    #: Windows spent degraded while repair was possible (resets on full
    #: redundancy) -- the repair-lag the bounded-repair invariant caps.
    eligible_lag: int = 0
    max_eligible_lag: int = 0


@dataclasses.dataclass
class WindowRecord:
    """What one scenario window did, for the JSON report."""

    time: float
    events: list[dict] = dataclasses.field(default_factory=list)
    ops_attempted: int = 0
    ops_failed: int = 0
    repairs: int = 0
    degraded_files: int = 0
    violations: list[str] = dataclasses.field(default_factory=list)

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ScenarioReport:
    """The reproducible record of one scenario run.

    ``meta`` carries whatever the caller needs to replay the run (the
    CLI stores model name, seed, and every knob); ``event_history`` and
    ``invariants`` are the two fields reproducibility tests compare.
    """

    meta: dict
    seed: int
    initial_peers: int
    horizon: float
    schedule_events: int
    windows: list[WindowRecord]
    event_history: list[tuple]
    fault_history: list[tuple]
    ops: dict
    files_inserted: int
    max_repair_lag: int
    violations: list[str]
    invariants: dict
    #: Coordinator-side metrics snapshots (``repro-obs-snapshot-v1``)
    #: bracketing the run: ``{"begin": ..., "end": ...}``.  ``None``
    #: when loaded from a v1 report.
    obs: dict | None = None

    @property
    def ok(self) -> bool:
        return all(self.invariants.values())

    def to_jsonable(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "meta": self.meta,
            "seed": self.seed,
            "initial_peers": self.initial_peers,
            "horizon": self.horizon,
            "schedule_events": self.schedule_events,
            "windows": [window.to_jsonable() for window in self.windows],
            "event_history": [list(entry) for entry in self.event_history],
            "fault_history": [list(entry) for entry in self.fault_history],
            "ops": self.ops,
            "files_inserted": self.files_inserted,
            "max_repair_lag": self.max_repair_lag,
            "violations": self.violations,
            "invariants": self.invariants,
            "obs": self.obs,
            "ok": self.ok,
        }

    def save(self, path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_jsonable(), indent=2))

    @staticmethod
    def load_jsonable(path) -> dict:
        payload = json.loads(pathlib.Path(path).read_text())
        if payload.get("format") not in SUPPORTED_REPORT_FORMATS:
            raise ValueError(f"not a scenario report file: {path}")
        # v1 reports carry no obs snapshots; normalise so readers can
        # always ask payload["obs"] without a format switch.
        payload.setdefault("obs", None)
        return payload


class ScenarioRunner:
    """Drive one schedule against a live cluster; produce a report.

    Parameters
    ----------
    schedule:
        The compiled event schedule (also fixes the initial peer count).
    params:
        Code parameters; ``n = k + h`` pieces per file.
    root:
        Directory for the cluster's per-peer blockstores.
    seed:
        Master seed: daemon randomness, the fault plan, and the
        operation stream all derive from it.
    ops_per_window:
        Reconstruction probes attempted per window (each verifies one
        file end to end).  Inserts add one more operation per window.
    initial_files / file_size:
        Files inserted before the first window, and the size of every
        generated file.
    max_repair_lag:
        Repair-bounded invariant: max windows a file may stay degraded
        while repair is possible.
    drain_windows:
        Event-free windows appended after the horizon so maintenance can
        catch up before the final full verification sweep.
    """

    def __init__(
        self,
        schedule: Schedule,
        params: RCParams,
        root,
        *,
        seed: int,
        meta: dict | None = None,
        ops_per_window: int = 4,
        initial_files: int = 2,
        insert_every: int = 1,
        file_size: int = 1024,
        max_repair_lag: int = 3,
        drain_windows: int = 3,
        repairs_per_window: int | None = None,
        read_timeout: float = 2.0,
    ):
        if ops_per_window < 0 or initial_files < 0 or drain_windows < 0:
            raise ValueError("ops_per_window/initial_files/drain_windows must be >= 0")
        if insert_every < 1:
            raise ValueError(f"insert_every must be >= 1, got {insert_every}")
        if file_size < 1:
            raise ValueError(f"file_size must be >= 1, got {file_size}")
        self.schedule = schedule
        self.params = params
        self.root = pathlib.Path(root)
        self.seed = int(seed)
        self.meta = dict(meta) if meta else {}
        self.ops_per_window = ops_per_window
        self.initial_files = initial_files
        self.insert_every = insert_every
        self.file_size = file_size
        self.max_repair_lag = max_repair_lag
        self.drain_windows = drain_windows
        self.repairs_per_window = repairs_per_window
        self.read_timeout = read_timeout

        self._files: list[_FileState] = []
        self._file_counter = 0
        self._decommissioned: set[int] = set()
        self._address_to_peer: dict[PeerAddress, int] = {}
        self._event_history: list[tuple] = []
        self._violations: list[str] = []
        self._ops = {
            "insert_attempted": 0,
            "insert_failed": 0,
            "repair_attempted": 0,
            "repair_failed": 0,
            "verify_attempted": 0,
            "verify_failed": 0,
        }

    # ------------------------------------------------------------------
    # window plumbing
    # ------------------------------------------------------------------

    def window_times(self) -> list[float]:
        """Window anchors: unit ticks, event times, then drain windows."""
        anchors = {float(tick) for tick in range(int(self.schedule.horizon))}
        anchors.update(self.schedule.event_times())
        drain_base = self.schedule.horizon
        anchors.update(drain_base + 1.0 + offset for offset in range(self.drain_windows))
        return sorted(anchors)

    def _live_peer_of(self, cluster: LocalCluster, address: PeerAddress) -> int | None:
        number = self._address_to_peer.get(address)
        if number is None or not cluster.is_running(number):
            return None
        return number

    def _live_piece_count(self, cluster: LocalCluster, manifest: NetManifest) -> int:
        return sum(
            1
            for address in manifest.pieces.values()
            if self._live_peer_of(cluster, address) is not None
        )

    def _missing_pieces(self, cluster: LocalCluster, manifest: NetManifest) -> list[int]:
        return [
            index
            for index, address in sorted(manifest.pieces.items())
            if self._live_peer_of(cluster, address) is None
        ]

    def _repair_target(
        self, cluster: LocalCluster, manifest: NetManifest
    ) -> PeerAddress | None:
        """Lowest-numbered live peer, preferring one holding no piece of
        this file (deterministic, so two runs repair identically)."""
        holders = {
            self._address_to_peer.get(address)
            for address in manifest.pieces.values()
        }
        fallback: PeerAddress | None = None
        for number in range(len(cluster)):
            if not cluster.is_running(number):
                continue
            address = cluster.address_of(number)
            if number not in holders:
                return address
            if fallback is None:
                fallback = address
        return fallback

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------

    async def apply_event(
        self,
        cluster: LocalCluster,
        plan: FaultPlan,
        rule_index: dict,
        event: ScenarioEvent,
    ) -> bool:
        """Apply one schedule event; returns whether it had any effect."""
        if event.action == "kill":
            assert event.peer is not None
            if event.peer >= len(cluster) or not cluster.is_running(event.peer):
                return False
            await cluster.kill(event.peer)
            return True
        if event.action == "restart":
            assert event.peer is not None
            if (
                event.peer >= len(cluster)
                or event.peer in self._decommissioned
                or cluster.is_running(event.peer)
            ):
                return False
            await cluster.restart(event.peer)
            return True
        if event.action == "death":
            assert event.peer is not None
            if event.peer >= len(cluster) or event.peer in self._decommissioned:
                return False
            self._decommissioned.add(event.peer)
            if cluster.is_running(event.peer):
                await cluster.decommission(event.peer)
            else:
                # Disk-bound rmtree of the whole blockstore; keep the
                # loop free for the daemons still serving.
                await asyncio.to_thread(cluster.wipe, event.peer)
            return True
        if event.action == "spawn":
            address = await cluster.spawn()
            self._address_to_peer[address] = len(cluster) - 1
            return True
        if event.action in ("fault_on", "fault_off"):
            assert event.rule is not None
            index = rule_index[event.rule]
            active = event.action == "fault_on"
            if plan.rule_active(index) == active:
                return False
            plan.set_rule_active(index, active)
            return True
        raise AssertionError(f"unhandled action {event.action!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    async def _insert_file(
        self,
        coordinator: Coordinator,
        cluster: LocalCluster,
        rng: np.random.Generator,
        record: WindowRecord,
    ) -> None:
        data = rng.integers(0, 256, size=self.file_size, dtype=np.uint8).tobytes()
        file_id = f"sf{self._file_counter:04d}"
        self._file_counter += 1
        addresses = cluster.addresses
        self._ops["insert_attempted"] += 1
        record.ops_attempted += 1
        if not addresses:
            self._ops["insert_failed"] += 1
            record.ops_failed += 1
            return
        try:
            stats = await coordinator.insert(data, addresses, file_id)
        except NetError:
            # Insertion onto a shrinking swarm may legitimately fail; the
            # durability invariants only cover files the swarm accepted.
            self._ops["insert_failed"] += 1
            record.ops_failed += 1
            return
        digest = await asyncio.to_thread(_sha256_hex, data)
        self._files.append(
            _FileState(
                file_id=file_id,
                data=data,
                sha256=digest,
                manifest=stats.manifest,
            )
        )

    async def repair_degraded(
        self,
        coordinator: Coordinator,
        cluster: LocalCluster,
        record: WindowRecord,
    ) -> None:
        """One maintenance round: regenerate pieces living on dead peers.

        Repair lag accounting: a file still degraded at the end of a
        round advances its lag counter only if the round *could* have
        repaired it (enough live holders, a live newcomer) -- a swarm
        below the ``d`` helper threshold is the code's documented
        boundary, not a maintenance bug.
        """
        budget = self.repairs_per_window
        for state in self._files:
            missing = self._missing_pieces(cluster, state.manifest)
            if not missing:
                state.eligible_lag = 0
                continue
            record.degraded_files += 1
            repair_was_possible = False
            for index in missing:
                if budget is not None and budget <= 0:
                    break
                live_holders = self._live_piece_count(cluster, state.manifest)
                if live_holders < self.params.d:
                    break
                target = self._repair_target(cluster, state.manifest)
                if target is None:
                    break
                repair_was_possible = True
                self._ops["repair_attempted"] += 1
                record.ops_attempted += 1
                record.repairs += 1
                if budget is not None:
                    budget -= 1
                try:
                    await coordinator.repair(state.manifest, index, target)
                except NetError:
                    self._ops["repair_failed"] += 1
                    record.ops_failed += 1
            if self._missing_pieces(cluster, state.manifest):
                if repair_was_possible:
                    state.eligible_lag += 1
                    state.max_eligible_lag = max(
                        state.max_eligible_lag, state.eligible_lag
                    )
            else:
                state.eligible_lag = 0
        coordinator.obs.gauge("coordinator.repair_lag").set(
            max((state.eligible_lag for state in self._files), default=0)
        )

    async def verify_files(
        self,
        coordinator: Coordinator,
        cluster: LocalCluster,
        rng: np.random.Generator,
        record: WindowRecord,
        time: float,
        sweep: bool = False,
    ) -> None:
        """Reconstruction probes: the reconstructable + no-corruption
        invariants, checked on a seeded sample (or all files on sweep)."""
        if not self._files:
            return
        if sweep:
            chosen = list(range(len(self._files)))
        else:
            count = min(self.ops_per_window, len(self._files))
            if count == 0:
                return
            chosen = sorted(
                int(position)
                for position in rng.choice(len(self._files), size=count, replace=False)
            )
        for position in chosen:
            state = self._files[position]
            live = self._live_piece_count(cluster, state.manifest)
            self._ops["verify_attempted"] += 1
            record.ops_attempted += 1
            try:
                restored, _ = await coordinator.reconstruct(state.manifest)
            except NetError as exc:
                self._ops["verify_failed"] += 1
                record.ops_failed += 1
                if live >= self.params.k:
                    violation = (
                        f"unreconstructable:{state.file_id}@{time:g}"
                        f":{type(exc).__name__}:{live}-live"
                    )
                    self._violations.append(violation)
                    record.violations.append(violation)
                continue
            if await asyncio.to_thread(_sha256_hex, restored) != state.sha256:
                violation = f"corruption:{state.file_id}@{time:g}"
                self._violations.append(violation)
                record.violations.append(violation)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------

    async def run_window(
        self,
        coordinator: Coordinator,
        cluster: LocalCluster,
        plan: FaultPlan,
        rule_index: dict,
        rng: np.random.Generator,
        window_number: int,
        time: float,
        final: bool,
    ) -> WindowRecord:
        record = WindowRecord(time=time)
        for event in self.schedule.events_at(time):
            applied = await self.apply_event(cluster, plan, rule_index, event)
            entry = event.to_jsonable()
            entry["applied"] = applied
            record.events.append(entry)
            self._event_history.append(
                (time, event.action, -1 if event.peer is None else event.peer, applied)
            )
        if window_number % self.insert_every == 0:
            await self._insert_file(coordinator, cluster, rng, record)
        await self.repair_degraded(coordinator, cluster, record)
        await self.verify_files(
            coordinator, cluster, rng, record, time, sweep=final
        )
        return record

    async def run_scenario(self) -> ScenarioReport:
        """Execute the whole schedule; never raises on churn, only on bugs."""
        plan = self.schedule.build_fault_plan(self.seed)
        rule_index = {
            rule: index for index, rule in enumerate(self.schedule.fault_rules())
        }
        ops_rng = np.random.default_rng(self.seed + 1)
        windows: list[WindowRecord] = []
        cluster = LocalCluster(
            self.schedule.initial_peers,
            self.root,
            seed=self.seed,
            fault_plan=plan,
        )
        coordinator = Coordinator(
            self.params,
            rng=np.random.default_rng(self.seed + 2),
            retry=RetryPolicy(retries=1, backoff=0.02, jitter=0.0),
            connect_timeout=2.0,
            read_timeout=self.read_timeout,
            fault_plan=plan,
        )
        obs_begin = coordinator.metrics_snapshot()
        async with cluster, coordinator:
            for number in range(len(cluster)):
                self._address_to_peer[cluster.address_of(number)] = number
            seed_record = WindowRecord(time=-1.0)
            for _ in range(self.initial_files):
                await self._insert_file(coordinator, cluster, ops_rng, seed_record)
            windows.append(seed_record)
            times = self.window_times()
            for window_number, time in enumerate(times):
                windows.append(
                    await self.run_window(
                        coordinator,
                        cluster,
                        plan,
                        rule_index,
                        ops_rng,
                        window_number,
                        time,
                        final=window_number == len(times) - 1,
                    )
                )
        max_lag = max(
            (state.max_eligible_lag for state in self._files), default=0
        )
        invariants = {
            "reconstructable_when_k_live": not any(
                violation.startswith("unreconstructable:")
                for violation in self._violations
            ),
            "no_silent_corruption": not any(
                violation.startswith("corruption:") for violation in self._violations
            ),
            "repair_within_bound": max_lag <= self.max_repair_lag,
        }
        return ScenarioReport(
            meta=self.meta,
            seed=self.seed,
            initial_peers=self.schedule.initial_peers,
            horizon=self.schedule.horizon,
            schedule_events=len(self.schedule),
            windows=windows,
            event_history=self._event_history,
            fault_history=[tuple(entry) for entry in plan.history()],
            ops=dict(self._ops),
            files_inserted=len(self._files),
            max_repair_lag=max_lag,
            violations=list(self._violations),
            invariants=invariants,
            obs={"begin": obs_begin, "end": coordinator.metrics_snapshot()},
        )
