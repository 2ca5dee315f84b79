"""Closed-loop driver: one workload, one process, live daemons over localhost TCP.

The timed run calls only the public ``Coordinator`` / ``LocalCluster``
API and installs nothing.  The traced run spends the first third of its
budget the same way (its baseline for ``bench.trace_overhead_ratio``),
then installs :class:`tracer.Tracer` and records the rest.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import itertools
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.core.params import RCParams
from repro.net import Coordinator, LocalCluster, NetError
from repro.obs import merge_snapshots

from tracer import OP, Tracer
from workloads import Workload

#: ``setup_s`` is the median of at least this many set-ups; cheap set-ups
#: repeat (up to the cap) until they have used SETUP_SECONDS, so a 0.1 s
#: set-up is not judged on three samples.  The last set-up is the one used.
SETUP_REPEATS = 3
SETUP_REPEATS_CAP = 15
SETUP_SECONDS = 3.0
#: Share of a traced run's budget spent before the wrappers go in.
UNTRACED_SHARE = 1 / 3


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    serial: int
    start_ns: int
    end_ns: int
    ok: bool
    wire_bytes: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Session:
    """A started cluster, its coordinator, and each client's placement."""

    def __init__(self, workload: Workload, seed: int, root: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.params = RCParams(k=workload.k, h=workload.h, d=workload.d, i=workload.i)
        self.cluster = LocalCluster(
            workload.peers, root, seed=seed, fsync=workload.fsync
        )
        self.coordinator = Coordinator(self.params, rng=np.random.default_rng(seed))
        self.ops: list[Op] = []
        self._serials = itertools.count()
        self._holders: list[list] = []
        self._spares: list = []

    async def start(self) -> None:
        """Start the daemons and run the untimed warm-up cycle.

        The warm-up builds the GF tables and opens the pooled
        connections; both are charged to ``setup_s``.
        """
        await self.cluster.start()
        addresses = self.cluster.addresses
        for client in range(self.workload.clients):
            spare = addresses[-1 - client]
            self._holders.append([a for a in addresses if a != spare])
            self._spares.append(spare)
        await self.cycle(0, 0)
        if not all(op.ok for op in self.ops) or len(self.ops) != 3:
            raise RuntimeError(f"warm-up cycle failed: {self.ops}")
        self.ops = []

    async def close(self) -> None:
        await self.coordinator.aclose()
        await self.cluster.stop()

    async def _op(self, kind: str, awaitable, wire_bytes, accept=None):
        """Time one life-cycle call; a NetError or a rejected result fails it."""
        serial = next(self._serials)
        token = OP.set((kind, serial))
        start = time.perf_counter_ns()
        try:
            result = await awaitable
        except NetError as exc:
            print(f"{kind} raised {exc!r}", file=sys.stderr)
            result = None
        finally:
            end = time.perf_counter_ns()
            OP.reset(token)
        ok = result is not None and (accept is None or accept(result))
        self.ops.append(
            Op(kind, serial, start, end, ok, wire_bytes(result) if ok else 0)
        )
        return result if ok else None

    async def cycle(self, client: int, number: int) -> None:
        """insert -> repair piece ``number mod k`` onto the spare -> reconstruct."""
        workload = self.workload
        data = np.random.default_rng([self.seed, client, number]).bytes(
            workload.file_size
        )
        inserted = await self._op(
            "insert",
            self.coordinator.insert(
                data, self._holders[client], f"c{client}-{number:06d}"
            ),
            lambda stats: stats.bytes_uploaded,
        )
        if inserted is None:
            return
        manifest = inserted.manifest
        lost = number % workload.k
        old_holder = manifest.pieces[lost]
        repaired = await self._op(
            "repair",
            self.coordinator.repair(manifest, lost, self._spares[client]),
            lambda stats: stats.total_bytes,
        )
        if repaired is None:
            return
        holders = self._holders[client]
        holders[holders.index(old_holder)] = self._spares[client]
        self._spares[client] = old_holder
        digest = hashlib.sha256(data).digest()
        await self._op(
            "reconstruct",
            self.coordinator.reconstruct(manifest),
            lambda result: result[1].payload_bytes + result[1].coefficient_bytes,
            accept=lambda result: hashlib.sha256(result[0]).digest() == digest,
        )

    async def drive(self, seconds: float, first_cycle: int) -> tuple[list[Op], int, int]:
        """Every client cycles until the deadline; ``(ops, wall_ns, next cycle)``."""
        deadline = time.perf_counter() + seconds

        async def client_loop(client: int) -> int:
            for number in itertools.count(first_cycle):
                await self.cycle(client, number)
                if time.perf_counter() >= deadline:
                    return number + 1

        start = time.perf_counter_ns()
        reached = await asyncio.gather(
            *(client_loop(client) for client in range(self.workload.clients))
        )
        wall_ns = time.perf_counter_ns() - start
        ops, self.ops = self.ops, []
        return ops, wall_ns, max(reached)

    def obs_snapshot(self) -> dict:
        """Coordinator and every daemon registry merged (call between ops)."""
        return merge_snapshots(
            self.coordinator.metrics_snapshot(),
            *(daemon.snapshot() for daemon in self.cluster.daemons),
        )

    def disk_bytes(self) -> tuple[int, int]:
        """``(piece object bytes, ref bytes)`` on disk across all blockstores.

        Read right after the warm-up cycle, when exactly one file has been
        inserted and repaired once: later cycles repair other piece
        indices, whose longer keys make the refs a byte larger.
        """
        objects, refs = (
            sum(
                path.stat().st_size
                for path in self.root.glob(f"peer_*/{sub}/**/*")
                if path.is_file()
            )
            for sub in ("objects", "refs")
        )
        return objects, refs


async def _setup(workload, seed, root, smoke: bool) -> tuple[Session, float]:
    """Set up until ``setup_s`` has enough samples; returns the last session."""
    times: list[float] = []
    for attempt in itertools.count():
        start = time.perf_counter()
        session = Session(workload, seed, root / f"cluster{attempt}")
        try:
            await session.start()
        except BaseException:
            await session.close()
            raise
        times.append(time.perf_counter() - start)
        enough = len(times) >= SETUP_REPEATS and (
            sum(times) >= SETUP_SECONDS or len(times) == SETUP_REPEATS_CAP
        )
        if smoke or enough:
            return session, statistics.median(times)
        await session.close()
        await asyncio.to_thread(shutil.rmtree, session.root)


async def _measure(workload, seed, seconds, trace, smoke, root) -> dict:
    session, setup_s = await _setup(workload, seed, root, smoke)
    try:
        raw = {
            "setup_s": setup_s,
            "params": session.params,
            "disk_bytes": session.disk_bytes(),
        }
        if trace:
            baseline, _, cycle = await session.drive(seconds * UNTRACED_SHARE, 1)
            tracer = Tracer()
            tracer.install()
            before = session.obs_snapshot(), session.coordinator.transport_stats()
            ops, wall_ns, _ = await session.drive(
                seconds * (1 - UNTRACED_SHARE), cycle
            )
            raw.update(
                baseline_ops=baseline,
                spans=tracer.spans,
                stale_bindings=tracer.stale_bindings(),
                obs=(before[0], session.obs_snapshot()),
                transport=(before[1], session.coordinator.transport_stats()),
            )
        else:
            ops, wall_ns, _ = await session.drive(seconds, 1)
        raw.update(ops=ops, wall_ns=wall_ns)
        return raw
    finally:
        await session.close()


def run(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
        work_dir: pathlib.Path) -> dict:
    """One fully specified run; returns the raw samples for :mod:`ledger`."""
    work_dir.mkdir(parents=True, exist_ok=True)
    root = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir))
    try:
        return asyncio.run(_measure(workload, seed, seconds, trace, smoke, root))
    finally:
        shutil.rmtree(root, ignore_errors=True)
