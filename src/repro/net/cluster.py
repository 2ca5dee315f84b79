"""A localhost cluster of peer daemons for tests, demos, and benches.

:class:`LocalCluster` spins up N :class:`PeerDaemon` instances on
ephemeral localhost ports, each with its own on-disk blockstore, and
supports killing and restarting individual peers -- enough to run the
paper's whole life cycle (insert, peer loss, repair, reconstruct) over
real TCP in a few hundred milliseconds.

    async with LocalCluster(8, root) as cluster:
        stats = await coordinator.insert(data, cluster.addresses, "file-1")
        await cluster.kill(3)                    # peer 3 leaves the swarm
        await coordinator.repair(stats.manifest, lost, newcomer)

Killing closes the listening socket but keeps the blockstore directory
*and* the peer's dial address: :meth:`restart` rebinds the same port, so
a manifest that placed pieces on the peer stays valid across the outage.
That makes :meth:`kill` + :meth:`restart` model a *transient*
disconnection (the paper's availability churn) while :meth:`decommission`
-- kill plus blockstore wipe -- models a *permanent* departure with data
loss.
"""

from __future__ import annotations

import asyncio
import pathlib
import shutil

import numpy as np

from repro.net.blockstore import BlockStore
from repro.net.coordinator import PeerAddress
from repro.net.faults import FaultPlan
from repro.net.server import PeerDaemon

__all__ = ["LocalCluster"]


class LocalCluster:
    """N peer daemons on localhost, one blockstore directory each.

    Pass a :class:`repro.net.faults.FaultPlan` to run the cluster under
    a reproducible failure schedule: every daemon consults the shared
    plan, identifying itself to scoped rules as ``"peerNN"`` (the number
    is stable across kills and restarts, unlike the ephemeral port).
    """

    def __init__(
        self,
        peers: int,
        root,
        seed: int | None = None,
        fault_plan: FaultPlan | None = None,
        fsync: bool = False,
    ):
        if peers < 1:
            raise ValueError(f"a cluster needs at least one peer, got {peers}")
        self.root = pathlib.Path(root)
        self._seed = seed
        self.fault_plan = fault_plan
        # Local clusters hold disposable data: skip the blockstore's
        # durability fsyncs by default so small-piece storms measure the
        # wire, not the filesystem journal.  Pass fsync=True to get the
        # deployment write path.
        self.fsync = fsync
        self.daemons: list[PeerDaemon] = [
            self._make_daemon(number) for number in range(peers)
        ]

    def _make_daemon(self, number: int) -> PeerDaemon:
        store = BlockStore(self.root / f"peer_{number:02d}", fsync=self.fsync)
        rng = (
            np.random.default_rng(self._seed + number)
            if self._seed is not None
            else np.random.default_rng()
        )
        return PeerDaemon(
            store,
            rng=rng,
            fault_plan=self.fault_plan,
            fault_scope=f"peer{number:02d}",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        for daemon in self.daemons:
            if not daemon.running:
                await daemon.start()

    async def stop(self) -> None:
        for daemon in self.daemons:
            await daemon.stop()

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.daemons)

    @property
    def addresses(self) -> list[PeerAddress]:
        """Dial addresses of the currently *running* peers."""
        return [
            PeerAddress(host=daemon.host, port=daemon.port)
            for daemon in self.daemons
            if daemon.running
        ]

    def address_of(self, number: int) -> PeerAddress:
        daemon = self.daemons[number]
        return PeerAddress(host=daemon.host, port=daemon.port)

    def is_running(self, number: int) -> bool:
        return self.daemons[number].running

    async def kill(self, number: int) -> PeerAddress:
        """Take peer ``number`` off the network (its disk survives)."""
        daemon = self.daemons[number]
        address = PeerAddress(host=daemon.host, port=daemon.port)
        await daemon.stop()
        return address

    async def restart(
        self, number: int, fresh_port: bool = False, bind_attempts: int = 20
    ) -> PeerAddress:
        """Bring a killed peer back at its *old* address, disk intact.

        Reusing the port is what lets a scenario model transient downtime:
        every manifest that placed pieces on the peer dials the same
        ``host:port`` after the outage.  The kernel occasionally still
        holds the port for a moment after the old listener closed, so the
        rebind retries briefly before giving up.  Pass ``fresh_port=True``
        for the historical bind-anywhere behaviour (the peer comes back
        as a stranger at a new address).
        """
        daemon = self.daemons[number]
        if daemon.running:
            return self.address_of(number)
        if fresh_port:
            daemon.port = 0
            await daemon.start()
            return self.address_of(number)
        for attempt in range(bind_attempts - 1):
            try:
                await daemon.start()
                return self.address_of(number)
            except OSError:
                await asyncio.sleep(0.05 * (attempt + 1))
        await daemon.start()  # last try: let the OSError propagate
        return self.address_of(number)

    async def decommission(self, number: int) -> PeerAddress:
        """Permanent departure: take the peer down *and* destroy its disk.

        The opposite of :meth:`kill`/:meth:`restart` transient downtime --
        a restarted decommissioned peer comes back empty, like a newcomer
        that happens to reuse the address.
        """
        address = await self.kill(number)
        # rmtree over a whole blockstore is disk-bound; keep the loop
        # (and the other daemons it serves) responsive while it runs.
        await asyncio.to_thread(self.wipe, number)
        return address

    async def spawn(self) -> PeerAddress:
        """Add a brand-new empty peer to the cluster (a newcomer)."""
        daemon = self._make_daemon(len(self.daemons))
        self.daemons.append(daemon)
        await daemon.start()
        return PeerAddress(host=daemon.host, port=daemon.port)

    def wipe(self, number: int) -> None:
        """Destroy peer ``number``'s blockstore (permanent data loss)."""
        store_root = self.daemons[number].store.root
        shutil.rmtree(store_root, ignore_errors=True)
        self.daemons[number].store = BlockStore(store_root, fsync=self.fsync)
