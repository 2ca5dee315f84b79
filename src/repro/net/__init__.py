"""Networked peer-to-peer backup: the paper's life cycle over real TCP.

Where :mod:`repro.p2p` *simulates* a swarm with discrete events, this
package *runs* one: asyncio daemons serving content-addressed piece
stores, a versioned binary wire protocol, and a coordinator that drives
insertion, maintenance, and reconstruction against live peers.

- :mod:`repro.net.protocol` -- length-prefixed typed messages
  (STORE_PIECE, GET_PIECE, GET_ROWS, REPAIR_READ, PING, ERROR);
- :mod:`repro.net.blockstore` -- SHA-256 content-addressed piece store;
- :mod:`repro.net.server` -- :class:`PeerDaemon`, with helper-side
  repair encoding and one request dispatched at a time per peer;
- :mod:`repro.net.client` -- :class:`PeerClient`, timeouts plus
  exponential-backoff retry over pooled persistent connections;
- :mod:`repro.net.pool` -- :class:`ConnectionPool`, up to N health-
  checked streams per peer;
- :mod:`repro.net.coordinator` -- insert / repair / reconstruct with
  dead-helper substitution and coefficient-first downloads;
- :mod:`repro.net.cluster` -- :class:`LocalCluster` for tests & demos;
- :mod:`repro.net.faults` -- seeded deterministic fault injection
  (:class:`FaultPlan`) wired through daemons, clients, and clusters.
"""

from repro.net.blockstore import BlockStore
from repro.net.client import DEFAULT_POOL_SIZE, PeerClient, RetryPolicy, default_pool_size
from repro.net.cluster import LocalCluster
from repro.net.coordinator import (
    Coordinator,
    InsertStats,
    NetManifest,
    PeerAddress,
    ReconstructStats,
    RepairStats,
)
from repro.net.errors import (
    ChecksumError,
    InsufficientPeersError,
    NetError,
    NetReconstructError,
    NetRepairError,
    PeerUnavailableError,
    ProtocolError,
    RemoteError,
)
from repro.net.faults import FaultEvent, FaultKind, FaultPlan, FaultRule
from repro.net.pool import ConnectionPool, PooledConnection
from repro.net.server import PeerDaemon

__all__ = [
    "BlockStore",
    "ChecksumError",
    "ConnectionPool",
    "Coordinator",
    "DEFAULT_POOL_SIZE",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "InsertStats",
    "InsufficientPeersError",
    "LocalCluster",
    "NetError",
    "NetManifest",
    "NetReconstructError",
    "NetRepairError",
    "PeerAddress",
    "PeerClient",
    "PeerDaemon",
    "PeerUnavailableError",
    "PooledConnection",
    "ProtocolError",
    "ReconstructStats",
    "RemoteError",
    "RepairStats",
    "RetryPolicy",
    "default_pool_size",
]
