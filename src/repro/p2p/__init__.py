"""Discrete-event peer-to-peer backup-system simulator.

The paper's deployment context (and declared future work) is an
Internet-wide P2P backup system where "data maintenance due to the high
node churn is far more frequent than data insertion or retrieval"
(section 5.2).  This package builds that system so the redundancy
schemes of :mod:`repro.codes` can be compared end to end:

- :mod:`repro.p2p.events` -- the simulation clock and event queue;
- :mod:`repro.p2p.churn` -- peer lifetime and arrival models;
- :mod:`repro.p2p.peer` -- peer state (bandwidth, stored blocks);
- :mod:`repro.p2p.network` -- transfer times, with the paper's
  computation/transfer pipelining (section 5.2) built in;
- :mod:`repro.p2p.placement` -- uniform random placement on distinct peers;
- :mod:`repro.p2p.maintenance` -- eager and lazy repair policies;
- :mod:`repro.p2p.metrics` -- traffic/durability accounting;
- :mod:`repro.p2p.system` -- the BackupSystem facade and simulation loop.
"""

from repro.p2p.availability import (
    AlwaysOnline,
    AvailabilityModel,
    ExponentialOnOff,
    PeriodicOnOff,
)
from repro.p2p.churn import (
    DeterministicLifetime,
    ExponentialLifetime,
    LifetimeModel,
    WeibullLifetime,
)
from repro.p2p.events import EventQueue, ScheduledEvent
from repro.p2p.maintenance import EagerMaintenance, LazyMaintenance, MaintenancePolicy
from repro.p2p.metrics import SimulationMetrics
from repro.p2p.network import NetworkModel, PipelinedComputation
from repro.p2p.peer import Peer
from repro.p2p.placement import PlacementError, choose_peers
from repro.p2p.system import BackupSystem, SimulationConfig, StoredFile
from repro.p2p.traces import ChurnTrace, SessionEvent, apply_trace, generate_trace

__all__ = [
    "AlwaysOnline",
    "AvailabilityModel",
    "BackupSystem",
    "ChurnTrace",
    "DeterministicLifetime",
    "SessionEvent",
    "apply_trace",
    "generate_trace",
    "ExponentialOnOff",
    "PeriodicOnOff",
    "EagerMaintenance",
    "EventQueue",
    "ExponentialLifetime",
    "LazyMaintenance",
    "LifetimeModel",
    "MaintenancePolicy",
    "NetworkModel",
    "Peer",
    "PipelinedComputation",
    "PlacementError",
    "ScheduledEvent",
    "SimulationConfig",
    "SimulationMetrics",
    "StoredFile",
    "WeibullLifetime",
    "choose_peers",
]
