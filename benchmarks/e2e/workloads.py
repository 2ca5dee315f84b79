"""The four workloads of the live-stack ledger (ISSUE 13).

Every workload is a closed loop: a client starts its next operation only
after the previous one completed.  One cycle is

    insert a fresh seeded file
    -> repair piece ``cycle mod k`` onto the client's spare peer
       (the cluster has k + h + 1 peers; the old holder becomes the
       next spare)
    -> reconstruct -> SHA-256 check.

This module imports nothing from ``repro`` so the runner can list the
workloads before the package is on ``sys.path``.
"""

from __future__ import annotations

import dataclasses

KIB = 1 << 10
MIB = 1 << 20


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    h: int
    d: int
    i: int
    file_size: int
    smoke_file_size: int
    fsync: bool = False
    clients: int = 1

    @property
    def peers(self) -> int:
        """k + h holders plus the one spare a repair lands on."""
        return self.k + self.h + 1

    def sized(self, smoke: bool) -> "Workload":
        if not smoke:
            return self
        return dataclasses.replace(self, file_size=self.smoke_file_size)


WORKLOADS = (
    Workload(
        name="paper_rc40_1m",
        why="RC(32,32,40,1) on 1 MiB, the paper's sweet spot: GF-bound, where "
        "kernels and the n_file=319 elimination must show",
        k=32, h=32, d=40, i=1,
        file_size=MIB, smoke_file_size=64 * KIB,
    ),
    Workload(
        name="erasure_rc32_1m",
        why="RC(32,32,32,0) on 1 MiB, the paper's t(32,0) baseline: coding is cheap, "
        "repair moves the whole file, so serializer, wire and blockstore carry it",
        k=32, h=32, d=32, i=0,
        file_size=MIB, smoke_file_size=64 * KIB,
    ),
    Workload(
        name="bulk_rc10_16m",
        why="RC(8,8,10,1) on 16 MiB: multi-MiB pieces and frames, the one place "
        "matmul_sharded fans out and copy+CRC, BlockStore.get and memory are visible",
        k=8, h=8, d=10, i=1,
        file_size=16 * MIB, smoke_file_size=64 * KIB,
    ),
    Workload(
        name="smallfile_rc10_16k_2c",
        why="RC(8,8,10,1) on 16 KiB with fsync and 2 clients on one Coordinator: "
        "per-operation overhead, writes beside reads on the same daemons",
        k=8, h=8, d=10, i=1,
        file_size=16 * KIB, smoke_file_size=16 * KIB,
        fsync=True, clients=2,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
