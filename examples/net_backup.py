#!/usr/bin/env python3
"""Networked backup: the paper's life cycle over real TCP sockets.

Spins up a cluster of eight peer daemons on localhost (each with its own
content-addressed blockstore on disk), then drives a file through
insertion, a peer failure with repair, and reconstruction -- every byte
crossing the repro.net wire protocol.

Run:  python examples/net_backup.py
"""

import asyncio
import tempfile

import numpy as np

from repro.core.params import RCParams
from repro.net import Coordinator, LocalCluster


async def run(root: str) -> None:
    params = RCParams(k=8, h=8, d=10, i=1)
    rng = np.random.default_rng(2009)
    data = rng.integers(0, 256, size=48 << 10, dtype=np.uint8).tobytes()
    print(f"code: {params}  file: {len(data)} bytes")

    async with LocalCluster(8, root, seed=7) as cluster, Coordinator(
        params, rng=rng
    ) as coordinator:
        # --- insertion: scatter k + h = 16 pieces over 8 daemons -------
        insert = await coordinator.insert(data, cluster.addresses, file_id="album")
        manifest = insert.manifest
        print(f"\ninsert: {len(manifest.pieces)} pieces over "
              f"{insert.peers_used} peers, {insert.bytes_uploaded} bytes uploaded")

        # --- maintenance: a peer dies, a newcomer takes its place ------
        lost_address = await cluster.kill(0)
        lost_index = min(index for index, location in manifest.pieces.items()
                         if location == lost_address)
        newcomer = await cluster.spawn()
        repair = await coordinator.repair(manifest, lost_index, newcomer)
        print(f"\nrepair of piece {lost_index} (peer {lost_address} died):")
        print(f"  helpers contacted : d={len(repair.helpers)} "
              f"(pieces {list(repair.helpers)})")
        print(f"  traffic           : {repair.payload_bytes} bytes payload + "
              f"{repair.coefficient_bytes} bytes coefficients")
        print(f"  newcomer          : {newcomer}")

        # --- reconstruction: k-1 pieces whole, the split one by rows ---
        restored, stats = await coordinator.reconstruct(manifest)
        print(f"\nreconstruct (peer {lost_address} still down):")
        print(f"  pieces probed     : {stats.pieces_probed} "
              f"(coefficient overhead: {stats.coefficient_bytes} bytes)")
        print(f"  fragments fetched : {stats.fragments_downloaded} "
              f"== n_file = {params.n_file}")
        print(f"  payload downloaded: {stats.payload_bytes} bytes")
        print(f"  restored correctly: {restored == data}")
        if restored != data:
            raise SystemExit("reconstruction mismatch")

        # --- transport: the whole life cycle rode pooled streams -------
        transport = coordinator.transport_stats()
        print(f"\ntransport: {transport['connections_opened']} connections "
              f"opened, {transport['connections_reused']} pooled reuses, "
              f"{transport['transport_failures']} transport failures")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-net-") as root:
        asyncio.run(run(root))


if __name__ == "__main__":
    main()
