"""Shared harness for the networked-subsystem tests."""

import asyncio

import numpy as np

from repro.net.blockstore import BlockStore
from repro.net.client import PeerClient, RetryPolicy
from repro.net.server import PeerDaemon


def with_daemon(tmp_path, scenario, client_kwargs=None, **daemon_kwargs):
    """Run ``scenario(daemon, client)`` against a live daemon.

    The client retries once after 10 ms unless ``client_kwargs`` brings
    its own ``retry`` policy.
    """

    async def runner():
        daemon = PeerDaemon(
            BlockStore(tmp_path / "store"),
            rng=np.random.default_rng(42),
            **daemon_kwargs,
        )
        await daemon.start()
        client = PeerClient(
            *daemon.address,
            **{"retry": RetryPolicy(retries=1, backoff=0.01), **(client_kwargs or {})},
        )
        try:
            return await scenario(daemon, client)
        finally:
            await client.aclose()
            await daemon.stop()

    return asyncio.run(runner())


def counted(owner, name, **labels):
    """The sum of the ``name`` counters in ``owner.obs`` carrying ``labels``."""
    return sum(
        entry["value"]
        for entry in owner.obs.snapshot()["counters"]
        if entry["name"] == name
        and all(entry["labels"].get(key) == str(value) for key, value in labels.items())
    )
