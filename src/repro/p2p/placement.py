"""Block placement: choosing which peers store a file's blocks.

The redundancy analysis of the paper assumes blocks of one file live on
*distinct* peers (section 2.1: pieces are distributed "over distinct
peers"); placement enforces that plus any capacity limits, and picks
uniformly at random among the peers that qualify.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.p2p.peer import Peer

__all__ = ["PlacementError", "choose_peers"]


class PlacementError(RuntimeError):
    """Raised when not enough eligible peers exist for a placement."""


def choose_peers(
    peers: Iterable[Peer],
    file_id: int,
    count: int,
    payload_bytes: int,
    rng: np.random.Generator,
) -> list[Peer]:
    """Pick ``count`` distinct peers able to store ``payload_bytes``.

    Only available peers with room for the payload and no block of
    ``file_id`` yet are eligible; the pick is uniform over them.
    Raises :class:`PlacementError` when fewer than ``count`` qualify.
    """
    candidates = [
        peer
        for peer in peers
        if peer.is_available
        and file_id not in peer.stored
        and peer.can_store(payload_bytes)
    ]
    if len(candidates) < count:
        raise PlacementError(
            f"need {count} peers for file {file_id}, only {len(candidates)} eligible"
        )
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(position)] for position in chosen]
