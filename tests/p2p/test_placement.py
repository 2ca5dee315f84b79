"""Tests for block placement on distinct eligible peers."""

import numpy as np
import pytest

from repro.codes.base import Block
from repro.p2p.peer import Peer
from repro.p2p.placement import PlacementError, choose_peers


def make_peers(count, limit=None):
    return [
        Peer(peer_id=index, join_time=0.0, death_time=1000.0, storage_limit_bytes=limit)
        for index in range(count)
    ]


@pytest.fixture()
def np_rng():
    return np.random.default_rng(1)


class TestEligibility:
    def test_dead_peers_excluded(self, np_rng):
        peers = make_peers(5)
        peers[0].kill()
        chosen = choose_peers(peers, file_id=1, count=4, payload_bytes=10, rng=np_rng)
        assert all(peer.alive for peer in chosen)

    def test_existing_holders_excluded(self, np_rng):
        peers = make_peers(5)
        peers[0].store(1, Block(index=0, content=b"", payload_bytes=0))
        chosen = choose_peers(peers, file_id=1, count=4, payload_bytes=10, rng=np_rng)
        assert peers[0] not in chosen

    def test_full_peers_excluded(self, np_rng):
        peers = make_peers(5, limit=5)
        chosen_ids = set()
        with pytest.raises(PlacementError):
            choose_peers(peers, file_id=1, count=1, payload_bytes=10, rng=np_rng)

    def test_insufficient_peers_raise(self, np_rng):
        peers = make_peers(3)
        with pytest.raises(PlacementError):
            choose_peers(peers, file_id=1, count=4, payload_bytes=10, rng=np_rng)


class TestRandomPlacement:
    def test_choices_distinct(self, np_rng):
        peers = make_peers(10)
        chosen = choose_peers(peers, file_id=1, count=8, payload_bytes=1, rng=np_rng)
        assert len({peer.peer_id for peer in chosen}) == 8

    def test_spreads_over_population(self):
        peers = make_peers(10)
        counts = {peer.peer_id: 0 for peer in peers}
        for seed in range(200):
            rng = np.random.default_rng(seed)
            chosen = choose_peers(peers, file_id=1, count=3, payload_bytes=1, rng=rng)
            for peer in chosen:
                counts[peer.peer_id] += 1
        assert all(count > 20 for count in counts.values())

    def test_deterministic_with_seed(self):
        peers = make_peers(10)
        first = choose_peers(
            peers, 1, 4, 1, np.random.default_rng(7)
        )
        second = choose_peers(
            peers, 1, 4, 1, np.random.default_rng(7)
        )
        assert [p.peer_id for p in first] == [p.peer_id for p in second]


    def test_pick_is_one_choice_draw_over_eligible_peers_in_order(self):
        """The simulator's peer picks depend on exactly this draw: one
        ``rng.choice`` without replacement over the eligible peers, kept
        in the order they were given."""
        peers = make_peers(10)
        peers[2].kill()
        eligible = [peer for peer in peers if peer.alive]
        positions = np.random.default_rng(7).choice(len(eligible), size=4, replace=False)
        chosen = choose_peers(peers, 1, 4, 1, np.random.default_rng(7))
        assert chosen == [eligible[int(position)] for position in positions]
