"""Contract tests every redundancy scheme must satisfy (section 2.1).

The same life-cycle assertions run against every scheme, which is
what lets the P2P simulator treat them interchangeably.
"""

import numpy as np
import pytest

from repro.codes import (
    HierarchicalCodeScheme,
    ProductMatrixMBR,
    ProductMatrixMSR,
    RandomLinearErasureScheme,
    TreeHierarchicalCodeScheme,
    RedundancyScheme,
    RegeneratingCodeScheme,
    ReplicationScheme,
)
from repro.codes.base import RepairError
from repro.core.params import RCParams


def all_schemes():
    return [
        ReplicationScheme(3),
        RandomLinearErasureScheme(4, 4, rng=np.random.default_rng(1)),
        HierarchicalCodeScheme(
            k=8, groups=2, local_redundancy=2, global_pieces=2,
            rng=np.random.default_rng(2),
        ),
        RegeneratingCodeScheme(RCParams(4, 4, 5, 1), rng=np.random.default_rng(3)),
        RegeneratingCodeScheme(RCParams(4, 4, 7, 3), rng=np.random.default_rng(4)),
        ProductMatrixMBR(n=8, k=4, d=6),
        ProductMatrixMSR(n=8, k=4),
        TreeHierarchicalCodeScheme(
            k=8, branching=[2, 2], parities_per_level=[2, 1, 1],
            rng=np.random.default_rng(5),
        ),
    ]


def scheme_ids():
    return [scheme.name for scheme in all_schemes()]


@pytest.fixture(params=range(len(all_schemes())), ids=scheme_ids())
def scheme(request) -> RedundancyScheme:
    return all_schemes()[request.param]


@pytest.fixture()
def data(rng):
    return bytes(rng.integers(0, 256, size=2048, dtype=np.uint8))


class TestStructure:
    def test_block_count(self, scheme, data):
        encoded = scheme.encode(data)
        assert len(encoded) == scheme.total_blocks
        assert [block.index for block in encoded.blocks] == list(
            range(scheme.total_blocks)
        )

    def test_tolerable_failures_consistent(self, scheme):
        assert (
            scheme.tolerable_failures
            == scheme.total_blocks - scheme.reconstruction_degree
        )
        assert scheme.tolerable_failures >= 1

    def test_storage_at_least_file(self, scheme, data):
        encoded = scheme.encode(data)
        assert encoded.storage_bytes() >= len(data)
        assert scheme.storage_overhead(encoded) >= 1.0

    def test_block_sizes_positive(self, scheme, data):
        encoded = scheme.encode(data)
        for block in encoded.blocks:
            assert block.payload_bytes > 0


class TestRoundTrip:
    def test_verify_roundtrip(self, scheme, data):
        assert scheme.verify_roundtrip(data)

    def test_all_blocks_reconstruct(self, scheme, data):
        encoded = scheme.encode(data)
        assert scheme.reconstruct(encoded, list(encoded.blocks)) == data

    def test_roundtrip_various_sizes(self, scheme):
        for size in (1, 17, 255, 1024):
            payload = bytes(range(256))[:size] * (size // min(size, 256) or 1)
            payload = payload[:size]
            encoded = scheme.encode(payload)
            assert scheme.reconstruct(encoded, list(encoded.blocks)) == payload


class TestRepairContract:
    def test_repair_restores_redundancy(self, scheme, data):
        encoded = scheme.encode(data)
        available = encoded.block_map()
        lost = scheme.total_blocks - 1
        del available[lost]
        outcome = scheme.repair(encoded, available, lost)
        assert outcome.block.index == lost
        assert outcome.repair_degree >= 1
        assert outcome.bytes_downloaded > 0
        assert lost not in outcome.participants

    def test_participants_are_available_blocks(self, scheme, data):
        encoded = scheme.encode(data)
        available = encoded.block_map()
        del available[0]
        outcome = scheme.repair(encoded, available, 0)
        for participant in outcome.participants:
            assert participant in available

    def test_uploaded_accounting_matches_participants(self, scheme, data):
        encoded = scheme.encode(data)
        available = encoded.block_map()
        del available[1]
        outcome = scheme.repair(encoded, available, 1)
        assert set(outcome.uploaded_per_participant) == set(outcome.participants)
        assert all(size > 0 for size in outcome.uploaded_per_participant.values())

    def test_repaired_block_usable_for_reconstruction(self, scheme, data):
        encoded = scheme.encode(data)
        available = encoded.block_map()
        lost = scheme.total_blocks - 1
        del available[lost]
        outcome = scheme.repair(encoded, available, lost)
        available[lost] = outcome.block
        assert scheme.reconstruct(encoded, list(available.values())) == data

    def test_repair_invalid_index_raises(self, scheme, data):
        encoded = scheme.encode(data)
        with pytest.raises(RepairError):
            scheme.repair(encoded, encoded.block_map(), scheme.total_blocks + 5)

    def test_repair_with_no_survivors_raises(self, scheme, data):
        encoded = scheme.encode(data)
        with pytest.raises(RepairError):
            scheme.repair(encoded, {}, 0)

    def test_sequential_losses_up_to_tolerance(self, scheme, data):
        """Lose and repair one block at a time; data must survive."""
        encoded = scheme.encode(data)
        available = encoded.block_map()
        rng = np.random.default_rng(7)
        for _ in range(min(scheme.tolerable_failures, 4)):
            lost = int(rng.choice(sorted(available)))
            del available[lost]
            outcome = scheme.repair(encoded, available, lost)
            available[lost] = outcome.block
        assert scheme.reconstruct(encoded, list(available.values())) == data


class TestComputationAccounting:
    def test_ops_are_non_negative(self, scheme):
        assert scheme.insert_computation_ops(4096) >= 0
        assert scheme.repair_computation_ops(4096) >= 0
        assert scheme.reconstruct_computation_ops(4096) >= 0

    def test_replication_is_computation_free(self):
        scheme = ReplicationScheme(3)
        assert scheme.insert_computation_ops(1 << 20) == 0
        assert scheme.repair_computation_ops(1 << 20) == 0
        assert scheme.reconstruct_computation_ops(1 << 20) == 0

    def test_regenerating_ops_positive(self):
        scheme = RegeneratingCodeScheme(RCParams(4, 4, 5, 1))
        assert scheme.insert_computation_ops(1 << 20) > 0
        assert scheme.repair_computation_ops(1 << 20) > 0
        assert scheme.reconstruct_computation_ops(1 << 20) > 0
