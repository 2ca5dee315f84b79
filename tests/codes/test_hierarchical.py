"""Tests for Hierarchical Codes (paper ref [8])."""

import numpy as np
import pytest

from repro.codes import HierarchicalCodeScheme, TreeHierarchicalCodeScheme
from repro.codes.base import ReconstructError, RepairError


def make_scheme(seed=0, **overrides):
    settings = dict(k=8, groups=2, local_redundancy=2, global_pieces=2)
    settings.update(overrides)
    return HierarchicalCodeScheme(rng=np.random.default_rng(seed), **settings)


@pytest.fixture()
def scheme():
    return make_scheme()


class TestConstruction:
    def test_groups_must_divide_k(self):
        with pytest.raises(ValueError):
            make_scheme(k=8, groups=3)

    def test_negative_redundancy_rejected(self):
        with pytest.raises(ValueError):
            make_scheme(local_redundancy=-1)
        with pytest.raises(ValueError):
            make_scheme(global_pieces=-1)

    def test_block_accounting(self, scheme):
        # 2 groups x (4 + 2) local + 2 global = 14 blocks.
        assert scheme.total_blocks == 14
        assert scheme.pieces_per_group == 6
        assert scheme.group_size == 4

    def test_group_of(self, scheme):
        assert scheme.group_of(0) == 0
        assert scheme.group_of(5) == 0
        assert scheme.group_of(6) == 1
        assert scheme.group_of(11) == 1
        assert scheme.group_of(12) is None  # global
        assert scheme.group_of(13) is None
        with pytest.raises(ValueError):
            scheme.group_of(14)


class TestCoefficientStructure:
    def test_local_pieces_confined_to_group_columns(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        for index in range(12):
            group = scheme.group_of(index)
            coefficients = encoded.blocks[index].content.coefficients
            outside = np.delete(
                coefficients, np.arange(group * 4, (group + 1) * 4)
            )
            assert np.all(outside == 0)

    def test_global_pieces_span_all_columns(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        for index in (12, 13):
            coefficients = encoded.blocks[index].content.coefficients
            # A random GF(2^16) row has nonzeros in both groups w.h.p.
            assert np.any(coefficients[:4] != 0)
            assert np.any(coefficients[4:] != 0)


class TestAnyKLoss:
    """The documented disadvantage: not all k-subsets reconstruct."""

    def test_concentrated_subset_fails(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        # 6 pieces of group 0 + 2 of group 1: rank <= 4 + 2 = 6 < 8.
        concentrated = list(encoded.blocks[:8])
        with pytest.raises(ReconstructError):
            scheme.reconstruct(encoded, concentrated)

    def test_spread_subset_succeeds(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        spread = scheme.spread_subset(encoded)
        assert len(spread) == 8
        assert scheme.reconstruct(encoded, spread) == sample_data

    def test_globals_can_substitute(self, scheme, sample_data):
        """3 pieces of group 0 + 4 of group 1 + 1 global spans."""
        encoded = scheme.encode(sample_data)
        subset = (
            list(encoded.blocks[0:3])
            + list(encoded.blocks[6:10])
            + [encoded.blocks[12]]
        )
        assert scheme.reconstruct(encoded, subset) == sample_data


class TestLocalRepair:
    def test_local_repair_degree_is_group_size(self, scheme, sample_data):
        """The scheme's raison d'etre: repair degree k0 = k / G << k."""
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        del available[0]
        outcome = scheme.repair(encoded, available, 0)
        assert outcome.repair_degree == 4
        assert all(scheme.group_of(p) == 0 for p in outcome.participants)

    def test_local_repair_traffic_below_global(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        del available[0]
        local = scheme.repair(encoded, available, 0)
        del available[12]
        global_ = scheme.repair(encoded, available, 12)
        assert local.bytes_downloaded < global_.bytes_downloaded
        assert global_.repair_degree == 8

    def test_repaired_local_piece_stays_local(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        del available[3]
        outcome = scheme.repair(encoded, available, 3)
        outside = np.delete(outcome.block.content.coefficients, np.arange(0, 4))
        assert np.all(outside == 0)

    def test_depleted_group_falls_back_to_global(self, scheme, sample_data):
        """With < k0 survivors in the group, the repair is global."""
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        for index in (0, 1, 2):
            del available[index]
        outcome = scheme.repair(encoded, available, 0)
        assert outcome.repair_degree == 8
        # The regenerated piece is still a *local* piece of group 0.
        outside = np.delete(outcome.block.content.coefficients, np.arange(0, 4))
        assert np.all(outside == 0)
        available[0] = outcome.block
        assert scheme.reconstruct(
            encoded, scheme.spread_subset(encoded)[:0] or list(available.values())
        ) == sample_data

    def test_global_repair_impossible_below_rank_k(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        # Only group 0 survives: rank 4 < 8.
        available = {index: encoded.blocks[index] for index in range(6)}
        with pytest.raises(RepairError):
            scheme.repair(encoded, available, 12)

    def test_invalid_slot(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        with pytest.raises(RepairError):
            scheme.repair(encoded, encoded.block_map(), 50)


class TestRepairTrafficAdvantage:
    def test_mean_repair_traffic_below_erasure(self, sample_data):
        """Paper section 1: 'the repair communication cost is on average
        much smaller than for erasure codes'.  Compare against an
        equivalent (k=8) erasure repair that moves the whole file."""
        scheme = make_scheme(seed=5)
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        rng = np.random.default_rng(6)
        total = 0
        repairs = 20
        for _ in range(repairs):
            lost = int(rng.integers(0, 12))  # local pieces only
            available.pop(lost, None)
            outcome = scheme.repair(encoded, available, lost)
            available[lost] = outcome.block
            total += outcome.bytes_downloaded
        mean_traffic = total / repairs
        assert mean_traffic < len(sample_data)  # erasure would move >= |file|


#: (k, G, local redundancy, global pieces); the last has no root parities.
TWO_LEVEL_CONFIGS = [(8, 2, 2, 2), (12, 3, 1, 3), (6, 1, 2, 0)]


def _flat_and_tree(k, groups, local, global_, seed):
    """HierarchicalCodeScheme(k, G, l, g) beside TreeHierarchicalCodeScheme(
    k, [G], [g, l]) on the same seed."""
    flat = HierarchicalCodeScheme(k, groups, local, global_, rng=np.random.default_rng(seed))
    tree = TreeHierarchicalCodeScheme(
        k, [groups], [global_, local], rng=np.random.default_rng(seed)
    )
    return flat, tree


def _piece_bytes(block):
    return block.content.coefficients.tobytes() + block.content.data.tobytes()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("k, groups, local, global_", TWO_LEVEL_CONFIGS)
def test_two_level_is_the_one_level_tree(k, groups, local, global_, seed, sample_data):
    """Same pieces, same local repair, same escalated repair, byte for byte."""
    flat, tree = _flat_and_tree(k, groups, local, global_, seed)
    encoded = flat.encode(sample_data)
    assert [_piece_bytes(b) for b in encoded.blocks] == [
        _piece_bytes(b) for b in tree.encode(sample_data).blocks
    ]
    # A local repair, then one with the group left below rank k0.
    for depleted in ([0], list(range(local + 1))):
        available = encoded.block_map()
        for index in depleted:
            del available[index]
        outcomes = []
        for scheme in (flat, tree):
            try:
                outcomes.append(scheme.repair(encoded, available, 0))
            except RepairError:
                outcomes.append(None)
        if None in outcomes:
            assert outcomes == [None, None]
            continue
        assert outcomes[0].participants == outcomes[1].participants
        assert _piece_bytes(outcomes[0].block) == _piece_bytes(outcomes[1].block)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "k, groups, local, global_", [c for c in TWO_LEVEL_CONFIGS if c[3]]
)
def test_root_piece_repair_matches_the_tree(k, groups, local, global_, seed, sample_data):
    """A global piece repairs from the same helpers uploading the same bytes."""
    flat, tree = _flat_and_tree(k, groups, local, global_, seed)
    encoded = flat.encode(sample_data)
    tree.encode(sample_data)  # keeps both RNGs in step
    root_piece = flat.total_blocks - 1
    assert flat.group_of(root_piece) is None
    available = encoded.block_map()
    del available[root_piece]
    outcomes = [scheme.repair(encoded, available, root_piece) for scheme in (flat, tree)]
    assert outcomes[0].participants == outcomes[1].participants
    assert outcomes[0].uploaded_per_participant == outcomes[1].uploaded_per_participant
