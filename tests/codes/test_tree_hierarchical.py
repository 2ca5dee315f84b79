"""Tests for the multi-level (tree) Hierarchical Code."""

import numpy as np
import pytest

from repro.codes.base import ReconstructError, RepairError
from repro.codes.hierarchical import TreeHierarchicalCodeScheme
from repro.gf.field import GaloisField


def make_scheme(seed=0, **overrides):
    settings = dict(
        k=8,
        branching=[2, 2],  # root -> 2 subtrees -> 4 leaf groups of 2
        parities_per_level=[2, 1, 1],  # root/middle/leaf parities
    )
    settings.update(overrides)
    return TreeHierarchicalCodeScheme(rng=np.random.default_rng(seed), **settings)


@pytest.fixture()
def scheme():
    return make_scheme()


@pytest.fixture()
def data(rng):
    return bytes(rng.integers(0, 256, 2048, dtype=np.uint8))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_scheme(branching=[])
        with pytest.raises(ValueError):
            make_scheme(branching=[0])
        with pytest.raises(ValueError):
            make_scheme(parities_per_level=[1, 1])  # wrong length
        with pytest.raises(ValueError):
            make_scheme(parities_per_level=[1, -1, 1])
        with pytest.raises(ValueError):
            make_scheme(k=9)  # not divisible by 4 leaf groups

    def test_block_accounting(self, scheme):
        # 4 leaves x (2 data + 1 parity) + 2 middle x 1 + 1 root x 2 = 16.
        assert scheme.total_blocks == 16
        assert scheme.leaf_size == 2

    def test_node_tree_shape(self, scheme):
        depths = [node.depth for node in scheme.nodes]
        assert depths.count(0) == 1
        assert depths.count(1) == 2
        assert depths.count(2) == 4
        root = scheme.nodes[0]
        assert (root.start, root.end) == (0, 8)

    def test_node_of_bounds(self, scheme):
        with pytest.raises(ValueError):
            scheme.node_of(16)

    def test_two_level_special_case(self):
        """branching=[G] reproduces the two-level structure."""
        scheme = make_scheme(k=8, branching=[2], parities_per_level=[2, 2])
        # 2 leaves x (4 data + 2 parity) + 2 root parities = 14 blocks.
        assert scheme.total_blocks == 14


class TestCoefficientStructure:
    def test_supports_match_nodes(self, scheme, data):
        encoded = scheme.encode(data)
        for index in range(scheme.total_blocks):
            node = scheme.node_of(index)
            coefficients = encoded.blocks[index].content.coefficients
            outside = np.concatenate(
                [coefficients[: node.start], coefficients[node.end :]]
            )
            assert outside.size == 0 or np.all(outside == 0)


class TestReconstruction:
    def test_spread_roundtrip(self, scheme, data):
        assert scheme.verify_roundtrip(data)

    def test_all_blocks_roundtrip(self, scheme, data):
        encoded = scheme.encode(data)
        assert scheme.reconstruct(encoded, list(encoded.blocks)) == data

    def test_concentrated_subset_fails(self, scheme, data):
        """Any-k loss: 8 pieces all from two leaf groups cannot span."""
        encoded = scheme.encode(data)
        concentrated = list(encoded.blocks[:6]) + list(encoded.blocks[0:2])
        with pytest.raises(ReconstructError):
            scheme.reconstruct(encoded, concentrated)

    def test_empty_raises(self, scheme, data):
        encoded = scheme.encode(data)
        with pytest.raises(ReconstructError):
            scheme.reconstruct(encoded, [])


class TestHierarchicalRepair:
    def test_leaf_repair_is_cheapest(self, scheme, data):
        """A leaf piece with a healthy leaf group repairs at degree
        leaf_size = 2, the whole point of the hierarchy."""
        encoded = scheme.encode(data)
        available = encoded.block_map()
        del available[0]
        outcome = scheme.repair(encoded, available, 0)
        assert outcome.repair_degree == 2
        home = scheme.node_of(0)
        for participant in outcome.participants:
            assert home.contains(scheme.node_of(participant))

    def test_depleted_leaf_escalates_to_middle(self, scheme, data):
        """With the leaf group depleted, repair widens to the middle
        subtree (size 4), not all the way to the root."""
        encoded = scheme.encode(data)
        available = encoded.block_map()
        for index in (0, 1):  # both data pieces of leaf 0
            del available[index]
        outcome = scheme.repair(encoded, available, 0)
        assert outcome.repair_degree == 4
        middle = next(
            node for node in scheme.nodes if node.depth == 1 and node.start == 0
        )
        for participant in outcome.participants:
            assert middle.contains(scheme.node_of(participant))

    def test_escalated_repair_stays_home_local(self, scheme, data):
        """Even a root-level repair must mint a piece confined to the
        lost piece's own leaf support."""
        encoded = scheme.encode(data)
        available = encoded.block_map()
        for index in (0, 1, 2):  # the entire leaf group 0
            del available[index]
        outcome = scheme.repair(encoded, available, 0)
        home = scheme.node_of(0)
        coefficients = outcome.block.content.coefficients
        outside = np.concatenate([coefficients[: home.start], coefficients[home.end :]])
        assert np.all(outside == 0)
        available[0] = outcome.block
        assert scheme.reconstruct(encoded, list(available.values())) == data

    def test_root_parity_repair_uses_rank_k(self, scheme, data):
        encoded = scheme.encode(data)
        root_parity = scheme.total_blocks - 1
        assert scheme.node_of(root_parity).depth == 0
        available = encoded.block_map()
        del available[root_parity]
        outcome = scheme.repair(encoded, available, root_parity)
        assert outcome.repair_degree == 8

    def test_repair_degrees_grow_with_damage(self, data):
        """The graceful degradation ladder: degree 2 -> 4 -> 8 as deeper
        subtrees deplete."""
        degrees = []
        for depleted in ([], [1], [1, 2]):
            scheme = make_scheme(seed=7)
            encoded = scheme.encode(data)
            available = encoded.block_map()
            del available[0]
            for index in depleted:
                del available[index]
            # Also remove the sibling-subtree helpers as needed... rely on
            # rank: with data pieces 1,2 of leaf 0 gone, leaf rank < 2.
            outcome = scheme.repair(encoded, available, 0)
            degrees.append(outcome.repair_degree)
        assert degrees[0] == 2
        assert degrees == sorted(degrees)

    def test_irreparable_raises(self, data):
        scheme = make_scheme(seed=9)
        encoded = scheme.encode(data)
        # Keep too few blocks overall: rank < k everywhere.
        available = {index: encoded.blocks[index] for index in range(5)}
        with pytest.raises(RepairError):
            scheme.repair(encoded, available, 15)

    def test_invalid_slot(self, scheme, data):
        encoded = scheme.encode(data)
        with pytest.raises(RepairError):
            scheme.repair(encoded, encoded.block_map(), 99)

    def test_mean_repair_degree_below_k(self, scheme, data):
        """Averaged over single losses, the hierarchy repairs far below
        the erasure code's k = 8 (the claim of paper reference [8])."""
        encoded = scheme.encode(data)
        degrees = []
        for lost in range(scheme.total_blocks):
            available = encoded.block_map()
            del available[lost]
            outcome = scheme.repair(encoded, available, lost)
            degrees.append(outcome.repair_degree)
            available[lost] = outcome.block
            assert scheme.reconstruct(encoded, list(available.values())) == data
        assert sum(degrees) / len(degrees) < 8


def test_escalated_repair_combines_only_once(monkeypatch, data):
    """A repair escalated past its home node re-encodes one home-local
    piece; it draws no mixing vector and combines no rows for the wider
    region it then discards."""
    scheme = make_scheme(branching=[2], parities_per_level=[2, 2])
    encoded = scheme.encode(data)
    available = encoded.block_map()
    for index in (0, 1, 2):  # leaf group 0 left with 3 < 4 pieces
        del available[index]
    calls = []
    combine = GaloisField.linear_combination

    def counting(self, coefficients, vectors):
        calls.append(np.shape(vectors))
        return combine(self, coefficients, vectors)

    monkeypatch.setattr(GaloisField, "linear_combination", counting)
    outcome = scheme.repair(encoded, available, 0)
    assert outcome.repair_degree == 8
    assert len(calls) == 1
