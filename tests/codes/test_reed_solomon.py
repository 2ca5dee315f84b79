"""Tests for the systematic Reed-Solomon baseline (paper ref [10])."""

import itertools

import numpy as np
import pytest

from repro.codes import ReedSolomonScheme
from repro.codes.base import ReconstructError, RepairError, pad_to_matrix
from repro.gf import linalg
from repro.gf.field import GF
from repro.gf.polynomial import Polynomial


@pytest.fixture()
def scheme():
    return ReedSolomonScheme(4, 3)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonScheme(0, 3)
        with pytest.raises(ValueError):
            ReedSolomonScheme(4, -1)

    def test_field_too_small_rejected(self):
        # GF(2^4) has 16 elements; 20 blocks need 20 distinct points.
        with pytest.raises(ValueError):
            ReedSolomonScheme(10, 10, field=GF(4))

    def test_generator_is_systematic(self, scheme):
        top = scheme.generator[: scheme.k]
        assert np.all(top == scheme.field.eye(scheme.k))

    def test_generator_is_mds(self, scheme):
        """Every k x k submatrix of the generator must be invertible --
        the defining MDS property, checked exhaustively."""
        for rows in itertools.combinations(range(scheme.total_blocks), scheme.k):
            assert linalg.is_invertible(scheme.field, scheme.generator[list(rows)])


class TestSystematicLayout:
    def test_data_blocks_hold_file_stripes(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        recovered = b"".join(
            scheme.field.elements_to_bytes(encoded.blocks[index].content)
            for index in range(scheme.k)
        )
        assert recovered[: len(sample_data)] == sample_data

    def test_parity_blocks_differ_from_data(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        for parity_index in range(scheme.k, scheme.total_blocks):
            parity = encoded.blocks[parity_index].content
            for data_index in range(scheme.k):
                assert not np.all(parity == encoded.blocks[data_index].content)


class TestMDSReconstruction:
    def test_every_k_subset_reconstructs(self, scheme, sample_data):
        """Deterministic MDS guarantee -- no 'with high probability'."""
        encoded = scheme.encode(sample_data)
        for subset in itertools.combinations(range(scheme.total_blocks), scheme.k):
            blocks = [encoded.blocks[index] for index in subset]
            assert scheme.reconstruct(encoded, blocks) == sample_data

    def test_fewer_than_k_raises(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        with pytest.raises(ReconstructError):
            scheme.reconstruct(encoded, list(encoded.blocks[: scheme.k - 1]))

    def test_duplicate_blocks_do_not_count(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        duplicated = [encoded.blocks[0]] * scheme.k
        with pytest.raises(ReconstructError):
            scheme.reconstruct(encoded, duplicated)

    def test_agrees_with_polynomial_interpolation(self, sample_data):
        """Cross-validate the Vandermonde decoder against Lagrange
        interpolation: each stripe column is a degree < k polynomial
        evaluated at the block points."""
        field = GF(8)
        scheme = ReedSolomonScheme(3, 2, field=field)
        encoded = scheme.encode(sample_data[:30])
        stripes = pad_to_matrix(field, sample_data[:30], scheme.k)
        # Column c of the coded blocks is generator @ stripes[:, c]; the
        # systematic generator corresponds to the interpolation through
        # the first k points.
        for column in (0, 1):
            xs = field.asarray(np.arange(scheme.total_blocks))
            ys = np.stack([block.content for block in encoded.blocks])[:, column]
            poly = Polynomial.interpolate(field, xs[: scheme.k], ys[: scheme.k])
            assert np.all(poly(xs) == ys)


class TestRepair:
    def test_repair_regenerates_exact_block(self, scheme, sample_data):
        """RS repair is deterministic: the regenerated block is bit
        identical to the lost one."""
        encoded = scheme.encode(sample_data)
        for lost in range(scheme.total_blocks):
            available = encoded.block_map()
            del available[lost]
            outcome = scheme.repair(encoded, available, lost)
            assert np.all(outcome.block.content == encoded.blocks[lost].content)

    def test_repair_reads_k_blocks(self, scheme, sample_data):
        """The k-fold repair amplification that motivates the paper."""
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        del available[2]
        outcome = scheme.repair(encoded, available, 2)
        assert outcome.repair_degree == scheme.k
        assert outcome.bytes_downloaded == scheme.k * encoded.blocks[0].payload_bytes
        assert outcome.bytes_downloaded >= len(sample_data)

    def test_repair_insufficient_survivors(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        available = {0: encoded.blocks[0]}
        with pytest.raises(RepairError):
            scheme.repair(encoded, available, 3)

    def test_cascaded_failures_up_to_h(self, scheme, sample_data):
        encoded = scheme.encode(sample_data)
        available = encoded.block_map()
        for lost in range(scheme.h):
            del available[lost]
        for lost in range(scheme.h):
            outcome = scheme.repair(encoded, available, lost)
            available[lost] = outcome.block
        assert scheme.reconstruct(encoded, list(available.values())) == sample_data


class TestSizes:
    def test_block_size_is_file_over_k(self, sample_data):
        scheme = ReedSolomonScheme(4, 2)
        encoded = scheme.encode(sample_data)  # 4096 bytes, stride 8
        assert encoded.blocks[0].payload_bytes == len(sample_data) // 4

    def test_storage_is_k_plus_h_over_k(self, sample_data):
        scheme = ReedSolomonScheme(4, 2)
        encoded = scheme.encode(sample_data)
        assert encoded.storage_bytes() == len(sample_data) * 6 // 4

    def test_gf256_variant(self, sample_data):
        scheme = ReedSolomonScheme(5, 3, field=GF(8))
        encoded = scheme.encode(sample_data)
        blocks = list(encoded.blocks[3:8])
        assert scheme.reconstruct(encoded, blocks) == sample_data
