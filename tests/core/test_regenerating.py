"""Tests for the Random Linear Regenerating Code life cycle (section 3.2)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import RCParams
from repro.core.regenerating import (
    DecodingError,
    RandomLinearRegeneratingCode,
    participant_contribution,
)
from repro.gf.field import GF


def make_code(k=4, h=4, d=5, i=1, q=16, seed=7):
    return RandomLinearRegeneratingCode(
        RCParams(k=k, h=h, d=d, i=i), field=GF(q), rng=np.random.default_rng(seed)
    )


@pytest.fixture()
def code():
    return make_code()


@pytest.fixture()
def payload(rng):
    return bytes(rng.integers(0, 256, size=2000, dtype=np.uint8))


class TestInsertion:
    def test_produces_k_plus_h_pieces(self, code, payload):
        encoded = code.insert(payload)
        assert len(encoded) == 8
        assert encoded.file_size == len(payload)

    def test_piece_geometry(self, code, payload):
        encoded = code.insert(payload)
        params = code.params
        for piece in encoded.pieces:
            assert piece.n_piece == params.n_piece
            assert piece.n_file == params.n_file
            assert piece.fragment_length == encoded.fragment_length

    def test_padding_alignment(self, code):
        encoded = code.insert(b"x")
        assert encoded.padded_size == code.params.aligned_file_size(1)
        assert encoded.padded_size % (code.params.n_file * 2) == 0

    def test_empty_file(self, code):
        encoded = code.insert(b"")
        assert code.reconstruct(encoded.subset(range(4)), 0) == b""

    def test_piece_data_consistent_with_coefficients(self, code, payload):
        """Every piece must equal its coefficients times the original F."""
        encoded = code.insert(payload)
        padded = payload + b"\x00" * (encoded.padded_size - len(payload))
        original = code.field.bytes_to_elements(padded).reshape(
            encoded.n_file, -1
        )
        from repro.gf import linalg

        for piece in encoded.pieces:
            expected = linalg.gf_matmul(code.field, piece.coefficients, original)
            assert np.all(piece.data == expected)

    def test_storage_matches_params(self, code, payload):
        encoded = code.insert(payload)
        expected_payload = float(
            code.params.storage_size(encoded.padded_size)
        )
        assert encoded.payload_bytes(code.field) == pytest.approx(expected_payload)


class TestReconstruction:
    def test_any_k_subset_reconstructs(self, payload):
        code = make_code(k=4, h=4, d=5, i=1, seed=3)
        encoded = code.insert(payload)
        for subset in itertools.combinations(range(8), 4):
            assert code.reconstruct(encoded.subset(subset), len(payload)) == payload

    def test_more_than_k_pieces_fine(self, code, payload):
        encoded = code.insert(payload)
        assert code.reconstruct(list(encoded.pieces), len(payload)) == payload

    def test_without_truncation_returns_padded(self, code, payload):
        encoded = code.insert(payload)
        data = code.reconstruct(encoded.subset(range(4)))
        assert len(data) == encoded.padded_size
        assert data[: len(payload)] == payload
        assert all(byte == 0 for byte in data[len(payload) :])

    def test_too_few_pieces_raise(self, code, payload):
        encoded = code.insert(payload)
        with pytest.raises(DecodingError):
            code.reconstruct(encoded.subset(range(3)), len(payload))

    def test_no_pieces_raise(self, code):
        with pytest.raises(DecodingError):
            code.reconstruct([])

    def test_reconstruct_file_helper(self, code, payload):
        encoded = code.insert(payload)
        assert code.reconstruct_file(encoded, [7, 2, 4, 0]) == payload

    def test_duplicate_pieces_insufficient(self, code, payload):
        encoded = code.insert(payload)
        duplicated = [encoded.pieces[0]] * 4
        with pytest.raises(DecodingError):
            code.reconstruct(duplicated, len(payload))


class TestReconstructionPlan:
    """The paper's improvement: download only n_file fragments."""

    def test_plan_downloads_exactly_file_size(self, code, payload):
        """Section 3.2: 'we download always an amount of data equal to
        the file size, without paying any extra-cost'."""
        encoded = code.insert(payload)
        pieces = encoded.subset(range(4))
        plan = code.plan_reconstruction(pieces)
        assert plan.fragments_to_download == code.params.n_file
        downloaded = plan.fragments_to_download * encoded.fragment_length * 2
        assert downloaded == encoded.padded_size

    def test_plan_selection_indices_valid(self, code, payload):
        encoded = code.insert(payload)
        pieces = encoded.subset(range(5))
        plan = code.plan_reconstruction(pieces)
        for position, row in plan.selection:
            assert 0 <= position < 5
            assert 0 <= row < code.params.n_piece

    def test_decode_with_plan_matches_reconstruct(self, code, payload):
        encoded = code.insert(payload)
        pieces = encoded.subset(range(4))
        plan = code.plan_reconstruction(pieces)
        assert code.decode_with_plan(plan, pieces, len(payload)) == payload

    def test_plan_prefers_early_rows(self, code, payload):
        """Scan order means the first spanning rows win, so a decoder can
        start downloading from the first peers immediately."""
        encoded = code.insert(payload)
        pieces = encoded.subset(range(8))
        plan = code.plan_reconstruction(pieces)
        positions = sorted({position for position, _ in plan.selection})
        # n_file = 11 rows from pieces with n_piece = 2 -> first 6 pieces.
        needed = -(-code.params.n_file // code.params.n_piece)
        assert positions == list(range(needed))

    def test_coefficient_bytes_examined(self, code, payload):
        encoded = code.insert(payload)
        pieces = encoded.subset(range(4))
        plan = code.plan_reconstruction(pieces)
        expected = 4 * code.params.n_piece * code.params.n_file * 2
        assert plan.coefficient_bytes_examined == expected


class TestRepair:
    def test_participant_contribution_shape(self, code, payload):
        encoded = code.insert(payload)
        fragment = participant_contribution(code.field, encoded.pieces[0], code.rng)
        assert fragment.length == encoded.fragment_length
        assert fragment.n_file == code.params.n_file

    def test_participant_contribution_in_row_space(self, code, payload):
        """The upload must be a combination of the piece's own fragments."""
        from repro.gf import linalg

        encoded = code.insert(payload)
        piece = encoded.pieces[0]
        fragment = participant_contribution(code.field, piece, code.rng)
        stacked = np.concatenate([piece.coefficients, fragment.coefficients[None, :]])
        assert linalg.rank(code.field, stacked) == linalg.rank(
            code.field, piece.coefficients
        )

    def test_newcomer_repair_needs_exactly_d(self, code, payload):
        encoded = code.insert(payload)
        uploads = [
            participant_contribution(code.field, p, code.rng) for p in encoded.pieces[:4]
        ]
        with pytest.raises(ValueError):
            code.newcomer_repair(uploads, index=0)

    def test_repair_needs_exactly_d_pieces(self, code, payload):
        encoded = code.insert(payload)
        with pytest.raises(ValueError):
            code.repair(list(encoded.pieces[:4]), index=0)

    def test_repaired_piece_is_functional(self, payload):
        code = make_code(k=4, h=4, d=5, i=1, seed=11)
        encoded = code.insert(payload)
        result = code.repair(list(encoded.pieces[:5]), index=7)
        healed = encoded.replace_piece(7, result.piece)
        for subset in [(7, 0, 1, 2), (7, 3, 4, 5), (7, 1, 3, 6)]:
            assert code.reconstruct(healed.subset(subset), len(payload)) == payload

    def test_repair_traffic_accounting(self, code, payload):
        encoded = code.insert(payload)
        result = code.repair(list(encoded.pieces[:5]), index=7)
        d = code.params.d
        fragment_bytes = encoded.fragment_length * 2
        coefficient_bytes = code.params.n_file * 2
        assert result.payload_bytes == d * fragment_bytes
        assert result.coefficient_bytes == d * coefficient_bytes
        assert result.total_bytes == result.payload_bytes + result.coefficient_bytes

    def test_repair_payload_matches_paper_formula(self, code, payload):
        """|repair_down| = d * r(d, i) * |file| on the padded size."""
        encoded = code.insert(payload)
        result = code.repair(list(encoded.pieces[:5]), index=7)
        expected = float(code.params.repair_download_size(encoded.padded_size))
        assert result.payload_bytes == pytest.approx(expected)

    def test_verbatim_newcomer_stores_received_fragments(self, payload):
        """Section 3.2: at d = n_piece the newcomer stores, not combines."""
        code = make_code(k=4, h=4, d=6, i=3, seed=5)
        assert code.params.newcomer_stores_verbatim
        encoded = code.insert(payload)
        uploads = [
            participant_contribution(code.field, p, code.rng) for p in encoded.pieces[:6]
        ]
        piece = code.newcomer_repair(uploads, index=7)
        for row, upload in enumerate(uploads):
            assert np.all(piece.data[row] == upload.data)
            assert np.all(piece.coefficients[row] == upload.coefficients)

    def test_iterated_repairs_preserve_decodability(self, payload):
        """Functional repair: after many loss/repair rounds any k pieces
        still reconstruct (w.h.p.)."""
        code = make_code(k=4, h=4, d=5, i=1, seed=13)
        encoded = code.insert(payload)
        rng = np.random.default_rng(99)
        for round_number in range(12):
            lost = int(rng.integers(0, 8))
            survivors = [p for j, p in enumerate(encoded.pieces) if j != lost]
            result = code.repair(survivors[:5], index=lost)
            encoded = encoded.replace_piece(lost, result.piece)
            subset = rng.choice(8, size=4, replace=False)
            assert code.reconstruct(encoded.subset(subset), len(payload)) == payload

    def test_erasure_degenerate_repair(self, payload):
        """RC(k, h, k, 0): repair moves k whole pieces (eq. E1 regime)."""
        code = make_code(k=4, h=4, d=4, i=0, seed=17)
        encoded = code.insert(payload)
        result = code.repair(list(encoded.pieces[:4]), index=6)
        assert result.payload_bytes == pytest.approx(encoded.padded_size)
        healed = encoded.replace_piece(6, result.piece)
        assert code.reconstruct(healed.subset([6, 1, 2, 3]), len(payload)) == payload


class TestDiagnostics:
    def test_rank_and_can_reconstruct(self, code, payload):
        encoded = code.insert(payload)
        assert code.can_reconstruct(list(encoded.pieces))
        assert code.can_reconstruct(encoded.subset(range(4)))
        assert not code.can_reconstruct(encoded.subset(range(3)))
        assert not code.can_reconstruct([])
        assert code.rank_of(encoded.subset(range(3))) < code.params.n_file


class TestDecodeFailureBehaviour:
    """The paper's field-size argument (section 3.1): decode failure
    probability is governed by the field size alone; q = 16 makes it
    negligible.  Failure must surface as DecodingError, never as
    silently wrong data."""

    def test_dependent_pieces_raise_never_corrupt(self, payload):
        """Adversarially dependent pieces: duplicates of one piece."""
        code = make_code(k=4, h=4, d=5, i=1, seed=21)
        encoded = code.insert(payload)
        # Three distinct pieces plus a duplicate of the first: rank < n_file.
        crafted = [
            encoded.pieces[0],
            encoded.pieces[1],
            encoded.pieces[2],
            encoded.pieces[0],
        ]
        with pytest.raises(DecodingError):
            code.reconstruct(crafted, len(payload))

    def test_small_field_rank_failures_are_frequent(self):
        """Over GF(2^4) a random square matrix is singular ~6.5% of the
        time; over GF(2^16) effectively never.  This is exactly the
        decode-failure probability of random linear codes."""
        from repro.gf import linalg

        rng = np.random.default_rng(8)
        small = GF(4)
        trials = 300
        small_failures = sum(
            linalg.rank(small, small.random((5, 5), rng)) < 5 for _ in range(trials)
        )
        assert small_failures > 0
        big = GF(16)
        big_failures = sum(
            linalg.rank(big, big.random((5, 5), rng)) < 5 for _ in range(100)
        )
        assert big_failures == 0

    def test_extra_piece_rescues_failed_decode(self, payload):
        """The operational recovery the paper implies: fetch one more
        piece and retry."""
        code = make_code(k=4, h=4, d=5, i=1, seed=23)
        encoded = code.insert(payload)
        crafted = [encoded.pieces[0]] * 2 + [encoded.pieces[1], encoded.pieces[2]]
        with pytest.raises(DecodingError):
            code.reconstruct(crafted, len(payload))
        rescued = crafted + [encoded.pieces[3]]
        assert code.reconstruct(rescued, len(payload)) == payload


class TestPropertyBased:
    @given(
        st.integers(2, 5),  # k
        st.integers(1, 4),  # h
        st.integers(0, 10),  # d offset
        st.integers(0, 10),  # i raw
        st.integers(0, 2**31 - 1),
        st.binary(min_size=1, max_size=512),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_configurations(self, k, h, d_off, i_raw, seed, data):
        d = k + (d_off % h)
        i = i_raw % k
        code = RandomLinearRegeneratingCode(
            RCParams(k=k, h=h, d=d, i=i),
            field=GF(16),
            rng=np.random.default_rng(seed),
        )
        encoded = code.insert(data)
        rng = np.random.default_rng(seed + 1)
        subset = rng.choice(k + h, size=k, replace=False)
        assert code.reconstruct(encoded.subset(subset), len(data)) == data

    @given(st.integers(0, 2**31 - 1), st.binary(min_size=0, max_size=256))
    @settings(max_examples=30, deadline=None)
    def test_repair_then_roundtrip(self, seed, data):
        code = RandomLinearRegeneratingCode(
            RCParams(3, 3, 4, 1), field=GF(16), rng=np.random.default_rng(seed)
        )
        encoded = code.insert(data)
        result = code.repair(list(encoded.pieces[:4]), index=5)
        healed = encoded.replace_piece(5, result.piece)
        assert code.reconstruct(healed.subset([5, 0, 2]), len(data)) == data
