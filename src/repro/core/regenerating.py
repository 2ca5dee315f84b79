"""Random Linear Regenerating Codes (section 3.2 of the paper).

The three life-cycle operations:

**Insertion** -- the file is split into ``n_file`` equal original
fragments; each of the ``k + h`` pieces is ``n_piece`` random linear
combinations of them, with the coefficients stored alongside.

**Maintenance (repair)** -- each of ``d`` participating peers uploads one
random linear combination of the ``n_piece`` fragments it stores
(fig. 2a); the newcomer combines the ``d`` received fragments into
``n_piece`` fresh random combinations (fig. 2b).  When ``d == n_piece``
(i.e. i = k - 1, MBR) the newcomer stores the received fragments
verbatim -- no computation, which is why fig. 4(c) drops to zero there.

**Reconstruction** -- the paper's improvement over Dimakis' description:
the decoder first downloads only the *coefficient* rows of k pieces
(``(k * n_piece, n_file)`` matrix), extracts ``n_file`` linearly
independent rows, inverts that square submatrix, and only then downloads
the ``n_file`` matching data fragments.  Total download therefore equals
the file size "without paying any extra-cost" (section 3.2).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.blocks import EncodedFile, Fragment, Piece
from repro.core.params import RCParams
from repro.gf import kernels, linalg
from repro.gf.field import GF, GaloisField

__all__ = [
    "DecodingError",
    "RandomLinearRegeneratingCode",
    "ReconstructionPlan",
    "RepairResult",
    "participant_contribution",
]


def participant_contribution(
    field: GaloisField, piece: Piece, rng: np.random.Generator
) -> Fragment:
    """One participant's upload: a random combination of its fragments.

    Runs on each of the d live peers (fig. 2a) -- in :mod:`repro.net`, on
    the helper daemon answering REPAIR_READ.  Draws ``n_piece`` mixing
    coefficients from ``rng``, then applies them to the piece's data and
    coefficient rows: one linear combination of n_piece fragments (eq. E6).
    """
    mixing = field.random(piece.n_piece, rng)
    return Fragment(
        data=field.linear_combination(mixing, piece.data),
        coefficients=field.linear_combination(mixing, piece.coefficients),
    )


class DecodingError(RuntimeError):
    """Raised when the collected pieces do not span the original file.

    With the paper's field size (q = 16) this happens with probability
    roughly 2^-16 per decode; callers are expected to fetch one more
    piece and retry.
    """


@dataclasses.dataclass(frozen=True)
class ReconstructionPlan:
    """Phase-1 output of reconstruction: which fragments to download.

    ``selection`` maps each of the ``n_file`` chosen coefficient rows back
    to (piece position in the supplied list, fragment row within that
    piece).  ``inverse`` is the inverted square coefficient submatrix;
    multiplying it by the downloaded fragments yields the original file.
    """

    selection: tuple[tuple[int, int], ...]
    inverse: np.ndarray
    n_file: int
    coefficient_bytes_examined: int

    @property
    def fragments_to_download(self) -> int:
        return len(self.selection)


@dataclasses.dataclass(frozen=True)
class RepairResult:
    """A completed repair: the regenerated piece plus its traffic accounting."""

    piece: Piece
    uploads: tuple[Fragment, ...]
    payload_bytes: int
    coefficient_bytes: int

    @property
    def total_bytes(self) -> int:
        """|repair_down| on the wire, coefficients included."""
        return self.payload_bytes + self.coefficient_bytes


class RandomLinearRegeneratingCode:
    """A Random Linear Regenerating Code RC(k, h, d, i) over GF(2^q).

    Parameters
    ----------
    params:
        The validated RC(k, h, d, i) parameter set.
    field:
        The Galois field; defaults to the paper's GF(2^16).
    rng:
        Source of coding randomness.  Pass a seeded generator for
        reproducible experiments.

    Examples
    --------
    >>> from repro.core import RCParams, RandomLinearRegeneratingCode
    >>> code = RandomLinearRegeneratingCode(RCParams(k=4, h=4, d=5, i=1))
    >>> encoded = code.insert(b"hello regenerating world")
    >>> code.reconstruct(encoded.subset([0, 2, 5, 7]), encoded.file_size)
    b'hello regenerating world'
    """

    def __init__(
        self,
        params: RCParams,
        field: GaloisField | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.params = params
        self.field = field if field is not None else GF(16)
        self.rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def _pad(self, data: bytes) -> tuple[np.ndarray, int]:
        """Zero-pad ``data`` and reshape it to the (n_file, l_frag) matrix F."""
        padded_size = self.params.aligned_file_size(len(data), self.field.element_size)
        padded = data + b"\x00" * (padded_size - len(data))
        elements = self.field.bytes_to_elements(padded)
        return elements.reshape(self.params.n_file, -1), padded_size

    def insert(self, data: bytes, workers: int | None = None) -> EncodedFile:
        """Encode ``data`` into k + h pieces (section 3.2, insertion).

        Every piece is ``n_piece`` random linear combinations of the
        ``n_file`` original fragments; the (n_piece, n_file) coefficient
        matrix is stored with the piece.

        ``workers`` bounds the shard fan-out of the stacked matrix
        product (default: ``REPRO_GF_WORKERS`` or the CPUs this process
        may run on; small products run on one thread regardless).  All
        coefficient matrices are drawn *before* any product, so the rng
        stream -- and therefore the encoded bytes -- are identical for
        every worker count.
        """
        original, padded_size = self._pad(data)
        n_file, l_frag = original.shape
        n_piece = self.params.n_piece
        coefficient_sets = [
            self.field.random((n_piece, n_file), self.rng)
            for _ in range(self.params.total_pieces)
        ]
        # Batched encode: every piece's rows go through ONE stacked matmul
        # (rows are independent, so per-piece output is byte-identical to
        # per-piece products) -- one kernel dispatch instead of k + h.
        stacked = np.concatenate(coefficient_sets, axis=0)
        combined = kernels.matmul_sharded(self.field, stacked, original, workers=workers)
        pieces = [
            Piece(
                index=index,
                data=combined[index * n_piece : (index + 1) * n_piece],
                coefficients=coefficients,
            )
            for index, coefficients in enumerate(coefficient_sets)
        ]
        return EncodedFile(
            pieces=tuple(pieces),
            file_size=len(data),
            padded_size=padded_size,
            n_file=n_file,
            fragment_length=l_frag,
        )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def newcomer_repair(
        self,
        contributions: list[Fragment],
        index: int,
        rng: np.random.Generator | None = None,
    ) -> Piece:
        """Combine d received fragments into the regenerated piece (fig. 2b).

        Requires exactly ``d`` contributions.  In the verbatim case
        (d == n_piece, section 3.2) the received fragments *are* the new
        piece and no field operations are performed.
        """
        if len(contributions) != self.params.d:
            raise ValueError(
                f"repair needs exactly d={self.params.d} contributions, "
                f"got {len(contributions)}"
            )
        if self.params.newcomer_stores_verbatim:
            return Piece.from_fragments(index, contributions)
        rng = rng if rng is not None else self.rng
        received_data = np.stack([fragment.data for fragment in contributions])
        received_coeffs = np.stack([fragment.coefficients for fragment in contributions])
        mixing = self.field.random((self.params.n_piece, self.params.d), rng)
        return Piece(
            index=index,
            data=linalg.gf_matmul(self.field, mixing, received_data),
            coefficients=linalg.gf_matmul(self.field, mixing, received_coeffs),
        )

    def repair(
        self,
        participants: list[Piece],
        index: int,
        rng: np.random.Generator | None = None,
    ) -> RepairResult:
        """Full repair: d participant uploads plus the newcomer combination.

        Returns the regenerated piece together with exact wire-traffic
        accounting (payload = d * |fragment|, coefficients = the overhead
        of section 4.1).
        """
        if len(participants) != self.params.d:
            raise ValueError(
                f"repair needs exactly d={self.params.d} participating pieces, "
                f"got {len(participants)}"
            )
        rng = rng if rng is not None else self.rng
        uploads = tuple(
            participant_contribution(self.field, piece, rng) for piece in participants
        )
        piece = self.newcomer_repair(list(uploads), index, rng)
        payload = sum(fragment.data_bytes(self.field) for fragment in uploads)
        coefficients = sum(fragment.coefficient_bytes(self.field) for fragment in uploads)
        return RepairResult(
            piece=piece,
            uploads=uploads,
            payload_bytes=payload,
            coefficient_bytes=coefficients,
        )

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------

    def plan_reconstruction(self, pieces: list[Piece]) -> ReconstructionPlan:
        """Phase 1: from coefficients alone, decide which fragments to fetch.

        Stacks the coefficient rows of the supplied pieces, extracts
        ``n_file`` linearly independent rows (scanning in order), and
        inverts the resulting square matrix.  Raises
        :class:`DecodingError` when the pieces do not span the file.
        """
        if not pieces:
            raise DecodingError("no pieces supplied for reconstruction")
        n_file = pieces[0].n_file
        row_origin = [
            (position, row)
            for position, piece in enumerate(pieces)
            for row in range(piece.n_piece)
        ]
        stacked = np.concatenate([piece.coefficients for piece in pieces], axis=0)
        try:
            # Extraction and inversion in one pass (paper section 4.2:
            # "extraction and inversion are done in parallel").
            selected, inverse = linalg.extract_and_invert(self.field, stacked, n_file)
        except linalg.LinAlgError as exc:
            raise DecodingError(
                f"collected coefficient matrix has insufficient rank "
                f"(needed {n_file}): {exc}"
            ) from exc
        return ReconstructionPlan(
            selection=tuple(row_origin[row] for row in selected),
            inverse=inverse,
            n_file=n_file,
            coefficient_bytes_examined=stacked.size * self.field.element_size,
        )

    def decode_with_plan(
        self, plan: ReconstructionPlan, pieces: list[Piece], file_size: int | None = None
    ) -> bytes:
        """Phase 2: multiply the inverse by the n_file selected fragments.

        ``pieces`` must be the same list (same order) given to
        :meth:`plan_reconstruction`.  Only the planned fragments are read,
        modelling the download of exactly |file| bytes.
        """
        rows = np.stack(
            [pieces[position].data[row] for position, row in plan.selection]
        )
        original = linalg.gf_matmul(self.field, plan.inverse, rows)
        # One copy from the decoded matrix to the caller's bytes.
        return bytes(self.field.elements_to_buffer(original.reshape(-1))[:file_size])

    def reconstruct(self, pieces: list[Piece], file_size: int | None = None) -> bytes:
        """Full reconstruction from any >= k pieces (w.h.p.).

        Returns the decoded bytes, truncated to ``file_size`` when given
        (removing the insertion padding).
        """
        plan = self.plan_reconstruction(pieces)
        return self.decode_with_plan(plan, pieces, file_size)

    def reconstruct_file(self, encoded: EncodedFile, positions) -> bytes:
        """Reconstruct from the pieces at ``positions`` of an encoded file."""
        return self.reconstruct(encoded.subset(positions), encoded.file_size)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def rank_of(self, pieces: list[Piece]) -> int:
        """Rank of the stacked coefficient matrix (decodable iff == n_file)."""
        stacked = np.concatenate([piece.coefficients for piece in pieces], axis=0)
        return linalg.rank(self.field, stacked)

    def can_reconstruct(self, pieces: list[Piece]) -> bool:
        """Whether the pieces span the file (no data touched, coefficients only)."""
        if not pieces:
            return False
        return self.rank_of(pieces) == pieces[0].n_file
