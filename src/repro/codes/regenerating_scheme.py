"""Adapter exposing Random Linear Regenerating Codes as a RedundancyScheme.

This lets the P2P simulator drive the paper's code side by side with
replication, erasure and the other baselines.  Blocks wrap
:class:`repro.core.blocks.Piece`; payload sizes include the stored
coefficient matrices (the overhead of section 4.1), so simulator traffic
and storage numbers are the honest on-wire values.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.codes.base import (
    Block,
    EncodedObject,
    ReconstructError,
    RedundancyScheme,
    RepairError,
    RepairOutcome,
)
from repro.core.blocks import Piece
from repro.core.params import RCParams
from repro.core.regenerating import (
    DecodingError,
    RandomLinearRegeneratingCode,
    participant_contribution,
)
from repro.gf.field import GaloisField

__all__ = ["RegeneratingCodeScheme"]


class RegeneratingCodeScheme(RedundancyScheme):
    """RC(k, h, d, i) behind the common scheme interface.

    A repair contacts exactly ``d`` of the surviving peers; each uploads
    one coded fragment plus its coefficient row (fig. 2a), and the
    newcomer mixes them into a fresh piece (fig. 2b).
    """

    name = "regenerating"

    def __init__(
        self,
        params: RCParams,
        field: GaloisField | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.params = params
        self.code = RandomLinearRegeneratingCode(params, field=field, rng=rng)
        self.name = f"regenerating({params})"

    @property
    def field(self) -> GaloisField:
        return self.code.field

    @property
    def total_blocks(self) -> int:
        return self.params.total_pieces

    @property
    def reconstruction_degree(self) -> int:
        return self.params.k

    @property
    def repair_degree(self) -> int:
        return self.params.d

    # ------------------------------------------------------------------
    # computation accounting (eqs. E5-E8 via the cost model)
    # ------------------------------------------------------------------

    def _cost_model(self, file_size: int, include_coefficients: bool = False):
        from repro.core.costs import CostModel

        return CostModel(
            self.params,
            max(file_size, 1),
            q=self.field.q,
            include_coefficients=include_coefficients,
        )

    def insert_computation_ops(self, file_size: int) -> float:
        return float(self._cost_model(file_size).encoding_ops())

    def repair_computation_ops(self, file_size: int) -> float:
        # Repairs combine coefficient rows along with data (section 4.2's
        # maintenance note), so charge the coefficient-loaded counts.
        model = self._cost_model(file_size, include_coefficients=True)
        participant_total = self.params.d * float(model.participant_repair_ops())
        return participant_total + float(model.newcomer_repair_ops())

    def reconstruct_computation_ops(self, file_size: int) -> float:
        model = self._cost_model(file_size)
        lower, _ = model.inversion_ops_bounds()
        return float(lower) + float(model.decoding_ops())

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def _block_from_piece(self, piece: Piece) -> Block:
        return Block(
            index=piece.index,
            content=piece,
            payload_bytes=piece.storage_bytes(self.field),
        )

    def encode(self, data: bytes) -> EncodedObject:
        encoded = self.code.insert(data)
        blocks = tuple(self._block_from_piece(piece) for piece in encoded.pieces)
        return EncodedObject(
            blocks=blocks,
            file_size=len(data),
            meta={
                "padded_size": encoded.padded_size,
                "n_file": encoded.n_file,
                "fragment_length": encoded.fragment_length,
            },
        )

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        pieces = [block.content for block in blocks]
        try:
            return self.code.reconstruct(pieces, encoded.file_size)
        except DecodingError as exc:
            raise ReconstructError(str(exc)) from exc

    def _repair_participants(
        self, available: Mapping[int, Block], lost_index: int
    ) -> list[int]:
        """The ``d`` lowest surviving block indices, or :class:`RepairError`."""
        if not 0 <= lost_index < self.total_blocks:
            raise RepairError(f"no block slot {lost_index}")
        survivors = sorted(index for index in available if index != lost_index)
        if len(survivors) < self.params.d:
            raise RepairError(
                f"repair needs d={self.params.d} participants, "
                f"only {len(survivors)} blocks survive"
            )
        return survivors[: self.params.d]

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        participants = self._repair_participants(available, lost_index)
        pieces = [available[index].content for index in participants]
        uploads = [
            participant_contribution(self.field, piece, self.code.rng)
            for piece in pieces
        ]
        new_piece = self.code.newcomer_repair(uploads, lost_index)
        uploaded = {
            index: fragment.wire_bytes(self.field)
            for index, fragment in zip(participants, uploads)
        }
        return RepairOutcome(
            block=self._block_from_piece(new_piece),
            participants=tuple(participants),
            uploaded_per_participant=uploaded,
        )
