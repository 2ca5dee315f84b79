"""Traditional random linear erasure codes (paper section 3.1).

The degenerate Regenerating Code RC(k, h, k, 0): the file is split into
k fragments, each piece is one random linear combination of them, and a
repair transfers k *whole pieces* to the newcomer ("for every new bit
that we create during a repair, k existing bits needs to be
transferred", section 2.1).  Participants perform no computation -- they
upload their stored piece verbatim -- which is why the paper normalizes
figure 4(b) by the first non-zero configuration instead.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.codes.base import Block, EncodedObject, RepairOutcome
from repro.codes.regenerating_scheme import RegeneratingCodeScheme
from repro.core.blocks import Piece
from repro.core.params import RCParams
from repro.gf.field import GaloisField

__all__ = ["RandomLinearErasureScheme"]


class RandomLinearErasureScheme(RegeneratingCodeScheme):
    """A (k, h) random linear erasure code with the classic repair rule.

    Everything but the repair is RC(k, h, k, 0) and inherited as such.
    """

    name = "erasure"

    def __init__(
        self,
        k: int,
        h: int,
        field: GaloisField | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(RCParams.erasure(k, h), field=field, rng=rng)
        self.name = f"erasure(k={k},h={h})"

    def repair_computation_ops(self, file_size: int) -> float:
        """Participants are free (they upload verbatim); newcomer combines."""
        return float(self._cost_model(file_size).newcomer_repair_ops())

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        """Classic erasure repair: k whole pieces flow to the newcomer.

        Participants upload their stored piece unchanged (zero
        computation, section 5.1's t(32,0) table); the newcomer builds
        the new piece as one random linear combination of the k received
        pieces (section 3.1, maintenance).
        """
        participants = self._repair_participants(available, lost_index)  # d == k
        pieces: list[Piece] = [available[index].content for index in participants]
        received_data = np.concatenate([piece.data for piece in pieces], axis=0)
        received_coeffs = np.concatenate([piece.coefficients for piece in pieces], axis=0)
        mixing = self.field.random(received_data.shape[0], self.code.rng)
        new_piece = Piece(
            index=lost_index,
            data=self.field.linear_combination(mixing, received_data)[None, :],
            coefficients=self.field.linear_combination(mixing, received_coeffs)[None, :],
        )
        uploaded = {
            index: piece.storage_bytes(self.field)
            for index, piece in zip(participants, pieces)
        }
        return RepairOutcome(
            block=self._block_from_piece(new_piece),
            participants=tuple(participants),
            uploaded_per_participant=uploaded,
        )
