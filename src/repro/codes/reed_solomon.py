"""Systematic Reed-Solomon erasure code (paper reference [10]).

The deterministic counterpart of the random-linear erasure code: an MDS
code in which *every* subset of k blocks reconstructs the file with
certainty, not just with high probability.  Built from a Vandermonde
matrix over GF(2^q), made systematic by normalizing its top k x k block
to the identity, so the first k blocks are verbatim file stripes.

Repairs follow the classic rule the paper attributes to erasure codes:
the newcomer downloads k surviving blocks, decodes, and re-encodes the
lost row -- the k-fold repair-traffic amplification that motivates
Regenerating Codes.
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
    pad_to_matrix,
)
from repro.gf import linalg
from repro.gf.field import GF, GaloisField

__all__ = ["ReedSolomonScheme"]


class ReedSolomonScheme(RedundancyScheme):
    """A systematic (k + h, k) Reed-Solomon code over GF(2^q)."""

    name = "reed-solomon"

    def __init__(self, k: int, h: int, field: GaloisField | None = None):
        if k < 1 or h < 0:
            raise ValueError(f"invalid RS parameters k={k}, h={h}")
        self.field = field if field is not None else GF(16)
        if k + h > self.field.order:
            raise ValueError(
                f"k + h = {k + h} exceeds the field order {self.field.order}; "
                "a Vandermonde code needs distinct evaluation points"
            )
        self.k = k
        self.h = h
        self.name = f"reed-solomon(k={k},h={h})"
        self.generator = self._systematic_generator()

    def _systematic_generator(self) -> np.ndarray:
        """G = V * inv(V_top): identity on top, Cauchy-like parity below."""
        points = self.field.asarray(np.arange(self.k + self.h))
        exponents = np.arange(self.k)
        vandermonde = self.field.zeros((self.k + self.h, self.k))
        for row, point in enumerate(points):
            for col in exponents:
                vandermonde[row, col] = self.field.power(point, int(col))
        top_inverse = linalg.inverse(self.field, vandermonde[: self.k])
        return linalg.gf_matmul(self.field, vandermonde, top_inverse)

    @property
    def total_blocks(self) -> int:
        return self.k + self.h

    @property
    def reconstruction_degree(self) -> int:
        return self.k

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> EncodedObject:
        stripes = pad_to_matrix(self.field, data, self.k)
        coded = linalg.gf_matmul(self.field, self.generator, stripes)
        block_bytes = stripes.shape[1] * self.field.element_size
        blocks = tuple(
            Block(index=index, content=coded[index].copy(), payload_bytes=block_bytes)
            for index in range(self.total_blocks)
        )
        return EncodedObject(
            blocks=blocks,
            file_size=len(data),
            meta={"stripe_elements": stripes.shape[1]},
        )

    def _decode_matrix(self, blocks: list[Block]) -> np.ndarray:
        """Recover the stripe matrix D from any k distinct blocks."""
        if len({block.index for block in blocks}) < self.k:
            raise ReconstructError(
                f"Reed-Solomon needs {self.k} distinct blocks, got {len(blocks)}"
            )
        chosen = sorted(blocks, key=lambda block: block.index)[: self.k]
        indices = [block.index for block in chosen]
        sub_generator = self.generator[indices]
        rows = np.stack([block.content for block in chosen])
        try:
            inverse = linalg.inverse(self.field, sub_generator)
        except linalg.LinAlgError as exc:  # impossible for MDS, kept defensive
            raise ReconstructError(f"singular RS submatrix: {exc}") from exc
        return linalg.gf_matmul(self.field, inverse, rows)

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        stripes = self._decode_matrix(blocks)
        data = self.field.elements_to_bytes(stripes.reshape(-1))
        return data[: encoded.file_size]

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        if not 0 <= lost_index < self.total_blocks:
            raise RepairError(f"no block slot {lost_index}")
        survivors = sorted(index for index in available if index != lost_index)
        if len(survivors) < self.k:
            raise RepairError(
                f"repair needs k={self.k} blocks, only {len(survivors)} survive"
            )
        participants = survivors[: self.k]
        chosen = [available[index] for index in participants]
        stripes = self._decode_matrix(chosen)
        row = linalg.gf_matvec(
            self.field, stripes.T, self.generator[lost_index]
        )  # (L, k) @ (k,) = regenerated block
        block_bytes = stripes.shape[1] * self.field.element_size
        new_block = Block(index=lost_index, content=row, payload_bytes=block_bytes)
        uploaded = {index: available[index].payload_bytes for index in participants}
        return RepairOutcome(
            block=new_block,
            participants=tuple(participants),
            uploaded_per_participant=uploaded,
        )
