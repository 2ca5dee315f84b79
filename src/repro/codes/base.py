"""The common redundancy-scheme interface (paper section 2.1).

Every scheme stores a file as ``total_blocks`` blocks on distinct peers
and supports the three life-cycle phases:

1. **insertion** -- :meth:`RedundancyScheme.encode`;
2. **maintenance** -- :meth:`RedundancyScheme.repair`, rebuilding one
   lost block from the surviving ones, with explicit accounting of the
   bytes each participant uploads and the newcomer downloads;
3. **reconstruction** -- :meth:`RedundancyScheme.reconstruct` from a
   sufficient subset of blocks.

The accounting fields are what the P2P simulator and the benchmark
harness aggregate: the paper's |repair_up| / |repair_down| / |storage|
quantities fall straight out of them.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Mapping

import numpy as np

from repro.core.integrity import ReconstructError
from repro.gf.field import GaloisField

__all__ = [
    "Block",
    "EncodedObject",
    "RedundancyScheme",
    "RepairOutcome",
    "RepairError",
    "ReconstructError",
    "pad_to_matrix",
]


class RepairError(RuntimeError):
    """Raised when a repair is impossible with the surviving blocks."""


@dataclasses.dataclass(frozen=True)
class Block:
    """One stored unit: what a single peer holds for one file.

    ``content`` is scheme-specific (raw bytes for replication, coded
    arrays for linear schemes); ``payload_bytes`` is its honest on-disk /
    on-wire size including any stored coefficients.
    """

    index: int
    content: Any
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("block index must be non-negative")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")


@dataclasses.dataclass(frozen=True)
class EncodedObject:
    """Insertion output: the blocks plus whatever decode needs.

    ``meta`` carries scheme-specific decoding metadata (e.g. original
    file length); it is considered small and is not charged to traffic.
    """

    blocks: tuple[Block, ...]
    file_size: int
    meta: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_map(self) -> dict[int, Block]:
        return {block.index: block for block in self.blocks}

    def storage_bytes(self) -> int:
        """The paper's |storage|: total bytes held across all peers."""
        return sum(block.payload_bytes for block in self.blocks)


@dataclasses.dataclass(frozen=True)
class RepairOutcome:
    """A completed maintenance repair with its traffic accounting."""

    block: Block
    participants: tuple[int, ...]
    uploaded_per_participant: Mapping[int, int]

    @property
    def repair_degree(self) -> int:
        """The paper's d: peers contacted for this repair."""
        return len(self.participants)

    @property
    def bytes_downloaded(self) -> int:
        """|repair_down|: what the newcomer pulls over the network."""
        return sum(self.uploaded_per_participant.values())


class RedundancyScheme(abc.ABC):
    """Abstract life cycle of a redundancy scheme (section 2.1)."""

    #: Short scheme identifier used in reports and simulator metrics.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # static structure
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def total_blocks(self) -> int:
        """Blocks created at insertion (the paper's k + h)."""

    @property
    @abc.abstractmethod
    def reconstruction_degree(self) -> int:
        """Blocks sufficient for reconstruction (the paper's k).

        For random-linear schemes sufficiency is with high probability;
        for deterministic schemes (replication, product-matrix) it is
        guaranteed.  Hierarchical codes return the worst-case value (not
        all subsets of this size work -- see the scheme's docstring).
        """

    @property
    def tolerable_failures(self) -> int:
        """Blocks that may be lost while the file stays reconstructible."""
        return self.total_blocks - self.reconstruction_degree

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def encode(self, data: bytes) -> EncodedObject:
        """Insertion: produce ``total_blocks`` blocks from the file."""

    @abc.abstractmethod
    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        """Reconstruction: recover the original bytes from the blocks.

        Raises :class:`ReconstructError` if the subset is insufficient.
        """

    @abc.abstractmethod
    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        """Maintenance: rebuild the block at ``lost_index``.

        ``available`` maps block index -> surviving block.  Raises
        :class:`RepairError` when the survivors are insufficient.
        """

    # ------------------------------------------------------------------
    # computation accounting (for pipelined timing, paper section 5.2)
    # ------------------------------------------------------------------

    def insert_computation_ops(self, file_size: int) -> float:
        """Field operations to encode a file; 0 for computation-free schemes."""
        return 0.0

    def repair_computation_ops(self, file_size: int) -> float:
        """Field operations for one repair (participants + newcomer)."""
        return 0.0

    def reconstruct_computation_ops(self, file_size: int) -> float:
        """Field operations to reconstruct (inversion + decoding)."""
        return 0.0

    # ------------------------------------------------------------------
    # conveniences shared by all schemes
    # ------------------------------------------------------------------

    def storage_overhead(self, encoded: EncodedObject) -> float:
        """|storage| / |file| (the paper's storage cost, section 2.1)."""
        if encoded.file_size == 0:
            raise ValueError("storage overhead undefined for empty files")
        return encoded.storage_bytes() / encoded.file_size

    def verify_roundtrip(self, data: bytes) -> bool:
        """Self-check: encode then reconstruct from the minimal prefix set."""
        encoded = self.encode(data)
        subset = list(encoded.blocks[: self.reconstruction_degree])
        return self.reconstruct(encoded, subset) == data

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def pad_to_matrix(field: GaloisField, data: bytes, rows: int) -> np.ndarray:
    """Zero-pad the file and reshape it into the (rows, L) element matrix
    of stripes that a linear scheme multiplies (L >= 1)."""
    stride = rows * field.element_size
    padded_size = max(len(data) + (-len(data)) % stride, stride)
    padded = data + b"\x00" * (padded_size - len(data))
    return field.bytes_to_elements(padded).reshape(rows, -1)
