"""Hierarchical Codes (Duminuco & Biersack, paper reference [8]).

The authors' earlier answer to the erasure-repair problem, used by the
paper as a comparison point and named in its future work.  The k
original fragments are partitioned into G groups of k0 = k / G; each
group stores *local* pieces (random combinations confined to the
group's fragments) and the system additionally stores *global* pieces
(combinations of all k fragments).

- A lost local piece is repaired from any k0 live pieces of its own
  group: repair degree k0 << k, so "the repair communication cost is on
  average much smaller than for erasure codes" (paper section 1).
- The disadvantage the paper highlights: **not all subsets of k pieces
  reconstruct the file** -- e.g. more than k0 + local redundancy pieces
  drawn from one group are necessarily dependent.

This two-level construction is the smallest hierarchy exhibiting both
properties; it is what the comparison benchmarks exercise.
"""

from __future__ import annotations

import dataclasses
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
from repro.gf import linalg
from repro.gf.field import GF, GaloisField

__all__ = ["HierarchicalCodeScheme", "HierarchicalPiece", "TreeHierarchicalCodeScheme"]


@dataclasses.dataclass(frozen=True)
class HierarchicalPiece:
    """One coded piece: a coefficient row over all k fragments plus data.

    ``group`` is the owning group for local pieces and ``None`` for
    global pieces; local rows are zero outside their group's columns.
    """

    coefficients: np.ndarray
    data: np.ndarray
    group: int | None


class HierarchicalCodeScheme(RedundancyScheme):
    """A two-level hierarchical code.

    Parameters
    ----------
    k:
        Fragments the file is split into (reconstruction needs rank k).
    groups:
        Number of equal groups; must divide k.
    local_redundancy:
        Extra local pieces per group beyond the k0 needed locally.
    global_pieces:
        Pieces combining all fragments (protect against whole-group loss).
    """

    name = "hierarchical"

    def __init__(
        self,
        k: int,
        groups: int,
        local_redundancy: int,
        global_pieces: int,
        field: GaloisField | None = None,
        rng: np.random.Generator | None = None,
    ):
        if k < 1 or groups < 1 or k % groups:
            raise ValueError(f"groups={groups} must divide k={k}")
        if local_redundancy < 0 or global_pieces < 0:
            raise ValueError("redundancy counts must be non-negative")
        self.k = k
        self.groups = groups
        self.group_size = k // groups
        self.local_redundancy = local_redundancy
        self.global_pieces = global_pieces
        self.field = field if field is not None else GF(16)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.name = (
            f"hierarchical(k={k},G={groups},"
            f"local+{local_redundancy},global={global_pieces})"
        )

    @property
    def pieces_per_group(self) -> int:
        return self.group_size + self.local_redundancy

    @property
    def total_blocks(self) -> int:
        return self.groups * self.pieces_per_group + self.global_pieces

    @property
    def reconstruction_degree(self) -> int:
        """Worst-case pieces needed: k plus whatever dependence can waste.

        Any k *well-spread* pieces suffice w.h.p., but adversarial subsets
        of this size may not (the scheme's documented drawback); callers
        should treat this as the typical, not guaranteed, threshold.
        """
        return self.k

    def group_of(self, index: int) -> int | None:
        """Owning group of a block index, or None for global pieces."""
        if not 0 <= index < self.total_blocks:
            raise ValueError(f"no block slot {index}")
        local_count = self.groups * self.pieces_per_group
        return index // self.pieces_per_group if index < local_count else None

    def _group_columns(self, group: int) -> slice:
        return slice(group * self.group_size, (group + 1) * self.group_size)

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def _pad_to_matrix(self, data: bytes) -> np.ndarray:
        stride = self.k * self.field.element_size
        padded_size = max(len(data) + (-len(data)) % stride, stride)
        padded = data + b"\x00" * (padded_size - len(data))
        return self.field.bytes_to_elements(padded).reshape(self.k, -1)

    def _local_row(self, group: int, rng: np.random.Generator) -> np.ndarray:
        row = self.field.zeros(self.k)
        row[self._group_columns(group)] = self.field.random(self.group_size, rng)
        return row

    def _make_piece(
        self, row: np.ndarray, fragments: np.ndarray, group: int | None
    ) -> HierarchicalPiece:
        data = linalg.gf_matvec(self.field, fragments.T, row)
        return HierarchicalPiece(coefficients=row, data=data, group=group)

    def _block(self, index: int, piece: HierarchicalPiece) -> Block:
        payload = (piece.data.size + piece.coefficients.size) * self.field.element_size
        return Block(index=index, content=piece, payload_bytes=payload)

    def encode(self, data: bytes) -> EncodedObject:
        fragments = self._pad_to_matrix(data)
        blocks = []
        index = 0
        for group in range(self.groups):
            for _ in range(self.pieces_per_group):
                row = self._local_row(group, self.rng)
                blocks.append(self._block(index, self._make_piece(row, fragments, group)))
                index += 1
        for _ in range(self.global_pieces):
            row = self.field.random(self.k, self.rng)
            blocks.append(self._block(index, self._make_piece(row, fragments, None)))
            index += 1
        return EncodedObject(
            blocks=tuple(blocks),
            file_size=len(data),
            meta={"stripe_elements": fragments.shape[1]},
        )

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        if not blocks:
            raise ReconstructError("no blocks supplied")
        stacked = np.stack([block.content.coefficients for block in blocks])
        try:
            selected, inverse = linalg.extract_and_invert(self.field, stacked, self.k)
        except linalg.LinAlgError as exc:
            raise ReconstructError(
                "blocks do not span the file (hierarchical codes lose the "
                f"any-k property): {exc}"
            ) from exc
        rows = np.stack([blocks[sel].content.data for sel in selected])
        fragments = linalg.gf_matmul(self.field, inverse, rows)
        data = self.field.elements_to_bytes(fragments.reshape(-1))
        return data[: encoded.file_size]

    def spread_subset(self, encoded: EncodedObject) -> list[Block]:
        """A k-block subset guaranteed to span: k0 per group, in order.

        Demonstrates the flip side of the any-k loss: *well-spread*
        subsets of exactly k pieces do reconstruct (w.h.p.).
        """
        chosen = []
        for group in range(self.groups):
            start = group * self.pieces_per_group
            chosen.extend(encoded.blocks[start : start + self.group_size])
        return chosen

    def verify_roundtrip(self, data: bytes) -> bool:
        """Round-trip via a spread subset; a blind prefix may be dependent."""
        encoded = self.encode(data)
        return self.reconstruct(encoded, self.spread_subset(encoded)) == data

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        """Local repair when the group still has k0 live pieces; else global.

        The local path is the scheme's raison d'etre: repair degree k0
        and traffic k0 * |piece| instead of k * |piece|.
        """
        if not 0 <= lost_index < self.total_blocks:
            raise RepairError(f"no block slot {lost_index}")
        group = self.group_of(lost_index)
        survivors = {index: block for index, block in available.items() if index != lost_index}
        if group is not None:
            outcome = self._try_local_repair(survivors, lost_index, group)
            if outcome is not None:
                return outcome
        return self._global_repair(encoded, survivors, lost_index, group)

    def _try_local_repair(
        self, survivors: Mapping[int, Block], lost_index: int, group: int
    ) -> RepairOutcome | None:
        peers = sorted(
            index for index in survivors if self.group_of(index) == group
        )
        if len(peers) < self.group_size:
            return None
        stacked = np.stack(
            [survivors[index].content.coefficients for index in peers]
        )[:, self._group_columns(group)]
        try:
            selected = linalg.extract_independent_rows(self.field, stacked, self.group_size)
        except linalg.LinAlgError:
            return None  # dependent local pieces; fall back to global repair
        participants = tuple(peers[sel] for sel in selected)
        mixing = self.field.random(self.group_size, self.rng)
        rows = np.stack([survivors[index].content.coefficients for index in participants])
        data = np.stack([survivors[index].content.data for index in participants])
        piece = HierarchicalPiece(
            coefficients=self.field.linear_combination(mixing, rows),
            data=self.field.linear_combination(mixing, data),
            group=group,
        )
        uploaded = {index: survivors[index].payload_bytes for index in participants}
        return RepairOutcome(
            block=self._block(lost_index, piece),
            participants=participants,
            uploaded_per_participant=uploaded,
        )

    def _global_repair(
        self,
        encoded: EncodedObject,
        survivors: Mapping[int, Block],
        lost_index: int,
        group: int | None,
    ) -> RepairOutcome:
        """Decode the full fragment space, then re-encode the lost piece."""
        ordered = [survivors[index] for index in sorted(survivors)]
        stacked = (
            np.stack([block.content.coefficients for block in ordered])
            if ordered
            else self.field.zeros((0, self.k))
        )
        try:
            selected, inverse = linalg.extract_and_invert(self.field, stacked, self.k)
        except linalg.LinAlgError as exc:
            raise RepairError(
                f"global repair impossible: survivors have rank < k ({exc})"
            ) from exc
        participants = tuple(ordered[sel].index for sel in selected)
        rows = np.stack([ordered[sel].content.data for sel in selected])
        fragments = linalg.gf_matmul(self.field, inverse, rows)
        row = (
            self._local_row(group, self.rng)
            if group is not None
            else self.field.random(self.k, self.rng)
        )
        piece = self._make_piece(row, fragments, group)
        uploaded = {
            ordered[sel].index: ordered[sel].payload_bytes for sel in selected
        }
        return RepairOutcome(
            block=self._block(lost_index, piece),
            participants=participants,
            uploaded_per_participant=uploaded,
        )


@dataclasses.dataclass(frozen=True)
class _TreeNode:
    """One node of the hierarchy: a fragment range plus its parities."""

    start: int
    end: int  # exclusive
    parities: int
    depth: int

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, other: "_TreeNode") -> bool:
        return self.start <= other.start and other.end <= self.end


class TreeHierarchicalCodeScheme(RedundancyScheme):
    """The general multi-level Hierarchical Code of paper reference [8].

    The k original fragments sit at the leaves of a balanced tree
    described by ``branching`` (e.g. ``[2, 2]``: the root splits into 2
    subtrees, each into 2 leaf groups).  Every tree node carries
    *parity pieces*: random linear combinations confined to the node's
    fragment range; leaf nodes additionally carry their ``leaf_size``
    "data-like" pieces.  A lost piece repairs within the **smallest
    ancestor subtree** whose live pieces still span it, so typical
    repair degrees are far below k while deep losses degrade gracefully
    to wider (ultimately global) repairs.

    The two-level :class:`HierarchicalCodeScheme` is the special case
    ``branching=[G]`` with root parities = global pieces.
    """

    name = "tree-hierarchical"

    def __init__(
        self,
        k: int,
        branching: list[int],
        parities_per_level: list[int],
        field: GaloisField | None = None,
        rng: np.random.Generator | None = None,
    ):
        if not branching or any(b < 1 for b in branching):
            raise ValueError("branching must be a non-empty list of positive ints")
        if len(parities_per_level) != len(branching) + 1:
            raise ValueError(
                "need one parity count per level: len(branching) + 1 "
                f"(root..leaves), got {len(parities_per_level)}"
            )
        if any(p < 0 for p in parities_per_level):
            raise ValueError("parity counts must be non-negative")
        groups = 1
        for branch in branching:
            groups *= branch
        if k % groups:
            raise ValueError(f"k={k} must be divisible by the {groups} leaf groups")
        self.k = k
        self.branching = list(branching)
        self.parities_per_level = list(parities_per_level)
        self.leaf_size = k // groups
        self.field = field if field is not None else GF(16)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.nodes = self._build_nodes()
        #: piece index -> (owning node, is_data_piece)
        self.layout = self._build_layout()
        self.name = (
            f"tree-hierarchical(k={k},branching={branching},"
            f"parities={parities_per_level})"
        )

    def _build_nodes(self) -> list[_TreeNode]:
        """All tree nodes, root first, then level by level."""
        nodes = [_TreeNode(0, self.k, self.parities_per_level[0], depth=0)]
        frontier = [nodes[0]]
        for depth, branch in enumerate(self.branching, start=1):
            next_frontier = []
            for node in frontier:
                width = node.size // branch
                for child_index in range(branch):
                    child = _TreeNode(
                        start=node.start + child_index * width,
                        end=node.start + (child_index + 1) * width,
                        parities=self.parities_per_level[depth],
                        depth=depth,
                    )
                    nodes.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        return nodes

    def _build_layout(self) -> list[tuple[_TreeNode, bool]]:
        """Order: per leaf (data pieces then parities), then shallower
        nodes' parities, deepest-first so local pieces cluster."""
        leaf_depth = len(self.branching)
        layout: list[tuple[_TreeNode, bool]] = []
        for node in self.nodes:
            if node.depth == leaf_depth:
                layout.extend([(node, True)] * self.leaf_size)
                layout.extend([(node, False)] * node.parities)
        for depth in range(leaf_depth - 1, -1, -1):
            for node in self.nodes:
                if node.depth == depth:
                    layout.extend([(node, False)] * node.parities)
        return layout

    @property
    def total_blocks(self) -> int:
        return len(self.layout)

    @property
    def reconstruction_degree(self) -> int:
        """Typical threshold k; like all hierarchical codes, not every
        k-subset spans (see HierarchicalCodeScheme)."""
        return self.k

    def node_of(self, index: int) -> _TreeNode:
        if not 0 <= index < self.total_blocks:
            raise ValueError(f"no block slot {index}")
        return self.layout[index][0]

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def _pad_to_matrix(self, data: bytes) -> np.ndarray:
        stride = self.k * self.field.element_size
        padded_size = max(len(data) + (-len(data)) % stride, stride)
        padded = data + b"\x00" * (padded_size - len(data))
        return self.field.bytes_to_elements(padded).reshape(self.k, -1)

    def _node_row(self, node: _TreeNode, rng: np.random.Generator) -> np.ndarray:
        row = self.field.zeros(self.k)
        row[node.start : node.end] = self.field.random(node.size, rng)
        return row

    def _make_piece(self, row, fragments, node: _TreeNode) -> HierarchicalPiece:
        data = linalg.gf_matvec(self.field, fragments.T, row)
        return HierarchicalPiece(coefficients=row, data=data, group=node.depth)

    def _block(self, index: int, piece: HierarchicalPiece) -> Block:
        payload = (piece.data.size + piece.coefficients.size) * self.field.element_size
        return Block(index=index, content=piece, payload_bytes=payload)

    def encode(self, data: bytes) -> EncodedObject:
        fragments = self._pad_to_matrix(data)
        blocks = []
        for index, (node, _is_data) in enumerate(self.layout):
            row = self._node_row(node, self.rng)
            blocks.append(self._block(index, self._make_piece(row, fragments, node)))
        return EncodedObject(
            blocks=tuple(blocks),
            file_size=len(data),
            meta={"stripe_elements": fragments.shape[1]},
        )

    def spread_subset(self, encoded: EncodedObject) -> list[Block]:
        """A spanning subset: every leaf's data pieces."""
        chosen = []
        for index, (node, is_data) in enumerate(self.layout):
            if is_data:
                chosen.append(encoded.blocks[index])
        return chosen

    def verify_roundtrip(self, data: bytes) -> bool:
        encoded = self.encode(data)
        return self.reconstruct(encoded, self.spread_subset(encoded)) == data

    def reconstruct(self, encoded: EncodedObject, blocks: list[Block]) -> bytes:
        if not blocks:
            raise ReconstructError("no blocks supplied")
        stacked = np.stack([block.content.coefficients for block in blocks])
        try:
            selected, inverse = linalg.extract_and_invert(self.field, stacked, self.k)
        except linalg.LinAlgError as exc:
            raise ReconstructError(
                f"blocks do not span the file (hierarchical any-k loss): {exc}"
            ) from exc
        rows = np.stack([blocks[sel].content.data for sel in selected])
        fragments = linalg.gf_matmul(self.field, inverse, rows)
        data = self.field.elements_to_bytes(fragments.reshape(-1))
        return data[: encoded.file_size]

    # ------------------------------------------------------------------
    # maintenance: smallest spanning subtree wins
    # ------------------------------------------------------------------

    def _ancestors(self, node: _TreeNode) -> list[_TreeNode]:
        """The chain from ``node`` up to the root (inclusive both ends)."""
        chain = [
            candidate
            for candidate in self.nodes
            if candidate.contains(node)
        ]
        chain.sort(key=lambda candidate: candidate.size)
        return chain

    def repair(
        self, encoded: EncodedObject, available: Mapping[int, Block], lost_index: int
    ) -> RepairOutcome:
        if not 0 <= lost_index < self.total_blocks:
            raise RepairError(f"no block slot {lost_index}")
        home = self.node_of(lost_index)
        survivors = {
            index: block for index, block in available.items() if index != lost_index
        }
        for region in self._ancestors(home):
            outcome = self._try_region_repair(survivors, lost_index, home, region)
            if outcome is not None:
                return outcome
        raise RepairError(
            f"no subtree of piece {lost_index} retains rank for repair"
        )

    def _try_region_repair(
        self,
        survivors: Mapping[int, Block],
        lost_index: int,
        home: _TreeNode,
        region: _TreeNode,
    ) -> RepairOutcome | None:
        """Repair inside ``region``: need rank = region.size among live
        pieces whose support lies within the region."""
        peers = sorted(
            index
            for index in survivors
            if region.contains(self.node_of(index))
        )
        if len(peers) < region.size:
            return None
        stacked = np.stack(
            [survivors[index].content.coefficients for index in peers]
        )[:, region.start : region.end]
        try:
            selected = linalg.extract_independent_rows(
                self.field, stacked, region.size
            )
        except linalg.LinAlgError:
            return None
        participants = tuple(peers[sel] for sel in selected)
        mixing = self.field.random(region.size, self.rng)
        rows = np.stack([survivors[index].content.coefficients for index in participants])
        data = np.stack([survivors[index].content.data for index in participants])
        combined_row = self.field.linear_combination(mixing, rows)
        combined_data = self.field.linear_combination(mixing, data)
        # The regenerated piece must live in the *home* node's support to
        # preserve the layout; a wider-region combination generally will
        # not, so re-encode a fresh home-local piece when region != home.
        if region.size == home.size and region.start == home.start:
            piece = HierarchicalPiece(
                coefficients=combined_row, data=combined_data, group=home.depth
            )
        else:
            piece = self._reencode_home_piece(survivors, participants, home, region)
            if piece is None:
                return None
        uploaded = {index: survivors[index].payload_bytes for index in participants}
        return RepairOutcome(
            block=self._block(lost_index, piece),
            participants=participants,
            uploaded_per_participant=uploaded,
        )

    def _reencode_home_piece(
        self,
        survivors: Mapping[int, Block],
        participants: tuple[int, ...],
        home: _TreeNode,
        region: _TreeNode,
    ) -> HierarchicalPiece | None:
        """Decode the region's fragments, then mint a home-local piece."""
        stacked = np.stack(
            [survivors[index].content.coefficients for index in participants]
        )[:, region.start : region.end]
        try:
            selected, inverse = linalg.extract_and_invert(
                self.field, stacked, region.size
            )
        except linalg.LinAlgError:
            return None
        rows = np.stack(
            [survivors[participants[sel]].content.data for sel in selected]
        )
        fragments = linalg.gf_matmul(self.field, inverse, rows)
        local = fragments[home.start - region.start : home.end - region.start]
        weights = self.field.random(home.size, self.rng)
        row = self.field.zeros(self.k)
        row[home.start : home.end] = weights
        data = self.field.linear_combination(weights, local)
        return HierarchicalPiece(coefficients=row, data=data, group=home.depth)
