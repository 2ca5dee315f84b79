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

One implementation, :class:`TreeHierarchicalCodeScheme`, nests groups to
any depth; :class:`HierarchicalCodeScheme` is its one-level tree, the
two-level code above, and adds only the group vocabulary.
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
    pad_to_matrix,
)
from repro.gf import linalg
from repro.gf.field import GF, GaloisField

__all__ = ["HierarchicalCodeScheme", "HierarchicalPiece", "TreeHierarchicalCodeScheme"]


@dataclasses.dataclass(frozen=True)
class HierarchicalPiece:
    """One coded piece: a coefficient row over all k fragments plus data.

    The row is zero outside the fragment range of the tree node that
    owns the piece.
    """

    coefficients: np.ndarray
    data: np.ndarray


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

    The two-level :class:`HierarchicalCodeScheme` is the subclass with
    ``branching=[G]`` and root parities = global pieces.
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
        """Typical threshold k: any k *well-spread* pieces suffice w.h.p.,
        but adversarial k-subsets may not (the documented any-k loss)."""
        return self.k

    def node_of(self, index: int) -> _TreeNode:
        if not 0 <= index < self.total_blocks:
            raise ValueError(f"no block slot {index}")
        return self.layout[index][0]

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------

    def _node_row(self, node: _TreeNode, rng: np.random.Generator) -> np.ndarray:
        row = self.field.zeros(self.k)
        row[node.start : node.end] = self.field.random(node.size, rng)
        return row

    def _block(self, index: int, piece: HierarchicalPiece) -> Block:
        payload = (piece.data.size + piece.coefficients.size) * self.field.element_size
        return Block(index=index, content=piece, payload_bytes=payload)

    def encode(self, data: bytes) -> EncodedObject:
        fragments = pad_to_matrix(self.field, data, self.k)
        blocks = []
        for index, (node, _is_data) in enumerate(self.layout):
            row = self._node_row(node, self.rng)
            data_row = linalg.gf_matvec(self.field, fragments.T, row)
            blocks.append(self._block(index, HierarchicalPiece(row, data_row)))
        return EncodedObject(
            blocks=tuple(blocks),
            file_size=len(data),
            meta={"stripe_elements": fragments.shape[1]},
        )

    def spread_subset(self, encoded: EncodedObject) -> list[Block]:
        """A spanning subset: every leaf's data pieces."""
        return [
            block for block, (_node, is_data) in zip(encoded.blocks, self.layout) if is_data
        ]

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
            selected, inverse = linalg.extract_and_invert(self.field, stacked, region.size)
        except linalg.LinAlgError:
            return None
        participants = tuple(peers[sel] for sel in selected)
        data = np.stack([survivors[index].content.data for index in participants])
        # The regenerated piece must live in the *home* node's support to
        # preserve the layout; a wider-region combination generally will
        # not, so when region != home decode the region's fragments and
        # mint a fresh home-local piece from them.
        if region.size == home.size and region.start == home.start:
            mixing = self.field.random(region.size, self.rng)
            rows = np.stack([survivors[index].content.coefficients for index in participants])
            row = self.field.linear_combination(mixing, rows)
            piece_data = self.field.linear_combination(mixing, data)
        else:
            fragments = linalg.gf_matmul(self.field, inverse, data)
            local = fragments[home.start - region.start : home.end - region.start]
            row = self._node_row(home, self.rng)
            piece_data = self.field.linear_combination(row[home.start : home.end], local)
        uploaded = {index: survivors[index].payload_bytes for index in participants}
        return RepairOutcome(
            block=self._block(lost_index, HierarchicalPiece(row, piece_data)),
            participants=participants,
            uploaded_per_participant=uploaded,
        )


class HierarchicalCodeScheme(TreeHierarchicalCodeScheme):
    """The two-level code: the tree with ``branching=[groups]`` whose root
    parities are the global pieces.  Every operation is the tree's.

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
        super().__init__(k, [groups], [global_pieces, local_redundancy], field, rng)
        self.groups = groups
        self.group_size = self.leaf_size
        self.local_redundancy = local_redundancy
        self.global_pieces = global_pieces
        self.name = (
            f"hierarchical(k={k},G={groups},"
            f"local+{local_redundancy},global={global_pieces})"
        )

    @property
    def pieces_per_group(self) -> int:
        return self.group_size + self.local_redundancy

    def group_of(self, index: int) -> int | None:
        """Owning group of a block index, or None for global pieces."""
        node = self.node_of(index)
        return None if node.depth == 0 else node.start // self.group_size
