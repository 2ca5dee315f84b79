"""Redundancy schemes compared by the paper, behind a single interface.

The paper situates Regenerating Codes among the known redundancy schemes
for P2P storage (sections 1-2):

- **replication** -- the trivial scheme (k = 1);
- **traditional erasure codes** -- random-linear (section 3.1), the
  paper's own RC(k, h, k, 0) baseline; repairs read k pieces;
- **hierarchical codes** -- Duminuco & Biersack [8]: cheaper repairs at
  the cost of losing the "any k pieces" property;
- **regenerating codes** -- the paper's subject, adapted here to the
  common interface for head-to-head simulation, plus the exact-repair
  product-matrix MBR/MSR constructions in the lineage of Wu et al. [9].

All schemes implement :class:`repro.codes.base.RedundancyScheme`, the
three-phase life cycle of section 2.1 (insertion / maintenance /
reconstruction) with per-phase traffic accounting, so the P2P simulator
can drive any of them interchangeably.
"""

from repro.codes.base import (
    Block,
    EncodedObject,
    RepairError,
    RepairOutcome,
    ReconstructError,
    RedundancyScheme,
)
from repro.codes.erasure import RandomLinearErasureScheme
from repro.codes.hierarchical import HierarchicalCodeScheme, TreeHierarchicalCodeScheme
from repro.codes.integrity import (
    BlockCorruptionError,
    ChecksummedScheme,
    block_digest,
    corrupt_block,
)
from repro.codes.product_matrix import ProductMatrixMBR, ProductMatrixMSR
from repro.codes.regenerating_scheme import RegeneratingCodeScheme
from repro.codes.replication import ReplicationScheme

__all__ = [
    "Block",
    "BlockCorruptionError",
    "ChecksummedScheme",
    "EncodedObject",
    "block_digest",
    "corrupt_block",
    "HierarchicalCodeScheme",
    "ProductMatrixMBR",
    "ProductMatrixMSR",
    "RandomLinearErasureScheme",
    "ReconstructError",
    "RedundancyScheme",
    "RegeneratingCodeScheme",
    "RepairError",
    "RepairOutcome",
    "ReplicationScheme",
    "TreeHierarchicalCodeScheme",
]
