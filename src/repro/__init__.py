"""repro: Random Linear Regenerating Codes for peer-to-peer backup systems.

A production-quality reproduction of Duminuco & Biersack, "A Practical
Study of Regenerating Codes for Peer-to-Peer Backup Systems" (ICDCS
2009).  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record.

Public API highlights
---------------------
- :class:`repro.core.RCParams` -- the RC(k, h, d, i) parameter space.
- :class:`repro.core.RandomLinearRegeneratingCode` -- insertion, repair
  and reconstruction.
- :class:`repro.core.CostModel` / :func:`repro.core.bottleneck_bandwidth`
  -- the analytic cost and bandwidth models.
- :mod:`repro.codes` -- replication, erasure, hierarchical and
  product-matrix baselines behind one interface.
- :mod:`repro.p2p` -- a discrete-event P2P backup-system simulator.
- :mod:`repro.analysis` -- timing harness and per-figure data generators.
"""

from repro.core import (
    CostModel,
    DecodingError,
    EncodedFile,
    Fragment,
    Operation,
    Piece,
    RCParams,
    RandomLinearRegeneratingCode,
    ReconstructionPlan,
    bottleneck_bandwidth,
    coefficient_overhead,
)
from repro.gf import GF, GaloisField

__version__ = "1.0.0"

__all__ = [
    "GF",
    "GaloisField",
    "CostModel",
    "DecodingError",
    "EncodedFile",
    "Fragment",
    "Operation",
    "Piece",
    "RCParams",
    "RandomLinearRegeneratingCode",
    "ReconstructionPlan",
    "bottleneck_bandwidth",
    "coefficient_overhead",
    "__version__",
]
