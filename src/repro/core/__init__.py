"""The paper's primary contribution: Random Linear Regenerating Codes.

- :mod:`repro.core.params` -- the RC(k, h, d, i) parameter space
  (eqs. E2-E4): piece sizing p(d, i), repair sizing r(d, i), fragment
  counts n_file and n_piece.
- :mod:`repro.core.blocks` -- the coded-data model (fragments carrying
  coefficient vectors, pieces, encoded files).
- :mod:`repro.core.regenerating` -- the code itself: insertion,
  participant/newcomer repair, and coefficient-first reconstruction.
- :mod:`repro.core.costs` -- the analytic cost model (eqs. E5-E8 and the
  coefficient overhead of section 4.1).
- :mod:`repro.core.bandwidth` -- the bottleneck-network-bandwidth model
  of section 5.2.
"""

from repro.core.bandwidth import (
    BandwidthReport,
    Operation,
    bottleneck_bandwidth,
    operation_data_sizes,
)
from repro.core.blocks import EncodedFile, Fragment, Piece
from repro.core.chunking import ChunkedCodec, ChunkedFile, minimum_object_size
from repro.core.costs import CostModel, coefficient_overhead
from repro.core.params import RCParams
from repro.core.regenerating import (
    DecodingError,
    RandomLinearRegeneratingCode,
    ReconstructionPlan,
    participant_contribution,
)
from repro.core.serialization import (
    SerializationError,
    fragment_from_bytes,
    fragment_to_bytes,
    piece_from_bytes,
    piece_to_bytes,
)

__all__ = [
    "BandwidthReport",
    "ChunkedCodec",
    "ChunkedFile",
    "CostModel",
    "minimum_object_size",
    "DecodingError",
    "EncodedFile",
    "Fragment",
    "Operation",
    "Piece",
    "RCParams",
    "RandomLinearRegeneratingCode",
    "ReconstructionPlan",
    "SerializationError",
    "bottleneck_bandwidth",
    "coefficient_overhead",
    "fragment_from_bytes",
    "fragment_to_bytes",
    "operation_data_sizes",
    "participant_contribution",
    "piece_from_bytes",
    "piece_to_bytes",
]
