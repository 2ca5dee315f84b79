"""Wall-clock timing of the five life-cycle operations (section 5.1).

Reproduces the paper's measurement methodology: "we execute all the
operations performed in the life cycle of a stored file ... and measure
the time needed to perform these operations".  The five measured
operations and their paper names:

========================  =====================================
Operation                 Paper table row
========================  =====================================
encoding                  Encoding
participant_repair        Participant Repair
newcomer_repair           Newcomer Repair
inversion                 Matrix Inversion
decoding                  Decoding
========================  =====================================

The paper's testbed was an optimized C implementation on a 2.66 GHz
Core 2 Duo; this reproduction is numpy-vectorized Python, so absolute
times differ while the *ratios* (figure 4) and the derived bandwidths
(Table 1) keep their shape.  ``calibrate_ops_per_second`` measures this
machine's field-operation throughput so analytic predictions can be
compared against measurements.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any

import numpy as np

from repro.core.bandwidth import Operation
from repro.core.costs import CostModel
from repro.core.params import RCParams
from repro.core.regenerating import (
    RandomLinearRegeneratingCode,
    participant_contribution,
)
from repro.gf.field import GF, GaloisField

__all__ = [
    "OperationTimings",
    "time_operations",
    "calibrate_ops_per_second",
    "default_file_size",
]

#: The paper's experiment file size (1 MByte, section 5).
PAPER_FILE_SIZE = 1 << 20

#: Scaled-down default so the full benchmark suite stays CI-friendly.
DEFAULT_FILE_SIZE = 256 << 10

#: Life-cycle rounds :func:`time_operations` keeps the best of.  One round
#: is a single-shot wall time, which one preempting time slice can double.
DEFAULT_REPEATS = 3


def default_file_size() -> int:
    """Benchmark file size; override with REPRO_FILE_SIZE=1048576 to match
    the paper exactly (costs scale linearly except matrix inversion)."""
    value = os.environ.get("REPRO_FILE_SIZE")
    return int(value) if value else DEFAULT_FILE_SIZE


@dataclasses.dataclass(frozen=True)
class OperationTimings:
    """Measured seconds per operation for one RC(k, h, d, i) and file size."""

    params: RCParams
    file_size: int
    encoding: float
    participant_repair: float
    newcomer_repair: float
    inversion: float
    decoding: float

    def as_dict(self) -> dict[Operation, float]:
        return {
            Operation.ENCODING: self.encoding,
            Operation.PARTICIPANT_REPAIR: self.participant_repair,
            Operation.NEWCOMER_REPAIR: self.newcomer_repair,
            Operation.INVERSION: self.inversion,
            Operation.DECODING: self.decoding,
        }

    @property
    def reconstruction(self) -> float:
        return self.inversion + self.decoding


def _timed(callable_) -> tuple[float, Any]:
    """Wall time of one call, and what it returned."""
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def _clock(callable_, repeats: int) -> float:
    """Best-of-``repeats`` wall time, the usual noise-resistant estimator."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def time_operations(
    params: RCParams,
    file_size: int | None = None,
    field: GaloisField | None = None,
    rng: np.random.Generator | None = None,
    repeats: int = DEFAULT_REPEATS,
) -> OperationTimings:
    """Measure t_{d,i} for all five operations on real coded data.

    Each of the ``repeats`` rounds runs the whole life cycle once --
    encode, participant and newcomer repair, inversion, decode -- and
    every operation keeps its best round.  Interleaving the rounds lets a
    slow phase of the host (another tenant's time slice, a frequency
    step) land on all five operations alike, where back-to-back repeats
    of one operation would skew the ratios between them.

    The participant-repair time is reported as 0 for the traditional
    erasure code, matching the paper's t_{32,0} table ("in traditional
    erasure codes repairs do not require any computation at the
    participant side").
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    file_size = file_size if file_size is not None else default_file_size()
    field = field if field is not None else GF(16)
    rng = rng if rng is not None else np.random.default_rng(20090622)
    code = RandomLinearRegeneratingCode(params, field=field, rng=rng)
    data = rng.integers(0, 256, size=file_size, dtype=np.uint8).tobytes()

    best = dict.fromkeys(Operation, float("inf"))

    def keep(operation: Operation, seconds: float) -> None:
        best[operation] = min(best[operation], seconds)

    for _ in range(repeats):
        seconds, encoded = _timed(lambda: code.insert(data))
        keep(Operation.ENCODING, seconds)
        participants = list(encoded.pieces[: params.d])

        if params.is_erasure:
            keep(Operation.PARTICIPANT_REPAIR, 0.0)
            uploads = [piece.fragments()[0] for piece in participants]
        else:
            seconds, uploads = _timed(
                lambda: [
                    participant_contribution(code.field, piece, rng)
                    for piece in participants
                ]
            )
            keep(Operation.PARTICIPANT_REPAIR, seconds / params.d)

        if params.newcomer_stores_verbatim:
            keep(Operation.NEWCOMER_REPAIR, 0.0)
        else:
            seconds, _ = _timed(
                lambda: code.newcomer_repair(
                    uploads, index=params.total_pieces - 1, rng=rng
                )
            )
            keep(Operation.NEWCOMER_REPAIR, seconds)

        decode_pieces = list(encoded.pieces[: params.k])
        seconds, plan = _timed(lambda: code.plan_reconstruction(decode_pieces))
        keep(Operation.INVERSION, seconds)
        seconds, _ = _timed(
            lambda: code.decode_with_plan(plan, decode_pieces, encoded.file_size)
        )
        keep(Operation.DECODING, seconds)

    return OperationTimings(
        params=params,
        file_size=file_size,
        encoding=best[Operation.ENCODING],
        participant_repair=best[Operation.PARTICIPANT_REPAIR],
        newcomer_repair=best[Operation.NEWCOMER_REPAIR],
        inversion=best[Operation.INVERSION],
        decoding=best[Operation.DECODING],
    )


def calibrate_ops_per_second(
    field: GaloisField | None = None,
    vectors: int = 64,
    length: int = 65536,
    repeats: int = 3,
    rng: np.random.Generator | None = None,
) -> float:
    """Field operations per second of this machine's linear-combination kernel.

    Uses the paper's 5-operations-per-element accounting so the result
    plugs directly into :meth:`repro.core.costs.CostModel.predicted_times`
    and :class:`repro.p2p.network.PipelinedComputation`.
    """
    field = field if field is not None else GF(16)
    rng = rng if rng is not None else np.random.default_rng(5)
    coefficients = field.random(vectors, rng)
    matrix = field.random((vectors, length), rng)
    seconds = _clock(lambda: field.linear_combination(coefficients, matrix), repeats)
    operations = 5 * vectors * length
    return operations / seconds


def time_to_table(timings: OperationTimings) -> list[tuple[str, float]]:
    """Rows in the order of the paper's t_{32,0} table."""
    return [
        ("Encoding", timings.encoding),
        ("Participant Repair", timings.participant_repair),
        ("Newcomer Repair", timings.newcomer_repair),
        ("Matrix Inversion", timings.inversion),
        ("Decoding", timings.decoding),
    ]
