"""Computation-overhead grids r_cpu = t_{d,i} / t_{32,0} (figure 4).

The paper's figure 4 plots, for every operation and every (d, i), how
much slower RC(32,32,d,i) is than the traditional erasure code
RC(32,32,32,0).  Two normalization details it specifies:

- participant repair costs *zero* for the erasure code, so figure 4(b)
  normalizes by "the smallest value larger than zero which occurs for
  d = 33 and i = 0" (footnote 9);
- newcomer repair falls to zero at i = k - 1 (the verbatim case).

``analytic_overhead_grid`` evaluates the cost model over the full grid
(instant); ``measured_overhead_grid`` runs real timings over a chosen
subgrid (minutes at full scale).  Tests assert they agree in shape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.analysis.timing import OperationTimings, time_operations
from repro.core.bandwidth import Operation
from repro.core.costs import CostModel
from repro.core.params import RCParams
from repro.gf.field import GaloisField

__all__ = ["analytic_overhead_grid", "measured_overhead_grid", "OverheadGrid"]


class OverheadGrid:
    """r_cpu values for one operation over (d, i) axes."""

    def __init__(
        self,
        operation: Operation,
        d_values: Sequence[int],
        i_values: Sequence[int],
        values: np.ndarray,
    ):
        if values.shape != (len(d_values), len(i_values)):
            raise ValueError(
                f"grid shape {values.shape} does not match axes "
                f"({len(d_values)}, {len(i_values)})"
            )
        self.operation = operation
        self.d_values = list(d_values)
        self.i_values = list(i_values)
        self.values = values

    def at(self, d: int, i: int) -> float:
        return float(self.values[self.d_values.index(d), self.i_values.index(i)])

    def max_overhead(self) -> float:
        return float(np.nanmax(self.values))

    def series_for_i(self, i: int) -> list[tuple[int, float]]:
        """One figure curve: (d, overhead) pairs at fixed i."""
        column = self.i_values.index(i)
        return [
            (d, float(self.values[row, column])) for row, d in enumerate(self.d_values)
        ]


def _analytic_seconds(params: RCParams, file_size: int, q: int) -> dict[Operation, float]:
    """Operation counts as pseudo-times (1 op = 1 'second'); ratios are
    what matter, so the unit cancels in the overhead.

    Coefficient handling follows section 4.2's maintenance note: *repair*
    operations also combine the coefficient rows (the fragment is
    "virtually increased by the size of the coefficients"), which is what
    pushes the measured figure 4(b)/(c) peaks to ~8x/~16x.  Encoding
    draws its coefficients randomly (no combination cost) and decoding
    multiplies fragments only, so those use the plain counts.
    """
    plain = CostModel(params, file_size, q=q, include_coefficients=False)
    with_coefficients = CostModel(params, file_size, q=q, include_coefficients=True)
    lower, _ = plain.inversion_ops_bounds()
    return {
        Operation.ENCODING: float(plain.encoding_ops()),
        Operation.PARTICIPANT_REPAIR: float(with_coefficients.participant_repair_ops()),
        Operation.NEWCOMER_REPAIR: float(with_coefficients.newcomer_repair_ops()),
        Operation.INVERSION: float(lower),
        Operation.DECODING: float(plain.decoding_ops()),
    }


def _grids_from_times(
    k: int,
    h: int,
    d_values: Sequence[int],
    i_values: Sequence[int],
    times: dict[tuple[int, int], dict[Operation, float]],
) -> dict[Operation, OverheadGrid]:
    """Normalize raw per-config times into r_cpu grids per the paper."""
    baseline = times[(k, 0)]
    references = dict(baseline)
    if references[Operation.PARTICIPANT_REPAIR] == 0.0:
        # Footnote 9: normalize by the smallest non-zero configuration,
        # d = k + 1, i = 0 -- measure it if the subgrid skipped it.
        key = (k + 1, 0)
        if key in times:
            references[Operation.PARTICIPANT_REPAIR] = times[key][
                Operation.PARTICIPANT_REPAIR
            ]
    grids = {}
    for operation in Operation:
        values = np.full((len(d_values), len(i_values)), np.nan)
        reference = references[operation]
        for row, d in enumerate(d_values):
            for column, i in enumerate(i_values):
                measured = times.get((d, i))
                if measured is None:
                    continue
                if reference == 0.0:
                    values[row, column] = np.nan
                else:
                    values[row, column] = measured[operation] / reference
        grids[operation] = OverheadGrid(operation, d_values, i_values, values)
    return grids


def analytic_overhead_grid(
    k: int = 32,
    h: int = 32,
    file_size: int = 1 << 20,
    q: int = 16,
    d_values: Sequence[int] | None = None,
    i_values: Sequence[int] | None = None,
) -> dict[Operation, OverheadGrid]:
    """Figure-4 grids from the cost model (full grid by default)."""
    d_values = list(d_values) if d_values is not None else list(range(k, k + h))
    i_values = list(i_values) if i_values is not None else list(range(k))
    times = {}
    needed = set((d, i) for d in d_values for i in i_values)
    needed.add((k, 0))
    needed.add((k + 1, 0))  # the participant-repair normalizer
    for d, i in needed:
        times[(d, i)] = _analytic_seconds(RCParams(k=k, h=h, d=d, i=i), file_size, q)
    return _grids_from_times(k, h, d_values, i_values, times)


def measured_overhead_grid(
    k: int = 32,
    h: int = 32,
    file_size: int | None = None,
    d_values: Sequence[int] | None = None,
    i_values: Sequence[int] | None = None,
    field: GaloisField | None = None,
    rng: np.random.Generator | None = None,
    repeats: int = 1,
    baseline_repeats: int | None = None,
    progress: bool = False,
) -> dict[Operation, OverheadGrid]:
    """Figure-4 grids from real timings over a (sub)grid of (d, i).

    Defaults to the paper's published curve indices (i in {0, 7, 15, 22,
    31} scaled to k, and every fourth d) to keep runtime in minutes.

    ``baseline_repeats`` (default: ``repeats``) applies to the two
    normalizer configurations (k, 0) and (k+1, 0) only.  Their times
    divide *every* grid cell, and they are the cheapest — hence
    noisiest — configurations to clock, so spending extra best-of
    rounds there buys the most grid stability per second.
    """
    if d_values is None:
        d_values = sorted(set(list(range(k, k + h, 4)) + [k + h - 1]))
    if i_values is None:
        fractions = (0.0, 7 / 31, 15 / 31, 22 / 31, 1.0)
        i_values = sorted(set(round(fraction * (k - 1)) for fraction in fractions))
    needed = set((d, i) for d in d_values for i in i_values)
    needed.add((k, 0))
    needed.add((k + 1, 0))
    if baseline_repeats is None:
        baseline_repeats = repeats
    rounds = {
        key: baseline_repeats if key in {(k, 0), (k + 1, 0)} else repeats
        for key in needed
    }
    # Round-robin over the configurations, one life cycle each per round,
    # so a slow phase of the host spreads over the grid instead of
    # inflating one cell -- or the normalizers every cell divides by.
    times: dict[tuple[int, int], dict[Operation, float]] = {}
    for round_ in range(max(rounds.values())):
        for d, i in sorted(needed):
            if round_ >= rounds[(d, i)]:
                continue
            params = RCParams(k=k, h=h, d=d, i=i)
            timing = time_operations(
                params, file_size=file_size, field=field, rng=rng, repeats=1
            )
            best = times.setdefault((d, i), timing.as_dict())
            for operation, seconds in timing.as_dict().items():
                best[operation] = min(best[operation], seconds)
            if progress:
                print(f"  timed {params} (round {round_ + 1}): encode {timing.encoding:.3f}s")
    return _grids_from_times(k, h, list(d_values), list(i_values), times)
