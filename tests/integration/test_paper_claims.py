"""Acceptance tests: every quantitative claim the paper makes.

One test per claim, referencing the section it comes from.  These are
the DESIGN.md acceptance criteria in executable form; EXPERIMENTS.md
records the corresponding measured values.
"""

import numpy as np
import pytest

from repro.analysis.figures import fig1a_piece_stretch, fig1b_repair_reduction, fig3_coefficient_overhead
from repro.analysis.overhead import analytic_overhead_grid
from repro.analysis.timing import time_operations
from repro.core.bandwidth import BandwidthReport, Operation
from repro.core.costs import CostModel, coefficient_overhead
from repro.core.params import RCParams

MB = 1 << 20


class TestSection2Claims:
    def test_erasure_repair_reads_k_pieces(self):
        """Section 2.1: 'for every new bit ... k existing bits'."""
        params = RCParams.erasure(32, 32)
        new_bits = params.piece_size(MB)
        transferred = params.repair_download_size(MB)
        assert transferred / new_bits == 32

    def test_rc_generalizes_erasure(self):
        """Section 2.2: RC(k, h, k, 0) *is* the traditional erasure code."""
        erasure = RCParams.erasure(32, 32)
        assert erasure.piece_fraction * 32 == 1
        assert erasure.repair_download_size(MB) == MB

    def test_kh_configurations(self):
        """Section 2.2: 'Regenerating Codes can take k*h different values
        for the pair (d, |piece|)'."""
        assert sum(1 for _ in RCParams.grid(32, 32)) == 32 * 32

    def test_fig1_impressive_reduction(self):
        """Section 2.2: larger d and i give 'an impressive reduction of
        the repair traffic' -- down to ~4% of the erasure baseline."""
        series = fig1b_repair_reduction()
        assert min(value for _, value in series[31]) < 0.042

    def test_fig1_piece_growth_bounded_by_2(self):
        """Figure 1(a)'s axis: the piece never doubles."""
        series = fig1a_piece_stretch()
        assert max(value for curve in series.values() for _, value in curve) < 2.0


class TestSection3Claims:
    def test_nrepair_one_is_consistent(self):
        """Section 3.2: setting n_repair = 1 makes both ratios integers."""
        for params in RCParams.grid(32, 32):
            assert params.n_file * params.repair_fraction == 1
            assert params.n_piece == params.piece_fraction / params.repair_fraction

    def test_reconstruction_downloads_file_size_only(self):
        """Section 3.2: the coefficient-first decoder removes Dimakis'
        download overhead entirely."""
        from repro.core.regenerating import RandomLinearRegeneratingCode

        params = RCParams(8, 8, 12, 3)
        code = RandomLinearRegeneratingCode(params, rng=np.random.default_rng(0))
        data = bytes(np.random.default_rng(1).integers(0, 256, 16 << 10, dtype=np.uint8))
        encoded = code.insert(data)
        pieces = encoded.subset(range(8))
        plan = code.plan_reconstruction(pieces)
        naive_download = sum(p.data_bytes(code.field) for p in pieces)
        planned_download = plan.fragments_to_download * encoded.fragment_length * 2
        assert planned_download == encoded.padded_size
        assert planned_download < naive_download


class TestSection4Claims:
    def test_coefficient_overhead_4bits_per_bit(self):
        """Section 4.1: worst configuration needs > 4 bits of
        coefficients per data bit at 1 MB, 'clearly unacceptable'."""
        worst = coefficient_overhead(RCParams.paper_default(63, 31), MB)
        assert 4.0 < float(worst) < 4.5

    def test_overhead_shrinks_with_file_size(self):
        """Section 4.1: inversely proportional to the file size, so
        'system designers need to choose a minimum size for storage
        objects'."""
        params = RCParams.paper_default(63, 31)
        at_16mb = coefficient_overhead(params, 16 * MB)
        assert float(at_16mb) < 0.3

    def test_multiplication_cost_model(self):
        """Section 4.2: 5 operations per element pair (3 lookups + 1 add
        for the product, 1 XOR for the sum)."""
        model = CostModel(RCParams.erasure(4, 4), 4096)
        assert model.encoding_ops() == 5 * 8 * 4 * 1 * model.fragment_elements

    def test_log_table_memory_footprint(self):
        """Section 4.2: log/exp tables ~256 KB for q = 16."""
        from repro.gf.field import GF

        field = GF(16)
        table_bytes = field._log.nbytes + field._exp2.nbytes
        # The paper's 256 KB assumed 2-byte entries; our uint32 tables
        # are twice that but still O(field size).
        assert table_bytes <= 1 << 20


class TestSection5Claims:
    """Measured claims: run the real implementation, compare shapes."""

    @pytest.fixture(scope="class")
    def t_erasure(self):
        # Single encodes and decodes of this size swing +-40 % on a shared
        # host; the best of nine interleaved rounds (~0.2 s) pins both
        # to their floor, which the ratio claims compare.
        return time_operations(
            RCParams.erasure(32, 32),
            file_size=128 << 10,
            rng=np.random.default_rng(2),
            repeats=9,
        )

    def test_t32_0_ordering(self, t_erasure):
        """The t_{32,0} table's dominant ordering: encoding > decoding >>
        {newcomer repair, inversion}; participant repair = 0.

        (The paper's C implementation had inversion < newcomer repair;
        in numpy the 32x32 inversion pays per-pivot dispatch overhead,
        so only the robust ordering is asserted -- see EXPERIMENTS.md.)
        """
        assert t_erasure.encoding > t_erasure.decoding
        assert t_erasure.decoding > t_erasure.newcomer_repair
        assert t_erasure.decoding > t_erasure.inversion
        assert t_erasure.participant_repair == 0.0

    def test_t32_0_encoding_decoding_ratio(self, t_erasure):
        """Paper: encoding 0.52 s vs decoding 0.25 s -- about 2:1 (the
        encoder writes 2 MB, the decoder 1 MB)."""
        assert t_erasure.encoding / t_erasure.decoding == pytest.approx(2.0, rel=0.5)

    def test_regenerating_slower_than_erasure(self, t_erasure):
        """Section 5.2's conclusion: coding rates are roughly an order
        of magnitude lower for heavy Regenerating configurations."""
        t_heavy = time_operations(
            RCParams.paper_default(40, 8),
            file_size=128 << 10,
            rng=np.random.default_rng(3),
        )
        assert t_heavy.encoding > 3 * t_erasure.encoding

    def test_bnb_ordering_from_measured_times(self, t_erasure):
        """Table 1 structure: for the erasure row, newcomer repair has
        the highest bottleneck bandwidth and inversion the lowest
        (finite) one."""
        report = BandwidthReport.from_times(
            RCParams.erasure(32, 32), 128 << 10, t_erasure.as_dict()
        )
        bandwidth = report.bandwidth_bps
        finite = {
            op: bps for op, bps in bandwidth.items() if bps != float("inf")
        }
        assert max(finite, key=finite.get) == Operation.NEWCOMER_REPAIR
        assert bandwidth[Operation.PARTICIPANT_REPAIR] == float("inf")

    def test_conclusion_tradeoff_rows(self):
        """Table 1's two engineered rows (section 5.2 discussion):

        - (32, 30): storage nearly doubles vs erasure, repair traffic
          within 1.5x of the global optimum;
        - (40, 1): storage within 0.4% of optimal, repair traffic about
          8x below erasure.
        """
        erasure = RCParams.erasure(32, 32)
        plenty_storage = RCParams.paper_default(32, 30)
        assert float(plenty_storage.storage_size(MB)) > 1.8 * float(
            erasure.storage_size(MB)
        )
        optimum = RCParams.paper_default(63, 30).repair_download_size(MB)
        assert plenty_storage.repair_download_size(MB) < 1.5 * optimum

        sweet = RCParams.paper_default(40, 1)
        assert float(sweet.storage_size(MB)) < 1.004 * float(erasure.storage_size(MB))
        assert float(sweet.repair_download_size(MB)) < float(
            erasure.repair_download_size(MB)
        ) / 7.9


class TestFig4MeasuredShapes:
    """Measured figure-4 shapes at reduced scale (k = h = 8)."""

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.analysis.overhead import measured_overhead_grid

        # 128 KB + best-of-9 keeps the matmul volume and timing noise in
        # a range where the (d, i) signal survives the batched kernels'
        # much lower per-byte cost: the (15, 7)/(10, 3) encode floors
        # differ by ~1.45x while single rounds swing +-40 % on a shared
        # host, and nine interleaved rounds still find a clean one per
        # cell with every CPU contended.  The (8, 0)/(9, 0) normalizers
        # divide every cell, so they get as many.
        return measured_overhead_grid(
            k=8,
            h=8,
            file_size=128 << 10,
            d_values=[8, 10, 12, 15],
            i_values=[0, 3, 7],
            rng=np.random.default_rng(5),
            repeats=9,
            baseline_repeats=9,
        )

    def test_encoding_grows_with_d_and_i(self, measured):
        grid = measured[Operation.ENCODING]
        assert grid.at(15, 7) > grid.at(10, 3) > grid.at(8, 0) * 0.8

    def test_newcomer_cliff_at_mbr(self, measured):
        grid = measured[Operation.NEWCOMER_REPAIR]
        assert grid.at(15, 7) == 0.0
        assert grid.at(15, 3) > 0.0

    def test_inversion_dominates_everything(self, measured):
        """Fig 4(d) dwarfs all other overheads at large (d, i).

        The claim is one of operation counts, so it is asserted on the
        cost model (inversion ~1520x its baseline, encoding 15x).  The
        measured inversion and encoding overheads sit within noise of
        each other at this scale -- the microsecond (8, 0) inversion
        that normalizes the former is Python overhead -- so the measured
        half keeps only the comparisons with an order of magnitude to
        spare: against the participant-repair overhead (< 2; the
        newcomer's is 0 here, see the cliff test) and against no growth.
        """
        analytic = analytic_overhead_grid(
            k=8, h=8, file_size=128 << 10, d_values=[15], i_values=[7]
        )
        for operation in Operation:
            if operation is not Operation.INVERSION:
                assert analytic[Operation.INVERSION].at(15, 7) > 10 * analytic[
                    operation
                ].at(15, 7)
        inversion = measured[Operation.INVERSION].at(15, 7)
        assert inversion > 2 * measured[Operation.PARTICIPANT_REPAIR].at(15, 7)
        assert inversion > 2.0

    def test_decoding_resembles_encoding(self, measured):
        """Both overheads grow together (fig 4(e) ~ fig 4(a)); at this
        reduced scale numpy dispatch overhead skews small baselines, so
        assert co-growth within an order of magnitude."""
        decoding = measured[Operation.DECODING].at(15, 7)
        encoding = measured[Operation.ENCODING].at(15, 7)
        assert decoding > 1.0 and encoding > 1.0
        assert 0.1 < decoding / encoding < 10.0
