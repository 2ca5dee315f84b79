"""Tests for the figure-4 computation-overhead grids."""

import numpy as np
import pytest

from repro.analysis.overhead import OverheadGrid, analytic_overhead_grid, measured_overhead_grid
from repro.core.bandwidth import Operation


@pytest.fixture(scope="module")
def analytic():
    return analytic_overhead_grid(k=32, h=32)


class TestOverheadGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OverheadGrid(Operation.ENCODING, [1, 2], [1], np.zeros((1, 1)))

    def test_at_and_series(self, analytic):
        grid = analytic[Operation.ENCODING]
        assert grid.at(32, 0) == pytest.approx(1.0)
        series = grid.series_for_i(0)
        assert series[0] == (32, pytest.approx(1.0))
        assert len(series) == 32


class TestAnalyticShapes:
    """The published figure-4 shapes (DESIGN.md acceptance criteria)."""

    def test_fig4a_encoding_reference_point(self, analytic):
        assert analytic[Operation.ENCODING].at(32, 0) == pytest.approx(1.0)

    def test_fig4a_encoding_linear_growth(self, analytic):
        """Overhead equals n_piece = d - k + i + 1: linear in d and i."""
        grid = analytic[Operation.ENCODING]
        for d, i in [(40, 0), (32, 15), (63, 31)]:
            assert grid.at(d, i) == pytest.approx(d - 32 + i + 1)

    def test_fig4a_maximum_matches_paper(self, analytic):
        """Paper fig 4(a) peaks around 60-70."""
        assert 60 <= analytic[Operation.ENCODING].max_overhead() <= 70

    def test_fig4b_participant_normalized_by_first_nonzero(self, analytic):
        """Footnote 9: the reference is (d = 33, i = 0)."""
        grid = analytic[Operation.PARTICIPANT_REPAIR]
        assert grid.at(33, 0) == pytest.approx(1.0)
        assert grid.at(32, 0) == 0.0

    def test_fig4b_grows_with_piece_size(self, analytic):
        grid = analytic[Operation.PARTICIPANT_REPAIR]
        assert grid.at(63, 31) > grid.at(40, 1) > 0

    def test_fig4b_maximum_is_moderate(self, analytic):
        """Paper fig 4(b) peaks under ~8."""
        assert analytic[Operation.PARTICIPANT_REPAIR].max_overhead() <= 10

    def test_fig4c_newcomer_zero_at_mbr(self, analytic):
        """Fig 4(c): 'for i = k - 1 the overhead falls to zero'."""
        grid = analytic[Operation.NEWCOMER_REPAIR]
        for d in (32, 40, 63):
            assert grid.at(d, 31) == 0.0

    def test_fig4c_roughly_quadratic_in_d(self, analytic):
        grid = analytic[Operation.NEWCOMER_REPAIR]
        # At i = 0, cost ~ d * n_piece * piece ~ superlinear in d.
        ratio_40 = grid.at(40, 0) / grid.at(36, 0)
        ratio_63 = grid.at(63, 0) / grid.at(40, 0)
        assert ratio_40 > 1.0
        assert ratio_63 > ratio_40 * 0.9

    def test_fig4c_maximum_matches_paper(self, analytic):
        """Paper fig 4(c) peaks around 16-20 (just before the MBR cliff)."""
        assert 12 <= analytic[Operation.NEWCOMER_REPAIR].max_overhead() <= 24

    def test_fig4d_inversion_order_of_magnitude(self, analytic):
        """Paper fig 4(d) peaks at ~70000; the n^3 model gives the same
        order of magnitude."""
        maximum = analytic[Operation.INVERSION].max_overhead()
        assert 2e4 <= maximum <= 2e5

    def test_fig4d_grows_as_nfile_cubed(self, analytic):
        grid = analytic[Operation.INVERSION]
        assert grid.at(63, 30) / grid.at(40, 1) == pytest.approx(
            (1519 / 319) ** 3, rel=1e-6
        )

    def test_fig4e_decoding_resembles_encoding(self, analytic):
        """Fig 4(e) 'closely resembles' fig 4(a)."""
        encoding = analytic[Operation.ENCODING]
        decoding = analytic[Operation.DECODING]
        for d, i in [(36, 3), (48, 15), (63, 31)]:
            ratio = decoding.at(d, i) / encoding.at(d, i)
            assert 0.5 <= ratio <= 1.5


class TestMeasuredGrid:
    @pytest.fixture(scope="class")
    def measured(self):
        """A tiny measured grid: k = h = 8 keeps this under seconds.

        The (8, 0) inversion every ratio is divided by takes well under a
        millisecond, so it is the best of five runs: one slow single run
        of the normalizer would shrink every ratio at once.
        """
        return measured_overhead_grid(
            k=8,
            h=8,
            file_size=16 << 10,
            d_values=[8, 11, 15],
            i_values=[0, 3, 7],
            rng=np.random.default_rng(1),
            baseline_repeats=5,
        )

    def test_reference_point_is_one(self, measured):
        assert measured[Operation.ENCODING].at(8, 0) == pytest.approx(1.0)

    def test_measured_encoding_tracks_analytic(self, measured):
        """Measured overhead within a factor ~3 of the n_piece law --
        wall-clock noise and numpy dispatch overhead allowed."""
        grid = measured[Operation.ENCODING]
        for d, i in [(11, 3), (15, 7)]:
            predicted = d - 8 + i + 1
            assert grid.at(d, i) == pytest.approx(predicted, rel=0.8)

    def test_measured_newcomer_zero_at_mbr(self, measured):
        assert measured[Operation.NEWCOMER_REPAIR].at(15, 7) == 0.0
        assert measured[Operation.NEWCOMER_REPAIR].at(8, 7) == 0.0

    def test_measured_inversion_explodes(self, measured):
        grid = measured[Operation.INVERSION]
        assert grid.at(15, 7) > 10 * grid.at(8, 0)
