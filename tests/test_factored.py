"""The overlap table of product-form families, built from 1-D factors.

The beam families give their modes and derivative modes as sums of
per-axis outer products (``ProductSum``).  On a grid with per-axis weights
their table is formed from 1-D Gram matrices; ``weighted_gram`` over the
expanded rows stays the reference it must match.
"""

import tracemalloc

import numpy as np
import pytest

from modal_qcrb import (
    BeamGeometry,
    EvaluationError,
    GridResolutionError,
    Mode,
    OverlapTable,
    SampleGrid,
    StructuralError,
    displaced_beam_family,
    finite_difference_family,
    gaussian_beam_family,
    inner_product,
    weighted_gram,
)
from modal_qcrb.modes import ProductSum
from modal_qcrb.tolerances import TAU_QUAD


def build(name, w0, k, **grid_options):
    if name == "displaced-beam":
        return displaced_beam_family(w0, **grid_options)
    return gaussian_beam_family(
        BeamGeometry(w0, k), carrier_phase=name == "gaussian-beam-carrier", **grid_options
    )


BEAMS = ["gaussian-beam", "gaussian-beam-carrier", "displaced-beam"]


def expanded_rows(family):
    rows = list(family.evaluate().modes)
    for a in range(family.n_parameters):
        rows += [Mode(family.grid, family.derivative_fn(k, a)) for k in range(family.n_modes)]
    return [m.samples for m in rows]


class TestFactoredTable:
    # (points along x, points along y); one grid is not square
    GRIDS = [(64, 64), (200, 200), (512, 512), (96, 150)]

    @pytest.mark.parametrize("points", GRIDS, ids=lambda p: f"{p[0]}x{p[1]}")
    @pytest.mark.parametrize("derivatives, tolerance", [("analytic", 1e-13), ("fd", 1e-11)])
    @pytest.mark.parametrize("name", BEAMS)
    def test_matches_weighted_gram_at_random_geometry(self, name, derivatives, tolerance, points):
        rng = np.random.default_rng(sum(points) + 7 * BEAMS.index(name))
        w0, k = rng.uniform(0.5, 2.0), rng.uniform(5.0, 40.0)
        grid = SampleGrid.uniform(
            np.linspace(-4.0 * w0, 4.0 * w0, points[0]),
            np.linspace(-4.5 * w0, 3.5 * w0, points[1]),
        )
        family = build(name, w0, k, grid=grid)
        if derivatives == "fd":
            family = finite_difference_family(family)
        table = family.overlap_table.matrix
        reference = weighted_gram(expanded_rows(family), grid.weights)
        assert np.max(np.abs(table - reference)) <= tolerance * np.max(np.abs(reference))
        assert np.array_equal(table, table.conj().T)

    def test_finite_difference_rows_stay_four_products(self):
        family = finite_difference_family(build("gaussian-beam-carrier", 1.0, 10.0, points=64))
        for a in range(family.n_parameters):
            assert len(family.derivative_fn(0, a).terms) <= 4

    @pytest.mark.parametrize("name", BEAMS)
    def test_non_separable_weights_fall_back_to_weighted_gram(self, name):
        axis = np.linspace(-4.0, 4.0, 80)
        uniform = SampleGrid.uniform(axis, axis)
        xg, yg = uniform.mesh()
        # a small non-separable perturbation, far below the resolution check
        grid = SampleGrid(uniform.axes, uniform.weights * (1.0 + 1e-7 * np.cos(xg * yg)))
        assert grid.axis_weights is None
        family = build(name, 1.0, 10.0, grid=grid)
        table = family.overlap_table.matrix
        rows = [Mode(grid, r) for r in expanded_rows(family)]
        reference = np.array([[inner_product(a, b) for b in rows] for a in rows])
        assert np.max(np.abs(table - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.array_equal(table, table.conj().T)

    def test_table_allocates_less_than_one_sample_array(self):
        family = build("gaussian-beam", 1.0, 10.0, points=2048)
        tracemalloc.start()
        try:
            family.overlap_table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 2048 * np.dtype(complex).itemsize


class TestResolutionVerdicts:
    @pytest.mark.parametrize("name", BEAMS)
    def test_same_verdicts_as_the_2d_norm_sum(self, name):
        verdicts = []
        for points in range(8, 41):
            grid = SampleGrid.uniform(*[np.linspace(-4.0, 4.0, points)] * 2)
            xg, yg = grid.mesh()
            raw = np.sqrt(2.0 / np.pi) * np.exp(-(xg**2 + yg**2))
            passes = abs(np.sum(grid.weights * raw**2) - 1.0) <= 10.0 * TAU_QUAD
            try:
                build(name, 1.0, 10.0, points=points)
                accepted = True
            except GridResolutionError:
                accepted = False
            assert accepted == passes, points
            verdicts.append(passes)
        assert not verdicts[0] and verdicts[-1]  # the range crosses the threshold


class TestFactoredChecks:
    AXIS = np.linspace(-1.0, 1.0, 9)

    def test_vanishing_norm_is_an_evaluation_error(self):
        family = displaced_beam_family(1.0, points=64)
        with pytest.raises(EvaluationError, match="vanishes"):
            family.evaluate_mode(0, np.array([100.0, 0.0]))

    def test_non_finite_factor_or_coefficient_rejected(self):
        grid = SampleGrid.uniform(self.AXIS, self.AXIS)
        ones = np.ones(9)
        bad = ones.copy()
        bad[3] = np.inf
        with pytest.raises(EvaluationError):
            Mode(grid, ProductSum.outer(ones, bad))
        with pytest.raises(EvaluationError):
            Mode(grid, float("nan") * ProductSum.outer(ones, ones))

    def test_overflowing_product_rejected_when_samples_expand(self):
        grid = SampleGrid.uniform(self.AXIS, self.AXIS)
        huge = np.full(9, 1e200)
        mode = Mode(grid, ProductSum.outer(huge, huge))  # finite factors
        with pytest.raises(EvaluationError):
            mode.samples

    def test_overflowing_table_rejected(self):
        grid = SampleGrid.uniform(self.AXIS, self.AXIS)
        spot = ProductSum.outer(np.exp(-self.AXIS**2), np.exp(-self.AXIS**2))
        populated = Mode(grid, spot)
        derivative = Mode(grid, 1e200 * spot)
        with pytest.raises(EvaluationError, match="overflow"):
            OverlapTable.from_modes([populated], [[derivative]])

    @pytest.mark.parametrize(
        "scale_x, scale_y",
        [(1e200, 1e200), (1e-200, 1e-200), (-1.0, 1.0), (-1.0, -1.0), (np.nan, 1.0)],
        ids=["overflow", "underflow", "negative", "both-negative", "nan"],
    )
    def test_per_axis_weight_products_must_be_finite_and_positive(self, scale_x, scale_y):
        weights = np.full(9, 0.25)
        with pytest.raises(StructuralError):
            SampleGrid((self.AXIS, self.AXIS), axis_weights=(scale_x * weights, scale_y * weights))

    def test_subtraction_pairs_terms_and_keeps_the_rest(self):
        rng = np.random.default_rng(4)

        def term():
            x_factor = rng.normal(size=5) + 1j * rng.normal(size=5)
            return ProductSum.outer(x_factor, rng.normal(size=6))

        a, b, c = term(), term(), term()
        difference = (a + b) - c
        assert len(difference.terms) == 3
        expected = a.expand() + b.expand() - c.expand()
        assert np.allclose(difference.expand(), expected, rtol=0, atol=1e-14)
        assert np.allclose((c - (a + b)).expand(), -expected, rtol=0, atol=1e-14)
