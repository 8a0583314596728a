"""The overlap table of product-form families, built from 1-D factors.

The beam families give their modes and derivative modes as sums of
per-axis outer products (``ProductSum``).  On a grid with per-axis weights
their table is formed from 1-D Gram matrices; ``weighted_gram`` over the
expanded rows stays the reference it must match.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_qcrb import (
    BeamGeometry,
    EvaluationError,
    GridResolutionError,
    Mode,
    OverlapTable,
    ParameterFamily,
    SampleGrid,
    StructuralError,
    displaced_beam_family,
    finite_difference_family,
    gaussian_beam_family,
    transverse_grid,
    weighted_gram,
)
from modal_qcrb.modes import ProductSum, _factored_gram, _hermitian, _one_term_norm2, grid_gram
from modal_qcrb.tolerances import TAU_QUAD
from conftest import export_detection_modes, inner_product


def build(name, w0, k, **grid_options):
    if name == "displaced-beam":
        return displaced_beam_family(w0, **grid_options)
    return gaussian_beam_family(
        BeamGeometry(w0, k), carrier_phase=name == "gaussian-beam-carrier", **grid_options
    )


BEAMS = ["gaussian-beam", "gaussian-beam-carrier", "displaced-beam"]


def expanded_rows(family):
    rows = list(family.evaluate())
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
    def test_non_uniform_axis_weights_match_pairwise_products(self, name):
        axis = np.linspace(-4.0, 4.0, 80)
        (trapezoid,) = SampleGrid.uniform(axis).axis_weights
        # a different small perturbation per axis, far below the resolution check
        grid = SampleGrid(
            (axis, axis),
            axis_weights=(
                trapezoid * (1.0 + 1e-7 * np.cos(axis)),
                trapezoid * (1.0 + 1e-7 * np.sin(axis)),
            ),
        )
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
            OverlapTable.from_modes([populated], [[derivative]], ["a"])

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


def stacked_gram(rows, axis_weights):
    """The general factored route: every term stacked, summed per row."""
    terms = [term for row in rows for term in row.terms]
    starts = np.cumsum([0] + [len(row.terms) for row in rows[:-1]])
    g = 1.0
    for axis, w in enumerate(axis_weights):
        f = np.array([term[axis] for term in terms])
        g = g * ((f.conj() * w) @ f.T)
    return _hermitian(np.add.reduceat(np.add.reduceat(g, starts, axis=0), starts, axis=1))


def random_rows(seed, shape, terms_per_row):
    rng = np.random.default_rng(seed)

    def factor(n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    return [
        ProductSum(tuple(tuple(factor(n) for n in shape) for _ in range(t)))
        for t in terms_per_row
    ]


class TestOneTermRows:
    # 1-D, square and non-square grids
    SHAPES = [(37,), (24, 24), (17, 40)]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(SHAPES),
        terms_per_row=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    def test_bitwise_equal_to_the_stacked_route(self, seed, shape, terms_per_row):
        # a lone one-term row, rows of one term each and mixed rows skip
        # the per-row sums where they add nothing, not a bit of the result
        grid = SampleGrid.uniform(*[np.linspace(-2.0, 1.5, n) for n in shape])
        for counts in (terms_per_row, [1], [1] * len(terms_per_row)):
            rows = random_rows(seed, shape, counts)
            expected = stacked_gram(rows, grid.axis_weights)
            got = grid_gram(grid, rows)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestOneTermNorm:
    """The norm of one-term modes (normalization, resolution) against the general routes."""

    AXIS = np.linspace(-2.0, 1.5, 24)
    GRIDS = {
        "1-D": SampleGrid.uniform(np.linspace(-2.0, 1.5, 37)),
        "2-D": SampleGrid.uniform(np.linspace(-2.0, 1.5, 17), np.linspace(-1.0, 3.0, 40)),
        "shared-axis": SampleGrid.uniform(AXIS, AXIS),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(sorted(GRIDS)),
        real=st.booleans(),
    )
    def test_matches_the_factored_and_expanded_grams(self, seed, name, real):
        # a BLAS whose dot and gemm round differently fails here
        grid = self.GRIDS[name]
        (row,) = random_rows(seed, grid.shape, [1])
        if real:
            row = ProductSum(tuple(tuple(f.real for f in term) for term in row.terms))
        got = _one_term_norm2(row, grid.axis_weights)
        factored = _factored_gram([row], grid.axis_weights)[0, 0].real
        assert type(got) is float
        assert np.float64(got).tobytes() == factored.tobytes()
        expanded = weighted_gram([row.expand()], grid.weights)[0, 0].real
        assert abs(got - expanded) <= 1e-13 * expanded


class TestProductSumArithmetic:
    def operands(self):
        rng = np.random.default_rng(8)
        a = ProductSum.outer(rng.normal(size=5) + 1j * rng.normal(size=5), rng.normal(size=6))
        return a, ProductSum.outer(rng.normal(size=5), rng.normal(size=7))

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_mismatched_shapes_rejected(self, op):
        a, b = self.operands()
        one_axis = ProductSum.outer(np.ones(5))
        for other in (b, one_axis):
            for left, right in ((a, other), (other, a)):
                with pytest.raises(StructuralError, match="do not combine"):
                    getattr(left, f"__{op}__")(right)

    @pytest.mark.parametrize(
        "scale",
        [
            lambda a, s: a * s,
            lambda a, s: s * a,
            lambda a, s: a / s,
        ],
        ids=["mul", "rmul", "div"],
    )
    @pytest.mark.parametrize(
        "scalar", [np.ones(5), np.ones((5, 6)), np.ones(1)], ids=["5", "5x6", "1"]
    )
    def test_array_scalars_rejected(self, scale, scalar):
        a, _ = self.operands()
        with pytest.raises(StructuralError, match="scalar only"):
            scale(a, scalar)

    @pytest.mark.parametrize("scalar", [2, 0.5, 1j, np.float64(3.0), np.array(2.0)])
    def test_zero_dimensional_scalars_scale_the_first_factor(self, scalar):
        a, _ = self.operands()
        for scaled, expected in (
            (a * scalar, scalar * a.expand()),
            (scalar * a, scalar * a.expand()),
            (a / scalar, a.expand() / scalar),
        ):
            assert scaled.terms[0][1] is a.terms[0][1]
            assert np.allclose(scaled.expand(), expected, rtol=1e-15, atol=0)

    def test_along_rejects_a_profile_of_another_shape(self):
        a, _ = self.operands()
        with pytest.raises(StructuralError):
            a.along(0, np.ones((5, 5)))
        with pytest.raises(StructuralError, match="axis 1 of length 6"):
            a.along(1, np.ones(5))

    def test_sums_and_differences_keep_valid_terms(self):
        a, _ = self.operands()
        for combined in (a + a, a - 2.0 * a, (a + a) - a, a - (a + a)):
            assert combined.shape == a.shape
            assert all(f.ndim == 1 for term in combined.terms for f in term)
            rebuilt = ProductSum(combined.terms)  # the checked constructor agrees
            assert rebuilt.shape == combined.shape


def test_degenerate_detection_mode_leaves_its_derivative_unexpanded(tmp_path, monkeypatch):
    # a product-sum family whose first derivative is zero: its detection
    # mode is zeros of the grid's shape, not a copy of the N^2 samples
    grid = transverse_grid(1.0, points=32)
    x, y = grid.axes
    spot = ProductSum.outer(np.exp(-(x**2)), np.exp(-(y**2)))
    spot = spot / np.sqrt(_one_term_norm2(spot, grid.axis_weights))
    derivatives = (0.0 * spot, spot.along(0, 2.0 * x))
    family = ParameterFamily(
        name="product-sum",
        parameters=("idle", "x0"),
        units=("1", "1"),
        grid=grid,
        theta_scales=np.ones(2),
        mode_fn=lambda k, theta: spot,
        derivative_fn=lambda k, a: derivatives[a],
    )
    expanded = []
    expand = ProductSum.expand
    monkeypatch.setattr(ProductSum, "expand", lambda self: expanded.append(self) or expand(self))
    sidecar = export_detection_modes(family, tmp_path)
    assert sidecar["degenerate"] == [True, False]
    idle, live = (row[0].data for row in family.derivative_modes)
    assert not any(ps is idle for ps in expanded)
    assert any(ps is live for ps in expanded)
