"""The overlap table of product-form families, built from 1-D factors.

The built-in families give their modes and derivative modes as sums of
per-axis outer products (``ProductSum``).  On a grid with per-axis weights
their table is formed from 1-D Gram matrices; ``weighted_gram`` over the
expanded rows stays the reference it must match.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

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
    PulseSpectrum,
    SampleGrid,
    StructuralError,
    build_family,
    derivative_mode,
    displaced_beam_family,
    finite_difference_family,
    gaussian_beam_family,
    gaussian_pulse_family,
    transverse_grid,
    weighted_gram,
)
from modal_qcrb import families
from modal_qcrb.modes import ProductSum, _hermitian, _one_term_norm2, grid_gram
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

    @staticmethod
    def mixed_terms(seed):
        # four terms: real x and complex y factors, then the other way round
        rng = np.random.default_rng(seed)

        def complex_factor():
            return rng.normal(size=9) + 1j * rng.normal(size=9)

        return [
            (complex_factor(), rng.normal(size=9))
            if t % 2
            else (rng.normal(size=9), complex_factor())
            for t in range(4)
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("term", range(4))
    def test_non_finite_entry_in_any_factor_of_a_mixed_sum_rejected(self, term, axis, bad):
        grid = SampleGrid.uniform(self.AXIS, self.AXIS)
        terms = self.mixed_terms(3)
        assert Mode(grid, ProductSum(terms)).data.finite()
        terms[term][axis][4] = bad
        with pytest.raises(EvaluationError, match="non-finite"):
            Mode(grid, ProductSum(terms))

    def test_finiteness_of_every_factor_is_one_check(self, monkeypatch):
        shapes = []
        isfinite = np.isfinite

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        row = ProductSum(self.mixed_terms(5))
        monkeypatch.setattr(np, "isfinite", counting)
        assert row.finite()
        assert shapes == [(8 * 9,)]

    def test_non_finite_shifted_factor_names_the_parameter(self):
        # the real y factor holds a NaN only where theta_b > 0, so the
        # four-term mixed real/complex row of b is non-finite, not that of a
        grid = SampleGrid.uniform(self.AXIS, self.AXIS)

        def mode_fn(k, theta):
            y_factor = np.exp(-((self.AXIS - theta[1]) ** 2))
            if theta[1] > 0:
                y_factor[2] = np.nan
            x_factor = np.exp(-((self.AXIS - theta[0]) ** 2) + 0.1j * self.AXIS)
            return ProductSum.outer(x_factor, y_factor)

        family = finite_difference_family(
            ParameterFamily(
                name="mixed",
                parameters=("a", "b"),
                units=("1", "1"),
                grid=grid,
                theta_scales=np.ones(2),
                mode_fn=mode_fn,
            )
        )
        row = derivative_mode(family, 0, 0).data
        assert len(row.terms) == 4 and row.finite()
        message = "parameter 'b': mode samples contain non-finite values"
        with pytest.raises(EvaluationError, match=message):
            derivative_mode(family, 0, 1)

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
        # an unpaired term is kept as it is, or negated in its first factor
        assert all(f is g for f, g in zip(difference.terms[-1], b.terms[0]))
        x, y = (c - (a + b)).terms[-1]
        assert x.tobytes() == (-1.0 * b.terms[0][0]).tobytes() and y is b.terms[0][1]


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
        factored = grid_gram(grid, [row])[0, 0].real
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
        "scalar",
        [np.ones(5), np.ones((5, 6)), np.ones(1), np.ones((5, 1))],
        ids=["5", "5x6", "1", "5x1"],
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

    def test_equal_term_counts_subtract_without_scaling(self, monkeypatch):
        # every term is telescoped against its partner: nothing is negated
        scaled = []
        mul = ProductSum.__mul__

        def counting(self, scalar):
            scaled.append(scalar)
            return mul(self, scalar)

        monkeypatch.setattr(ProductSum, "__mul__", counting)
        monkeypatch.setattr(ProductSum, "__rmul__", counting)
        a, _ = self.operands()
        b = ProductSum.outer(np.ones(5), np.arange(6.0))
        for left, right in ((a, b), (b, a), (a + b, b + a)):
            left - right
        assert scaled == []

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


class TestReferenceStencil:
    """The finite-difference rows of the beams, against the stencil written out.

    A shifted beam is one outer product a (x) b; its difference telescopes,
    a+ (x) b+ - a- (x) b- = (a+ - a-) (x) b+ + a- (x) (b+ - b-), each central
    difference divides its x factors by 2h, and the Richardson step
    (4 fine - coarse) / 3 telescopes fine against coarse term by term.
    """

    CASES = [("gaussian-beam-carrier", 256), ("displaced-beam", 64)]

    @staticmethod
    def written_out(family, a):
        h = abs(float(family.theta_scales[a])) * 1e-4

        def shifted(step):
            theta = np.zeros(family.n_parameters)
            theta[a] = step
            (term,) = family.mode_fn(0, theta).terms
            return term

        def central(step):
            (px, py), (mx, my) = shifted(step), shifted(-step)
            return [((px - mx) / (2.0 * step), py), (mx / (2.0 * step), py - my)]

        terms = []
        for (fx, fy), (cx, cy) in zip(central(h / 2.0), central(h)):
            terms += [((4.0 * fx - cx) / 3.0, fy), (cx / 3.0, fy - cy)]
        return terms

    @pytest.mark.parametrize("name, points", CASES)
    def test_rows_bitwise_equal_to_the_written_out_stencil(self, name, points):
        # the rule one row at a time, and the rows read off the table's stacks
        family = build(name, 1.0, 10.0, points=points)
        fd = finite_difference_family(family)
        assert fd._stacked is not None
        for a in range(family.n_parameters):
            expected = self.written_out(family, a)
            for row in (fd.derivative_fn(0, a).terms, fd.derivative_modes[a][0].data.terms):
                assert len(row) == len(expected) == 4
                for got, want in zip(row, expected):
                    for f, g in zip(got, want):
                        assert f.dtype == g.dtype and f.tobytes() == g.tobytes(), (a, name)

    @pytest.mark.parametrize("name, points", CASES)
    def test_one_pass_norm_is_the_one_term_norm(self, name, points):
        # the x factor over the square root of the product of the per-axis
        # dots, as the general one-term norm and the scalar division form
        # it: every row of one stacked evaluation, against the raw factors
        # of its row formed by the declaration's rules and normalized here
        family = build(name, 1.0, 10.0, points=points)
        separable = family.mode_fn.__self__
        n = family.n_parameters
        rng = np.random.default_rng(11)
        thetas = np.array([np.zeros(n), 1e-3 * rng.normal(size=n), *(1e-5 * np.eye(n))])
        (x, y), error = separable.unit_factors(thetas)
        assert error is None
        for row, theta in enumerate(thetas):
            constant, arguments = separable.scalars(theta.tolist())
            raw_x, raw_y = (
                separable.factor(points, [args])[0]
                for points, args in zip(family.grid.axes, arguments)
            )
            raw = ProductSum.outer(raw_x if constant is None else constant * raw_x, raw_y)
            expected = raw / np.sqrt(_one_term_norm2(raw, family.grid.axis_weights))
            ((ex, ey),) = expected.terms
            for got, want in ((x[row], ex), (y[row], ey)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def former_beam_samples(geometry, carrier, grid, spacing, theta):
    """The beam evaluation that forms both factors and both dots on every call."""
    x0, y0, z0, dw, tilt_x, tilt_y = theta.tolist()
    waist = geometry.waist + dw
    if waist <= 0:
        raise EvaluationError("waist perturbation makes the beam collapse")
    k = geometry.wavenumber
    if abs(k * tilt_x) * spacing[0] > math.pi or abs(k * tilt_y) * spacing[1] > math.pi:
        raise EvaluationError("tilt_x or tilt_y turns the phase by more than pi per sample")
    try:
        zr = k * waist**2 / 2.0
        zeta = -z0
        w = waist * math.sqrt(1.0 + (zeta / zr) ** 2)
        inv_radius = zeta / (zeta**2 + zr**2)
        exponent = -1.0 / w**2 + 0.5j * k * inv_radius
    except (OverflowError, ZeroDivisionError):
        raise EvaluationError("beam width, curvature or phase leaves double-precision range") from None
    x, y = grid.axes
    factor_x = np.exp(exponent * (x - x0) ** 2 + 1j * k * tilt_x * x)
    factor_y = np.exp(exponent * (y - y0) ** 2 + 1j * k * tilt_y * y)
    phase = (k * zeta if carrier else 0.0) - np.arctan2(zeta, zr)
    constant = math.sqrt(2.0 / math.pi) / w * np.exp(1j * phase)
    return former_unit_outer(grid, constant * factor_x, factor_y)


def former_spot_samples(grid, waist, theta):
    """The displaced spot that forms both factors and both dots on every call."""
    x, y = grid.axes
    factor_x = np.exp(-((x - theta[0]) ** 2) / waist**2)
    factor_y = np.exp(-((y - theta[1]) ** 2) / waist**2)
    return former_unit_outer(grid, factor_x, factor_y)


def former_unit_outer(grid, factor_x, factor_y):
    wx, wy = grid.axis_weights
    norm2 = 1.0 * ((factor_x.conj() * wx) @ factor_x) * ((factor_y.conj() * wy) @ factor_y)
    norm = np.sqrt(float(norm2.real))
    if norm == 0.0:
        raise EvaluationError("mode profile vanishes on the grid")
    return ProductSum._unchecked(((factor_x / norm, factor_y),))


def former_beam_derivative(geometry, carrier, grid, base, parameter):
    """A closed-form beam derivative as product-sum operations on the unit spot."""
    w0, k, zr = geometry.waist, geometry.wavenumber, geometry.rayleigh_range
    x, y = grid.axes
    if parameter == 0:
        return base.along(0, 2.0 * x / w0**2)
    if parameter == 1:
        return base.along(1, 2.0 * y / w0**2)
    if parameter == 2:
        axial = (1j / zr) * (1.0 - x**2 / w0**2)
        if carrier:
            axial = axial - 1j * k
        return base.along(0, axial) + base.along(1, (-1j / zr) * y**2 / w0**2)
    if parameter == 3:
        return base.along(0, (2.0 * x**2 / w0**2 - 1.0) / w0) + base.along(1, 2.0 * y**2 / w0**3)
    if parameter == 4:
        return base.along(0, 1j * k * x)
    return base.along(1, 1j * k * y)


def former_family(family, name, w0, k):
    """``family`` with the evaluation that reuses no factor, and product-sum derivatives.

    Its rules are not a separable declaration's, so its table is formed
    row by row, from ``Mode`` rows: the oracle of the stacked table.
    """
    grid = family.grid
    x, y = grid.axes
    spot = ProductSum.outer(np.exp(-(x**2) / w0**2), np.exp(-(y**2) / w0**2))
    base = spot / np.sqrt(_one_term_norm2(spot, grid.axis_weights))
    if name == "displaced-beam":
        return replace(
            family,
            mode_fn=lambda _, theta: former_spot_samples(grid, w0, theta),
            derivative_fn=lambda _, a: base.along(a, 2.0 * grid.axes[a] / w0**2),
        )
    geometry = BeamGeometry(w0, k)
    carrier = name == "gaussian-beam-carrier"
    spacing = tuple(float((axis[1:] - axis[:-1]).max()) for axis in grid.axes)
    return replace(
        family,
        mode_fn=lambda _, theta: former_beam_samples(geometry, carrier, grid, spacing, theta),
        derivative_fn=lambda _, a: former_beam_derivative(geometry, carrier, grid, base, a),
    )


def former_pulse(family, w0, variance):
    """``family`` with the pulse's former array rules, and its table row by row.

    One envelope normalized once per build times the spectral phase of each
    row; the derivatives are closed forms on that envelope, and the table
    is reduced from the arrays by ``weighted_gram``.
    """
    grid = family.grid
    detuning = grid.axes[0] - w0
    gaussian = np.exp(-(detuning**2) / (4.0 * variance))
    envelope = gaussian / np.sqrt(float(np.sum(grid.weights * np.abs(gaussian) ** 2).real))

    def mode_fn(mode_index, theta):
        t_phase, t_group, t_gvd = theta
        phase = w0 * t_phase + detuning * t_group + detuning**2 / w0 * t_gvd
        return envelope * np.exp(1j * phase)

    def derivative(mode_index, parameter):
        if parameter == 0:
            return 1j * w0 * envelope
        if parameter == 1:
            return 1j * detuning * envelope
        return 1j * detuning**2 / w0 * envelope

    return replace(family, mode_fn=mode_fn, derivative_fn=derivative)


def count_exponential_rows(monkeypatch, family):
    """Rows of the 1-D factors each later ``np.exp`` call forms on the family's grid, per call."""
    sizes = set(family.grid.shape)
    formed = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        result = exp(x, *args, **kwargs)
        if np.ndim(result) in (1, 2) and np.shape(result)[-1] in sizes:
            formed.append(len(np.atleast_2d(result)))
        return result

    monkeypatch.setattr(np, "exp", counting)
    return formed


class TestAxisFactorReuse:
    """One stacked evaluation forms each distinct axis factor once.

    A shift shares every axis factor it leaves at theta = 0, and on a
    square grid equal parameters share one factor across the axes.  The
    factors and errors are those of the evaluation that forms both factors
    afresh for each parameter row, bit for bit.
    """

    W0, K = 1.3, 17.0
    # the default square grid, and a custom grid with unequal axes
    GRIDS = {
        "64x64": {"points": 64},
        "72x56": {
            "grid": SampleGrid.uniform(
                np.linspace(-4.0 * W0, 4.0 * W0, 72), np.linspace(-4.5 * W0, 3.5 * W0, 56)
            )
        },
    }

    def thetas(self, family):
        n = family.n_parameters
        rng = np.random.default_rng(5)
        # a shift comes first, so the theta = 0 pieces are formed inside a shifted call
        thetas = []
        for a, scale in enumerate(family.theta_scales):
            h = abs(float(scale)) * 1e-4
            for step in (h, -h, h / 2.0, -h / 2.0, -0.0):
                theta = np.zeros(n)
                theta[a] = step
                thetas.append(theta)
        thetas += [np.zeros(n), np.full(n, -0.0), 1e-3 * rng.normal(size=n) * family.theta_scales]
        if n == 6:
            # equal shifts on both axes, equal -0.0 entries at a shifted waist,
            # then axes that differ in one entry only, at a shifted z0 or w0
            thetas.append(np.array([0.01, 0.01, 0.0, 0.0, 1e-3, 1e-3]))
            thetas.append(np.array([-0.0, -0.0, 0.0, 0.01, -0.0, -0.0]))
            thetas.append(np.array([0.0, -0.0, 0.02, 0.0, 0.0, 0.0]))
            thetas.append(np.array([0.0, 0.0, 0.02, 0.0, 1e-3, 0.0]))
            thetas.append(np.array([0.01, 0.0, 0.0, 0.01, 0.0, 0.0]))
            thetas.append(np.array([0.0, 0.0, 0.0, 0.01, -0.0, 0.0]))
        else:
            thetas += [np.array([0.01, 0.01]), np.array([-0.0, -0.0]), np.array([0.0, -0.0])]
        return thetas

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("name", BEAMS)
    def test_factors_bitwise_equal_to_the_former_evaluation(self, name, grid):
        # each row alone, and every row in one stacked evaluation
        family = build(name, self.W0, self.K, **self.GRIDS[grid])
        former = former_family(family, name, self.W0, self.K)
        thetas = self.thetas(family)
        stacked, error = family.mode_fn.__self__.unit_factors(np.array(thetas))
        assert error is None
        for row, theta in enumerate(thetas):
            ((x, y),) = family.mode_fn(0, theta.copy()).terms
            ((ex, ey),) = former.mode_fn(0, theta.copy()).terms
            for got, want in ((x, ex), (y, ey), (stacked[0][row], ex), (stacked[1][row], ey)):
                assert got.dtype == want.dtype, theta
                assert got.tobytes() == want.tobytes(), theta

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("name", BEAMS)
    def test_same_errors_as_the_former_evaluation(self, name, grid):
        family = build(name, self.W0, self.K, **self.GRIDS[grid])
        former = former_family(family, name, self.W0, self.K)
        n = family.n_parameters
        # a vanishing profile along x or y, then a non-finite one
        shifts = [(0, 100.0), (1, -100.0), (0, np.nan), (1, np.inf)]
        if n == 6:
            # a collapsed waist, a z0 out of range and an aliased tilt
            shifts += [(3, -2.0 * self.W0), (2, 1e300), (4, 1e6)]
        for a, value in shifts:
            theta = np.zeros(n)
            theta[a] = value
            with pytest.raises(EvaluationError) as want:
                former.evaluate_mode(0, theta)
            with pytest.raises(EvaluationError) as got:
                family.evaluate_mode(0, theta)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(f"mode 0 at parameters {theta.tolist()}: ")

    @pytest.mark.parametrize("name", BEAMS)
    def test_a_one_axis_shift_forms_only_its_own_axis_factor(self, monkeypatch, name):
        # theta = 0 forms one factor for both axes of the square grid, and a
        # shift of x0 (or of tilt_x for the beams) its x factor only
        family = build(name, self.W0, self.K, points=64)
        n = family.n_parameters
        thetas = np.zeros((3, n))
        thetas[1, 0] = thetas[2, n - 2] = 1e-3
        formed = count_exponential_rows(monkeypatch, family)
        (x, y), error = family.mode_fn.__self__.unit_factors(thetas)
        assert error is None
        assert formed == [3 if n == 6 else 2]
        assert y[1].tobytes() == y[0].tobytes() == y[2].tobytes()
        assert x[1].tobytes() != x[0].tobytes() != x[2].tobytes()

    @pytest.mark.parametrize(
        "name, grid, fd_rows, analytic_rows",
        # one np.exp call per distinct axis: on a square grid theta = 0 and
        # the z0 and w0 shifts form one factor for both axes, and an x0 shift
        # the same factor as the equal y0 shift (tilt_x as tilt_y); on
        # unequal axes each axis forms theta = 0 and its own four shifts of
        # each parameter it reads
        [
            ("gaussian-beam", "64x64", [17], [1]),
            ("gaussian-beam-carrier", "64x64", [17], [1]),
            ("gaussian-beam-carrier", "72x56", [17, 17], [1, 1]),
            ("displaced-beam", "64x64", [5], [1]),
            ("displaced-beam", "72x56", [5, 5], [1, 1]),
        ],
    )
    def test_finite_difference_table_forms_each_distinct_factor_once(
        self, monkeypatch, name, grid, fd_rows, analytic_rows
    ):
        family = build(name, self.W0, self.K, **self.GRIDS[grid])
        fd = finite_difference_family(family)
        formed = count_exponential_rows(monkeypatch, family)
        fd.overlap_table
        assert formed == fd_rows
        formed.clear()
        family.overlap_table
        assert formed == analytic_rows


class TestStackedTable:
    """The table of a separable family, formed from one factor stack per axis.

    The oracle is the route row by row: ``OverlapTable.from_modes`` over
    the ``Mode`` rows of the former evaluation (one row per ``mode_fn``
    call, derivatives as product-sum operations).
    """

    W0, K = TestAxisFactorReuse.W0, TestAxisFactorReuse.K
    GRIDS = {**TestAxisFactorReuse.GRIDS, "256x256": {"points": 256}}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("derivatives", ["analytic", "fd"])
    @pytest.mark.parametrize("name", BEAMS)
    def test_bitwise_equal_to_the_table_of_the_former_rows(self, name, derivatives, grid):
        family = build(name, self.W0, self.K, **self.GRIDS[grid])
        former = former_family(family, name, self.W0, self.K)
        if derivatives == "fd":
            family, former = finite_difference_family(family), finite_difference_family(former)
        assert family._stacked is not None and former._stacked is None
        expected = OverlapTable.from_modes(
            former.evaluate(), former.derivative_modes, former.parameters
        ).matrix
        got = family.overlap_table.matrix
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    # (parameter scales to set, global step, the parameter a failure names)
    FAILURES = {
        "collapsed-waist": ({}, 2.0 * W0, "w0"),
        "aliased-tilt": ({4: 1e5}, None, "tilt_x"),
        "z0-out-of-range": ({2: 1e304}, None, "z0"),
        "huge-step": ({}, 1e300, "x0"),
    }

    @pytest.mark.parametrize(
        "name, case",
        [*itertools.product(BEAMS[:2], sorted(FAILURES)), ("displaced-beam", "huge-step")],
    )
    def test_finite_difference_failures_as_the_former_evaluation(self, name, case):
        scales, step, label = self.FAILURES[case]
        family = build(name, self.W0, self.K, points=64)
        theta_scales = family.theta_scales.copy()
        theta_scales[list(scales)] = list(scales.values())
        family = replace(family, theta_scales=theta_scales)
        former = former_family(family, name, self.W0, self.K)
        with pytest.raises(EvaluationError) as want:
            finite_difference_family(former, step).overlap_table
        with pytest.raises(EvaluationError) as got:
            finite_difference_family(family, step).overlap_table
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"derivative of mode 0 with respect to parameter '{label}': ")

    @pytest.mark.parametrize(
        "name, case",
        [*itertools.product(BEAMS[:2], sorted(FAILURES)), ("displaced-beam", "huge-step")],
    )
    def test_a_failing_table_forms_no_row_alone(self, monkeypatch, name, case):
        # the stacked pass names the failing row itself: no mode_fn call,
        # finite difference or derivative mode follows it row by row
        scales, step, _ = self.FAILURES[case]
        family = build(name, self.W0, self.K, points=64)
        theta_scales = family.theta_scales.copy()
        theta_scales[list(scales)] = list(scales.values())
        former = former_family(replace(family, theta_scales=theta_scales), name, self.W0, self.K)
        with pytest.raises(EvaluationError) as want:
            finite_difference_family(former, step).overlap_table
        calls = []

        def counting(attribute, rule):
            def counted(*args):
                calls.append(attribute)
                return rule(*args)

            return counted

        # set before the family is built, which binds mode and the difference
        for owner, attribute in [
            (families._Separable, "mode"),
            (families, "_finite_difference"),
            (families, "derivative_mode"),
        ]:
            monkeypatch.setattr(owner, attribute, counting(attribute, getattr(owner, attribute)))
        family = replace(build(name, self.W0, self.K, points=64), theta_scales=theta_scales)
        with pytest.raises(EvaluationError) as got:
            finite_difference_family(family, step).overlap_table
        assert str(got.value) == str(want.value)
        assert calls == []

    @pytest.mark.parametrize("name", [*BEAMS, "gaussian-pulse"])
    def test_swapped_rules_take_the_route_row_by_row(self, name):
        geometry = {"w0": self.W0, "k": self.K, "omega0": 100.0, "variance": 25.0}
        family = build_family(name, geometry, points=256 if name == "gaussian-pulse" else 64)
        fd = finite_difference_family(family)
        mode_fn, derivative_fn = family.mode_fn, family.derivative_fn
        swapped_mode = replace(family, mode_fn=lambda k, theta: mode_fn(k, theta))
        cases = [
            (swapped_mode, family),
            (replace(family, derivative_fn=lambda k, a: derivative_fn(k, a)), family),
            (finite_difference_family(swapped_mode), fd),
            (replace(fd, derivative_fn=lambda k, a: fd.derivative_fn(k, a)), fd),
        ]
        for swapped, stacked in cases:
            assert swapped._stacked is None and stacked._stacked is not None
            # the same rules underneath: the same table, bit for bit
            got, want = swapped.overlap_table.matrix, stacked.overlap_table.matrix
            assert got.tobytes() == want.tobytes()


class TestFailureOrder:
    """A stacked table names its failing row as the route row by row does.

    A two-parameter declaration on one axis fails where it is told to: its
    check raises at some rows, its factor is NaN or zero at others.  The
    rules form the rows in the order theta = 0, then h, -h, h/2, -h/2 of
    each parameter, and the first failure in that order, a non-finite row
    included, is the error of both routes.
    """

    ROWS = {
        "zero": (0.0, 0.0),
        "a+h": (1.0, 0.0),
        "a-h": (-1.0, 0.0),
        "a-h/2": (-0.5, 0.0),
        "b+h": (0.0, 1.0),
        "b-h": (0.0, -1.0),
        "b+h/2": (0.0, 0.5),
        "b-h/2": (0.0, -0.5),
    }

    @classmethod
    def family(cls, raises=(), nans=(), zeros=(), nan_profile=False):
        raises, nans, zeros = ({cls.ROWS[r] for r in rows} for rows in (raises, nans, zeros))
        grid = SampleGrid.uniform(np.linspace(-4.0, 4.0, 33))
        (x,) = grid.axes

        def scalars(theta):
            if tuple(theta) in raises:
                raise EvaluationError("check failed")
            return None, (tuple(theta),)

        def factor(points, rows):
            stack = np.exp(-((points - np.array(rows).sum(axis=1)[:, None]) ** 2))
            for r, row in enumerate(rows):
                stack[r] = np.nan if row in nans else 0.0 if row in zeros else stack[r]
            return stack

        profile_b = np.full_like(x, np.nan) if nan_profile else 2.0 * x
        separable = families._Separable(
            grid,
            ((0, 1),),
            scalars,
            factor,
            (((0, 2.0 * x),), ((0, profile_b),)),
            ProductSum.outer(np.exp(-(x**2))),
        )
        return ParameterFamily(
            name="failing",
            parameters=("a", "b"),
            units=("1", "1"),
            grid=grid,
            theta_scales=np.ones(2),
            mode_fn=separable.mode,
            derivative_fn=separable.derivative,
        )

    CASES = {
        "check-at-zero": ({"raises": ["zero"]}, "mode 0 at parameters [0.0, 0.0]"),
        "nan-at-zero": ({"nans": ["zero"]}, "mode 0 at parameters [0.0, 0.0]"),
        "zero-at-zero": ({"zeros": ["zero"]}, "mode 0 at parameters [0.0, 0.0]"),
        "nan-at-zero-before-a-vanishing-shift": (
            {"nans": ["zero"], "zeros": ["a+h"]},
            "mode 0 at parameters [0.0, 0.0]",
        ),
        "check-after-a-nan-shift": ({"nans": ["a+h"], "raises": ["a-h"]}, "parameter 'a'"),
        "nan-before-a-later-check": ({"nans": ["a-h/2"], "raises": ["b+h"]}, "parameter 'a'"),
        "vanishing-before-a-check": ({"zeros": ["b+h/2"], "raises": ["b-h/2"]}, "parameter 'b'"),
        "check-before-a-vanishing": ({"raises": ["b+h/2"], "zeros": ["b-h/2"]}, "parameter 'b'"),
        "nan-in-both": ({"nans": ["a+h", "b+h"]}, "parameter 'a'"),
        "nan-in-b": ({"nans": ["b-h"]}, "parameter 'b'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_finite_differences(self, case):
        failures, named = self.CASES[case]
        fd = finite_difference_family(self.family(**failures), 1.0)
        row_by_row = replace(fd, derivative_fn=lambda k, a: fd.derivative_fn(k, a))
        with pytest.raises(EvaluationError) as want:
            row_by_row.overlap_table
        with pytest.raises(EvaluationError) as got:
            fd._stacked  # only the stacked route raises here
        assert str(got.value) == str(want.value)
        assert named in str(got.value)

    @pytest.mark.parametrize(
        "failures",
        [{"raises": ["zero"]}, {"nans": ["zero"]}, {"zeros": ["zero"]}, {"nan_profile": True}],
        ids=["check", "nan", "zero", "nan-profile"],
    )
    def test_closed_forms(self, failures):
        family = self.family(**failures)
        row_by_row = replace(family, derivative_fn=lambda k, a: family.derivative_fn(k, a))
        with pytest.raises(EvaluationError) as want:
            row_by_row.overlap_table
        with pytest.raises(EvaluationError) as got:
            family._stacked
        assert str(got.value) == str(want.value)


class TestStackedPulse:
    """The pulse as a one-axis declaration on its normalized envelope.

    t_phase forms the constant and (t_group, t_gvd) the spectral phase of
    the factor; each row is normalized on its own, where the former array
    route scaled one envelope normalized once per build.  The table moves
    in its last bits, by at most 1e-15 of its largest entry.
    """

    SPECTRA = [(100.0, 25.0, 256), (100.0, 25.0, 2048), (30.0, 4.0, 512), (7.0, 0.5, 1024)]

    @pytest.mark.parametrize("derivatives", ["analytic", "fd"])
    @pytest.mark.parametrize("w0, variance, points", SPECTRA)
    def test_within_1e_15_of_the_former_array_route(self, w0, variance, points, derivatives):
        family = gaussian_pulse_family(PulseSpectrum(w0, variance), points=points)
        former = former_pulse(family, w0, variance)
        if derivatives == "fd":
            family, former = finite_difference_family(family), finite_difference_family(former)
        assert family._stacked is not None and former._stacked is None
        got, want = family.overlap_table.matrix, former.overlap_table.matrix
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_one_pass_forms_each_distinct_factor_once(self, monkeypatch):
        # the t_phase shifts scale the factor of theta = 0: 9 factors for 13 rows
        family = gaussian_pulse_family(PulseSpectrum(100.0, 25.0), points=256)
        fd = finite_difference_family(family)
        formed = count_exponential_rows(monkeypatch, family)
        fd.overlap_table
        assert formed == [9]


@pytest.mark.parametrize("derivatives", ["analytic", "fd"])
@pytest.mark.parametrize("name", [*BEAMS, "gaussian-pulse"])
def test_derivative_modes_are_the_rules_rows_read_off_the_stacks(name, derivatives):
    geometry = {"w0": 1.0, "k": 10.0, "omega0": 100.0, "variance": 25.0}
    family = build_family(name, geometry, points=256 if name == "gaussian-pulse" else 64)
    if derivatives == "fd":
        family = finite_difference_family(family)
    assert family._stacked is not None
    for a in range(family.n_parameters):
        want = family.derivative_fn(0, a).terms
        got = family.derivative_modes[a][0].data.terms
        assert len(got) == len(want)
        for term, expected in zip(got, want):
            # a real closed-form factor joins its axis's complex stack exactly
            for f, g in zip(term, expected):
                assert f.tobytes() == g.astype(f.dtype).tobytes()
