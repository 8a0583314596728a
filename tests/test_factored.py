"""The overlap table of product-form families, built from 1-D factors.

The beam families give their modes and derivative modes as sums of
per-axis outer products (``ProductSum``).  On a grid with per-axis weights
their table is formed from 1-D Gram matrices; ``weighted_gram`` over the
expanded rows stays the reference it must match.
"""

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
    SampleGrid,
    StructuralError,
    derivative_mode,
    displaced_beam_family,
    finite_difference_family,
    gaussian_beam_family,
    transverse_grid,
    weighted_gram,
)
from modal_qcrb import families
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
        family = build(name, 1.0, 10.0, points=points)
        fd = finite_difference_family(family)
        for a in range(family.n_parameters):
            row = fd.derivative_fn(0, a).terms
            expected = self.written_out(family, a)
            assert len(row) == len(expected) == 4
            for got, want in zip(row, expected):
                for f, g in zip(got, want):
                    assert f.dtype == g.dtype and f.tobytes() == g.tobytes(), (a, name)

    @pytest.mark.parametrize("name, points", CASES)
    def test_one_pass_norm_is_the_one_term_norm(self, monkeypatch, name, points):
        # the x factor over the square root of the product of the per-axis
        # dots, as the general one-term norm and the scalar division form
        # it; a dot may be kept from theta = 0, so each evaluation's
        # factors are recorded and their norm formed afresh here
        family = build(name, 1.0, 10.0, points=points)
        seen = []
        unit_outer = families._unit_outer

        def recording(factor_x, dot_x, factor_y, dot_y):
            unit = unit_outer(factor_x, dot_x, factor_y, dot_y)
            seen.append((ProductSum.outer(factor_x, factor_y), unit))
            return unit

        monkeypatch.setattr(families, "_unit_outer", recording)
        rng = np.random.default_rng(11)
        thetas = [np.zeros(family.n_parameters), 1e-3 * rng.normal(size=family.n_parameters)]
        thetas += list(1e-5 * np.eye(family.n_parameters))
        for theta in thetas:
            family.mode_fn(0, theta)
        assert len(seen) == len(thetas)
        for raw, unit in seen:
            expected = raw / np.sqrt(_one_term_norm2(raw, family.grid.axis_weights))
            ((x, y),) = unit.terms
            ((ex, ey),) = expected.terms
            assert x.dtype == ex.dtype and x.tobytes() == ex.tobytes()
            assert y is ey


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


def former_family(family, name, w0, k):
    """``family`` with the evaluation that reuses no factor."""
    grid = family.grid
    if name == "displaced-beam":
        return replace(family, mode_fn=lambda _, theta: former_spot_samples(grid, w0, theta))
    geometry = BeamGeometry(w0, k)
    carrier = name == "gaussian-beam-carrier"
    spacing = tuple(float((axis[1:] - axis[:-1]).max()) for axis in grid.axes)
    return replace(
        family,
        mode_fn=lambda _, theta: former_beam_samples(geometry, carrier, grid, spacing, theta),
    )


class TestAxisFactorReuse:
    """A shifted beam keeps every axis factor its shift leaves at theta = 0.

    The factors, dots and errors are those of the evaluation that forms
    both factors afresh on every call, bit for bit.
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
        family = build(name, self.W0, self.K, **self.GRIDS[grid])
        former = former_family(family, name, self.W0, self.K)
        for theta in self.thetas(family):
            ((x, y),) = family.mode_fn(0, theta.copy()).terms
            ((ex, ey),) = former.mode_fn(0, theta.copy()).terms
            for got, want in ((x, ex), (y, ey)):
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
    def test_a_one_axis_shift_returns_the_other_axis_factor_itself(self, name):
        family = build(name, self.W0, self.K, points=64)
        ((x_ref, y_ref),) = family.mode_fn(0, np.zeros(family.n_parameters)).terms
        assert not y_ref.flags.writeable
        # x0, and tilt_x for the beams
        for a in (0, 4) if family.n_parameters == 6 else (0,):
            theta = np.zeros(family.n_parameters)
            theta[a] = 1e-3
            ((x, y),) = family.mode_fn(0, theta).terms
            assert y is y_ref and x is not x_ref

    @pytest.mark.parametrize(
        "name, grid, expected",
        # square grids: the theta = 0 pair and each of the 24 shifts form one
        # factor; on unequal axes theta = 0 and the z0 and w0 shifts form two
        [
            ("gaussian-beam", "64x64", 25),
            ("gaussian-beam-carrier", "64x64", 25),
            ("gaussian-beam-carrier", "72x56", 34),
            ("displaced-beam", "64x64", 9),
            ("displaced-beam", "72x56", 10),
        ],
    )
    def test_finite_difference_table_forms_each_distinct_factor_once(
        self, monkeypatch, name, grid, expected
    ):
        family = build(name, self.W0, self.K, **self.GRIDS[grid])
        fd = finite_difference_family(family)
        sizes = set(family.grid.shape)
        formed = []
        exp = np.exp

        def counting(x, *args, **kwargs):
            result = exp(x, *args, **kwargs)
            if np.ndim(result) == 1 and len(result) in sizes:
                formed.append(result)
            return result

        monkeypatch.setattr(np, "exp", counting)
        fd.overlap_table
        assert len(formed) == expected
        formed.clear()
        # the analytic twin shares the theta = 0 pieces already formed
        family.overlap_table
        assert formed == []
