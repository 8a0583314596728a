import math

import numpy as np
import pytest

from modal_qcrb import (
    EvaluationError,
    GridMismatchError,
    Mode,
    ModeBasis,
    SampleGrid,
    StructuralError,
    derivative_mode,
    detection_mode,
    finite_difference_family,
    inner_product,
    mode_norm,
    transverse_grid,
)
from conftest import K, OMEGA0, W0, gram_schmidt, hermite_gaussian_samples, vacuum_overlap


def gaussian_mode(grid, waist=W0, x_shift=0.0):
    xg, yg = grid.mesh()
    raw = np.exp(-((xg - x_shift) ** 2 + yg**2) / waist**2).astype(complex)
    norm = np.sqrt(np.sum(grid.weights * np.abs(raw) ** 2))
    return Mode(grid, raw / norm)


class TestSampleGrid:
    def test_rejects_nonincreasing_axis(self):
        with pytest.raises(StructuralError):
            SampleGrid.uniform(np.array([0.0, 1.0, 1.0]))

    def test_rejects_nonpositive_weights(self):
        axis = np.linspace(0, 1, 4)
        weights = np.array([0.5, 0.5, -0.1, 0.5])
        with pytest.raises(StructuralError):
            SampleGrid(axes=(axis,), weights=weights)

    def test_2d_weights_are_outer_product(self):
        gx = np.linspace(-1, 1, 5)
        gy = np.linspace(-2, 2, 7)
        grid = SampleGrid.uniform(gx, gy)
        assert grid.weights.shape == (5, 7)
        # total weight equals the domain area for trapezoid weights
        assert np.isclose(grid.weights.sum(), 2.0 * 4.0)


class TestInnerProduct:
    def test_normalized_mode_has_unit_overlap(self):
        grid = transverse_grid(W0)
        f = gaussian_mode(grid)
        assert inner_product(f, f) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_orthogonal_hermite_gaussians(self):
        grid = transverse_grid(W0)
        f00 = Mode(grid, hermite_gaussian_samples(grid, 0, 0, W0))
        f10 = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        assert abs(inner_product(f00, f10)) < 1e-13

    def test_displaced_gaussian_overlap(self):
        # Analytic value: overlap of unit Gaussians displaced by one waist
        # is exp(-d^2 / (2 w0^2)) = exp(-1/2).
        expected = math.exp(-0.5)
        grid = transverse_grid(W0)
        value = inner_product(gaussian_mode(grid), gaussian_mode(grid, x_shift=W0))
        assert value.real == pytest.approx(expected, rel=1e-8)
        assert abs(value.imag) < 1e-15
        # cross-check with quadrature at 4x resolution
        fine = transverse_grid(W0, points=1024)
        value_fine = inner_product(
            gaussian_mode(fine), gaussian_mode(fine, x_shift=W0)
        )
        assert value_fine.real == pytest.approx(expected, rel=1e-8)

    def test_quadrature_convergence_under_grid_doubling(self):
        coarse = transverse_grid(W0, points=256)
        fine = transverse_grid(W0, points=512)
        v1 = inner_product(gaussian_mode(coarse), gaussian_mode(coarse, x_shift=W0))
        v2 = inner_product(gaussian_mode(fine), gaussian_mode(fine, x_shift=W0))
        assert abs(v1 - v2) / abs(v2) < 1e-6

    def test_conjugate_symmetry_is_exact(self):
        grid = transverse_grid(W0, points=64)
        rng = np.random.default_rng(7)
        a = Mode(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        b = Mode(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        assert inner_product(a, b) == np.conj(inner_product(b, a))

    def test_grid_mismatch_raises(self):
        a = gaussian_mode(transverse_grid(W0, points=64))
        b = gaussian_mode(transverse_grid(W0, points=128))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_non_finite_samples_rejected(self):
        grid = transverse_grid(W0, points=16)
        samples = np.zeros(grid.shape, dtype=complex)
        samples[0, 0] = np.nan
        with pytest.raises(EvaluationError):
            Mode(grid, samples)


class TestGramSchmidt:
    def test_orthonormal_pair_gives_identity_coefficients(self):
        grid = transverse_grid(W0)
        modes = [
            Mode(grid, hermite_gaussian_samples(grid, 0, 0, W0)),
            Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0)),
        ]
        result = gram_schmidt(modes)
        assert np.allclose(result.coefficients, np.eye(2), atol=1e-10)

    def test_overlapping_pair_matches_closed_form(self):
        # second output (m2 - q1 * d) / sqrt(1 - |d|^2) for unit inputs
        grid = transverse_grid(W0)
        d = 0.3 + 0.4j
        f0 = Mode(grid, hermite_gaussian_samples(grid, 0, 0, W0))
        f1 = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        mixed = Mode(grid, d * f0.samples + np.sqrt(1 - abs(d) ** 2) * f1.samples)
        result = gram_schmidt([f0, mixed])
        assert result.coefficients[1, 1] == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-12)
        assert result.coefficients[1, 0] == pytest.approx(-d / math.sqrt(0.75), rel=1e-12)
        expected_second = (mixed.samples - d * f0.samples) / math.sqrt(1 - abs(d) ** 2)
        assert np.allclose(result.basis.modes[1].samples, expected_second, atol=1e-12)
        assert result.pivot_norms[1] == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_random_modes_against_gram_factorization_oracle(self):
        # oracle: eigen-factorization of the input Gram matrix spans the
        # same space; every output must lie in that span with unit norm
        grid = SampleGrid.uniform(np.linspace(-4, 4, 257))
        rng = np.random.default_rng(11)
        x = grid.axes[0]
        inputs = []
        for _ in range(3):
            coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
            profile = sum(c * x**p for p, c in enumerate(coeff)) * np.exp(-(x**2))
            inputs.append(Mode(grid, profile))
        result = gram_schmidt(inputs)
        gram = result.basis.gram()
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

        raw_gram = np.array(
            [[inner_product(a, b) for b in inputs] for a in inputs]
        )
        vals, vecs = np.linalg.eigh(raw_gram)
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
        loewdin = [
            Mode(grid, sum(inv_sqrt[j, i] * inputs[j].samples for j in range(3)))
            for i in range(3)
        ]
        for q in result.basis.modes:
            projections = sum(abs(inner_product(l, q)) ** 2 for l in loewdin)
            assert projections == pytest.approx(1.0, abs=1e-10)

    def test_idempotence(self):
        grid = transverse_grid(W0)
        f0 = Mode(grid, hermite_gaussian_samples(grid, 0, 0, W0))
        f1 = Mode(grid, hermite_gaussian_samples(grid, 2, 0, W0))
        mixed = Mode(grid, 0.6 * f0.samples + 0.8j * f1.samples)
        first = gram_schmidt([f0, mixed])
        second = gram_schmidt(list(first.basis.modes))
        assert np.allclose(second.coefficients, np.eye(2), atol=1e-10)

    def test_rank_deficiency_reports_index(self):
        grid = transverse_grid(W0)
        f0 = Mode(grid, hermite_gaussian_samples(grid, 0, 0, W0))
        copy = Mode(grid, (0.2 + 0.3j) * f0.samples)
        result = gram_schmidt([f0, copy])
        assert result.dependent_indices == (1,)
        assert result.pivot_norms[1] < 1e-8

    def test_drop_mode_keeps_going(self):
        grid = transverse_grid(W0)
        f0 = Mode(grid, hermite_gaussian_samples(grid, 0, 0, W0))
        f1 = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        copy = Mode(grid, 1j * f0.samples)
        result = gram_schmidt([f0, copy, f1])
        assert result.dependent_indices == (1,)
        assert len(result.basis) == 2


class TestDerivativeModes:
    def test_beam_displacement_derivative(self, beam_family):
        # d/dx0 of the Gaussian is (2x / w0^2) f; norm from <x^2> = w0^2/4
        d = derivative_mode(beam_family, 0, 0)
        f = beam_family.evaluate_mode(0)
        xg, _ = beam_family.grid.mesh()
        assert np.allclose(d.samples, (2.0 * xg / W0**2) * f.samples, atol=1e-12)
        assert mode_norm(d) == pytest.approx(1.0 / W0, rel=1e-10)

    def test_tilt_derivative_norm(self, beam_family):
        # norm of i k x f is k w0 / 2
        d = derivative_mode(beam_family, 0, 4)
        assert mode_norm(d) == pytest.approx(K * W0 / 2.0, rel=1e-10)

    @pytest.mark.parametrize("parameter", range(6))
    def test_beam_finite_difference_matches_analytic(self, beam_family, parameter):
        analytic = derivative_mode(beam_family, 0, parameter)
        fd = derivative_mode(finite_difference_family(beam_family), 0, parameter)
        scale = mode_norm(analytic)
        diff = Mode(beam_family.grid, analytic.samples - fd.samples)
        assert mode_norm(diff) / scale < 1e-6

    @pytest.mark.parametrize("parameter", range(3))
    def test_pulse_finite_difference_matches_analytic(self, pulse_family, parameter):
        analytic = derivative_mode(pulse_family, 0, parameter)
        fd = derivative_mode(finite_difference_family(pulse_family), 0, parameter)
        scale = mode_norm(analytic)
        diff = Mode(pulse_family.grid, analytic.samples - fd.samples)
        assert mode_norm(diff) / scale < 1e-6

    @pytest.mark.parametrize("family_name", ["beam", "pulse"])
    def test_norm_preservation(self, request, family_name):
        # d/dtheta (f|f) = 0, so Re(f|df) vanishes for every parameter
        family = request.getfixturevalue(f"{family_name}_family")
        f = family.evaluate_mode(0)
        for a in range(family.n_parameters):
            for rule in (family, finite_difference_family(family)):
                d = derivative_mode(rule, 0, a)
                assert abs(inner_product(f, d).real) < 1e-6


class TestDetectionMode:
    def test_weight_and_unit_norm(self):
        grid = transverse_grid(W0)
        f = Mode(grid, 2.0 * hermite_gaussian_samples(grid, 1, 0, W0))
        det = detection_mode(f, mode_norm(f))
        assert det.weight == pytest.approx(2.0, rel=1e-12)
        assert mode_norm(det.mode) == pytest.approx(1.0, rel=1e-12)
        assert not det.degenerate

    def test_zero_derivative_flagged(self):
        grid = transverse_grid(W0, points=32)
        det = detection_mode(Mode(grid, np.zeros(grid.shape, dtype=complex)), 0.0)
        assert det.degenerate
        assert det.weight == 0.0

    def test_pulse_phase_detection_mode(self, pulse_family):
        # derivative i omega0 u has weight omega0; rotating by i gives -u
        d = derivative_mode(pulse_family, 0, 0)
        det = detection_mode(d, mode_norm(d))
        u = pulse_family.evaluate_mode(0)
        assert det.weight == pytest.approx(OMEGA0, rel=1e-10)
        assert np.allclose(det.mode.samples, -u.samples, atol=1e-12)


class TestVacuumOverlap:
    def test_populated_mode_projected_out(self, beam_family):
        f = beam_family.evaluate_mode(0)
        basis = ModeBasis((f,))
        assert abs(vacuum_overlap(f, f, basis)) < 1e-12

    def test_global_phase_derivative_has_no_vacuum_part(self, beam_family):
        f = beam_family.evaluate_mode(0)
        basis = ModeBasis((f,))
        d = Mode(f.grid, -0.7j * f.samples)
        assert abs(vacuum_overlap(d, d, basis)) < 1e-12

    def test_displacement_derivative_full_leakage(self, beam_family):
        # (f^x0 | f^x0) = 1/w0^2 and (f | f^x0) = 0 by odd symmetry
        f = beam_family.evaluate_mode(0)
        basis = ModeBasis((f,))
        d = derivative_mode(beam_family, 0, 0)
        value = vacuum_overlap(d, d, basis)
        assert value.real == pytest.approx(1.0 / W0**2, rel=1e-10)

    def test_hermitian_in_mode_pair(self, beam_family):
        f = beam_family.evaluate_mode(0)
        basis = ModeBasis((f,))
        da = derivative_mode(beam_family, 0, 0)
        db = derivative_mode(beam_family, 0, 2)
        assert vacuum_overlap(da, db, basis) == pytest.approx(
            np.conj(vacuum_overlap(db, da, basis)), abs=1e-14
        )

    def test_requires_orthonormal_basis(self, beam_family):
        f = beam_family.evaluate_mode(0)
        bad = ModeBasis((f, Mode(f.grid, 0.5 * f.samples)))
        with pytest.raises(StructuralError):
            vacuum_overlap(f, f, bad)
