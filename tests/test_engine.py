import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from modal_qcrb import (
    AttainabilityResult,
    BeamGeometry,
    DetectionMode,
    FockSpace,
    Mode,
    PreconditionError,
    SingleModeAttainability,
    StructuralError,
    attainability,
    attainability_single_mode,
    build_generators,
    crb_bounds,
    detection_modes_for,
    gaussian_beam_family,
    make_state,
    photon_statistics,
    qfim_mode_split,
    qfim_single_mode,
    qfim_unitary,
)
from modal_qcrb import engine, states
from modal_qcrb.modes import _hermitian, _strict_upper
from modal_qcrb.states import first_moments, operator_matrix_elements
from modal_qcrb.tolerances import TAU_PROB
from conftest import (
    FOCK_ROUTE_PROBES,
    K,
    OMEGA0,
    VARIANCE,
    W0,
    GaussianState,
    ModeBasis,
    _thermal_probabilities,
    commutator_from_overlaps,
    dense_quadratic,
    family_from_modes,
    gram_schmidt,
    gram_schmidt_readout,
    hermite_gaussian_samples,
    inner_product,
    number_moments,
    probe_state,
    qfim_mean_field,
    quadrature_covariance,
    random_density_state,
    random_mode_parameter_data,
    readout_means,
    vacuum_overlap,
)


def brute_force_qfim(state, coeff_a: np.ndarray, coeff_b: np.ndarray) -> float:
    """Plain double-loop evaluation of the mixed-state information formula."""
    ha = dense_quadratic(state.space, coeff_a)
    hb = dense_quadratic(state.space, coeff_b)
    p = state.probabilities
    v = state.vectors
    t1 = 0.0
    for a in range(p.size):
        va = v[:, a]
        t1 += p[a] * np.real(va.conj() @ (ha @ (hb @ va)) + va.conj() @ (hb @ (ha @ va)))
    t1 *= 2.0
    t2 = 0.0
    for a in range(p.size):
        for b in range(p.size):
            if p[a] + p[b] < 1e-14:
                continue
            mab = v[:, a].conj() @ (ha @ v[:, b])
            mba = v[:, b].conj() @ (hb @ v[:, a])
            t2 += 8.0 * p[a] * p[b] / (p[a] + p[b]) * np.real(mab * mba)
    return t1 - t2


class TestBuildGenerators:
    def test_global_phase_parameter(self):
        # derivative -i c f gives a real 1x1 generator [c]
        grid_family_modes = random_mode_parameter_data(np.random.default_rng(0), 1, 1)
        populated, _ = grid_family_modes
        f = populated[0]
        c = 0.8
        deriv = Mode(f.grid, -1j * c * f.samples)
        gens = build_generators(family_from_modes(populated, [[deriv]], ["phi"]))
        assert gens.matrices[0, 0, 0] == pytest.approx(c, abs=1e-12)

    def test_displacement_generator_vanishes(self, displaced_family):
        gens = build_generators(displaced_family)
        assert np.max(np.abs(gens.matrices)) < 1e-10

    def test_pulse_phase_generator(self, pulse_family):
        # i * (u | i omega0 u) = -omega0; only the magnitude feeds the
        # information matrix and commutators
        gens = build_generators(pulse_family)
        assert gens.matrices[0, 0, 0].real == pytest.approx(-OMEGA0, rel=1e-10)
        assert abs(gens.matrices[0, 0, 0].imag) < 1e-10

    def test_hermiticity_residual_reported(self, beam_family):
        gens = build_generators(beam_family)
        assert np.all(gens.hermiticity_residuals < 1e-8)
        for a in range(gens.n_parameters):
            g = gens.matrices[a]
            assert np.max(np.abs(g - g.conj().T)) == 0.0

    def test_normalization_drift_warns(self):
        # a derivative with a real overlap onto its own mode signals that
        # the parametrization does not preserve the norm
        populated, _ = random_mode_parameter_data(np.random.default_rng(3), 1, 1)
        f = populated[0]
        drifting = Mode(f.grid, 0.5 * f.samples)
        with pytest.warns(UserWarning, match="normalization"):
            gens = build_generators(family_from_modes(populated, [[drifting]], ["bad"]))
        assert gens.hermiticity_residuals[0] == pytest.approx(1.0, rel=1e-10)


class TestQfimUnitary:
    def test_coherent_number_generator(self):
        # phase generated by N on a coherent state: 4 * Poisson variance
        state = probe_state("coherent", nbar=3.0)
        f = qfim_unitary(state, np.eye(1, dtype=complex)[None])
        assert f[0, 0] == pytest.approx(4.0 * 3.0, rel=1e-8)

    def test_thermal_number_generator_vanishes(self):
        state = probe_state("thermal", nbar=1.0)
        f = qfim_unitary(state, np.eye(1, dtype=complex)[None])
        assert abs(f[0, 0]) < 1e-10
        assert abs(brute_force_qfim(state, np.eye(1), np.eye(1))) < 1e-10

    def test_fock_number_generator_vanishes(self):
        state = probe_state("fock", n=2)
        f = qfim_unitary(state, np.eye(1, dtype=complex)[None])
        assert abs(f[0, 0]) < 1e-12

    def test_number_diagonal_probe_leaves_no_roundoff(self):
        # a thermal probe and each one-mode generator are diagonal in the
        # number basis: no term of the populated part is left to round off
        family = gaussian_beam_family(BeamGeometry(1.3, 25.0), carrier_phase=True, points=512)
        state = probe_state("thermal", nbar=1.0)
        f = qfim_unitary(state, build_generators(family))
        assert np.all(f == 0.0)

        # so too on two modes: a product of truncated thermal distributions
        # over the number basis, some of its probabilities below TAU_PROB,
        # and three diagonal generators
        space = FockSpace(n_modes=2, cutoff=15)
        probs = np.outer(
            _thermal_probabilities(space.levels, 0.25), _thermal_probabilities(space.levels, 0.1)
        ).ravel()
        state = make_state(
            "custom", space, probabilities=probs / probs.sum(), vectors=np.eye(space.dimension)
        )
        assert np.any(state.probabilities < TAU_PROB)
        diagonals = [[1.0, 0.0], [0.3, -1.2], [2.0, 0.7]]
        f = qfim_unitary(state, np.array([np.diag(d) for d in diagonals], dtype=complex))
        assert np.all(f == 0.0)

    def test_matches_brute_force_on_random_mixed_state(self):
        rng = np.random.default_rng(21)
        space = FockSpace(n_modes=2, cutoff=3)
        state = random_density_state(rng, space, rank=3)
        raw = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        coeffs = (raw + raw.conj().transpose(0, 2, 1)) / 2.0
        f = qfim_unitary(state, coeffs)
        for a in range(2):
            for b in range(2):
                expected = brute_force_qfim(state, coeffs[a], coeffs[b])
                assert f[a, b] == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_pure_state_reduces_to_covariance(self):
        rng = np.random.default_rng(5)
        space = FockSpace(n_modes=2, cutoff=3)
        state = random_density_state(rng, space, rank=1)
        raw = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        coeffs = (raw + raw.conj().transpose(0, 2, 1)) / 2.0
        f = qfim_unitary(state, coeffs)
        vec = state.vectors[:, 0]
        ops = [dense_quadratic(space, c) for c in coeffs]
        for a in range(2):
            for b in range(2):
                mean_a = np.real(vec.conj() @ (ops[a] @ vec))
                mean_b = np.real(vec.conj() @ (ops[b] @ vec))
                sym = np.real(vec.conj() @ (ops[a] @ (ops[b] @ vec)))
                expected = 4.0 * (sym - mean_a * mean_b)
                assert f[a, b] == pytest.approx(expected, abs=1e-10)


    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 3), (1, 2, 2, 2), (2,)])
    def test_rejects_coefficient_shape(self, shape):
        state = random_density_state(np.random.default_rng(4), FockSpace(n_modes=2, cutoff=2), 1)
        with pytest.raises(StructuralError, match="coefficient shape"):
            qfim_unitary(state, np.zeros(shape, dtype=complex))

    def test_one_matrix_is_a_stack_of_one(self):
        state = random_density_state(np.random.default_rng(6), FockSpace(n_modes=2, cutoff=3), 2)
        coeff = np.array([[1.0, 0.5j], [-0.5j, 0.3]])
        f = qfim_unitary(state, coeff)
        assert f.dtype == np.float64 and f.shape == (1, 1)
        assert np.array_equal(f, qfim_unitary(state, coeff[None]))


class TestSymmetrization:
    """One symmetrization, _hermitian, for the overlap table and both QFIM terms."""

    def test_real_input_matches_the_two_triangle_form(self):
        rng = np.random.default_rng(17)
        for n in range(1, 6):
            for _ in range(40):
                f = rng.normal(size=(n, n)) * rng.integers(0, 2, size=(n, n))
                f *= rng.choice([-1.0, 1.0], size=(n, n))  # zeros of both signs
                got = _hermitian(f)
                expected = np.triu(f) + np.triu(f, 1).T
                assert got.dtype == np.float64
                assert got.tobytes() == expected.tobytes()

    def test_cached_mask_matches_np_triu_bitwise(self):
        # zeros of both signs in both parts: np.where must keep -0.0 above
        # the diagonal and put +0 below it, as np.triu does
        rng = np.random.default_rng(23)
        for n in range(1, 9):
            assert not _strict_upper(n).flags.writeable
            for _ in range(20):
                parts = rng.normal(size=(2, n, n)) * rng.integers(0, 2, size=(2, n, n))
                parts *= rng.choice([-1.0, 1.0], size=(2, n, n))
                for g in (parts[0], parts[0] + 1j * parts[1]):
                    upper = np.triu(g, 1)
                    assert np.where(_strict_upper(n), g, 0).tobytes() == upper.tobytes()
                    expected = upper + upper.conj().T + np.diag(g.diagonal().real)
                    assert _hermitian(g).tobytes() == expected.tobytes()

    def test_real_one_by_one_stays_real(self):
        got = _hermitian(np.array([[-0.0]]))
        assert got.dtype == np.float64 and not np.signbit(got[0, 0])
        assert _hermitian(np.array([[2.0 - 1e-17j]])).tobytes() == np.array([[2.0 + 0j]]).tobytes()


class TestQfimModeSplit:
    def test_displaced_beam_coherent(self, displaced_family):
        state = probe_state("coherent", nbar=2.0)
        f = qfim_mode_split(state, displaced_family)
        expected = 4.0 * 2.0 / W0**2
        assert np.allclose(np.diag(f), expected, rtol=1e-8)
        assert abs(f[0, 1]) < 1e-10

    def test_vacuum_probe_gives_zero(self, displaced_family):
        state = probe_state("fock", n=0)
        f = qfim_mode_split(state, displaced_family)
        assert np.max(np.abs(f)) < 1e-12

    def test_beam_tilt_entry(self, beam_family):
        state = probe_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, beam_family)
        assert f[4, 4] == pytest.approx(K**2 * W0**2, rel=1e-6)

    def test_doubling_photons_doubles_amplitude_entries(self, displaced_family):
        f1 = qfim_mode_split(probe_state("coherent", nbar=1.0), displaced_family)
        f2 = qfim_mode_split(probe_state("coherent", nbar=2.0), displaced_family)
        assert np.allclose(2.0 * f1, f2, rtol=1e-9)

    def test_vacuum_term_is_psd_with_bounded_trace(self, beam_family):
        # the leakage part is a Gram-type matrix; for one populated mode
        # its trace equals 4 <N> sum_a (d_a f | Pi_vac | d_a f)
        state = probe_state("coherent", nbar=1.5)
        gens = build_generators(beam_family)
        full = qfim_mode_split(state, beam_family)
        pop_part = qfim_unitary(state, gens)
        leak = full - pop_part
        eigvals = np.linalg.eigvalsh((leak + leak.T) / 2.0)
        assert eigvals.min() > -1e-9 * np.max(np.abs(leak))
        mean_n, _ = number_moments(state)
        basis = ModeBasis(beam_family.evaluate())
        from modal_qcrb import derivative_mode

        total = sum(
            vacuum_overlap(
                derivative_mode(beam_family, 0, a),
                derivative_mode(beam_family, 0, a),
                basis,
            ).real
            for a in range(6)
        )
        assert np.trace(leak) == pytest.approx(4.0 * mean_n * total, rel=1e-9)


class TestQfimSingleMode:
    @pytest.mark.parametrize("spec", FOCK_ROUTE_PROBES)
    def test_agrees_with_mode_split(self, request, spec):
        # same matrix and attainability flags as the truncated-Fock route,
        # within its truncation budget
        state = probe_state(**spec)
        statistics = photon_statistics(spec)
        for fixture in ("beam_family", "beam_carrier_family", "pulse_family", "displaced_family"):
            family = request.getfixturevalue(fixture)
            split = qfim_mode_split(state, family)
            single = qfim_single_mode(statistics, family)
            scale = max(np.max(np.abs(split)), 1e-300)
            assert np.max(np.abs(single - split)) <= 1e-6 * scale, fixture
            mixed = attainability(state, build_generators(family))
            one_mode = attainability_single_mode(family, statistics)
            assert np.array_equal(one_mode.pair_attainable, mixed.pair_attainable), fixture
            assert one_mode.real_residual == 0.0

    def test_amplitude_only_diagonal(self, displaced_family):
        # orthogonal real derivative modes: diagonal 4 (d_a f | d_a f) N
        f = qfim_single_mode(photon_statistics({"kind": "coherent", "nbar": 3.0}), displaced_family)
        assert np.allclose(np.diag(f), 4.0 * 3.0 / W0**2, rtol=1e-8)
        assert abs(f[0, 1]) < 1e-12

    def test_pulse_group_delay_entry(self, pulse_family):
        f = qfim_single_mode(photon_statistics({"kind": "coherent", "nbar": 1.0}), pulse_family)
        assert f[1, 1] == pytest.approx(4.0 * VARIANCE, rel=1e-6)

    def test_pulse_phase_entry_vanishes_for_fock(self, pulse_family):
        f = qfim_single_mode(photon_statistics({"kind": "fock", "n": 2}), pulse_family)
        assert abs(f[0, 0]) < 1e-8 * np.max(np.abs(f))

    @pytest.mark.parametrize("fixture", ["beam_family", "beam_carrier_family"])
    def test_beam_variants_agree_with_mode_split(self, request, fixture):
        family = request.getfixturevalue(fixture)
        spec = {"kind": "coherent", "nbar": 1.0}
        a = qfim_single_mode(photon_statistics(spec), family)
        b = qfim_mode_split(probe_state(**spec), family)
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-6

    def test_roundoff_negative_diagonal_is_zeroed(self):
        from modal_qcrb import PulseSpectrum, gaussian_pulse_family

        family = gaussian_pulse_family(PulseSpectrum(100.0, 1.0))
        spec = {"kind": "fock", "n": 2}
        for f in (qfim_single_mode(photon_statistics(spec), family), qfim_mode_split(probe_state(**spec), family)):
            assert 0.0 <= f[0, 0] < 1e-9 * np.max(np.abs(f))

    def test_large_negative_diagonal_is_kept(self):
        from modal_qcrb.engine import _zero_roundoff_diagonal

        f = _zero_roundoff_diagonal(np.diag([-1e-12, -1e-3, 1.0]))
        assert f[0, 0] == 0.0 and f[1, 1] == -1e-3
        with pytest.raises(PreconditionError):
            crb_bounds(f)

    def test_multimode_family_rejected(self):
        from modal_qcrb import ParameterFamily

        populated, derivatives = random_mode_parameter_data(np.random.default_rng(5), 2, 2)
        family = ParameterFamily(
            name="two-mode",
            parameters=("a", "b"),
            units=("1",) * 2,
            grid=populated[0].grid,
            theta_scales=np.ones(2),
            mode_fn=lambda k, theta: populated[k].samples,
            derivative_fn=lambda k, a: derivatives[a][k].samples,
            n_modes=2,
        )
        statistics = photon_statistics({"kind": "fock", "n": 1})
        with pytest.raises(StructuralError):
            qfim_single_mode(statistics, family)
        with pytest.raises(StructuralError):
            attainability_single_mode(family, statistics)


class TestQfimMeanField:
    def test_shot_noise_limit_matches_single_mode(self, displaced_family):
        n0 = 2.5
        dets = detection_modes_for(displaced_family)
        basis = ModeBasis(displaced_family.evaluate())
        cov = quadrature_covariance(GaussianState.vacuum(1), dets, basis)
        f = qfim_mean_field(n0, dets, cov, mean_mode=basis.modes[0])
        reference = qfim_single_mode(photon_statistics({"kind": "coherent", "nbar": n0}), displaced_family)
        assert np.max(np.abs(f - reference)) / np.max(np.abs(reference)) < 1e-6

    def test_overlapping_detection_modes(self, displaced_family):
        overlap = 0.35 - 0.2j
        grid = displaced_family.grid
        g1 = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        g2 = Mode(grid, hermite_gaussian_samples(grid, 2, 0, W0))
        mixed = Mode(
            grid, overlap * g1.samples + math.sqrt(1 - abs(overlap) ** 2) * g2.samples
        )
        dets = [
            DetectionMode(mode=g1, weight=1.3, label="a"),
            DetectionMode(mode=mixed, weight=0.7, label="b"),
        ]
        basis = ModeBasis(displaced_family.evaluate())
        cov = quadrature_covariance(GaussianState.vacuum(1), dets, basis)
        f = qfim_mean_field(2.0, dets, cov)
        expected = 4.0 * 2.0 * 1.3 * 0.7 * overlap.real
        assert f[0, 1] == pytest.approx(expected, rel=1e-9)

    def test_squeezed_detection_quadrature_scales_entry(self, displaced_family):
        n0 = 1.0
        dets = detection_modes_for(displaced_family)
        reference = ModeBasis(tuple(d.mode for d in dets))
        v = 0.4
        cov = quadrature_covariance(GaussianState.squeezed([v, 1.0]), dets, reference)
        f = qfim_mean_field(n0, dets, cov)
        shot = 4.0 * n0 / W0**2
        assert f[0, 0] == pytest.approx(v * shot, rel=1e-8)
        assert f[1, 1] == pytest.approx(shot, rel=1e-8)

    def test_unit_variance_is_shot_noise(self, displaced_family):
        dets = detection_modes_for(displaced_family)
        cov = np.eye(2)
        f = qfim_mean_field(1.0, dets, cov)
        assert np.allclose(np.diag(f), [4.0 * d.weight**2 for d in dets], rtol=1e-9)

    def test_phase_encoded_parameter_rejected(self, pulse_family):
        dets = detection_modes_for(pulse_family)
        mean_mode = pulse_family.evaluate_mode(0)
        with pytest.raises(PreconditionError) as err:
            qfim_mean_field(1.0, dets, np.eye(3), mean_mode=mean_mode)
        assert "t_phase" in str(err.value)


class TestAttainability:
    def test_results_carry_no_scale_field(self):
        # the per-pair tolerance scale is a local of the pair rule
        for result_type in (AttainabilityResult, SingleModeAttainability):
            assert "scale" not in {field.name for field in dataclasses.fields(result_type)}

    def test_single_parameter_always_attainable(self, displaced_family):
        gens = build_generators(displaced_family)

        state = probe_state("coherent", nbar=1.0)
        result = attainability(state, gens)
        assert result.attainable
        assert np.max(np.abs(result.matrix)) < 1e-12

    def test_beam_displacement_tilt_commutator(self, beam_family):
        # Im(d_x0 f | d_tilt f) = k/2, so the commutator expectation is k N
        for nbar in (1.0, 2.5):
            state = probe_state("coherent", nbar=nbar)
            gens = build_generators(beam_family)
            result = attainability(state, gens)
            assert not result.attainable
            assert result.matrix[0, 4] == pytest.approx(K * nbar, rel=1e-8)
            assert not result.pair_attainable[0, 4]
            assert result.pair_attainable[0, 1]

    def test_thermal_probe_same_commutator(self, beam_family):
        # the double-sum correction vanishes for one populated mode, so the
        # mixed-state value is still 2 Im(overlap) <N>
        nbar = 2.0
        state = probe_state("thermal", nbar=nbar)
        gens = build_generators(beam_family)
        result = attainability(state, gens)
        mean_n, _ = number_moments(state)
        assert result.matrix[0, 4] == pytest.approx(K * mean_n, rel=1e-7)

    def test_antisymmetry_exact(self, beam_family):
        state = probe_state("coherent", nbar=1.0)
        result = attainability(state, build_generators(beam_family))
        assert np.array_equal(result.matrix, -result.matrix.T)

    def test_rank_one_matches_overlap_form(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            populated, derivatives = random_mode_parameter_data(rng, 2, 2)
            gens = build_generators(family_from_modes(populated, derivatives, ["a", "b"]))
            space = FockSpace(n_modes=2, cutoff=3)
            state = random_density_state(rng, space, rank=1)
            mixed = attainability(state, gens).matrix
            pure = commutator_from_overlaps(
                gens.derivative_overlaps, first_moments(state)
            )
            assert np.max(np.abs(mixed - pure)) < 1e-10 * max(np.max(np.abs(pure)), 1.0)

    def test_real_residual_small(self, beam_family):
        state = probe_state("thermal", nbar=1.0)
        result = attainability(state, build_generators(beam_family))
        assert result.real_residual < 1e-8 * max(np.max(np.abs(result.matrix)), 1.0)

    def test_matches_overlap_route_for_every_pair(self, beam_family):
        # U equals 2 Im(d_a f | d_b f) <N> for a single populated mode,
        # whatever the probe statistics
        gens = build_generators(beam_family)
        for spec in ({"kind": "coherent", "nbar": 1.5}, {"kind": "thermal", "nbar": 0.8}):
            state = probe_state(**spec)
            mean_n, _ = number_moments(state)
            mixed = attainability(state, gens)
            single = attainability_single_mode(beam_family, photon_statistics(spec))
            expected = 2.0 * single.imaginary_overlaps * mean_n
            scale = max(np.max(np.abs(expected)), 1.0)
            assert np.max(np.abs(mixed.matrix - expected)) / scale < 1e-7
            assert np.max(np.abs(mixed.matrix - single.matrix)) / scale < 1e-7
            assert np.array_equal(mixed.pair_attainable, single.pair_attainable)


def table_probe_state(rng, n_modes: int, cutoff: int, rank: int = 4):
    """Mixed state whose smallest eigenvalue is below TAU_PROB and whose
    kept eigenvectors carry amplitude at the cutoff level.

    The amplitude at the cutoff is what a truncated raising operator drops,
    and the small eigenvalue is what ``DensityState.kept`` drops.
    """
    space = FockSpace(n_modes=n_modes, cutoff=cutoff)
    levels = np.array(np.unravel_index(np.arange(space.dimension), (space.levels,) * n_modes))
    boundary = np.any(levels == cutoff, axis=0)
    raw = rng.normal(size=(space.dimension, rank)) + 1j * rng.normal(size=(space.dimension, rank))
    raw[boundary] *= 3e-6  # inside the truncation budget TAU_CUTOFF
    q, _ = np.linalg.qr(raw)
    probs = rng.uniform(0.1, 1.0, size=rank)
    probs[-1] = 0.0
    probs /= probs.sum()
    probs[-1] = TAU_PROB / 10.0
    state = make_state("custom", space, probabilities=probs, vectors=q)
    assert state.kept()[0].size == rank - 1
    assert np.max(np.abs(q[boundary, :-1])) > 1e-7
    return state


def dense_first_moments(state) -> np.ndarray:
    """Tr(rho a_j^dag a_l) with dense operators."""
    m = state.space.n_modes
    rho = (state.vectors * state.probabilities) @ state.vectors.conj().T
    out = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for l in range(m):
            unit = np.zeros((m, m))
            unit[j, l] = 1.0
            out[j, l] = np.trace(rho @ dense_quadratic(state.space, unit))
    return out


def dense_elements(state, coefficients) -> np.ndarray:
    _, v = state.kept()
    return np.array([v.conj().T @ dense_quadratic(state.space, c) @ v for c in coefficients])


def dense_commutator(state, gens) -> np.ndarray:
    """The mixed-state commutator matrix of ``attainability`` on dense inputs."""
    p, _ = state.kept()
    moments = dense_first_moments(state)
    elements = dense_elements(state, gens.matrices)
    overlaps = gens.derivative_overlaps
    n_p = gens.n_parameters
    u = np.zeros((n_p, n_p))
    for a in range(n_p):
        for b in range(a + 1, n_p):
            term1 = 4.0 * np.sum((overlaps[a, b] - overlaps[b, a]) * moments)
            term2 = 0.0
            for m in range(p.size):
                for n in range(p.size):
                    weight = 32.0 * p[m] ** 2 * p[n] / (p[m] + p[n]) ** 2
                    term2 += weight * (elements[a, m, n] * np.conj(elements[b, m, n])).imag
            u[a, b] = (term1.imag - term2) / 4.0
            u[b, a] = -u[a, b]
    return u


def assert_close_to_largest(got, expected, rtol=1e-13):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= rtol * scale, np.max(np.abs(got - expected)) / scale


class TestStateTableAgainstDenseOperators:
    """Every state-side quantity read from the lowered table, against dense operators."""

    # (modes, cutoff, parameters); with six parameters on two modes the
    # stack of H_a V outgrows the hop table it is written over
    CASES = [(2, 4, 3), (3, 3, 4), (2, 3, 6)]

    @pytest.fixture(params=CASES, ids=["m2", "m3", "m2-p6"])
    def case(self, request):
        n_modes, cutoff, n_params = request.param
        rng = np.random.default_rng(100 + n_modes)
        populated, derivatives = random_mode_parameter_data(rng, n_params, n_modes)
        family = family_from_modes(populated, derivatives, [f"t{a}" for a in range(n_params)])
        return table_probe_state(rng, n_modes, cutoff), family

    def test_first_moments(self, case):
        state, _ = case
        assert_close_to_largest(first_moments(state), dense_first_moments(state))

    def test_operator_matrix_elements(self, case):
        state, family = case
        matrices = build_generators(family).matrices
        assert_close_to_largest(
            operator_matrix_elements(state, matrices), dense_elements(state, matrices)
        )

    def test_qfim_unitary(self, case):
        state, family = case
        matrices = build_generators(family).matrices
        expected = np.array(
            [[brute_force_qfim(state, ca, cb) for cb in matrices] for ca in matrices]
        )
        assert_close_to_largest(qfim_unitary(state, matrices), expected)

    def test_qfim_unitary_in_small_column_blocks(self, case, monkeypatch):
        # a multiple of seven columns per product: no case's D r is a
        # multiple of seven, so the last block is ragged
        state, _ = case
        assert state.space.dimension * state.kept()[0].size % 7
        monkeypatch.setattr(states, "RAISE_BLOCK", 7)
        self.test_qfim_unitary(case)

    def test_attainability(self, case):
        state, family = case
        gens = build_generators(family)
        assert_close_to_largest(attainability(state, gens).matrix, dense_commutator(state, gens))

    def test_stacked_pass_equals_single_generator_calls(self, case):
        # the diagonal from one call per generator, each off-diagonal from one
        # call on a sum, F(a + b) = F_aa + F_bb + 2 F_ab; and the dense oracle
        state, family = case
        matrices = build_generators(family).matrices
        f = qfim_unitary(state, matrices)
        n_p = matrices.shape[0]
        single = np.empty((n_p, n_p))
        for a in range(n_p):
            single[a, a] = qfim_unitary(state, matrices[a])[0, 0]
        for a, b in itertools.combinations(range(n_p), 2):
            both = qfim_unitary(state, matrices[a] + matrices[b])[0, 0]
            single[a, b] = single[b, a] = (both - single[a, a] - single[b, b]) / 2.0
        expected = np.array(
            [[brute_force_qfim(state, ca, cb) for cb in matrices] for ca in matrices]
        )
        assert_close_to_largest(f, single)
        assert_close_to_largest(f, expected)

    def test_one_lowering_and_one_raising_per_mode(self, case, monkeypatch):
        # the raising shifts take every parameter at once: 2M shifts, whatever P
        state, family = case
        calls = []
        ladder = states._ladder

        def counted(*args, **kwargs):
            calls.append(kwargs.get("raising", False))
            return ladder(*args, **kwargs)

        monkeypatch.setattr(states, "_ladder", counted)
        qfim_mode_split(state, family)
        attainability(state, build_generators(family))
        m = family.n_modes
        assert len(calls) == 2 * m
        assert calls.count(True) == m


def _peak_of_stacked_pass(n_modes: int, cutoff: int, n_params: int) -> tuple[int, int]:
    """Traced peak of one rank-8 ``qfim_unitary`` call, and the nbytes of a (D, r) block."""
    rng = np.random.default_rng(31)
    space = FockSpace(n_modes=n_modes, cutoff=cutoff)
    state = random_density_state(rng, space, rank=8)
    shape = (n_params, n_modes, n_modes)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs = (raw + raw.conj().transpose(0, 2, 1)) / 2.0
    state.lowered_table  # the state's table is built once, before the pass
    assert state.kept_columns == slice(None)
    tracemalloc.start()
    try:
        qfim_unitary(state, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, state.vectors.nbytes


@pytest.mark.parametrize("n_modes, cutoff, n_params", [(3, 10, 4), (2, 35, 6)])
def test_stacked_pass_holds_at_most_three_blocks(n_modes, cutoff, n_params):
    # D = 1331 or 1296, r = 8: the hop table's buffer of max(M^2, P) blocks
    # and its transients stay below three (P, D, r) complex blocks
    peak, block = _peak_of_stacked_pass(n_modes, cutoff, n_params)
    assert peak <= 3 * n_params * block


def test_one_parameter_pass_holds_the_stated_blocks():
    # M = 3, P = 1, D = 1331, r = 8: the bound of the _raise_sum docstring,
    # max(M^2, P) + 2 (D, r) blocks; the hop table is paid whatever P
    peak, block = _peak_of_stacked_pass(3, 10, 1)
    assert peak <= (9 + 2) * block


@pytest.mark.parametrize("n_modes, cutoff", [(3, 10), (2, 35)])
def test_many_parameter_pass_holds_the_stated_blocks(n_modes, cutoff):
    # P = 12 > M^2, D = 1331 or 1296, r = 8: the bound of the _raise_sum
    # docstring, max(M^2, P) + 2 (D, r) blocks, holds for P rows of one
    # column block too, since they fill at most one block
    peak, block = _peak_of_stacked_pass(n_modes, cutoff, 12)
    assert peak <= (max(n_modes**2, 12) + 2) * block


@pytest.mark.parametrize("raising", [False, True], ids=["lowering", "raising"])
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_one_shift_holds_one_weight_row(mode, raising):
    # M = 3, D = 1331, r = 8: a shift allocates only its weights repeated
    # over the r columns, one complex row as large as the block, and no
    # iteration buffer; the per-space root table is built before tracing
    space = FockSpace(n_modes=3, cutoff=10)
    rng = np.random.default_rng(37)
    vectors = rng.normal(size=(space.dimension, 8)) + 1j * rng.normal(size=(space.dimension, 8))
    out = np.empty_like(vectors)
    states._ladder(space, vectors, mode, out, raising)
    tracemalloc.start()
    try:
        states._ladder(space, vectors, mode, out, raising)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * vectors.nbytes


def test_state_with_non_contiguous_eigenvectors():
    # eigenvectors that are a column slice of a wider array: the shifts
    # reshape them with a copy, and every output is the same to the byte as
    # for the contiguous copy of the same columns
    rng = np.random.default_rng(43)
    populated, derivatives = random_mode_parameter_data(rng, 3, 3)
    family = family_from_modes(populated, derivatives, ["t0", "t1", "t2"])
    space = FockSpace(n_modes=3, cutoff=4)
    template = random_density_state(rng, space, rank=6)
    wide = np.concatenate([template.vectors, np.zeros_like(template.vectors)], axis=1)
    sliced = wide[:, :6]
    assert not sliced.flags.c_contiguous
    outputs = []
    for vectors in (sliced, np.ascontiguousarray(sliced)):
        state = make_state("custom", space, probabilities=template.probabilities, vectors=vectors)
        assert state.vectors.flags.c_contiguous == (vectors is not sliced)
        f = qfim_mode_split(state, family)
        att = attainability(state, build_generators(family))
        report = crb_bounds(f, labels=family.parameters, attainability_result=att)
        arrays = (
            f,
            att.matrix,
            report.pseudo_inverse,
            report.multiparameter_bounds,
            report.single_parameter_bounds,
        )
        outputs.append([a.tobytes() for a in arrays])
    assert outputs[0] == outputs[1]


def former_qfim_unitary(state, coefficients) -> np.ndarray:
    """``qfim_unitary`` with the Gram of the outside parts as one ``flat @ flat.T``.

    The former body, kept as the reference of the row-product form.
    """
    m = state.space.n_modes
    stack = states._coefficient_matrices(state.space, coefficients).reshape(-1, m, m)
    n_p = stack.shape[0]
    p, v = state.kept()
    lowered = state.lowered_table.lowered[:, :, state.kept_columns]
    outside = states._raise_sum(state.space, stack, lowered)
    elements = v.conj().T @ outside
    for block, e in zip(outside, elements):
        block -= v @ e
    outside *= np.sqrt(p)
    flat = outside.reshape(n_p, -1).view(np.float64)
    t1 = 4.0 * (flat @ flat.T)
    ratio = np.subtract.outer(p, p) ** 2 / np.add.outer(p, p)
    transposed = elements.transpose(0, 2, 1).reshape(n_p, -1)
    t2 = 2.0 * ((ratio * elements).reshape(n_p, -1) @ transposed.T).real
    return _hermitian(t1 + t2)


def former_vacuum_term(state, table) -> np.ndarray:
    """The vacuum term of ``qfim_mode_split``, its block formed inline."""
    m, n_p = table.n_modes, table.n_parameters
    proj = table.matrix[m:, :m]
    vac = table.matrix[m:, m:] - proj @ proj.conj().T
    f = 4.0 * np.einsum("ajbl,jl->ab", vac.reshape(n_p, m, n_p, m), first_moments(state)).real
    return _hermitian(f)


def former_commutator_matrix(state, gens) -> np.ndarray:
    """``attainability(...).matrix`` with the commutator kernel formed inline."""
    overlaps = gens.derivative_overlaps
    moments = first_moments(state)
    p, _ = state.kept()
    elements = operator_matrix_elements(state, gens.matrices)
    n_p, n_e = elements.shape[0], p.size**2
    kernel = overlaps - overlaps.transpose(1, 0, 2, 3)
    term1 = 4.0 * np.einsum("abjl,jl->ab", kernel, moments)
    w2 = (p[:, None] ** 2 * p[None, :]) / np.add.outer(p, p) ** 2
    cross = (w2 * elements).reshape(n_p, n_e) @ elements.reshape(n_p, n_e).conj().T
    trace_comm = np.where(_strict_upper(n_p), term1 - 32.0j * cross.imag, 0)
    u = trace_comm.imag / 4.0
    return u - u.T


@pytest.mark.parametrize("rank", [1, 2, 8])
@pytest.mark.parametrize("n_modes, cutoff", [(1, 30), (2, 8), (3, 4)])
def test_pairwise_gram_within_roundoff_of_one_product(n_modes, cutoff, rank):
    # each entry of the Gram of the outside parts is still one dot product,
    # summed in another order, so the matrix moves by round-off only.  The
    # bound is the round-off of both forms: against exact rational sums of
    # these cases, flat @ flat.T lies up to 1.05e-15 of the largest entry
    # away and the pairwise dots up to 3.2e-16
    rng = np.random.default_rng(10 * n_modes + rank)
    state = random_density_state(rng, FockSpace(n_modes=n_modes, cutoff=cutoff), rank)
    for n_p in (1, 2, 3, 4, 5, 6, 12):
        shape = (n_p, n_modes, n_modes)
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coeffs = (raw + raw.conj().transpose(0, 2, 1)) / 2.0
        assert_close_to_largest(
            qfim_unitary(state, coeffs), former_qfim_unitary(state, coeffs), rtol=2e-15
        )


class TestTableSlices:
    """The vacuum block, commutator kernel and total weights: slices formed once per table."""

    # (modes, parameters, cutoff, rank)
    CASES = [(1, 3, 12, 3), (2, 1, 4, 1), (2, 4, 4, 4), (3, 6, 3, 2)]

    @pytest.fixture(params=CASES, ids=["m1-p3", "m2-p1", "m2-p4", "m3-p6"])
    def case(self, request):
        n_modes, n_params, cutoff, rank = request.param
        rng = np.random.default_rng(200 + 10 * n_modes + n_params)
        populated, derivatives = random_mode_parameter_data(rng, n_params, n_modes)
        family = family_from_modes(populated, derivatives, [f"t{a}" for a in range(n_params)])
        state = random_density_state(rng, FockSpace(n_modes=n_modes, cutoff=cutoff), rank)
        return state, family

    def test_slices_are_read_only_and_formed_once(self, case):
        _, family = case
        table = build_generators(family)
        m = table.n_modes
        proj = table.matrix[m:, :m]
        overlaps = table.derivative_overlaps
        expected = {
            "vacuum_block": table.matrix[m:, m:] - proj @ proj.conj().T,
            "commutator_kernel": overlaps - overlaps.transpose(1, 0, 2, 3),
            "total_weights": np.sqrt((table.weights**2).sum(axis=1)),
        }
        for name, formed in expected.items():
            read = getattr(table, name)
            first = read() if callable(read) else read
            second = read() if callable(read) else getattr(table, name)
            assert second is first, name
            assert not first.flags.writeable, name
            assert first.tobytes() == formed.tobytes(), name

    @pytest.mark.parametrize("name", ["matrices", "hermiticity_residuals"])
    def test_generator_arrays_refuse_writes(self, case, name):
        # a write would change every later qfim_unitary and attainability on the family
        _, family = case
        array = getattr(build_generators(family), name)
        before = array.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        assert getattr(build_generators(family), name) is array
        assert array.tobytes() == before

    def test_mode_split_vacuum_term_bitwise(self, case):
        state, family = case
        table = build_generators(family)
        expected = engine._zero_roundoff_diagonal(
            qfim_unitary(state, table) + former_vacuum_term(state, table)
        )
        assert qfim_mode_split(state, family).tobytes() == expected.tobytes()

    def test_attainability_matrix_bitwise(self, case):
        state, family = case
        gens = build_generators(family)
        expected = former_commutator_matrix(state, gens)
        assert attainability(state, gens).matrix.tobytes() == expected.tobytes()


class TestDegenerateParameter:
    def test_zero_row_flows_to_flagged_report(self, displaced_family):
        from conftest import with_idle_parameter

        padded = with_idle_parameter(displaced_family)
        state = probe_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, padded)
        assert np.max(np.abs(f[2, :])) == 0.0
        assert np.max(np.abs(f[:, 2])) == 0.0
        report = crb_bounds(f, labels=padded.parameters)
        assert report.degenerate_parameters == ("idle",)
        assert np.isnan(report.single_parameter_bounds[2])
        gens = build_generators(padded)
        result = attainability(state, gens)
        assert result.attainable
        assert np.max(np.abs(result.matrix[2, :])) == 0.0
        # the one-mode result and the detection modes share one flag per parameter
        flags = attainability_single_mode(padded, COHERENT).degenerate
        assert flags.tolist() == [d.degenerate for d in detection_modes_for(padded)] == [False, False, True]


COHERENT = photon_statistics({"kind": "coherent", "nbar": 1.0})


class TestAttainabilitySingleMode:
    def test_beam_quadrature_pair(self, beam_family):
        result = attainability_single_mode(beam_family, COHERENT)
        assert result.normalized[0, 4] == pytest.approx(1.0, rel=1e-6)
        assert not result.pair_attainable[0, 4]
        assert not result.attainable

    def test_orthogonal_displacements_compatible(self, beam_family):
        result = attainability_single_mode(beam_family, COHERENT)
        assert result.pair_attainable[0, 1]
        assert abs(result.imaginary_overlaps[0, 1]) < 1e-12

    def test_pulse_fully_compatible(self, pulse_family):
        result = attainability_single_mode(pulse_family, COHERENT)
        assert result.attainable
        assert np.max(np.abs(result.imaginary_overlaps)) < 1e-10

    def test_waist_axial_pair_incompatible(self, beam_family):
        # numerically computed value: |Im| / (w_a w_b) = 1/sqrt(2)
        result = attainability_single_mode(beam_family, COHERENT)
        assert abs(result.normalized[3, 2]) == pytest.approx(1.0 / math.sqrt(2), rel=1e-8)
        assert not result.pair_attainable[3, 2]


class TestCrbBounds:
    def test_diagonal_matrix(self):
        f = np.diag([4.0, 25.0])
        report = crb_bounds(f, repetitions=2, labels=("a", "b"))
        assert np.allclose(report.multiparameter_bounds, [1 / 8.0, 1 / 50.0])
        assert np.allclose(report.single_parameter_bounds, [1 / 8.0, 1 / 50.0])
        assert np.allclose(report.penalty_ratios, 1.0)
        assert report.degenerate_parameters == ()

    def test_pulse_phase_block_penalty(self, pulse_family):
        # direct 2x2 inversion oracle on the phase/broadening block
        state = probe_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, pulse_family)
        block = f[np.ix_([0, 2], [0, 2])]
        report = crb_bounds(block, labels=("t_phase", "t_gvd"))
        a, c, b = block[0, 0], block[0, 1], block[1, 1]
        det = a * b - c * c
        assert report.pseudo_inverse[0, 0] == pytest.approx(b / det, rel=1e-10)
        assert report.pseudo_inverse[1, 1] == pytest.approx(a / det, rel=1e-10)
        # correlation penalty 1 / (1 - c^2/(ab)); the engine's entries give
        # c^2/(ab) = info/(info + 8 N) = 1/3 for a coherent probe
        assert np.all(report.penalty_ratios > 1.0)
        assert report.penalty_ratios[0] == pytest.approx(1.5, rel=1e-6)
        assert report.penalty_ratios[1] == pytest.approx(1.5, rel=1e-6)

    def test_zero_row_flags_parameter(self):
        f = np.diag([4.0, 0.0])
        report = crb_bounds(f, labels=("live", "dead"))
        assert report.degenerate_parameters == ("dead",)
        assert np.isnan(report.single_parameter_bounds[1])
        assert report.pseudo_inverse[1, 1] == 0.0
        assert report.null_combinations.shape == (1, 2)

    def test_asymmetric_input_rejected(self):
        f = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(StructuralError):
            crb_bounds(f)

    @pytest.mark.parametrize(
        "f, options, error, match",
        [
            (np.ones((2, 3)), {}, StructuralError, "must be square"),
            (np.eye(2), {"labels": ("a",)}, StructuralError, "label count"),
            (np.eye(2), {"repetitions": 0}, PreconditionError, "repetitions"),
        ],
        ids=["non-square", "label-count", "zero-repetitions"],
    )
    def test_malformed_call_rejected(self, f, options, error, match):
        with pytest.raises(error, match=match):
            crb_bounds(f, **options)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        # an overflowed entry would otherwise leave an all-zero pseudo-inverse
        with pytest.raises(PreconditionError, match="non-finite"):
            crb_bounds(np.diag([bad, 1.0]))

    def test_bound_chain(self, beam_family):
        state = probe_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, beam_family)
        report = crb_bounds(f, repetitions=3, labels=beam_family.parameters)
        for a in range(6):
            assert (
                report.multiparameter_bounds[a]
                >= report.single_parameter_bounds[a] - 1e-12
            )


class TestReadoutAttainsTheBound:
    """The classical information of the detection-mode homodyne readout.

    For a coherent probe the Gram-Schmidt readout quadratures (q_first,
    q_second) have means linear in theta and unit vacuum variance, so their
    Fisher information is J^T J with J from :func:`readout_means`.  It must
    equal the engine's matrix on every pair flagged attainable and fall
    strictly below it where Im(d_a f | d_b f) != 0.
    """

    # detection modes orthogonal to the beam mode
    PARAMETERS = ("x0", "y0", "w0", "tilt_x", "tilt_y")

    def test_readout_information_against_flags(self, beam_family):
        nbar = 2.0
        statistics = photon_statistics({"kind": "coherent", "nbar": nbar})
        f = qfim_single_mode(statistics, beam_family)
        flags = attainability_single_mode(beam_family, statistics).pair_attainable
        dets = detection_modes_for(beam_family)
        index = {label: i for i, label in enumerate(beam_family.parameters)}
        seen = set()
        for name_a, name_b in itertools.combinations(self.PARAMETERS, 2):
            a, b = index[name_a], index[name_b]
            overlap = inner_product(dets[a].mode, dets[b].mode)
            columns = []
            for theta_a, theta_b in ((1.0, 0.0), (0.0, 1.0)):
                r = readout_means(theta_a * dets[a].weight, theta_b * dets[b].weight, overlap, nbar)
                columns.append([r.q_first, r.q_second])
            jacobian = np.array(columns).T
            f_c = jacobian.T @ jacobian
            block = f[np.ix_([a, b], [a, b])]
            scale = np.max(np.abs(block))
            if flags[a, b]:
                assert np.max(np.abs(f_c - block)) < 1e-8 * scale, (name_a, name_b)
            else:
                gap = np.linalg.eigvalsh(block - f_c)
                assert gap.min() > -1e-8 * scale and gap.max() > 1e-3 * scale, (name_a, name_b)
            if (name_a, name_b) == ("x0", "tilt_x"):
                # normalized Im overlap 1: the tilt signal is all in p_first
                assert not flags[a, b]
                assert f_c[1, 1] < 1e-12 * scale
            seen.add(bool(flags[a, b]))
        assert seen == {True, False}


class TestReadout:
    def test_independent_parameters(self):
        r = readout_means(0.7, 0.4, 0.0, 4.0)
        assert r.q_first == pytest.approx(2.0 * 2.0 * 0.7)
        assert r.p_first == 0.0
        assert r.q_second == pytest.approx(4.0 * 0.4)

    def test_real_overlap_mixes_amplitudes(self):
        r = readout_means(1.0, 1.0, 0.5, 1.0)
        assert r.q_first == pytest.approx(3.0, abs=1e-12)
        assert r.p_first == 0.0
        assert r.q_second == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_imaginary_overlap_moves_signal_to_conjugate_quadrature(self):
        r = readout_means(0.3, 0.7, 1j, 1.0)
        assert r.q_first == pytest.approx(2.0 * 0.3)
        assert r.p_first == pytest.approx(2.0 * 0.7)
        assert r.q_second == 0.0
        assert r.degenerate_pair

    def test_overlap_beyond_unity_rejected(self):
        with pytest.raises(PreconditionError):
            readout_means(1.0, 1.0, 1.2, 1.0)

    def test_detection_mode_wrapper(self, displaced_family):
        dets = detection_modes_for(displaced_family)
        r = gram_schmidt_readout(0.2, 0.1, dets[0], dets[1], 4.0)
        assert r.q_first == pytest.approx(4.0 * 0.2 * dets[0].weight, rel=1e-9)
        assert abs(r.p_first) < 1e-12
        assert r.q_second == pytest.approx(4.0 * 0.1 * dets[1].weight, rel=1e-9)

    def test_forward_model_matches_mode_expansion(self, displaced_family):
        # construct the mean field sqrt(N0) (f0 + th_a d_a f + th_b d_b f)
        # and project on the orthogonalized readout modes -i g1, -i g2
        grid = displaced_family.grid
        f0 = displaced_family.evaluate_mode(0)
        overlap = 0.3 + 0.4j
        tilde_a = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        rest = Mode(grid, hermite_gaussian_samples(grid, 2, 0, W0))
        tilde_b = Mode(
            grid,
            overlap * tilde_a.samples
            + math.sqrt(1 - abs(overlap) ** 2) * rest.samples,
        )
        w_a, w_b = 1.7, 0.9
        th_a, th_b = 0.05, 0.03
        n0 = 2.0

        det_a = DetectionMode(mode=tilde_a, weight=w_a, label="a")
        det_b = DetectionMode(mode=tilde_b, weight=w_b, label="b")
        predicted = gram_schmidt_readout(th_a, th_b, det_a, det_b, n0)

        # derivative modes are -i w times the detection modes
        field = Mode(
            grid,
            math.sqrt(n0)
            * (
                f0.samples
                + th_a * w_a * (-1j) * tilde_a.samples
                + th_b * w_b * (-1j) * tilde_b.samples
            ),
        )
        basis = gram_schmidt([tilde_a, tilde_b]).basis
        g1 = Mode(grid, -1j * basis.modes[0].samples)
        g2 = Mode(grid, -1j * basis.modes[1].samples)
        amp1 = 2.0 * inner_product(g1, field)
        amp2 = 2.0 * inner_product(g2, field)
        assert predicted.q_first == pytest.approx(amp1.real, abs=1e-10)
        assert predicted.p_first == pytest.approx(amp1.imag, abs=1e-10)
        assert predicted.q_second == pytest.approx(amp2.real, abs=1e-10)
        assert abs(amp2.imag) < 1e-10
