import math
from functools import reduce

import numpy as np
import pytest

from modal_qcrb import (
    DetectionMode,
    FockSpace,
    GaussianState,
    Mode,
    ModeBasis,
    PreconditionError,
    StructuralError,
    attainability,
    attainability_single_mode,
    build_generators,
    commutator_from_overlaps,
    crb_bounds,
    detection_modes_for,
    generators_from_modes,
    gram_schmidt_readout,
    inner_product,
    make_state,
    number_information,
    qfim_mean_field,
    qfim_mode_split,
    qfim_single_mode,
    qfim_unitary,
    readout_means,
    vacuum_overlap,
)
from modal_qcrb.states import first_moments, number_moments, quadrature_covariance
from conftest import (
    K,
    OMEGA0,
    VARIANCE,
    W0,
    hermite_gaussian_samples,
    random_density_state,
    random_mode_parameter_data,
)


def dense_ladder(levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, levels)), 1).astype(complex)


def dense_quadratic(space: FockSpace, coeff: np.ndarray) -> np.ndarray:
    """Independent dense construction of sum C_jk a_j^dag a_k."""
    a = dense_ladder(space.levels)
    eye = np.eye(space.levels, dtype=complex)
    out = np.zeros((space.dimension, space.dimension), dtype=complex)
    for j in range(space.n_modes):
        for k in range(space.n_modes):
            factors = []
            for m in range(space.n_modes):
                if m == j == k:
                    factors.append(a.conj().T @ a)
                elif m == j:
                    factors.append(a.conj().T)
                elif m == k:
                    factors.append(a)
                else:
                    factors.append(eye)
            out += coeff[j, k] * reduce(np.kron, factors)
    return out


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
        gens = generators_from_modes(["phi"], populated, [[deriv]])
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
            gens = generators_from_modes(["bad"], populated, [[drifting]])
        assert gens.hermiticity_residuals[0] == pytest.approx(1.0, rel=1e-10)


class TestQfimUnitary:
    def test_coherent_number_generator(self):
        # phase generated by N on a coherent state: 4 * Poisson variance
        state = make_state("coherent", nbar=3.0)
        f = qfim_unitary(state, np.eye(1, dtype=complex)[None])
        assert f[0, 0] == pytest.approx(4.0 * 3.0, rel=1e-8)

    def test_thermal_number_generator_vanishes(self):
        state = make_state("thermal", nbar=1.0)
        f = qfim_unitary(state, np.eye(1, dtype=complex)[None])
        assert abs(f[0, 0]) < 1e-10
        assert abs(brute_force_qfim(state, np.eye(1), np.eye(1))) < 1e-10

    def test_fock_number_generator_vanishes(self):
        state = make_state("fock", n=2)
        f = qfim_unitary(state, np.eye(1, dtype=complex)[None])
        assert abs(f[0, 0]) < 1e-12

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


class TestQfimModeSplit:
    def test_displaced_beam_coherent(self, displaced_family):
        state = make_state("coherent", nbar=2.0)
        f = qfim_mode_split(state, displaced_family)
        expected = 4.0 * 2.0 / W0**2
        assert np.allclose(np.diag(f), expected, rtol=1e-8)
        assert abs(f[0, 1]) < 1e-10

    def test_vacuum_probe_gives_zero(self, displaced_family):
        state = make_state("fock", n=0)
        f = qfim_mode_split(state, displaced_family)
        assert np.max(np.abs(f)) < 1e-12

    def test_beam_tilt_entry(self, beam_family):
        state = make_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, beam_family)
        assert f[4, 4] == pytest.approx(K**2 * W0**2, rel=1e-6)

    def test_doubling_photons_doubles_amplitude_entries(self, displaced_family):
        f1 = qfim_mode_split(make_state("coherent", nbar=1.0), displaced_family)
        f2 = qfim_mode_split(make_state("coherent", nbar=2.0), displaced_family)
        assert np.allclose(2.0 * f1, f2, rtol=1e-9)

    def test_vacuum_term_is_psd_with_bounded_trace(self, beam_family):
        # the leakage part is a Gram-type matrix; for one populated mode
        # its trace equals 4 <N> sum_a (d_a f | Pi_vac | d_a f)
        state = make_state("coherent", nbar=1.5)
        gens = build_generators(beam_family)
        full = qfim_mode_split(state, beam_family)
        pop_part = qfim_unitary(state, gens)
        leak = full - pop_part
        eigvals = np.linalg.eigvalsh((leak + leak.T) / 2.0)
        assert eigvals.min() > -1e-9 * np.max(np.abs(leak))
        mean_n, _ = number_moments(state)
        basis = beam_family.evaluate()
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
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "coherent", "nbar": 1.0},
            {"kind": "thermal", "nbar": 0.5},
            {"kind": "fock", "n": 2},
        ],
    )
    def test_agrees_with_mode_split(self, pulse_family, spec):
        from modal_qcrb import state_from_spec

        state = state_from_spec(spec)
        a = qfim_single_mode(state, pulse_family)
        b = qfim_mode_split(state, pulse_family)
        scale = max(np.max(np.abs(b)), 1e-30)
        assert np.max(np.abs(a - b)) / scale < 1e-6

    def test_amplitude_only_diagonal(self, displaced_family):
        # orthogonal real derivative modes: diagonal 4 (d_a f | d_a f) N
        state = make_state("coherent", nbar=3.0)
        f = qfim_single_mode(state, displaced_family)
        assert np.allclose(np.diag(f), 4.0 * 3.0 / W0**2, rtol=1e-8)
        assert abs(f[0, 1]) < 1e-12

    def test_pulse_group_delay_entry(self, pulse_family):
        state = make_state("coherent", nbar=1.0)
        f = qfim_single_mode(state, pulse_family)
        assert f[1, 1] == pytest.approx(4.0 * VARIANCE, rel=1e-6)

    def test_pulse_phase_entry_vanishes_for_fock(self, pulse_family):
        state = make_state("fock", n=2)
        f = qfim_single_mode(state, pulse_family)
        assert abs(f[0, 0]) < 1e-8 * np.max(np.abs(f))

    @pytest.mark.parametrize("fixture", ["beam_family", "beam_carrier_family"])
    def test_beam_variants_agree_with_mode_split(self, request, fixture):
        family = request.getfixturevalue(fixture)
        state = make_state("coherent", nbar=1.0)
        a = qfim_single_mode(state, family)
        b = qfim_mode_split(state, family)
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-6

    def test_roundoff_negative_diagonal_is_zeroed(self):
        from modal_qcrb import PulseSpectrum, gaussian_pulse_family

        family = gaussian_pulse_family(PulseSpectrum(100.0, 1.0))
        state = make_state("fock", n=2)
        for f in (qfim_single_mode(state, family), qfim_mode_split(state, family)):
            assert 0.0 <= f[0, 0] < 1e-9 * np.max(np.abs(f))

    def test_large_negative_diagonal_is_kept(self):
        from modal_qcrb.engine import _zero_roundoff_diagonal

        f = _zero_roundoff_diagonal(np.diag([-1e-12, -1e-3, 1.0]))
        assert f[0, 0] == 0.0 and f[1, 1] == -1e-3
        with pytest.raises(PreconditionError):
            crb_bounds(f)

    def test_multimode_state_rejected(self, pulse_family):
        space = FockSpace(n_modes=2, cutoff=4)
        state = make_state("fock", space, n=1)
        with pytest.raises(StructuralError):
            qfim_single_mode(state, pulse_family)


class TestQfimMeanField:
    def test_shot_noise_limit_matches_single_mode(self, displaced_family):
        n0 = 2.5
        dets = detection_modes_for(displaced_family)
        basis = displaced_family.evaluate()
        cov = quadrature_covariance(GaussianState.vacuum(1), dets, basis)
        f = qfim_mean_field(n0, dets, cov, mean_mode=basis.modes[0])
        reference = qfim_single_mode(make_state("coherent", nbar=n0), displaced_family)
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
        basis = displaced_family.evaluate()
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

    def test_fluctuation_photons_warn_when_large(self):
        from modal_qcrb import mean_field_fluctuation_check

        strained = GaussianState.squeezed([math.exp(-6.0)])  # ~100 photons
        with pytest.warns(UserWarning, match="mean-field"):
            mean_field_fluctuation_check(strained, mean_photons=4.0)


class TestAttainability:
    def test_single_parameter_always_attainable(self, displaced_family):
        gens = build_generators(displaced_family)

        state = make_state("coherent", nbar=1.0)
        result = attainability(state, gens)
        assert result.attainable
        assert np.max(np.abs(result.matrix)) < 1e-12

    def test_beam_displacement_tilt_commutator(self, beam_family):
        # Im(d_x0 f | d_tilt f) = k/2, so the commutator expectation is k N
        for nbar in (1.0, 2.5):
            state = make_state("coherent", nbar=nbar)
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
        state = make_state("thermal", nbar=nbar)
        gens = build_generators(beam_family)
        result = attainability(state, gens)
        mean_n, _ = number_moments(state)
        assert result.matrix[0, 4] == pytest.approx(K * mean_n, rel=1e-7)

    def test_antisymmetry_exact(self, beam_family):
        state = make_state("coherent", nbar=1.0)
        result = attainability(state, build_generators(beam_family))
        assert np.array_equal(result.matrix, -result.matrix.T)

    def test_rank_one_matches_overlap_form(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            populated, derivatives = random_mode_parameter_data(rng, 2, 2)
            gens = generators_from_modes(["a", "b"], populated, derivatives)
            space = FockSpace(n_modes=2, cutoff=3)
            state = random_density_state(rng, space, rank=1)
            mixed = attainability(state, gens).matrix
            pure = commutator_from_overlaps(
                gens.derivative_overlaps, first_moments(state)
            )
            assert np.max(np.abs(mixed - pure)) < 1e-10 * max(np.max(np.abs(pure)), 1.0)

    def test_real_residual_small(self, beam_family):
        state = make_state("thermal", nbar=1.0)
        result = attainability(state, build_generators(beam_family))
        assert result.real_residual < 1e-8 * max(np.max(np.abs(result.matrix)), 1.0)

    def test_matches_overlap_route_for_every_pair(self, beam_family):
        # U equals 2 Im(d_a f | d_b f) <N> for a single populated mode,
        # whatever the probe statistics
        gens = build_generators(beam_family)
        single = attainability_single_mode(beam_family)
        for spec in ({"kind": "coherent", "nbar": 1.5}, {"kind": "thermal", "nbar": 0.8}):
            from modal_qcrb import state_from_spec

            state = state_from_spec(spec)
            mean_n, _ = number_moments(state)
            u = attainability(state, gens).matrix
            expected = 2.0 * single.imaginary_overlaps * mean_n
            scale = max(np.max(np.abs(expected)), 1.0)
            assert np.max(np.abs(u - expected)) / scale < 1e-7


class TestDegenerateParameter:
    def test_zero_row_flows_to_flagged_report(self, displaced_family):
        from conftest import with_idle_parameter

        padded = with_idle_parameter(displaced_family)
        state = make_state("coherent", nbar=1.0)
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


class TestAttainabilitySingleMode:
    def test_beam_quadrature_pair(self, beam_family):
        result = attainability_single_mode(beam_family)
        assert result.normalized[0, 4] == pytest.approx(1.0, rel=1e-6)
        assert not result.pair_attainable[0, 4]
        assert not result.attainable

    def test_orthogonal_displacements_compatible(self, beam_family):
        result = attainability_single_mode(beam_family)
        assert result.pair_attainable[0, 1]
        assert abs(result.imaginary_overlaps[0, 1]) < 1e-12

    def test_pulse_fully_compatible(self, pulse_family):
        result = attainability_single_mode(pulse_family)
        assert result.attainable
        assert np.max(np.abs(result.imaginary_overlaps)) < 1e-10

    def test_waist_axial_pair_incompatible(self, beam_family):
        # numerically computed value: |Im| / (w_a w_b) = 1/sqrt(2)
        result = attainability_single_mode(beam_family)
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
        state = make_state("coherent", nbar=1.0)
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

    def test_bound_chain(self, beam_family):
        state = make_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, beam_family)
        report = crb_bounds(f, repetitions=3, labels=beam_family.parameters)
        for a in range(6):
            assert (
                report.multiparameter_bounds[a]
                >= report.single_parameter_bounds[a] - 1e-12
            )


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
        from modal_qcrb import gram_schmidt

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
