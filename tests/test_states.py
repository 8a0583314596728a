import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_qcrb import (
    ConfigError,
    CutoffError,
    DensityState,
    FockSpace,
    Mode,
    PreconditionError,
    StructuralError,
    detection_modes_for,
    make_state,
    photon_statistics,
)
import modal_qcrb
from modal_qcrb import states
from modal_qcrb.modes import _hermitian
from modal_qcrb.states import (
    PROBE_KINDS,
    first_moments,
    operator_matrix_elements,
)
from modal_qcrb.tolerances import TAU_CUTOFF, TAU_PROB
from conftest import (
    FOCK_ROUTE_PROBES,
    W0,
    GaussianState,
    ModeBasis,
    _thermal_probabilities,
    apply_quadratic,
    dense_ladder,
    dense_quadratic,
    hermite_gaussian_samples,
    number_information,
    number_moments,
    probe_state,
    quadrature_covariance,
    random_density_state,
)


def thermal_series_moment(nbar: float, power: int, terms: int) -> float:
    """Independent geometric-series oracle for thermal <N^power>.

    Summed over ``terms`` levels and renormalized, matching a truncated
    construction when ``terms`` equals its level count.
    """
    n = np.arange(terms)
    p = nbar**n / (1.0 + nbar) ** (n + 1)
    return float(np.sum(p * n.astype(float) ** power) / np.sum(p))


class TestConstructors:
    def test_fock_moments(self):
        state = probe_state("fock", n=3)
        mean, second = number_moments(state)
        assert mean == pytest.approx(3.0, abs=1e-12)
        assert second == pytest.approx(9.0, abs=1e-12)  # zero number variance

    def test_fractional_fock_number_rejected(self):
        with pytest.raises(StructuralError, match="whole number"):
            probe_state("fock", n=2.5)
        assert number_moments(probe_state("fock", n=2.0))[0] == pytest.approx(2.0)

    def test_coherent_poisson_variance(self):
        state = probe_state("coherent", nbar=4.0)
        mean, second = number_moments(state)
        assert mean == pytest.approx(4.0, rel=1e-9)
        assert second - mean**2 == pytest.approx(4.0, rel=1e-8)

    def test_thermal_second_moment_vs_series_oracle(self):
        state = probe_state("thermal", nbar=1.0)
        _, second = number_moments(state)
        # exact match to the series oracle at the same truncation,
        # and the closed form 2 nbar^2 + nbar up to the truncated tail
        oracle = thermal_series_moment(1.0, 2, terms=state.space.levels)
        assert second == pytest.approx(oracle, rel=1e-12)
        assert second == pytest.approx(3.0, rel=1e-7)

    def test_thermal_number_moments_small_nbar(self):
        state = probe_state("thermal", nbar=0.5)
        mean, second = number_moments(state)
        assert mean == pytest.approx(0.5, rel=1e-7)
        assert second == pytest.approx(1.0, rel=1e-7)

    def test_squeezed_vacuum_photon_number(self):
        r = 0.4
        state = probe_state("squeezed-vacuum", r=r)
        mean, _ = number_moments(state)
        assert mean == pytest.approx(math.sinh(r) ** 2, rel=1e-8)

    def test_squeezed_vacuum_quadrature_variance(self):
        # Fock-space check of Var(q) = exp(-2r) for the squeezed quadrature
        r = 0.4
        state = probe_state("squeezed-vacuum", r=r)
        lower = dense_ladder(state.space.levels)
        q = lower + lower.conj().T
        vec = state.vectors[:, 0]
        mean_q = float(np.real(vec.conj() @ (q @ vec)))
        var_q = float(np.real(vec.conj() @ (q @ (q @ vec)))) - mean_q**2
        assert var_q == pytest.approx(math.exp(-2 * r), rel=1e-8)

    def test_trace_normalized_and_orthonormal(self):
        for spec in (
            {"kind": "coherent", "nbar": 2.5},
            {"kind": "thermal", "nbar": 1.5},
            {"kind": "fock", "n": 4},
            {"kind": "squeezed-vacuum", "r": 0.3, "phi": 0.7},
        ):
            state = probe_state(**spec)
            assert state.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
            gram = state.vectors.conj().T @ state.vectors
            assert np.max(np.abs(gram - np.eye(state.rank))) < 1e-10

    def test_small_cutoff_raises_with_suggestion(self):
        space = FockSpace(n_modes=1, cutoff=4)
        with pytest.raises(CutoffError) as err:
            probe_state("coherent", space, nbar=6.0)
        assert err.value.suggested_cutoff is not None
        assert err.value.suggested_cutoff > 4

    def test_cap_exceeded_raises(self):
        with pytest.raises(CutoffError):
            probe_state("thermal", nbar=8.0)

    @pytest.mark.parametrize(
        "n_modes, cutoff, error, match",
        [
            (0, 3, StructuralError, "at least one mode"),
            (1, 0, StructuralError, "cutoff must be at least 1"),
            (1, 65, CutoffError, "exceeds the hard cap 64"),
        ],
        ids=["no-modes", "zero-cutoff", "above-the-cap"],
    )
    def test_fock_space_outside_its_bounds_rejected(self, n_modes, cutoff, error, match):
        with pytest.raises(error, match=match):
            FockSpace(n_modes, cutoff)

    def test_cutoff_robustness(self):
        # moments move by less than the truncated weighted tail when the
        # cutoff grows by 4 levels
        for spec in (
            {"kind": "coherent", "nbar": 2.0},
            {"kind": "thermal", "nbar": 1.0},
        ):
            base = probe_state(**spec)
            bigger = probe_state(**spec, space=FockSpace(1, base.space.cutoff + 4))
            m1 = np.array(number_moments(base))
            m2 = np.array(number_moments(bigger))
            assert np.max(np.abs(m1 - m2) / np.abs(m2)) < 1e-7

    def test_custom_state_roundtrip(self):
        space = FockSpace(n_modes=1, cutoff=3)
        vectors = np.eye(4, 2, dtype=complex)
        state = make_state(
            "custom", space, probabilities=[0.75, 0.25], vectors=vectors
        )
        assert state.rank == 2
        mean, _ = number_moments(state)
        assert mean == pytest.approx(0.25, abs=1e-12)


class TestMakeState:
    """make_state builds custom states only; a named kind is photon_statistics."""

    def test_custom_form_is_the_density_state(self):
        space = FockSpace(n_modes=2, cutoff=3)
        expected = random_density_state(np.random.default_rng(5), space, rank=3)
        state = make_state(
            "custom",
            space,
            probabilities=list(expected.probabilities),
            vectors=expected.vectors.tolist(),
        )
        assert isinstance(state, DensityState) and state.space == space
        assert state.probabilities.dtype == float and state.vectors.dtype == complex
        assert np.array_equal(state.probabilities, expected.probabilities)
        assert np.array_equal(state.vectors, expected.vectors)

    @pytest.mark.parametrize("spec", [{"kind": "coherent", "nbar": 1.0}, {"kind": "fock", "n": 2}], ids=str)
    def test_named_kind_points_to_photon_statistics(self, spec):
        with pytest.raises(StructuralError, match="photon_statistics"):
            make_state(**spec)
        with pytest.raises(StructuralError, match="photon_statistics"):
            make_state(spec["kind"], FockSpace(1, 8))

    @pytest.mark.parametrize("given", ["probabilities", "vectors"])
    def test_missing_array_is_a_type_error(self, given):
        arrays = {"probabilities": [1.0], "vectors": np.eye(4, 1)}
        with pytest.raises(TypeError):
            make_state("custom", FockSpace(1, 3), **{given: arrays[given]})

    def test_custom_state_needs_a_space(self):
        with pytest.raises(StructuralError, match="explicit space"):
            make_state("custom", probabilities=[1.0], vectors=np.eye(4, 1))


class TestDensityStateChecks:
    """Every check of a state's arrays fails closed on a non-finite value."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability(self, bad):
        with pytest.raises(StructuralError, match="non-finite"):
            DensityState(FockSpace(1, 4), [bad, 0.5], np.eye(5)[:, :2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_eigenvector(self, bad):
        vectors = np.eye(5, 2, dtype=complex)
        vectors[1, 0] = bad
        with pytest.raises(StructuralError, match="non-finite"):
            DensityState(FockSpace(1, 4), [0.5, 0.5], vectors)

    @pytest.mark.parametrize(
        "probabilities, vectors, match",
        [
            ([0.5, 0.5], np.eye(5)[:, :3], "do not match"),
            ([0.25, 0.25], np.eye(5)[:, :2], "sum to 0.5"),
        ],
        ids=["mismatched-shapes", "half-the-probability"],
    )
    def test_malformed_decomposition_rejected(self, probabilities, vectors, match):
        with pytest.raises(StructuralError, match=match):
            DensityState(FockSpace(1, 4), probabilities, vectors)

    def test_weight_at_the_cutoff_suggests_a_larger_one(self):
        with pytest.raises(CutoffError) as err:
            DensityState(FockSpace(1, 3), [1.0], np.eye(4)[:, 3:])
        assert err.value.suggested_cutoff == 6

    def test_finite_state_is_accepted(self):
        state = DensityState(FockSpace(1, 4), [0.5, 0.5], np.eye(5)[:, :2])
        assert first_moments(state)[0, 0].real == pytest.approx(0.5)


class TestPhotonStatistics:
    @pytest.mark.parametrize("spec", FOCK_ROUTE_PROBES, ids=str)
    def test_matches_truncated_fock_route(self, spec):
        state = probe_state(**spec)
        mean, _ = number_moments(state)
        statistics = photon_statistics(spec)
        assert statistics.mean == pytest.approx(mean, rel=1e-8, abs=1e-12)
        assert statistics.number_information == pytest.approx(
            number_information(state), rel=1e-6, abs=1e-12
        )

    def test_squeezing_angle_does_not_enter(self):
        spec = {"kind": "squeezed-vacuum", "r": 0.8}
        assert photon_statistics(spec | {"phi": 1.3}) == photon_statistics(spec)

    @pytest.mark.parametrize("r", [400.0, -400.0, 800.0])
    def test_overflow_names_the_field(self, r):
        with pytest.raises(PreconditionError, match=r"^state\.r: "):
            photon_statistics({"kind": "squeezed-vacuum", "r": r})


def suggested_cutoff(spec: dict) -> int:
    """The cutoff probe_state picks for a spec, or suggests beyond the cap."""
    try:
        return probe_state(**spec).space.cutoff
    except CutoffError as err:
        return err.suggested_cutoff


class TestProbeSpecs:
    """probe_state and photon_statistics check a spec as the CLI does."""

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "coherent", "nbar": -1.0}, "state.nbar"),
            ({"kind": "fock", "n": 2.5}, "state.n"),
            ({"kind": "coherent", "nbar": math.nan}, "state.nbar"),
            ({"kind": "thermal", "nbar": 1.0, "bogus": 3}, "state.bogus"),
            ({"kind": "coherent", "nbar": 1.0, "alpha": 1.0}, "state.alpha"),
            ({"kind": "squeezed-vacuum", "phi": 0.5}, "state.r"),
            ({"kind": "fock", "n": True}, "state.n"),
            ({"kind": "cat"}, "state.kind"),
        ],
        ids=["negative", "fractional", "nan", "unknown", "alpha", "missing", "boolean", "kind"],
    )
    def test_bad_field_is_named(self, spec, field):
        pattern = f"^{re.escape(field)}: "
        with pytest.raises(ConfigError, match=pattern):
            photon_statistics(spec)
        with pytest.raises(ConfigError, match=pattern):
            probe_state(**spec)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(sorted(PROBE_KINDS)),
        values=st.dictionaries(
            st.sampled_from(["nbar", "n", "r", "phi"]),
            st.one_of(st.floats(), st.integers(-5, 10**6), st.sampled_from([-0.0, 1e308, 10**400])),
        ),
    )
    def test_accepted_specs_have_non_negative_statistics(self, kind, values):
        try:
            statistics = photon_statistics({"kind": kind} | values)
        except (ConfigError, PreconditionError):
            return
        assert statistics.mean >= 0.0 and statistics.number_information >= 0.0

    @pytest.mark.parametrize(
        "spec, cutoff",
        [
            ({"kind": "coherent", "nbar": 0.0}, 1),
            ({"kind": "coherent", "nbar": 1e-12}, 1),
            ({"kind": "coherent", "nbar": 1e-6}, 2),
            ({"kind": "coherent", "nbar": 0.1}, 7),
            ({"kind": "coherent", "nbar": 1.0}, 13),
            ({"kind": "coherent", "nbar": 4.0}, 23),
            ({"kind": "coherent", "nbar": 25.0}, 64),
            ({"kind": "coherent", "nbar": 30.0}, 72),
            ({"kind": "coherent", "nbar": 100.0}, 171),
            ({"kind": "coherent", "nbar": 1e6}, 257),
            ({"kind": "fock", "n": 0}, 1),
            ({"kind": "fock", "n": 5}, 6),
            ({"kind": "fock", "n": 63}, 64),
            ({"kind": "fock", "n": 200}, 201),
            ({"kind": "squeezed-vacuum", "r": 0.0}, 1),
            ({"kind": "squeezed-vacuum", "r": 1e-6}, 1),
            ({"kind": "squeezed-vacuum", "r": 0.1}, 9),
            ({"kind": "squeezed-vacuum", "r": -0.3, "phi": 0.7}, 17),
            ({"kind": "squeezed-vacuum", "r": 1.0}, 77),
            ({"kind": "squeezed-vacuum", "r": 1.5}, 211),
            ({"kind": "squeezed-vacuum", "r": 2.0}, 257),
        ],
        ids=str,
    )
    def test_pinned_cutoffs(self, spec, cutoff):
        assert suggested_cutoff(spec) == cutoff

    def test_thermal_cutoff_is_the_smallest_within_budget(self):
        # P(N >= c) = q^c; every state that fits passes the boundary check
        for nbar in np.linspace(0.01, 2.3, 230):
            q = nbar / (1.0 + nbar)
            c = suggested_cutoff({"kind": "thermal", "nbar": nbar})
            assert q**c <= TAU_CUTOFF * (1 + 1e-5) and q ** (c - 1) > TAU_CUTOFF * (1 - 1e-5)

    @pytest.mark.parametrize("nbar", [0.0, 0.3, 2.0, 20.0])
    def test_coherent_amplitudes_match_the_poisson_form(self, nbar):
        state = probe_state("coherent", nbar=nbar)
        n = np.arange(state.space.levels)
        expected = np.array([math.sqrt(nbar**k / math.factorial(k)) for k in n])
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(state.vectors[:, 0] - expected)) < 1e-15

    @pytest.mark.parametrize("r, phi", [(0.3, 0.0), (-0.7, 1.1), (0.5, -2.0)])
    def test_squeezed_amplitudes_match_the_closed_form(self, r, phi):
        state = probe_state("squeezed-vacuum", r=r, phi=phi)
        expected = np.zeros(state.space.levels, dtype=complex)
        for m in range((state.space.levels + 1) // 2):
            expected[2 * m] = (-np.exp(1j * phi) * math.tanh(r)) ** m * math.sqrt(
                math.factorial(2 * m)
            ) / (2**m * math.factorial(m))
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(state.vectors[:, 0] - expected)) < 1e-15


def two_mode_superposition() -> tuple[FockSpace, np.ndarray]:
    space = FockSpace(n_modes=2, cutoff=2)
    vec = np.zeros(space.dimension, dtype=complex)
    levels = space.levels
    vec[1 * levels + 0] = 1.0 / math.sqrt(2)  # one photon in mode 0
    vec[0 * levels + 1] = 1.0 / math.sqrt(2)  # one photon in mode 1
    return space, vec


class TestMoments:
    def test_vacuum_first_moments_vanish(self):
        state = probe_state("fock", n=0)
        assert np.allclose(first_moments(state), 0.0)

    def test_coherent_occupation(self):
        space = FockSpace(n_modes=2, cutoff=24)
        state = probe_state("coherent", space, nbar=3.0, mode=0)
        m = first_moments(state)
        assert m[0, 0].real == pytest.approx(3.0, rel=1e-9)
        assert abs(m[0, 1]) < 1e-12
        assert abs(m[1, 1]) < 1e-12

    def test_single_photon_superposition_coherences(self):
        space, vec = two_mode_superposition()
        state = make_state("custom", space, probabilities=[1.0], vectors=vec[:, None])
        m = first_moments(state)
        assert m[0, 1] == pytest.approx(0.5 + 0.0j, abs=1e-12)
        assert m[0, 0].real == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_formed_once_per_state(self):
        # qfim_mode_split and attainability read one read-only array, the
        # table's einsum bit for bit
        state = random_density_state(np.random.default_rng(8), FockSpace(n_modes=2, cutoff=4), 3)
        moments = first_moments(state)
        assert first_moments(state) is moments
        assert not moments.flags.writeable
        expected = np.einsum("m,jmlm->jl", state.probabilities, state.lowered_table.gram)
        assert moments.tobytes() == expected.tobytes()

    def test_trace_is_mean_photon_number(self):
        state = probe_state("thermal", nbar=0.7)
        mean, _ = number_moments(state)
        assert np.trace(first_moments(state)).real == pytest.approx(mean, abs=1e-12)

    def test_second_moment_bound(self):
        for spec in ({"kind": "coherent", "nbar": 1.3}, {"kind": "thermal", "nbar": 0.9}):
            mean, second = number_moments(probe_state(**spec))
            assert second >= mean**2 - 1e-12


class TestOperatorMatrixElements:
    def test_number_operator_on_fock(self):
        state = probe_state("fock", n=3)
        block = operator_matrix_elements(state, np.eye(1))
        assert block.shape == (1, 1)
        assert block[0, 0].real == pytest.approx(3.0, abs=1e-12)

    def test_number_operator_on_coherent(self):
        state = probe_state("coherent", nbar=2.0)
        block = operator_matrix_elements(state, np.eye(1))
        assert block[0, 0].real == pytest.approx(2.0, rel=1e-9)

    def test_generator_coefficients_accepted_directly(self, pulse_family):
        from modal_qcrb import build_generators

        gens = build_generators(pulse_family)
        state = probe_state("coherent", nbar=1.0)
        stacked = operator_matrix_elements(state, gens)
        assert stacked.shape == (3, 1, 1)
        single = operator_matrix_elements(state, gens.matrices[0])
        assert single[0, 0] == pytest.approx(stacked[0, 0, 0])

    def test_hop_transfer_between_single_photon_states(self):
        # mixed state over |1,0> and |0,1>; a swap coupling moves one to
        # the other with unit matrix element
        space, vec = two_mode_superposition()
        levels = space.levels
        v10 = np.zeros(space.dimension, dtype=complex)
        v10[1 * levels + 0] = 1.0
        v01 = np.zeros(space.dimension, dtype=complex)
        v01[0 * levels + 1] = 1.0
        state = make_state(
            "custom",
            space,
            probabilities=[0.5, 0.5],
            vectors=np.stack([v10, v01], axis=1),
        )
        coupling = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        block = operator_matrix_elements(state, coupling)
        assert abs(block[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(block[0, 0]) < 1e-12
        assert np.max(np.abs(block - block.conj().T)) < 1e-12


class TestApplyQuadratic:
    @pytest.mark.parametrize("n_modes, cutoff", [(1, 6), (2, 4), (3, 3)])
    def test_matches_dense_operator(self, n_modes, cutoff):
        # random columns carry amplitude at the cutoff level, so the raised
        # amplitude the truncated operator drops is exercised
        rng = np.random.default_rng(40 + n_modes)
        space = FockSpace(n_modes=n_modes, cutoff=cutoff)
        vectors = rng.normal(size=(space.dimension, 3)) + 1j * rng.normal(size=(space.dimension, 3))
        for _ in range(3):
            coeff = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
            expected = dense_quadratic(space, coeff) @ vectors
            got = apply_quadratic(space, coeff, vectors)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_rejects_coefficient_shape(self):
        space = FockSpace(n_modes=2, cutoff=2)
        with pytest.raises(StructuralError, match="coefficient shape"):
            apply_quadratic(space, np.eye(3), np.zeros((space.dimension, 1)))

    def test_number_moments_of_random_multimode_state(self):
        rng = np.random.default_rng(12)
        space = FockSpace(n_modes=3, cutoff=3)
        state = random_density_state(rng, space, rank=3)
        mean, second = number_moments(state)
        assert mean == pytest.approx(np.trace(first_moments(state)).real, rel=1e-12)
        n_op = dense_quadratic(space, np.eye(3))
        dense = sum(
            p * np.real(v.conj() @ (n_op @ (n_op @ v)))
            for p, v in zip(state.probabilities, state.vectors.T)
        )
        assert second == pytest.approx(dense, rel=1e-12)


def _hermitian_states():
    """States whose lowered table and correlations are pinned Hermitian bitwise."""
    rng = np.random.default_rng(71)
    for n_modes, cutoff in ((1, 20), (2, 5), (3, 3)):
        space = FockSpace(n_modes=n_modes, cutoff=cutoff)
        for rank in (1, 2, 8):
            yield f"m{n_modes}-r{rank}", random_density_state(rng, space, rank)

    # number-basis columns
    space = FockSpace(n_modes=2, cutoff=4)
    vectors = np.eye(space.dimension)[:, [0, 6, 8, 12]]
    yield "number-basis", make_state(
        "custom", space, probabilities=[0.4, 0.3, 0.2, 0.1], vectors=vectors
    )

    # a product of thermal distributions, some probabilities below TAU_PROB
    space = FockSpace(n_modes=2, cutoff=15)
    probs = np.outer(
        _thermal_probabilities(space.levels, 0.25), _thermal_probabilities(space.levels, 0.1)
    ).ravel()
    state = make_state(
        "custom", space, probabilities=probs / probs.sum(), vectors=np.eye(space.dimension)
    )
    assert np.any(state.probabilities < TAU_PROB)
    yield "thermal-product", state

    # mode 1 in vacuum, and one eigenvector the vacuum itself: all-zero
    # lowered columns beside non-zero ones
    space = FockSpace(n_modes=2, cutoff=6)
    support = np.arange(1, space.cutoff) * space.levels  # n_0 = 1 .. cutoff - 1, n_1 = 0
    raw = rng.normal(size=(support.size, 3)) + 1j * rng.normal(size=(support.size, 3))
    vectors = np.zeros((space.dimension, 4), dtype=complex)
    vectors[0, 0] = 1.0
    vectors[support, 1:] = np.linalg.qr(raw)[0]
    state = make_state("custom", space, probabilities=[0.4, 0.3, 0.2, 0.1], vectors=vectors)
    lowered = state.lowered_table.lowered
    assert not lowered[1].any() and not lowered[0, :, 0].any() and lowered[0].any()
    yield "vacuum-columns", state

    # eigenvectors that are a column slice of a wider array
    template = random_density_state(rng, FockSpace(n_modes=3, cutoff=3), rank=5)
    wide = np.concatenate([template.vectors, np.zeros_like(template.vectors)], axis=1)
    state = make_state(
        "custom", template.space, probabilities=template.probabilities, vectors=wide[:, :5]
    )
    assert not state.vectors.flags.c_contiguous
    yield "sliced-columns", state


HERMITIAN_STATES = dict(_hermitian_states())


@pytest.mark.parametrize("name", HERMITIAN_STATES)
def test_lowered_table_and_correlations_are_hermitian_as_built(name):
    # the lowered Gram is read off S = X^T X of one contiguous buffer, which
    # numpy forms symmetric to the bit, and the correlations sum its
    # diagonal blocks: neither is symmetrized again, so each must be its
    # own _hermitian to the byte, with a +0.0 imaginary diagonal
    state = HERMITIAN_STATES[name]
    m, r = state.space.n_modes, state.rank
    gram = state.lowered_table.gram.reshape(m * r, m * r)
    for table in (gram, state.correlations):
        assert table.tobytes() == _hermitian(table).tobytes()
        diagonal = table.diagonal().imag
        assert np.all(diagonal == 0.0) and not np.signbit(diagonal).any()


def strided_ladder(space, vectors, mode, out, raising=False):
    """The ladder shift as a strided multiply over the occupation tensor.

    The former body of ``states._ladder``: a (L - 1, 1) root column times
    a (..., L^mode, L, s r) view, so the inner loop runs over the last
    axis.  Kept as the bitwise reference of the contiguous form.
    """
    levels = space.levels
    shape = vectors.shape[:-2] + (levels**mode, levels, -1)
    tensor = vectors.reshape(shape)
    target = out.reshape(shape)
    root = np.sqrt(np.arange(1.0, levels))[:, None]
    below, above = slice(None, -1), slice(1, None)
    source, written, cleared = (below, above, 0) if raising else (above, below, -1)
    np.multiply(root, tensor[..., source, :], out=target[..., written, :])
    target[..., cleared, :] = 0.0


class TestLadderShift:
    @staticmethod
    def columns(rng, shape):
        # signed zeros and subnormals among the amplitudes, so that the sign
        # and the last bit of every product are compared
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v.flat[::7] = -0.0
        v.flat[::11] = complex(-0.0, -0.0)
        v.flat[::13] = complex(1e-310, -1e-320)
        return v

    @pytest.mark.parametrize("rank", [1, 2, 8])
    @pytest.mark.parametrize("cutoff", [1, 2, 10])
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_bitwise_equal_to_the_strided_shift(self, n_modes, cutoff, rank):
        space = FockSpace(n_modes=n_modes, cutoff=cutoff)
        rng = np.random.default_rng(100 * n_modes + 10 * cutoff + rank)
        for lead in ((), (n_modes,)):  # one (D, r) block and an (M, D, r) stack
            vectors = self.columns(rng, lead + (space.dimension, rank))
            for mode in range(n_modes):
                for raising in (False, True):
                    expected = np.full_like(vectors, np.nan)
                    got = np.full_like(vectors, np.nan)
                    strided_ladder(space, vectors, mode, expected, raising)
                    states._ladder(space, vectors, mode, got, raising)
                    assert got.tobytes() == expected.tobytes(), (lead, mode, raising)

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 4), (2, 3), (3, 2)])
    def test_matches_dense_operator(self, n_modes, cutoff):
        space = FockSpace(n_modes=n_modes, cutoff=cutoff)
        rng = np.random.default_rng(60 + n_modes)
        vectors = rng.normal(size=(space.dimension, 3)) + 1j * rng.normal(size=(space.dimension, 3))
        eye = np.eye(space.levels)
        for mode in range(n_modes):
            factors = [eye] * n_modes
            factors[mode] = dense_ladder(space.levels)
            lower = factors[0]
            for factor in factors[1:]:
                lower = np.kron(lower, factor)
            for raising, dense in ((False, lower), (True, lower.conj().T)):
                expected = dense @ vectors
                got = np.empty_like(vectors)
                states._ladder(space, vectors, mode, got, raising)
                assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_package_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(modal_qcrb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, modal_qcrb; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestGaussianStates:
    def test_uncertainty_violation_rejected(self):
        with pytest.raises(StructuralError):
            GaussianState(np.zeros(2), 0.5 * np.eye(2))

    def test_vacuum_covariance_of_orthonormal_targets(self, displaced_family):
        dets = detection_modes_for(displaced_family)
        basis = ModeBasis(displaced_family.evaluate())
        cov = quadrature_covariance(GaussianState.vacuum(1), dets, basis)
        assert np.allclose(cov, np.eye(2), atol=1e-10)

    def test_vacuum_covariance_with_overlapping_targets(self, displaced_family):
        # commutator algebra: vacuum Cov(q_a, q_b) = Re(overlap)
        from modal_qcrb import DetectionMode

        grid = displaced_family.grid
        overlap = 0.6 + 0.3j
        g1 = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        g2 = Mode(grid, hermite_gaussian_samples(grid, 2, 0, W0))
        mixed = Mode(
            grid, overlap * g1.samples + math.sqrt(1 - abs(overlap) ** 2) * g2.samples
        )
        targets = [
            DetectionMode(mode=g1, weight=1.0, label="a"),
            DetectionMode(mode=mixed, weight=1.0, label="b"),
        ]
        basis = ModeBasis(displaced_family.evaluate())
        cov = quadrature_covariance(GaussianState.vacuum(1), targets, basis)
        assert cov[0, 1] == pytest.approx(overlap.real, abs=1e-10)

    def test_squeezed_variance_passes_through(self, displaced_family):
        basis = ModeBasis(displaced_family.evaluate())
        f0 = basis.modes[0]
        from modal_qcrb import DetectionMode

        target = [DetectionMode(mode=f0, weight=1.0, label="aligned")]
        v = 0.37
        cov = quadrature_covariance(GaussianState.squeezed([v]), target, basis)
        assert cov[0, 0] == pytest.approx(v, abs=1e-10)

    def test_cross_representation_coherent(self, displaced_family):
        # Fock-space symmetrized covariance of the reference quadratures
        # must match the Gaussian-state path within 1e-8
        basis = ModeBasis(displaced_family.evaluate())
        f0 = basis.modes[0]
        from modal_qcrb import DetectionMode

        state = probe_state("coherent", nbar=1.5)
        a = dense_ladder(state.space.levels)
        q = a + a.conj().T
        vec = state.vectors[:, 0]
        mean_q = float(np.real(vec.conj() @ (q @ vec)))
        var_fock = float(np.real(vec.conj() @ (q @ (q @ vec)))) - mean_q**2

        gauss = GaussianState.coherent([math.sqrt(1.5)])
        cov = quadrature_covariance(
            gauss, [DetectionMode(mode=f0, weight=1.0, label="ref")], basis
        )
        assert cov[0, 0] == pytest.approx(var_fock, abs=1e-8)

    def test_span_plus_remainder_against_fock_oracle(self, displaced_family):
        # target (f0 + HG10)/sqrt(2) with f0 squeezed: Cov = (v + 1)/2,
        # checked against a two-mode Fock computation
        r = 0.45
        v = math.exp(-2 * r)
        grid = displaced_family.grid
        basis = ModeBasis(displaced_family.evaluate())
        f0 = basis.modes[0]
        g = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
        from modal_qcrb import DetectionMode

        mixed = Mode(grid, (f0.samples + g.samples) / math.sqrt(2))
        cov = quadrature_covariance(
            GaussianState.squeezed([v]),
            [DetectionMode(mode=mixed, weight=1.0, label="mix")],
            basis,
        )
        # independent Fock oracle: squeezed (x) vacuum, q = (q0 + q1)/sqrt(2)
        sq = probe_state("squeezed-vacuum", r=r)
        space2 = FockSpace(n_modes=2, cutoff=sq.space.cutoff)
        column = sq.vectors[:, 0]
        vacuum = np.zeros(space2.levels, dtype=complex)
        vacuum[0] = 1.0
        vec = np.kron(column, vacuum)
        lower = dense_ladder(space2.levels)
        eye = np.eye(space2.levels)
        a0 = np.kron(lower, eye)
        a1 = np.kron(eye, lower)
        qop = (a0 + a0.conj().T + a1 + a1.conj().T) / math.sqrt(2)
        mean_q = float(np.real(vec.conj() @ (qop @ vec)))
        var_fock = float(np.real(vec.conj() @ (qop @ (qop @ vec)))) - mean_q**2
        assert cov[0, 0] == pytest.approx((v + 1) / 2, rel=1e-8)
        assert cov[0, 0] == pytest.approx(var_fock, rel=1e-7)

    def test_reference_must_be_orthonormal(self, displaced_family):
        f0 = displaced_family.evaluate_mode(0)
        from modal_qcrb import DetectionMode

        bad = ModeBasis((f0, Mode(f0.grid, 0.9 * f0.samples)))
        with pytest.raises(StructuralError):
            quadrature_covariance(
                GaussianState.vacuum(2),
                [DetectionMode(mode=f0, weight=1.0, label="x")],
                bad,
            )
