import re
import warnings

import numpy as np
import pytest

from modal_qcrb import (
    BeamGeometry,
    EvaluationError,
    GridResolutionError,
    PreconditionError,
    PulseSpectrum,
    SampleGrid,
    StructuralError,
    build_family,
    derivative_mode,
    displaced_beam_family,
    finite_difference_family,
    gaussian_beam_family,
    gaussian_pulse_family,
    photon_statistics,
    qfim_mode_split,
    qfim_single_mode,
)
from modal_qcrb import families
from modal_qcrb.families import FAMILY_REGISTRY
from modal_qcrb.tolerances import TAU_ZERO
from conftest import (
    K,
    OMEGA0,
    VARIANCE,
    W0,
    inner_product,
    mode_norm,
    number_information,
    number_moments,
    probe_state,
)

PROBES = (
    {"kind": "coherent", "nbar": 1.5},
    {"kind": "fock", "n": 2},
    {"kind": "thermal", "nbar": 0.8},
)


def all_families():
    return {
        "gaussian-beam": gaussian_beam_family(BeamGeometry(W0, K)),
        "gaussian-beam-carrier": gaussian_beam_family(
            BeamGeometry(W0, K), carrier_phase=True
        ),
        "gaussian-pulse": gaussian_pulse_family(PulseSpectrum(OMEGA0, VARIANCE)),
        "displaced-beam": displaced_beam_family(W0),
    }


class TestOracleAgreement:
    @pytest.mark.parametrize("spec", PROBES, ids=lambda s: s["kind"])
    @pytest.mark.parametrize("name", sorted(FAMILY_REGISTRY))
    def test_engine_matches_closed_form(self, request, name, spec):
        family = all_families()[name]
        state = probe_state(**spec)
        mean_n, _ = number_moments(state)
        info = number_information(state)
        oracle = family.oracle_qfim(mean_n, info)
        engine = qfim_mode_split(state, family)
        scale = max(np.max(np.abs(oracle)), 1e-30)
        assert np.max(np.abs(engine - oracle)) / scale < 1e-4

    @pytest.mark.parametrize(
        "spec",
        [{"kind": kind, "nbar": nbar} for kind in ("coherent", "thermal") for nbar in (1e3, 1e6)],
        ids=str,
    )
    def test_bright_probe_matches_closed_form(self, spec):
        # far beyond any Fock truncation: the one-mode route reads <N> and I_N
        statistics = photon_statistics(spec)
        for name, family in all_families().items():
            oracle = family.oracle_qfim(statistics.mean, statistics.number_information)
            engine = qfim_single_mode(statistics, family)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(engine - oracle)) / scale < 1e-4, name


class TestDerivativeNorms:
    def test_displacement_norm(self, beam_family):
        d = derivative_mode(beam_family, 0, 0)
        assert mode_norm(d) ** 2 == pytest.approx(1.0 / W0**2, rel=1e-6)

    def test_tilt_norm(self, beam_family):
        d = derivative_mode(beam_family, 0, 4)
        assert mode_norm(d) ** 2 == pytest.approx(K**2 * W0**2 / 4.0, rel=1e-6)

    def test_group_delay_norm(self, pulse_family):
        d = derivative_mode(pulse_family, 0, 1)
        assert mode_norm(d) ** 2 == pytest.approx(VARIANCE, rel=1e-6)

    def test_axial_norm(self, beam_family):
        # <(1 - r^2/w0^2)^2> = 1/2 over the reference intensity
        zr = K * W0**2 / 2.0
        d = derivative_mode(beam_family, 0, 2)
        assert mode_norm(d) ** 2 == pytest.approx(0.5 / zr**2, rel=1e-6)

    def test_waist_norm(self, beam_family):
        d = derivative_mode(beam_family, 0, 3)
        assert mode_norm(d) ** 2 == pytest.approx(1.0 / W0**2, rel=1e-6)


class TestSymmetryAndNormalization:
    def test_x_y_exchange_maps_information_matrix(self, beam_family):
        state = probe_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, beam_family)
        swap = [1, 0, 2, 3, 5, 4]  # x0<->y0, tilt_x<->tilt_y
        swapped = f[np.ix_(swap, swap)]
        assert np.allclose(f, swapped, atol=1e-6 * np.max(np.abs(f)))

    def test_oracle_symmetric_exactly(self, beam_family):
        oracle = beam_family.oracle_qfim(1.0, 4.0)
        swap = [1, 0, 2, 3, 5, 4]
        assert np.array_equal(oracle, oracle[np.ix_(swap, swap)])

    @pytest.mark.parametrize("name", sorted(FAMILY_REGISTRY))
    def test_norm_preserved_along_parameters(self, name):
        family = all_families()[name]
        f = family.evaluate_mode(0)
        for a in range(family.n_parameters):
            d = derivative_mode(family, 0, a)
            assert abs(inner_product(f, d).real) < 1e-6

    @pytest.mark.parametrize("name", sorted(FAMILY_REGISTRY))
    def test_reference_mode_normalized(self, name):
        family = all_families()[name]
        f = family.evaluate_mode(0)
        assert abs(inner_product(f, f) - 1.0) < 1e-6


class TestCarrierVariant:
    @pytest.mark.parametrize("waist, wavenumber", [(1.0, 0.5), (1.0, 10.0), (2.0, 300.0)])
    def test_z0_scale_is_the_shorter_length(self, waist, wavenumber):
        # the carrier e^{ikz0} turns over 1/k; the envelope over z_R
        geometry = BeamGeometry(waist, wavenumber)
        plain = gaussian_beam_family(geometry, points=64)
        carrier = gaussian_beam_family(geometry, carrier_phase=True, points=64)
        zr = geometry.rayleigh_range
        assert plain.theta_scales[2] == zr
        assert carrier.theta_scales[2] == min(zr, 1.0 / wavenumber)
        assert np.array_equal(np.delete(plain.theta_scales, 2), np.delete(carrier.theta_scales, 2))

    @pytest.mark.parametrize("kw0", [1.0, 2.0, 10.0, 80.0, 600.0, 6000.0])
    def test_z0_weight_stays_far_above_its_degeneracy_floor(self, kw0):
        # the floor TAU_ZERO / scale rises with the 1/k scale to TAU_ZERO k,
        # while the carrier's z0 weight is about k: no degenerate flag moves
        family = gaussian_beam_family(BeamGeometry(1.0, kw0), carrier_phase=True)
        weight = float(family.overlap_table.weights[2, 0])
        floor = TAU_ZERO / max(abs(float(family.theta_scales[2])), TAU_ZERO)
        assert weight > 1e9 * floor

    def test_axial_entry_differs_from_base(self, beam_family, beam_carrier_family):
        state = probe_state("coherent", nbar=1.0)
        base = qfim_mode_split(state, beam_family)
        carrier = qfim_mode_split(state, beam_carrier_family)
        assert carrier[2, 2] > 10.0 * base[2, 2]
        mask = np.ones((6, 6), dtype=bool)
        mask[2, 2] = False
        assert np.allclose(base[mask], carrier[mask], atol=1e-8 * np.max(np.abs(base)))

    def test_carrier_axial_overlap(self, beam_carrier_family):
        # (f | d_z0 f) = i (1/(2 zr) - k): the carrier shifts the
        # imaginary overlap by -k
        f = beam_carrier_family.evaluate_mode(0)
        d = derivative_mode(beam_carrier_family, 0, 2)
        zr = K * W0**2 / 2.0
        value = inner_product(f, d)
        assert value.imag == pytest.approx(1.0 / (2.0 * zr) - K, rel=1e-8)
        assert abs(value.real) < 1e-10

    def test_off_diagonals_reported_small(self, beam_carrier_family):
        # computed, not asserted against a closed form: the carrier family
        # still yields a numerically diagonal matrix at this geometry
        state = probe_state("coherent", nbar=1.0)
        f = qfim_mode_split(state, beam_carrier_family)
        off = f - np.diag(np.diag(f))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(f))


class TestRegistry:
    def test_contents(self):
        assert sorted(FAMILY_REGISTRY) == [
            "displaced-beam",
            "gaussian-beam",
            "gaussian-beam-carrier",
            "gaussian-pulse",
        ]
        for entry in FAMILY_REGISTRY.values():
            assert "geometry" in entry and "parameters" in entry

    def test_build_family_dispatch(self):
        family = build_family("gaussian-pulse", {"omega0": OMEGA0, "variance": VARIANCE})
        assert family.parameters == ("t_phase", "t_group", "t_gvd")

    def test_unknown_family_lists_registry(self):
        with pytest.raises(StructuralError) as err:
            build_family("nope", {})
        assert "gaussian-pulse" in str(err.value)

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridResolutionError):
            gaussian_beam_family(BeamGeometry(W0, K), points=8)

    def test_grid_override(self):
        family = build_family("displaced-beam", {"w0": W0}, points=128)
        assert family.grid.shape == (128, 128)

    def test_collapsing_waist_is_an_evaluation_error(self, beam_family):
        from modal_qcrb import EvaluationError

        theta = np.zeros(6)
        theta[3] = -2.0 * W0
        with pytest.raises(EvaluationError):
            beam_family.evaluate_mode(0, theta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "wavenumber, parameter, value",
        # z0 / z_R overflows; a waist of 2^-53 sends z_R^2 below the
        # smallest double, so the curvature divides 0 by 0
        [(K, 2, 1e300), (1e-150, 3, -(1.0 - 2.0**-53))],
        ids=["overflow", "zero-division"],
    )
    def test_beam_scalars_out_of_range_are_an_evaluation_error(
        self, wavenumber, parameter, value
    ):
        family = gaussian_beam_family(BeamGeometry(1.0, wavenumber), points=64)
        theta = np.zeros(6)
        theta[parameter] = value
        with pytest.raises(EvaluationError, match="double-precision range"):
            family.evaluate_mode(0, theta)

    @pytest.mark.parametrize(
        "family, theta",
        [
            (gaussian_beam_family(BeamGeometry(1.0, K), points=64), [1e300, 0, 0, 0, 0, 0]),
            (gaussian_beam_family(BeamGeometry(1.0, K), points=64), [0, 0, 0, 0, 1e308, 0]),
            (displaced_beam_family(1.0, points=64), [1e300, 0]),
            (gaussian_pulse_family(PulseSpectrum(OMEGA0, VARIANCE), points=256), [0, 0, 1e308]),
        ],
        ids=["beam-x0", "beam-tilt_x", "displaced-x0", "pulse-t_gvd"],
    )
    def test_far_off_parameters_are_named_without_a_warning(self, family, theta):
        # the profile overflows off the grid or to non-finite samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=re.escape(str([float(t) for t in theta]))):
                family.evaluate_mode(0, theta)

    @pytest.mark.parametrize(
        "waist, wavenumber",
        [(1e150, 1e-150), (1e-120, 1.0), (1e-102, 1.0), (1.0, 1e-320), (1.0, 1e300)],
    )
    def test_geometry_beyond_double_range_names_the_geometry(self, waist, wavenumber):
        # w0^3, the Rayleigh range or its square, which the closed forms
        # divide by, or the tilt information scale (k w0)^2 leaves the
        # double range
        message = re.escape(f"geometry w0={waist:g}, k={wavenumber:g}:")
        with pytest.raises(PreconditionError, match=message):
            BeamGeometry(waist, wavenumber)

    @staticmethod
    def count_norms(monkeypatch):
        calls = []
        norm2 = families._norm2

        def counting(grid, samples):
            calls.append(1)
            return norm2(grid, samples)

        monkeypatch.setattr(families, "_norm2", counting)
        return calls

    def test_pulse_normalizes_its_envelope_once(self, monkeypatch):
        # the envelope does not depend on theta: neither the reference mode
        # nor the twelve shifted modes of the finite differences renormalize it
        calls = self.count_norms(monkeypatch)
        spectrum = PulseSpectrum(OMEGA0, VARIANCE)
        finite_difference_family(gaussian_pulse_family(spectrum, points=256)).overlap_table
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(FAMILY_REGISTRY))
    def test_each_build_takes_its_reference_norm_once(self, monkeypatch, name):
        # one norm serves the resolution check and the normalization
        geometry = {"w0": W0, "k": K, "omega0": OMEGA0, "variance": VARIANCE}
        calls = self.count_norms(monkeypatch)
        build_family(name, geometry, points=256 if name == "gaussian-pulse" else 64)
        assert len(calls) == 1

    def test_custom_grid_where_the_spot_vanishes_is_too_coarse(self):
        # every sample lies a thousand waists off the spot: the reference
        # norm is 0, which the resolution check names before normalizing
        axis = np.linspace(1e3, 1e3 + 1.0, 9)
        grid = SampleGrid.uniform(axis, axis)
        with pytest.raises(GridResolutionError, match="'displaced-beam'"):
            displaced_beam_family(W0, grid)

    def test_pulse_grid_below_zero_frequency_rejected(self):
        with pytest.raises(GridResolutionError) as err:
            gaussian_pulse_family(PulseSpectrum(1.0, 25.0))
        assert "omega0=1" in str(err.value) and "variance=25" in str(err.value)


# ---------------------------------------------------------------------------
# Separable evaluation against the closed form on the full mesh


def _mesh_normalize(grid, samples):
    return samples / np.sqrt(np.sum(grid.weights * np.abs(samples) ** 2))


def mesh_beam_samples(geometry, carrier, grid, theta):
    """Focused Gaussian beam evaluated sample by sample on the 2-D mesh."""
    x0, y0, z0, dw, tilt_x, tilt_y = theta
    waist = geometry.waist + dw
    k = geometry.wavenumber
    zr = k * waist**2 / 2.0
    zeta = -z0
    xg, yg = grid.mesh()
    r2 = (xg - x0) ** 2 + (yg - y0) ** 2
    w = waist * np.sqrt(1.0 + (zeta / zr) ** 2)
    inv_radius = zeta / (zeta**2 + zr**2)
    gouy = np.arctan2(zeta, zr)
    amplitude = np.sqrt(2.0 / np.pi) / w * np.exp(-r2 / w**2)
    phase = k * (0.5 * inv_radius * r2 + xg * tilt_x + yg * tilt_y)
    if carrier:
        phase = phase + k * zeta
    return _mesh_normalize(grid, amplitude * np.exp(1j * (phase - gouy)))


def mesh_spot(grid, waist, x0=0.0, y0=0.0):
    xg, yg = grid.mesh()
    return _mesh_normalize(grid, np.exp(-((xg - x0) ** 2 + (yg - y0) ** 2) / waist**2))


def assert_samples_close(samples, expected):
    scale = np.max(np.abs(expected))
    assert samples.shape == expected.shape
    assert np.max(np.abs(samples - expected)) <= 1e-13 * scale


NON_SQUARE = SampleGrid.uniform(np.linspace(-4.0, 4.0, 96), np.linspace(-5.0, 3.5, 130))


class TestSeparableEvaluation:
    @pytest.mark.parametrize("grid", [None, NON_SQUARE], ids=["default", "non-square"])
    @pytest.mark.parametrize("carrier", [False, True], ids=["beam", "carrier"])
    def test_beam_matches_mesh_formula(self, carrier, grid):
        geometry = BeamGeometry(W0, K)
        family = gaussian_beam_family(geometry, carrier_phase=carrier, grid=grid)
        rng = np.random.default_rng(7)
        scales = family.theta_scales
        for _ in range(4):
            theta = scales * rng.uniform(0.05, 0.3, size=6) * rng.choice([-1.0, 1.0], size=6)
            assert np.all(theta != 0)
            samples = family.evaluate_mode(0, theta).samples
            assert_samples_close(samples, mesh_beam_samples(geometry, carrier, family.grid, theta))

    @pytest.mark.parametrize("grid", [None, NON_SQUARE], ids=["default", "non-square"])
    def test_beam_reference_profile_matches_mesh(self, grid):
        family = gaussian_beam_family(BeamGeometry(W0, K), grid=grid)
        xg, yg = family.grid.mesh()
        base = mesh_spot(family.grid, W0)
        assert_samples_close(derivative_mode(family, 0, 0).samples, 2.0 * xg / W0**2 * base)
        assert_samples_close(derivative_mode(family, 0, 5).samples, 1j * K * yg * base)

    @pytest.mark.parametrize("grid", [None, NON_SQUARE], ids=["default", "non-square"])
    def test_displaced_beam_matches_mesh_formula(self, grid):
        family = displaced_beam_family(W0, grid=grid)
        rng = np.random.default_rng(8)
        for _ in range(4):
            theta = W0 * rng.uniform(-0.5, 0.5, size=2)
            samples = family.evaluate_mode(0, theta).samples
            assert_samples_close(samples, mesh_spot(family.grid, W0, *theta))
        xg, _ = family.grid.mesh()
        expected = 2.0 * xg / W0**2 * mesh_spot(family.grid, W0)
        assert_samples_close(derivative_mode(family, 0, 0).samples, expected)

    @pytest.mark.parametrize("tilt", [1e300, 5.0, -5.0])
    @pytest.mark.parametrize("parameter", [4, 5], ids=["tilt_x", "tilt_y"])
    def test_tilt_the_grid_cannot_sample_raises(self, parameter, tilt):
        # 64 points over +-4 waists at k = 10: a tilt of 5 turns the phase
        # by 6.35 rad between samples, which alias to a finite beam
        family = gaussian_beam_family(BeamGeometry(1.0, 10.0), points=64)
        theta = np.zeros(6)
        theta[parameter] = tilt
        message = r"\]: tilt_x or tilt_y turns the phase by more than pi per sample"
        with pytest.raises(EvaluationError, match=message):
            family.evaluate_mode(0, theta)

    def test_tilt_within_the_sampling_limit_evaluates(self):
        # the limit is pi / (k dx), with dx = 8 / 63 the spacing of 64 points
        family = gaussian_beam_family(BeamGeometry(1.0, 10.0), points=64)
        limit = np.pi / (10.0 * 8.0 / 63.0)
        theta = np.array([0.0, 0.0, 0.0, 0.0, 0.99 * limit, -0.99 * limit])
        assert np.all(np.isfinite(family.evaluate_mode(0, theta).samples))

    @pytest.mark.parametrize("carrier", [False, True], ids=["beam", "carrier"])
    def test_waist_collapsing_to_zero_raises(self, carrier):
        family = gaussian_beam_family(BeamGeometry(W0, K), carrier_phase=carrier)
        theta = np.zeros(6)
        theta[3] = -W0
        with pytest.raises(EvaluationError):
            family.evaluate_mode(0, theta)
