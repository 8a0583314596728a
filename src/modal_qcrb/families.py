"""Built-in analytic parameter families: Gaussian beams and pulses.

Each family bundles a mode evaluator over a default grid, closed-form
derivative modes, characteristic parameter scales (used to size
finite-difference steps), and a closed-form information-matrix oracle as a
function of the probe's mean photon number and number-operator
information.  Oracles follow the engine convention for the first
(populated-mode) term; see the acceptance suite for the recorded relation
to commonly quoted closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import EvaluationError, GridResolutionError, PreconditionError, StructuralError
from .engine import GeneratorCoefficients, _generators_from_table
from .modes import (
    Mode,
    OverlapTable,
    ProductSum,
    SampleGrid,
    _one_term_norm2,
    derivative_mode,
    grid_gram,
)
from .tolerances import TAU_QUAD


def transverse_grid(
    waist: float, points: int = 256, halfwidth_waists: float = 4.0
) -> SampleGrid:
    """Default square grid for transverse beam modes: +-4 waists, 256^2."""
    half = halfwidth_waists * waist
    axis = np.linspace(-half, half, points)
    return SampleGrid.uniform(axis, axis)


def spectral_grid(
    center: float, variance: float, points: int = 2048, halfwidth_sigmas: float = 6.0
) -> SampleGrid:
    """Default spectral grid: +-6 standard deviations around the carrier."""
    sigma = float(np.sqrt(variance))
    axis = np.linspace(center - halfwidth_sigmas * sigma, center + halfwidth_sigmas * sigma, points)
    return SampleGrid.uniform(axis)


@dataclass(frozen=True)
class BeamGeometry:
    """Waist size and wave number of a focused Gaussian beam."""

    waist: float
    wavenumber: float

    def __post_init__(self):
        if self.waist <= 0 or self.wavenumber <= 0:
            raise StructuralError("waist and wavenumber must be positive")
        # the closed forms divide by w0^3 and by the Rayleigh range k w0^2 / 2,
        # the curvature term and the axial information by its square, and the
        # tilt information scales as (k w0)^2
        w0, k = float(self.waist), float(self.wavenumber)
        try:
            zr = k * w0**2 / 2.0
            scales = (w0**3, zr, zr**2, k * w0, (k * w0) ** 2)
            in_range = all(0.0 < s < math.inf and 1.0 / s < math.inf for s in scales)
        except OverflowError:  # raised by a Python float power
            in_range = False
        if not in_range:
            raise PreconditionError(
                f"geometry w0={self.waist:g}, k={self.wavenumber:g}: w0^3, the Rayleigh "
                "range z_R = k w0^2 / 2, z_R^2, k w0 or (k w0)^2 is out of "
                "double-precision range"
            )

    @property
    def rayleigh_range(self) -> float:
        return self.wavenumber * self.waist**2 / 2.0


@dataclass(frozen=True)
class PulseSpectrum:
    """Mean frequency and spectral variance of a Gaussian pulse."""

    center_frequency: float
    variance: float

    def __post_init__(self):
        if self.center_frequency <= 0 or self.variance <= 0:
            raise StructuralError("center frequency and variance must be positive")


@dataclass(frozen=True, eq=False)
class ParameterFamily:
    """A parametrized mode set with derivatives and an optional oracle.

    ``mode_fn(k, theta)`` returns the samples of populated mode k at the
    parameter vector theta (theta = 0 is the reference point);
    ``derivative_fn(k, a)`` returns the derivative samples at theta = 0,
    in closed form for the built-in families or by finite differences
    (:func:`modal_qcrb.modes.finite_difference_family`).  Either may return
    a :class:`~modal_qcrb.modes.ProductSum` instead of an array; the beam
    families do, and their overlap table is then built from 1-D factors.
    ``oracle_fn(mean_photons, info)`` returns the closed-form information
    matrix given the probe's mean photon number and number-operator
    information.  Families are immutable closures over their geometry;
    evaluation is pure, so the overlap table is built once and kept.
    """

    name: str
    parameters: tuple[str, ...]
    units: tuple[str, ...]
    grid: SampleGrid
    theta_scales: np.ndarray
    mode_fn: Callable[[int, np.ndarray], np.ndarray]
    derivative_fn: Callable[[int, int], np.ndarray] | None = None
    oracle_fn: Callable[[float, float], np.ndarray] | None = None
    n_modes: int = 1

    @property
    def n_parameters(self) -> int:
        return len(self.parameters)

    def evaluate_mode(self, mode_index: int = 0, theta: np.ndarray | None = None) -> Mode:
        if not 0 <= mode_index < self.n_modes:
            raise StructuralError(f"mode index {mode_index} outside the family")
        if theta is None:
            theta = np.zeros(self.n_parameters)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise StructuralError(
                f"theta must have {self.n_parameters} entries, got {theta.shape}"
            )
        return Mode(self.grid, self.mode_fn(mode_index, theta))

    def evaluate(self, theta: np.ndarray | None = None) -> tuple[Mode, ...]:
        return tuple(self.evaluate_mode(k, theta) for k in range(self.n_modes))

    @cached_property
    def derivative_modes(self) -> tuple[tuple[Mode, ...], ...]:
        """``[a][k]`` is d_a f_k at theta = 0, each evaluated once and kept.

        The overlap table is built from these modes, and the detection
        modes are formed from them.
        """
        # an overflow leaves non-finite samples, which the modes reject
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple(
                tuple(derivative_mode(self, k, a) for k in range(self.n_modes))
                for a in range(self.n_parameters)
            )

    @cached_property
    def overlap_table(self) -> OverlapTable:
        """Overlaps of the modes at theta = 0 and their derivative modes.

        Built on first use from one evaluation of the family and its
        ``derivative_modes``; every engine quantity about the modes is a
        slice of it.
        """
        # an overflow leaves non-finite samples or overlaps, which the modes
        # and the table reject with a message of their own
        with np.errstate(over="ignore", invalid="ignore"):
            return OverlapTable.from_modes(self.evaluate(), self.derivative_modes)

    @cached_property
    def generators(self) -> GeneratorCoefficients:
        """Generator coefficients sliced from the overlap table, formed once.

        Raises unless the populated modes are orthonormal, and warns once
        when a generator is not Hermitian.
        """
        table = self.overlap_table
        table.validate()
        return _generators_from_table(self.parameters, table)

    def oracle_qfim(self, mean_photons: float, info: float) -> np.ndarray | None:
        if self.oracle_fn is None:
            return None
        return self.oracle_fn(float(mean_photons), float(info))


def _norm2(grid: SampleGrid, samples: np.ndarray | ProductSum) -> float:
    """Squared quadrature norm.

    A one-term product sum multiplies its per-axis dots, a longer one takes
    the route of its overlap table.
    """
    if isinstance(samples, ProductSum):
        if len(samples.terms) == 1:
            return _one_term_norm2(samples, grid.axis_weights)
        return float(grid_gram(grid, [samples])[0, 0].real)
    return float(np.sum(grid.weights * np.abs(samples) ** 2).real)


def _check_resolution(
    name: str, grid: SampleGrid, raw_reference: np.ndarray | ProductSum
) -> None:
    """The raw closed-form profile must integrate to 1 on the grid.

    Grid renormalization would mask coarse grids, so the check runs on the
    profile before normalization.
    """
    norm = _norm2(grid, raw_reference)
    err = abs(norm - 1.0)
    if not err <= 10.0 * TAU_QUAD:  # a non-finite norm fails too
        raise GridResolutionError(
            f"grid too coarse for family '{name}': reference-mode norm error {err:.3e}"
        )


# ---------------------------------------------------------------------------
# Gaussian transverse beam


def _grid_normalize(
    grid: SampleGrid, samples: np.ndarray | ProductSum
) -> np.ndarray | ProductSum:
    """Scale to unit norm under the grid quadrature.

    Keeps mode bases orthonormal at round-off even where the grid truncates
    a small tail of the continuum profile; the scale factor is invariant
    under the built-in parameters to well below the derivative tolerances.
    """
    norm = np.sqrt(_norm2(grid, samples))
    if norm == 0.0:
        raise EvaluationError("mode profile vanishes on the grid")
    return samples / norm


def _beam_samples(
    geometry: BeamGeometry, carrier: bool, grid: SampleGrid, theta: np.ndarray
) -> ProductSum:
    """Beam profile as the outer product of one complex factor per axis.

    Every parameter leaves the profile separable: each axis carries its
    Gaussian envelope, curvature phase and tilt phase, and the amplitude,
    Gouy phase and carrier phase form one constant.  The scalars are
    Python floats, which raise where numpy scalars would return inf.
    """
    x0, y0, z0, dw, tilt_x, tilt_y = theta.tolist()
    waist = geometry.waist + dw
    if waist <= 0:
        raise EvaluationError("waist perturbation makes the beam collapse")
    k = geometry.wavenumber
    try:
        zr = k * waist**2 / 2.0
        zeta = -z0  # observation plane sits at the origin; the waist moved to z0
        w = waist * math.sqrt(1.0 + (zeta / zr) ** 2)
        inv_radius = zeta / (zeta**2 + zr**2)
        exponent = -1.0 / w**2 + 0.5j * k * inv_radius
    except (OverflowError, ZeroDivisionError):
        raise EvaluationError(
            f"beam parameters {theta.tolist()} leave double-precision range"
        ) from None
    x, y = grid.axes
    factor_x = np.exp(exponent * (x - x0) ** 2 + 1j * k * tilt_x * x)
    factor_y = np.exp(exponent * (y - y0) ** 2 + 1j * k * tilt_y * y)
    # numpy's arctan2 may round differently from math.atan2
    phase = (k * zeta if carrier else 0.0) - np.arctan2(zeta, zr)
    constant = math.sqrt(2.0 / math.pi) / w * np.exp(1j * phase)
    samples = ProductSum._unchecked(((constant * factor_x, factor_y),))
    return _grid_normalize(grid, samples)


def _gaussian_spot(
    grid: SampleGrid, waist: float, x0: float = 0.0, y0: float = 0.0
) -> ProductSum:
    """Real Gaussian exp(-((x - x0)^2 + (y - y0)^2) / waist^2) as an outer product."""
    x, y = grid.axes
    return ProductSum.outer(
        np.exp(-((x - x0) ** 2) / waist**2), np.exp(-((y - y0) ** 2) / waist**2)
    )


def _beam_derivatives(
    geometry: BeamGeometry, carrier: bool, grid: SampleGrid, spot: ProductSum
) -> Callable[[int, int], ProductSum]:
    """Closed-form derivatives, each at most two outer products.

    ``spot`` is the family's raw Gaussian spot on the grid.  A profile in
    r^2 = x^2 + y^2 times the spot splits into one term per axis; the
    carrier's constant joins the x term.
    """
    w0 = geometry.waist
    k = geometry.wavenumber
    zr = geometry.rayleigh_range
    x, y = grid.axes
    base = _grid_normalize(grid, spot)

    def derivative(mode_index: int, parameter: int) -> ProductSum:
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
            return base.along(0, (2.0 * x**2 / w0**2 - 1.0) / w0) + base.along(
                1, 2.0 * y**2 / w0**3
            )
        if parameter == 4:
            return base.along(0, 1j * k * x)
        return base.along(1, 1j * k * y)

    return derivative


def _beam_oracle(geometry: BeamGeometry, carrier: bool) -> Callable[[float, float], np.ndarray]:
    w0 = geometry.waist
    k = geometry.wavenumber
    zr = geometry.rayleigh_range

    def oracle(mean_photons: float, info: float) -> np.ndarray:
        transverse = 4.0 * mean_photons / w0**2
        tilt = k**2 * w0**2 * mean_photons
        if carrier:
            detune = 1.0 - (k * w0) ** 2
            axial = detune**2 / (4.0 * zr**2) * info + mean_photons / zr**2
        else:
            axial = info / (4.0 * zr**2) + mean_photons / zr**2
        return np.diag([transverse, transverse, axial, transverse, tilt, tilt])

    return oracle


def gaussian_beam_family(
    geometry: BeamGeometry,
    carrier_phase: bool = False,
    grid: SampleGrid | None = None,
    *,
    points: int = 256,
    halfwidth_waists: float = 4.0,
) -> ParameterFamily:
    """Six-parameter Gaussian-beam family: waist position, size and tilt.

    Parameters are (x0, y0, z0, w0, tilt_x, tilt_y) around a focused beam.
    With ``carrier_phase`` the axial derivative picks up the plane-wave
    carrier term, which applies when the absolute optical phase is
    measurable.  The carrier e^{ikz0} turns over a length 1/k, so the
    scale of z0 is then min(z_R, 1/k), the shorter of the two lengths over
    which the mode changes; it sizes the finite-difference step and the
    degeneracy floor.
    """
    if grid is None:
        grid = transverse_grid(geometry.waist, points, halfwidth_waists)
    name = "gaussian-beam-carrier" if carrier_phase else "gaussian-beam"
    axial_scale = geometry.rayleigh_range
    if carrier_phase:
        axial_scale = min(axial_scale, 1.0 / geometry.wavenumber)
    scales = np.array(
        [
            geometry.waist,
            geometry.waist,
            axial_scale,
            geometry.waist,
            1.0 / (geometry.wavenumber * geometry.waist),
            1.0 / (geometry.wavenumber * geometry.waist),
        ]
    )
    spot = _gaussian_spot(grid, geometry.waist)
    _check_resolution(name, grid, np.sqrt(2.0 / np.pi) / geometry.waist * spot)
    return ParameterFamily(
        name=name,
        parameters=("x0", "y0", "z0", "w0", "tilt_x", "tilt_y"),
        units=("length", "length", "length", "length", "rad", "rad"),
        grid=grid,
        theta_scales=scales,
        mode_fn=lambda k, theta: _beam_samples(geometry, carrier_phase, grid, theta),
        derivative_fn=_beam_derivatives(geometry, carrier_phase, grid, spot),
        oracle_fn=_beam_oracle(geometry, carrier_phase),
    )


# ---------------------------------------------------------------------------
# Dispersive Gaussian pulse


def _pulse_samples(
    spectrum: PulseSpectrum, grid: SampleGrid, theta: np.ndarray
) -> np.ndarray:
    t_phase, t_group, t_gvd = theta
    w0 = spectrum.center_frequency
    var = spectrum.variance
    omega = grid.axes[0]
    detuning = omega - w0
    envelope = _grid_normalize(grid, np.exp(-(detuning**2) / (4.0 * var)))
    phase = w0 * t_phase + detuning * t_group + detuning**2 / w0 * t_gvd
    return envelope * np.exp(1j * phase)


def _pulse_derivatives(
    spectrum: PulseSpectrum, grid: SampleGrid
) -> Callable[[int, int], np.ndarray]:
    w0 = spectrum.center_frequency
    var = spectrum.variance
    omega = grid.axes[0]
    detuning = omega - w0
    envelope = _grid_normalize(grid, np.exp(-(detuning**2) / (4.0 * var)))

    def derivative(mode_index: int, parameter: int) -> np.ndarray:
        if parameter == 0:
            return 1j * w0 * envelope
        if parameter == 1:
            return 1j * detuning * envelope
        return 1j * detuning**2 / w0 * envelope

    return derivative


def _pulse_oracle(spectrum: PulseSpectrum) -> Callable[[float, float], np.ndarray]:
    w0 = spectrum.center_frequency
    var = spectrum.variance

    def oracle(mean_photons: float, info: float) -> np.ndarray:
        return np.array(
            [
                [w0**2 * info, 0.0, var * info],
                [0.0, 4.0 * var * mean_photons, 0.0],
                [var * info, 0.0, var**2 / w0**2 * (info + 8.0 * mean_photons)],
            ]
        )

    return oracle


def gaussian_pulse_family(
    spectrum: PulseSpectrum,
    grid: SampleGrid | None = None,
    *,
    points: int = 2048,
    halfwidth_sigmas: float = 6.0,
) -> ParameterFamily:
    """Dispersive-pulse family: phase delay, group delay and broadening.

    The parameters (t_phase, t_group, t_gvd) multiply the constant, linear
    and quadratic spectral phase of a Gaussian envelope; they track the
    phase velocity, group velocity and group-velocity dispersion
    accumulated in a dispersive medium.
    """
    if grid is None:
        grid = spectral_grid(spectrum.center_frequency, spectrum.variance, points, halfwidth_sigmas)
    lowest = float(grid.axes[0][0])
    if lowest <= 0:
        raise GridResolutionError(
            f"grid for family 'gaussian-pulse' reaches non-positive frequency {lowest:.6g}: "
            f"omega0={spectrum.center_frequency:g} lies too few spectral widths above 0 "
            f"for variance={spectrum.variance:g}"
        )
    sigma = float(np.sqrt(spectrum.variance))
    scales = np.array(
        [
            1.0 / spectrum.center_frequency,
            1.0 / sigma,
            spectrum.center_frequency / spectrum.variance,
        ]
    )
    detuning = grid.axes[0] - spectrum.center_frequency
    raw = (2.0 * np.pi * spectrum.variance) ** (-0.25) * np.exp(
        -(detuning**2) / (4.0 * spectrum.variance)
    )
    _check_resolution("gaussian-pulse", grid, raw)
    return ParameterFamily(
        name="gaussian-pulse",
        parameters=("t_phase", "t_group", "t_gvd"),
        units=("time", "time", "time"),
        grid=grid,
        theta_scales=scales,
        mode_fn=lambda k, theta: _pulse_samples(spectrum, grid, theta),
        derivative_fn=_pulse_derivatives(spectrum, grid),
        oracle_fn=_pulse_oracle(spectrum),
    )


# ---------------------------------------------------------------------------
# Transverse displacement only (amplitude-encoded fixture)


def displaced_beam_family(
    waist: float,
    grid: SampleGrid | None = None,
    *,
    points: int = 256,
    halfwidth_waists: float = 4.0,
) -> ParameterFamily:
    """Two-parameter transverse-displacement family of a Gaussian spot.

    Both derivatives are real multiples of the mode, so the parameters are
    encoded purely in the amplitude; this is the canonical amplitude-only
    and mean-field fixture.
    """
    if waist <= 0:
        raise StructuralError("waist must be positive")
    if grid is None:
        grid = transverse_grid(waist, points, halfwidth_waists)
    spot = _gaussian_spot(grid, waist)
    base = _grid_normalize(grid, spot)

    def mode_fn(mode_index: int, theta: np.ndarray) -> ProductSum:
        return _grid_normalize(grid, _gaussian_spot(grid, waist, theta[0], theta[1]))

    def derivative(mode_index: int, parameter: int) -> ProductSum:
        return base.along(parameter, 2.0 * grid.axes[parameter] / waist**2)

    def oracle(mean_photons: float, info: float) -> np.ndarray:
        entry = 4.0 * mean_photons / waist**2
        return np.diag([entry, entry])

    _check_resolution("displaced-beam", grid, np.sqrt(2.0 / np.pi) / waist * spot)
    return ParameterFamily(
        name="displaced-beam",
        parameters=("x0", "y0"),
        units=("length", "length"),
        grid=grid,
        theta_scales=np.array([waist, waist]),
        mode_fn=mode_fn,
        derivative_fn=derivative,
        oracle_fn=oracle,
    )


# ---------------------------------------------------------------------------
# Registry


def _build_gaussian_beam(geometry: dict, **grid_options) -> ParameterFamily:
    geo = BeamGeometry(waist=float(geometry["w0"]), wavenumber=float(geometry["k"]))
    return gaussian_beam_family(geo, carrier_phase=False, **grid_options)


def _build_gaussian_beam_carrier(geometry: dict, **grid_options) -> ParameterFamily:
    geo = BeamGeometry(waist=float(geometry["w0"]), wavenumber=float(geometry["k"]))
    return gaussian_beam_family(geo, carrier_phase=True, **grid_options)


def _build_gaussian_pulse(geometry: dict, **grid_options) -> ParameterFamily:
    spec = PulseSpectrum(
        center_frequency=float(geometry["omega0"]),
        variance=float(geometry["variance"]),
    )
    return gaussian_pulse_family(spec, **grid_options)


def _build_displaced_beam(geometry: dict, **grid_options) -> ParameterFamily:
    return displaced_beam_family(float(geometry["w0"]), **grid_options)


FAMILY_REGISTRY: dict[str, dict] = {
    "gaussian-beam": {
        "build": _build_gaussian_beam,
        "geometry": {"w0": "waist size (length, > 0)", "k": "wave number (1/length, > 0)"},
        "parameters": ["x0", "y0", "z0", "w0", "tilt_x", "tilt_y"],
        "default_grid": {"points": 256, "halfwidth_waists": 4.0},
    },
    "gaussian-beam-carrier": {
        "build": _build_gaussian_beam_carrier,
        "geometry": {"w0": "waist size (length, > 0)", "k": "wave number (1/length, > 0)"},
        "parameters": ["x0", "y0", "z0", "w0", "tilt_x", "tilt_y"],
        "default_grid": {"points": 256, "halfwidth_waists": 4.0},
    },
    "gaussian-pulse": {
        "build": _build_gaussian_pulse,
        "geometry": {
            "omega0": "mean angular frequency (rad/time, > 0)",
            "variance": "spectral variance (rad^2/time^2, > 0)",
        },
        "parameters": ["t_phase", "t_group", "t_gvd"],
        "default_grid": {"points": 2048, "halfwidth_sigmas": 6.0},
    },
    "displaced-beam": {
        "build": _build_displaced_beam,
        "geometry": {"w0": "waist size (length, > 0)"},
        "parameters": ["x0", "y0"],
        "default_grid": {"points": 256, "halfwidth_waists": 4.0},
    },
}


def build_family(name: str, geometry: dict, **grid_options) -> ParameterFamily:
    """Instantiate a registered family from its geometry mapping."""
    if name not in FAMILY_REGISTRY:
        known = ", ".join(sorted(FAMILY_REGISTRY))
        raise StructuralError(f"unknown family '{name}'; known families: {known}")
    return FAMILY_REGISTRY[name]["build"](geometry, **grid_options)
