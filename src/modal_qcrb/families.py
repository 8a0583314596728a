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
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .errors import EvaluationError, GridResolutionError, PreconditionError, StructuralError
from .modes import (
    Mode,
    OverlapTable,
    ProductSum,
    SampleGrid,
    _one_term_norm2,
    _read_only,
    _real_or_complex,
)
from .tolerances import TAU_FD, TAU_QUAD

# Default grids: the beams sample +-4 waists per axis, the pulse +-6 spectral
# standard deviations around its carrier; only the number of points varies.
_BEAM_HALFWIDTH_WAISTS = 4.0
_PULSE_HALFWIDTH_SIGMAS = 6.0
_BEAM_POINTS = 256
_PULSE_POINTS = 2048

_BEAM_PARAMETERS = ("x0", "y0", "z0", "w0", "tilt_x", "tilt_y")
_PULSE_PARAMETERS = ("t_phase", "t_group", "t_gvd")
_DISPLACEMENT_PARAMETERS = ("x0", "y0")


def _geometry_grid(geometry: str, low: float, high: float, points: int, ndim: int) -> SampleGrid:
    """Uniform grid of ``ndim`` equal axes over [low, high]; failures name the geometry.

    Such a geometry rounds the axis to repeated or non-finite points, or
    its quadrature weights out of double-precision range.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the grid
        axis = np.linspace(low, high, points)
    try:
        return SampleGrid.uniform(*(axis,) * ndim)
    except StructuralError as exc:
        raise PreconditionError(f"geometry {geometry}: {exc}") from None


def transverse_grid(waist: float, points: int = _BEAM_POINTS) -> SampleGrid:
    """Default square grid for transverse beam modes: +-4 waists, 256^2."""
    half = _BEAM_HALFWIDTH_WAISTS * waist
    return _geometry_grid(f"w0={waist:g}", -half, half, points, ndim=2)


def spectral_grid(center: float, variance: float, points: int = _PULSE_POINTS) -> SampleGrid:
    """Default spectral grid: +-6 standard deviations around the carrier, 2048 points."""
    half = _PULSE_HALFWIDTH_SIGMAS * float(np.sqrt(variance))
    geometry = f"omega0={center:g}, variance={variance:g}"
    return _geometry_grid(geometry, center - half, center + half, points, ndim=1)


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
    (:func:`finite_difference_family`).  Either may return a
    :class:`~modal_qcrb.modes.ProductSum` instead of an array; the beam
    families do, and their overlap table is then built from 1-D factors.
    ``oracle_fn(mean_photons, info)`` returns the closed-form information
    matrix given the probe's mean photon number and number-operator
    information.  Families are immutable closures over their geometry;
    evaluation is pure, so the overlap table, which holds the generator
    matrices too, is built once and kept.
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
        """Mode ``mode_index`` at ``theta``; a failure names the parameters."""
        if theta is None:
            theta = np.zeros(self.n_parameters)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise StructuralError(f"theta must have {self.n_parameters} entries, got {theta.shape}")
        return self._evaluated(
            self.mode_fn,
            mode_index,
            theta,
            lambda: f"mode {mode_index} at parameters {theta.tolist()}",
        )

    def _evaluated(self, rule: Callable, mode_index: int, arg, what: Callable[[], str]) -> Mode:
        """``Mode(grid, rule(mode_index, arg))``: the one call of the family's rules.

        numpy does not warn while the rule runs, since an overflow leaves a
        non-finite or vanishing profile; an :class:`EvaluationError` of the
        rule or of the mode is raised again prefixed with ``what()``.
        """
        if not 0 <= mode_index < self.n_modes:
            raise StructuralError(f"mode index {mode_index} outside the family")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return Mode(self.grid, rule(mode_index, arg))
        except EvaluationError as exc:
            raise EvaluationError(f"{what()}: {exc}") from None

    def evaluate(self, theta: np.ndarray | None = None) -> tuple[Mode, ...]:
        return tuple(self.evaluate_mode(k, theta) for k in range(self.n_modes))

    @cached_property
    def derivative_modes(self) -> tuple[tuple[Mode, ...], ...]:
        """``[a][k]`` is d_a f_k at theta = 0, each evaluated once and kept.

        The overlap table is built from these modes, and the detection
        modes are formed from them.
        """
        return tuple(
            tuple(derivative_mode(self, k, a) for k in range(self.n_modes))
            for a in range(self.n_parameters)
        )

    @cached_property
    def overlap_table(self) -> OverlapTable:
        """Overlaps of the modes at theta = 0 and their derivative modes.

        Built on first use from one evaluation of the family and its
        ``derivative_modes``, with the family's parameter names; every
        engine quantity about the modes, the generator ``matrices``
        included, is a slice of it.
        """
        return OverlapTable.from_modes(self.evaluate(), self.derivative_modes, self.parameters)

    def oracle_qfim(self, mean_photons: float, info: float) -> np.ndarray | None:
        if self.oracle_fn is None:
            return None
        return self.oracle_fn(float(mean_photons), float(info))


def derivative_mode(family: ParameterFamily, mode_index: int, parameter: int) -> Mode:
    """Unnormalized derivative of a family mode with respect to one parameter.

    The family's ``derivative_fn`` decides how it is taken: a closed form,
    or the finite difference of :func:`finite_difference_family`.  Either
    way a failure, a non-finite sample or an :class:`EvaluationError` of
    the rule, names the mode and the parameter.
    """
    if family.derivative_fn is None:
        raise StructuralError(
            f"family '{family.name}' has no derivative rule; "
            "use finite_difference_family(family)"
        )
    if not 0 <= parameter < family.n_parameters:
        raise StructuralError(f"parameter index {parameter} outside the family")
    label = family.parameters[parameter]
    return family._evaluated(
        family.derivative_fn,
        mode_index,
        parameter,
        lambda: f"derivative of mode {mode_index} with respect to parameter '{label}'",
    )


def finite_difference_family(
    family: ParameterFamily, step: float | None = None
) -> ParameterFamily:
    """The family with its derivatives taken by finite differences.

    A central difference with one Richardson refinement, step
    ``|theta_scale| * 1e-4`` unless given, so the step follows each
    parameter's own scale whether it is large or small.  Each derivative
    mode costs four shifted evaluations of the family's ``mode_fn``; a
    non-finite sample in any of them stays non-finite in their difference,
    which :func:`derivative_mode` checks once, naming the parameter; it
    names a failed shifted evaluation too.  A step below
    ``eps / TAU_FD * |theta_scale|`` is rejected: there the shifted modes
    round to the reference and the difference to zero.  Modes given as
    :class:`ProductSum` are differenced per axis and stay product sums (at
    most four terms for one-term modes).
    """
    steps = [
        float(step) if step is not None else abs(float(scale)) * 1e-4
        for scale in family.theta_scales
    ]
    if not all(h > 0 for h in steps):
        raise ValueError("finite-difference step must be positive")
    for name, h, scale in zip(family.parameters, steps, family.theta_scales):
        floor = np.finfo(float).eps / TAU_FD * abs(float(scale))
        if h < floor:
            raise ValueError(
                f"finite-difference step {h:.3g} for parameter '{name}' is below "
                f"{floor:.3g}, eps / TAU_FD times its scale {abs(float(scale)):.3g}"
            )

    def derivative(mode_index: int, parameter: int) -> np.ndarray | ProductSum:
        def shifted(h: float) -> np.ndarray | ProductSum:
            theta = np.zeros(family.n_parameters)
            theta[parameter] = h
            samples = family.mode_fn(mode_index, theta)
            return samples if isinstance(samples, ProductSum) else _real_or_complex(samples)

        def central(h: float) -> np.ndarray | ProductSum:
            return (shifted(h) - shifted(-h)) / (2.0 * h)

        h = steps[parameter]
        coarse = central(h)
        fine = central(h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    return replace(family, derivative_fn=derivative)


def _norm2(grid: SampleGrid, samples: np.ndarray | ProductSum) -> float:
    """Squared quadrature norm of an array or a one-term product sum.

    The product sum multiplies its per-axis dots.
    """
    if isinstance(samples, ProductSum):
        return _one_term_norm2(samples, grid.axis_weights)
    return float(np.sum(grid.weights * np.abs(samples) ** 2).real)


def _unit_reference(
    name: str, grid: SampleGrid, raw: np.ndarray | ProductSum, amplitude: float
) -> np.ndarray | ProductSum:
    """``raw`` at unit grid norm, once ``amplitude * raw``, the closed form, integrates to 1.

    Renormalizing would mask a coarse grid, so one norm of ``raw`` serves
    the check first and then the scaling.
    """
    norm2 = _norm2(grid, raw)
    err = abs(amplitude**2 * norm2 - 1.0)
    if not err <= 10.0 * TAU_QUAD:  # a non-finite or zero norm fails too
        raise GridResolutionError(
            f"grid too coarse for family '{name}': reference-mode norm error {err:.3e}"
        )
    return raw / np.sqrt(norm2)


# ---------------------------------------------------------------------------
# Gaussian transverse beam


def _axis_dot(factor: np.ndarray, weights: np.ndarray) -> np.inexact:
    """Sum of ``weights * |factor|^2``: one per-axis factor of a one-term norm.

    Bitwise the axis's dot in :func:`~modal_qcrb.modes._one_term_norm2`
    for a contiguous factor.
    """
    return (factor.conj() * weights) @ factor


def _unit_outer(
    factor_x: np.ndarray, dot_x: np.inexact, factor_y: np.ndarray, dot_y: np.inexact
) -> ProductSum:
    """``factor_x`` x ``factor_y`` scaled to unit norm, given each one's :func:`_axis_dot`.

    Keeps mode bases orthonormal at round-off even where the grid truncates
    a small tail of the continuum profile; the scale factor is invariant
    under the built-in parameters to well below the derivative tolerances.
    The squared norm is the product of the per-axis dots, bitwise
    :func:`~modal_qcrb.modes._one_term_norm2` of the outer product (the
    factors are contiguous arrays), and the scale divides the x factor.
    An overflow leaves a non-finite norm, which the mode rejects; numpy
    does not warn inside the family's evaluator.
    """
    norm = np.sqrt(float((1.0 * dot_x * dot_y).real))
    if norm == 0.0:
        raise EvaluationError("mode profile vanishes on the grid")
    return ProductSum._unchecked(((factor_x / norm, factor_y),))


def _values_and_bits(theta: np.ndarray) -> tuple[list, list]:
    """``theta`` as Python floats, and each entry's bit pattern as an int.

    Only +0.0, the reference value, has the pattern 0.  Parameters with
    equal patterns form bitwise equal factors; 0.0 and -0.0, equal as
    floats, may not, since a zero sample can take either sign.
    """
    theta = np.asarray(theta, dtype=float)
    return theta.tolist(), theta.view(np.int64).tolist()


def _reference_pieces(pieces: tuple) -> tuple:
    """The theta = 0 factors and dots of a family, its factors read-only.

    Every evaluation that leaves an axis at the reference returns or
    scales these arrays, so no caller may write into them.
    """
    factor_x, dot_x, factor_y, dot_y = pieces
    return _read_only(factor_x), dot_x, _read_only(factor_y), dot_y


def _beam_factors(
    geometry: BeamGeometry,
    carrier: bool,
    grid: SampleGrid,
    spacing: tuple,
    theta: list,
    bits: list,
    reference: Callable[[], tuple] | None,
) -> tuple:
    """Beam profile as one complex factor per axis: (x factor, its dot, y factor, its dot).

    The family's evaluator scales their outer product to unit norm with
    :func:`_unit_outer`.

    Every parameter leaves the profile separable: each axis carries its
    Gaussian envelope, curvature phase and tilt phase, and the amplitude,
    Gouy phase and carrier phase form one constant, which scales the x
    factor.  The scalars are Python floats, which raise where numpy
    scalars would return inf.  ``spacing`` is the largest sample spacing
    per axis, formed once per family: a tilt whose phase turns by more
    than pi across one is aliased.

    A factor depends only on (w0 shift, z0) and its own axis's (centre,
    tilt).  An axis whose parameters ``theta`` leaves at the reference,
    bit for bit (``bits``, see :func:`_values_and_bits`), takes its factor
    and dot from ``reference()``, the pieces at theta = 0; on a square
    grid, axis parameters with equal bits form one factor for both axes.
    """
    x0, y0, z0, dw, tilt_x, tilt_y = theta
    waist = geometry.waist + dw
    if waist <= 0:
        raise EvaluationError("waist perturbation makes the beam collapse")
    k = geometry.wavenumber
    if abs(k * tilt_x) * spacing[0] > math.pi or abs(k * tilt_y) * spacing[1] > math.pi:
        raise EvaluationError("tilt_x or tilt_y turns the phase by more than pi per sample")
    bits_x0, bits_y0, bits_z0, bits_dw, bits_tilt_x, bits_tilt_y = bits
    same_width = reference is not None and bits_z0 == bits_dw == 0
    keep_x = same_width and bits_x0 == bits_tilt_x == 0
    keep_y = same_width and bits_y0 == bits_tilt_y == 0
    if keep_x and keep_y:
        return reference()
    try:
        zr = k * waist**2 / 2.0
        zeta = -z0  # observation plane sits at the origin; the waist moved to z0
        w = waist * math.sqrt(1.0 + (zeta / zr) ** 2)
        inv_radius = zeta / (zeta**2 + zr**2)
        exponent = -1.0 / w**2 + 0.5j * k * inv_radius
    except (OverflowError, ZeroDivisionError):
        raise EvaluationError("beam width, curvature or phase leaves double-precision range") from None
    (x, y), (wx, wy) = grid.axes, grid.axis_weights
    if keep_x:
        scaled_x, dot_x, _, _ = reference()
    else:
        factor_x = np.exp(exponent * (x - x0) ** 2 + 1j * k * tilt_x * x)
        # numpy's arctan2 may round differently from math.atan2
        phase = (k * zeta if carrier else 0.0) - np.arctan2(zeta, zr)
        constant = math.sqrt(2.0 / math.pi) / w * np.exp(1j * phase)
        scaled_x = constant * factor_x
        dot_x = _axis_dot(scaled_x, wx)
    if keep_y:
        _, _, factor_y, dot_y = reference()
    else:
        if not keep_x and y is x and (bits_y0, bits_tilt_y) == (bits_x0, bits_tilt_x):
            factor_y = factor_x
        else:
            factor_y = np.exp(exponent * (y - y0) ** 2 + 1j * k * tilt_y * y)
        dot_y = _axis_dot(factor_y, wy)
    return scaled_x, dot_x, factor_y, dot_y


def _gaussian_spot(grid: SampleGrid, waist: float) -> ProductSum:
    """Real Gaussian exp(-(x^2 + y^2) / waist^2) as an outer product."""
    x, y = grid.axes
    # one fresh 1-D factor per grid axis: valid as it stands
    return ProductSum._unchecked(((np.exp(-(x**2) / waist**2), np.exp(-(y**2) / waist**2)),))


def _spot_factors(
    grid: SampleGrid, waist: float, theta: list, bits: list, reference: Callable[[], tuple] | None
) -> tuple:
    """Real Gaussian spot at (x0, y0) = theta: (x factor, its dot, y factor, its dot).

    Each factor is exp(-(x - x0)^2 / waist^2) along its axis.  As in
    :func:`_beam_factors`, an axis that ``theta`` leaves at 0.0, bit for
    bit, takes its factor and dot from ``reference()``, and on a square
    grid an equal shift forms one factor for both axes.
    """
    x0, y0 = theta
    keep_x = reference is not None and bits[0] == 0
    keep_y = reference is not None and bits[1] == 0
    if keep_x and keep_y:
        return reference()
    (x, y), (wx, wy) = grid.axes, grid.axis_weights
    if keep_x:
        factor_x, dot_x, _, _ = reference()
    else:
        factor_x = np.exp(-((x - x0) ** 2) / waist**2)
        dot_x = _axis_dot(factor_x, wx)
    if keep_y:
        _, _, factor_y, dot_y = reference()
    else:
        if not keep_x and y is x and bits[1] == bits[0]:
            factor_y = factor_x
        else:
            factor_y = np.exp(-((y - y0) ** 2) / waist**2)
        dot_y = _axis_dot(factor_y, wy)
    return factor_x, dot_x, factor_y, dot_y


def _beam_derivatives(
    geometry: BeamGeometry, carrier: bool, grid: SampleGrid, base: ProductSum
) -> Callable[[int, int], ProductSum]:
    """Closed-form derivatives, each at most two outer products.

    ``base`` is the family's Gaussian spot at unit norm on the grid.  A
    profile in r^2 = x^2 + y^2 times the spot splits into one term per
    axis; the carrier's constant joins the x term.
    """
    w0 = geometry.waist
    k = geometry.wavenumber
    zr = geometry.rayleigh_range
    x, y = grid.axes

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
    points: int = _BEAM_POINTS,
) -> ParameterFamily:
    """Six-parameter Gaussian-beam family: waist position, size and tilt.

    Parameters are (x0, y0, z0, w0, tilt_x, tilt_y) around a focused beam.
    With ``carrier_phase`` the axial derivative picks up the plane-wave
    carrier term, which applies when the absolute optical phase is
    measurable.  The carrier e^{ikz0} turns over a length 1/k, so the
    scale of z0 is then min(z_R, 1/k), the shorter of the two lengths over
    which the mode changes; it sizes the finite-difference step and the
    degeneracy floor.  Without a ``grid``, the family samples ``points``
    per axis over +-4 waists.
    """
    if grid is None:
        grid = transverse_grid(geometry.waist, points)
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
    base = _unit_reference(name, grid, spot, np.sqrt(2.0 / np.pi) / geometry.waist)
    spacing = tuple(float((axis[1:] - axis[:-1]).max()) for axis in grid.axes)
    zero = [0.0] * len(_BEAM_PARAMETERS)

    # theta = 0, formed on first use inside the rule, so that a failure
    # names the evaluation that needed it
    @cache
    def reference() -> tuple:
        return _reference_pieces(
            _beam_factors(geometry, carrier_phase, grid, spacing, zero, [0] * len(zero), None)
        )

    def mode_fn(mode_index: int, theta: np.ndarray) -> ProductSum:
        pieces = _beam_factors(
            geometry, carrier_phase, grid, spacing, *_values_and_bits(theta), reference
        )
        return _unit_outer(*pieces)

    return ParameterFamily(
        name=name,
        parameters=_BEAM_PARAMETERS,
        units=("length", "length", "length", "length", "rad", "rad"),
        grid=grid,
        theta_scales=scales,
        mode_fn=mode_fn,
        derivative_fn=_beam_derivatives(geometry, carrier_phase, grid, base),
        oracle_fn=_beam_oracle(geometry, carrier_phase),
    )


# ---------------------------------------------------------------------------
# Dispersive Gaussian pulse


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
    points: int = _PULSE_POINTS,
) -> ParameterFamily:
    """Dispersive-pulse family: phase delay, group delay and broadening.

    The parameters (t_phase, t_group, t_gvd) multiply the constant, linear
    and quadratic spectral phase of a Gaussian envelope; they track the
    phase velocity, group velocity and group-velocity dispersion
    accumulated in a dispersive medium.  Without a ``grid``, the family
    samples ``points`` frequencies over +-6 spectral standard deviations.
    """
    if grid is None:
        grid = spectral_grid(spectrum.center_frequency, spectrum.variance, points)
    lowest = float(grid.axes[0][0])
    if lowest <= 0:
        raise GridResolutionError(
            f"grid for family 'gaussian-pulse' reaches non-positive frequency {lowest:.6g}: "
            f"omega0={spectrum.center_frequency:g} lies too few spectral widths above 0 "
            f"for variance={spectrum.variance:g}"
        )
    w0 = spectrum.center_frequency
    var = spectrum.variance
    scales = np.array([1.0 / w0, 1.0 / float(np.sqrt(var)), w0 / var])
    detuning = grid.axes[0] - w0
    gaussian = np.exp(-(detuning**2) / (4.0 * var))
    # the envelope does not depend on theta: normalized once for every call
    envelope = _unit_reference("gaussian-pulse", grid, gaussian, (2.0 * np.pi * var) ** (-0.25))

    def mode_fn(mode_index: int, theta: np.ndarray) -> np.ndarray:
        t_phase, t_group, t_gvd = theta
        phase = w0 * t_phase + detuning * t_group + detuning**2 / w0 * t_gvd
        return envelope * np.exp(1j * phase)

    def derivative(mode_index: int, parameter: int) -> np.ndarray:
        if parameter == 0:
            return 1j * w0 * envelope
        if parameter == 1:
            return 1j * detuning * envelope
        return 1j * detuning**2 / w0 * envelope

    return ParameterFamily(
        name="gaussian-pulse",
        parameters=_PULSE_PARAMETERS,
        units=("time", "time", "time"),
        grid=grid,
        theta_scales=scales,
        mode_fn=mode_fn,
        derivative_fn=derivative,
        oracle_fn=_pulse_oracle(spectrum),
    )


# ---------------------------------------------------------------------------
# Transverse displacement only (amplitude-encoded fixture)


def displaced_beam_family(
    waist: float,
    grid: SampleGrid | None = None,
    *,
    points: int = _BEAM_POINTS,
) -> ParameterFamily:
    """Two-parameter transverse-displacement family of a Gaussian spot.

    Both derivatives are real multiples of the mode, so the parameters are
    encoded purely in the amplitude; this is the canonical amplitude-only
    and mean-field fixture.  Without a ``grid``, the family samples
    ``points`` per axis over +-4 waists.
    """
    if waist <= 0:
        raise StructuralError("waist must be positive")
    if grid is None:
        grid = transverse_grid(waist, points)
    spot = _gaussian_spot(grid, waist)
    base = _unit_reference("displaced-beam", grid, spot, np.sqrt(2.0 / np.pi) / waist)

    @cache
    def reference() -> tuple:
        return _reference_pieces(_spot_factors(grid, waist, [0.0, 0.0], [0, 0], None))

    def mode_fn(mode_index: int, theta: np.ndarray) -> ProductSum:
        return _unit_outer(*_spot_factors(grid, waist, *_values_and_bits(theta), reference))

    def derivative(mode_index: int, parameter: int) -> ProductSum:
        return base.along(parameter, 2.0 * grid.axes[parameter] / waist**2)

    def oracle(mean_photons: float, info: float) -> np.ndarray:
        entry = 4.0 * mean_photons / waist**2
        return np.diag([entry, entry])

    return ParameterFamily(
        name="displaced-beam",
        parameters=_DISPLACEMENT_PARAMETERS,
        units=("length", "length"),
        grid=grid,
        theta_scales=np.array([waist, waist]),
        mode_fn=mode_fn,
        derivative_fn=derivative,
        oracle_fn=oracle,
    )


# ---------------------------------------------------------------------------
# Registry


_BEAM_GEOMETRY = {"w0": "waist size (length, > 0)", "k": "wave number (1/length, > 0)"}
_BEAM_GRID = {"points": _BEAM_POINTS, "halfwidth_waists": _BEAM_HALFWIDTH_WAISTS}


def _beam_entry(carrier_phase: bool) -> dict:
    def build(geometry: dict, points: int) -> ParameterFamily:
        geo = BeamGeometry(waist=float(geometry["w0"]), wavenumber=float(geometry["k"]))
        return gaussian_beam_family(geo, carrier_phase, points=points)

    return {
        "build": build,
        "geometry": dict(_BEAM_GEOMETRY),
        "parameters": list(_BEAM_PARAMETERS),
        "default_grid": dict(_BEAM_GRID),
    }


FAMILY_REGISTRY: dict[str, dict] = {
    "gaussian-beam": _beam_entry(carrier_phase=False),
    "gaussian-beam-carrier": _beam_entry(carrier_phase=True),
    "gaussian-pulse": {
        "build": lambda geometry, points: gaussian_pulse_family(
            PulseSpectrum(float(geometry["omega0"]), float(geometry["variance"])), points=points
        ),
        "geometry": {
            "omega0": "mean angular frequency (rad/time, > 0)",
            "variance": "spectral variance (rad^2/time^2, > 0)",
        },
        "parameters": list(_PULSE_PARAMETERS),
        "default_grid": {"points": _PULSE_POINTS, "halfwidth_sigmas": _PULSE_HALFWIDTH_SIGMAS},
    },
    "displaced-beam": {
        "build": lambda geometry, points: displaced_beam_family(
            float(geometry["w0"]), points=points
        ),
        "geometry": {"w0": _BEAM_GEOMETRY["w0"]},
        "parameters": list(_DISPLACEMENT_PARAMETERS),
        "default_grid": dict(_BEAM_GRID),
    },
}


def build_family(name: str, geometry: dict, points: int | None = None) -> ParameterFamily:
    """Instantiate a registered family from its geometry mapping.

    ``points`` is the number of grid points per axis; None takes the
    family's ``default_grid``.  The grid's extent is fixed per family.
    """
    if name not in FAMILY_REGISTRY:
        known = ", ".join(sorted(FAMILY_REGISTRY))
        raise StructuralError(f"unknown family '{name}'; known families: {known}")
    entry = FAMILY_REGISTRY[name]
    if points is None:
        points = entry["default_grid"]["points"]
    return entry["build"](geometry, points)
