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
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import EvaluationError, GridResolutionError, PreconditionError, StructuralError
from .modes import (
    Mode,
    OverlapTable,
    ProductSum,
    SampleGrid,
    _factored_gram,
    _one_term_norm2,
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
    :class:`~modal_qcrb.modes.ProductSum` instead of an array; the built-in
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
        return self._evaluated(self.mode_fn, mode_index, theta)

    def _evaluated(self, rule: Callable, mode_index: int, arg) -> Mode:
        """``Mode(grid, rule(mode_index, arg))``: the rules called one row at a time.

        numpy does not warn while the rule runs, since an overflow leaves a
        non-finite or vanishing profile; an :class:`EvaluationError` of the
        rule or of the mode is raised again naming the row (:meth:`_name`).
        """
        if not 0 <= mode_index < self.n_modes:
            raise StructuralError(f"mode index {mode_index} outside the family")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return Mode(self.grid, rule(mode_index, arg))
        except EvaluationError as exc:
            raise EvaluationError(f"{self._name(mode_index, arg)}: {exc}") from None

    def _name(self, mode_index: int, arg) -> str:
        if isinstance(arg, np.ndarray):
            return f"mode {mode_index} at parameters {arg.tolist()}"
        return f"derivative of mode {mode_index} with respect to parameter '{self.parameters[arg]}'"

    def evaluate(self, theta: np.ndarray | None = None) -> tuple[Mode, ...]:
        return tuple(self.evaluate_mode(k, theta) for k in range(self.n_modes))

    @cached_property
    def derivative_modes(self) -> tuple[tuple[Mode, ...], ...]:
        """``[a][k]`` is d_a f_k at theta = 0, each evaluated once and kept.

        The detection modes are formed from them, and the overlap table
        unless it is stacked; a stacked table's rows are read off it.
        """
        if self._stacked is None:
            return tuple(
                tuple(derivative_mode(self, k, a) for k in range(self.n_modes))
                for a in range(self.n_parameters)
            )
        stacks, counts = self._stacked
        ends = np.cumsum(counts).tolist()
        rows = (tuple(zip(*(f[t:end] for f in stacks))) for t, end in zip(ends, ends[1:]))
        return tuple((Mode(self.grid, ProductSum._unchecked(row)),) for row in rows)

    @cached_property
    def overlap_table(self) -> OverlapTable:
        """Overlaps of the modes at theta = 0 and their derivative modes.

        Built on first use, with the family's parameter names; every
        engine quantity about the modes, the generator ``matrices``
        included, is a slice of it.  A separable family's table is formed
        from its stacks (:attr:`_stacked`); any other from one evaluation
        of the family and its ``derivative_modes``.
        """
        if self._stacked is None:
            return OverlapTable.from_modes(self.evaluate(), self.derivative_modes, self.parameters)
        matrix = _factored_gram(*self._stacked, self.grid.axis_weights)
        return OverlapTable(matrix, self.parameters, 1)

    @cached_property
    def _stacked(self) -> tuple[list, list[int]] | None:
        """:meth:`_Separable.table_stacks` of the family's declaration, or None.

        None unless the family keeps a separable declaration's grid, one
        ``mode`` and its ``derivative`` or that mode's finite difference;
        a failing row raises as on the route row by row.
        """
        separable, rule = getattr(self.mode_fn, "__self__", None), self.derivative_fn
        own = isinstance(separable, _Separable) and self.n_modes == 1
        if not (own and self.mode_fn == separable.mode and self.grid is separable.grid):
            return None
        fd = getattr(rule, "func", None) is _finite_difference and rule.args[0] == separable.mode
        if not (fd or rule == separable.derivative):
            return None
        with np.errstate(over="ignore", invalid="ignore"):  # checked there
            return separable.table_stacks(rule.args[1] if fd else None, partial(self._name, 0))

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
    return family._evaluated(family.derivative_fn, mode_index, parameter)


def finite_difference_family(
    family: ParameterFamily, step: float | None = None
) -> ParameterFamily:
    """The family with its derivatives taken by finite differences.

    A central difference with one Richardson refinement, step
    ``|theta_scale| * 1e-4`` unless given, so the step follows each
    parameter's own scale whether it is large or small.  Each derivative
    mode costs four shifted evaluations of the family's ``mode_fn`` (a
    built-in table forms all in one pass); a non-finite sample in any of
    them stays non-finite in their difference, which
    :func:`derivative_mode` checks once, naming the parameter; it names a
    failed shifted evaluation too.  A step below
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

    return replace(family, derivative_fn=partial(_finite_difference, family.mode_fn, tuple(steps)))


def _finite_difference(
    mode_fn: Callable, steps: tuple[float, ...], mode_index: int, parameter: int
) -> np.ndarray | ProductSum:
    """The rule of :func:`finite_difference_family`, bound to ``mode_fn`` and ``steps``."""
    h = steps[parameter]
    thetas = np.zeros((4, len(steps)))
    thetas[:, parameter] = h, -h, h / 2.0, -(h / 2.0)
    shifted = [mode_fn(mode_index, theta) for theta in thetas]
    shifted = [f if isinstance(f, ProductSum) else _real_or_complex(f) for f in shifted]
    return _richardson(h, *shifted)


def _richardson(h, plus, minus, half_plus, half_minus):
    """(4 D(h/2) - D(h)) / 3, D(s) = (f(s) - f(-s)) / 2s, of f at h, -h, h/2, -h/2."""
    coarse = (plus - minus) / (2.0 * h)
    fine = (half_plus - half_minus) / (2.0 * (h / 2.0))
    return (4.0 * fine - coarse) / 3.0


def _unit_reference(name: str, grid: SampleGrid, raw: ProductSum, amplitude: float) -> ProductSum:
    """``raw`` at unit grid norm, once ``amplitude * raw``, the closed form, integrates to 1.

    Renormalizing would mask a coarse grid, so one norm of ``raw`` serves
    the check first and then the scaling.
    """
    norm2 = _one_term_norm2(raw, grid.axis_weights)
    err = abs(amplitude**2 * norm2 - 1.0)
    if not err <= 10.0 * TAU_QUAD:  # a non-finite or zero norm fails too
        raise GridResolutionError(
            f"grid too coarse for family '{name}': reference-mode norm error {err:.3e}"
        )
    return raw / np.sqrt(norm2)


# ---------------------------------------------------------------------------
# Separable families: one 1-D factor per axis, declared as data


@dataclass(frozen=True, eq=False)
class _Separable:
    """A family whose mode is a constant times one 1-D factor per axis, as data.

    ``reads[i]`` lists the parameters the factor along axis i reads;
    ``scalars(theta)`` checks one parameter row (floats) and returns the
    axis-free constant that scales the x factor (or None) and each axis
    factor's arguments; ``factor(points, rows)`` forms an axis factor for
    a stack of argument rows; ``profiles[a]`` gives derivative a as
    (axis, profile) terms of the unit reference ``base``.  The bound methods
    ``mode`` and ``derivative`` are the family's ``mode_fn`` and
    closed-form ``derivative_fn``.
    """

    grid: SampleGrid
    reads: tuple[tuple[int, ...], ...]
    scalars: Callable[[list], tuple]
    factor: Callable[[np.ndarray, list], np.ndarray]
    profiles: tuple[tuple[tuple[int, np.ndarray], ...], ...]
    base: ProductSum

    def unit_factors(self, thetas: np.ndarray) -> tuple[list, EvaluationError | None]:
        """The modes at the rows of ``thetas``: one (rows, points) factor stack per axis.

        Each distinct factor is formed once, keyed by the bits of the
        parameters it reads (0.0 and -0.0 may form different zeros) and
        shared across the axes of a square grid (``y is x``).  Unit norm
        keeps mode bases orthonormal at round-off where the grid truncates
        the profile: the x factor over the root of the product of the
        per-axis dots, bitwise :func:`~modal_qcrb.modes._one_term_norm2`.
        The stacks end before the first row whose check fails or norm
        vanishes, with its :class:`EvaluationError` (else None); an
        overflow leaves non-finite factors for the caller to check.
        """
        values, bits = thetas.tolist(), thetas.view(np.int64).tolist()
        scalars, error = [], None
        try:
            for theta in values:
                scalars.append(self.scalars(theta))
        except EvaluationError as exc:
            error = exc
        if not scalars:
            return [], error
        constants, arguments = zip(*scalars)
        axes = self.grid.axes
        shared = len(axes) == 2 and axes[1] is axes[0]
        # per group of axes with one points array: key -> (row, arguments)
        formed, picks = {}, []
        for axis, reads in enumerate(self.reads):
            slots = formed.setdefault(0 if shared else axis, {})
            keys = [tuple(row[i] for i in reads) for row in bits]
            picks.append(
                [slots.setdefault(key, (len(slots), a[axis]))[0] for key, a in zip(keys, arguments)]
            )
        factors = {g: self.factor(axes[g], [a for _, a in s.values()]) for g, s in formed.items()}
        stacks = [factors[0 if shared else axis][pick] for axis, pick in enumerate(picks)]
        if constants[0] is not None:
            stacks[0] = np.array(constants)[:, None] * stacks[0]
        # one BLAS dot per row, as for a single contiguous factor
        dots = [
            np.matmul((f.conj() * w)[:, None], f[:, :, None])[:, 0, 0]
            for f, w in zip(stacks, self.grid.axis_weights)
        ]
        norms = np.sqrt([float(math.prod(row, start=1.0).real) for row in zip(*dots)])
        vanished = np.flatnonzero(norms == 0.0)
        if vanished.size:
            error = EvaluationError("mode profile vanishes on the grid")
            stacks, norms = [f[: vanished[0]] for f in stacks], norms[: vanished[0]]
        stacks[0] = stacks[0] / norms[:, None]
        return stacks, error

    def family(self, **fields) -> ParameterFamily:
        return ParameterFamily(
            grid=self.grid, mode_fn=self.mode, derivative_fn=self.derivative, **fields
        )

    def mode(self, mode_index: int, theta: np.ndarray) -> ProductSum:
        stacks, error = self.unit_factors(np.array(theta, dtype=float, ndmin=2))
        if error:
            raise error
        return ProductSum._unchecked((tuple(f[0] for f in stacks),))

    def derivative(self, mode_index: int, parameter: int) -> ProductSum:
        # one term per profile: ``base`` times the profile along its axis
        terms = [self.base.along(axis, p).terms[0] for axis, p in self.profiles[parameter]]
        return ProductSum._unchecked(tuple(terms))

    def table_stacks(self, steps: tuple | None, name: Callable) -> tuple[list, list[int]]:
        """The table's rows as one factor stack per axis, and each row's term count.

        Theta = 0, then each derivative: closed-form without ``steps``, else
        by :func:`_richardson` on (P, points) slices of the 4 P shifts formed
        in one pass with theta = 0.  Bitwise the rules' rows one at a time;
        the first to fail, in their order, raises named by ``name``.
        """
        n = len(self.profiles)
        thetas = np.zeros((1 + 4 * len(steps or ()), n))
        for a, h in enumerate(steps or ()):
            thetas[1 + 4 * a : 5 + 4 * a, a] = h, -h, h / 2.0, -(h / 2.0)
        stacks, error = self.unit_factors(thetas)
        if not (stacks and len(stacks[0])):
            raise EvaluationError(f"{name(thetas[0])}: {error}") from None
        if steps is None:
            rows = [self.derivative(0, a).terms for a in range(n)]
        else:
            # the parameters with all four shifts formed
            p = (len(stacks[0]) - 1) // 4
            body = [f[1 : 1 + 4 * p] for f in stacks]
            shifted = [ProductSum._unchecked((tuple(f[j::4] for f in body),)) for j in range(4)]
            terms = _richardson(np.array(steps[:p]).reshape(p, 1), *shifted).terms
            rows = [tuple(tuple(f[a] for f in term) for term in terms) for a in range(p)]
        rows = [(tuple(f[0] for f in stacks),), *rows]
        stacks = [np.array(f) for f in zip(*(term for row in rows for term in row))]
        if error is None and all(np.isfinite(f).all() for f in stacks):
            return stacks, [len(row) for row in rows]
        # a non-finite row comes before the row whose rule failed, if any
        row = ([ProductSum._unchecked(terms).finite() for terms in rows] + [False]).index(False)
        if row < len(rows):
            error = EvaluationError("mode samples contain non-finite values")
        raise EvaluationError(f"{name(row - 1 if row else thetas[0])}: {error}") from None


def _unit_spot(name: str, grid: SampleGrid, waist: float) -> ProductSum:
    """Real Gaussian exp(-(x^2 + y^2) / waist^2) at unit norm, one factor if ``y is x``."""
    x, y = grid.axes
    factor_x = np.exp(-(x**2) / waist**2)
    # fresh 1-D factors of the grid's axes: valid as they stand
    spot = ProductSum._unchecked(((factor_x, factor_x if y is x else np.exp(-(y**2) / waist**2)),))
    return _unit_reference(name, grid, spot, np.sqrt(2.0 / np.pi) / waist)


# ---------------------------------------------------------------------------
# Gaussian transverse beam


def _beam_separable(name: str, geo: BeamGeometry, carrier: bool, grid: SampleGrid) -> _Separable:
    """The beam as a separable declaration, its derivatives on the unit spot.

    Each axis factor carries its Gaussian envelope, curvature phase and
    tilt phase, and reads (w0 shift, z0) and its axis's (centre, tilt);
    the amplitude, Gouy phase and carrier phase form the constant.  The
    scalars are Python floats, which raise where numpy's return inf.  A
    tilt whose phase turns by more than pi per sample is aliased.  A
    derivative profile in r^2 = x^2 + y^2 times the spot splits into one
    term per axis; the carrier's constant joins x.
    """
    w0, k, zr0 = geo.waist, geo.wavenumber, geo.rayleigh_range
    spacing = tuple(float((axis[1:] - axis[:-1]).max()) for axis in grid.axes)
    x, y = grid.axes

    def scalars(theta: list) -> tuple:
        x0, y0, z0, dw, tilt_x, tilt_y = theta
        waist = w0 + dw
        if waist <= 0:
            raise EvaluationError("waist perturbation makes the beam collapse")
        if abs(k * tilt_x) * spacing[0] > math.pi or abs(k * tilt_y) * spacing[1] > math.pi:
            raise EvaluationError("tilt_x or tilt_y turns the phase by more than pi per sample")
        try:
            zr = k * waist**2 / 2.0
            zeta = -z0  # observation plane sits at the origin; the waist moved to z0
            w = waist * math.sqrt(1.0 + (zeta / zr) ** 2)
            inv_radius = zeta / (zeta**2 + zr**2)
            exponent = -1.0 / w**2 + 0.5j * k * inv_radius
        except (OverflowError, ZeroDivisionError):
            raise EvaluationError("beam width, curvature or phase leaves double-precision range") from None
        # numpy's arctan2 may round differently from math.atan2
        phase = (k * zeta if carrier else 0.0) - np.arctan2(zeta, zr)
        constant = math.sqrt(2.0 / math.pi) / w * np.exp(1j * phase)
        return constant, ((exponent, x0, 1j * k * tilt_x), (exponent, y0, 1j * k * tilt_y))

    def factor(points: np.ndarray, rows: list) -> np.ndarray:
        exponent, centre, tilt = (np.array(column)[:, None] for column in zip(*rows))
        return np.exp(exponent * (points - centre) ** 2 + tilt * points)

    axial = (1j / zr0) * (1.0 - x**2 / w0**2)
    if carrier:
        axial = axial - 1j * k
    profiles = (
        ((0, 2.0 * x / w0**2),),
        ((1, 2.0 * y / w0**2),),
        ((0, axial), (1, (-1j / zr0) * y**2 / w0**2)),
        ((0, (2.0 * x**2 / w0**2 - 1.0) / w0), (1, 2.0 * y**2 / w0**3)),
        ((0, 1j * k * x),),
        ((1, 1j * k * y),),
    )
    base = _unit_spot(name, grid, w0)
    return _Separable(grid, ((0, 2, 3, 4), (1, 2, 3, 5)), scalars, factor, profiles, base)


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
    w0, tilt = geometry.waist, 1.0 / (geometry.wavenumber * geometry.waist)
    scales = np.array([w0, w0, axial_scale, w0, tilt, tilt])
    return _beam_separable(name, geometry, carrier_phase, grid).family(
        name=name,
        parameters=_BEAM_PARAMETERS,
        units=("length", "length", "length", "length", "rad", "rad"),
        theta_scales=scales,
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
    chirp = detuning**2 / w0
    raw = ProductSum.outer(np.exp(-(detuning**2) / (4.0 * var)))
    envelope = _unit_reference("gaussian-pulse", grid, raw, (2.0 * np.pi * var) ** (-0.25))

    def scalars(theta: list) -> tuple:
        t_phase, t_group, t_gvd = theta
        return np.exp(1j * (w0 * t_phase)), ((t_group, t_gvd),)

    def factor(points: np.ndarray, rows: list) -> np.ndarray:
        t_group, t_gvd = np.array(rows).T[:, :, None]
        return envelope.terms[0][0] * np.exp(1j * (detuning * t_group + chirp * t_gvd))

    profiles = tuple(((0, 1j * p),) for p in (np.full_like(detuning, w0), detuning, chirp))
    return _Separable(grid, ((1, 2),), scalars, factor, profiles, envelope).family(
        name="gaussian-pulse",
        parameters=_PULSE_PARAMETERS,
        units=("time", "time", "time"),
        theta_scales=scales,
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
    base = _unit_spot("displaced-beam", grid, waist)

    def scalars(theta: list) -> tuple:
        return None, tuple((centre,) for centre in theta)

    def factor(points: np.ndarray, rows: list) -> np.ndarray:
        centre = np.array(rows)
        return np.exp(-((points - centre) ** 2) / waist**2)

    def oracle(mean_photons: float, info: float) -> np.ndarray:
        entry = 4.0 * mean_photons / waist**2
        return np.diag([entry, entry])

    profiles = tuple(((a, 2.0 * axis / waist**2),) for a, axis in enumerate(grid.axes))
    return _Separable(grid, ((0,), (1,)), scalars, factor, profiles, base).family(
        name="displaced-beam",
        parameters=_DISPLACEMENT_PARAMETERS,
        units=("length", "length"),
        theta_scales=np.array([waist, waist]),
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
