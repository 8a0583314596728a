import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np
import pytest

from modal_qcrb import (
    BeamGeometry,
    CutoffError,
    DensityState,
    DetectionMode,
    FockSpace,
    GridMismatchError,
    Mode,
    ParameterFamily,
    PreconditionError,
    PulseSpectrum,
    SampleGrid,
    StructuralError,
    displaced_beam_family,
    gaussian_beam_family,
    gaussian_pulse_family,
    make_state,
    qfim_unitary,
)
from modal_qcrb import cli
from modal_qcrb.modes import _check_orthonormal, grid_gram
from modal_qcrb.states import LoweredTable, _coefficient_matrices, _raise_sum, parse_probe
from modal_qcrb.tolerances import MAX_CUTOFF, TAU_CUTOFF, TAU_QUAD, TAU_RANK

W0 = 1.0
K = 10.0
OMEGA0 = 100.0
VARIANCE = 25.0

# one-mode probes of every CLI kind that the truncated Fock space still
# holds within its cap: the reference for the closed-form statistics
FOCK_ROUTE_PROBES = (
    {"kind": "coherent", "nbar": 0.0},
    {"kind": "coherent", "nbar": 0.5},
    {"kind": "coherent", "nbar": 5.0},
    {"kind": "fock", "n": 0},
    {"kind": "fock", "n": 1},
    {"kind": "fock", "n": 5},
    {"kind": "thermal", "nbar": 0.0},
    {"kind": "thermal", "nbar": 0.5},
    {"kind": "thermal", "nbar": 2.0},
    {"kind": "squeezed-vacuum", "r": 0.0},
    {"kind": "squeezed-vacuum", "r": 0.3, "phi": 0.7},
    {"kind": "squeezed-vacuum", "r": -0.7},
    {"kind": "squeezed-vacuum", "r": 0.9, "phi": 2.0},
)


@pytest.fixture(scope="session")
def beam_family():
    return gaussian_beam_family(BeamGeometry(waist=W0, wavenumber=K))


@pytest.fixture(scope="session")
def beam_carrier_family():
    return gaussian_beam_family(BeamGeometry(waist=W0, wavenumber=K), carrier_phase=True)


@pytest.fixture(scope="session")
def pulse_family():
    return gaussian_pulse_family(PulseSpectrum(center_frequency=OMEGA0, variance=VARIANCE))


@pytest.fixture(scope="session")
def displaced_family():
    return displaced_beam_family(W0)


def hermite_gaussian_samples(grid, order_x: int, order_y: int, waist: float) -> np.ndarray:
    """Orthonormal Hermite-Gaussian profile on a 2-D grid (test helper)."""
    from numpy.polynomial.hermite import hermval

    xg, yg = grid.mesh()

    def axis_profile(coord, order):
        c = np.zeros(order + 1)
        c[order] = 1.0
        scaled = np.sqrt(2.0) * coord / waist
        norm = np.sqrt(
            np.sqrt(2.0 / np.pi)
            / (waist * 2.0**order * float(math.factorial(order)))
        )
        return norm * hermval(scaled, c) * np.exp(-(coord**2) / waist**2)

    return (axis_profile(xg, order_x) * axis_profile(yg, order_y)).astype(complex)


def random_mode_parameter_data(rng, n_params=2, n_modes=2, grid_points=161):
    """Random populated basis plus derivative modes consistent with a
    norm-preserving parametrization.

    The populated-span coefficients (f_j | d_a f_k) are drawn
    anti-Hermitian (which is exactly the norm-preservation constraint),
    and each derivative picks up an arbitrary component orthogonal to the
    populated span.
    """
    grid = SampleGrid.uniform(np.linspace(-5.0, 5.0, grid_points))
    x = grid.axes[0]

    def random_profile():
        coeff = rng.normal(size=5) + 1j * rng.normal(size=5)
        poly = sum(c * x**p for p, c in enumerate(coeff))
        return Mode(grid, poly * np.exp(-(x**2) / 2.0))

    basis = gram_schmidt([random_profile() for _ in range(n_modes)]).basis
    populated = list(basis.modes)

    derivatives = []
    for _ in range(n_params):
        raw = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
        span_coeff = (raw - raw.conj().T) / 2.0  # anti-Hermitian
        row = []
        for k in range(n_modes):
            extra = random_profile()
            samples = extra.samples.copy()
            for mode in populated:
                samples -= inner_product(mode, extra) * mode.samples
            for j in range(n_modes):
                samples += span_coeff[j, k] * populated[j].samples
            row.append(Mode(grid, samples))
        derivatives.append(row)
    return populated, derivatives


def with_idle_parameter(family):
    """Copy of a two-parameter family padded with a no-effect parameter."""
    from dataclasses import replace

    def mode_fn(k, theta):
        return family.mode_fn(k, theta[:2])

    def derivative_fn(k, a):
        if a < 2:
            return family.derivative_fn(k, a)
        return np.zeros(family.grid.shape, dtype=complex)

    return replace(
        family,
        parameters=(*family.parameters, "idle"),
        units=(*family.units, "1"),
        theta_scales=np.append(family.theta_scales, 1.0),
        mode_fn=mode_fn,
        derivative_fn=derivative_fn,
        oracle_fn=None,
    )


def export_detection_modes(family, out) -> dict:
    """Write a family's detection-mode files into ``out`` as the CLI does; return the sidecar."""
    cli._write_run(out, cli._detection_mode_files(family))
    return json.loads((out / "detection_modes.json").read_text())


def random_density_state(rng, space: FockSpace, rank: int):
    """Random state with support away from the cutoff boundary."""
    dims = (space.levels,) * space.n_modes
    occupations = np.unravel_index(np.arange(space.dimension), dims)
    interior = np.ones(space.dimension, dtype=bool)
    for occ in occupations:
        interior &= occ < space.cutoff

    raw = rng.normal(size=(space.dimension, rank)) + 1j * rng.normal(
        size=(space.dimension, rank)
    )
    raw[~interior, :] = 0.0
    q, _ = np.linalg.qr(raw)
    if rank == 1:
        probs = np.array([1.0])
    else:
        probs = rng.uniform(0.1, 1.0, size=rank)
        probs /= probs.sum()
    return make_state("custom", space, probabilities=probs, vectors=q[:, :rank])


# ---------------------------------------------------------------------------
# One-mode Fock states of the named probe kinds: the truncated reference
# that the closed-form photon statistics and the one-mode route are held to


def _coherent_amplitudes(levels: int, nbar: float) -> np.ndarray:
    # e^(-nbar/2) nbar^(n/2) / sqrt(n!) as a running product from the
    # vacuum term, which can only underflow, whatever nbar
    ratios = np.sqrt(nbar / np.arange(1.0, levels))
    return np.cumprod(np.concatenate(([math.exp(-nbar / 2.0)], ratios)))


def _fock_amplitudes(levels: int, n: int) -> np.ndarray:
    return (np.arange(levels) == n).astype(float)


def _thermal_probabilities(levels: int, nbar: float) -> np.ndarray:
    # nbar^n / (1 + nbar)^(n + 1), as powers of a ratio below 1 so that no
    # nbar overflows
    return (nbar / (1.0 + nbar)) ** np.arange(levels) / (1.0 + nbar)


def _squeezed_amplitudes(levels: int, r: float, phi: float = 0.0) -> np.ndarray:
    # even levels only: <0|state> = 1 / sqrt(cosh r), written so that no
    # large r overflows, then the ratios -e^(i phi) tanh r sqrt((2m-1) / 2m)
    m = np.arange(1.0, (levels + 1) // 2)
    ratios = -np.exp(1j * phi) * math.tanh(r) * np.sqrt((2.0 * m - 1.0) / (2.0 * m))
    vacuum = math.sqrt(2.0 * math.exp(-abs(r)) / (1.0 + math.exp(-2.0 * abs(r))))
    amplitudes = np.zeros(levels, dtype=complex)
    amplitudes[::2] = np.cumprod(np.concatenate(([vacuum], ratios)))
    return amplitudes


# Per kind: the first ``levels`` number-basis amplitudes of the untruncated
# state, or for a diagonal kind (True) its number-basis probabilities.
FOCK_FORMS = {
    "coherent": (_coherent_amplitudes, False),
    "fock": (_fock_amplitudes, False),
    "thermal": (_thermal_probabilities, True),
    "squeezed-vacuum": (_squeezed_amplitudes, False),
}

# Levels of the number distribution searched for a cutoff; a state that
# needs more is suggested this many, which is beyond the hard cap.
_SEARCH_LEVELS = 4 * MAX_CUTOFF + 1


def _suggest_cutoff(distribution: np.ndarray) -> int:
    """Smallest cutoff c with P(N >= c) within the truncation budget."""
    tail = 1.0 - np.cumsum(distribution)  # tail[c - 1] = P(N >= c)
    within = np.flatnonzero(tail <= TAU_CUTOFF)
    return int(within[0]) + 1 if within.size else distribution.size


def _embed(space: FockSpace, column: np.ndarray, mode: int) -> np.ndarray:
    """Tensor a single-mode vector with vacuum in all other modes."""
    vacuum = np.zeros(space.levels, dtype=complex)
    vacuum[0] = 1.0
    parts = [column if m == mode else vacuum for m in range(space.n_modes)]
    return reduce(np.kron, parts)


def probe_state(kind: str, space: FockSpace | None = None, *, mode: int = 0, **parameters) -> DensityState:
    """The Fock state of a named probe kind in one populated mode.

    The fields are checked by ``parse_probe``, as the CLI checks them.
    Without an explicit ``space``, the smallest per-mode cutoff with
    truncation tail below the cutoff budget is chosen, capped at the hard
    maximum.  The populated mode ``mode`` holds the kind's Fock form,
    renormalized on the kept levels, and every other mode is in vacuum.
    """
    _, values = parse_probe({"kind": kind, **parameters})
    form, diagonal = FOCK_FORMS[kind]
    column = form(_SEARCH_LEVELS, **values)
    needed = _suggest_cutoff(column if diagonal else np.abs(column) ** 2)
    if space is None:
        if needed > MAX_CUTOFF:
            raise CutoffError(
                f"state '{kind}' needs a cutoff beyond the hard cap {MAX_CUTOFF}",
                suggested_cutoff=needed,
            )
        space = FockSpace(n_modes=1, cutoff=needed)
    if space.cutoff < needed:
        raise CutoffError(
            f"cutoff {space.cutoff} leaks more than the truncation budget "
            f"for state '{kind}'",
            suggested_cutoff=needed,
        )
    if not 0 <= mode < space.n_modes:
        raise StructuralError(f"mode index {mode} outside 0..{space.n_modes - 1}")

    column = column[: space.levels]
    if diagonal:
        vectors = np.stack([_embed(space, level, mode) for level in np.eye(space.levels)], axis=1)
        return DensityState(space, column / column.sum(), vectors)
    vector = _embed(space, column / np.linalg.norm(column), mode)
    return DensityState(space, np.array([1.0]), vector[:, None])


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


# ---------------------------------------------------------------------------
# Pairwise overlaps and mode lists: per-pair references for the slices of
# the overlap table, which the library computes as one Gram matrix


def inner_product(a: Mode, b: Mode) -> complex:
    """Quadrature inner product sum(w * conj(a) * b); conjugate-linear in a.

    Conjugate symmetry holds exactly as computed:
    ``inner_product(a, b) == conj(inner_product(b, a))``.
    """
    if not a.grid.compatible(b.grid):
        raise GridMismatchError("modes are sampled on different grids")
    # conj(a) * b first: its swap is the exact IEEE conjugate, and the real
    # weights preserve that, so conjugate symmetry holds bitwise
    return complex(np.sum(a.grid.weights * (np.conj(a.samples) * b.samples)))


def mode_norm(mode: Mode) -> float:
    """Quadrature L2 norm of a mode."""
    value = inner_product(mode, mode).real
    return float(np.sqrt(max(value, 0.0)))


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """An ordered list of modes sampled on one grid."""

    modes: tuple[Mode, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise StructuralError("a mode basis needs at least one mode")
        grid = modes[0].grid
        for m in modes[1:]:
            if not grid.compatible(m.grid):
                raise GridMismatchError("basis modes are sampled on different grids")

    def __len__(self) -> int:
        return len(self.modes)

    def gram(self) -> np.ndarray:
        return grid_gram(self.modes[0].grid, [m.data for m in self.modes])

    def validate(self) -> None:
        _check_orthonormal(self.gram())


def apply_quadratic(space: FockSpace, coefficients, vectors: np.ndarray) -> np.ndarray:
    """sum_{jk} C_{jk} a_j_dagger a_k applied to the columns of a (D, r) block.

    The lowering shifts of a state's table and the raising sum of
    ``qfim_unitary``, applied to arbitrary columns; the dense operator of
    :func:`dense_quadratic` is its reference.
    """
    coefficients = _coefficient_matrices(space, coefficients)
    if coefficients.ndim != 2:
        raise StructuralError(f"coefficient shape {coefficients.shape} is not one matrix")
    return _raise_sum(space, coefficients, LoweredTable.of(space, vectors).lowered)


def vacuum_overlap(f_alpha: Mode, f_beta: Mode, populated: ModeBasis) -> complex:
    """Overlap of two modes through the projector onto the vacuum-mode span.

    Returns ``(fa|fb) - sum_k (fa|f_k)(f_k|fb)`` over the populated modes
    f_k, which must be orthonormal; a per-pair oracle for the slices of the
    overlap table.
    """
    populated.validate()
    value = inner_product(f_alpha, f_beta)
    for mode in populated.modes:
        value -= inner_product(f_alpha, mode) * inner_product(mode, f_beta)
    return value


def number_moments(state: DensityState) -> tuple[float, float]:
    """Mean photon number and the second moment trace(rho N^2).

    Read from the photon numbers of the basis states (mode 0 most
    significant); an oracle for the closed-form photon statistics.
    """
    space = state.space
    occupations = np.unravel_index(np.arange(space.dimension), (space.levels,) * space.n_modes)
    total = np.sum(occupations, axis=0).astype(float)
    density = np.sum(np.abs(state.vectors) ** 2 * state.probabilities, axis=1)
    return float(np.sum(density * total)), float(np.sum(density * total**2))


def number_information(state: DensityState) -> float:
    """Information carried by the total photon-number operator.

    Equals 4 Var(N) for pure states and vanishes for states diagonal in
    the number basis (thermal).
    """
    identity = np.eye(state.space.n_modes, dtype=complex)
    return float(qfim_unitary(state, identity[None, ...])[0, 0])


@dataclass(frozen=True, eq=False)
class GramSchmidtResult:
    """Output of :func:`gram_schmidt`.

    ``coefficients`` is the triangle mapping inputs to outputs:
    ``basis.modes[i] == sum_j coefficients[i, j] * inputs[j]``.
    ``pivot_norms[i]`` is the residual norm of input ``i`` against the
    previously accepted modes (for unit inputs with overlap d this is
    ``sqrt(1 - |d|^2)``).  ``dependent_indices`` lists the dropped inputs.
    """

    basis: ModeBasis
    coefficients: np.ndarray
    pivot_norms: np.ndarray
    dependent_indices: tuple[int, ...] = ()


def gram_schmidt(modes: Sequence[Mode]) -> GramSchmidtResult:
    """Orthonormalize a mode list on the full samples, tracking the triangle.

    Modified Gram-Schmidt with a re-orthogonalization pass, so the output
    Gram matrix stays at machine-precision identity; an input whose pivot
    norm is below ``TAU_RANK`` (relative to the input norm) is dropped.
    The oracle for the readout basis, which the library factors from the
    overlap table instead.
    """
    modes = list(modes)
    if not modes:
        raise StructuralError("gram_schmidt needs at least one mode")
    grid = modes[0].grid
    n = len(modes)

    accepted: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    pivots = np.zeros(n)
    dependent: list[int] = []

    for i, m in enumerate(modes):
        if not grid.compatible(m.grid):
            raise GridMismatchError("modes are sampled on different grids")
        v = m.samples.astype(complex).copy()
        row = np.zeros(n, dtype=complex)
        row[i] = 1.0
        for _ in range(2):  # second pass keeps the Gram residual at round-off
            for q, qrow in zip(accepted, rows):
                ov = np.sum(grid.weights * np.conj(q) * v)
                v -= ov * q
                row -= ov * qrow
        pivot = float(np.sqrt(max(np.sum(grid.weights * np.abs(v) ** 2).real, 0.0)))
        pivots[i] = pivot
        ref = float(np.sqrt(max(np.sum(grid.weights * np.abs(m.samples) ** 2).real, 0.0)))
        if pivot < TAU_RANK * max(ref, 1.0):
            dependent.append(i)
            continue
        accepted.append(v / pivot)
        rows.append(row / pivot)

    if not accepted:
        raise StructuralError("every mode is dependent on its predecessors")
    basis = ModeBasis(tuple(Mode(grid, q) for q in accepted))
    return GramSchmidtResult(
        basis=basis,
        coefficients=np.array(rows),
        pivot_norms=pivots,
        dependent_indices=tuple(dependent),
    )


def commutator_from_overlaps(
    derivative_overlaps: np.ndarray, moments: np.ndarray
) -> np.ndarray:
    """Pure-state commutator expectation from derivative-mode overlaps.

    Returns 2 Im sum_{jl} (d_a f_j | d_b f_l) <a_j_dagger a_l> for every
    parameter pair; equals the mixed-state matrix for rank-one states.
    """
    n_p = derivative_overlaps.shape[0]
    u = np.zeros((n_p, n_p))
    for a in range(n_p):
        for b in range(a + 1, n_p):
            s = complex(np.sum(derivative_overlaps[a, b] * moments))
            u[a, b] = 2.0 * s.imag
            u[b, a] = -u[a, b]
    return u


def family_from_modes(populated, derivatives, labels) -> ParameterFamily:
    """Family over explicit modes; ``derivatives[a][k]`` is d_a f_k.

    Its ``generators`` are the coefficients of these modes, read from the
    same overlap table as for any built-in family.
    """
    n_p = len(derivatives)
    return ParameterFamily(
        name="explicit-modes",
        parameters=tuple(labels),
        units=("1",) * n_p,
        grid=populated[0].grid,
        theta_scales=np.ones(n_p),
        mode_fn=lambda k, theta: populated[k].samples,
        derivative_fn=lambda k, a: derivatives[a][k].samples,
        n_modes=len(populated),
    )


# ---------------------------------------------------------------------------
# Strong-mean-field route and the homodyne readout forward model: independent
# oracles for the information matrix and for its attainability

# Symmetry and uncertainty-relation slack of Gaussian covariance matrices.
TAU_COV = 1e-10

# Slack of a detection-mode overlap magnitude above 1; the squared readout
# complement below this marks proportional detection modes.
TAU_OVERLAP = 1e-12


def _symplectic_form(n_modes: int) -> np.ndarray:
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean quadratures and covariance over an orthonormal mode list.

    Ordering is (q_1..q_M, p_1..p_M) with q = a + a_dagger, so the vacuum
    covariance is the identity.  The covariance is the symmetrized second
    moment about the mean.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise StructuralError("mean quadrature vector must have even length")
        d = mean.size
        if cov.shape != (d, d):
            raise StructuralError("covariance shape does not match the mean vector")
        if np.max(np.abs(cov - cov.T)) > TAU_COV:
            raise StructuralError("covariance matrix is not symmetric")
        omega = _symplectic_form(d // 2)
        eigvals = np.linalg.eigvalsh(cov + 1j * omega)
        if eigvals.min() < -TAU_COV:
            raise StructuralError(
                "covariance violates the uncertainty relation "
                f"(min eigenvalue of sigma + i Omega is {eigvals.min():.3e})"
            )

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    @classmethod
    def vacuum(cls, n_modes: int) -> "GaussianState":
        return cls(np.zeros(2 * n_modes), np.eye(2 * n_modes))

    @classmethod
    def squeezed(cls, q_variances: Sequence[float]) -> "GaussianState":
        """Product state with given q variances and minimum-uncertainty p."""
        v = np.asarray(q_variances, dtype=float)
        if np.any(v <= 0):
            raise StructuralError("quadrature variances must be positive")
        return cls(np.zeros(2 * v.size), np.diag(np.concatenate([v, 1.0 / v])))

    @classmethod
    def coherent(cls, amplitudes: Sequence[complex]) -> "GaussianState":
        """Vacuum fluctuations displaced to <a_k> = amplitudes[k]."""
        a = np.asarray(amplitudes, dtype=complex)
        mean = np.concatenate([2.0 * a.real, 2.0 * a.imag])
        return cls(mean, np.eye(2 * a.size))


def quadrature_covariance(
    state: GaussianState,
    targets: Sequence[DetectionMode],
    reference: ModeBasis,
) -> np.ndarray:
    """Symmetrized covariance of the target-mode amplitude quadratures.

    Each target is expanded over the reference basis; the out-of-span
    remainder is assigned vacuum fluctuations, so for an all-vacuum state
    the result is Re of the target Gram matrix.
    """
    ref_modes = reference.modes
    if len(ref_modes) != state.n_modes:
        raise StructuralError(
            "reference basis size does not match the Gaussian state"
        )
    try:
        reference.validate()
    except StructuralError as exc:
        raise StructuralError(f"reference basis must be orthonormal: {exc}") from exc

    n_ref = len(ref_modes)
    n_t = len(targets)
    coeff = np.zeros((n_t, n_ref), dtype=complex)
    remainders: list[Mode] = []
    for i, det in enumerate(targets):
        for k, ref in enumerate(ref_modes):
            coeff[i, k] = inner_product(ref, det.mode)
        residual = det.mode.samples - sum(
            coeff[i, k] * ref_modes[k].samples for k in range(n_ref)
        )
        remainders.append(Mode(det.mode.grid, residual))

    # q of the target splits into Re(c) q_k + Im(c) p_k plus the remainder.
    vectors = np.hstack([coeff.real, coeff.imag])
    cov = vectors @ state.covariance @ vectors.T
    for i in range(n_t):
        for j in range(i, n_t):
            extra = inner_product(remainders[i], remainders[j]).real
            cov[i, j] += extra
            if j != i:
                cov[j, i] += extra
    return (cov + cov.T) / 2.0


def qfim_mean_field(
    mean_photons: float,
    detections: Sequence[DetectionMode],
    covariance: np.ndarray,
    *,
    mean_mode: Mode | None = None,
) -> np.ndarray:
    """Strong-mean-field information matrix 4 N0 w_a w_b Cov(q_a, q_b).

    ``covariance`` is the symmetrized quadrature covariance of the
    detection modes (see :func:`quadrature_covariance`).  When
    ``mean_mode`` is given, each detection mode is checked to be
    orthogonal to it, which is the condition for the mean-field generator
    to reduce to a quadrature.
    """
    if mean_photons <= 0:
        raise PreconditionError("the mean-field photon number must be positive")
    covariance = np.asarray(covariance, dtype=float)
    n_p = len(detections)
    if covariance.shape != (n_p, n_p):
        raise StructuralError("covariance shape does not match the detection modes")
    if mean_mode is not None:
        for det in detections:
            if det.degenerate:
                continue
            overlap = abs(inner_product(mean_mode, det.mode))
            if overlap > TAU_QUAD:
                raise PreconditionError(
                    f"parameter '{det.label or '?'}' is not encoded purely in "
                    f"the mode amplitude: |(f0|detection)| = {overlap:.3e}"
                )
    w = np.array([det.weight for det in detections])
    f = 4.0 * mean_photons * np.outer(w, w) * covariance
    return (f + f.T) / 2.0


@dataclass(frozen=True)
class ReadoutMeans:
    """Mean quadratures seen by the orthogonalized two-mode readout."""

    q_first: float
    p_first: float
    q_second: float
    degenerate_pair: bool


def readout_means(
    signal_a: float,
    signal_b: float,
    overlap: complex,
    mean_photons: float,
) -> ReadoutMeans:
    """Forward model of the Gram-Schmidt homodyne readout.

    ``signal_a``/``signal_b`` are the products theta * weight for the two
    parameters; ``overlap`` is the detection-mode overlap.  The first
    readout mode carries signal_a + Re(overlap) signal_b in its amplitude
    quadrature and Im(overlap) signal_b in the conjugate quadrature; the
    second mode keeps sqrt(1 - |overlap|^2) signal_b.  Proportional
    detection modes (|overlap| = 1) are flagged: the second readout mode
    degenerates and its signal vanishes.
    """
    if mean_photons <= 0:
        raise PreconditionError("the mean-field photon number must be positive")
    d = complex(overlap)
    mag2 = abs(d) ** 2
    if mag2 > 1.0 + TAU_OVERLAP:
        raise PreconditionError(
            f"detection-mode overlap magnitude {abs(d):.6f} exceeds 1"
        )
    complement = float(np.sqrt(max(1.0 - mag2, 0.0)))
    degenerate = complement**2 < TAU_OVERLAP
    s = 2.0 * float(np.sqrt(mean_photons))
    return ReadoutMeans(
        q_first=s * (signal_a + d.real * signal_b),
        p_first=s * d.imag * signal_b,
        # proportional detection modes leave no second readout direction;
        # the noise-amplified sqrt residue is zeroed with the flag
        q_second=0.0 if degenerate else s * complement * signal_b,
        degenerate_pair=degenerate,
    )


def gram_schmidt_readout(
    theta_a: float,
    theta_b: float,
    detection_a: DetectionMode,
    detection_b: DetectionMode,
    mean_photons: float,
) -> ReadoutMeans:
    """Readout means for two detection modes at given parameter values."""
    overlap = inner_product(detection_a.mode, detection_b.mode)
    return readout_means(
        theta_a * detection_a.weight,
        theta_b * detection_b.weight,
        overlap,
        mean_photons,
    )
