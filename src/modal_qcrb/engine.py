"""Information matrices, attainability diagnostics, and Cramer-Rao bounds.

The engine is built on three pieces: generator coefficient matrices
G^a_{jk} = i (f_j | d_a f_k) over the populated modes, the general
mixed-state information matrix

    F_ab = 2 Tr(rho {H_a, H_b})
           - sum_{m,n} 8 p_m p_n / (p_m + p_n) Re <m|H_a|n><n|H_b|m>,

and the populated/vacuum split that adds 4 Re (d_a f_j | Pi_vac | d_b f_l)
<a_j_dagger a_l> for the information leaking into initially empty modes.
Single-mode and strong-mean-field fast paths are reductions of the same
formulas and are required to agree with the general route.  The mode
inputs of all of them are slices of one overlap table per run
(:func:`modal_qcrb.modes.overlap_table`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import PreconditionError, StructuralError
from .modes import (
    DetectionMode,
    Mode,
    ModeBasis,
    OverlapTable,
    derivative_mode,
    detection_mode,
    inner_product,
    overlap_table,
)
from .states import (
    DensityState,
    GaussianState,
    first_moments,
    number_moments,
    operator_matrix_elements,
    quadratic_operator,
)
from .tolerances import (
    PINV_RCOND,
    TAU_ATTAIN,
    TAU_HERM,
    TAU_OVERLAP,
    TAU_PROB,
    TAU_PSD,
    TAU_QUAD,
    TAU_ZERO,
)

if TYPE_CHECKING:  # pragma: no cover
    from .families import ParameterFamily


@dataclass(frozen=True, eq=False)
class GeneratorCoefficients:
    """Per-parameter generator data over the populated modes.

    All fields are read from one :class:`~modal_qcrb.modes.OverlapTable`.
    ``matrices[a]`` is the Hermitian coefficient matrix of the generator of
    parameter a (symmetrized; the pre-symmetrization residual is kept in
    ``hermiticity_residuals``).  ``derivative_overlaps[a, b, j, l]`` stores
    (d_a f_j | d_b f_l): the commutator expectations need these raw
    derivative-mode overlaps, which the populated-restricted matrices alone
    cannot express.  ``weights[a, k]`` is the norm of d_a f_k.
    """

    labels: tuple[str, ...]
    matrices: np.ndarray
    derivative_overlaps: np.ndarray
    weights: np.ndarray
    hermiticity_residuals: np.ndarray

    @property
    def n_parameters(self) -> int:
        return len(self.labels)

    @property
    def n_modes(self) -> int:
        return self.matrices.shape[-1]

    def total_weights(self) -> np.ndarray:
        """Per-parameter derivative norm across all populated modes."""
        return np.sqrt(np.sum(self.weights**2, axis=1))


def _generators_from_table(labels: Sequence[str], table: OverlapTable) -> GeneratorCoefficients:
    g = 1j * table.generator_overlaps
    g_h = g.conj().transpose(0, 2, 1)
    residuals = np.max(np.abs(g - g_h), axis=(1, 2))
    if np.any(residuals > TAU_HERM):
        worst = int(np.argmax(residuals))
        warnings.warn(
            f"generator for parameter '{labels[worst]}' has Hermiticity "
            f"residual {residuals[worst]:.3e}; the family's normalization "
            "may drift with this parameter",
            stacklevel=3,
        )
    return GeneratorCoefficients(
        labels=tuple(labels),
        matrices=(g + g_h) / 2.0,
        derivative_overlaps=table.derivative_overlaps,
        weights=table.weights,
        hermiticity_residuals=residuals,
    )


def generators_from_modes(
    labels: Sequence[str],
    populated: Sequence[Mode],
    derivatives: Sequence[Sequence[Mode]],
) -> GeneratorCoefficients:
    """Generator coefficients from explicit modes.

    ``derivatives[a][k]`` is the derivative of populated mode k with
    respect to parameter a; the populated modes must be orthonormal.
    """
    table = OverlapTable.from_modes(populated, derivatives)
    table.validate()
    return _generators_from_table(labels, table)


def build_generators(
    family: "ParameterFamily",
    basis: ModeBasis | None = None,
    *,
    method: str = "analytic",
    step: float | None = None,
    table: OverlapTable | None = None,
) -> GeneratorCoefficients:
    """Generator coefficients G^a_{jk} = i (f_j | d_a f_k) for a family.

    A precomputed ``table`` (see :func:`modal_qcrb.modes.overlap_table`)
    replaces ``basis``, ``method`` and ``step``.
    """
    if table is None:
        table = overlap_table(family, basis, method=method, step=step)
    table.validate()
    return _generators_from_table(family.parameters, table)


def _coefficient_stack(generators) -> np.ndarray:
    if isinstance(generators, GeneratorCoefficients):
        return generators.matrices
    arr = np.asarray(generators, dtype=complex)
    return arr[None, ...] if arr.ndim == 2 else arr


def qfim_unitary(state: DensityState, generators) -> np.ndarray:
    """Information matrix of unitary parameter generators on a mixed state.

    Accepts :class:`GeneratorCoefficients` or a coefficient stack
    (P, M, M); eigenvectors below the probability floor are dropped, where
    the p_m + p_n denominator is singular and the term weight vanishes.
    """
    stack = _coefficient_stack(generators)
    n_p = stack.shape[0]
    if stack.shape[1] != state.space.n_modes:
        raise StructuralError(
            "generator mode count does not match the state's Fock space"
        )
    p, v = state.kept(TAU_PROB)

    applied = []  # H_a acting on each kept eigenvector
    for a in range(n_p):
        op = quadratic_operator(state.space, stack[a])
        applied.append(op @ v)

    weight = np.add.outer(p, p)
    pairs = p[:, None] * p[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(weight > TAU_PROB, pairs / np.where(weight > 0, weight, 1.0), 0.0)

    f = np.zeros((n_p, n_p))
    elements = [v.conj().T @ w for w in applied]
    for a in range(n_p):
        for b in range(a, n_p):
            t1 = 4.0 * float(
                np.sum(p * np.einsum("da,da->a", np.conj(applied[a]), applied[b]).real)
            )
            t2 = 8.0 * float(
                np.sum(ratio * (elements[a] * np.conj(elements[b])).real)
            )
            f[a, b] = t1 - t2
            f[b, a] = f[a, b]
    return f


def number_information(state: DensityState) -> float:
    """Information carried by the total photon-number operator.

    Equals 4 Var(N) for pure states and vanishes for states diagonal in
    the number basis (thermal).
    """
    identity = np.eye(state.space.n_modes, dtype=complex)
    return float(qfim_unitary(state, identity[None, ...])[0, 0])


def _zero_roundoff_diagonal(f: np.ndarray) -> np.ndarray:
    """Set to 0 the diagonal entries that are negative by round-off only.

    A diagonal entry is a variance and cannot be negative; a pure phase
    parameter on a number-diagonal probe leaves two cancelling terms whose
    round-off takes either sign.  Negatives beyond ``TAU_PSD * max|F|``
    stay, so :func:`crb_bounds` rejects them.
    """
    diag = np.diagonal(f)
    i = np.flatnonzero((diag < 0) & (diag >= -TAU_PSD * np.max(np.abs(f))))
    f[i, i] = 0.0
    return f


def qfim_mode_split(
    state: DensityState,
    family: "ParameterFamily",
    basis: ModeBasis | None = None,
    *,
    method: str = "analytic",
    step: float | None = None,
    table: OverlapTable | None = None,
) -> np.ndarray:
    """Full information matrix: populated-mode part plus vacuum leakage.

    The vacuum term projects each derivative mode onto the orthogonal
    complement of the populated span and weighs the overlaps with the
    one-photon correlation matrix.  A precomputed ``table`` replaces
    ``basis``, ``method`` and ``step``.
    """
    if table is None:
        table = overlap_table(family, basis, method=method, step=step)
    table.validate()
    f_pop = qfim_unitary(state, _generators_from_table(family.parameters, table))

    # (d_a f_j | Pi_vac | d_b f_l) over the rows (a, j) and columns (b, l):
    # the derivative block less its projections (d_a f_j | f_k) onto the
    # populated span
    m, n_p = table.n_modes, table.n_parameters
    proj = table.matrix[m:, :m]
    vac = table.matrix[m:, m:] - proj @ proj.conj().T
    f = 4.0 * np.einsum("ajbl,jl->ab", vac.reshape(n_p, m, n_p, m), first_moments(state)).real
    f_vac = np.triu(f) + np.triu(f, 1).T
    return _zero_roundoff_diagonal(f_pop + f_vac)


def qfim_single_mode(
    state: DensityState,
    family: "ParameterFamily",
    *,
    method: str = "analytic",
    step: float | None = None,
    table: OverlapTable | None = None,
) -> np.ndarray:
    """Fast path for a single populated mode.

    First term: (d_a f | f)(f | d_b f) times the number-operator
    information; second term: 4 Re[(d_a f | d_b f) - (d_a f | f)(f | d_b f)]
    times the mean photon number.  Agrees with :func:`qfim_mode_split` on
    the same inputs; for amplitude-only parameters it reduces to
    4 Re(d_a f | d_b f) N exactly.  A precomputed ``table`` replaces
    ``method`` and ``step``.
    """
    if table is None:
        table = overlap_table(family, method=method, step=step)
    if table.n_modes != 1:
        raise StructuralError(
            f"single-mode path needs exactly one populated mode, got {table.n_modes}"
        )
    if state.space.n_modes != 1:
        raise StructuralError("state must live on a single-mode Fock space")
    c = table.generator_overlaps[:, 0, 0]
    overlaps = table.derivative_overlaps[:, :, 0, 0]

    info = number_information(state)
    mean_n, _ = number_moments(state)
    projected = np.conj(c)[:, None] * c[None, :]
    f = projected.real * info + 4.0 * (overlaps - projected).real * mean_n
    return _zero_roundoff_diagonal((f + f.T) / 2.0)


def qfim_mean_field(
    mean_photons: float,
    detections: Sequence[DetectionMode],
    covariance: np.ndarray,
    *,
    mean_mode: Mode | None = None,
) -> np.ndarray:
    """Strong-mean-field information matrix 4 N0 w_a w_b Cov(q_a, q_b).

    ``covariance`` is the symmetrized quadrature covariance of the
    detection modes (see :func:`modal_qcrb.states.quadrature_covariance`).
    When ``mean_mode`` is given, each detection mode is checked to be
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


def mean_field_fluctuation_check(state: GaussianState, mean_photons: float) -> None:
    """Warn when fluctuation photons are large enough to strain the
    linearized mean-field treatment."""
    fluct = float(np.trace(state.covariance) - 2 * state.n_modes) / 4.0
    fluct += float(np.sum(state.mean**2)) / 4.0
    if fluct > np.sqrt(mean_photons):
        warnings.warn(
            f"fluctuation photon number {fluct:.3g} exceeds sqrt(N0); the "
            "linearized mean-field information matrix degrades here",
            stacklevel=2,
        )


# ---------------------------------------------------------------------------
# Attainability


@dataclass(frozen=True, eq=False)
class AttainabilityResult:
    """Commutator-expectation matrix deciding measurement compatibility.

    ``matrix[a, b]`` is the (purely imaginary) weighted commutator
    expectation of the symmetric-logarithmic-derivative pair, scaled so
    that for pure states it equals Im of the populated-mode overlap sum
    2 Im sum (d_a f_i | d_b f_j) <a_i_dagger a_j>.  The bound is jointly
    attainable exactly when every pair vanishes (within the per-pair
    tolerance scale w_a w_b <N>).
    """

    labels: tuple[str, ...]
    matrix: np.ndarray
    pair_attainable: np.ndarray
    attainable: bool
    real_residual: float
    scale: np.ndarray


def attainability(state: DensityState, generators: GeneratorCoefficients) -> AttainabilityResult:
    """Mixed-state attainability of the multiparameter bound.

    Combines the per-eigenvector commutator expectation (which needs the
    raw derivative-mode overlaps, including their vacuum components) with
    the double-sum correction that only mixed states contribute.
    """
    overlaps = generators.derivative_overlaps
    n_p = generators.n_parameters
    moments = first_moments(state)
    p, _ = state.kept(TAU_PROB)
    elements = operator_matrix_elements(state, generators.matrices)

    weight = np.add.outer(p, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        w2 = np.where(
            weight > TAU_PROB,
            (p[:, None] ** 2 * p[None, :]) / np.where(weight > 0, weight, 1.0) ** 2,
            0.0,
        )

    u = np.zeros((n_p, n_p))
    residual = 0.0
    for a in range(n_p):
        for b in range(a + 1, n_p):
            kernel = overlaps[a, b] - overlaps[b, a]
            term1 = 4.0 * complex(np.sum(kernel * moments))
            cross = elements[a] * np.conj(elements[b])
            term2 = 32.0j * float(np.sum(w2 * cross.imag))
            trace_comm = term1 - term2
            u[a, b] = trace_comm.imag / 4.0
            u[b, a] = -u[a, b]
            residual = max(residual, abs(trace_comm.real) / 4.0)

    mean_n, _ = number_moments(state)
    totals = generators.total_weights()
    scale = np.outer(totals, totals) * mean_n
    pair_ok = np.abs(u) <= TAU_ATTAIN * scale
    np.fill_diagonal(pair_ok, True)
    return AttainabilityResult(
        labels=generators.labels,
        matrix=u,
        pair_attainable=pair_ok,
        attainable=bool(np.all(pair_ok)),
        real_residual=residual,
        scale=scale,
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


@dataclass(frozen=True, eq=False)
class SingleModeAttainability:
    """Imaginary parts of derivative-mode overlaps for one populated mode."""

    labels: tuple[str, ...]
    imaginary_overlaps: np.ndarray
    normalized: np.ndarray
    pair_attainable: np.ndarray
    attainable: bool
    weights: np.ndarray


def attainability_single_mode(
    family: "ParameterFamily",
    *,
    method: str = "analytic",
    step: float | None = None,
    table: OverlapTable | None = None,
) -> SingleModeAttainability:
    """State-independent compatibility test for a single populated mode.

    The bound for a parameter pair is attainable exactly when the
    imaginary part of the derivative-mode overlap vanishes; the normalized
    value Im(d_a f | d_b f) / (w_a w_b) is the commutator of the two
    detection-mode quadratures over 2i.  A precomputed ``table`` replaces
    ``method`` and ``step``.
    """
    if table is None:
        table = overlap_table(family, method=method, step=step)
    if table.n_modes != 1:
        raise StructuralError("single-mode attainability needs one populated mode")
    w = table.weights[:, 0]
    # exactly antisymmetric with a zero diagonal: the table is Hermitian bitwise
    im = table.derivative_overlaps[:, :, 0, 0].imag.copy()
    scale = np.outer(w, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(scale > 0, im / np.where(scale > 0, scale, 1.0), 0.0)
    pair_ok = np.abs(im) <= TAU_ATTAIN * scale
    np.fill_diagonal(pair_ok, True)
    return SingleModeAttainability(
        labels=family.parameters,
        imaginary_overlaps=im,
        normalized=normalized,
        pair_attainable=pair_ok,
        attainable=bool(np.all(pair_ok)),
        weights=w,
    )


# ---------------------------------------------------------------------------
# Bounds and reporting


@dataclass(frozen=True, eq=False)
class QfimReport:
    """Information matrix with its bounds and attainability metadata.

    ``multiparameter_bounds[a]`` is the joint-estimation variance bound
    (pseudo-inverse diagonal over the repetition count);
    ``single_parameter_bounds[a]`` is the bound when all other parameters
    are known (NaN for unestimable parameters).  The penalty ratio
    diag(F^+) * diag(F) is at least 1 and measures the cost of parameter
    correlations.
    """

    labels: tuple[str, ...]
    qfim: np.ndarray
    pseudo_inverse: np.ndarray
    repetitions: int
    multiparameter_bounds: np.ndarray
    single_parameter_bounds: np.ndarray
    penalty_ratios: np.ndarray
    degenerate_parameters: tuple[str, ...]
    null_combinations: np.ndarray
    attainability: AttainabilityResult | None = None
    single_mode_attainability: SingleModeAttainability | None = None
    weights: np.ndarray | None = None


def crb_bounds(
    qfim: np.ndarray,
    repetitions: int = 1,
    labels: Sequence[str] | None = None,
    *,
    attainability_result: AttainabilityResult | None = None,
    single_mode_result: SingleModeAttainability | None = None,
    weights: np.ndarray | None = None,
) -> QfimReport:
    """Variance bounds from an information matrix.

    The pseudo-inverse zeroes eigenvalues below the relative cutoff and
    flags the corresponding parameters as unestimable; both the joint and
    the single-parameter bound chains are reported per parameter.
    """
    f = np.asarray(qfim, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise StructuralError("information matrix must be square")
    n_p = f.shape[0]
    if labels is None:
        labels = tuple(f"theta_{i}" for i in range(n_p))
    labels = tuple(labels)
    if len(labels) != n_p:
        raise StructuralError("label count does not match the matrix size")
    if repetitions < 1:
        raise PreconditionError("repetitions must be at least 1")

    norm = float(np.max(np.abs(f))) if f.size else 0.0
    if norm > 0 and np.max(np.abs(f - f.T)) > TAU_HERM * norm:
        raise StructuralError("information matrix is not symmetric")
    f = (f + f.T) / 2.0

    eigvals, eigvecs = np.linalg.eigh(f)
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    if scale > 0 and eigvals.min() < -TAU_PSD * scale:
        raise PreconditionError(
            f"information matrix is not positive semidefinite "
            f"(min eigenvalue {eigvals.min():.3e})"
        )

    keep = eigvals > PINV_RCOND * scale if scale > 0 else np.zeros(n_p, dtype=bool)
    inv_vals = np.zeros(n_p)
    inv_vals[keep] = 1.0 / eigvals[keep]
    pinv = (eigvecs * inv_vals) @ eigvecs.T
    pinv = (pinv + pinv.T) / 2.0
    null_combinations = eigvecs[:, ~keep].T.copy()

    diag = np.diag(f)
    degenerate_mask = diag <= PINV_RCOND * scale if scale > 0 else np.ones(n_p, bool)
    degenerate = tuple(l for l, d in zip(labels, degenerate_mask) if d)

    multi = np.diag(pinv) / repetitions
    with np.errstate(divide="ignore"):
        single = np.where(degenerate_mask, np.nan, 1.0 / (repetitions * diag))
    penalty = np.where(degenerate_mask, np.nan, np.diag(pinv) * diag)

    return QfimReport(
        labels=labels,
        qfim=f,
        pseudo_inverse=pinv,
        repetitions=int(repetitions),
        multiparameter_bounds=multi,
        single_parameter_bounds=single,
        penalty_ratios=penalty,
        degenerate_parameters=degenerate,
        null_combinations=null_combinations,
        attainability=attainability_result,
        single_mode_attainability=single_mode_result,
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )


# ---------------------------------------------------------------------------
# Mean-field readout forward model


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


def detection_modes_for(
    family: "ParameterFamily",
    *,
    method: str = "analytic",
    step: float | None = None,
) -> list[DetectionMode]:
    """Detection modes for every parameter of a single-populated-mode family."""
    basis = family.evaluate()
    if len(basis.populated_modes()) != 1:
        raise StructuralError("detection modes are defined per populated mode")
    out = []
    for a, label in enumerate(family.parameters):
        deriv = derivative_mode(family, 0, a, method, step)
        floor = TAU_ZERO / max(abs(float(family.theta_scales[a])), TAU_ZERO)
        out.append(detection_mode(deriv, weight_floor=floor, label=label))
    return out
