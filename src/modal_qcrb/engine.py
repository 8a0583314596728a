"""Information matrices, attainability diagnostics, and Cramer-Rao bounds.

The engine is built on three pieces: generator coefficient matrices
G^a_{jk} = i (f_j | d_a f_k) over the populated modes, the general
mixed-state information matrix

    F_ab = 2 Tr(rho {H_a, H_b})
           - sum_{m,n} 8 p_m p_n / (p_m + p_n) Re <m|H_a|n><n|H_b|m>,

and the populated/vacuum split that adds 4 Re (d_a f_j | Pi_vac | d_b f_l)
<a_j_dagger a_l> for the information leaking into initially empty modes.
The one-mode route is the reduction of the same formulas to a single
populated mode and is required to agree with the general route.  The
mode inputs of both are slices of the family's one overlap table
(``ParameterFamily.overlap_table``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import PreconditionError, StructuralError
from .modes import DetectionMode, Mode, OverlapTable, _hermitian, _strict_upper
from .states import (
    DensityState,
    PhotonStatistics,
    _coefficient_matrices,
    _raise_sum,
    first_moments,
    operator_matrix_elements,
)
from .tolerances import PINV_RCOND, TAU_ATTAIN, TAU_HERM, TAU_PSD, TAU_ZERO

if TYPE_CHECKING:  # pragma: no cover
    from .families import ParameterFamily


def build_generators(family: "ParameterFamily") -> OverlapTable:
    """The family's overlap table, with its generator ``matrices`` formed.

    G^a_{jk} = i (f_j | d_a f_k) is a slice of the table, formed once per
    family; :func:`qfim_unitary` and :func:`attainability` take the table.
    """
    table = family.overlap_table
    table.matrices  # the first read validates the table and warns on drift
    return table


def qfim_unitary(state: DensityState, generators) -> np.ndarray:
    """Information matrix of unitary parameter generators on a mixed state.

    Accepts an overlap table (its generator ``matrices``), a coefficient
    stack (P, M, M) or one (M, M) matrix.  Over the kept eigenvectors V
    (probabilities p),

        F_ab = 4 sum_m p_m Re <r_am|r_bm>
               + 2 sum_mn (p_m - p_n)^2 / (p_m + p_n) Re E_a,mn E_b,nm,

    with E_a = V^dagger H_a V and r_am = H_a v_m - V E_a[:, m] the part of
    H_a v_m outside the kept span.  A diagonal entry is a sum of
    non-negative terms, so no two large terms cancel: a generator that maps
    each kept eigenvector onto itself gives exactly 0.  H V is one stacked
    pass for every parameter at once: one raising shift per mode turns the
    state's lowered table into the hop table a_j_dagger a_k V, and one
    product weighs its M^2 blocks.  E is one batched product, and V E_a is
    subtracted one parameter at a time, so the pass holds max(M^2, P)
    (D, r) blocks and a few transients (see ``states._raise_sum``).
    """
    m = state.space.n_modes
    stack = _coefficient_matrices(state.space, generators).reshape(-1, m, m)
    n_p = stack.shape[0]
    p, v = state.kept()
    lowered = state.lowered_table.lowered[:, :, state.kept_columns]

    # sqrt(p)-weighted outside parts, one (D, r) block per parameter; E_a
    # is read off H_a V itself, so r_am is exactly 0 wherever H_a V is
    # exactly a combination of the kept columns
    outside = _raise_sum(state.space, stack, lowered)
    elements = v.conj().T @ outside
    for block, e in zip(outside, elements):
        block -= v @ e
    outside *= np.sqrt(p)
    # Re <x|y> is the dot product of x and y viewed as reals
    flat = outside.reshape(n_p, -1).view(np.float64)
    t1 = 4.0 * (flat @ flat.T)

    ratio = np.subtract.outer(p, p) ** 2 / np.add.outer(p, p)
    transposed = elements.transpose(0, 2, 1).reshape(n_p, -1)
    t2 = 2.0 * ((ratio * elements).reshape(n_p, -1) @ transposed.T).real

    return _hermitian(t1 + t2)


def _zero_roundoff_diagonal(f: np.ndarray) -> np.ndarray:
    """Set to 0 the diagonal entries that are negative by round-off only.

    A diagonal entry is a variance and cannot be negative; a pure phase
    parameter on a number-diagonal probe leaves two cancelling terms whose
    round-off takes either sign.  Negatives beyond ``TAU_PSD * max|F|``
    stay, so :func:`crb_bounds` rejects them.
    """
    diag = f.diagonal()
    i = np.flatnonzero((diag < 0) & (diag >= -TAU_PSD * np.abs(f).max()))
    f[i, i] = 0.0
    return f


def qfim_mode_split(state: DensityState, family: "ParameterFamily") -> np.ndarray:
    """Full information matrix: populated-mode part plus vacuum leakage.

    The vacuum term projects each derivative mode onto the orthogonal
    complement of the populated span and weighs the overlaps with the
    one-photon correlation matrix.
    """
    table = family.overlap_table
    f_pop = qfim_unitary(state, table)

    # (d_a f_j | Pi_vac | d_b f_l) over the rows (a, j) and columns (b, l):
    # the derivative block less its projections (d_a f_j | f_k) onto the
    # populated span
    m, n_p = table.n_modes, table.n_parameters
    proj = table.matrix[m:, :m]
    vac = table.matrix[m:, m:] - proj @ proj.conj().T
    f = 4.0 * np.einsum("ajbl,jl->ab", vac.reshape(n_p, m, n_p, m), first_moments(state)).real
    return _zero_roundoff_diagonal(f_pop + _hermitian(f))


def _one_mode_table(family: "ParameterFamily") -> OverlapTable:
    table = family.overlap_table
    if table.n_modes != 1:
        raise StructuralError(
            f"single-mode path needs exactly one populated mode, got {table.n_modes}"
        )
    return table


def _degenerate(family: "ParameterFamily", weights: np.ndarray) -> np.ndarray:
    """Parameters whose weight is below ``TAU_ZERO`` over the parameter's scale.

    Such a parameter leaves the modes unchanged: the one rule by which
    both the report and the detection-mode export mark it degenerate.
    """
    return weights < TAU_ZERO / np.maximum(np.abs(family.theta_scales), TAU_ZERO)


def qfim_single_mode(statistics: PhotonStatistics, family: "ParameterFamily") -> np.ndarray:
    """Information matrix of a one-populated-mode family.

    The populated term is h_a h_b times the number information, with h_a
    the (symmetrized, 1 x 1) generator; the vacuum term is
    4 Re[(d_a f | d_b f) - (d_a f | f)(f | d_b f)] times the mean photon
    number.  These are the two terms of :func:`qfim_mode_split` for any
    one-mode state with these statistics; for amplitude-only parameters
    the matrix reduces to 4 Re(d_a f | d_b f) N exactly.
    """
    table = _one_mode_table(family)
    h = table.matrices[:, 0, 0].real
    c = table.generator_overlaps[:, 0, 0]
    vac = (table.derivative_overlaps[:, :, 0, 0] - c.conj()[:, None] * c[None, :]).real
    # an overflow leaves inf or nan entries, which crb_bounds rejects
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.multiply.outer(h, h) * statistics.number_information + 4.0 * vac * statistics.mean
        return _zero_roundoff_diagonal((f + f.T) / 2.0)


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


def attainability(state: DensityState, generators: OverlapTable) -> AttainabilityResult:
    """Mixed-state attainability of the multiparameter bound.

    ``generators`` is a family's overlap table (:func:`build_generators`).
    Combines the per-eigenvector commutator expectation (which needs the
    raw derivative-mode overlaps, including their vacuum components) with
    the double-sum correction that only mixed states contribute.
    """
    overlaps = generators.derivative_overlaps
    moments = first_moments(state)
    p, _ = state.kept()
    elements = operator_matrix_elements(state, generators.matrices)
    n_p, n_e = elements.shape[0], p.size**2

    # term1[a, b] = 4 sum_jl [(d_a f_j|d_b f_l) - (d_b f_j|d_a f_l)] <a_j^dag a_l>
    kernel = overlaps - overlaps.transpose(1, 0, 2, 3)
    term1 = 4.0 * np.einsum("abjl,jl->ab", kernel, moments)
    # term2[a, b] = 32i sum_mn w2_mn Im(E_a,mn conj(E_b,mn)); kept
    # probabilities exceed TAU_PROB, so no denominator vanishes
    w2 = (p[:, None] ** 2 * p[None, :]) / np.add.outer(p, p) ** 2
    cross = (w2 * elements).reshape(n_p, n_e) @ elements.reshape(n_p, n_e).conj().T
    trace_comm = np.where(_strict_upper(n_p), term1 - 32.0j * cross.imag, 0)
    u = trace_comm.imag / 4.0
    u = u - u.T
    residual = float(np.abs(trace_comm.real).max(initial=0.0)) / 4.0

    mean_n = float(moments.trace().real)
    pair_ok, attainable = _attainable_pairs(u, generators.total_weights(), mean_n)
    return AttainabilityResult(
        labels=generators.labels,
        matrix=u,
        pair_attainable=pair_ok,
        attainable=attainable,
        real_residual=residual,
    )


def _attainable_pairs(u: np.ndarray, w: np.ndarray, mean_n: float) -> tuple[np.ndarray, bool]:
    """Pairs with |u_ab| <= TAU_ATTAIN w_a w_b <N> (the diagonal true), and all of them.

    A commutator or scale that overflows double precision decides nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.multiply.outer(w, w) * mean_n
    if not (np.isfinite(u).all() and np.isfinite(scale).all()):
        raise PreconditionError(
            f"commutator matrix at <N> = {mean_n:.3e} overflows double precision"
        )
    pair_ok = np.abs(u) <= TAU_ATTAIN * scale
    np.fill_diagonal(pair_ok, True)
    return pair_ok, bool(pair_ok.all())


@dataclass(frozen=True, eq=False)
class SingleModeAttainability(AttainabilityResult):
    """Attainability for one populated mode, with the overlaps that decide it.

    ``imaginary_overlaps[a, b]`` is Im(d_a f | d_b f); ``normalized``
    divides it by w_a w_b, the norms of the derivative modes in
    ``weights``.  ``degenerate[a]`` marks a weight below ``TAU_ZERO`` over
    the parameter's scale: the parameter leaves the modes unchanged.
    """

    imaginary_overlaps: np.ndarray
    normalized: np.ndarray
    weights: np.ndarray
    degenerate: np.ndarray


def attainability_single_mode(
    family: "ParameterFamily", statistics: PhotonStatistics
) -> SingleModeAttainability:
    """Attainability for one populated mode from the overlap table and <N>.

    The commutator matrix is u_ab = 2 <N> Im(d_a f | d_b f): a 1 x 1
    generator is a real number, so the mixed-state double sum of
    :func:`attainability` vanishes and the real residual is 0 for every
    probe.  Pairs are judged by the rule of :func:`attainability`.  The
    normalized value Im(d_a f | d_b f) / (w_a w_b) is the commutator of the
    two detection-mode quadratures over 2i.
    """
    table = _one_mode_table(family)
    w = table.weights[:, 0]
    # exactly antisymmetric with a zero diagonal: the table is Hermitian bitwise
    im = table.derivative_overlaps[:, :, 0, 0].imag.copy()
    scale = np.multiply.outer(w, w)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        normalized = np.where(scale > 0, im / np.where(scale > 0, scale, 1.0), 0.0)
        u = 2.0 * statistics.mean * im
    pair_ok, attainable = _attainable_pairs(u, w, statistics.mean)
    return SingleModeAttainability(
        labels=family.parameters,
        matrix=u,
        pair_attainable=pair_ok,
        attainable=attainable,
        real_residual=0.0,
        imaginary_overlaps=im,
        normalized=normalized,
        weights=w,
        degenerate=_degenerate(family, w),
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
    weights: np.ndarray | None = None


def crb_bounds(
    qfim: np.ndarray,
    repetitions: int = 1,
    labels: Sequence[str] | None = None,
    *,
    attainability_result: AttainabilityResult | None = None,
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
    if not np.isfinite(f).all():
        raise PreconditionError("information matrix has non-finite entries")
    n_p = f.shape[0]
    if labels is None:
        labels = tuple(f"theta_{i}" for i in range(n_p))
    labels = tuple(labels)
    if len(labels) != n_p:
        raise StructuralError("label count does not match the matrix size")
    if repetitions < 1:
        raise PreconditionError("repetitions must be at least 1")

    norm = float(np.abs(f).max()) if f.size else 0.0
    if norm > 0 and np.abs(f - f.T).max() > TAU_HERM * norm:
        raise StructuralError("information matrix is not symmetric")
    f = (f + f.T) / 2.0

    eigvals, eigvecs = np.linalg.eigh(f)
    scale = float(np.abs(eigvals).max()) if eigvals.size else 0.0
    if scale > 0 and eigvals.min() < -TAU_PSD * scale:
        raise PreconditionError(
            f"information matrix is not positive semidefinite "
            f"(min eigenvalue {eigvals.min():.3e})"
        )

    keep = eigvals > PINV_RCOND * scale if scale > 0 else np.zeros(n_p, dtype=bool)
    inv_vals = np.zeros(n_p)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv_vals[keep] = 1.0 / eigvals[keep]
        pinv = (eigvecs * inv_vals) @ eigvecs.T
        pinv = (pinv + pinv.T) / 2.0
    if not np.isfinite(pinv).all():
        raise PreconditionError(
            f"information matrix eigenvalue {eigvals[keep].min():.3e} is too small "
            "to invert in double precision"
        )
    null_combinations = eigvecs[:, ~keep].T.copy()

    diag = f.diagonal()
    degenerate_mask = diag <= PINV_RCOND * scale if scale > 0 else np.ones(n_p, bool)
    degenerate = tuple(l for l, d in zip(labels, degenerate_mask) if d)

    multi = pinv.diagonal() / repetitions
    with np.errstate(divide="ignore"):
        single = np.where(degenerate_mask, np.nan, 1.0 / (repetitions * diag))
    penalty = np.where(degenerate_mask, np.nan, pinv.diagonal() * diag)

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
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )


def detection_modes_for(family: "ParameterFamily") -> list[DetectionMode]:
    """Detection modes for every parameter of a single-populated-mode family.

    A derivative mode d_a f maps to (i / w_a) d_a f, formed from the
    derivative modes the family's overlap table was built from, with the
    weights w_a read from the table, so they equal the report's bitwise.
    A degenerate parameter, by the rule of ``SingleModeAttainability``,
    gives a flagged mode of zeros with weight zero, formed without the
    derivative's samples.
    """
    weights = _one_mode_table(family).weights[:, 0]
    degenerate = _degenerate(family, weights)
    detections = []
    for a, label in enumerate(family.parameters):
        derivative = family.derivative_modes[a][0]
        weight = float(weights[a])
        if degenerate[a]:
            zero = Mode(family.grid, np.zeros(family.grid.shape))
            detections.append(DetectionMode(zero, 0.0, degenerate=True, label=label))
        else:
            rotated = Mode(derivative.grid, 1j * derivative.samples / weight)
            detections.append(DetectionMode(rotated, weight, label=label))
    return detections
