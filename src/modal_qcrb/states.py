"""Probe states on a truncated multimode Fock space, plus Gaussian states.

Density operators are stored eigen-decomposed (probabilities and
eigenvectors over the truncated number basis), which is the form every
information-matrix sum consumes.  Gaussian states carry mean quadratures
and a covariance matrix with the convention q = a + a_dagger, vacuum
variance 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import CutoffError, StructuralError
from .modes import DetectionMode, Mode, ModeBasis, inner_product
from .tolerances import (
    MAX_CUTOFF,
    TAU_COV,
    TAU_CUTOFF,
    TAU_ORTH,
    TAU_PROB,
    TAU_STATE_ORTH,
    TAU_STATE_PROB,
)


@dataclass(frozen=True)
class FockSpace:
    """A truncated Fock space: ``n_modes`` modes, photon numbers 0..cutoff."""

    n_modes: int
    cutoff: int

    def __post_init__(self):
        if self.n_modes < 1:
            raise StructuralError("a Fock space needs at least one mode")
        if self.cutoff < 1:
            raise StructuralError("the photon-number cutoff must be at least 1")
        if self.cutoff > MAX_CUTOFF:
            raise CutoffError(
                f"per-mode cutoff {self.cutoff} exceeds the hard cap {MAX_CUTOFF}"
            )

    @property
    def levels(self) -> int:
        return self.cutoff + 1

    @property
    def dimension(self) -> int:
        return self.levels**self.n_modes


@lru_cache(maxsize=None)
def _destroy(levels: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, levels)), 1, format="csr", dtype=complex)


@lru_cache(maxsize=None)
def hop_operator(space: FockSpace, j: int, l: int) -> sp.csr_matrix:
    """Sparse matrix of a_j_dagger a_l on the truncated space.

    Mode 0 is the most significant factor in the tensor-product index.
    """
    a = _destroy(space.levels)
    adag = a.conj().T.tocsr()
    eye = sp.identity(space.levels, format="csr", dtype=complex)
    factors = []
    for m in range(space.n_modes):
        if j == l and m == j:
            factors.append(adag @ a)
        elif m == j:
            factors.append(adag)
        elif m == l:
            factors.append(a)
        else:
            factors.append(eye)
    return reduce(lambda x, y: sp.kron(x, y, format="csr"), factors)


def quadratic_operator(space: FockSpace, coefficients: np.ndarray) -> sp.csr_matrix:
    """Operator sum_{jk} C_{jk} a_j_dagger a_k for an (M, M) coefficient matrix."""
    coefficients = np.asarray(coefficients, dtype=complex)
    m = space.n_modes
    if coefficients.shape != (m, m):
        raise StructuralError(
            f"coefficient shape {coefficients.shape} does not match {m} modes"
        )
    out = sp.csr_matrix((space.dimension, space.dimension), dtype=complex)
    for j in range(m):
        for k in range(m):
            c = coefficients[j, k]
            if c != 0:
                out = out + c * hop_operator(space, j, k)
    return out


def number_operator(space: FockSpace) -> sp.csr_matrix:
    return quadratic_operator(space, np.eye(space.n_modes))


@lru_cache(maxsize=None)
def _boundary_mask(space: FockSpace) -> np.ndarray:
    """Boolean mask of basis states with any mode at the cutoff level."""
    dims = (space.levels,) * space.n_modes
    occupations = np.unravel_index(np.arange(space.dimension), dims)
    mask = np.zeros(space.dimension, dtype=bool)
    for occ in occupations:
        mask |= occ == space.cutoff
    return mask


@dataclass(frozen=True, eq=False)
class DensityState:
    """An eigen-decomposed density operator on a truncated Fock space.

    ``probabilities`` are the eigenvalues; ``vectors`` holds the
    eigenvectors as columns over the number basis.
    """

    space: FockSpace
    probabilities: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "vectors", v)
        if p.ndim != 1 or v.ndim != 2 or v.shape != (self.space.dimension, p.size):
            raise StructuralError(
                "eigenvalues and eigenvector columns do not match the space dimension"
            )
        if np.any(p < -TAU_STATE_PROB):
            raise StructuralError("negative probability in the eigendecomposition")
        if abs(p.sum() - 1.0) > TAU_STATE_PROB:
            raise StructuralError(
                f"probabilities sum to {p.sum():.15f}, expected 1 within {TAU_STATE_PROB:g}"
            )
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(p.size))) > TAU_STATE_ORTH:
            raise StructuralError(f"eigenvectors are not orthonormal within {TAU_STATE_ORTH:g}")
        boundary = _boundary_mask(self.space)
        leakage = float(np.sum(p[None, :] * np.abs(v[boundary, :]) ** 2))
        if leakage > TAU_CUTOFF:
            raise CutoffError(
                f"probability {leakage:.3e} sits at the cutoff boundary",
                suggested_cutoff=min(self.space.cutoff * 2, MAX_CUTOFF),
            )

    @property
    def rank(self) -> int:
        return int(self.probabilities.size)

    def kept(self, floor: float = TAU_PROB) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities and eigenvector columns above the probability floor."""
        mask = self.probabilities > floor
        if not np.any(mask):
            mask = self.probabilities == self.probabilities.max()
        return self.probabilities[mask], self.vectors[:, mask]


# ---------------------------------------------------------------------------
# Constructors


def _suggest_cutoff(kind: str, **params) -> int:
    """Smallest cutoff whose tail probability is below the truncation budget."""
    if kind == "fock":
        return int(params["n"]) + 1  # one empty level keeps the boundary clean
    if kind == "coherent":
        nbar = float(params["nbar"])
        if nbar == 0.0:
            return 1
        term = math.exp(-nbar)
        cumulative = term
        n = 0
        while 1.0 - cumulative > TAU_CUTOFF and n < 4 * MAX_CUTOFF:
            n += 1
            term *= nbar / n
            cumulative += term
        return n + 1
    if kind == "thermal":
        nbar = float(params["nbar"])
        if nbar == 0.0:
            return 1
        ratio = nbar / (1.0 + nbar)
        n = int(math.ceil(math.log(TAU_CUTOFF) / math.log(ratio))) + 1
        return n
    if kind == "squeezed-vacuum":
        r = abs(float(params["r"]))
        if r == 0.0:
            return 1
        t2 = math.tanh(r) ** 2
        prob = 1.0 / math.cosh(r)  # |<0|state>|^2 = 1/cosh r
        cumulative = prob
        m = 0
        while 1.0 - cumulative > TAU_CUTOFF and m < 4 * MAX_CUTOFF:
            m += 1
            prob *= t2 * (2 * m - 1) / (2 * m)
            cumulative += prob
        return 2 * m + 1
    raise ValueError(f"unknown state kind '{kind}'")


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-abs(alpha) ** 2 / 2.0)
    return amps / np.linalg.norm(amps)


def _squeezed_amplitudes(r: float, phi: float, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    factor = -np.exp(1j * phi) * math.tanh(r)
    m = 1
    while 2 * m <= cutoff:
        amps[2 * m] = (
            amps[2 * (m - 1)]
            * factor
            * math.sqrt((2 * m - 1) * (2 * m))
            / (2 * m)
        )
        m += 1
    return amps / np.linalg.norm(amps)


def _embed(space: FockSpace, column: np.ndarray, mode: int) -> np.ndarray:
    """Tensor a single-mode vector with vacuum in all other modes."""
    vacuum = np.zeros(space.levels, dtype=complex)
    vacuum[0] = 1.0
    parts = [column if m == mode else vacuum for m in range(space.n_modes)]
    return reduce(np.kron, parts)


def make_state(
    kind: str,
    space: FockSpace | None = None,
    *,
    cutoff: int | None = None,
    mode: int = 0,
    **parameters,
) -> DensityState:
    """Build a probe state: coherent, fock, thermal, squeezed-vacuum or custom.

    Without an explicit ``space`` (or ``cutoff``), the smallest per-mode
    cutoff with truncation tail below the cutoff budget is chosen, capped
    at the hard maximum.  Coherent and Fock states are rank one; thermal
    eigenvalues follow nbar^n / (1 + nbar)^(n + 1).
    """
    if kind == "custom":
        if space is None:
            raise StructuralError("custom states require an explicit space")
        return DensityState(
            space=space,
            probabilities=np.asarray(parameters["probabilities"], dtype=float),
            vectors=np.asarray(parameters["vectors"], dtype=complex),
        )

    if kind == "coherent" and "alpha" in parameters:
        alpha = complex(parameters["alpha"])
        tail_params = {"nbar": abs(alpha) ** 2}
    elif kind == "coherent":
        nbar = float(parameters["nbar"])
        if nbar < 0:
            raise StructuralError("coherent nbar must be non-negative")
        alpha = math.sqrt(nbar)
        tail_params = {"nbar": nbar}
    elif kind in ("fock", "thermal", "squeezed-vacuum"):
        if kind == "fock" and float(parameters["n"]) != int(parameters["n"]):
            raise StructuralError(f"fock n must be a whole number, got {parameters['n']!r}")
        tail_params = dict(parameters)
    else:
        raise ValueError(f"unknown state kind '{kind}'")

    needed = _suggest_cutoff(kind, **tail_params)
    if space is None:
        chosen = cutoff if cutoff is not None else needed
        if chosen > MAX_CUTOFF:
            raise CutoffError(
                f"state '{kind}' needs a cutoff beyond the hard cap",
                suggested_cutoff=needed,
            )
        space = FockSpace(n_modes=1, cutoff=max(chosen, 1))
    elif space.cutoff < needed:
        raise CutoffError(
            f"cutoff {space.cutoff} leaks more than the truncation budget "
            f"for state '{kind}'",
            suggested_cutoff=needed,
        )
    if not 0 <= mode < space.n_modes:
        raise StructuralError(f"mode index {mode} outside 0..{space.n_modes - 1}")

    if kind == "fock":
        n = int(parameters["n"])
        if n < 0:
            raise StructuralError("fock n must be non-negative")
        column = np.zeros(space.levels, dtype=complex)
        column[n] = 1.0
        vec = _embed(space, column, mode)
        return DensityState(space, np.array([1.0]), vec[:, None])

    if kind == "coherent":
        column = _coherent_amplitudes(alpha, space.cutoff)
        vec = _embed(space, column, mode)
        return DensityState(space, np.array([1.0]), vec[:, None])

    if kind == "squeezed-vacuum":
        r = float(parameters["r"])
        phi = float(parameters.get("phi", 0.0))
        column = _squeezed_amplitudes(r, phi, space.cutoff)
        vec = _embed(space, column, mode)
        return DensityState(space, np.array([1.0]), vec[:, None])

    # thermal: diagonal in the number basis of the populated mode
    nbar = float(parameters["nbar"])
    if nbar < 0:
        raise StructuralError("thermal nbar must be non-negative")
    n = np.arange(space.levels)
    if nbar == 0.0:
        probs = np.zeros(space.levels)
        probs[0] = 1.0
    else:
        probs = nbar**n / (1.0 + nbar) ** (n + 1)
        probs /= probs.sum()
    vectors = np.zeros((space.dimension, space.levels), dtype=complex)
    for level in range(space.levels):
        column = np.zeros(space.levels, dtype=complex)
        column[level] = 1.0
        vectors[:, level] = _embed(space, column, mode)
    return DensityState(space, probs, vectors)


def state_from_spec(
    spec: dict,
    space: FockSpace | None = None,
    cutoff: int | None = None,
) -> DensityState:
    """Build a state from a plain ``{"kind": ..., parameters...}`` mapping."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if not isinstance(kind, str):
        raise StructuralError("state spec needs a string 'kind' field")
    return make_state(kind, space, cutoff=cutoff, **spec)


# ---------------------------------------------------------------------------
# Moments and matrix elements


def first_moments(state: DensityState) -> np.ndarray:
    """One-photon correlation matrix <a_j_dagger a_l>; Hermitian, trace <N>."""
    m = state.space.n_modes
    p, v = state.probabilities, state.vectors
    out = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for l in range(j, m):
            hv = hop_operator(state.space, j, l) @ v
            vals = np.einsum("da,da->a", np.conj(v), hv)
            out[j, l] = np.sum(p * vals)
            out[l, j] = np.conj(out[j, l])
    return out


def operator_matrix_elements(
    state: DensityState,
    coefficients,
    *,
    floor: float = TAU_PROB,
) -> np.ndarray:
    """Eigenvector matrix elements <a|H|b> of H = sum C_{jk} a_j_dagger a_k.

    Accepts a single (M, M) coefficient matrix, a stack (P, M, M), or a
    generator-coefficient object exposing ``matrices``; eigenvectors with
    probability below ``floor`` are dropped, matching the double sums that
    consume these elements.
    """
    coefficients = getattr(coefficients, "matrices", coefficients)
    coefficients = np.asarray(coefficients, dtype=complex)
    single = coefficients.ndim == 2
    stack = coefficients[None, ...] if single else coefficients
    _, v = state.kept(floor)
    blocks = []
    for c in stack:
        op = quadratic_operator(state.space, c)
        blocks.append(v.conj().T @ (op @ v))
    out = np.stack(blocks)
    return out[0] if single else out


def number_moments(state: DensityState) -> tuple[float, float]:
    """Mean photon number and the second moment trace(rho N^2)."""
    nop = number_operator(state.space)
    p, v = state.probabilities, state.vectors
    nv = nop @ v
    mean = float(np.sum(p * np.einsum("da,da->a", np.conj(v), nv).real))
    second = float(np.sum(p * np.einsum("da,da->a", np.conj(nv), nv).real))
    return mean, second


# ---------------------------------------------------------------------------
# Gaussian states


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
    ref_modes = reference.populated_modes()
    if len(ref_modes) != state.n_modes:
        raise StructuralError(
            "reference basis size does not match the Gaussian state"
        )
    try:
        ModeBasis(ref_modes).validate(TAU_ORTH)
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
