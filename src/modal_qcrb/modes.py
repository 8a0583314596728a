"""Discretized mode functions and the overlap machinery built on them.

A mode is a complex amplitude profile sampled on a quadrature grid; every
quantity downstream (generators, information matrices, detection modes)
reduces to the weighted inner products computed here.  Grids carry their
quadrature weights so inner products stay bilinear sums.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    EvaluationError,
    GridMismatchError,
    RankDeficiencyError,
    StructuralError,
)
from .tolerances import TAU_ORTH, TAU_RANK, TAU_ZERO

if TYPE_CHECKING:  # pragma: no cover
    from .families import ParameterFamily


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a strictly increasing 1-D axis."""
    if axis.ndim != 1 or axis.size < 2:
        raise StructuralError("grid axis must be 1-D with at least two samples")
    if np.any(np.diff(axis) <= 0):
        raise StructuralError("grid axis must be strictly increasing")
    w = np.empty_like(axis, dtype=float)
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Sample coordinates and positive quadrature weights (1-D or 2-D).

    ``weights`` has one entry per sample point, shaped like the sample
    array; on uniform grids it is the outer product of per-axis trapezoid
    weights.  Instances are immutable and compared by identity or by
    :meth:`compatible`.
    """

    axes: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise StructuralError("only 1-D and 2-D sample grids are supported")
        for ax in self.axes:
            if ax.ndim != 1 or np.any(np.diff(ax) <= 0):
                raise StructuralError("grid axes must be 1-D and strictly increasing")
        expected = tuple(ax.size for ax in self.axes)
        if self.weights.shape != expected:
            raise StructuralError(
                f"weight shape {self.weights.shape} does not match axes {expected}"
            )
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise StructuralError("quadrature weights must be finite and strictly positive")

    @classmethod
    def uniform(cls, *axes: np.ndarray) -> "SampleGrid":
        """Build a grid with trapezoid weights from coordinate axes."""
        axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        per_axis = [_trapezoid_weights(ax) for ax in axes]
        weights = per_axis[0]
        for w in per_axis[1:]:
            weights = np.multiply.outer(weights, w)
        return cls(axes=axes, weights=weights)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the sample shape (ij indexing)."""
        if self.ndim == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def compatible(self, other: "SampleGrid") -> bool:
        if self is other:
            return True
        if self.shape != other.shape:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))


@dataclass(frozen=True, eq=False)
class Mode:
    """A mode profile sampled on a grid.

    Samples are complex, or float64 when the profile is real.
    """

    grid: SampleGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype != np.float64:  # real profiles stay real, without a copy
            samples = samples.astype(complex, copy=False)
        object.__setattr__(self, "samples", samples)
        if samples.shape != self.grid.shape:
            raise StructuralError(
                f"sample shape {samples.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise EvaluationError("mode samples contain non-finite values")


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
        return weighted_gram([m.samples for m in self.modes], self.modes[0].grid.weights)

    def validate(self) -> None:
        _check_orthonormal(self.gram())


def _check_orthonormal(gram: np.ndarray) -> None:
    residual = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    if not residual <= TAU_ORTH:
        raise StructuralError(
            f"mode basis is not orthonormal (Gram residual {residual:.3e})"
        )


# Samples per stacked block in :func:`weighted_gram`: the stack of one
# block stays small next to the rows themselves.
GRAM_BLOCK = 16384


def weighted_gram(rows: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Hermitian matrix G[i, j] = sum(w * conj(rows[i]) * rows[j]).

    The rows (sample arrays shaped like ``weights``) are stacked one block
    of samples at a time, as real and imaginary parts scaled by sqrt(w),
    and each block is reduced with one real product S = X X^T; then
    Re G = S_rr + S_ii and Im G = S_ri - S_ir.  Only the upper triangle is
    kept: the lower one is its exact conjugate and the diagonal is real, so
    conjugate symmetry holds bitwise.
    """
    root = np.sqrt(weights.ravel())
    flat = [np.ravel(r) for r in rows]
    k = len(flat)
    s = np.zeros((2 * k, 2 * k))
    stack = np.empty((2 * k, min(GRAM_BLOCK, root.size)))
    for start in range(0, root.size, GRAM_BLOCK):
        w = root[start : start + GRAM_BLOCK]
        x = stack[:, : w.size]
        for i, r in enumerate(flat):
            part = r[start : start + GRAM_BLOCK]
            np.multiply(part.real, w, out=x[i])
            np.multiply(part.imag, w, out=x[k + i])
        s += x @ x.T
    g = s[:k, :k] + s[k:, k:] + 1j * (s[:k, k:] - s[k:, :k])
    upper = np.triu(g, 1)
    return upper + upper.conj().T + np.diag(g.diagonal().real)


@dataclass(frozen=True, eq=False)
class OverlapTable:
    """Overlaps among populated modes f_k and their derivative modes d_a f_k.

    ``matrix`` is the weighted Gram matrix of the rows
    ``[f_0 .. f_{M-1}, d_0 f_0 .. d_0 f_{M-1}, d_1 f_0, ..]`` (K = M + P M
    rows), ``matrix[r, s] = (row_r | row_s)``.  Everything a run reports
    about the modes is a slice of it; the properties name the slices.  A
    family builds its table once (``ParameterFamily.overlap_table``).
    """

    matrix: np.ndarray
    n_modes: int
    n_parameters: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise EvaluationError(
                "mode overlaps overflow: the derivative modes are too large for double precision"
            )
        # the slices below are views: keep them from writing into the table
        self.matrix.flags.writeable = False

    @classmethod
    def from_modes(
        cls, populated: Sequence[Mode], derivatives: Sequence[Sequence[Mode]]
    ) -> "OverlapTable":
        """Table of explicit modes; ``derivatives[a][k]`` is d_a f_k."""
        populated = list(populated)
        if not populated:
            raise StructuralError("an overlap table needs at least one populated mode")
        if any(len(row) != len(populated) for row in derivatives):
            raise StructuralError("derivative table shape does not match the basis")
        modes = populated + [d for row in derivatives for d in row]
        grid = populated[0].grid
        if not all(grid.compatible(m.grid) for m in modes[1:]):
            raise GridMismatchError("modes are sampled on different grids")
        matrix = weighted_gram([m.samples for m in modes], grid.weights)
        return cls(matrix, len(populated), len(derivatives))

    @property
    def populated(self) -> np.ndarray:
        """(f_j | f_k), shape (M, M)."""
        m = self.n_modes
        return self.matrix[:m, :m]

    @property
    def generator_overlaps(self) -> np.ndarray:
        """``[a, j, k] = (f_j | d_a f_k)``, shape (P, M, M)."""
        m, p = self.n_modes, self.n_parameters
        return self.matrix[:m, m:].reshape(m, p, m).transpose(1, 0, 2)

    @property
    def derivative_overlaps(self) -> np.ndarray:
        """``[a, b, j, l] = (d_a f_j | d_b f_l)``, shape (P, P, M, M)."""
        m, p = self.n_modes, self.n_parameters
        return self.matrix[m:, m:].reshape(p, m, p, m).transpose(0, 2, 1, 3)

    @property
    def weights(self) -> np.ndarray:
        """``[a, k]`` = norm of d_a f_k, shape (P, M)."""
        m, p = self.n_modes, self.n_parameters
        norms2 = self.matrix.diagonal()[m:].real.reshape(p, m)
        return np.sqrt(np.maximum(norms2, 0.0))

    def validate(self) -> None:
        """Raise unless the populated modes are orthonormal."""
        _check_orthonormal(self.populated)


@dataclass(frozen=True, eq=False)
class DetectionMode:
    """A normalized detection mode with its sensitivity weight.

    The detection mode is the derivative mode rotated by i and scaled to
    unit norm; ``weight`` is the derivative-mode norm (inverse parameter
    units).  ``degenerate`` marks parameters with no effect on the mode.
    """

    mode: Mode
    weight: float
    degenerate: bool = False
    label: str = ""


@dataclass(frozen=True, eq=False)
class GramSchmidtResult:
    """Output of :func:`gram_schmidt`.

    ``coefficients`` is the triangle mapping inputs to outputs:
    ``basis.modes[i] == sum_j coefficients[i, j] * inputs[j]``.
    ``pivot_norms[i]`` is the residual norm of input ``i`` against the
    previously accepted modes (for unit inputs with overlap d this is
    ``sqrt(1 - |d|^2)``).  ``dependent_indices`` lists dropped inputs when
    ``on_dependent="drop"``.
    """

    basis: ModeBasis
    coefficients: np.ndarray
    pivot_norms: np.ndarray
    dependent_indices: tuple[int, ...] = ()


def gram_schmidt(modes: Sequence[Mode], *, on_dependent: str = "error") -> GramSchmidtResult:
    """Orthonormalize a mode list, tracking the input-to-output triangle.

    Uses modified Gram-Schmidt with a re-orthogonalization pass, so the
    output Gram matrix stays at machine-precision identity.  A pivot norm
    below ``TAU_RANK`` (relative to the input norm) raises
    :class:`RankDeficiencyError` naming the dependent index, or drops the
    mode when ``on_dependent="drop"``.
    """
    if on_dependent not in ("error", "drop"):
        raise ValueError("on_dependent must be 'error' or 'drop'")
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
            if on_dependent == "error":
                raise RankDeficiencyError(i, pivot)
            dependent.append(i)
            continue
        accepted.append(v / pivot)
        rows.append(row / pivot)

    if not accepted:
        raise RankDeficiencyError(0, pivots[0])
    basis = ModeBasis(tuple(Mode(grid, q) for q in accepted))
    return GramSchmidtResult(
        basis=basis,
        coefficients=np.array(rows),
        pivot_norms=pivots,
        dependent_indices=tuple(dependent),
    )


def derivative_mode(family: "ParameterFamily", mode_index: int, parameter: int) -> Mode:
    """Unnormalized derivative of a family mode with respect to one parameter.

    The family's ``derivative_fn`` decides how it is taken: a closed form,
    or the finite difference of :func:`finite_difference_family`.
    """
    if family.derivative_fn is None:
        raise StructuralError(
            f"family '{family.name}' has no derivative rule; "
            "use finite_difference_family(family)"
        )
    if not 0 <= parameter < family.n_parameters:
        raise StructuralError(f"parameter index {parameter} outside the family")
    return Mode(family.grid, family.derivative_fn(mode_index, parameter))


def finite_difference_family(
    family: "ParameterFamily", step: float | None = None
) -> "ParameterFamily":
    """The family with its derivatives taken by finite differences.

    A central difference with one Richardson refinement, step
    ``|theta_scale| * 1e-4`` unless given, so the step follows each
    parameter's own scale whether it is large or small.  Each derivative
    mode costs four shifted evaluations of the family.
    """
    steps = [
        float(step) if step is not None else abs(float(scale)) * 1e-4
        for scale in family.theta_scales
    ]
    if not all(h > 0 for h in steps):
        raise ValueError("finite-difference step must be positive")

    def derivative(mode_index: int, parameter: int) -> np.ndarray:
        def central(h: float) -> np.ndarray:
            theta = np.zeros(family.n_parameters)
            theta[parameter] = h
            plus = family.evaluate_mode(mode_index, theta).samples
            theta[parameter] = -h
            minus = family.evaluate_mode(mode_index, theta).samples
            return (plus - minus) / (2.0 * h)

        h = steps[parameter]
        coarse = central(h)
        fine = central(h / 2.0)
        samples = (4.0 * fine - coarse) / 3.0
        if not np.all(np.isfinite(samples)):
            raise EvaluationError(
                f"finite-difference evaluation of parameter "
                f"'{family.parameters[parameter]}' produced non-finite samples"
            )
        return samples

    return dataclasses.replace(family, derivative_fn=derivative)


def detection_mode(
    derivative: Mode,
    weight: float,
    *,
    weight_floor: float = TAU_ZERO,
    label: str = "",
) -> DetectionMode:
    """Normalized, i-rotated detection mode and sensitivity weight.

    A derivative mode f_a maps to (i / w_a) f_a, where ``weight`` is its
    norm w_a (a family reads it from its overlap table).  A weight below
    ``weight_floor`` returns a flagged degenerate mode with weight zero
    instead of raising.
    """
    if weight < weight_floor:
        zero = Mode(derivative.grid, np.zeros_like(derivative.samples))
        return DetectionMode(mode=zero, weight=0.0, degenerate=True, label=label)
    rotated = Mode(derivative.grid, 1j * derivative.samples / weight)
    return DetectionMode(mode=rotated, weight=weight, degenerate=False, label=label)
