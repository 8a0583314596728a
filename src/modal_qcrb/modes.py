"""Discretized mode functions and the overlap machinery built on them.

A mode is a complex amplitude profile sampled on a quadrature grid; every
quantity downstream (generators, information matrices, detection modes)
reduces to the weighted inner products computed here.  Grids carry their
quadrature weights so inner products stay bilinear sums.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvaluationError, GridMismatchError, StructuralError
from .tolerances import TAU_HERM, TAU_ORTH


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for a 1-D axis.

    The grid built from them checks the axis first, so a non-finite or
    non-increasing axis is rejected there, with a message naming it.
    """
    if axis.ndim != 1 or axis.size < 2:
        raise StructuralError("grid axis must be 1-D with at least two samples")
    w = np.empty_like(axis, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the grid
        w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
        w[0] = 0.5 * (axis[1] - axis[0])
        w[-1] = 0.5 * (axis[-1] - axis[-2])
    w.flags.writeable = False  # a square grid shares one array between its axes
    return w


class SampleGrid:
    """Sample coordinates and positive quadrature weights (1-D or 2-D).

    The weights are a product of per-axis weights (``axis_weights``, as
    :meth:`uniform` builds with trapezoid weights); the full ``weights``,
    one entry per sample point, are formed only when first read.  Overlaps
    of modes given as :class:`ProductSum` then reduce to per-axis sums.
    Instances are treated as immutable and compared by identity or by
    :meth:`compatible`.
    """

    def __init__(self, axes: Sequence[np.ndarray], *, axis_weights: Sequence[np.ndarray]):
        axes = tuple(axes)
        if not 1 <= len(axes) <= 2:
            raise StructuralError("only 1-D and 2-D sample grids are supported")
        for i, ax in enumerate(axes):
            if i and ax is axes[0]:  # a shared axis is checked once
                continue
            if ax.ndim != 1:
                raise StructuralError(f"grid axis {i} must be 1-D")
            if not np.all(np.isfinite(ax)):
                raise StructuralError(f"grid axis {i} has non-finite coordinates")
            if np.any(ax[1:] <= ax[:-1]):
                raise StructuralError(f"grid axis {i} must be strictly increasing")
        self._axes = axes
        axis_weights = tuple(np.asarray(w, dtype=float) for w in axis_weights)
        if tuple(w.shape for w in axis_weights) != tuple((n,) for n in self.shape):
            raise StructuralError(f"per-axis weights do not match axes {self.shape}")
        # rounding is monotone, so every product of positive weights lies
        # between the products of the per-axis extremes; Python floats
        # overflow to inf and underflow to 0, which the test below rejects
        positive, low, high = True, 1.0, 1.0
        for i, w in enumerate(axis_weights):
            if not (i and w is axis_weights[0]):  # shared weights are checked once
                positive = positive and bool(np.all((w > 0) & np.isfinite(w)))
                extremes = float(w.min()), float(w.max())
            low *= extremes[0]
            high *= extremes[1]
        if not (positive and low > 0 and math.isfinite(high)):
            raise StructuralError("quadrature weights must be finite and strictly positive")
        self._weights = None
        self._axis_weights = axis_weights

    @classmethod
    def uniform(cls, *axes: np.ndarray) -> "SampleGrid":
        """Build a grid with read-only trapezoid weights from coordinate axes.

        An axis passed twice is validated once and shares one weights array.
        """
        axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        weights = [_trapezoid_weights(axes[0])]
        for ax in axes[1:]:
            weights.append(weights[0] if ax is axes[0] else _trapezoid_weights(ax))
        return cls(axes, axis_weights=weights)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return self._axes

    @property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        return self._axis_weights

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = functools.reduce(np.multiply.outer, self._axis_weights)
        return self._weights

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


def _check_scalar(scalar) -> None:
    if not isinstance(scalar, (int, float, complex, np.generic)) and np.ndim(scalar) != 0:
        raise StructuralError(
            "a product sum scales by a scalar only; a profile goes through along()"
        )


@dataclass(frozen=True, eq=False)
class ProductSum:
    """Samples given as a short sum of outer products of per-axis factors.

    ``terms[t][i]`` is the 1-D factor of term t along axis i; the samples
    are ``sum_t outer(terms[t][0], terms[t][1], ..)``.  A scalar multiplies
    the first factor of every term.  Subtraction pairs the terms and
    telescopes each pair one axis at a time,
    ``a(x) b(y) - c(x) d(y) = (a - c)(x) b(y) + c(x) (b - d)(y)``, so the
    difference of two nearby products is a sum of small terms and keeps
    the precision a difference of the full samples would have.
    """

    terms: tuple[tuple[np.ndarray, ...], ...]

    # numpy scalars defer to the operators below instead of broadcasting
    __array_ufunc__ = None

    def __post_init__(self):
        terms = tuple(tuple(np.asarray(f) for f in term) for term in self.terms)
        if not terms:
            raise StructuralError("a product sum needs at least one term")
        shape = tuple(f.shape for f in terms[0])
        if any(f.ndim != 1 for f in terms[0]) or any(
            tuple(f.shape for f in term) != shape for term in terms
        ):
            raise StructuralError(
                "product-sum terms need one 1-D factor per axis, of equal sizes"
            )
        object.__setattr__(self, "terms", terms)

    @classmethod
    def outer(cls, *factors: np.ndarray) -> "ProductSum":
        """One outer product ``factors[0] x factors[1] x ..``."""
        return cls((factors,))

    @classmethod
    def _unchecked(cls, terms: tuple[tuple[np.ndarray, ...], ...]) -> "ProductSum":
        # terms formed from checked factors by a shape-preserving operation
        # are valid as they stand; skip the check of __post_init__
        ps = object.__new__(cls)
        object.__setattr__(ps, "terms", terms)
        return ps

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.terms[0])

    def finite(self) -> bool:
        return all(np.isfinite(f).all() for term in self.terms for f in term)

    def expand(self) -> np.ndarray:
        """The samples on the full grid."""
        # finite factors can overflow in their products; the callers check the result
        with np.errstate(over="ignore", invalid="ignore"):
            products = [functools.reduce(np.multiply.outer, term) for term in self.terms]
            return functools.reduce(np.add, products)

    def along(self, axis: int, profile: np.ndarray) -> "ProductSum":
        """The samples times a profile that varies along one axis only."""
        profile = np.asarray(profile)
        if profile.shape != (self.shape[axis],):
            raise StructuralError(
                f"a profile of shape {profile.shape} does not fit axis {axis} "
                f"of length {self.shape[axis]}"
            )
        return ProductSum._unchecked(
            tuple((*t[:axis], profile * t[axis], *t[axis + 1 :]) for t in self.terms)
        )

    def __mul__(self, scalar) -> "ProductSum":
        _check_scalar(scalar)
        return ProductSum._unchecked(tuple((scalar * t[0], *t[1:]) for t in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ProductSum":
        _check_scalar(scalar)
        return ProductSum._unchecked(tuple((t[0] / scalar, *t[1:]) for t in self.terms))

    def _same_shape(self, other: "ProductSum") -> None:
        if self.shape != other.shape:
            raise StructuralError(
                f"product sums of shapes {self.shape} and {other.shape} do not combine"
            )

    def __add__(self, other: "ProductSum") -> "ProductSum":
        if not isinstance(other, ProductSum):
            return NotImplemented
        self._same_shape(other)
        return ProductSum._unchecked(self.terms + other.terms)

    def __sub__(self, other: "ProductSum") -> "ProductSum":
        if not isinstance(other, ProductSum):
            return NotImplemented
        self._same_shape(other)
        terms = []
        for a, c in zip(self.terms, other.terms):
            for axis in range(len(a)):
                terms.append((*c[:axis], a[axis] - c[axis], *a[axis + 1 :]))
        paired = min(len(self.terms), len(other.terms))
        terms += self.terms[paired:] + (-1.0 * other).terms[paired:]
        return ProductSum._unchecked(tuple(terms))


def _all_finite(samples: np.ndarray | ProductSum) -> bool:
    if isinstance(samples, ProductSum):
        return samples.finite()
    return bool(np.all(np.isfinite(samples)))


def _real_or_complex(samples: np.ndarray) -> np.ndarray:
    # real profiles stay real, without a copy
    samples = np.asarray(samples)
    return samples if samples.dtype == np.float64 else samples.astype(complex, copy=False)


class Mode:
    """A mode profile sampled on a grid.

    Samples are complex, or float64 when the profile is real.  A mode given
    as a :class:`ProductSum` keeps it and forms the full ``samples`` only
    when they are first read; ``data`` is the product sum or the samples,
    whichever the mode was given as.
    """

    def __init__(self, grid: SampleGrid, samples: np.ndarray | ProductSum):
        factored = isinstance(samples, ProductSum)
        if not factored:
            samples = _real_or_complex(samples)
        if samples.shape != grid.shape:
            raise StructuralError(
                f"sample shape {samples.shape} does not match grid {grid.shape}"
            )
        if not _all_finite(samples):
            raise EvaluationError("mode samples contain non-finite values")
        self._grid = grid
        self._data = samples
        self._samples = None if factored else samples

    @property
    def grid(self) -> SampleGrid:
        return self._grid

    @property
    def data(self) -> np.ndarray | ProductSum:
        return self._data

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            samples = _real_or_complex(self._data.expand())
            # finite factors can still overflow in their products
            if not np.all(np.isfinite(samples)):
                raise EvaluationError("mode samples contain non-finite values")
            self._samples = samples
        return self._samples


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
    # an overflow leaves non-finite entries; the callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, root.size, GRAM_BLOCK):
            w = root[start : start + GRAM_BLOCK]
            x = stack[:, : w.size]
            for i, r in enumerate(flat):
                part = r[start : start + GRAM_BLOCK]
                np.multiply(part.real, w, out=x[i])
                np.multiply(part.imag, w, out=x[k + i])
            s += x @ x.T
        return _hermitian(s[:k, :k] + s[k:, k:] + 1j * (s[:k, k:] - s[k:, :k]))


@functools.lru_cache(maxsize=None)
def _strict_upper(n: int) -> np.ndarray:
    """Boolean mask of the entries above the diagonal of an n x n matrix.

    ``np.where(_strict_upper(n), g, 0)`` is ``np.triu(g, 1)`` bitwise, +0
    below, without building the index mask on every call.
    """
    mask = ~np.tri(n, dtype=bool)
    mask.flags.writeable = False  # shared by every caller through the cache
    return mask


def _hermitian(g: np.ndarray) -> np.ndarray:
    """The upper triangle of g with its exact conjugate below a real diagonal."""
    if g.shape == (1, 1):  # a squared norm: its real part plus +0 of g's type, as below
        return g.real + np.zeros_like(g)
    upper = np.where(_strict_upper(len(g)), g, 0)
    return upper + upper.conj().T + np.diag(g.diagonal().real)


def _factored_gram(rows: Sequence[ProductSum], axis_weights: Sequence[np.ndarray]) -> np.ndarray:
    """Gram matrix of product-sum rows from one 1-D Gram matrix per axis.

    With the weights a product w(x) w(y) too, the overlap of two terms is
    the product of their per-axis overlaps; a row's entry sums those of
    its terms.
    """
    terms = [term for row in rows for term in row.terms]
    g = 1.0
    # an overflow leaves non-finite entries; the callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, w in enumerate(axis_weights):
            f = np.array([term[axis] for term in terms])
            g = g * ((f.conj() * w) @ f.T)
        if len(terms) > len(rows):  # some row sums several terms
            starts = np.cumsum([0] + [len(row.terms) for row in rows[:-1]])
            g = np.add.reduceat(np.add.reduceat(g, starts, axis=0), starts, axis=1)
    return _hermitian(g)


def _one_term_norm2(samples: ProductSum, axis_weights: Sequence[np.ndarray]) -> float:
    """Squared norm of a one-term product sum: the product of its per-axis dots.

    Bitwise the entry :func:`_factored_gram` forms for the one row, without
    stacking its factors into matrices first.  A factor is read contiguous,
    as the stack holds it: BLAS sums a strided vector in another order.
    """
    (term,) = samples.terms
    norm2 = 1.0
    # an overflow leaves a non-finite norm; the callers check it
    with np.errstate(over="ignore", invalid="ignore"):
        for f, w in zip(term, axis_weights):
            norm2 = norm2 * ((f.conj() * w) @ np.ascontiguousarray(f))
    return float(norm2.real)


def grid_gram(grid: SampleGrid, rows: Sequence[np.ndarray | ProductSum]) -> np.ndarray:
    """Hermitian matrix G[i, j] = sum(w * conj(rows[i]) * rows[j]) on a grid.

    When every row is a :class:`ProductSum`, G is formed from per-axis 1-D
    Gram matrices at a cost linear in the points per axis; otherwise the
    rows are expanded and reduced with :func:`weighted_gram`.  Either way G
    is Hermitian bitwise.
    """
    if all(isinstance(r, ProductSum) for r in rows):
        return _factored_gram(rows, grid.axis_weights)
    return weighted_gram(
        [r.expand() if isinstance(r, ProductSum) else r for r in rows], grid.weights
    )


# Frames a warning is not attributed to: this package's, and those of
# functools, through which the cached ``OverlapTable.matrices`` is reached
_INTERNAL_FILES = (os.path.dirname(__file__) + os.sep, functools.__file__)


def _caller_stacklevel() -> int:
    """``stacklevel`` of the first frame outside :data:`_INTERNAL_FILES`.

    Counted for a ``warnings.warn`` in the function that calls this one.
    """
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_INTERNAL_FILES):
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True, eq=False)
class OverlapTable:
    """Overlaps among populated modes f_k and their derivative modes d_a f_k.

    ``matrix`` is the weighted Gram matrix of the rows
    ``[f_0 .. f_{M-1}, d_0 f_0 .. d_0 f_{M-1}, d_1 f_0, ..]`` (K = M + P M
    rows), ``matrix[r, s] = (row_r | row_s)``, for the parameters named in
    ``labels``.  Everything a run reports about the modes is a slice of it;
    the properties name the slices.  The generator matrices, the one slice
    that is transformed, are formed once, on first read of ``matrices``.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    n_modes: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise EvaluationError(
                "mode overlaps overflow: the derivative modes are too large for double precision"
            )
        # the slices below are views: keep them from writing into the table
        self.matrix.flags.writeable = False

    @classmethod
    def from_modes(
        cls, populated: Sequence[Mode], derivatives: Sequence[Sequence[Mode]], labels: Sequence[str]
    ) -> "OverlapTable":
        """Table of explicit modes; ``derivatives[a][k]`` is d_a f_k, named ``labels[a]``."""
        populated = list(populated)
        if not populated:
            raise StructuralError("an overlap table needs at least one populated mode")
        if any(len(row) != len(populated) for row in derivatives):
            raise StructuralError("derivative table shape does not match the basis")
        if len(labels) != len(derivatives):
            raise StructuralError(f"{len(labels)} labels for {len(derivatives)} derivative rows")
        modes = populated + [d for row in derivatives for d in row]
        grid = populated[0].grid
        if not all(grid.compatible(m.grid) for m in modes[1:]):
            raise GridMismatchError("modes are sampled on different grids")
        matrix = grid_gram(grid, [m.data for m in modes])
        return cls(matrix, tuple(labels), len(populated))

    @property
    def n_parameters(self) -> int:
        return len(self.labels)

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

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """``[a, k]`` = norm of d_a f_k, shape (P, M), formed once and read-only."""
        m, p = self.n_modes, self.n_parameters
        norms2 = self.matrix.diagonal()[m:].real.reshape(p, m)
        weights = np.sqrt(np.maximum(norms2, 0.0))
        weights.flags.writeable = False
        return weights

    def total_weights(self) -> np.ndarray:
        """Per-parameter derivative norm across all populated modes."""
        return np.sqrt(np.sum(self.weights**2, axis=1))

    @functools.cached_property
    def hermiticity_residuals(self) -> np.ndarray:
        """``[a]`` = max |G^a - (G^a)^dagger| of the generator G^a_jk = i (f_j | d_a f_k)."""
        g = 1j * self.generator_overlaps
        return np.max(np.abs(g - g.conj().transpose(0, 2, 1)), axis=(1, 2))

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """Hermitian generator matrices (G^a + (G^a)^dagger) / 2, shape (P, M, M).

        The first read raises unless the populated modes are orthonormal,
        and warns once if a Hermiticity residual exceeds ``TAU_HERM``.
        """
        self.validate()
        residuals = self.hermiticity_residuals
        if np.any(residuals > TAU_HERM):
            worst = int(np.argmax(residuals))
            warnings.warn(
                f"generator for parameter '{self.labels[worst]}' has Hermiticity "
                f"residual {residuals[worst]:.3e}; the family's normalization "
                "may drift with this parameter",
                stacklevel=_caller_stacklevel(),
            )
        g = 1j * self.generator_overlaps
        return (g + g.conj().transpose(0, 2, 1)) / 2.0

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
