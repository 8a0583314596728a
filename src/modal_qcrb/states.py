"""Probe states on a truncated multimode Fock space, and one-mode photon statistics.

Density operators are stored eigen-decomposed (probabilities and
eigenvectors over the truncated number basis), which is the form every
information-matrix sum consumes.  Operators act on blocks of eigenvectors
viewed as the (L,)*M occupation tensor: a ladder operator is a shift by
one level along one mode's axis, so no operator matrix is built.

Each state keeps one table (:attr:`DensityState.lowered_table`): its
eigenvectors lowered by every a_j, and the overlaps
<a_j v_m | a_l v_n> of those columns.  The one-photon correlations and the
eigenvector matrix elements of every quadratic generator are sums over that
table, so the lowering is done once per state.  Generators are applied to
the eigenvectors by raising the lowered table once per mode into a hop
table a_j_dagger a_k V, of which every generator is one weighted sum.
Like the family's overlap table, the lowered table is built on first use
and kept: it assumes that the state's arrays are not mutated afterwards.

Each probe kind is described once, in :data:`PROBE_KINDS`: its spec
fields and the closed form of its mean photon number and number
information, through which alone a one-mode probe enters every quantity
(read by :func:`photon_statistics`, with no truncation).  A state on the
truncated space is given explicitly, as a :class:`DensityState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    CutoffError,
    PreconditionError,
    StructuralError,
    finite_number,
    whole_number,
)
from .modes import _hermitian
from .tolerances import (
    MAX_CUTOFF,
    TAU_CUTOFF,
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
def _occupations(space: FockSpace) -> np.ndarray:
    """Photon number of every mode in every basis state, shape (M, D)."""
    dims = (space.levels,) * space.n_modes
    occupations = np.array(np.unravel_index(np.arange(space.dimension), dims))
    occupations.flags.writeable = False  # shared by every caller through the cache
    return occupations


@lru_cache(maxsize=None)
def _boundary_mask(space: FockSpace) -> np.ndarray:
    """Boolean mask of basis states with any mode at the cutoff level."""
    mask = np.any(_occupations(space) == space.cutoff, axis=0)
    mask.flags.writeable = False  # shared by every caller through the cache
    return mask


def _ladder(
    space: FockSpace, vectors: np.ndarray, mode: int, out: np.ndarray, raising: bool = False
) -> None:
    """a_mode (or a_mode_dagger) applied to the columns of (..., D, r) blocks.

    The columns are viewed as the (L,)*M occupation tensor, mode 0 the most
    significant index, and shifted by one level along the mode's axis with
    the factor sqrt(n) of the higher level; leading dimensions are stacks
    of blocks, all shifted at once.  The shifted blocks are written to
    ``out``, and ``vectors`` is only read; raising drops the amplitude
    pushed past the cutoff, as the truncated operator does.  ``out`` is
    C-contiguous, so that its reshape is a view.
    """
    levels = space.levels
    shape = vectors.shape[:-2] + (levels**mode, levels, -1)
    tensor = vectors.reshape(shape)
    target = out.reshape(shape)
    root = np.sqrt(np.arange(1.0, levels))[:, None]
    below, above = slice(None, -1), slice(1, None)
    source, written, cleared = (below, above, 0) if raising else (above, below, -1)
    np.multiply(root, tensor[..., source, :], out=target[..., written, :])
    target[..., cleared, :] = 0.0


def _coefficient_matrices(space: FockSpace, coefficients) -> np.ndarray:
    """A checked (M, M) matrix or (P, M, M) stack of quadratic coefficients.

    Takes an array, or an overlap table exposing its generator ``matrices``.
    """
    coefficients = np.asarray(getattr(coefficients, "matrices", coefficients), dtype=complex)
    m = space.n_modes
    if coefficients.ndim not in (2, 3) or coefficients.shape[-2:] != (m, m):
        raise StructuralError(
            f"coefficient shape {coefficients.shape} does not match {m} modes"
        )
    return coefficients


# Columns of the flattened (D, r) blocks per product in :func:`_raise_sum`:
# the product of one column block stays small next to the hop table.
RAISE_BLOCK = 2048


def _raise_sum(space: FockSpace, coefficients: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    """sum_{jk} C_{jk} a_j_dagger a_k V from the (M, D, r) stack lowered[k] = a_k V.

    ``coefficients`` is one (M, M) matrix, giving one (D, r) block, or a
    (P, M, M) stack, giving a (P, D, r) stack.  One raising shift per mode j
    writes the hop table T[j, k] = a_j_dagger lowered[k], M^2 blocks, and one
    (P, M^2) x (M^2, D r) product forms every sum_{jk} C_{jk} T[j, k]: M
    shifts and one product whatever P, and each result block is written
    once.  The product overwrites the first P blocks of the table's buffer,
    ``RAISE_BLOCK`` columns at a time, and the result is a view of them.

    The buffer holds max(M^2, P) (D, r) blocks.  Beside it the pass holds
    numpy's iteration buffers during the shifts (384 KiB), P rows of one
    column block during the product, and one block while
    :func:`~modal_qcrb.engine.qfim_unitary` subtracts V E_a.  At D = 1331
    and r = 8 each of these is under 3 blocks for P up to 12, so the pass
    peaks below max(M^2, P) + 3 blocks.
    """
    m = space.n_modes
    stack = coefficients.reshape(-1, m * m)
    n_p = stack.shape[0]
    hops = np.empty((max(m * m, n_p),) + lowered.shape[1:], dtype=complex)
    table = hops[: m * m].reshape((m,) + lowered.shape)
    for j in range(m):
        _ladder(space, lowered, j, table[j], raising=True)
    flat = hops.reshape(hops.shape[0], -1)
    for start in range(0, flat.shape[1], RAISE_BLOCK):
        columns = flat[:, start : start + RAISE_BLOCK]
        columns[:n_p] = stack @ columns[: m * m]
    return hops[:n_p].reshape(coefficients.shape[:-2] + lowered.shape[1:])


@dataclass(frozen=True, eq=False)
class LoweredTable:
    """A state's eigenvectors lowered by each ladder operator, and their overlaps.

    ``lowered[j, :, m]`` is a_j v_m, shape (M, D, r); ``gram[j, m, l, n]``
    is <a_j v_m | a_l v_n>, shape (M, r, M, r), Hermitian bitwise over the
    pairs (j, m) and (l, n).  Both arrays are read-only.
    """

    lowered: np.ndarray
    gram: np.ndarray

    @classmethod
    def of(cls, space: FockSpace, vectors: np.ndarray) -> "LoweredTable":
        """M lowering shifts of the columns and one Gram product over them."""
        m, r = space.n_modes, vectors.shape[1]
        lowered = np.empty((m,) + vectors.shape, dtype=complex)
        for j in range(m):
            _ladder(space, vectors, j, lowered[j])
        # columns (j, m) as reals: each interleaves its real and imaginary
        # parts, so S = X^T X holds every product of parts and
        # Re G = S_rr + S_ii, Im G = S_ri - S_ir
        columns = lowered.transpose(1, 0, 2).reshape(space.dimension, m * r)
        x = np.ascontiguousarray(columns).view(np.float64)
        s = x.T @ x
        gram = s[::2, ::2] + s[1::2, 1::2] + 1j * (s[::2, 1::2] - s[1::2, ::2])
        gram = _hermitian(gram).reshape(m, r, m, r)
        lowered.flags.writeable = False
        gram.flags.writeable = False
        return cls(lowered, gram)


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
        # each check fails closed: a NaN compares false, so it is rejected
        total = p.sum()
        if not (np.all(p >= -TAU_STATE_PROB) and math.isfinite(total)):
            raise StructuralError("negative or non-finite probability in the eigendecomposition")
        if not abs(total - 1.0) <= TAU_STATE_PROB:
            raise StructuralError(
                f"probabilities sum to {total:.15f}, expected 1 within {TAU_STATE_PROB:g}"
            )
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite: rejected below
            gram = v.conj().T @ v
        if not np.max(np.abs(gram - np.eye(p.size))) <= TAU_STATE_ORTH:
            raise StructuralError(
                f"eigenvectors are non-finite or not orthonormal within {TAU_STATE_ORTH:g}"
            )
        boundary = _boundary_mask(self.space)
        leakage = float(np.sum(p[None, :] * np.abs(v[boundary, :]) ** 2))
        if not leakage <= TAU_CUTOFF:
            raise CutoffError(
                f"probability {leakage:.3e} sits at the cutoff boundary",
                suggested_cutoff=min(self.space.cutoff * 2, MAX_CUTOFF),
            )

    @property
    def rank(self) -> int:
        return int(self.probabilities.size)

    @cached_property
    def kept_columns(self) -> np.ndarray | slice:
        """The eigenvalues above ``TAU_PROB``, else the largest, as a column index.

        The one rule by which every mixed-state double sum drops columns.
        When every column is kept the index is ``slice(None)``, so the
        slices it takes are views rather than copies.
        """
        p = self.probabilities
        mask = p > TAU_PROB
        if not np.any(mask):
            mask = p == p.max()
        return slice(None) if np.all(mask) else np.flatnonzero(mask)

    def kept(self) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities and eigenvector columns of :attr:`kept_columns`."""
        idx = self.kept_columns
        return self.probabilities[idx], self.vectors[:, idx]

    @cached_property
    def lowered_table(self) -> LoweredTable:
        """The eigenvectors lowered by each a_j and their overlaps, built once.

        Every column enters, kept or not; the double sums slice the kept
        ones.  Cached on first use, so the arrays must not change after.
        """
        return LoweredTable.of(self.space, self.vectors)

    @cached_property
    def correlations(self) -> np.ndarray:
        """The one-photon correlations of :func:`first_moments`, built once.

        Read-only, like the table they are summed from.
        """
        gram = self.lowered_table.gram
        moments = _hermitian(np.einsum("m,jmlm->jl", self.probabilities, gram))
        moments.flags.writeable = False
        return moments


# ---------------------------------------------------------------------------
# Probe kinds


class SpecField(NamedTuple):
    """One field of a probe spec; every value is a finite JSON number."""

    description: str
    minimum: float | None = None
    integer: bool = False
    required: bool = True


class ProbeKind(NamedTuple):
    """A probe kind: its spec fields and closed form.

    ``statistics(value)`` gives the mean photon number and the number
    information from the value of the first field, the only one they
    depend on.
    """

    fields: dict[str, SpecField]
    statistics: Callable[[float], tuple[float, float]]


# The probe kinds a spec may name, in the order error messages list them.
PROBE_KINDS: dict[str, ProbeKind] = {
    "coherent": ProbeKind(
        {"nbar": SpecField("mean photon number", minimum=0.0)},
        lambda nbar: (nbar, 4.0 * nbar),
    ),
    "fock": ProbeKind(
        {"n": SpecField("photon number", minimum=0, integer=True)},
        lambda n: (float(n), 0.0),
    ),
    "thermal": ProbeKind(
        {"nbar": SpecField("mean photon number", minimum=0.0)},
        lambda nbar: (nbar, 0.0),
    ),
    "squeezed-vacuum": ProbeKind(
        {
            "r": SpecField("squeezing parameter"),
            "phi": SpecField("squeezing angle (rad)", required=False),
        },
        lambda r: (math.sinh(r) ** 2, 2.0 * math.sinh(2.0 * r) ** 2),
    ),
}


def parse_probe(spec) -> tuple[ProbeKind, dict]:
    """The kind and the field values of a ``{"kind": ..., fields...}`` spec.

    The one check of a probe spec, for the CLI and the library alike: a
    missing kind or field, an unknown field, and a value that is not a
    finite number, not whole where it must be, or below its minimum raise
    :class:`ConfigError` naming ``state.<field>``.  Whole-number fields
    come back as ints, the others as floats; an optional field that the
    spec omits has no value.
    """
    if not isinstance(spec, dict):
        raise ConfigError("state: must be an object")
    if "kind" not in spec:
        raise ConfigError('state: required object with a "kind" field')
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in PROBE_KINDS:
        raise ConfigError(f"state.kind: unknown {kind!r}; supported: " + ", ".join(PROBE_KINDS))
    fields = PROBE_KINDS[kind].fields
    for key in spec:
        if key != "kind" and key not in fields:
            raise ConfigError(
                f"state.{key}: unknown field for kind '{kind}'; accepted: " + ", ".join(fields)
            )
    values = {}
    for key, field in fields.items():
        name = f"state.{key}"
        if key not in spec:
            if field.required:
                raise ConfigError(f"{name}: required for kind '{kind}' ({field.description})")
            continue
        check = whole_number if field.integer else finite_number
        value = check(name, spec[key])
        if field.minimum is not None and value < field.minimum:
            raise ConfigError(f"{name}: must be at least {field.minimum:g}, got {value!r}")
        values[key] = value
    return PROBE_KINDS[kind], values


# ---------------------------------------------------------------------------
# Constructors


def make_state(kind: str, space: FockSpace | None = None, **arrays) -> DensityState:
    """``make_state("custom", space, probabilities=..., vectors=...)``.

    The same state as ``DensityState(space, probabilities, vectors)``; a
    missing or unknown array is a ``TypeError``.  A named probe kind has
    no Fock form here: a one-mode probe enters only through
    :func:`photon_statistics`, so a named kind raises
    :class:`StructuralError`.
    """
    if kind != "custom":
        raise StructuralError(
            f"make_state builds only 'custom' states; a one-mode '{kind}' probe "
            "enters through photon_statistics"
        )
    if space is None:
        raise StructuralError("custom states require an explicit space")
    return DensityState(space, **arrays)


@dataclass(frozen=True)
class PhotonStatistics:
    """The two numbers through which a one-mode probe enters every quantity.

    ``mean`` is <N>; ``number_information`` is the information of the
    phase generated by N: 4 Var N for a pure state, 0 for a state diagonal
    in the number basis.
    """

    mean: float
    number_information: float


def photon_statistics(spec: dict) -> PhotonStatistics:
    """Closed-form statistics of a ``{"kind": ..., fields...}`` probe.

    Exact for every photon number, with no Fock-space truncation; the
    squeezing angle ``phi`` does not enter.  The spec is checked by
    :func:`parse_probe`; a value whose statistics leave the double range
    raises :class:`PreconditionError` naming the field.
    """
    probe, values = parse_probe(spec)
    field = next(iter(probe.fields))
    try:
        mean, info = probe.statistics(values[field])
    except OverflowError:
        mean = info = math.inf
    if not (math.isfinite(mean) and math.isfinite(info)):
        raise PreconditionError(
            f"state.{field}: photon statistics of {spec[field]!r} overflow double precision"
        )
    return PhotonStatistics(mean, info)


# ---------------------------------------------------------------------------
# Moments and matrix elements


def first_moments(state: DensityState) -> np.ndarray:
    """One-photon correlation matrix <a_j_dagger a_l>; Hermitian, trace <N>.

    Sums p_m <a_j v_m | a_l v_m> over the eigenvectors v_m, read from the
    state's lowered table.  Formed once per state
    (:attr:`DensityState.correlations`); the array is read-only.
    """
    return state.correlations


def operator_matrix_elements(state: DensityState, coefficients) -> np.ndarray:
    """Eigenvector matrix elements <a|H|b> of H = sum C_{jk} a_j_dagger a_k.

    Accepts a single (M, M) coefficient matrix, a stack (P, M, M), or a
    generator-coefficient object exposing ``matrices``; only the eigenvectors
    of :meth:`DensityState.kept` enter, matching the double sums that
    consume these elements.  Since <a|a_j_dagger a_k|b> = <a_j a|a_k b>,
    the elements are sum_{jk} C_{jk} gram[j, a, k, b] of the lowered table
    and no operator is applied.
    """
    coefficients = _coefficient_matrices(state.space, coefficients)
    idx = state.kept_columns
    gram = state.lowered_table.gram[:, idx][:, :, :, idx]
    return np.einsum("...jk,jakb->...ab", coefficients, gram)

