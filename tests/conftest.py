import math
from functools import reduce

import numpy as np
import pytest

from modal_qcrb import (
    BeamGeometry,
    FockSpace,
    Mode,
    ModeBasis,
    PulseSpectrum,
    SampleGrid,
    displaced_beam_family,
    gaussian_beam_family,
    gaussian_pulse_family,
    gram_schmidt,
    inner_product,
    make_state,
)

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
