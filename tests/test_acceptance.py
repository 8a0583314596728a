"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from modal_qcrb import (
    BeamGeometry,
    DetectionMode,
    FockSpace,
    Mode,
    PulseSpectrum,
    attainability,
    attainability_single_mode,
    build_generators,
    crb_bounds,
    detection_modes_for,
    gaussian_beam_family,
    gaussian_pulse_family,
    photon_statistics,
    qfim_mode_split,
    qfim_single_mode,
    qfim_unitary,
)
from modal_qcrb.families import derivative_mode, finite_difference_family
from modal_qcrb.states import first_moments
from conftest import (
    K,
    OMEGA0,
    VARIANCE,
    W0,
    GaussianState,
    ModeBasis,
    commutator_from_overlaps,
    dense_quadratic,
    family_from_modes,
    gram_schmidt_readout,
    hermite_gaussian_samples,
    inner_product,
    mode_norm,
    number_information,
    probe_state,
    qfim_mean_field,
    quadrature_covariance,
    random_density_state,
    random_mode_parameter_data,
    readout_means,
)
from test_engine import brute_force_qfim


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


PROBE_GRID = (
    {"kind": "coherent", "nbar": 1.0},
    {"kind": "coherent", "nbar": 10.0},
    {"kind": "thermal", "nbar": 0.5},
    {"kind": "thermal", "nbar": 2.0},
    {"kind": "fock", "n": 1},
    {"kind": "fock", "n": 3},
)


@pytest.fixture(scope="module")
def families():
    from modal_qcrb import displaced_beam_family

    return {
        "gaussian-beam": gaussian_beam_family(BeamGeometry(W0, K)),
        "gaussian-beam-carrier": gaussian_beam_family(BeamGeometry(W0, K), carrier_phase=True),
        "gaussian-pulse": gaussian_pulse_family(PulseSpectrum(OMEGA0, VARIANCE)),
        "displaced-beam": displaced_beam_family(W0),
    }


def test_criterion_01_beam_information_matrix(families):
    start = time.perf_counter()
    state = probe_state("coherent", nbar=1.0)
    f = qfim_mode_split(state, families["gaussian-beam"])
    elapsed = time.perf_counter() - start

    diag = np.diag(f)
    transverse_ok = np.all(np.abs(diag[[0, 1, 3]] - 4.0) / 4.0 < 1e-4)
    tilt_ok = np.all(np.abs(diag[[4, 5]] - 100.0) / 100.0 < 1e-4)
    off = f - np.diag(diag)
    off_ok = np.max(np.abs(off)) < 1e-8
    ok = bool(transverse_ok and tilt_ok and off_ok and elapsed < 10.0)
    report(
        1,
        "beam matrix: transverse entries 4, tilt entries 100, no correlations",
        ok,
        f"diag={np.round(diag, 6)}, max offdiag={np.max(np.abs(off)):.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_pulse_structure(families):
    state = probe_state("coherent", nbar=1.0)
    f = qfim_mode_split(state, families["gaussian-pulse"])
    scale = np.max(np.abs(f))
    zeros_ok = abs(f[0, 1]) < 1e-10 * scale and abs(f[1, 2]) < 1e-10 * scale
    group_ok = abs(f[1, 1] - 4.0 * VARIANCE) / (4.0 * VARIANCE) < 1e-6
    ratio = f[0, 2] / f[0, 0]
    expected_ratio = VARIANCE / OMEGA0**2
    ratio_ok = abs(ratio - expected_ratio) / expected_ratio < 1e-6
    report(
        2,
        "pulse matrix: group delay decoupled, phase/broadening correlated",
        bool(zeros_ok and group_ok and ratio_ok),
        f"ratio={ratio:.3e} vs {expected_ratio:.3e}",
    )


def test_criterion_03_attainability_flags(families):
    coherent = photon_statistics({"kind": "coherent", "nbar": 1.0})
    beam = attainability_single_mode(families["gaussian-beam"], coherent)
    x0_tilt = beam.normalized[0, 4]
    beam_pair_ok = abs(x0_tilt - 1.0) < 1e-6 and not beam.pair_attainable[0, 4]
    xy_ok = beam.pair_attainable[0, 1] and abs(beam.imaginary_overlaps[0, 1]) < 1e-10

    pulse = attainability_single_mode(families["gaussian-pulse"], coherent)
    pulse_ok = pulse.attainable and np.max(np.abs(pulse.imaginary_overlaps)) < 1e-10
    report(
        3,
        "displacement/tilt in quadrature (unattainable); pulse pairs compatible",
        bool(beam_pair_ok and xy_ok and pulse_ok),
        f"normalized overlap={x0_tilt:.9f}",
    )


def test_criterion_04_engine_self_consistency(families):
    worst = 0.0
    conventions = []
    for name in ("displaced-beam", "gaussian-pulse"):
        family = families[name]
        for spec in PROBE_GRID:
            state = probe_state(**spec)
            split = qfim_mode_split(state, family)
            single = qfim_single_mode(photon_statistics(spec), family)
            scale = max(np.max(np.abs(split)), 1e-30)
            worst = max(worst, np.max(np.abs(split - single)) / scale)

            if spec["kind"] == "coherent":
                n0 = spec["nbar"]
                if name == "displaced-beam":
                    dets = detection_modes_for(family)
                    basis = ModeBasis(family.evaluate())
                    cov = quadrature_covariance(GaussianState.vacuum(1), dets, basis)
                    mf = qfim_mean_field(n0, dets, cov, mean_mode=basis.modes[0])
                    worst = max(worst, np.max(np.abs(split - mf)) / scale)
                else:
                    # amplitude-only entry: group delay
                    det = detection_modes_for(family)[1]
                    mf = qfim_mean_field(n0, [det], np.eye(1))
                    worst = max(worst, abs(split[1, 1] - mf[0, 0]) / scale)

    # record which scaling relates the engine values to the published
    # closed forms on every number-information-bearing entry
    state = probe_state("coherent", nbar=1.0)
    info = number_information(state)
    mean_n = 1.0
    zr = K * W0**2 / 2.0
    f_beam = qfim_mode_split(state, families["gaussian-beam"])
    f_pulse = qfim_mode_split(state, families["gaussian-pulse"])

    def printed_convention(engine_value, printed_fn) -> str:
        as_printed = printed_fn(info)
        quarter = printed_fn(info / 4.0)
        if abs(engine_value - quarter) / abs(quarter) < 1e-4:
            return "quarter"
        if abs(engine_value - as_printed) / abs(as_printed) < 1e-4:
            return "printed"
        return "neither"

    conventions = [
        printed_convention(f_beam[2, 2], lambda s: (mean_n + s) / zr**2),
        printed_convention(f_pulse[0, 0], lambda s: 4.0 * OMEGA0**2 * s),
        printed_convention(f_pulse[0, 2], lambda s: 4.0 * VARIANCE * s),
        printed_convention(
            f_pulse[2, 2],
            lambda s: 4.0 * VARIANCE**2 / OMEGA0**2 * (s + 2.0 * mean_n),
        ),
    ]
    consistent = len(set(conventions)) == 1 and conventions[0] != "neither"
    report(
        4,
        "single-mode, mode-split and mean-field routes agree",
        bool(worst < 1e-6 and consistent),
        f"max discrepancy={worst:.2e}; closed forms carry 4x on the "
        f"number-information coefficient (convention: {conventions[0]})",
    )


def test_criterion_05_thermal_probe(families):
    family = families["gaussian-pulse"]
    ok = True
    details = []
    for nbar in (0.5, 2.0):
        state = probe_state("thermal", nbar=nbar)
        f = qfim_mode_split(state, family)
        scale = np.max(np.abs(f))
        phase_ok = abs(f[0, 0]) < 1e-10 * scale and abs(f[0, 2]) < 1e-10 * scale
        expected = 4.0 * VARIANCE * nbar
        amp_ok = abs(f[1, 1] - expected) / expected < 1e-6

        # independent dense double-sum oracle for the populated-mode part
        # and the number-information quantity
        gens = build_generators(family)
        info_brute = brute_force_qfim(state, np.eye(1), np.eye(1))
        info_ok = abs(info_brute) < 1e-10 * max(scale, 1.0)
        pop_brute = brute_force_qfim(state, gens.matrices[0], gens.matrices[0])
        pop_ok = abs(qfim_unitary(state, gens)[0, 0] - pop_brute) < 1e-9 * scale
        ok = ok and phase_ok and amp_ok and info_ok and pop_ok
        details.append(f"nbar={nbar}: t_group entry {f[1, 1]:.6f} vs {expected}")
    report(5, "thermal probe: no phase information, shot-noise amplitude rows", bool(ok), "; ".join(details))


def test_criterion_06_pure_state_reductions():
    rng = np.random.default_rng(2024)
    space = FockSpace(n_modes=2, cutoff=3)
    worst_cov = 0.0
    worst_att = 0.0
    for _ in range(50):
        populated, derivatives = random_mode_parameter_data(rng, 2, 2)
        gens = family_from_modes(populated, derivatives, ["a", "b"]).generators
        state = random_density_state(rng, space, rank=1)
        vec = state.vectors[:, 0]

        f = qfim_unitary(state, gens)
        ops = [dense_quadratic(space, c) for c in gens.matrices]
        scale = max(np.max(np.abs(f)), 1.0)
        for a in range(2):
            for b in range(2):
                mean_a = np.real(vec.conj() @ (ops[a] @ vec))
                mean_b = np.real(vec.conj() @ (ops[b] @ vec))
                sym = 0.5 * np.real(
                    vec.conj() @ (ops[a] @ (ops[b] @ vec))
                    + vec.conj() @ (ops[b] @ (ops[a] @ vec))
                )
                expected = 4.0 * (sym - mean_a * mean_b)
                worst_cov = max(worst_cov, abs(f[a, b] - expected) / scale)

        mixed = attainability(state, gens).matrix
        pure = commutator_from_overlaps(gens.derivative_overlaps, first_moments(state))
        att_scale = max(np.max(np.abs(pure)), 1.0)
        worst_att = max(worst_att, np.max(np.abs(mixed - pure)) / att_scale)

    report(
        6,
        "rank-one states: covariance reduction and commutator reduction",
        bool(worst_cov < 1e-10 and worst_att < 1e-10),
        f"max cov residual={worst_cov:.2e}, max commutator residual={worst_att:.2e}",
    )


def test_criterion_07_finite_difference_derivatives(families):
    worst = 0.0
    for name, n_params in (("gaussian-beam", 6), ("gaussian-pulse", 3)):
        family = families[name]
        for a in range(n_params):
            analytic = derivative_mode(family, 0, a)
            fd = derivative_mode(finite_difference_family(family), 0, a)
            diff = Mode(family.grid, analytic.samples - fd.samples)
            worst = max(worst, mode_norm(diff) / mode_norm(analytic))
    report(
        7,
        "finite-difference derivative modes match the closed forms",
        bool(worst < 1e-6),
        f"max relative L2 error={worst:.2e}",
    )


def test_criterion_08_matrix_properties(families):
    worst_sym = 0.0
    worst_eig = 0.0
    worst_chain = np.inf
    for family in families.values():
        for spec in PROBE_GRID:
            state = probe_state(**spec)
            f = qfim_mode_split(state, family)
            scale = max(np.max(np.abs(f)), 1e-30)
            worst_sym = max(worst_sym, np.max(np.abs(f - f.T)) / scale)
            eigvals = np.linalg.eigvalsh((f + f.T) / 2.0)
            worst_eig = max(worst_eig, -eigvals.min() / scale)
            rep = crb_bounds(f, labels=family.parameters)
            finite = ~np.isnan(rep.penalty_ratios)
            if np.any(finite):
                worst_chain = min(worst_chain, np.min(rep.penalty_ratios[finite]))
    ok = worst_sym < 1e-10 and worst_eig < 1e-9 and worst_chain >= 1.0 - 1e-9
    report(
        8,
        "every produced matrix is symmetric, positive semidefinite, bound-chain consistent",
        bool(ok),
        f"sym={worst_sym:.2e}, min eig ratio={-worst_eig:.2e}, min penalty={worst_chain:.12f}",
    )


def test_criterion_09_readout_forward_model(families):
    grid = families["displaced-beam"].grid
    f0 = families["displaced-beam"].evaluate_mode(0)
    base_a = Mode(grid, hermite_gaussian_samples(grid, 1, 0, W0))
    rest = Mode(grid, hermite_gaussian_samples(grid, 2, 0, W0))
    w_a, w_b = 1.2, 0.8
    th_a, th_b = 0.04, 0.07
    n0 = 3.0
    worst = 0.0
    for overlap in (0.0, 0.5, 1j, 0.3 + 0.4j):
        d = complex(overlap)
        comp = math.sqrt(1.0 - abs(d) ** 2)
        tilde_b = Mode(grid, d * base_a.samples + comp * rest.samples)
        det_a = DetectionMode(mode=base_a, weight=w_a, label="a")
        det_b = DetectionMode(mode=tilde_b, weight=w_b, label="b")
        predicted = gram_schmidt_readout(th_a, th_b, det_a, det_b, n0)

        field = Mode(
            grid,
            math.sqrt(n0)
            * (
                f0.samples
                + th_a * w_a * (-1j) * base_a.samples
                + th_b * w_b * (-1j) * tilde_b.samples
            ),
        )
        first = Mode(grid, -1j * base_a.samples)
        amp1 = 2.0 * inner_product(first, field)
        worst = max(worst, abs(predicted.q_first - amp1.real))
        worst = max(worst, abs(predicted.p_first - amp1.imag))
        if abs(d) < 1.0:
            second_dir = Mode(grid, -1j * (tilde_b.samples - d * base_a.samples) / comp)
            amp2 = 2.0 * inner_product(second_dir, field)
            worst = max(worst, abs(predicted.q_second - amp2.real))
        else:
            worst = max(worst, abs(predicted.q_second))

    # at a purely imaginary overlap the second signal sits entirely in the
    # conjugate quadrature of the first readout mode
    at_i = readout_means(th_a * w_a, th_b * w_b, 1j, n0)
    at_i_other = readout_means(th_a * w_a, 5.0 * th_b * w_b, 1j, n0)
    quadrature_split = (
        at_i.q_first == at_i_other.q_first
        and at_i.p_first == pytest.approx(2.0 * math.sqrt(n0) * th_b * w_b)
        and at_i_other.p_first == pytest.approx(10.0 * math.sqrt(n0) * th_b * w_b)
    )
    report(
        9,
        "orthogonalized readout reproduces the mode-expansion means",
        bool(worst < 1e-10 and quadrature_split),
        f"max residual={worst:.2e}",
    )


def test_criterion_10_determinism(families, tmp_path):
    argv = [
        sys.executable,
        "-m",
        "modal_qcrb",
        "qfim",
        "--family",
        "gaussian-beam",
        "--geometry",
        json.dumps({"w0": W0, "k": K}),
        "--state",
        '{"kind": "coherent", "nbar": 1.0}',
    ]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        result = subprocess.run(argv + ["--out", str(out)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("report.json", "qfim.csv", "qfim_inverse.csv")
    )

    state = probe_state("coherent", nbar=1.0)
    coarse = np.diag(qfim_mode_split(state, families["gaussian-beam"]))
    fine_family = gaussian_beam_family(BeamGeometry(W0, K), points=512)
    fine = np.diag(qfim_mode_split(state, fine_family))
    drift = np.max(np.abs(coarse - fine) / np.abs(fine))
    report(
        10,
        "byte-identical reruns; grid doubling leaves values unchanged",
        bool(identical and drift < 1e-6),
        f"grid drift={drift:.2e}",
    )
