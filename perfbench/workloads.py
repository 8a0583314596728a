"""The benchmark's workloads: seeded configs, one call each, output checks.

Each workload turns a seed into a fixed list of configs, its cycle.  The
strata of a cycle (grid size, state kind, Fock dimension, derivative
method, ...) are fixed, so the work per cycle is the same for every seed;
the seed draws the values inside each stratum and fixes the order in
which the cycle runs.  ``configs[0]`` is the workload's cheapest config
and serves as the cold first call of every fresh interpreter.

A workload calls modal_qcrb only through its public entry points:
``modal_qcrb.cli.main(argv)`` for ``beam-grid`` and the package-level
library API for ``multimode-mixed``.  Names are looked up on the modules
at call time, so the spans that ``tracing`` installs see every call.

This module imports modal_qcrb at the top; the worker imports it only
after it has timed the package's own cold import.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import modal_qcrb as mq
from modal_qcrb import cli

# Acceptance-suite tolerances.  They are fixed here, not read from the
# package, so that a change to the program cannot loosen its own checks.
BEAM_ORACLE_RTOL, BEAM_ORACLE_ATOL = 1e-4, 1e-8  # criterion 1
TAU_PSD = 1e-9  # criterion 8 and modal_qcrb.tolerances.TAU_PSD
COMMUTATOR_RTOL = 1e-10  # criterion 6


@dataclass
class Config:
    """One generated input.  ``spec`` is JSON and goes into the result."""

    id: str
    spec: dict


@dataclass
class Output:
    """What one call left behind, read after the timed region."""

    files: dict[str, str]  # file name -> sha256 (library calls: one entry)
    nbytes: int
    data: object = None  # parsed outputs, kept only when checks need them

    @property
    def digest(self) -> str:
        joined = "".join(f"{name}:{sha}\n" for name, sha in sorted(self.files.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


@dataclass
class Workload:
    """Base class: a seeded cycle of configs and how to run and check one."""

    seed: int
    workdir: Path
    configs: list[Config] = field(init=False)
    order: list[int] = field(init=False)

    name = ""
    why = ""
    notes = ""

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.configs = self.make_configs()
        self.order = [int(i) for i in self.rng.permutation(len(self.configs))]
        self.diagnostics: dict[str, object] = {}
        self._prepared: dict[str, object] = {}

    def make_configs(self) -> list[Config]:
        raise NotImplementedError

    def prepare(self, cfg: Config):
        """Inputs for one call, built once per config outside the timed region."""
        if cfg.id not in self._prepared:
            self._prepared[cfg.id] = self._prepare(cfg)
        return self._prepared[cfg.id]

    def _prepare(self, cfg: Config):
        raise NotImplementedError

    def call(self, prepared):
        raise NotImplementedError

    def outcome_error(self, outcome, stderr: str) -> str | None:
        return None

    def collect(self, cfg: Config, outcome, parse: bool) -> Output:
        raise NotImplementedError

    def check(self, cfg: Config, output: Output) -> list[str]:
        return []

    def cross_check(self, outputs: dict[str, Output]) -> dict[str, list[str]]:
        return {}


# ---------------------------------------------------------------------------
# Photon statistics and oracles


def photon_statistics(state: dict) -> tuple[float, float]:
    """Closed-form <N> and number information I_N = 4 Var N of a light probe.

    These are the two numbers a one-mode information matrix depends on
    (Gessner, Treps & Fabre, Optica 10, 996 (2023)): coherent states carry
    I_N = 4 nbar, thermal states none.
    """
    nbar = state["nbar"]
    return nbar, (4.0 * nbar if state["kind"] == "coherent" else 0.0)


def oracle_mismatch(conf: dict, matrix: np.ndarray) -> str | None:
    """Compare a CLI beam information matrix with the family's closed form."""
    family = mq.build_family(conf["family"], conf["geometry"], points=conf["grid_points"])
    oracle = np.asarray(family.oracle_qfim(*photon_statistics(conf["state"])), dtype=float)
    if matrix.shape != oracle.shape:
        return f"information matrix has shape {matrix.shape}, the oracle {oracle.shape}"
    scale = max(float(np.max(np.abs(oracle))), 1e-300)
    diff = np.abs(matrix - oracle)
    if np.any(diff > BEAM_ORACLE_RTOL * np.abs(oracle) + BEAM_ORACLE_ATOL * scale):
        return f"information matrix differs from the oracle by {np.max(diff):.3e} (scale {scale:.3e})"
    return None


# ---------------------------------------------------------------------------
# CLI workload


class BeamGrid(Workload):
    """Runs ``cli.main(["qfim", "--config", file, "--out", dir])``.

    Every output file is digested and deleted after the call;
    ``report.json`` is parsed when the call's output is to be checked.
    """

    name = "beam-grid"
    why = (
        "qfim on 256^2-512^2 beam grids, one call in four by finite differences: "
        "mode evaluation and overlaps dominate and states is negligible"
    )
    notes = (
        "w0 in [0.5, 2], k in [5, 40]: k*w0 in [2.5, 80], the README and test regime. "
        "The finite-difference step defect reaches its known size only at k*w0 >~ 1e4; "
        "a small form shows on gaussian-beam-carrier (see diagnostics)"
    )

    def __post_init__(self):
        super().__post_init__()
        self.outdir = self.workdir / "out"
        (self.workdir / "configs").mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def _prepare(self, cfg: Config):
        path = self.workdir / "configs" / f"{cfg.id}.json"
        path.write_text(json.dumps(cfg.spec["config"], sort_keys=True))
        return [cfg.spec["command"], "--config", str(path), "--out", str(self.outdir)]

    def call(self, argv):
        return cli.main(argv)

    def outcome_error(self, outcome, stderr: str) -> str | None:
        if outcome != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {outcome}: {last[0]}"
        return None

    def collect(self, cfg: Config, outcome, parse: bool) -> Output:
        files, nbytes, data = {}, 0, None
        for path in sorted(self.outdir.iterdir()):
            with path.open("rb") as fh:
                files[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
            nbytes += path.stat().st_size
            if parse and path.name == "report.json":
                data = json.loads(path.read_text())
        shutil.rmtree(self.outdir)
        self.outdir.mkdir()
        return Output(files=files, nbytes=nbytes, data=data)

    def check(self, cfg: Config, output: Output) -> list[str]:
        if output.data is None:
            return ["report.json was not written"]
        conf = cfg.spec["config"]
        if conf.get("derivative_method") == "finite-difference":
            return []  # checked against its analytic twin in cross_check
        reason = oracle_mismatch(conf, np.asarray(output.data["qfim"]["matrix"], dtype=float))
        return [reason] if reason else []


    # (grid points, family, state, with a finite-difference twin): 256^2
    # carries the cheap calls and the twins, 512^2 the largest meshes
    plan = (
        (256, "gaussian-beam", "coherent", True),
        (256, "gaussian-beam", "thermal", True),
        (256, "gaussian-beam", "coherent", False),
        (256, "gaussian-beam-carrier", "coherent", True),
        (256, "gaussian-beam-carrier", "thermal", True),
        (256, "gaussian-beam-carrier", "coherent", False),
        (384, "gaussian-beam", "coherent", False),
        (384, "gaussian-beam", "thermal", False),
        (384, "gaussian-beam-carrier", "coherent", False),
        (384, "gaussian-beam-carrier", "thermal", False),
        (512, "gaussian-beam", "coherent", False),
        (512, "gaussian-beam-carrier", "thermal", False),
    )

    def make_configs(self) -> list[Config]:
        rng = self.rng
        configs, twins = [], []
        for i, (points, family, kind, with_fd) in enumerate(self.plan):
            # light probes: coherent nbar in [0.5, 4], thermal nbar in [0.1, 1]
            nbar = rng.uniform(0.5, 4.0) if kind == "coherent" else rng.uniform(0.1, 1.0)
            conf = {
                "family": family,
                "geometry": {"w0": float(rng.uniform(0.5, 2.0)), "k": float(rng.uniform(5.0, 40.0))},
                "state": {"kind": kind, "nbar": float(nbar)},
                "grid_points": points,
            }
            cfg = Config(f"{family}-{points}-{i}", {"command": "qfim", "config": conf})
            configs.append(cfg)
            if with_fd:
                fd_conf = dict(conf, derivative_method="finite-difference")
                twins.append(
                    Config(f"{cfg.id}-fd", {"command": "qfim", "config": fd_conf, "twin": cfg.id})
                )
        return configs + twins

    def cross_check(self, outputs: dict[str, Output]) -> dict[str, list[str]]:
        """Finite-difference matrices against their analytic twins.

        Both are the beam information matrix by two routes, so they are held
        to the acceptance suite's beam-matrix tolerance.  The largest
        relative difference goes into the result as a diagnostic.
        """
        failures = {}
        for cfg in self.configs:
            twin = cfg.spec.get("twin")
            fd_out, twin_out = outputs.get(cfg.id), outputs.get(twin)
            if None in (fd_out, twin_out) or None in (fd_out.data, twin_out.data):
                continue
            fd = np.asarray(fd_out.data["qfim"]["matrix"], dtype=float)
            analytic = np.asarray(twin_out.data["qfim"]["matrix"], dtype=float)
            scale = float(np.max(np.abs(analytic)))
            diff = np.abs(fd - analytic)
            self.diagnostics.setdefault("fd_max_relative_difference", {})[cfg.id] = float(np.max(diff)) / scale
            if np.any(diff > BEAM_ORACLE_RTOL * np.abs(analytic) + BEAM_ORACLE_ATOL * scale):
                failures[cfg.id] = [
                    f"finite-difference matrix differs from {twin} by {np.max(diff):.3e} (scale {scale:.3e})"
                ]
        return failures


# ---------------------------------------------------------------------------
# Library workload


def _trapezoid(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


def random_mode_data(rng, n_params: int, n_modes: int, points: int = 161):
    """Orthonormal populated modes and norm-preserving derivative modes.

    The same construction as ``random_mode_parameter_data`` in the test
    suite, in plain numpy: the populated-span coefficients (f_j | d_a f_k)
    are anti-Hermitian, and each derivative adds a random component
    orthogonal to the populated span.
    """
    x = np.linspace(-5.0, 5.0, points)
    w = _trapezoid(x)

    def dot(a, b):
        return np.sum(w * np.conj(a) * b)

    def profile():
        coeff = rng.normal(size=5) + 1j * rng.normal(size=5)
        return sum(c * x**p for p, c in enumerate(coeff)) * np.exp(-(x**2) / 2.0)

    populated = []
    for _ in range(n_modes):
        v = profile()
        for _ in range(2):
            for q in populated:
                v = v - dot(q, v) * q
        populated.append(v / np.sqrt(dot(v, v).real))

    derivatives = np.empty((n_params, n_modes, points), dtype=complex)
    for a in range(n_params):
        raw = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
        span = (raw - raw.conj().T) / 2.0
        for k in range(n_modes):
            extra = profile()
            d = extra - sum(dot(q, extra) * q for q in populated)
            d = d + sum(span[j, k] * populated[j] for j in range(n_modes))
            derivatives[a, k] = d
    return x, w, np.array(populated), derivatives


def random_density_state(rng, n_modes: int, levels: int, rank: int):
    """Random eigen-decomposed state with no support at the cutoff level."""
    dims = (levels,) * n_modes
    occupations = np.unravel_index(np.arange(levels**n_modes), dims)
    interior = np.ones(levels**n_modes, dtype=bool)
    for occ in occupations:
        interior &= occ < levels - 1
    raw = rng.normal(size=(levels**n_modes, rank)) + 1j * rng.normal(size=(levels**n_modes, rank))
    raw[~interior] = 0.0
    q, _ = np.linalg.qr(raw)
    if rank == 1:
        probs = np.array([1.0])
    else:
        probs = rng.uniform(0.1, 1.0, size=rank)
        probs /= probs.sum()
    return probs, q[:, :rank]


def pure_state_commutator(overlaps: np.ndarray, vector: np.ndarray, n_modes: int, levels: int):
    """2 Im sum_jl (d_a f_j | d_b f_l) <a_j^dagger a_l> for a pure state.

    The moments come from ladder actions on the state tensor, independent
    of modal_qcrb's operators.
    """
    psi = vector.reshape((levels,) * n_modes)
    lowered = []
    for mode in range(n_modes):
        moved = np.moveaxis(psi, mode, 0)
        out = np.zeros_like(moved)
        out[:-1] = np.sqrt(np.arange(1, levels))[(slice(None),) + (None,) * (n_modes - 1)] * moved[1:]
        lowered.append(np.moveaxis(out, 0, mode).ravel())
    moments = np.array([[np.vdot(lowered[j], lowered[l]) for l in range(n_modes)] for j in range(n_modes)])
    n_p = overlaps.shape[0]
    u = np.zeros((n_p, n_p))
    for a in range(n_p):
        for b in range(a + 1, n_p):
            u[a, b] = 2.0 * np.sum(overlaps[a, b] * moments).imag
            u[b, a] = -u[a, b]
    return u


@dataclass
class MultimodeInput:
    family: object
    n_modes: int
    levels: int
    probabilities: np.ndarray
    vectors: np.ndarray
    overlaps: np.ndarray  # (d_a f_j | d_b f_l), the oracle's input


class MultimodeMixed(Workload):
    name = "multimode-mixed"
    why = (
        "library route with 2-3 populated modes and mixed states of Fock dimension "
        "100-1331: the general mixed-state formula and sparse ladder algebra in states"
    )

    levels = {2: (10, 20, 36), 3: (5, 8, 11)}  # Fock dimensions 100-1331
    # (dimension level, rank) per (M, P); rank one feeds the commutator check
    shapes = ((0, 2), (1, 4), (2, 8), (2, 1))

    def make_configs(self) -> list[Config]:
        configs = []
        for m in (2, 3):
            for p in (3, 4):
                for level, rank in self.shapes:
                    levels = self.levels[m][level]
                    spec = {
                        "n_modes": m,
                        "n_params": p,
                        "cutoff": levels - 1,
                        "fock_dimension": levels**m,
                        "rank": rank,
                        "grid_points": 161,
                        "seed": int(self.rng.integers(2**31)),
                    }
                    configs.append(Config(f"m{m}-p{p}-d{levels**m}-r{rank}", spec))
        return configs

    def _prepare(self, cfg: Config) -> MultimodeInput:
        spec = cfg.spec
        rng = np.random.default_rng(spec["seed"])
        m, p, levels = spec["n_modes"], spec["n_params"], spec["cutoff"] + 1
        x, w, populated, derivatives = random_mode_data(rng, p, m, spec["grid_points"])
        probs, vectors = random_density_state(rng, m, levels, spec["rank"])
        grid = mq.SampleGrid.uniform(x)

        def mode_fn(k, theta):
            return populated[k] + np.tensordot(theta, derivatives[:, k], axes=1)

        family = mq.ParameterFamily(
            name=cfg.id,
            parameters=tuple(f"theta_{a}" for a in range(p)),
            units=("1",) * p,
            grid=grid,
            theta_scales=np.ones(p),
            mode_fn=mode_fn,
            derivative_fn=lambda k, a: derivatives[a, k],
            n_modes=m,
        )
        overlaps = np.einsum("x,ajx,blx->abjl", w, derivatives.conj(), derivatives)
        return MultimodeInput(family, m, levels, probs, vectors, overlaps)

    def call(self, inp: MultimodeInput):
        state = mq.make_state(
            "custom",
            mq.FockSpace(inp.n_modes, inp.levels - 1),
            probabilities=inp.probabilities,
            vectors=inp.vectors,
        )
        generators = mq.build_generators(inp.family)
        qfim = mq.qfim_mode_split(state, inp.family)
        att = mq.attainability(state, generators)
        bounds = mq.crb_bounds(
            qfim,
            1,
            inp.family.parameters,
            attainability_result=att,
            weights=generators.total_weights(),
        )
        return qfim, att.matrix, bounds

    def collect(self, cfg: Config, outcome, parse: bool) -> Output:
        if outcome is None:
            return Output(files={}, nbytes=0)
        qfim, commutator, bounds = outcome
        arrays = (
            qfim,
            commutator,
            bounds.pseudo_inverse,
            bounds.multiparameter_bounds,
            bounds.single_parameter_bounds,
        )
        h = hashlib.sha256()
        for arr in arrays:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return Output(files={"result": h.hexdigest()}, nbytes=0, data=outcome if parse else None)

    def check(self, cfg: Config, output: Output) -> list[str]:
        if output.data is None:
            return ["no result"]
        qfim, commutator, _ = output.data
        reasons = []
        scale = float(np.max(np.abs(qfim)))
        asym = float(np.max(np.abs(qfim - qfim.T)))
        if asym > TAU_PSD * scale:
            reasons.append(f"information matrix asymmetry {asym:.3e} (scale {scale:.3e})")
        eig = np.linalg.eigvalsh((qfim + qfim.T) / 2.0)
        if eig.min() < -TAU_PSD * max(float(np.max(np.abs(eig))), 1e-300):
            reasons.append(f"information matrix min eigenvalue {eig.min():.3e}")
        if cfg.spec["rank"] == 1:
            inp = self.prepare(cfg)
            pure = pure_state_commutator(inp.overlaps, inp.vectors[:, 0], inp.n_modes, inp.levels)
            worst = float(np.max(np.abs(commutator - pure)))
            if worst > COMMUTATOR_RTOL * max(float(np.max(np.abs(pure))), 1.0):
                reasons.append(f"attainability matrix differs from the pure-state commutator by {worst:.3e}")
        return reasons


WORKLOADS = {wl.name: wl for wl in (BeamGrid, MultimodeMixed)}
