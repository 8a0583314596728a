"""Configuration-driven command-line front end.

Subcommands: ``qfim``, ``attainability``, ``detection-modes``,
``list-families``.  Every run reads a JSON config (flags override file
values), writes machine-readable reports with full provenance, and is
deterministic: identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 engine/numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .engine import (
    QfimReport,
    attainability,
    attainability_single_mode,
    build_generators,
    crb_bounds,
    detection_modes_for,
    qfim_mode_split,
)
from .errors import ConfigError, ModalQcrbError
from .families import FAMILY_REGISTRY, build_family
from .modes import gram_schmidt, overlap_table
from .states import state_from_spec
from . import tolerances


class _StateField(NamedTuple):
    """One numeric field of a state spec."""

    description: str
    minimum: float | None = None
    integer: bool = False
    required: bool = True


# state kind -> the fields its spec accepts; every value is a finite JSON number
_STATE_KINDS: dict[str, dict[str, _StateField]] = {
    "coherent": {"nbar": _StateField("mean photon number", minimum=0.0)},
    "fock": {"n": _StateField("photon number", minimum=0, integer=True)},
    "thermal": {"nbar": _StateField("mean photon number", minimum=0.0)},
    "squeezed-vacuum": {
        "r": _StateField("squeezing parameter"),
        "phi": _StateField("squeezing angle (rad)", required=False),
    },
}

_CONVENTIONS = {
    "quadrature": "q = a + a_dagger, vacuum variance 1",
    "detection_mode_phase": "derivative mode rotated by i and normalized",
    "single_mode_first_term": "overlap product times number information, no extra scale",
    "inner_product": "conjugate-linear in the first argument",
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["family", "state", "qfim", "bounds", "attainability", "detection_modes", "provenance"],
    "properties": {
        "family": {
            "type": "object",
            "required": ["name", "parameters", "units", "geometry", "grid"],
            "properties": {
                "name": {"type": "string"},
                "parameters": {"type": "array", "items": {"type": "string"}},
                "units": {"type": "array", "items": {"type": "string"}},
                "geometry": {"type": "object"},
                "grid": {"type": "object"},
            },
        },
        "state": {"type": "object", "required": ["kind"]},
        "qfim": {
            "type": "object",
            "required": ["labels", "matrix", "pseudo_inverse"],
            "properties": {
                "labels": {"type": "array", "items": {"type": "string"}},
                "matrix": {"type": "array"},
                "pseudo_inverse": {"type": "array"},
            },
        },
        "bounds": {
            "type": "object",
            "required": [
                "repetitions",
                "multiparameter",
                "single_parameter",
                "penalty_ratio",
                "degenerate_parameters",
            ],
        },
        "attainability": {
            "type": "object",
            "required": ["attainable", "commutator_matrix", "pairs"],
        },
        "detection_modes": {
            "type": "object",
            "required": ["labels", "weights", "degenerate"],
        },
        "provenance": {
            "type": "object",
            "required": ["engine_version", "tolerances", "conventions", "grid", "fock_cutoff"],
        },
    },
}


def _integer(name: str, value) -> int:
    """A config value that must be a whole number; 2.0 passes, 2.5 does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    return int(value)


def _validate_state(state) -> None:
    """Check a state spec against the field schema of its kind."""
    if not isinstance(state, dict):
        raise ConfigError("state: must be an object")
    if "kind" not in state:
        raise ConfigError('state: required object with a "kind" field')
    kind = state["kind"]
    if not isinstance(kind, str) or kind not in _STATE_KINDS:
        raise ConfigError(f"state.kind: unknown {kind!r}; supported: " + ", ".join(_STATE_KINDS))
    fields = _STATE_KINDS[kind]
    for key in state:
        if key != "kind" and key not in fields:
            raise ConfigError(
                f"state.{key}: unknown field for kind '{kind}'; accepted: " + ", ".join(fields)
            )
    for key, spec in fields.items():
        name = f"state.{key}"
        if key not in state:
            if spec.required:
                raise ConfigError(f"{name}: required for kind '{kind}' ({spec.description})")
            continue
        value = state[key]
        if spec.integer:
            value = _integer(name, value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: must be a number, got {value!r}")
        elif not np.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value!r}")
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigError(f"{name}: must be at least {spec.minimum:g}, got {value!r}")


@dataclass
class RunConfig:
    """Resolved run configuration (file values merged with flag overrides)."""

    family: str
    geometry: dict
    state: dict
    out: Path
    grid_points: int | None = None
    fock_cutoff: int | None = None
    fd_step: float | None = None
    derivative_method: str = "analytic"
    repetitions: int = 1

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        raw: dict = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.is_file():
                raise ConfigError(f"config: file '{path}' not found")
            try:
                raw = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise ConfigError("config: top level must be a JSON object")

        def pick(flag, key, default=None):
            value = getattr(args, flag, None)
            return value if value is not None else raw.get(key, default)

        family = pick("family", "family")
        if not family:
            raise ConfigError("family: required (flag --family or config key)")
        if family not in FAMILY_REGISTRY:
            known = ", ".join(sorted(FAMILY_REGISTRY))
            raise ConfigError(f"family: unknown '{family}'; known families: {known}")

        state = raw.get("state", {})
        if getattr(args, "state", None) is not None:
            try:
                state = json.loads(args.state)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"state: invalid JSON ({exc})") from exc
        _validate_state(state)

        geometry = raw.get("geometry", {})
        if getattr(args, "geometry", None) is not None:
            try:
                geometry = json.loads(args.geometry)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"geometry: invalid JSON ({exc})") from exc
        if not isinstance(geometry, dict):
            raise ConfigError("geometry: must be an object")
        schema = FAMILY_REGISTRY[family]["geometry"]
        for key in schema:
            if key not in geometry:
                raise ConfigError(f"geometry.{key}: required for family '{family}'")
            try:
                value = float(geometry[key])
            except (TypeError, ValueError):
                raise ConfigError(f"geometry.{key}: must be a number")
            if not np.isfinite(value) or value <= 0:
                raise ConfigError(f"geometry.{key}: must be finite and positive")

        out = pick("out", "out", "qcrb-report")
        grid_points = pick("grid_points", "grid_points")
        if grid_points is not None:
            grid_points = _integer("grid_points", grid_points)
            if grid_points < 8:
                raise ConfigError("grid_points: must be at least 8")
        fock_cutoff = pick("fock_cutoff", "fock_cutoff")
        if fock_cutoff is not None:
            fock_cutoff = _integer("fock_cutoff", fock_cutoff)
            if fock_cutoff < 1:
                raise ConfigError("fock_cutoff: must be at least 1")
        fd_step = pick("fd_step", "fd_step")
        if fd_step is not None:
            fd_step = float(fd_step)
            if not np.isfinite(fd_step) or fd_step <= 0:
                raise ConfigError("fd_step: must be finite and positive")
        method = raw.get("derivative_method", "analytic")
        if fd_step is not None:
            method = "finite-difference"
        if method not in ("analytic", "finite-difference"):
            raise ConfigError("derivative_method: 'analytic' or 'finite-difference'")
        repetitions = _integer("repetitions", pick("repetitions", "repetitions", 1))
        if repetitions < 1:
            raise ConfigError("repetitions: must be at least 1")

        return cls(
            family=family,
            geometry=dict(geometry),
            state=dict(state),
            out=Path(out),
            grid_points=grid_points,
            fock_cutoff=fock_cutoff,
            fd_step=fd_step,
            derivative_method=method,
            repetitions=repetitions,
        )


# ---------------------------------------------------------------------------
# Serialization helpers


def _fmt(value: float) -> str:
    """17 significant digits: lossless double round-trip, locale-free."""
    return f"{value:.17g}"


def _csv_rows(columns: np.ndarray) -> list[str]:
    """One CSV line per row of a 2-D float array, each value as in :func:`_fmt`."""
    columns = np.atleast_2d(np.asarray(columns, dtype=float))
    line = ",".join(["%.17g"] * columns.shape[1])
    return [line % tuple(row) for row in columns.tolist()]


def _matrix_rows(matrix: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(matrix)]


def _vector(values) -> list:
    return [None if (isinstance(v, float) and not np.isfinite(v)) else float(v) for v in np.atleast_1d(values)]


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_matrix_csv(path: Path, labels, matrix: np.ndarray) -> None:
    lines = [",".join(labels)] + _csv_rows(matrix)
    _write_atomic(path, "\n".join(lines) + "\n")


@dataclass
class ReportBundle:
    """All artifacts of one run, serializable losslessly to JSON."""

    report: dict

    def to_json(self) -> str:
        return json.dumps(self.report, indent=2, sort_keys=False, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ReportBundle":
        return cls(report=json.loads(text))


# ---------------------------------------------------------------------------
# Pipeline


def _build_case(config: RunConfig):
    grid_options = {}
    if config.grid_points is not None:
        grid_options["points"] = config.grid_points
    family = build_family(config.family, config.geometry, **grid_options)
    state = state_from_spec(config.state, cutoff=config.fock_cutoff)
    return family, state


@dataclass(frozen=True)
class RunResult:
    """The serializable report of one run and the bounds it was made from."""

    bundle: ReportBundle
    bounds: QfimReport


def _assemble_report(config: RunConfig) -> RunResult:
    family, state = _build_case(config)
    method = config.derivative_method
    step = config.fd_step

    # one overlap table per run; every mode quantity below is a slice of it
    table = overlap_table(family, method=method, step=step)
    generators = build_generators(family, table=table)
    qfim = qfim_mode_split(state, family, table=table)
    att = attainability(state, generators)
    single = attainability_single_mode(family, table=table)
    weights = generators.total_weights()
    report = crb_bounds(
        qfim,
        config.repetitions,
        family.parameters,
        attainability_result=att,
        single_mode_result=single,
        weights=weights,
    )

    labels = list(family.parameters)
    pairs = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            pairs.append(
                {
                    "param_a": labels[a],
                    "param_b": labels[b],
                    "im_overlap": float(single.imaginary_overlaps[a, b]),
                    "normalized_im_overlap": float(single.normalized[a, b]),
                    "commutator_expectation": float(att.matrix[a, b]),
                    "attainable": bool(att.pair_attainable[a, b]),
                }
            )

    grid_meta = {
        "shape": list(family.grid.shape),
        "axis_ranges": [[float(ax[0]), float(ax[-1])] for ax in family.grid.axes],
    }
    degenerate_flags = [bool(w == 0.0) for w in weights]
    doc = {
        "family": {
            "name": family.name,
            "parameters": labels,
            "units": list(family.units),
            "geometry": {k: float(v) for k, v in config.geometry.items()},
            "grid": grid_meta,
        },
        "state": dict(config.state) | {"fock_cutoff": int(state.space.cutoff)},
        "qfim": {
            "labels": labels,
            "matrix": _matrix_rows(report.qfim),
            "pseudo_inverse": _matrix_rows(report.pseudo_inverse),
        },
        "bounds": {
            "repetitions": report.repetitions,
            "multiparameter": _vector(report.multiparameter_bounds),
            "single_parameter": _vector(report.single_parameter_bounds),
            "penalty_ratio": _vector(report.penalty_ratios),
            "degenerate_parameters": list(report.degenerate_parameters),
        },
        "attainability": {
            "attainable": att.attainable,
            "commutator_matrix": _matrix_rows(att.matrix),
            "real_residual": float(att.real_residual),
            "pairs": pairs,
            "single_mode": {
                "imaginary_overlaps": _matrix_rows(single.imaginary_overlaps),
                "normalized": _matrix_rows(single.normalized),
            },
        },
        "detection_modes": {
            "labels": labels,
            "weights": _vector(weights),
            "degenerate": degenerate_flags,
        },
        "provenance": {
            "engine_version": __version__,
            "tolerances": tolerances.as_dict(),
            "conventions": dict(_CONVENTIONS),
            "grid": grid_meta,
            "fock_cutoff": int(state.space.cutoff),
            "derivative_method": method,
            "fd_step": step,
        },
    }
    return RunResult(bundle=ReportBundle(report=doc), bounds=report)


def run_qfim(config: RunConfig) -> ReportBundle:
    """Compute the information matrix and write report.json plus CSVs."""
    result = _assemble_report(config)
    bundle, bounds = result.bundle, result.bounds
    labels = bundle.report["qfim"]["labels"]
    out = config.out
    _write_atomic(out / "report.json", bundle.to_json() + "\n")
    _write_matrix_csv(out / "qfim.csv", labels, bounds.qfim)
    _write_matrix_csv(out / "qfim_inverse.csv", labels, bounds.pseudo_inverse)
    return bundle


def run_attainability(config: RunConfig) -> ReportBundle:
    """Write the per-pair attainability table."""
    bundle = _assemble_report(config).bundle
    rows = [
        "param_a,param_b,Im_overlap,normalized_Im_overlap,commutator_expectation,attainable_flag"
    ]
    for pair in bundle.report["attainability"]["pairs"]:
        rows.append(
            ",".join(
                [
                    pair["param_a"],
                    pair["param_b"],
                    _fmt(pair["im_overlap"]),
                    _fmt(pair["normalized_im_overlap"]),
                    _fmt(pair["commutator_expectation"]),
                    str(pair["attainable"]).lower(),
                ]
            )
        )
    _write_atomic(config.out / "attainability.csv", "\n".join(rows) + "\n")
    return bundle


def export_detection_modes(config: RunConfig) -> ReportBundle:
    """Write per-parameter detection-mode samples and the readout basis."""
    family, _ = _build_case(config)
    return export_detection_modes_for(
        family,
        config.out,
        method=config.derivative_method,
        step=config.fd_step,
    )


def export_detection_modes_for(family, out: Path, *, method="analytic", step=None) -> ReportBundle:
    detections = detection_modes_for(family, method=method, step=step)
    live = [d for d in detections if not d.degenerate]
    gs = None
    if live:
        gs = gram_schmidt([d.mode for d in live], on_dependent="drop")

    # map each live detection mode to its readout-basis row, if kept
    readout_samples: dict[str, np.ndarray] = {}
    pivot_by_label: dict[str, float] = {}
    dependent_labels: list[str] = []
    if gs is not None:
        kept = [i for i in range(len(live)) if i not in gs.dependent_indices]
        for row, idx in enumerate(kept):
            readout_samples[live[idx].label] = gs.basis.modes[row].samples
        for i in gs.dependent_indices:
            dependent_labels.append(live[i].label)
        for i, det in enumerate(live):
            pivot_by_label[det.label] = float(gs.pivot_norms[i])

    coords = family.grid.mesh()
    coord_names = ["x", "y"] if family.grid.ndim == 2 else ["omega"]
    flat_coords = [c.ravel() for c in coords]

    for det in detections:
        header = coord_names + ["detection_re", "detection_im", "readout_re", "readout_im"]
        lines = [",".join(header)]
        if not det.degenerate:
            samples = det.mode.samples.ravel()
            readout = readout_samples.get(det.label)
            readout_flat = (
                readout.ravel() if readout is not None else np.zeros_like(samples)
            )
            columns = flat_coords + [
                samples.real,
                samples.imag,
                readout_flat.real,
                readout_flat.imag,
            ]
            lines += _csv_rows(np.column_stack(columns))
        _write_atomic(out / f"modes_{det.label}.csv", "\n".join(lines) + "\n")

    sidecar = {
        "family": family.name,
        "labels": [d.label for d in detections],
        "weights": [float(d.weight) for d in detections],
        "degenerate": [bool(d.degenerate) for d in detections],
        "readout_basis": {
            "kept": sorted(readout_samples),
            "dependent_on_predecessors": dependent_labels,
            "pivot_norms": pivot_by_label,
            "note": "pivot norm sqrt(1 - |overlap|^2) goes to 0 as detection modes "
            "become proportional; dependent modes carry no independent readout",
        },
    }
    bundle = ReportBundle(report=sidecar)
    _write_atomic(out / "detection_modes.json", bundle.to_json() + "\n")
    return bundle


# ---------------------------------------------------------------------------
# Entry point


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--family", help="family name (overrides config)")
    parser.add_argument("--geometry", help='geometry JSON, e.g. {"w0":1.0,"k":10.0}')
    parser.add_argument("--state", help='state spec JSON, e.g. {"kind":"thermal","nbar":1.0}')
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--grid-points", dest="grid_points", type=int, help="grid points per axis")
    parser.add_argument("--fock-cutoff", dest="fock_cutoff", type=int, help="per-mode photon cutoff")
    parser.add_argument(
        "--fd-step",
        dest="fd_step",
        type=float,
        help="finite-difference step (selects the finite-difference derivative path)",
    )
    parser.add_argument("--repetitions", type=int, help="measurement repetitions M")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modal-qcrb",
        description="Information matrices and Cramer-Rao bounds for mode-encoded parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("qfim", "compute the information matrix and bounds"),
        ("attainability", "compute the per-pair attainability table"),
        ("detection-modes", "export detection-mode samples and the readout basis"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_run_flags(p)
    sub.add_parser("list-families", help="print the family registry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-families":
        listing = {
            name: {k: v for k, v in entry.items() if k != "build"}
            for name, entry in sorted(FAMILY_REGISTRY.items())
        }
        print(json.dumps(listing, indent=2))
        return 0
    try:
        config = RunConfig.from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "qfim":
            run_qfim(config)
        elif args.command == "attainability":
            run_attainability(config)
        else:
            export_detection_modes(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModalQcrbError as exc:
        print(f"{args.command} failed in {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
