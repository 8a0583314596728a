"""Configuration-driven command-line front end.

Subcommands: ``qfim``, ``attainability``, ``detection-modes``,
``list-families``.  Every run reads a JSON config (flags override file
values), writes machine-readable reports with full provenance, and is
deterministic: identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 engine/numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    QfimReport,
    SingleModeAttainability,
    _readout_basis,
    _weight_floors,
    attainability_single_mode,
    crb_bounds,
    detection_modes_for,
    qfim_single_mode,
)
from .errors import ConfigError, ModalQcrbError, finite_number, whole_number
from .families import FAMILY_REGISTRY, build_family
from .modes import finite_difference_family
from .states import parse_probe, photon_statistics
from . import tolerances


# Largest grid_points: a 4096^2 beam grid already holds 16.8M samples per mode.
_MAX_GRID_POINTS = 4096

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
            "required": ["engine_version", "tolerances", "conventions", "grid"],
        },
    },
}


def _parse_json(name: str, text: str):
    """``json.loads`` of a config text, any rejection a ConfigError naming ``name``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{name}: invalid JSON (nested too deeply)") from exc


@dataclass
class RunConfig:
    """Resolved run configuration (file values merged with flag overrides)."""

    family: str
    geometry: dict
    state: dict | None  # None for detection-modes, which reads no probe
    out: Path
    grid_points: int | None = None
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
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(
                    f"config: file '{path}' is not UTF-8 text "
                    f"({exc.reason} at byte {exc.start})"
                ) from exc
            raw = _parse_json("config", text)
            if not isinstance(raw, dict):
                raise ConfigError("config: top level must be a JSON object")
        accepted = [f.name for f in fields(cls)]
        for key in raw:
            if key not in accepted:
                raise ConfigError(f"{key}: unknown config key; accepted: " + ", ".join(accepted))

        def pick(flag, key, default=None):
            value = getattr(args, flag, None)
            return value if value is not None else raw.get(key, default)

        family = pick("family", "family")
        if not family:
            raise ConfigError("family: required (flag --family or config key)")
        if not isinstance(family, str):
            raise ConfigError(f"family: must be a family name, got {family!r}")
        if family not in FAMILY_REGISTRY:
            known = ", ".join(sorted(FAMILY_REGISTRY))
            raise ConfigError(f"family: unknown '{family}'; known families: {known}")

        # only qfim and attainability read a probe; the parser gives
        # detection-modes no --state flag
        state = None
        if args.command == "detection-modes":
            if "state" in raw:
                raise ConfigError("state: detection-modes reads no probe state; remove the key")
        else:
            state = raw.get("state", {})
            if args.state is not None:
                state = _parse_json("state", args.state)
            parse_probe(state)

        geometry = raw.get("geometry", {})
        if getattr(args, "geometry", None) is not None:
            geometry = _parse_json("geometry", args.geometry)
        if not isinstance(geometry, dict):
            raise ConfigError("geometry: must be an object")
        schema = FAMILY_REGISTRY[family]["geometry"]
        for key in schema:
            if key not in geometry:
                raise ConfigError(f"geometry.{key}: required for family '{family}'")
        for key, value in geometry.items():
            if key not in schema:
                raise ConfigError(
                    f"geometry.{key}: unknown for family '{family}'; accepted: "
                    + ", ".join(schema)
                )
            value = finite_number(f"geometry.{key}", value)
            if value <= 0:
                raise ConfigError(f"geometry.{key}: must be positive, got {value!r}")

        out = pick("out", "out", "qcrb-report")
        if not isinstance(out, str):
            raise ConfigError(f"out: must be a directory path, got {out!r}")
        grid_points = pick("grid_points", "grid_points")
        if grid_points is not None:
            grid_points = whole_number("grid_points", grid_points)
            if not 8 <= grid_points <= _MAX_GRID_POINTS:
                raise ConfigError(
                    f"grid_points: must be between 8 and {_MAX_GRID_POINTS}, got {grid_points}"
                )
        fd_step = pick("fd_step", "fd_step")
        if fd_step is not None:
            fd_step = finite_number("fd_step", fd_step)
            if fd_step <= 0:
                raise ConfigError("fd_step: must be finite and positive")
        method = raw.get("derivative_method", "analytic")
        if fd_step is not None:
            method = "finite-difference"
        if method not in ("analytic", "finite-difference"):
            raise ConfigError("derivative_method: 'analytic' or 'finite-difference'")
        repetitions = whole_number("repetitions", pick("repetitions", "repetitions", 1))
        if repetitions < 1:
            raise ConfigError("repetitions: must be at least 1")

        return cls(
            family=family,
            geometry=dict(geometry),
            state=None if state is None else dict(state),
            out=Path(out),
            grid_points=grid_points,
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
    return np.atleast_2d(np.asarray(matrix, dtype=float)).tolist()


def _vector(values) -> list:
    return [None if (isinstance(v, float) and not np.isfinite(v)) else float(v) for v in np.atleast_1d(values)]


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte, at indent ``pad``.

    With ``indent`` the standard library falls back to its pure-Python
    encoder; this one joins a list of floats, most of a report, in one C
    call.  Object keys must be strings.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            body = separator.join(map(float.__repr__, value))
            if "n" in body:  # only 'nan', 'inf' and '-inf' hold an n
                for v in value:
                    _json_float(v)
        else:
            body = separator.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str raises TypeError in encode_basestring_ascii
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{\n" + inner + separator.join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _create_out(out: Path) -> None:
    """Create a run's output directory; a path that cannot be one is a config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create directory '{out}': {exc.strerror or exc}") from exc


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file; the directory must exist.

    An ``OSError`` is raised again naming ``path``, after the temporary
    file is removed; ``path`` is then left as it was.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc


def _write_matrix_csv(path: Path, labels, matrix: np.ndarray) -> None:
    lines = [",".join(labels)] + _csv_rows(matrix)
    _write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Pipeline


def _build_family(config: RunConfig):
    grid_options = {}
    if config.grid_points is not None:
        grid_options["points"] = config.grid_points
    family = build_family(config.family, config.geometry, **grid_options)
    if config.derivative_method == "finite-difference":
        try:
            family = finite_difference_family(family, config.fd_step)
        except ValueError as exc:  # the step is checked against each parameter's scale
            raise ConfigError(f"fd_step: {exc}") from exc
    return family


def _attainability_pairs(att: SingleModeAttainability) -> list[dict]:
    labels = att.labels
    return [
        {
            "param_a": labels[a],
            "param_b": labels[b],
            "im_overlap": float(att.imaginary_overlaps[a, b]),
            "normalized_im_overlap": float(att.normalized[a, b]),
            "commutator_expectation": float(att.matrix[a, b]),
            "attainable": bool(att.pair_attainable[a, b]),
        }
        for a, b in itertools.combinations(range(len(labels)), 2)
    ]


def _assemble_report(config: RunConfig) -> tuple[dict, QfimReport]:
    """The report.json document of a run, and the bounds it was made from."""
    family = _build_family(config)
    # a one-mode probe enters only through <N> and the number information
    statistics = photon_statistics(config.state)
    report = crb_bounds(
        qfim_single_mode(statistics, family), config.repetitions, family.parameters
    )
    att = attainability_single_mode(family, statistics)

    labels = list(family.parameters)
    grid_meta = {
        "shape": list(family.grid.shape),
        "axis_ranges": [[float(ax[0]), float(ax[-1])] for ax in family.grid.axes],
    }
    degenerate_flags = [bool(d) for d in att.weights < _weight_floors(family)]
    doc = {
        "family": {
            "name": family.name,
            "parameters": labels,
            "units": list(family.units),
            "geometry": {k: float(v) for k, v in config.geometry.items()},
            "grid": grid_meta,
        },
        "state": dict(config.state)
        | {"mean_photons": statistics.mean, "number_information": statistics.number_information},
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
            "pairs": _attainability_pairs(att),
            "single_mode": {
                "imaginary_overlaps": _matrix_rows(att.imaginary_overlaps),
                "normalized": _matrix_rows(att.normalized),
            },
        },
        "detection_modes": {
            "labels": labels,
            "weights": _vector(att.weights),
            "degenerate": degenerate_flags,
        },
        "provenance": {
            "engine_version": __version__,
            "tolerances": tolerances.as_dict(),
            "conventions": dict(_CONVENTIONS),
            "grid": grid_meta,
            "derivative_method": config.derivative_method,
            "fd_step": config.fd_step,
        },
    }
    return doc, report


def run_qfim(config: RunConfig) -> None:
    """Compute the information matrix and write report.json plus CSVs."""
    doc, bounds = _assemble_report(config)
    labels = doc["qfim"]["labels"]
    out = config.out
    _create_out(out)
    _write_atomic(out / "report.json", _json_text(doc) + "\n")
    _write_matrix_csv(out / "qfim.csv", labels, bounds.qfim)
    _write_matrix_csv(out / "qfim_inverse.csv", labels, bounds.pseudo_inverse)


def run_attainability(config: RunConfig) -> None:
    """Write the per-pair attainability table, and compute nothing else."""
    att = attainability_single_mode(_build_family(config), photon_statistics(config.state))
    rows = [
        "param_a,param_b,Im_overlap,normalized_Im_overlap,commutator_expectation,attainable_flag"
    ]
    for pair in _attainability_pairs(att):
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
    _create_out(config.out)
    _write_atomic(config.out / "attainability.csv", "\n".join(rows) + "\n")


def export_detection_modes(config: RunConfig) -> dict:
    """Write per-parameter detection-mode samples and the readout basis."""
    return export_detection_modes_for(_build_family(config), config.out)


def export_detection_modes_for(family, out: Path) -> dict:
    """Write a family's ``modes_<label>.csv`` files and return the sidecar it writes."""
    detections = detection_modes_for(family)
    readout_samples, pivot_by_label, dependent_labels = _readout_basis(family, detections)

    coords = family.grid.mesh()
    coord_names = ["x", "y"] if family.grid.ndim == 2 else ["omega"]
    flat_coords = [c.ravel() for c in coords]

    _create_out(out)
    for det in detections:
        header = coord_names + ["detection_re", "detection_im", "readout_re", "readout_im"]
        lines = [",".join(header)]
        if not det.degenerate:
            samples = det.mode.samples.ravel()
            readout = readout_samples.get(det.label, np.zeros_like(samples))
            columns = flat_coords + [samples.real, samples.imag, readout.real, readout.imag]
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
    _write_atomic(out / "detection_modes.json", _json_text(sidecar) + "\n")
    return sidecar


# ---------------------------------------------------------------------------
# Entry point


def _add_run_flags(parser: argparse.ArgumentParser, *, probe: bool) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--family", help="family name (overrides config)")
    parser.add_argument("--geometry", help='geometry JSON, e.g. {"w0":1.0,"k":10.0}')
    if probe:
        parser.add_argument("--state", help='state spec JSON, e.g. {"kind":"thermal","nbar":1.0}')
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--grid-points", dest="grid_points", type=int, help="grid points per axis")
    parser.add_argument(
        "--fd-step",
        dest="fd_step",
        type=float,
        help="finite-difference step (selects the finite-difference derivative path)",
    )
    parser.add_argument("--repetitions", type=int, help="measurement repetitions M")


@functools.cache
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
        _add_run_flags(p, probe=name != "detection-modes")
    sub.add_parser("list-families", help="print the family registry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-families":
        listing = {
            name: {k: v for k, v in entry.items() if k != "build"}
            for name, entry in sorted(FAMILY_REGISTRY.items())
        }
        try:
            print(_json_text(listing))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe: send what is left, and Python's
            # flush at exit, to devnull instead of a second BrokenPipeError
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
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
    except OSError as exc:  # raised by _write_atomic, naming the file
        print(f"{args.command} failed writing {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
