"""Configuration-driven command-line front end.

Subcommands: ``qfim``, ``attainability``, ``detection-modes``,
``list-families``.  Every run reads a JSON config (flags override file
values), writes machine-readable reports with full provenance, and is
deterministic: identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 engine/numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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
    attainability_single_mode,
    crb_bounds,
    detection_modes_for,
    qfim_single_mode,
)
from .errors import ConfigError, ModalQcrbError, finite_number, whole_number
from .families import FAMILY_REGISTRY, build_family, finite_difference_family
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
        if not isinstance(out, str) or not out:
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
        # only qfim writes bounds; the parser gives the others no --repetitions flag
        repetitions = 1
        if args.command == "qfim":
            repetitions = whole_number("repetitions", pick("repetitions", "repetitions", 1))
            if repetitions < 1:
                raise ConfigError("repetitions: must be at least 1")
        elif "repetitions" in raw:
            raise ConfigError(f"repetitions: {args.command} writes no bounds; remove the key")

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
    return [v if math.isfinite(v) else None for v in np.atleast_1d(np.asarray(values, dtype=float)).tolist()]


def _json_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# The JSON text of each scalar type, looked up by exact type: a subclass
# (np.float64, an IntEnum, a str subclass) is written as its base type.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    float: _json_float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte, at indent ``pad``.

    With ``indent`` the standard library falls back to its pure-Python
    encoder; this one writes a scalar dict value inline and joins a list
    of one scalar type, most of a report, in one C call.  Object keys must
    be strings.
    """
    emit = _SCALAR_TEXT.get(type(value))
    if emit is not None:
        return emit(value)
    inner = pad + "  "
    separator = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        emit = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if emit is _json_float:
            body = separator.join(map(float.__repr__, value))
            if "n" in body:  # only 'nan', 'inf' and '-inf' hold an n
                for v in value:
                    _json_float(v)
        elif emit is not None:
            body = separator.join(map(emit, value))
        else:
            body = separator.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        text = _SCALAR_TEXT.get
        # a key that is not a str raises TypeError in encode_basestring_ascii
        items = [
            encode_basestring_ascii(k) + ": " + (emit(v) if (emit := text(type(v))) else _json_text(v, inner))
            for k, v in value.items()
        ]
        return "{\n" + inner + separator.join(items) + "\n" + pad + "}"
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_run(out: Path, files) -> None:
    """Write a run's ``(name, text)`` files into ``out``: all of them or none.

    Each text goes to ``<name>.tmp<pid>`` as soon as it is produced, by one
    ``os.open``/``os.write`` loop, and ``out`` is created when the first one
    is ready; a path that cannot be a directory is a config error naming
    ``out``.  Only once every file is staged are they renamed into place.
    On any failure the staged files are removed, so ``out`` keeps what it
    held unless a rename itself fails midway; an ``OSError`` is raised
    again naming the file.
    """
    staged: list[tuple[str, str]] = []  # (temporary file, target)
    try:
        for name, text in files:
            if not staged:
                try:
                    os.makedirs(out, exist_ok=True)
                except OSError as exc:
                    reason = exc.strerror or exc
                    raise ConfigError(f"out: cannot create directory '{out}': {reason}") from exc
            target = os.path.join(out, name)
            tmp = f"{target}.tmp{os.getpid()}"
            staged.append((tmp, target))
            try:
                # refused while staging: a rename onto a directory would
                # fail only after the files before it were renamed
                if os.path.isdir(target):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
                try:
                    data = memoryview(text.encode())
                    while data:  # a write may take fewer bytes than it was given
                        data = data[os.write(fd, data) :]
                finally:
                    os.close(fd)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror or str(exc), target) from exc
            del text, data  # hold one file's text at a time, not two
        for tmp, target in staged:
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror or str(exc), target) from exc
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Pipeline


def _build_family(config: RunConfig):
    family = build_family(config.family, config.geometry, config.grid_points)
    if config.derivative_method == "finite-difference":
        try:
            family = finite_difference_family(family, config.fd_step)
        except ValueError as exc:  # the step is checked against each parameter's scale
            raise ConfigError(f"fd_step: {exc}") from exc
    return family


def _attainability_pairs(att: SingleModeAttainability) -> list[dict]:
    labels = att.labels
    im, normalized, matrix, attainable = (
        m.tolist() for m in (att.imaginary_overlaps, att.normalized, att.matrix, att.pair_attainable)
    )
    return [
        {
            "param_a": labels[a],
            "param_b": labels[b],
            "im_overlap": im[a][b],
            "normalized_im_overlap": normalized[a][b],
            "commutator_expectation": matrix[a][b],
            "attainable": attainable[a][b],
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
            "degenerate": att.degenerate.tolist(),
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


# Each command is a producer: it yields the (file name, text) pairs of a
# run, in order, and touches no file; _write_run writes them.


def _qfim_files(config: RunConfig):
    """report.json, then the information matrix and its pseudo-inverse as CSV."""
    doc, bounds = _assemble_report(config)
    yield "report.json", _json_text(doc) + "\n"
    header = ",".join(doc["qfim"]["labels"])
    for name, matrix in (("qfim.csv", bounds.qfim), ("qfim_inverse.csv", bounds.pseudo_inverse)):
        yield name, "\n".join([header] + _csv_rows(matrix)) + "\n"


def _attainability_files(config: RunConfig):
    """The per-pair attainability table, and nothing else computed."""
    att = attainability_single_mode(_build_family(config), photon_statistics(config.state))
    rows = [
        "param_a,param_b,Im_overlap,normalized_Im_overlap,commutator_expectation,attainable_flag"
    ]
    for p in _attainability_pairs(att):
        numbers = [_fmt(p[k]) for k in ("im_overlap", "normalized_im_overlap", "commutator_expectation")]
        rows.append(",".join([p["param_a"], p["param_b"], *numbers, str(p["attainable"]).lower()]))
    yield "attainability.csv", "\n".join(rows) + "\n"


def _readout_basis(family, detections) -> tuple[dict[str, np.ndarray], dict[str, float], list[str]]:
    """Orthonormal readout modes of a family's ``detection_modes_for``.

    The live (non-degenerate) detection modes u_a = (i / w_a) d_a f are
    orthonormalized in label order.  Their Gram matrix
    E_ab = (d_a f | d_b f) / (w_a w_b) is a slice of the family's overlap
    table; it is factored as E = R^H R (Cholesky) one column at a time:
    column i gives R[kept, i] by a triangular solve and the squared pivot
    E_ii - |R[kept, i]|^2.  A column whose squared pivot is below
    ``TAU_RANK`` depends on its predecessors and is skipped; a Gram matrix
    resolves the squared pivot only to about eps, so the pivot itself
    cannot be held to that bound.  The readout modes are then one product
    of the kept detection modes with the triangle R^-1 of the kept columns.

    Returns the flattened readout samples by kept label, the pivot norm
    of every live label (0 where the squared pivot is negative by
    round-off), and the dependent labels.
    """
    live = [a for a, d in enumerate(detections) if not d.degenerate]
    if not live:
        return {}, {}, []
    # detection_modes_for has checked that the table has one populated mode
    table = family.overlap_table
    w = table.weights[live, 0]
    gram = table.derivative_overlaps[:, :, 0, 0][np.ix_(live, live)] / np.outer(w, w)
    n = len(live)
    r = np.zeros((n, n), dtype=complex)
    pivots = np.zeros(n)
    kept: list[int] = []
    for i in range(n):
        # E[kept, i] = R[kept, kept]^H R[kept, i]
        r[kept, i] = np.linalg.solve(r[np.ix_(kept, kept)].conj().T, gram[kept, i])
        pivot2 = gram[i, i].real - float(np.sum(np.abs(r[kept, i]) ** 2))
        pivots[i] = np.sqrt(max(pivot2, 0.0))
        if pivot2 >= tolerances.TAU_RANK:
            r[i, i] = pivots[i]
            kept.append(i)
    columns = [detections[live[i]].mode.samples.ravel() for i in kept]
    samples = np.column_stack(columns) @ np.linalg.inv(r[np.ix_(kept, kept)])
    labels = [detections[a].label for a in live]
    return (
        {labels[i]: column for i, column in zip(kept, samples.T)},
        dict(zip(labels, pivots.tolist())),
        [label for i, label in enumerate(labels) if i not in kept],
    )


def _detection_mode_files(family):
    """A family's ``modes_<label>.csv`` files, then their ``detection_modes.json`` sidecar."""
    detections = detection_modes_for(family)
    readout_samples, pivot_by_label, dependent_labels = _readout_basis(family, detections)

    coord_names = ["x", "y"] if family.grid.ndim == 2 else ["omega"]
    header = ",".join(coord_names + ["detection_re", "detection_im", "readout_re", "readout_im"])
    # every file shares its coordinate columns: format them once per run
    mesh = np.column_stack([c.ravel() for c in family.grid.mesh()])
    coordinates = [row + "," for row in _csv_rows(mesh)]
    for det in detections:
        lines = [header]
        if not det.degenerate:
            samples = det.mode.samples.ravel()
            readout = readout_samples.get(det.label, np.zeros_like(samples))
            values = _csv_rows(np.column_stack([samples.real, samples.imag, readout.real, readout.imag]))
            lines += map(str.__add__, coordinates, values)
        yield f"modes_{det.label}.csv", "\n".join(lines) + "\n"

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
    yield "detection_modes.json", _json_text(sidecar) + "\n"


_COMMANDS = {
    "qfim": _qfim_files,
    "attainability": _attainability_files,
    "detection-modes": lambda config: _detection_mode_files(_build_family(config)),
}


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
        if name == "qfim":
            p.add_argument("--repetitions", type=int, help="measurement repetitions M")
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
        _write_run(config.out, _COMMANDS[args.command](config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModalQcrbError as exc:
        print(f"{args.command} failed in {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # raised by _write_run, naming the file
        print(f"{args.command} failed writing {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
