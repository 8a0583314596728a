import enum
import errno
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_qcrb import EvaluationError, cli
from modal_qcrb.cli import (
    _json_text,
    _readout_basis,
    _write_run,
    main,
)
from modal_qcrb.families import FAMILY_REGISTRY, build_family
from conftest import OMEGA0, VARIANCE, W0, export_detection_modes


# The layout of report.json; jsonschema is a test-only dependency.
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


def read_matrix_csv(path):
    lines = path.read_text().strip().splitlines()
    labels = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return labels, np.array(rows)


def run_cli(args):
    return main(args)


class TestQfimCommand:
    def test_displaced_beam_diagonal(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        labels, matrix = read_matrix_csv(out / "qfim.csv")
        assert labels == ["x0", "y0"]
        assert np.allclose(np.diag(matrix), 4.0, rtol=1e-6)
        assert abs(matrix[0, 1]) < 1e-10
        _, inverse = read_matrix_csv(out / "qfim_inverse.csv")
        assert np.allclose(np.diag(inverse), 0.25, rtol=1e-6)

    def test_pulse_with_fock_probe(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "qfim",
                "--family",
                "gaussian-pulse",
                "--geometry",
                json.dumps({"omega0": OMEGA0, "variance": VARIANCE}),
                "--state",
                '{"kind": "fock", "n": 2}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        labels, matrix = read_matrix_csv(out / "qfim.csv")
        scale = np.max(np.abs(matrix))
        assert abs(matrix[0, 0]) < 1e-9 * scale  # no phase reference
        assert abs(matrix[0, 2]) < 1e-9 * scale
        assert matrix[1, 1] == pytest.approx(8.0 * VARIANCE, rel=1e-6)

    def test_unknown_family_exit_code(self, tmp_path, capsys):
        code = run_cli(
            [
                "qfim",
                "--family",
                "unknown-thing",
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "gaussian-beam" in err and "displaced-beam" in err

    def test_invalid_state_kind(self, tmp_path):
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "cat"}',
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_engine_error_exit_code(self, tmp_path):
        # squeezing r=800 has photon statistics beyond the double range
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "squeezed-vacuum", "r": 800}',
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "family": "displaced-beam",
                    "geometry": {"w0": 1.0},
                    "state": {"kind": "coherent", "nbar": 1.0},
                    "repetitions": 4,
                    "out": str(tmp_path / "from-file"),
                }
            )
        )
        out = tmp_path / "override"
        code = run_cli(["qfim", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bounds"]["repetitions"] == 4
        assert report["bounds"]["multiparameter"][0] == pytest.approx(
            0.25 / 4.0, rel=1e-6
        )

    def test_report_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        for family, geometry in (
            ("displaced-beam", {"w0": 1.0}),
            ("gaussian-beam", {"w0": 1.0, "k": 10.0}),
            ("gaussian-beam-carrier", {"w0": 1.0, "k": 10.0}),
            ("gaussian-pulse", {"omega0": OMEGA0, "variance": VARIANCE}),
        ):
            out = tmp_path / family
            code = run_cli(
                [
                    "qfim",
                    "--family",
                    family,
                    "--geometry",
                    json.dumps(geometry),
                    "--state",
                    '{"kind": "coherent", "nbar": 1.0}',
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_provenance_records_fd_step(self, tmp_path):
        out = tmp_path / "fd"
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--fd-step",
                "1e-4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["derivative_method"] == "finite-difference"
        assert report["provenance"]["fd_step"] == pytest.approx(1e-4)
        labels, matrix = read_matrix_csv(out / "qfim.csv")
        assert np.allclose(np.diag(matrix), 4.0, rtol=1e-5)

    def test_provenance_lists_the_tolerances_a_run_reads(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        # no CLI command builds a Fock state, so no truncation constant is listed
        assert set(report["provenance"]["tolerances"]) == {
            "tau_orth",
            "tau_rank",
            "tau_zero",
            "tau_quad",
            "tau_fd",
            "tau_herm",
            "tau_attain",
            "tau_psd",
            "pinv_rcond",
        }

    def test_report_json_round_trip(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--out",
                str(out),
            ]
        )
        text = (out / "report.json").read_text()
        assert _json_text(json.loads(text)) + "\n" == text


class TestCarrierFiniteDifference:
    """The carrier's z0 step is sized by its wavelength 1/k, not by z_R."""

    def run(self, tmp_path, method, w0, k):
        out = tmp_path / method
        config = {
            "family": "gaussian-beam-carrier",
            "geometry": {"w0": w0, "k": k},
            "state": {"kind": "coherent", "nbar": 1},
            "grid_points": 256,
            "derivative_method": method,
        }
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps(config))
        assert run_cli(["qfim", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        return read_matrix_csv(out / "qfim.csv")[1], report["detection_modes"]["degenerate"]

    @pytest.mark.parametrize("w0, k", [(2.0, 300.0), (1.0, 80.0)], ids=["kw0-600", "kw0-80"])
    def test_finite_difference_matches_the_analytic_run(self, tmp_path, w0, k):
        analytic, analytic_flags = self.run(tmp_path, "analytic", w0, k)
        fd, fd_flags = self.run(tmp_path, "finite-difference", w0, k)
        # a z0 step of 1e-4 z_R turned the carrier by 1e-4 (k w0)^2 / 2 rad:
        # F[z0, z0] read 2023.15 against 359998 at k w0 = 600
        assert np.max(np.abs(fd - analytic)) <= 1e-10 * np.max(np.abs(analytic))
        assert fd_flags == analytic_flags == [False] * 6


class TestPulseQfimInputs:
    def run_state(self, tmp_path, state: str, geometry=None):
        return run_cli(
            [
                "qfim",
                "--family",
                "gaussian-pulse",
                "--geometry",
                json.dumps(geometry or {"omega0": OMEGA0, "variance": VARIANCE}),
                "--state",
                state,
                "--out",
                str(tmp_path / "out"),
            ]
        )

    @pytest.mark.parametrize(
        "state, field",
        [
            ('{"kind": "coherent"}', "state.nbar:"),
            ('{"kind": "coherent", "nbar": "x"}', "state.nbar:"),
            ('{"kind": "coherent", "nbar": NaN}', "state.nbar:"),
            ('{"kind": "thermal", "nbar": 1, "bogus": 3}', "state.bogus:"),
            ('{"kind": "thermal", "nbar": -1}', "state.nbar:"),
            ('{"kind": "coherent", "nbar": -0.5}', "state.nbar:"),
        ],
        ids=["missing", "non-numeric", "nan", "unknown-key", "negative-thermal", "negative-coherent"],
    )
    def test_bad_field_is_a_config_error(self, tmp_path, capsys, state, field):
        assert self.run_state(tmp_path, state) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_squeezed_phi_is_optional(self, tmp_path):
        assert self.run_state(tmp_path, '{"kind": "squeezed-vacuum", "r": 0.3}') == 0
        assert self.run_state(tmp_path, '{"kind": "squeezed-vacuum", "r": 0.3, "phi": 0.5}') == 0

    def test_phase_information_of_fock_probe_is_not_negative(self, tmp_path):
        # both terms of F[t_phase, t_phase] cancel to round-off; it is 0 exactly
        code = self.run_state(
            tmp_path, '{"kind":"fock","n":2}', geometry={"omega0": 100, "variance": 1}
        )
        assert code == 0
        _, matrix = read_matrix_csv(tmp_path / "out" / "qfim.csv")
        assert matrix[0, 0] >= 0.0

    def test_pulse_grid_below_zero_frequency_exits_1(self, tmp_path, capsys):
        code = self.run_state(
            tmp_path, '{"kind": "coherent", "nbar": 1}', geometry={"omega0": 1, "variance": 25}
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "GridResolutionError" in err and "omega0" in err and "variance" in err


class TestIntegerFields:
    BASE = {
        "family": "displaced-beam",
        "geometry": {"w0": 1.0},
        "state": {"kind": "coherent", "nbar": 1.0},
    }

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("repetitions", {"repetitions": 2.5}),
            ("repetitions", {"repetitions": 1.7}),
            ("grid_points", {"grid_points": 2048.9}),
            ("grid_points", {"grid_points": "abc"}),
            ("fock_cutoff", {"fock_cutoff": 2.5}),
            ("state.n", {"state": {"kind": "fock", "n": 2.5}}),
        ],
    )
    def test_non_integral_value_is_a_config_error(self, tmp_path, capsys, field, overrides):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.BASE | overrides))
        code = run_cli(["qfim", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.BASE | {"repetitions": 4.0, "grid_points": 128.0}))
        out = tmp_path / "out"
        assert run_cli(["qfim", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bounds"]["repetitions"] == 4
        assert report["family"]["grid"]["shape"] == [128, 128]

    def test_threads_knob_is_gone(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODAL_QCRB_THREADS", "not-a-number")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.BASE))
        out = tmp_path / "out"
        assert run_cli(["qfim", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "threads" not in report["provenance"]


class TestAttainabilityCommand:
    def test_beam_pair_table(self, tmp_path):
        out = tmp_path / "att"
        code = run_cli(
            [
                "attainability",
                "--family",
                "gaussian-beam",
                "--geometry",
                '{"w0": 1.0, "k": 10.0}',
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "attainability.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "param_a,param_b,Im_overlap,normalized_Im_overlap,"
            "commutator_expectation,attainable_flag"
        )
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        x0_tilt = rows[("x0", "tilt_x")]
        assert float(x0_tilt[3]) == pytest.approx(1.0, rel=1e-6)
        assert x0_tilt[5] == "false"
        x0_y0 = rows[("x0", "y0")]
        assert x0_y0[5] == "true"

    def test_pulse_all_attainable(self, tmp_path):
        out = tmp_path / "att"
        code = run_cli(
            [
                "attainability",
                "--family",
                "gaussian-pulse",
                "--geometry",
                json.dumps({"omega0": OMEGA0, "variance": VARIANCE}),
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "attainability.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 3
        assert all(line.endswith("true") for line in lines)


class TestDetectionModesCommand:
    def test_displacement_samples(self, tmp_path, displaced_family):
        out = tmp_path / "modes"
        code = run_cli(
            [
                "detection-modes",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads((out / "detection_modes.json").read_text())
        assert sidecar["weights"][0] == pytest.approx(1.0 / W0, rel=1e-9)
        assert sidecar["degenerate"] == [False, False]

        lines = (out / "modes_x0.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["x", "y", "detection_re", "detection_im", "readout_re", "readout_im"]
        # detection mode is i (2x/w0^2) f / w: purely imaginary, odd in x
        first = [float(v) for v in lines[1].split(",")]
        x, y = first[0], first[1]
        f0 = displaced_family.evaluate_mode(0)
        expected = (
            1j * (2.0 * x / W0**2) * f0.samples[0, 0] / sidecar["weights"][0]
        )
        assert first[2] == pytest.approx(expected.real, abs=1e-12)
        assert first[3] == pytest.approx(expected.imag, rel=1e-6)

    def test_degenerate_parameter_export(self, tmp_path, displaced_family):
        # family with a dead parameter: empty samples, zero weight, flag
        from conftest import with_idle_parameter

        padded = with_idle_parameter(displaced_family)
        sidecar = export_detection_modes(padded, tmp_path / "deg")
        assert sidecar["degenerate"] == [False, False, True]
        assert sidecar["weights"][2] == 0.0
        lines = (tmp_path / "deg" / "modes_idle.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

    def test_a_given_state_exits_2(self, tmp_path, capsys):
        # the export reads no probe: a state flag or config key is an error
        out = tmp_path / "modes"
        argv = ["detection-modes", "--family", "displaced-beam", "--geometry", '{"w0": 1.0}']
        argv += ["--grid-points", "32", "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv + ["--state", '{"kind": "coherent", "nbar": 1.0}'])
        assert exit_info.value.code == 2
        assert "--state" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state": {"kind": "coherent", "nbar": 1.0}}))
        assert run_cli(argv + ["--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error: state: ")
        assert not out.exists()
        assert run_cli(argv) == 0
        assert (out / "detection_modes.json").exists()

    def test_proportional_modes_documented(self, tmp_path):
        # x0 and tilt_x detection modes are proportional: the second is
        # dropped from the readout basis and its pivot norm recorded
        out = tmp_path / "beam-modes"
        code = run_cli(
            [
                "detection-modes",
                "--family",
                "gaussian-beam",
                "--geometry",
                '{"w0": 1.0, "k": 10.0}',
                "--out",
                str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads((out / "detection_modes.json").read_text())
        dropped = sidecar["readout_basis"]["dependent_on_predecessors"]
        assert "tilt_x" in dropped and "tilt_y" in dropped
        assert sidecar["readout_basis"]["pivot_norms"]["tilt_x"] < 1e-6


def per_value_mode_rows(family, detections, readout):
    """The export's former formatter: one f-string call per value."""
    coords = [c.ravel() for c in family.grid.mesh()]
    rows = {}
    for det in detections:
        samples = det.mode.samples.ravel()
        other = readout.get(det.label, np.zeros_like(samples)).ravel()
        rows[det.label] = [
            ",".join(
                [f"{float(c[i]):.17g}" for c in coords]
                + [f"{v:.17g}" for v in (samples[i].real, samples[i].imag, other[i].real, other[i].imag)]
            )
            for i in range(samples.size)
        ]
    return rows


class TestModeExportFormat:
    @pytest.mark.parametrize("fixture", ["displaced_family", "pulse_family"])
    def test_rows_match_per_value_formatter(self, request, tmp_path, fixture):
        from modal_qcrb import detection_modes_for

        family = request.getfixturevalue(fixture)
        sidecar = export_detection_modes(family, tmp_path)
        detections = detection_modes_for(family)
        readout, _, _ = _readout_basis(family, detections)
        expected = per_value_mode_rows(family, detections, readout)
        header = "x,y" if family.grid.ndim == 2 else "omega"
        for label in sidecar["labels"]:
            text = "\n".join([f"{header},detection_re,detection_im,readout_re,readout_im"] + expected[label]) + "\n"
            assert (tmp_path / f"modes_{label}.csv").read_bytes() == text.encode()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        argv = [
            sys.executable,
            "-m",
            "modal_qcrb",
            "qfim",
            "--family",
            "displaced-beam",
            "--geometry",
            '{"w0": 1.0}',
            "--state",
            '{"kind": "coherent", "nbar": 1.0}',
        ]
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = subprocess.run(
                argv + ["--out", str(out)], capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            outs.append(out)
        for name in ("report.json", "qfim.csv", "qfim_inverse.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestListFamilies:
    def test_prints_registry(self, capsys):
        assert run_cli(["list-families"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == {
            "displaced-beam",
            "gaussian-beam",
            "gaussian-beam-carrier",
            "gaussian-pulse",
        }
        assert "build" not in listing["gaussian-beam"]

    def test_prints_what_the_builders_build(self, capsys):
        assert run_cli(["list-families"]) == 0
        listing = json.loads(capsys.readouterr().out)
        geometry = {
            "gaussian-beam": {"w0": 1.0, "k": 10.0},
            "gaussian-beam-carrier": {"w0": 1.0, "k": 10.0},
            "gaussian-pulse": {"omega0": OMEGA0, "variance": VARIANCE},
            "displaced-beam": {"w0": 1.0},
        }
        assert set(geometry) == set(FAMILY_REGISTRY) == set(listing)
        for name, entry in FAMILY_REGISTRY.items():
            assert set(geometry[name]) == set(entry["geometry"])
            family = build_family(name, geometry[name])
            assert list(family.parameters) == entry["parameters"] == listing[name]["parameters"]
            listed = listing[name]["default_grid"]
            assert listed == entry["default_grid"]
            assert family.grid.shape == (listed["points"],) * family.grid.ndim
            # the listed extent is the extent of the grid built
            if name == "gaussian-pulse":
                half = listed["halfwidth_sigmas"] * np.sqrt(VARIANCE)
                span = (OMEGA0 - half, OMEGA0 + half)
            else:
                half = listed["halfwidth_waists"] * geometry[name]["w0"]
                span = (-half, half)
            for axis in family.grid.axes:
                assert (axis[0], axis[-1]) == pytest.approx(span, rel=1e-15)

    def test_closed_stdout_ends_quietly(self):
        # the pipe closes long before the child has imported numpy and prints
        argv = [sys.executable, "-m", "modal_qcrb", "list-families"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            child.stdout.close()
            err = child.stderr.read().decode()
        assert "Traceback" not in err, err


# keys with every character the encoder escapes: quotes, backslashes,
# control characters and characters beyond ASCII
KEYS = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\té€😀')), max_size=6)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7]),
)


class Label(str):
    pass


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


# subclasses miss the emitter's exact-type table and are written as their base type
SUBCLASSES = st.one_of(FLOATS.map(np.float64), KEYS.map(Label), st.sampled_from(Level))
SCALARS = st.one_of(
    KEYS,
    FLOATS,
    st.integers(),
    st.sampled_from([2**64, -(2**100), 10**400]),
    st.booleans(),
    st.none(),
    SUBCLASSES,
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda v: st.sampled_from([v, np.float64(v)])
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(FLOATS, max_size=6),
        st.sampled_from([KEYS, st.integers(), st.booleans(), st.none()]).flatmap(
            lambda items: st.lists(items, max_size=6)
        ),
        st.lists(SUBCLASSES, max_size=6),
        st.dictionaries(KEYS, children, max_size=4),
        # rows of one set of keys with scalar values, as attainability.pairs
        st.lists(KEYS, unique=True, max_size=6).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, SCALARS)), max_size=4)
        ),
        # an object holding a non-finite float, which no JSON text can
        st.dictionaries(KEYS, st.one_of(children, NON_FINITE), min_size=1, max_size=4),
    ),
    max_leaves=40,
)


class TestJsonText:
    """The report emitter writes what ``json.dumps(indent=2)`` writes."""

    @settings(max_examples=200)
    @given(DOCUMENTS)
    def test_matches_the_standard_library(self, doc):
        # a document holding a non-finite float is refused by both
        try:
            expected = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            with pytest.raises(ValueError, match="not JSON compliant"):
                _json_text(doc)
        else:
            assert _json_text(doc) == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda v: v,
            lambda v: [1.0, v],
            lambda v: {"a": [True, v]},
            lambda v: (v,),
            lambda v: [np.float64(v)],
            lambda v: {"a": {"b": 1.0, "c": v}},
            lambda v: {"a": np.float64(v)},
            lambda v: [{"a": 1.0, "b": True}, {"a": v, "b": False}],
        ],
        ids=["scalar", "float-row", "nested", "tuple", "numpy-row", "object-value", "numpy-value", "rows"],
    )
    def test_non_finite_float_raises_value_error(self, value, wrap):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text(wrap(value))

    @pytest.mark.parametrize(
        "doc",
        [{1, 2}, 1j, [1.0, 1j], {"a": {"b": {1}}}, [np.bool_(True)], [True, np.bool_(False)]],
        ids=["set", "complex", "row", "nested", "numpy-bool-row", "mixed-bool-row"],
    )
    def test_unsupported_type_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _json_text(doc)


def snapshot(out):
    """Every entry under ``out``: a file's bytes, or None for a directory."""
    return {
        str(p.relative_to(out)): None if p.is_dir() else p.read_bytes() for p in sorted(out.rglob("*"))
    }


class TestWriteRun:
    """A run writes all its files or none: a failure leaves ``out`` as it was."""

    BEAM = ["--family", "gaussian-beam", "--geometry", '{"w0": 1.0, "k": 10.0}', "--grid-points", "32"]
    DISPLACED = ["--family", "displaced-beam", "--geometry", '{"w0": 2.0}', "--grid-points", "32"]
    PROBE = ["--state", '{"kind": "coherent", "nbar": 1.0}']

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        path.write_text("old\n")

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError) as raised:
            _write_run(tmp_path, [("report.json", "new\n"), ("qfim.csv", "new\n")])
        assert raised.value.filename == str(path)
        assert raised.value.errno == errno.ENOSPC
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert path.read_text() == "old\n"

    def test_qfim_keeps_the_previous_report_when_a_csv_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["qfim", *self.DISPLACED, *self.PROBE, "--out", str(out)]) == 0
        (out / "qfim.csv").unlink()
        (out / "qfim.csv").mkdir()
        before = snapshot(out)
        assert run_cli(["qfim", *self.BEAM, *self.PROBE, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qfim failed writing {out / 'qfim.csv'}: Is a directory\n"
        assert snapshot(out) == before
        assert json.loads((out / "report.json").read_text())["family"]["name"] == "displaced-beam"

    def test_detection_modes_writes_no_csv_when_the_sidecar_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "detection_modes.json").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        before = snapshot(out)
        assert run_cli(["detection-modes", *self.BEAM, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"detection-modes failed writing {out / 'detection_modes.json'}: Is a directory\n"
        assert snapshot(out) == before

    def test_failed_second_temporary_write_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert run_cli(["qfim", *self.DISPLACED, *self.PROBE, "--out", str(out)]) == 0
        before = snapshot(out)
        real_open, real_write = os.open, os.write
        writes = []

        def recording_open(path, *args, **kwargs):
            writes.append(os.path.basename(path))
            return real_open(path, *args, **kwargs)

        def full_after_one(fd, data):
            if len(writes) == 2:  # files are staged one at a time
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "write", full_after_one)
        assert run_cli(["qfim", *self.BEAM, *self.PROBE, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qfim failed writing {out / 'qfim.csv'}: No space left on device\n"
        assert [name.split(".tmp")[0] for name in writes] == ["report.json", "qfim.csv"]
        assert snapshot(out) == before

    def test_short_writes_still_write_every_byte(self, tmp_path, monkeypatch):
        argv = ["qfim", *self.BEAM, *self.PROBE, "--out"]
        assert run_cli(argv + [str(tmp_path / "whole")]) == 0
        real_write = os.write
        counts = []

        def at_most_seven_bytes(fd, data):
            counts.append(real_write(fd, data[:7]))
            return counts[-1]

        monkeypatch.setattr(os, "write", at_most_seven_bytes)
        assert run_cli(argv + [str(tmp_path / "short")]) == 0
        assert max(counts) == 7 and len(counts) > 100
        assert snapshot(tmp_path / "short") == snapshot(tmp_path / "whole")

    @pytest.mark.parametrize("umask", [0o002, 0o027])
    def test_new_files_take_the_mode_the_umask_leaves(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            _write_run(tmp_path / "out", [("report.json", "new\n"), ("qfim.csv", "new\n")])
        finally:
            os.umask(previous)
        for name in ("report.json", "qfim.csv"):
            assert (tmp_path / "out" / name).stat().st_mode & 0o777 == 0o666 & ~umask

    def test_producer_that_raises_midway_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert run_cli(["detection-modes", *self.DISPLACED, "--out", str(out)]) == 0
        before = snapshot(out)
        csv_rows = cli._csv_rows
        files = []

        def fails_on_the_second_file(columns):
            if columns.shape[1] == 4:  # a file's values, not the shared coordinates
                files.append(1)
            if len(files) == 2:
                raise EvaluationError("samples lost")
            return csv_rows(columns)

        monkeypatch.setattr(cli, "_csv_rows", fails_on_the_second_file)
        assert run_cli(["detection-modes", *self.BEAM, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "detection-modes failed in EvaluationError: samples lost\n"
        assert snapshot(out) == before

    def test_exception_from_the_producer_is_raised_again(self, tmp_path):
        def files():
            yield "a.csv", "a\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _write_run(tmp_path / "out", files())
        assert snapshot(tmp_path / "out") == {}


PULSE_1E17 = {"omega0": 1e17, "variance": 1}  # the carrier swamps the width: the axis repeats


class TestConfigErrors:
    """Each bad config exits 2 naming its field, or 1 with a message; none raises."""

    BASE = {
        "family": "gaussian-beam",
        "geometry": {"w0": 1.0, "k": 10.0},
        "state": {"kind": "coherent", "nbar": 1.0},
        "grid_points": 64,
    }

    def run(self, tmp_path, config, command="qfim", out=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out" if out is None else out
        return run_cli([command, "--config", str(path), "--out", str(out)])

    def base_for(self, command):
        # detection-modes reads no probe state
        return {k: v for k, v in self.BASE.items() if k != "state" or command != "detection-modes"}

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"geometry": {"w0": 1.0, "k": 10.0, "extra": "abc"}}, "geometry.extra:"),
            ({"geometry": {"w0": 1.0, "k": 10.0, "typo": 3}}, "geometry.typo: unknown"),
            ({"family": "displaced-beam", "geometry": {"w0": 1.0, "k": 10.0}}, "geometry.k: unknown"),
            ({"geometry": {"w0": True, "k": 10.0}}, "geometry.w0:"),
            ({"geometry": {"w0": "1.0", "k": 10.0}}, "geometry.w0:"),
            ({"fd_step": "abc"}, "fd_step:"),
            ({"fd_step": True}, "fd_step:"),
            ({"family": ["gaussian-beam"]}, "family:"),
            ({"fock_cutoff": 32}, "fock_cutoff:"),
            ({"grid_point": 64}, "grid_point:"),
            ({"grid_points": 100000}, "grid_points:"),
            ({"repetitions": 10**400}, "repetitions:"),
            ({"state": {"kind": "coherent", "nbar": 10**400}}, "state.nbar:"),
            ({"fd_step": 1e-300}, "fd_step:"),
            ({"repetitions": 0}, "repetitions:"),
            ({"fd_step": 0}, "fd_step:"),
            ({"fd_step": -1}, "fd_step:"),
            ({"derivative_method": "spline"}, "derivative_method:"),
            ({"geometry": {"w0": 1.0}}, "geometry.k: required"),
        ],
        ids=[
            "extra-geometry-text",
            "extra-geometry-number",
            "displaced-beam-k",
            "bool-w0",
            "string-w0",
            "text-fd-step",
            "bool-fd-step",
            "list-family",
            "stale-cutoff-key",
            "misspelt-key",
            "grid-above-cap",
            "integer-beyond-float",
            "nbar-beyond-float",
            "fd-step-below-floor",
            "zero-repetitions",
            "zero-fd-step",
            "negative-fd-step",
            "unknown-derivative-method",
            "missing-geometry-key",
        ],
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, overrides, field):
        assert self.run(tmp_path, self.BASE | overrides) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert run_cli(["qfim", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: config: file '{path}' not found\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["qfim", "attainability", "detection-modes"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / below if below else blocker
        assert self.run(tmp_path, self.base_for(command), command, out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: cannot create directory '{out}'"), err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, name",
        [("qfim", "report.json"), ("attainability", "attainability.csv"), ("detection-modes", "detection_modes.json")],
    )
    def test_failed_write_exits_1_naming_the_file(self, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory cannot be replaced by a file
        assert self.run(tmp_path, self.base_for(command), command, out) == 1
        err = capsys.readouterr().err
        assert err == f"{command} failed writing {out / name}: Is a directory\n"
        assert not [p for p in out.iterdir() if ".tmp" in p.name]

    @pytest.mark.parametrize("command", ["attainability", "detection-modes"])
    def test_repetitions_is_for_qfim_only(self, tmp_path, capsys, command):
        # only qfim writes bounds: the others take no flag and refuse the key
        out = tmp_path / "out"
        argv = [command, "--family", "displaced-beam", "--geometry", '{"w0": 1.0}', "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv + ["--repetitions", "7"])
        assert exit_info.value.code == 2
        assert "--repetitions" in capsys.readouterr().err
        assert self.run(tmp_path, self.base_for(command) | {"repetitions": 7}, command) == 2
        assert capsys.readouterr().err.startswith("config error: repetitions: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch, source):
        # an empty path would otherwise name the working directory
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.BASE | ({"out": ""} if source == "config" else {})))
        argv = ["attainability", "--config", str(config)]
        assert run_cli(argv + (["--out", ""] if source == "flag" else [])) == 2
        assert capsys.readouterr().err == "config error: out: must be a directory path, got ''\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("flag", ["state", "geometry"])
    def test_json_flag_nested_too_deeply_exits_2(self, tmp_path, capsys, flag):
        argv = ["qfim", "--family", "displaced-beam", "--out", str(tmp_path / "out")]
        flags = {"state": '{"kind": "coherent", "nbar": 1}', "geometry": '{"w0": 1}'}
        flags[flag] = "[" * 100000
        for name, value in flags.items():
            argv += [f"--{name}", value]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"config error: {flag}: invalid JSON (nested too deeply)\n"

    def test_removed_cutoff_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["qfim", "--family", "displaced-beam", "--fock-cutoff", "32"])
        assert exit_info.value.code == 2
        assert "--fock-cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"state": {"kind": "squeezed-vacuum", "r": 800}}, "PreconditionError: state.r:"),
            ({"state": {"kind": "squeezed-vacuum", "r": 400}}, "PreconditionError: state.r:"),
            ({"geometry": {"w0": 1e200, "k": 10.0}}, "PreconditionError: geometry w0=1e+200, k=10:"),
            ({"geometry": {"w0": 1e150, "k": 1e-150}}, "PreconditionError: geometry w0=1e+150, k=1e-150:"),
            ({"geometry": {"w0": 1.0, "k": 1e300}}, "PreconditionError: geometry w0=1, k=1e+300:"),
            ({"geometry": {"w0": 1e-102, "k": 1.0}}, "PreconditionError: geometry w0=1e-102, k=1:"),
            ({"state": {"kind": "thermal", "nbar": 1.7e308}}, "PreconditionError"),
            ({"state": {"kind": "coherent", "nbar": 1e306}}, "PreconditionError"),
            ({"state": {"kind": "coherent", "nbar": 5e-324}}, "PreconditionError"),
        ],
        ids=[
            "squeezing-overflow",
            "squeezing-square-overflow",
            "huge-waist",
            "waist-cube-overflow",
            "huge-wavenumber",
            "rayleigh-square-underflow",
            "huge-thermal",
            "information-overflow",
            "denormal-photon-number",
        ],
    )
    def test_out_of_range_exits_1_with_a_message(self, tmp_path, capsys, overrides, error):
        assert self.run(tmp_path, self.BASE | overrides) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qfim failed in {error}")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "command, family, geometry, error",
        [
            ("qfim", "gaussian-pulse", PULSE_1E17, "omega0=1e+17, variance=1: grid axis 0 must"),
            ("detection-modes", "gaussian-pulse", PULSE_1E17, "omega0=1e+17, variance=1: grid axis 0"),
            ("qfim", "displaced-beam", {"w0": 1e160}, "w0=1e+160: quadrature weights"),
            ("qfim", "displaced-beam", {"w0": 1e-160}, "w0=1e-160: quadrature weights"),
            ("qfim", "displaced-beam", {"w0": 1e308}, "w0=1e+308: grid axis 0 has non-finite"),
        ],
        ids=["pulse-carrier-swamps-width", "pulse-export", "huge-spot", "tiny-spot", "spot-beyond-range"],
    )
    def test_geometry_the_grid_cannot_hold_names_the_geometry(
        self, tmp_path, capsys, command, family, geometry, error
    ):
        config = self.base_for(command) | {"family": family, "geometry": geometry}
        config.pop("grid_points")  # the default grid of the family
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.run(tmp_path, config, command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command} failed in PreconditionError: geometry {error}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, state",
        [
            ("qfim", {"kind": "coherent", "nbar": 1e306}),
            ("attainability", {"kind": "thermal", "nbar": 1.7e308}),
        ],
        ids=["information-overflow", "commutator-overflow"],
    )
    def test_overflow_raises_no_numpy_warning(self, tmp_path, capsys, command, state):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self.run(tmp_path, self.BASE | {"state": state}, command) == 1
        assert capsys.readouterr().err.startswith(f"{command} failed in PreconditionError")

    @pytest.mark.parametrize(
        "geometry",
        [
            '{"w0": 1e150, "k": 1e-150}',
            '{"w0": 1.0, "k": 1e300}',
            '{"w0": 1e200, "k": 1.0}',
            '{"w0": 1e-102, "k": 1}',
        ],
        ids=["waist-cube-overflow", "huge-wavenumber", "huge-waist", "rayleigh-square-underflow"],
    )
    def test_overflowing_geometry_prints_only_the_message(self, geometry):
        # a subprocess, so that numpy warnings reach stderr as they would
        argv = [sys.executable, "-m", "modal_qcrb", "qfim", "--family", "gaussian-beam"]
        argv += ["--geometry", geometry, "--grid-points", "64"]
        argv += ["--state", '{"kind": "coherent", "nbar": 1}', "--out", "unused"]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qfim failed in "), result.stderr

    def test_huge_fd_step_names_the_parameter(self):
        # every shifted beam lies off the grid; a subprocess, so that numpy
        # warnings and tracebacks would reach stderr
        argv = [sys.executable, "-m", "modal_qcrb", "qfim", "--family", "gaussian-beam"]
        argv += ["--geometry", '{"w0":1,"k":10}', "--grid-points", "64", "--fd-step", "1e300"]
        argv += ["--state", '{"kind":"coherent","nbar":1}', "--out", "unused"]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "parameter 'x0'" in lines[0], result.stderr

    def test_attainability_skips_the_bounds(self, tmp_path, capsys):
        # the pseudo-inverse of this probe's information matrix fails, but
        # the attainability table does not need it
        config = self.BASE | {"state": {"kind": "coherent", "nbar": 5e-324}}
        assert self.run(tmp_path, config, "attainability") == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["attainability.csv"]


class TestBrightProbes:
    """CLI probes enter through closed-form photon statistics, with no Fock cap."""

    SPECS = (
        {"kind": "coherent", "nbar": 40.0},
        {"kind": "thermal", "nbar": 5.0},
        {"kind": "squeezed-vacuum", "r": 2.0},
        {"kind": "coherent", "nbar": 1e6},
        {"kind": "fock", "n": 100},
    )
    GEOMETRY = {
        "displaced-beam": {"w0": 1.0},
        "gaussian-beam": {"w0": 1.0, "k": 10.0},
        "gaussian-beam-carrier": {"w0": 1.0, "k": 10.0},
        "gaussian-pulse": {"omega0": OMEGA0, "variance": VARIANCE},
    }

    @pytest.mark.parametrize("command", ["qfim", "attainability"])
    @pytest.mark.parametrize("family", sorted(GEOMETRY))
    def test_no_fock_state_is_built(self, tmp_path, monkeypatch, family, command):
        from modal_qcrb import states

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built on the one-mode path")

        monkeypatch.setattr(states.FockSpace, "__post_init__", refuse)
        monkeypatch.setattr(states.DensityState, "__post_init__", refuse)
        for i, spec in enumerate(self.SPECS):
            argv = [
                command,
                "--family",
                family,
                "--geometry",
                json.dumps(self.GEOMETRY[family]),
                "--grid-points",
                "128",
                "--state",
                json.dumps(spec),
                "--out",
                str(tmp_path / str(i)),
            ]
            assert run_cli(argv) == 0, spec

    def test_report_carries_the_photon_statistics(self, tmp_path):
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "squeezed-vacuum", "r": 2.0, "phi": 0.3}',
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["state"]["mean_photons"] == pytest.approx(np.sinh(2.0) ** 2, rel=1e-15)
        assert report["state"]["number_information"] == pytest.approx(2.0 * np.sinh(4.0) ** 2, rel=1e-15)
        assert "fock_cutoff" not in report["state"]
        assert "fock_cutoff" not in report["provenance"]
        # amplitude-only parameters: 4 (d_a f | d_a f) <N>
        _, matrix = read_matrix_csv(tmp_path / "qfim.csv")
        assert np.allclose(np.diag(matrix), 4.0 * np.sinh(2.0) ** 2, rtol=1e-6)


def test_parser_is_built_once(monkeypatch, capsys):
    import argparse

    from modal_qcrb import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert run_cli(["list-families"]) == 0
    first = len(built)
    assert run_cli(["list-families"]) == 0
    assert first > 0 and len(built) == first
