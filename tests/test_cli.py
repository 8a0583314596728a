import json
import subprocess
import sys

import numpy as np
import pytest

from modal_qcrb.cli import (
    REPORT_SCHEMA,
    ReportBundle,
    export_detection_modes_for,
    main,
)
from conftest import OMEGA0, VARIANCE, W0


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
        # thermal nbar=8 needs a cutoff beyond the hard cap
        code = run_cli(
            [
                "qfim",
                "--family",
                "displaced-beam",
                "--geometry",
                '{"w0": 1.0}',
                "--state",
                '{"kind": "thermal", "nbar": 8.0}',
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

    def test_bundle_round_trip(self, tmp_path):
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
        bundle = ReportBundle.from_json(text)
        assert bundle.to_json() + "\n" == text


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
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
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
        bundle = export_detection_modes_for(padded, tmp_path / "deg")
        assert bundle.report["degenerate"] == [False, False, True]
        assert bundle.report["weights"][2] == 0.0
        lines = (tmp_path / "deg" / "modes_idle.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

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
                "--state",
                '{"kind": "coherent", "nbar": 1.0}',
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
        from modal_qcrb import detection_modes_for, gram_schmidt

        family = request.getfixturevalue(fixture)
        bundle = export_detection_modes_for(family, tmp_path)
        detections = detection_modes_for(family)
        live = [d for d in detections if not d.degenerate]
        gs = gram_schmidt([d.mode for d in live], on_dependent="drop")
        kept = [i for i in range(len(live)) if i not in gs.dependent_indices]
        readout = {live[i].label: gs.basis.modes[row].samples for row, i in enumerate(kept)}
        expected = per_value_mode_rows(family, detections, readout)
        header = "x,y" if family.grid.ndim == 2 else "omega"
        for label in bundle.report["labels"]:
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
