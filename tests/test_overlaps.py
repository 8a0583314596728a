"""The per-run overlap table and the quantities sliced from it."""

import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from modal_qcrb import (
    BeamGeometry,
    EvaluationError,
    FockSpace,
    GridMismatchError,
    OverlapTable,
    ParameterFamily,
    StructuralError,
    attainability_single_mode,
    build_generators,
    detection_modes_for,
    finite_difference_family,
    gaussian_beam_family,
    photon_statistics,
    qfim_mode_split,
    qfim_single_mode,
)
from modal_qcrb import cli, engine, families, modes
from modal_qcrb.tolerances import TAU_ORTH
from conftest import (
    export_detection_modes,
    family_from_modes,
    gram_schmidt,
    inner_product,
    probe_state,
    random_mode_parameter_data,
)

FAMILIES = ["beam_family", "beam_carrier_family", "pulse_family", "displaced_family"]


def table_rows(populated, derivatives):
    return list(populated) + [d for row in derivatives for d in row]


def pairwise_table(rows):
    """Independent reference: one inner product per pair."""
    return np.array([[inner_product(a, b) for b in rows] for a in rows])


def family_rows(family):
    populated = family.evaluate()
    derivatives = [
        [families.derivative_mode(family, k, a) for k in range(len(populated))]
        for a in range(family.n_parameters)
    ]
    return populated, derivatives


def assert_matches_pairwise(table, rows):
    reference = pairwise_table(rows)
    scale = np.max(np.abs(table.matrix))
    assert np.max(np.abs(table.matrix - reference)) <= 1e-12 * scale


LABELS = ("a", "b", "c")


class TestOverlapTable:
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_family_table_matches_pairwise_products(self, request, fixture):
        family = request.getfixturevalue(fixture)
        table = family.overlap_table
        assert table.matrix.shape == (1 + family.n_parameters,) * 2
        assert_matches_pairwise(table, table_rows(*family_rows(family)))

    @pytest.mark.parametrize("n_modes, n_params", [(2, 3), (3, 2)])
    def test_random_multimode_table_matches_pairwise_products(self, n_modes, n_params):
        rng = np.random.default_rng(100 + n_modes)
        populated, derivatives = random_mode_parameter_data(rng, n_params, n_modes)
        table = OverlapTable.from_modes(populated, derivatives, LABELS[:n_params])
        assert table.matrix.shape == (n_modes * (1 + n_params),) * 2
        assert_matches_pairwise(table, table_rows(populated, derivatives))

    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_conjugate_symmetry_is_bitwise(self, request, fixture):
        table = request.getfixturevalue(fixture).overlap_table
        assert np.array_equal(table.matrix, table.matrix.conj().T)

    def test_random_table_conjugate_symmetry_is_bitwise(self):
        populated, derivatives = random_mode_parameter_data(np.random.default_rng(7), 3, 3)
        table = OverlapTable.from_modes(populated, derivatives, LABELS)
        assert np.array_equal(table.matrix, table.matrix.conj().T)

    def test_slices_name_the_right_overlaps(self):
        populated, derivatives = random_mode_parameter_data(np.random.default_rng(8), 2, 2)
        table = OverlapTable.from_modes(populated, derivatives, LABELS[:2])
        scale = np.max(np.abs(table.matrix))
        for a in range(2):
            for j in range(2):
                for k in range(2):
                    f_j, d_ak, d_aj = populated[j], derivatives[a][k], derivatives[a][j]
                    assert abs(table.generator_overlaps[a, j, k] - inner_product(f_j, d_ak)) < 1e-12 * scale
                    for b in range(2):
                        expected = inner_product(d_aj, derivatives[b][k])
                        assert abs(table.derivative_overlaps[a, b, j, k] - expected) < 1e-12 * scale
                assert table.weights[a, j] == pytest.approx(
                    np.sqrt(inner_product(d_aj, d_aj).real), rel=1e-12
                )

    def test_rejects_mismatched_derivative_table(self):
        populated, derivatives = random_mode_parameter_data(np.random.default_rng(9), 2, 2)
        with pytest.raises(StructuralError):
            OverlapTable.from_modes(populated, [derivatives[0][:1]], LABELS[:1])
        with pytest.raises(StructuralError, match="at least one populated mode"):
            OverlapTable.from_modes([], [], [])

    def test_rejects_grids_that_differ_only_in_their_axes(self):
        axes = (np.linspace(-1.0, 1.0, 8), np.linspace(-2.0, 2.0, 8))
        f, d = (modes.Mode(modes.SampleGrid.uniform(ax), np.exp(-(ax**2))) for ax in axes)
        with pytest.raises(GridMismatchError, match="different grids"):
            OverlapTable.from_modes([f], [[d]], ["a"])

    def test_rejects_a_label_count_unlike_the_derivative_rows(self):
        populated, derivatives = random_mode_parameter_data(np.random.default_rng(9), 2, 2)
        with pytest.raises(StructuralError, match="3 labels for 2 derivative rows"):
            OverlapTable.from_modes(populated, derivatives, LABELS)

    def test_table_carries_the_family_parameter_names(self, beam_family):
        table = beam_family.overlap_table
        assert table.labels == beam_family.parameters
        assert table.n_parameters == len(beam_family.parameters)

    def test_real_derivative_modes_stay_float64(self, beam_family):
        # the x0, y0 and w0 derivatives of the beam are real: they keep
        # their float64 samples, and their weighted Gram matrix matches that
        # of complex copies bitwise
        populated, derivatives = family_rows(beam_family)
        real = [beam_family.parameters.index(name) for name in ("x0", "y0", "w0")]
        assert all(derivatives[a][0].samples.dtype == np.float64 for a in real)
        rows = [m.samples for m in table_rows(populated, derivatives)]
        weights = beam_family.grid.weights
        reference = modes.weighted_gram([r.astype(complex) for r in rows], weights)
        assert np.array_equal(modes.weighted_gram(rows, weights), reference)

    def test_slices_are_read_only(self, displaced_family):
        table = displaced_family.overlap_table
        with pytest.raises(ValueError):
            table.derivative_overlaps[0, 0, 0, 0] = 1.0


def test_overflowing_array_overlaps_raise_the_table_error():
    # the weighted_gram route overflows in its product, not in the samples
    f = modes.Mode(modes.SampleGrid.uniform(np.linspace(-1.0, 1.0, 9)), np.full(9, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="mode overlaps overflow"):
            OverlapTable.from_modes([f], [[f]], ["a"])


def test_gram_block_boundaries_do_not_matter(monkeypatch):
    # the blocked reduction must agree with one product over all samples
    rng = np.random.default_rng(12)
    rows = [rng.normal(size=(40, 50)) + 1j * rng.normal(size=(40, 50)) for _ in range(4)]
    weights = rng.uniform(0.5, 1.5, size=(40, 50))
    whole = modes.weighted_gram(rows, weights)
    monkeypatch.setattr(modes, "GRAM_BLOCK", 333)
    blocked = modes.weighted_gram(rows, weights)
    assert np.max(np.abs(blocked - whole)) < 1e-12 * np.max(np.abs(whole))
    assert np.array_equal(blocked, blocked.conj().T)


class TestEvaluateOnce:
    """A CLI run evaluates its family once.

    A built-in family's table is one stacked evaluation of the family's
    declaration (``_Separable.unit_factors``): theta = 0 and, by finite
    differences, the 4 P shifted modes in the same pass; the derivative
    modes are read off its stacks.  A family whose ``mode_fn`` is swapped
    takes the route row by row, one ``mode_fn`` call per mode, each a
    stacked evaluation of one row.
    """

    # (geometry, grid points of the export, parameters)
    FAMILIES = {
        "gaussian-beam": ({"w0": 1.0, "k": 10.0}, 32, 6),
        "gaussian-pulse": ({"omega0": 100.0, "variance": 25.0}, 256, 3),
    }

    # (evaluate, evaluate_mode, derivative_mode, mode_fn, rows per stacked
    # evaluation) for P parameters
    EXPECTED = {
        ("analytic", "stacked"): lambda p: (0, 0, 0, 0, [1]),
        ("finite-difference", "stacked"): lambda p: (0, 0, 0, 0, [1 + 4 * p]),
        ("analytic", "row-by-row"): lambda p: (1, 1, p, 1, [1]),
        # four shifted mode_fn calls per derivative mode, plus the
        # reference; the shifts bypass evaluate_mode, whose checks their
        # difference repeats
        ("finite-difference", "row-by-row"): lambda p: (1, 1, p, 1 + 4 * p, [1] * (1 + 4 * p)),
    }

    @pytest.fixture(params=["stacked", "row-by-row"])
    def route(self, request):
        return request.param

    @pytest.fixture
    def counts(self, monkeypatch, route):
        counts = {"evaluate": 0, "evaluate_mode": 0, "derivative_mode": 0, "mode_fn": 0, "rows": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("evaluate", "evaluate_mode"):
            monkeypatch.setattr(
                ParameterFamily, name, counting(name, getattr(ParameterFamily, name))
            )
        wrapped = counting("derivative_mode", families.derivative_mode)
        for module in (modes, families, engine, cli):
            if hasattr(module, "derivative_mode"):
                monkeypatch.setattr(module, "derivative_mode", wrapped)
        unit_factors = families._Separable.unit_factors

        def stacked(separable, thetas):
            counts["rows"].append(len(thetas))
            return unit_factors(separable, thetas)

        monkeypatch.setattr(families._Separable, "unit_factors", stacked)

        def build_family(*args, **kwargs):
            family = families.build_family(*args, **kwargs)
            return dataclasses.replace(family, mode_fn=counting("mode_fn", family.mode_fn))

        if route == "row-by-row":
            monkeypatch.setattr(cli, "build_family", build_family)
        return counts

    def expected(self, method, route, n_parameters):
        names = ("evaluate", "evaluate_mode", "derivative_mode", "mode_fn", "rows")
        return dict(zip(names, self.EXPECTED[method, route](n_parameters)))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("method", ["analytic", "finite-difference"])
    def test_run_evaluates_family_and_derivatives_once(
        self, counts, route, tmp_path, method, family
    ):
        geometry, _, n_parameters = self.FAMILIES[family]
        config = cli.RunConfig(
            family=family,
            geometry=geometry,
            state={"kind": "coherent", "nbar": 1.0},
            out=tmp_path,
            derivative_method=method,
        )
        cli._assemble_report(config)
        assert counts == self.expected(method, route, n_parameters)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("method", ["analytic", "finite-difference"])
    def test_detection_mode_export_evaluates_each_derivative_once(
        self, counts, route, tmp_path, method, family
    ):
        # the detection modes are formed from the derivative modes the
        # table was built from, and the readout basis from the table: a
        # stacked table's modes, closed-form or finite-difference, are
        # read off its stacks
        geometry, points, n_parameters = self.FAMILIES[family]
        config = cli.RunConfig(
            family=family,
            geometry=geometry,
            state=None,
            out=tmp_path,
            grid_points=points,
            derivative_method=method,
        )
        cli._write_run(config.out, cli._COMMANDS["detection-modes"](config))
        assert counts == self.expected(method, route, n_parameters)


class TestReadoutBasis:
    """The readout basis factored from the table against Gram-Schmidt on the samples."""

    @pytest.mark.parametrize("derivatives", ["analytic", "fd"])
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_matches_gram_schmidt_on_the_samples(self, request, fixture, derivatives):
        family = request.getfixturevalue(fixture)
        if derivatives == "fd":
            family = finite_difference_family(family)
        detections = detection_modes_for(family)
        readout, pivots, dependent = cli._readout_basis(family, detections)

        live = [d for d in detections if not d.degenerate]
        oracle = gram_schmidt([d.mode for d in live])
        kept = [d.label for i, d in enumerate(live) if i not in oracle.dependent_indices]
        assert list(readout) == kept
        assert dependent == [live[i].label for i in oracle.dependent_indices]

        expected = np.array([q.samples.ravel() for q in oracle.basis.modes])
        samples = np.array(list(readout.values()))
        assert np.max(np.abs(samples - expected)) <= 1e-13 * np.max(np.abs(expected))
        for i, d in enumerate(live):
            if d.label in dependent:
                assert pivots[d.label] < 1e-6
            else:
                assert abs(pivots[d.label] - oracle.pivot_norms[i]) <= 1e-13
        gram = modes.grid_gram(family.grid, [q.reshape(family.grid.shape) for q in samples])
        assert np.max(np.abs(gram - np.eye(len(kept)))) <= TAU_ORTH

    @staticmethod
    def pair_family(pivot):
        """Two derivative modes whose detection modes have the given pivot norm."""
        grid = modes.SampleGrid.uniform(np.linspace(-8.0, 8.0, 801))
        x = grid.axes[0]

        def unit(samples):
            return samples / np.sqrt(np.sum(grid.weights * np.abs(samples) ** 2))

        f, g1, g2 = (unit(p * np.exp(-(x**2) / 2.0)) for p in (1.0, x, 2.0 * x**2 - 1.0))
        second = np.sqrt(1.0 - pivot**2) * g1 + pivot * g2
        populated = [modes.Mode(grid, f)]
        derivatives = [[modes.Mode(grid, g1)], [modes.Mode(grid, second)]]
        return family_from_modes(populated, derivatives, ("a", "b"))

    def test_squared_pivot_above_tau_rank_is_kept(self, tmp_path):
        family = self.pair_family(1e-3)
        sidecar = export_detection_modes(family, tmp_path)["readout_basis"]
        assert sidecar["kept"] == ["a", "b"]
        assert sidecar["dependent_on_predecessors"] == []
        assert sidecar["pivot_norms"]["b"] == pytest.approx(1e-3, rel=1e-9)

    def test_squared_pivot_below_tau_rank_is_dependent(self, tmp_path):
        # pivot 1e-6 is above TAU_RANK, but its square, all that the Gram
        # matrix resolves, is below it; Gram-Schmidt on the samples, which
        # held the pivot itself to TAU_RANK, kept this mode
        family = self.pair_family(1e-6)
        sidecar = export_detection_modes(family, tmp_path)["readout_basis"]
        assert sidecar["kept"] == ["a"]
        assert sidecar["dependent_on_predecessors"] == ["b"]
        assert sidecar["pivot_norms"]["b"] == pytest.approx(1e-6, rel=1e-3)
        oracle = gram_schmidt([d.mode for d in detection_modes_for(family)])
        assert oracle.dependent_indices == ()


def test_finite_difference_step_follows_small_parameter_scales():
    # at k = 1e5 the tilt scale is 1e-5: a step floored at 1e-4 would tilt
    # the phase by tens of radians across the grid
    family = gaussian_beam_family(BeamGeometry(waist=1.0, wavenumber=1e5))
    state = probe_state("coherent", nbar=1.0)
    analytic = qfim_mode_split(state, family)
    fd = qfim_mode_split(state, finite_difference_family(family))
    scale = np.sqrt(np.outer(np.diag(analytic), np.diag(analytic)))
    assert np.max(np.abs(fd - analytic) / scale) < 1e-6


class TestFamilyDerivativeRule:
    def counted(self, family):
        calls = []

        def derivative_fn(k, a):
            calls.append((k, a))
            return family.derivative_fn(k, a)

        return dataclasses.replace(family, derivative_fn=derivative_fn), calls

    def test_engine_takes_each_derivative_once(self, pulse_family):
        family, calls = self.counted(pulse_family)
        spec = {"kind": "coherent", "nbar": 1.0}
        build_generators(family)
        qfim_mode_split(probe_state(**spec), family)
        qfim_single_mode(photon_statistics(spec), family)
        attainability_single_mode(family, photon_statistics(spec))
        # P * M derivative modes in all, not P * M per call
        assert sorted(calls) == [(0, a) for a in range(family.n_parameters)]

    def test_multimode_family_takes_each_derivative_once(self):
        populated, derivatives = random_mode_parameter_data(np.random.default_rng(31), 3, 2)
        family = ParameterFamily(
            name="random",
            parameters=("a", "b", "c"),
            units=("1",) * 3,
            grid=populated[0].grid,
            theta_scales=np.ones(3),
            mode_fn=lambda k, theta: populated[k].samples,
            derivative_fn=lambda k, a: derivatives[a][k].samples,
            n_modes=2,
        )
        family, calls = self.counted(family)
        state = probe_state("coherent", FockSpace(2, 14), nbar=1.0)
        build_generators(family)
        qfim_mode_split(state, family)
        assert sorted(calls) == [(k, a) for k in range(2) for a in range(3)]

    @pytest.mark.parametrize(
        "function",
        [
            build_generators,
            qfim_mode_split,
            qfim_single_mode,
            attainability_single_mode,
            detection_modes_for,
            families.derivative_mode,
            cli._detection_mode_files,
        ],
    )
    def test_no_derivative_knobs_left(self, function):
        assert not {"method", "step", "table"} & set(inspect.signature(function).parameters)

    def test_family_without_derivatives_names_the_remedy(self, pulse_family):
        bare = dataclasses.replace(pulse_family, derivative_fn=None)
        with pytest.raises(StructuralError, match="finite_difference_family"):
            families.derivative_mode(bare, 0, 0)
        fd = finite_difference_family(bare)
        reference = families.derivative_mode(pulse_family, 0, 1)
        assert np.max(np.abs(families.derivative_mode(fd, 0, 1).samples - reference.samples)) < 1e-6

    def test_finite_difference_family_is_a_new_family(self, pulse_family):
        fd = finite_difference_family(pulse_family)
        assert fd is not pulse_family
        assert fd.derivative_fn is not pulse_family.derivative_fn
        assert fd.overlap_table is not pulse_family.overlap_table
        assert fd.overlap_table is fd.overlap_table  # built once

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan")])
    def test_step_must_be_positive(self, pulse_family, step):
        with pytest.raises(ValueError, match="step must be positive"):
            finite_difference_family(pulse_family, step)

    def test_step_below_the_floor_names_the_parameter(self, beam_family):
        # every shifted mode would round to the reference: an all-zero table
        with pytest.raises(ValueError, match="parameter 'x0'"):
            finite_difference_family(beam_family, 1e-300)

    def test_non_finite_difference_names_the_parameter(self):
        grid = modes.SampleGrid.uniform(np.linspace(-1.0, 1.0, 9))

        def mode_fn(k, theta):
            # finite at each shift, but the difference overflows
            return np.full(grid.shape, 1.7e308 * np.sign(theta[1]))

        family = ParameterFamily(
            name="overflowing",
            parameters=("a", "b"),
            units=("1", "1"),
            grid=grid,
            theta_scales=np.ones(2),
            mode_fn=mode_fn,
        )
        with pytest.raises(EvaluationError, match="parameter 'b'"):
            families.derivative_mode(finite_difference_family(family), 0, 1)

    def test_huge_step_names_the_parameter(self):
        # every shifted beam lies off the grid: the rule's own failure is
        # named, as a non-finite difference is, and numpy stays quiet
        beam = gaussian_beam_family(BeamGeometry(1.0, 10.0), points=64)
        family = finite_difference_family(beam, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="parameter 'x0'"):
                families.derivative_mode(family, 0, 0)

    def test_non_finite_closed_form_names_the_parameter(self):
        # the one finiteness check of a derivative row names the parameter
        # for a closed-form rule as for a finite difference
        grid = modes.SampleGrid.uniform(np.linspace(-1.0, 1.0, 9))

        def derivative_fn(k, a):
            return np.full(grid.shape, np.inf if a == 1 else 1.0)

        family = ParameterFamily(
            name="closed-form",
            parameters=("a", "b"),
            units=("1", "1"),
            grid=grid,
            theta_scales=np.ones(2),
            mode_fn=lambda k, theta: np.full(grid.shape, 0.5),
            derivative_fn=derivative_fn,
        )
        with pytest.raises(EvaluationError, match="parameter 'b'"):
            family.overlap_table

    @pytest.mark.parametrize("name", ["beam_family", "pulse_family"])
    def test_non_finite_shift_names_the_parameter(self, request, name):
        # product-sum and array modes alike: one NaN shift, at -h/2 of the
        # parameter, reaches the one check of the combined difference
        family = request.getfixturevalue(name)
        parameter = 1
        fine = 1e-4 * abs(float(family.theta_scales[parameter])) / 2.0

        def mode_fn(k, theta):
            samples = family.mode_fn(k, theta)
            return float("nan") * samples if theta[parameter] == -fine else samples

        fd = finite_difference_family(dataclasses.replace(family, mode_fn=mode_fn))
        label = family.parameters[parameter]
        with pytest.raises(EvaluationError, match=f"parameter '{label}'"):
            families.derivative_mode(fd, 0, parameter)
        families.derivative_mode(fd, 0, 0)  # the other shifts are finite

    @pytest.mark.parametrize("index", [-1, 1, 5])
    def test_mode_index_outside_the_family_rejected(self, beam_family, index):
        for family in (beam_family, finite_difference_family(beam_family)):
            with pytest.raises(StructuralError, match=f"mode index {index} outside"):
                families.derivative_mode(family, index, 0)


def test_detection_mode_weights_equal_report_weights_bitwise(tmp_path):
    args = [
        "--family", "gaussian-beam",
        "--geometry", '{"w0": 1.0, "k": 10.0}',
        "--grid-points", "128",
    ]  # fmt: skip
    state = ["--state", '{"kind": "coherent", "nbar": 1.0}']
    assert cli.main(["qfim", *args, *state, "--out", str(tmp_path / "q")]) == 0
    assert cli.main(["detection-modes", *args, "--out", str(tmp_path / "d")]) == 0
    report = json.loads((tmp_path / "q" / "report.json").read_text())["detection_modes"]
    sidecar = json.loads((tmp_path / "d" / "detection_modes.json").read_text())
    assert sidecar["weights"] == report["weights"]
    assert sidecar["degenerate"] == report["degenerate"] == [False] * 6


def test_one_degeneracy_rule_for_report_and_export(tmp_path, monkeypatch, displaced_family):
    # a y0 derivative of 1e-15 of its natural size: the weight is far below
    # TAU_ZERO / scale yet not zero, and both outputs call it degenerate
    def derivative_fn(k, a):
        d = displaced_family.derivative_fn(k, a)
        return d if a == 0 else 1e-15 * d

    family = dataclasses.replace(displaced_family, derivative_fn=derivative_fn)
    monkeypatch.setattr(cli, "build_family", lambda *args, **kwargs: family)
    config = cli.RunConfig(
        family="displaced-beam",
        geometry={"w0": 1.0},
        state={"kind": "coherent", "nbar": 1.0},
        out=tmp_path,
    )
    report = cli._assemble_report(config)[0]["detection_modes"]
    sidecar = export_detection_modes(family, tmp_path)
    assert 0.0 < report["weights"][1] < 1e-12
    assert report["degenerate"] == sidecar["degenerate"] == [False, True]


def test_drifting_family_warns_once_per_report(tmp_path, monkeypatch, displaced_family):
    # a derivative with a real overlap onto its mode: the generator is not
    # Hermitian, and the run's generators are formed once
    reference = displaced_family.mode_fn(0, np.zeros(2))

    def derivative_fn(k, a):
        return displaced_family.derivative_fn(k, a) + 0.5 * reference

    family = dataclasses.replace(displaced_family, derivative_fn=derivative_fn)
    monkeypatch.setattr(cli, "build_family", lambda *args, **kwargs: family)
    config = cli.RunConfig(
        family="displaced-beam",
        geometry={"w0": 1.0},
        state={"kind": "coherent", "nbar": 1.0},
        out=tmp_path,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli._assemble_report(config)
    drift = [w for w in caught if "Hermiticity" in str(w.message)]
    assert len(drift) == 1


def test_drift_warning_names_the_caller(tmp_path):
    # the coarse finite-difference run that drifts: the warning points at
    # the first frame outside the package and functools, here this file
    argv = [
        "qfim",
        "--family", "gaussian-beam",
        "--geometry", '{"w0": 1, "k": 10}',
        "--grid-points", "128",
        "--fd-step", "0.3",
        "--state", '{"kind": "coherent", "nbar": 1}',
        "--out", str(tmp_path),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    drift = [w for w in caught if "Hermiticity" in str(w.message)]
    assert [w.filename for w in drift] == [__file__]
