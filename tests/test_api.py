"""The public API holds the routes the library runs, and nothing else.

The strong-mean-field route, the readout forward model, the Gram-Schmidt
readout basis, the photon-number moments, the pairwise inner product, the
mode-list wrapper, the Fock-operator helper and the one-mode Fock states of
the named probe kinds are test oracles (``conftest.py``); a second way to
build generators, a generator object beside the overlap table it copies,
a per-mode detection-mode builder, a second check of coefficient input,
a second statement of the degeneracy floor and the report wrappers of the
CLI are gone.  The report schema lives in ``test_cli.py``, its only
reader.  The modules below the engine do not import it, and the CLI
imports only public engine names.  The README's library example runs as
written.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import modal_qcrb
from modal_qcrb.states import ProbeKind

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(modal_qcrb.__file__).parent

PUBLIC = {
    "__version__",
    # modes
    "SampleGrid",
    "ProductSum",
    "Mode",
    "DetectionMode",
    "OverlapTable",
    "weighted_gram",
    "derivative_mode",
    "finite_difference_family",
    # states
    "FockSpace",
    "DensityState",
    "PhotonStatistics",
    "make_state",
    "photon_statistics",
    "first_moments",
    "operator_matrix_elements",
    # engine
    "QfimReport",
    "AttainabilityResult",
    "SingleModeAttainability",
    "build_generators",
    "qfim_unitary",
    "qfim_mode_split",
    "qfim_single_mode",
    "attainability",
    "attainability_single_mode",
    "crb_bounds",
    "detection_modes_for",
    # families
    "ParameterFamily",
    "BeamGeometry",
    "PulseSpectrum",
    "gaussian_beam_family",
    "gaussian_pulse_family",
    "displaced_beam_family",
    "transverse_grid",
    "spectral_grid",
    "build_family",
    "FAMILY_REGISTRY",
    # errors
    "ModalQcrbError",
    "GridMismatchError",
    "StructuralError",
    "EvaluationError",
    "CutoffError",
    "GridResolutionError",
    "PreconditionError",
    "ConfigError",
}

ORACLES_AND_DUPLICATES = (
    "qfim_mean_field",
    "mean_field_fluctuation_check",
    "ReadoutMeans",
    "readout_means",
    "gram_schmidt_readout",
    "generators_from_modes",
    "GaussianState",
    "quadrature_covariance",
    "GramSchmidtResult",
    "gram_schmidt",
    "number_moments",
    "number_information",
    "ModeBasis",
    "inner_product",
    "mode_norm",
    "detection_mode",
    "apply_quadratic",
    "_coherent_amplitudes",
    "_fock_amplitudes",
    "_thermal_probabilities",
    "_squeezed_amplitudes",
    "_SEARCH_LEVELS",
    "_suggest_cutoff",
    "_embed",
    "_coefficient_stack",
    "_check_coefficients",
    "ReportBundle",
    "RunResult",
    "GeneratorCoefficients",
    "_generators_from_table",
    "REPORT_SCHEMA",
    "_weight_floors",
)


def test_all_is_the_expected_set():
    assert len(PUBLIC) == 45
    assert sorted(modal_qcrb.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    assert [name for name in modal_qcrb.__all__ if not hasattr(modal_qcrb, name)] == []


@pytest.mark.parametrize(
    "module",
    ["modal_qcrb", "modal_qcrb.engine", "modal_qcrb.states", "modal_qcrb.modes", "modal_qcrb.cli"],
)
def test_oracles_are_not_library_names(module):
    namespace = importlib.import_module(module)
    assert [name for name in ORACLES_AND_DUPLICATES if hasattr(namespace, name)] == []


def _imports(path: Path) -> dict[str, set[str]]:
    """Modules a source file imports, relative ones as written (``.engine``).

    Each maps to the names taken from it (``from .engine import x``).
    """
    names: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.setdefault(module, set()).update(alias.name for alias in node.names)
            if module in (".", "modal_qcrb"):  # from . import engine
                for alias in node.names:
                    names.setdefault(module.rstrip(".") + "." + alias.name, set())
    return names


@pytest.mark.parametrize("module", ["families", "modes", "states"])
def test_modules_below_the_engine_do_not_import_it(module):
    imported = _imports(PACKAGE / f"{module}.py")
    assert not {".engine", "modal_qcrb.engine"} & imported.keys(), imported


def test_cli_imports_only_public_engine_names():
    imported = _imports(PACKAGE / "cli.py")
    names = imported.get(".engine", set()) | imported.get("modal_qcrb.engine", set())
    assert names and names <= set(modal_qcrb.__all__), names


def test_oracle_tolerances_are_not_library_tolerances():
    from modal_qcrb import tolerances

    assert not hasattr(tolerances, "TAU_COV")
    assert not hasattr(tolerances, "TAU_OVERLAP")


def test_probe_kinds_hold_only_spec_fields_and_closed_forms():
    assert ProbeKind._fields == ("fields", "statistics")


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block reads the names of the first
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["compat"].attainable
    gaps = [float(line) for line in capsys.readouterr().out.splitlines() if re.fullmatch(r"[-+.e\d]+", line)]
    assert len(gaps) == 2 and max(gaps) < 1e-14
