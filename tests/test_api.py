"""The public API holds the routes the library runs, and nothing else.

The strong-mean-field route, the readout forward model, the Gram-Schmidt
readout basis and the photon-number moments are test oracles
(``conftest.py``); a second way to build generators is gone.
"""

import importlib

import pytest

import modal_qcrb

PUBLIC = {
    "__version__",
    # modes
    "SampleGrid",
    "ProductSum",
    "Mode",
    "ModeBasis",
    "DetectionMode",
    "OverlapTable",
    "inner_product",
    "weighted_gram",
    "mode_norm",
    "derivative_mode",
    "finite_difference_family",
    "detection_mode",
    # states
    "FockSpace",
    "DensityState",
    "PhotonStatistics",
    "make_state",
    "photon_statistics",
    "first_moments",
    "operator_matrix_elements",
    # engine
    "GeneratorCoefficients",
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
)


def test_all_is_the_expected_set():
    assert len(PUBLIC) == 50
    assert sorted(modal_qcrb.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    assert [name for name in modal_qcrb.__all__ if not hasattr(modal_qcrb, name)] == []


@pytest.mark.parametrize(
    "module", ["modal_qcrb", "modal_qcrb.engine", "modal_qcrb.states", "modal_qcrb.modes"]
)
def test_oracles_are_not_library_names(module):
    namespace = importlib.import_module(module)
    assert [name for name in ORACLES_AND_DUPLICATES if hasattr(namespace, name)] == []


def test_oracle_tolerances_are_not_library_tolerances():
    from modal_qcrb import tolerances

    assert not hasattr(tolerances, "TAU_COV")
    assert not hasattr(tolerances, "TAU_OVERLAP")
