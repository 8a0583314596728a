"""Quantum Fisher information and Cramer-Rao bounds for mode-encoded parameters.

The library computes information matrices, attainability diagnostics and
detection modes for parameters that deform the spatial or spectral modes
of light while leaving the quantum state fixed in the co-moving basis.
"""

__version__ = "0.1.0"

from .engine import (
    AttainabilityResult,
    QfimReport,
    SingleModeAttainability,
    attainability,
    attainability_single_mode,
    build_generators,
    crb_bounds,
    detection_modes_for,
    qfim_mode_split,
    qfim_single_mode,
    qfim_unitary,
)
from .errors import (
    ConfigError,
    CutoffError,
    EvaluationError,
    GridMismatchError,
    GridResolutionError,
    ModalQcrbError,
    PreconditionError,
    StructuralError,
)
from .families import (
    FAMILY_REGISTRY,
    BeamGeometry,
    ParameterFamily,
    PulseSpectrum,
    build_family,
    derivative_mode,
    displaced_beam_family,
    finite_difference_family,
    gaussian_beam_family,
    gaussian_pulse_family,
    spectral_grid,
    transverse_grid,
)
from .modes import (
    DetectionMode,
    Mode,
    OverlapTable,
    ProductSum,
    SampleGrid,
    weighted_gram,
)
from .states import (
    DensityState,
    FockSpace,
    PhotonStatistics,
    first_moments,
    make_state,
    operator_matrix_elements,
    photon_statistics,
)

__all__ = [
    "__version__",
    # modes
    "SampleGrid",
    "ProductSum",
    "Mode",
    "DetectionMode",
    "OverlapTable",
    "weighted_gram",
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
    "derivative_mode",
    "finite_difference_family",
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
]
