"""Numerical tolerances shared across the library.

All values are dimensionless unless noted; thresholds that depend on a
physical scale are multiplied by that scale at the point of use.
"""

# Orthonormality of mode bases (max deviation of the Gram matrix from identity).
TAU_ORTH = 1e-10

# Relative pivot norm below which a mode is treated as linearly dependent.
TAU_RANK = 1e-8

# Detection-mode weight floor: weights below this (scaled by the caller's
# parameter scale) mark an unestimable parameter rather than an error.
TAU_ZERO = 1e-12

# Relative quadrature accuracy expected from the default grids.
TAU_QUAD = 1e-6

# Relative disagreement allowed between analytic and finite-difference
# derivative modes at the default step.
TAU_FD = 1e-6

# Hermiticity residual allowed in generator coefficient matrices.
TAU_HERM = 1e-8

# Attainability threshold, scaled per pair by weight_a * weight_b * <N>.
TAU_ATTAIN = 1e-10

# Positive semidefiniteness slack for information matrices, relative to ||F||.
TAU_PSD = 1e-9

# Probability mass allowed beyond the Fock-space truncation.
TAU_CUTOFF = 1e-10

# Eigenvalue floor for density-operator eigenvectors entering double sums.
TAU_PROB = 1e-14

# Slack on the eigenvalues of a density operator: how far below 0 one may
# fall, and how far from 1 their sum may be.
TAU_STATE_PROB = 1e-12

# Orthonormality of density-operator eigenvectors (max deviation of their
# Gram matrix from identity).
TAU_STATE_ORTH = 1e-10

# Symmetry and uncertainty-relation slack of Gaussian covariance matrices.
TAU_COV = 1e-10

# Slack of a detection-mode overlap magnitude above 1; the squared readout
# complement below this marks proportional detection modes.
TAU_OVERLAP = 1e-12

# Relative eigenvalue cutoff for the information-matrix pseudo-inverse.
PINV_RCOND = 1e-12

# Hard cap on the per-mode photon-number cutoff.
MAX_CUTOFF = 64


def as_dict() -> dict:
    """All tolerances as a plain dict, for report provenance blocks."""
    return {
        "tau_orth": TAU_ORTH,
        "tau_rank": TAU_RANK,
        "tau_zero": TAU_ZERO,
        "tau_quad": TAU_QUAD,
        "tau_fd": TAU_FD,
        "tau_herm": TAU_HERM,
        "tau_attain": TAU_ATTAIN,
        "tau_psd": TAU_PSD,
        "tau_cutoff": TAU_CUTOFF,
        "tau_prob": TAU_PROB,
        "pinv_rcond": PINV_RCOND,
        "max_cutoff": MAX_CUTOFF,
    }
