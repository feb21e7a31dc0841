"""Eigenvalues of 1-d and radial Schroedinger wells via the angular Riccati
flow and the monotone spectral defect angle."""

from .angular import IntegratorConfig
from .cues import CueSeries, oscillator_cue_coeffs, verify_cue_residual
from .errors import (ConfigError, DomainError, IntegrationError,
                     IntervalSelectionError, MonotonicityError,
                     SpectralDefectError, ThresholdError)
from .oracle import (FdResult, PhaseState, TransferMatrix, fd_eigenvalues,
                     propagate_phase, transfer_matrix, transfer_mismatch)
from .potentials import (Coulomb, HybridOscillator, PiecewiseConstant,
                         ProblemSpec, QuarkHybrid, SquareWell, Tabulated,
                         TruncatedOscillator, Yukawa, effective_radial,
                         problem_for)
from .spectrum import (DefectSample, Eigenvalue, EigenfunctionSamples,
                       SolveConfig, SpectrumResult, auto_interval,
                       count_levels, defect_angle, defect_angles,
                       find_eigenvalues,
                       find_eigenvalues_scaled, reconstruct_eigenfunction)

__version__ = "0.1.0"
