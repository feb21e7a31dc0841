"""Eigenvalues of 1-d and radial Schroedinger wells via the angular Riccati
flow and the monotone spectral defect angle."""

from .angular import AngularState, IntegratorConfig, integrate_angle
from .cues import (CueSeries, coulomb_zero_cue_coeffs, oscillator_cue_coeffs,
                   verify_cue_residual, yukawa_zero_cue_coeffs)
from .errors import (ConfigError, DomainError, IntegrationError,
                     IntervalSelectionError, MonotonicityError,
                     SpectralDefectError, ThresholdError)
from .oracle import (FdResult, PhaseState, TransferMatrix, fd_eigenvalues,
                     propagate_phase, transfer_matrix, transfer_mismatch)
from .potentials import (Coulomb, HalfLine, HybridOscillator,
                         PiecewiseConstant, ProblemSpec, QuarkHybrid,
                         SquareWell, Tabulated, TruncatedOscillator,
                         WholeLine, Yukawa, effective_radial, problem_for,
                         validate_problem)
from .spectrum import (DefectSample, Eigenvalue, EigenfunctionSamples,
                       SolveConfig, SpectrumResult, auto_interval,
                       count_levels, defect_angle, defect_angles,
                       find_eigenvalues,
                       find_eigenvalues_scaled, reconstruct_eigenfunction)

__version__ = "0.1.0"
