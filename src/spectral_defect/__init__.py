"""Eigenvalues of 1-d and radial Schroedinger wells via the angular Riccati
flow and the monotone spectral defect angle."""

from .cues import CueSeries, verify_cue_residual
from .errors import (ConfigError, DomainError, IntegrationError,
                     IntervalSelectionError, MonotonicityError,
                     SpectralDefectError, ThresholdError)
from .oracle import FdResult, fd_eigenvalues, transfer_mismatch
from .potentials import (Coulomb, HybridOscillator, PiecewiseConstant,
                         ProblemSpec, QuarkHybrid, SquareWell, Tabulated,
                         TruncatedOscillator, Yukawa, effective_radial,
                         problem_for)
from .spectrum import (DefectSample, Eigenvalue, EigenfunctionSamples,
                       SolveConfig, SpectrumResult, auto_interval,
                       count_levels, defect_angles, find_eigenvalues,
                       find_eigenvalues_scaled, reconstruct_eigenfunction)

__version__ = "0.1.0"
