"""Spectral defect angle and eigenvalue location.

Gamma(E) = alpha_minus(b, E) - alpha(b, E) is strictly increasing in E, so
every crossing Gamma = n pi brackets exactly one eigenvalue and the sign of
Gamma - n pi certifies every bracket.  Near an eigenvalue Gamma is nearly
step-shaped (exactly a step in the infinite-interval limit), so brackets
shrink by that sign rule instead of a superlinear method.  Each pass splits
every bracket _SPLIT ways: a batched pass costs nearly the same at 10
energies as at 150, so 8 pieces gain 3 bits per level for the price of 1.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import trapezoid

from . import cues
from .angular import (_integrate_vector, _scaled_fun, integrate_angle_sampled,
                      integrate_angles)
from .errors import (DomainError, IntervalSelectionError, MonotonicityError,
                     ThresholdError)
from .potentials import ConstantLevel, ProblemSpec, Shifted

_MONOTONE_JITTER = 1e-9     # integrator noise allowance on Gamma scans
_MAX_REFINE_ROUNDS = 14     # scan refinement rounds before bracketing
_SPLIT = 8                  # pieces each bracket is cut into per pass


@dataclass(frozen=True)
class SolveConfig:
    """Integrator tolerances and the knobs of the spectrum and oracle."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    e_tol: float = 1e-10
    residual_tol: float = 1e-10
    kappa: float = 1e-3
    scan_samples: int = 64

    def __post_init__(self):
        if not all(tol > 0 for tol in (self.rel_tol, self.abs_tol, self.e_tol,
                                       self.residual_tol, self.kappa)):
            raise ValueError("tolerances must be positive")
        if self.scan_samples < 2:
            raise ValueError("need at least two scan samples")


@dataclass(frozen=True)
class DefectSample:
    """One (E, Gamma) evaluation; n_below counts levels at or below E."""

    E: float
    gamma: float

    @property
    def n_below(self) -> int:
        if self.gamma < 0:
            return 0
        return int(math.floor(self.gamma / math.pi)) + 1


@dataclass(frozen=True)
class Eigenvalue:
    """Level n at the midpoint of its final bracket, `width` wide in E."""

    n: int
    energy: float
    width: float


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: Tuple[Eigenvalue, ...]
    scan: Tuple[DefectSample, ...]
    problem: ProblemSpec
    config: SolveConfig

    @property
    def energies(self) -> np.ndarray:
        return np.array([ev.energy for ev in self.eigenvalues])


@dataclass(frozen=True)
class EigenfunctionSamples:
    t: np.ndarray
    alpha: np.ndarray
    log_rho: np.ndarray
    psi: np.ndarray

    def node_count(self, rel_floor: float = 1e-6) -> int:
        """Sign changes of psi, ignoring sub-floor wiggle in the tails."""
        psi = self.psi
        keep = np.abs(psi) > rel_floor * np.max(np.abs(psi))
        signs = np.sign(psi[keep])
        return int(np.sum(signs[1:] * signs[:-1] < 0))


# ---------------------------------------------------------------------------
# Interval selection
# ---------------------------------------------------------------------------

def auto_interval(problem: ProblemSpec, E_min: float, E_max: float,
                  config: SolveConfig) -> Tuple[float, float]:
    """Working interval [a, b]: cues valid outside, tails cleared by kappa.

    Each tail class bounds its own side (see `cues`): constant tails at the
    support edge, series tails by geometric growth from a family seed until
    the cue residual passes at both energy extremes, and 0+ singularities
    by shrinking toward the singularity, floored at 1e-4.
    """
    if problem.interval is not None:
        return problem.interval
    if not E_max < problem.threshold():
        raise ThresholdError(
            f"E_max = {E_max} is not below the tail threshold "
            f"{problem.threshold()}")
    a = problem.left_tail.bound(problem, "left", E_min, E_max, config)
    b = problem.right_tail.bound(problem, "right", E_min, E_max, config)
    if not a < b:
        raise IntervalSelectionError(f"degenerate interval ({a}, {b})")
    return a, b


# ---------------------------------------------------------------------------
# Defect angle
# ---------------------------------------------------------------------------

def defect_angles(problem: ProblemSpec, energies: Sequence[float],
                  config: SolveConfig = None,
                  interval: Optional[Tuple[float, float]] = None
                  ) -> List[DefectSample]:
    """Batched Gamma(E) evaluation on a shared interval."""
    config = config or SolveConfig()
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    threshold = problem.threshold()
    if not np.all(energies < threshold):
        raise ThresholdError(
            f"energies must lie below the tail threshold {threshold}")
    if interval is None:
        interval = auto_interval(problem, float(energies.min()),
                                 float(energies.max()), config)
    a, b = interval
    starts = np.array([cues.left_boundary_angle(problem, E, a)
                       for E in energies])
    alphas, _ = integrate_angles(problem, energies, starts, a, b, config)
    out = []
    for E, alpha in zip(energies, alphas):
        alpha_minus = cues.right_boundary_angle(problem, float(E), b)
        out.append(DefectSample(E=float(E), gamma=alpha_minus - float(alpha)))
    return out


def defect_angle(problem: ProblemSpec, E: float,
                 config: SolveConfig = None) -> DefectSample:
    """Gamma(E) = alpha_minus(b, E) - alpha(b, E) on the resolved interval."""
    return defect_angles(problem, [E], config)[0]


def count_levels(problem: ProblemSpec, E_ceiling: float,
                 config: SolveConfig = None) -> int:
    """Number of eigenvalues at or below E_ceiling."""
    return defect_angle(problem, E_ceiling, config).n_below


# ---------------------------------------------------------------------------
# Root finding on Gamma(E) = n pi (and the scaled variant)
# ---------------------------------------------------------------------------

def _scaled_defects(problem, energies, config, interval):
    """Defect of the squeezing-adapted chart; roots at n pi as well.

    Requires equal constant tails; the potential and energies are shifted so
    the tails sit at zero and E < 0, where the chart is defined.
    """
    left, right = problem.left_tail, problem.right_tail
    if not (isinstance(left, ConstantLevel) and isinstance(right, ConstantLevel)
            and left.level == right.level):
        raise DomainError("the scaled chart needs equal constant tails")
    v0 = left.level
    shifted = replace(problem, potential=Shifted(problem.potential, -v0))
    potential = shifted.effective_potential()
    energies = np.asarray(energies, dtype=float) - v0
    a, b = interval
    starts = np.full(energies.shape, math.pi / 4.0)
    alphas, _, _ = _integrate_vector(_scaled_fun(potential, energies), a, b,
                                     starts, config, potential.breakpoints())
    return [DefectSample(E=float(E) + v0, gamma=-math.pi / 4.0 - float(al))
            for E, al in zip(energies, alphas)]


def _interior(e1, e2):
    """The _SPLIT - 1 evenly spaced energies strictly inside (e1, e2)."""
    return list(np.linspace(e1, e2, _SPLIT + 1)[1:-1])


def _scan_and_split(sample_fn, E_min, E_max, config, enforce_monotone=True):
    """Adaptive scan, pi-crossing bracketing and lock-step splitting.

    Every pass cuts each active interval into _SPLIT pieces and evaluates
    all their interior energies in one sample_fn call.  A bracket for
    level n keeps Gamma < n pi at its left end and Gamma >= n pi at its
    right end: the piece kept ends at the first point with Gamma >= n pi.
    enforce_monotone is dropped for the scaled chart, whose defect only
    crosses each multiple of pi once but may wiggle in between (the
    chart itself depends on E); single-crossing keeps that sign rule
    exact either way.
    """
    Es = list(np.linspace(E_min, E_max, config.scan_samples))
    samples = {E: s for E, s in zip(Es, sample_fn(Es))}

    for _ in range(_MAX_REFINE_ROUNDS):
        keys = sorted(samples)
        inner = [E for e1, e2 in zip(keys, keys[1:])
                 if abs(samples[e2].gamma - samples[e1].gamma) > math.pi / 2
                 and e2 - e1 > config.e_tol
                 for E in _interior(e1, e2)]
        if not inner:
            break
        samples.update(zip(inner, sample_fn(inner)))

    keys = sorted(samples)
    gammas = [samples[e].gamma for e in keys]
    drops = [g2 - g1 for g1, g2 in zip(gammas, gammas[1:])]
    if enforce_monotone and drops and min(drops) < -_MONOTONE_JITTER:
        raise MonotonicityError(
            f"defect angle decreased by {-min(drops):.3e} along the scan; "
            "the integrator or a cue is misconfigured")

    brackets = []
    claimed = set()
    for (e1, e2), (g1, g2) in zip(zip(keys, keys[1:]),
                                  zip(gammas, gammas[1:])):
        n_lo = max(0, math.ceil(g1 / math.pi - 1e-13))
        n_hi = math.floor(g2 / math.pi + 1e-13)
        for n in range(n_lo, n_hi + 1):
            if n not in claimed:
                claimed.add(n)
                brackets.append([n, e1, e2])

    for _ in range(200):
        active = [br for br in brackets if br[2] - br[1] > config.e_tol]
        if not active:
            break
        points = [_interior(br[1], br[2]) for br in active]
        found = sample_fn([E for pts in points for E in pts])
        for i, (br, pts) in enumerate(zip(active, points)):
            inner = found[i * (_SPLIT - 1):(i + 1) * (_SPLIT - 1)]
            ends = [br[1]] + pts + [br[2]]
            k = next((j for j, sample in enumerate(inner)
                      if sample.gamma >= br[0] * math.pi), _SPLIT - 1)
            br[1], br[2] = ends[k], ends[k + 1]

    eigenvalues = [Eigenvalue(n=n, energy=0.5 * (e1 + e2), width=e2 - e1)
                   for n, e1, e2 in brackets]
    eigenvalues.sort(key=lambda ev: ev.energy)
    scan = tuple(samples[e] for e in keys)
    return tuple(eigenvalues), scan


def _solve(problem, E_min, E_max, config, defects, enforce_monotone=True):
    """Scan and split on one interval, resolved at the energy extremes.

    defects(problem, energies, config, interval) returns DefectSamples.
    """
    config = config or SolveConfig()
    if not E_min < E_max:
        raise DomainError("need E_min < E_max")
    interval = auto_interval(problem, E_min, E_max, config)

    def sample(energies):
        return defects(problem, energies, config, interval)

    eigenvalues, scan = _scan_and_split(sample, E_min, E_max, config,
                                        enforce_monotone)
    return SpectrumResult(eigenvalues=eigenvalues, scan=scan,
                          problem=problem.with_interval(*interval),
                          config=config)


def find_eigenvalues(problem: ProblemSpec, E_min: float, E_max: float,
                     config: SolveConfig = None) -> SpectrumResult:
    """All eigenvalues in [E_min, E_max], bracketed via the monotone defect.

    The interval is resolved once per run at the energy extremes; every
    Gamma evaluation in the scan and the lock-step splitting shares it.
    Each final bracket is at most config.e_tol wide, often narrower: the
    last pass cuts it _SPLIT ways.
    """
    return _solve(problem, E_min, E_max, config, defect_angles)


def find_eigenvalues_scaled(problem: ProblemSpec, E_min: float, E_max: float,
                            config: SolveConfig = None) -> SpectrumResult:
    """Eigenvalues via the squeezing-adapted chart (equal constant tails).

    Cross-validates the plain pipeline: the total angular change satisfies
    (n + 1/2) pi at the same energies the plain defect crosses n pi.
    """
    return _solve(problem, E_min, E_max, config, _scaled_defects,
                  enforce_monotone=False)


# ---------------------------------------------------------------------------
# Eigenfunction reconstruction
# ---------------------------------------------------------------------------

def reconstruct_eigenfunction(problem: ProblemSpec, E_n: float,
                              grid: Sequence[float],
                              config: SolveConfig = None
                              ) -> EigenfunctionSamples:
    """psi = rho cos(alpha) on the grid, normalized by the trapezoid rule.

    E_n should be an accepted eigenvalue; the node count of psi then equals
    its branch index.
    """
    config = config or SolveConfig()
    grid = np.asarray(sorted(grid), dtype=float)
    # no call when the interval is set: auto_interval calls count selections
    a, b = problem.interval or auto_interval(problem, E_n, E_n + 1e-14,
                                             config)
    if grid[0] < a or grid[-1] > b:
        raise DomainError(f"grid must lie inside the interval [{a}, {b}]")
    alpha_a = cues.left_boundary_angle(problem, E_n, a)
    ts, alphas, logs = integrate_angle_sampled(problem, E_n, alpha_a, a, b,
                                               config, t_eval=grid)
    # segment stitching may duplicate boundary points; keep grid points only
    idx = np.searchsorted(ts, grid)
    t_s, alpha_s, log_s = ts[idx], alphas[idx], logs[idx]
    log_shift = log_s - np.max(log_s)
    psi = np.exp(log_shift) * np.cos(alpha_s)
    norm = math.sqrt(trapezoid(psi * psi, t_s))
    if norm > 0:
        psi = psi / norm
    peak = np.argmax(np.abs(psi))
    if psi[peak] != 0:
        first = np.nonzero(np.abs(psi) > 0.05 * abs(psi[peak]))[0][0]
        if psi[first] < 0:
            psi = -psi
    return EigenfunctionSamples(t=t_s, alpha=alpha_s, log_rho=log_s, psi=psi)
