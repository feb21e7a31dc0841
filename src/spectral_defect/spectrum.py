"""Spectral defect angle and eigenvalue location.

Gamma(E) = alpha_minus(b, E) - alpha(b, E) is strictly increasing in E, so
every crossing Gamma = n pi brackets exactly one eigenvalue and bisection is
certifiable.  Near an eigenvalue Gamma is nearly step-shaped (exactly a step
in the infinite-interval limit), which is why bisection is used instead of a
superlinear method.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import trapezoid

from . import cues
from .angular import IntegratorConfig, integrate_angle_sampled, integrate_angles
from .errors import (DomainError, IntervalSelectionError, MonotonicityError,
                     ThresholdError)
from .potentials import ConstantLevel, ProblemSpec, Shifted

_ZERO_FLOOR = 1e-4          # radial problems never start below this
_GROWTH = 1.5               # geometric interval growth factor
_MONOTONE_JITTER = 1e-9     # integrator noise allowance on Gamma scans
_MAX_REFINE_ROUNDS = 14     # scan refinement rounds before bracketing


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and knobs shared by the spectrum operations."""

    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    e_tol: float = 1e-10
    residual_tol: float = 1e-10
    kappa: float = 1e-3
    n_terms: int = cues.DEFAULT_N_TERMS
    scan_samples: int = 64

    def __post_init__(self):
        if not (self.e_tol > 0 and self.residual_tol > 0 and self.kappa > 0):
            raise ValueError("tolerances must be positive")
        if self.scan_samples < 2:
            raise ValueError("need at least two scan samples")
        if self.n_terms < 2:
            raise ValueError("n_terms must be at least 2, the shortest cue "
                             "series")


@dataclass(frozen=True)
class DefectSample:
    """One (E, Gamma) evaluation; n_below counts levels at or below E."""

    E: float
    gamma: float
    alpha_b: float

    @property
    def n_below(self) -> int:
        if self.gamma < 0:
            return 0
        return int(math.floor(self.gamma / math.pi)) + 1


@dataclass(frozen=True)
class Eigenvalue:
    n: int
    energy: float
    gamma_residual: float


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

def _tail_failure(problem, side, t, E_lo, E_hi, config, check_clearance):
    """Why t fails as a boundary, or None when it passes.

    t passes when the cue residual is within tolerance at both energy
    extremes and, with check_clearance, V_eff(t) clears E_hi by kappa.
    """
    for E in (E_lo, E_hi):
        residual = cues.boundary_residual(problem, E, t, side, config.n_terms)
        if residual > config.residual_tol:
            return f"cue residual {residual:.3e} at E = {E}"
    if check_clearance:
        clearance = problem.effective_potential().evaluate(t) - E_hi
        if not clearance >= config.kappa:
            return f"V - E_max = {clearance:.3e} is below kappa"
    return None


def _resolve_side(problem, side, E_lo, E_hi, config, seed, grow,
                  check_clearance=True):
    """Grow a candidate boundary geometrically until the gates pass."""
    t = seed
    for _ in range(200):
        try:
            failure = _tail_failure(problem, side, t, E_lo, E_hi, config,
                                    check_clearance)
        except (DomainError, ThresholdError, OverflowError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is None:
            return t
        last_t, t = t, grow(t)
        if t == last_t:
            break
    raise IntervalSelectionError(
        f"no admissible {side} boundary for E in [{E_lo}, {E_hi}] "
        f"(residual_tol={config.residual_tol}); last tried t = {last_t}: "
        f"{failure}")


def auto_interval(problem: ProblemSpec, E_min: float, E_max: float,
                  config: SolveConfig) -> Tuple[float, float]:
    """Working interval [a, b]: cues valid outside, tails cleared by kappa.

    Boundaries grow geometrically from family seeds until the cue residual
    passes at both energy extremes; radial left boundaries shrink toward the
    singularity instead, floored at 1e-4.
    """
    if problem.interval is not None:
        return problem.interval
    if not E_max < problem.threshold():
        raise ThresholdError(
            f"E_max = {E_max} is not below the tail threshold "
            f"{problem.threshold()}")
    bp = problem.potential.breakpoints()
    left_tail, right_tail = problem.left_tail, problem.right_tail

    if problem.l is not None:
        if isinstance(left_tail, ConstantLevel):
            raise DomainError("half-line problems need a 0+ singularity cue "
                              "on the left")
        # near the singularity the forbidden-region clearance does not apply
        a = _resolve_side(problem, "left", E_min, E_max, config, seed=1e-2,
                          grow=lambda t: max(t / _GROWTH, _ZERO_FLOOR),
                          check_clearance=False)
    else:
        if isinstance(left_tail, ConstantLevel):
            a = min(bp) if bp else -1.0
            if left_tail.level - E_max < config.kappa:
                raise ThresholdError(
                    f"E_max = {E_max} does not clear the left level "
                    f"{left_tail.level} by kappa = {config.kappa}")
        else:
            seed = left_tail.seed(E_max, config.kappa,
                                  abs(min(bp)) if bp else None)
            a = _resolve_side(problem, "left", E_min, E_max, config,
                              seed=-seed, grow=lambda t: t * _GROWTH)

    if isinstance(right_tail, ConstantLevel):
        b = max(bp) if bp else max(a + 2.0, 1.0)
        if right_tail.level - E_max < config.kappa:
            raise ThresholdError(
                f"E_max = {E_max} does not clear the right level "
                f"{right_tail.level} by kappa = {config.kappa}")
    else:
        seed = right_tail.seed(E_max, config.kappa, max(bp) if bp else None)
        b = _resolve_side(problem, "right", E_min, E_max, config, seed=seed,
                          grow=lambda t: t * _GROWTH)
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
    starts = np.array([cues.left_boundary_angle(problem, E, a, config.n_terms)
                       for E in energies])
    alphas, _ = integrate_angles(problem, energies, starts, a, b,
                                 config.integrator)
    out = []
    for E, alpha_b in zip(energies, alphas):
        alpha_minus = cues.right_boundary_angle(problem, float(E), b,
                                                config.n_terms)
        out.append(DefectSample(E=float(E), gamma=alpha_minus - float(alpha_b),
                                alpha_b=float(alpha_b)))
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
    energies = np.asarray(energies, dtype=float) - v0
    a, b = interval
    starts = np.full(energies.shape, math.pi / 4.0)
    alphas, _ = integrate_angles(shifted, energies, starts, a, b,
                                 config.integrator, chart="scaled")
    return [DefectSample(E=float(E) + v0, gamma=-math.pi / 4.0 - float(al),
                         alpha_b=float(al))
            for E, al in zip(energies, alphas)]


def _scan_and_bisect(sample_fn, E_min, E_max, config, enforce_monotone=True):
    """Adaptive scan, pi-crossing bracketing and lock-step bisection.

    enforce_monotone is dropped for the scaled chart, whose defect only
    crosses each multiple of pi once but may wiggle in between (the
    chart itself depends on E); single-crossing keeps the sign-based
    bisection exact either way.
    """
    Es = list(np.linspace(E_min, E_max, config.scan_samples))
    samples = {E: s for E, s in zip(Es, sample_fn(Es))}

    for _ in range(_MAX_REFINE_ROUNDS):
        keys = sorted(samples)
        mids = [0.5 * (e1 + e2) for e1, e2 in zip(keys, keys[1:])
                if abs(samples[e2].gamma - samples[e1].gamma) > math.pi / 2
                and e2 - e1 > config.e_tol]
        if not mids:
            break
        samples.update(zip(mids, sample_fn(mids)))

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
                brackets.append([n, e1, e2, g1, g2])

    for _ in range(200):
        active = [br for br in brackets if br[2] - br[1] > config.e_tol]
        if not active:
            break
        mids = [0.5 * (br[1] + br[2]) for br in active]
        for br, sample in zip(active, sample_fn(mids)):
            if sample.gamma >= br[0] * math.pi:
                br[2], br[4] = sample.E, sample.gamma
            else:
                br[1], br[3] = sample.E, sample.gamma

    eigenvalues = []
    for n, e1, e2, g1, g2 in brackets:
        E_n = 0.5 * (e1 + e2)
        residual = min(abs(g1 - n * math.pi), abs(g2 - n * math.pi))
        eigenvalues.append(Eigenvalue(n=n, energy=E_n,
                                      gamma_residual=residual))
    eigenvalues.sort(key=lambda ev: ev.energy)
    scan = tuple(samples[e] for e in keys)
    return tuple(eigenvalues), scan


def _solve(problem, E_min, E_max, config, defects, enforce_monotone=True):
    """Scan and bisect on one interval, resolved at the energy extremes.

    defects(problem, energies, config, interval) returns DefectSamples.
    """
    config = config or SolveConfig()
    if not E_min < E_max:
        raise DomainError("need E_min < E_max")
    interval = auto_interval(problem, E_min, E_max, config)

    def sample(energies):
        return defects(problem, energies, config, interval)

    eigenvalues, scan = _scan_and_bisect(sample, E_min, E_max, config,
                                         enforce_monotone)
    return SpectrumResult(eigenvalues=eigenvalues, scan=scan,
                          problem=problem.with_interval(*interval),
                          config=config)


def find_eigenvalues(problem: ProblemSpec, E_min: float, E_max: float,
                     config: SolveConfig = None) -> SpectrumResult:
    """All eigenvalues in [E_min, E_max], bracketed via the monotone defect.

    The interval is resolved once per run at the energy extremes; every
    Gamma evaluation in the scan and the lock-step bisection shares it.
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
    interval = auto_interval(problem, E_n, E_n + 1e-14, config) \
        if problem.interval is None else problem.interval
    a, b = interval
    if grid[0] < a or grid[-1] > b:
        raise DomainError(f"grid must lie inside the interval [{a}, {b}]")
    alpha_a = cues.left_boundary_angle(problem, E_n, a, config.n_terms)
    ts, alphas, logs = integrate_angle_sampled(problem, E_n, alpha_a, a, b,
                                               config.integrator,
                                               t_eval=grid)
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
