"""Spectral defect angle and eigenvalue location.

The left angle runs forward from a, the right cue's angle backward from b,
and both meet at one matching point c (`_matching_point`):

    Gamma(E) = alpha_R(c, E) - alpha_L(c, E).

Gamma is strictly increasing in E, so every crossing Gamma = n pi brackets
exactly one eigenvalue, and the level count n_below(E) of a sample
certifies every bracket.  Both angles solve one pi-periodic flow, so two
solutions n pi apart at one t stay so at every t: n_below does not depend
on c, and c only sets how smooth Gamma is.  Measured at b, Gamma is a near
step of height pi at each level; at an interior c it is smooth.

A solve builds the mesh of every pass once, next to c, from V alone
(`angular.pass_mesh`), so a pass costs in proportion to its energies.  It
keeps every Gamma sample and, pass by pass, cuts each adjacent pair across
which n_below rises by k into _SPLIT * k pieces, 3 bits per level per
pass.  In the same pass every level of such a pair gets one root step:
inverse interpolation of E(Gamma) through the nearest samples, with two
points placed on either side of the estimate at about twice its error.
Gamma is smooth, so the step usually brackets the level to e_tol within a
few passes; the cuts guarantee progress where it does not (doublets, a
step-shaped Gamma).  Every bracket is an adjacent pair of samples.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import trapezoid

from . import cues
from .angular import (_chart_fun, _integrate_vector, _rechart, _span_points,
                      integrate_angle_sampled, integrate_angles, pass_mesh)
from .errors import (DomainError, IntervalSelectionError, MonotonicityError,
                     ThresholdError)
from .potentials import ProblemSpec

_MONOTONE_JITTER = 1e-9     # Gamma drop allowed per unit of max(1, |Gamma|)
_SPLIT = 8                  # pieces each bracket is cut into per pass;
                            # set when a pass cost nearly the same at 10
                            # energies as at 150, which the Magnus passes
                            # do not (ROADMAP item 5)
_MATCH_GRID = 4001          # points on which the matching point is sought
_NODE_FLOOR = 1e-6          # |psi| under this share of its peak: no node
_MAX_LEVELS = 10**5         # levels one solve resolves: each takes
                            # _SPLIT + 2 samples per pass


@dataclass(frozen=True)
class SolveConfig:
    """Integrator tolerances and the knobs of the spectrum and oracle."""

    rel_tol: float = 1e-12
    e_tol: float = 1e-10
    residual_tol: float = 1e-10
    kappa: float = 1e-3
    scan_samples: int = 64

    def __post_init__(self):
        if not all(tol > 0 for tol in (self.rel_tol, self.e_tol,
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
    """Levels of one solve and every Gamma sample it took (scan, by E)."""

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

    def node_count(self) -> int:
        """Sign changes of psi, ignoring sub-floor wiggle in the tails."""
        psi = self.psi
        keep = np.abs(psi) > _NODE_FLOOR * np.max(np.abs(psi))
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

def _matching_point(problem: ProblemSpec, interval) -> float:
    """c: the first minimum of V_eff on 4001 points spanning [a, b].

    The points are geometric on the half line and uniform on the whole
    line.  c depends on the problem and interval alone, so every sample of
    a solve shares one Gamma.  Near the well's bottom both halves arrive
    from their forbidden sides, where the flow pulls them onto the decaying
    directions, so Gamma is smooth in E there.
    """
    grid = _span_points(problem, *interval, _MATCH_GRID)
    v = problem.effective_potential().evaluate(grid)
    return float(grid[np.argmin(v)])


def _cue_angles(problem: ProblemSpec, energies, a: float, b: float):
    """The start angles (lefts, rights) of both halves at the energies.

    Gamma increases with E only when each half starts on its decaying
    branch: psi'/psi > 0 at a and < 0 at b.  A cue on the growing branch
    (a flipped sign) can leave Gamma_c monotone and the levels wrong, so
    every start angle is checked here.
    """
    lefts = [cues.left_boundary_angle(problem, E, a) for E in energies]
    rights = [cues.right_boundary_angle(problem, E, b) for E in energies]
    for side, angles, sign in (("left", lefts, 1.0), ("right", rights, -1.0)):
        wrong = [E for E, al in zip(energies, angles) if not sign * al > 0]
        if wrong:
            raise MonotonicityError(
                f"the {side} cue at E = {wrong[0]} is not on the branch "
                f"that decays to the {side}; a cue is misconfigured")
    return lefts, rights


def defect_angles(problem: ProblemSpec, energies: Sequence[float],
                  config: SolveConfig = None,
                  interval: Optional[Tuple[float, float]] = None,
                  c: Optional[float] = None, mesh=None) -> List[DefectSample]:
    """Batched Gamma(E) = alpha_R(c, E) - alpha_L(c, E) on a shared interval.

    c defaults to the interval's matching point (`_matching_point`) and
    mesh to one built for the batch (`angular.pass_mesh`); a solve makes
    both once and passes them to every pass.  Each cue's start angle is
    checked to lie on its decaying branch (`_cue_angles`).
    """
    config = config or SolveConfig()
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    threshold = problem.threshold()
    if not np.all(energies < threshold):
        raise ThresholdError(
            f"energies must lie below the tail threshold {threshold}")
    if interval is None:
        interval = auto_interval(problem, float(energies.min()),
                                 float(energies.max()), config)
    if c is None:
        c = _matching_point(problem, interval)
    a, b = interval
    lefts, rights = _cue_angles(problem, energies, a, b)
    alpha_l, alpha_r = integrate_angles(problem, energies, lefts, rights, a,
                                        c, b, config, mesh)
    return [DefectSample(E=float(E), gamma=float(r - l))
            for E, l, r in zip(energies, alpha_l, alpha_r)]


def count_levels(problem: ProblemSpec, E_ceiling: float,
                 config: SolveConfig = None) -> int:
    """Number of eigenvalues at or below E_ceiling."""
    return defect_angles(problem, [E_ceiling], config)[0].n_below


# ---------------------------------------------------------------------------
# Root finding on Gamma(E) = n pi (and the scaled variant)
# ---------------------------------------------------------------------------

def _scaled_sampler(problem, config, interval, E_min, E_max):
    """Gamma at b, integrated in one squeezing-adapted chart over [a, b].

    Requires equal constant tails at a level v0 and E_max below it.  The
    chart is `_chart_fun`'s with S = k = sqrt(2 (v0 - E)), in which the
    free flow holds the two exponential directions at +-pi/4: the left
    angle starts at pi/4 and runs to b without a cut, independent of the
    matching point and of the closed form.  theta(b) is read out in alpha
    (`_rechart`), and Gamma = -atan(k) - alpha(b) is the plain defect at b.
    """
    error = DomainError("the scaled chart needs equal constant tails")
    v0, right = cues.constant_levels(problem.left_tail, problem.right_tail,
                                     error)
    if right != v0:
        raise error
    if not E_max < v0:
        raise DomainError("the scaled chart needs every E below the tails")
    potential = problem.effective_potential()
    a, b = interval

    def sample(energies):
        energies = np.asarray(energies, dtype=float)
        k = np.sqrt(2.0 * (v0 - energies))
        starts = np.full(energies.shape, math.pi / 4.0)
        theta, _ = _integrate_vector(_chart_fun(potential, energies, k), a, b,
                                     starts, config, potential.breakpoints())
        gammas = -np.arctan(k) - _rechart(theta, k)
        return [DefectSample(E=float(E), gamma=float(g))
                for E, g in zip(energies, gammas)]

    return sample


def _matched_sampler(problem, config, interval, E_min, E_max):
    """Gamma_c batches through defect_angles, with c and the mesh of every
    pass made once per solve, the mesh at the energy extremes."""
    c = _matching_point(problem, interval)
    a, b = interval
    ends = [E_min, E_max]
    mesh = pass_mesh(problem, ends, *_cue_angles(problem, ends, a, b), a, c,
                     b, config)
    return lambda energies: defect_angles(problem, energies, config, interval,
                                          c, mesh)


def _inverse_root(energies, gammas, target):
    """E at Gamma = target on the Lagrange polynomial E(Gamma) through the
    points (gammas, energies); the gammas must be distinct."""
    x = 0.0
    for j, (e_j, g_j) in enumerate(zip(energies, gammas)):
        weight = 1.0
        for m, g_m in enumerate(gammas):
            if m != j:
                weight *= (target - g_m) / (g_j - g_m)
        x += e_j * weight
    return x


def _root_points(keys, samples, i, n, e_tol):
    """x and x -+ d for level n on the pair (keys[i], keys[i + 1]).

    x is the root of Gamma = n pi on the inverse polynomial E(Gamma) through
    the samples keys[i - 1 .. i + 2] that exist, and x' the root with the
    outer sample whose Gamma lies farthest from n pi dropped (the node that
    weighs least at n pi); d = 2 |x - x'|, clamped to
    [e_tol / 4, w / 4].  When those Gamma are not strictly increasing or x
    falls outside the pair, x is the regula-falsi root on the pair and
    d = w / 16.  All three points sit min(w / 100, e_tol / 4) inside.
    """
    e1, e2 = keys[i], keys[i + 1]
    w, target = e2 - e1, n * math.pi
    near = keys[max(i - 1, 0):i + 3]
    gammas = [samples[E].gamma for E in near]
    outer = [j for j, E in enumerate(near) if not e1 <= E <= e2]
    x = None
    if outer and all(g1 < g2 for g1, g2 in zip(gammas, gammas[1:])):
        x = _inverse_root(near, gammas, target)
    if x is not None and e1 < x < e2:
        far = max(outer, key=lambda j: abs(gammas[j] - target))
        fewer = [j for j in range(len(near)) if j != far]
        d = 2.0 * abs(x - _inverse_root([near[j] for j in fewer],
                                        [gammas[j] for j in fewer], target))
    else:
        # n_below(e1) <= n < n_below(e2) puts gamma_1 < n pi <= gamma_2
        s1, s2 = samples[e1], samples[e2]
        x = e1 + w * (target - s1.gamma) / (s2.gamma - s1.gamma)
        d = w / 16
    d = min(max(d, e_tol / 4), w / 4)
    margin = min(0.01 * w, e_tol / 4)
    lo, hi = e1 + margin, e2 - margin
    return [min(max(E, lo), hi) for E in (x - d, x, x + d)]


def _scan_and_split(sample_fn, E_min, E_max, config):
    """Scan, then split every sample pair across which the level count rises.

    Each pass cuts every adjacent pair (e1, e2) wider than e_tol that holds
    k = n_below(e2) - n_below(e1) > 0 levels into _SPLIT * k pieces, so
    every such pair shrinks at least _SPLIT-fold per pass.  Each of its
    levels also gets the three points of one inverse-interpolation root
    step on Gamma (`_root_points`), which close in on a smooth Gamma
    superlinearly and bracket the root in the same pass; the cuts keep
    doublets and step-shaped Gamma converging.  All new energies are
    evaluated in one sample_fn call, until no pair qualifies or none has
    room for a new energy strictly inside (float resolution).  Level n is
    the first adjacent pair with n_below(e1) <= n < n_below(e2).  Gamma
    must not decrease along the final scan, for every sampler; integrator
    noise on Gamma grows with the angle accumulated, so a drop is allowed
    _MONOTONE_JITTER * max(1, |Gamma|).
    """
    Es = list(np.linspace(E_min, E_max, config.scan_samples))
    samples = dict(zip(Es, sample_fn(Es)))
    count = samples[Es[-1]].n_below - samples[Es[0]].n_below
    if count > _MAX_LEVELS:
        raise DomainError(f"[E_min, E_max] holds {count:.6g} levels, more than "
                          f"the {_MAX_LEVELS} one solve resolves")
    while True:
        keys = sorted(samples)
        inner = set()
        for i, (e1, e2) in enumerate(zip(keys, keys[1:])):
            s1, s2 = samples[e1], samples[e2]
            rise = s2.n_below - s1.n_below
            if not (e2 - e1 > config.e_tol and rise > 0):
                continue
            points = list(np.linspace(e1, e2, _SPLIT * rise + 1)[1:-1])
            for n in range(s1.n_below, s2.n_below):
                points += _root_points(keys, samples, i, n, config.e_tol)
            inner.update(E for E in points if e1 < E < e2)
        if not inner:
            break
        inner = sorted(inner)
        samples.update(zip(inner, sample_fn(inner)))

    scan = tuple(samples[E] for E in keys)
    drops = [s1.gamma - s2.gamma for s1, s2 in zip(scan, scan[1:])
             if s1.gamma - s2.gamma > _MONOTONE_JITTER * max(1.0,
                                                             abs(s1.gamma))]
    if drops:
        raise MonotonicityError(
            f"defect angle decreased by {max(drops):.3e} along the scan; "
            "the integrator or a cue is misconfigured")

    levels = {}  # in energy order: each level is kept at its first pair
    for e1, e2 in zip(keys, keys[1:]):
        for n in range(samples[e1].n_below, samples[e2].n_below):
            levels.setdefault(n, Eigenvalue(n=n, energy=0.5 * (e1 + e2),
                                            width=e2 - e1))
    return tuple(levels.values()), scan


def _solve(problem, E_min, E_max, config, sampler):
    """Scan and split on one interval, resolved at the energy extremes.

    sampler(problem, config, interval, E_min, E_max) returns the function
    that maps a batch of energies in [E_min, E_max] to their DefectSamples.
    """
    config = config or SolveConfig()
    if not E_min < E_max:
        raise DomainError("need E_min < E_max")
    interval = auto_interval(problem, E_min, E_max, config)
    eigenvalues, scan = _scan_and_split(
        sampler(problem, config, interval, E_min, E_max), E_min, E_max,
        config)
    return SpectrumResult(eigenvalues=eigenvalues, scan=scan,
                          problem=problem.with_interval(*interval),
                          config=config)


def find_eigenvalues(problem: ProblemSpec, E_min: float, E_max: float,
                     config: SolveConfig = None) -> SpectrumResult:
    """All eigenvalues in [E_min, E_max], bracketed via the monotone defect.

    The interval is resolved once per run at the energy extremes; every
    Gamma sample shares it, its matching point c and the mesh of the
    passes, and result.scan holds them all.  Gamma = alpha_R(c) -
    alpha_L(c).  Each pass cuts every bracket _SPLIT ways per level it
    holds and adds one inverse-interpolation root step per level
    (`_root_points`).  Level n's bracket is an adjacent pair of samples
    whose n_below steps past n, at most config.e_tol wide unless float
    resolution stops the splitting first.
    """
    return _solve(problem, E_min, E_max, config, _matched_sampler)


def find_eigenvalues_scaled(problem: ProblemSpec, E_min: float, E_max: float,
                            config: SolveConfig = None) -> SpectrumResult:
    """Eigenvalues via the squeezing-adapted chart (equal constant tails).

    Cross-validates the plain pipeline by another route to the same Gamma:
    one adaptive pass over [a, b] in the chart with S = sqrt(2 (v0 - E))
    (`_scaled_sampler`), read out at b rather than at the matching point.
    The levels, the level count and the monotonicity check are those of
    `find_eigenvalues`.
    """
    return _solve(problem, E_min, E_max, config, _scaled_sampler)


# ---------------------------------------------------------------------------
# Eigenfunction reconstruction
# ---------------------------------------------------------------------------

def reconstruct_eigenfunction(problem: ProblemSpec, E_n: float,
                              grid: Sequence[float],
                              config: SolveConfig = None
                              ) -> EigenfunctionSamples:
    """psi = rho cos(alpha) on the grid, normalized by the trapezoid rule.

    Both cues run toward the matching point c (`_matching_point`), where the
    halves are joined (`integrate_angle_sampled`), so psi decays toward
    both ends.  E_n should be an accepted eigenvalue; the node count of psi
    then equals its branch index.
    """
    config = config or SolveConfig()
    grid = np.asarray(sorted(grid), dtype=float)
    # no call when the interval is set: auto_interval calls count selections
    a, b = problem.interval or auto_interval(problem, E_n, E_n + 1e-14,
                                             config)
    if grid[0] < a or grid[-1] > b:
        raise DomainError(f"grid must lie inside the interval [{a}, {b}]")
    t_s, alpha_s, log_s = integrate_angle_sampled(
        problem, E_n, cues.left_boundary_angle(problem, E_n, a),
        cues.right_boundary_angle(problem, E_n, b), a,
        _matching_point(problem, (a, b)), b, config, t_eval=grid)
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
