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
(`angular.pass_mesh`), so a pass costs in proportion to its energies, and
a solve's cost is the number of energies it evaluates.  It keeps every
Gamma sample and, pass by pass, gives every level of each adjacent pair
across which n_below rises by k one root step: inverse interpolation of
E(Gamma) through the nearest samples, with two points placed on either
side of the estimate at about twice its error.  Gamma is smooth, so the
step usually brackets the level to e_tol within a few passes.  The pair
is also cut into _SPLIT * k = 2 k equal pieces for 2 k - 1 energies,
unless it holds one level and the last pass's root step made it: one of
its ends is a root point of that pass and it is at most half as wide as
the pair that pass cut (Brent's safeguard: cut only where interpolation
stalls).  So every bracket at least halves every two passes, also where
the root step does not converge (doublets, a step-shaped Gamma).  Every
bracket is an adjacent pair of samples.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import cues
from .angular import (_chart_fun, _integrate_vector, _rechart, _span_points,
                      integrate_angle_sampled, integrate_angles, pass_mesh)
from .errors import (DomainError, IntegrationError, IntervalSelectionError,
                     MonotonicityError, ThresholdError)
from .potentials import ProblemSpec

_MONOTONE_JITTER = 1e-9     # Gamma drop allowed per unit of max(1, |Gamma|)
_SPLIT = 2                  # pieces per level a bracket is cut into in a
                            # pass: the fewest that still halve it, as a
                            # pass costs in proportion to its energies
_MATCH_GRID = 4001          # points on which the matching point is sought
_SCAN_SAMPLES = 64          # energies of a solve's first pass: 8 to 64
                            # move no level by more than 6e-11
_NODE_FLOOR = 1e-6          # |psi| under this share of its peak: no node
_MAX_LEVELS = 10**5         # levels one solve resolves: each takes up
                            # to _SPLIT + 3 new samples per pass


@dataclass(frozen=True)
class SolveConfig:
    """Integrator tolerances and the knobs of the spectrum and oracle."""

    rel_tol: float = 1e-12
    e_tol: float = 1e-10
    residual_tol: float = 1e-10
    kappa: float = 1e-3

    def __post_init__(self):
        if not all(tol > 0 for tol in (self.rel_tol, self.e_tol,
                                       self.residual_tol, self.kappa)):
            raise ValueError("tolerances must be positive")


class DefectSample(NamedTuple):
    """One (E, Gamma) evaluation; n_below counts levels at or below E.

    A named tuple, immutable and compared by value: a solve builds one per
    Gamma sample, so it is built at the cost of a tuple."""

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
    """psi = rho cos(alpha) at the grid points t (`reconstruct_eigenfunction`).

    psi is normalised by the trapezoid rule on the caller's grid only, so
    the mass outside the grid (a constant tail's, say) is left out.  Where
    |psi| is below about 1e-12 of its peak, alpha and log_rho are only
    those of the mesh's wide far-tail steps; psi itself is resolved there.
    """

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

def _check_energies(problem, name: str, E):
    """E as an array, once each of its energies is finite (DomainError)
    and below problem.threshold() (ThresholdError; problem None skips it);
    either error names the caller's argument and its first bad value."""
    energies = np.asarray(E, dtype=float)
    bad = energies[~np.isfinite(energies)]
    if bad.size:
        raise DomainError(f"{name} must be finite, not {bad.flat[0]}")
    threshold = math.inf if problem is None else problem.threshold()
    above = cues._first_not_below(energies, threshold)
    if above is not None:
        raise ThresholdError(
            f"{name} = {above} is not below the tail threshold {threshold}")
    return energies


def auto_interval(problem: ProblemSpec, E_min: float, E_max: float,
                  config: SolveConfig, series=None) -> Tuple[float, float]:
    """Working interval [a, b]: cues valid outside, tails cleared by kappa.

    Each tail class bounds its own side (see `cues`): constant tails at the
    support edge, series tails by geometric growth from a family seed until
    the cue residual passes at both energy extremes, and 0+ singularities
    by shrinking toward the singularity, floored at 1e-4.  An explicit
    interval is kept once each end passes its tail's `admit`: a constant
    tail's end must settle, a series tail's pass the cue-residual gate at
    E_min and E_max.  Each series tail's gate tests its candidates against
    one cue series for both energies: series, private, is the pair a solve
    built (`cues.side_series`), and one is built here without it.
    """
    for name, E in (("E_min", E_min), ("E_max", E_max)):
        _check_energies(problem, name, E)
    left, right = series or cues.side_series(problem, E_min, E_max)
    if problem.interval is not None:
        a, b = problem.interval
        problem.left_tail.admit(problem, "left", a, E_min, E_max, config,
                                left)
        problem.right_tail.admit(problem, "right", b, E_min, E_max, config,
                                 right)
        return a, b
    a = problem.left_tail.bound(problem, "left", E_min, E_max, config, left)
    b = problem.right_tail.bound(problem, "right", E_min, E_max, config,
                                 right)
    if not a < b:
        raise IntervalSelectionError(f"degenerate interval ({a}, {b})")
    return a, b


# ---------------------------------------------------------------------------
# Defect angle
# ---------------------------------------------------------------------------

def _matching_point(problem: ProblemSpec, interval) -> float:
    """c: the first minimum of V_eff on 4001 points spanning [a, b], its
    ends settled on the support (`cues.settled`).

    The points are geometric on the half line and uniform on the whole
    line.  c depends on the problem and interval alone, and not on the
    length of a constant tail, so every sample of a solve shares one Gamma.
    Near the well's bottom both halves arrive from their forbidden sides,
    where the flow pulls them onto the decaying directions, so Gamma is
    smooth in E there.
    """
    grid = _span_points(problem, *cues.settled(problem, interval), _MATCH_GRID)
    v = problem.effective_potential().evaluate(grid)
    return float(grid[np.argmin(v)])


def _window(problem: ProblemSpec, E_min: float, E_max: float,
            config: SolveConfig, series=None):
    """(a, c, b, mesh) at [E_min, E_max]: the admitted or automatic
    interval (`auto_interval`, gated against series if given), its
    matching point and mesh None."""
    a, b = auto_interval(problem, E_min, E_max, config, series)
    return a, _matching_point(problem, (a, b)), b, None


def _cue_angles(problem: ProblemSpec, energies, a: float, b: float,
                series=(None, None)):
    """The start angles (lefts, rights) of both halves at the energies.

    Gamma increases with E only when each half starts on its decaying
    branch: psi'/psi > 0 at a and < 0 at b.  A cue on the growing branch
    (a flipped sign) can leave Gamma_c monotone and the levels wrong, so
    every start angle is checked here.  Each side's angles come from one
    call for the whole batch, from series (left, right) where a side's is
    given: its cue series at the energies, built already.
    """
    energies = np.asarray(energies, dtype=float)
    lefts = cues.left_boundary_angle(problem, energies, a, series[0])
    rights = cues.right_boundary_angle(problem, energies, b, series[1])
    for side, angles, sign in (("left", lefts, 1.0), ("right", rights, -1.0)):
        wrong = energies[~(sign * np.asarray(angles) > 0)]
        if wrong.size:
            raise MonotonicityError(
                f"the {side} cue at E = {wrong[0]} is not on the branch "
                f"that decays to the {side}; a cue is misconfigured")
    return lefts, rights


def defect_angles(problem: ProblemSpec, energies: Sequence[float],
                  config: SolveConfig = None,
                  window=None) -> List[DefectSample]:
    """Batched Gamma(E) = alpha_R(c, E) - alpha_L(c, E) on a shared interval.

    The interval and c are `_window`'s for the energy extremes, and the
    mesh is built for the batch (`angular.pass_mesh`).  window, private, is
    a solve's (a, c, b, mesh), made once and passed to every pass.  Each
    cue's start angle is checked to lie on its decaying branch
    (`_cue_angles`).  Energies that are not a 1-d batch raise DomainError,
    and a Gamma that is not finite IntegrationError.
    """
    config = config or SolveConfig()
    energies = np.atleast_1d(_check_energies(problem, "energies", energies))
    if energies.ndim != 1 or not energies.size:
        raise DomainError("energies must be a nonempty 1-d batch")
    a, c, b, mesh = window or _window(problem, float(energies.min()),
                                      float(energies.max()), config)
    lefts, rights = _cue_angles(problem, energies, a, b)
    alpha_l, alpha_r = integrate_angles(problem, energies, lefts, rights, a,
                                        c, b, config, mesh)
    gammas = alpha_r - alpha_l
    if not np.all(np.isfinite(gammas)):
        raise IntegrationError(f"Gamma is not finite at E = "
                               f"{energies[~np.isfinite(gammas)][0]} on "
                               f"[{a:g}, {b:g}]")
    return list(map(DefectSample, energies.tolist(), gammas.tolist()))


def count_levels(problem: ProblemSpec, E_ceiling: float,
                 config: SolveConfig = None) -> int:
    """Number of eigenvalues at or below E_ceiling."""
    _check_energies(problem, "E_ceiling", E_ceiling)
    return defect_angles(problem, [E_ceiling], config)[0].n_below


# ---------------------------------------------------------------------------
# Root finding on Gamma(E) = n pi (and the scaled variant)
# ---------------------------------------------------------------------------

def _scaled_sampler(problem, config, window, E_min, E_max, series):
    """Gamma at b, integrated in one squeezing-adapted chart over [a, b].

    Requires equal constant tails at a level v0 and E_max below it.  The
    chart is `_chart_fun`'s with S = k = sqrt(2 (v0 - E)), in which the
    free flow holds the two exponential directions at +-pi/4: the left
    angle starts at pi/4 and runs to b without a cut, independent of the
    matching point and of the closed form.  theta(b) is read out in alpha
    (`_rechart`), and Gamma = -atan(k) - alpha(b) is the plain defect at b.
    Constant tails have no cue series to take.
    """
    error = DomainError("the scaled chart needs equal constant tails")
    v0, right = cues.constant_levels(problem.left_tail, problem.right_tail,
                                     error)
    if right != v0:
        raise error
    potential = problem.effective_potential()
    a, _, b, _ = window

    def sample(energies):
        energies = np.asarray(energies, dtype=float)
        k = np.sqrt(2.0 * (v0 - energies))
        starts = np.full(energies.shape, math.pi / 4.0)
        theta = _integrate_vector(_chart_fun(potential, energies, k), a, b,
                                  starts, config, potential.breakpoints())
        gammas = -np.arctan(k) - _rechart(theta, k)
        return list(map(DefectSample, energies.tolist(), gammas.tolist()))

    return sample


def _matched_sampler(problem, config, window, E_min, E_max, series):
    """Gamma_c batches through defect_angles on the solve's window, with
    the mesh of every pass made once, at the energy extremes, from the end
    angles of series, the cue series the window was gated with."""
    a, c, b, _ = window
    ends = [E_min, E_max]
    mesh = pass_mesh(problem, ends, *_cue_angles(problem, ends, a, b, series),
                     a, c, b, config)
    return lambda energies: defect_angles(problem, energies, config,
                                          (a, c, b, mesh))


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

    Each pass gives every level of every adjacent pair (e1, e2) wider than
    e_tol that holds k = n_below(e2) - n_below(e1) > 0 levels the three
    points of one inverse-interpolation root step on Gamma
    (`_root_points`), which close in on a smooth Gamma superlinearly and
    bracket the root in the same pass.  The pair is also cut into _SPLIT *
    k = 2 k equal pieces, unless k = 1 and the last pass credited it: one
    of its ends is a root point of that pass and it is at most half as
    wide as the pair that pass cut.  A credited pair whose root points
    land nothing strictly inside is cut all the same.  So a pass without a
    cut follows one that halved the pair, and every such pair at least
    halves every two passes: the cuts keep doublets and step-shaped Gamma
    converging, and with no root points the search is plain bisection.  A
    pass costs in proportion to its energies, so the cuts are the fewest
    that still guarantee the halving, and a pair gets at most 5 k - 1 new
    energies.  The credit is each root point's half pair width, recorded
    where a pass splices its energies in and read by the next pass only,
    so its bookkeeping is in proportion to the energies a pass adds.  All
    new energies are evaluated in one sample_fn call, until no pair
    qualifies or none has room for a new energy strictly inside (float
    resolution).  The first pass examines every pair of the scan; each
    later one only the pairs inside the brackets the last pass cut, since
    every other pair got no energy: it keeps its counts and width, and
    where it qualified it has no room (the cuts, which do not depend on
    its neighbours, found none).  The cuts are e1 + i (e2 - e1) / (2 k),
    the arithmetic of `np.linspace`, and each sample's n_below is read
    once.  Level n is the first adjacent pair with n_below(e1) <= n <
    n_below(e2).  Gamma must not decrease along the final scan, for every
    sampler; integrator noise on Gamma grows with the angle accumulated,
    so a drop is allowed _MONOTONE_JITTER * max(1, |Gamma|).
    """
    keys = np.linspace(E_min, E_max, _SCAN_SAMPLES).tolist()
    samples = dict(zip(keys, sample_fn(keys)))
    counts = [samples[E].n_below for E in keys]
    count = counts[-1] - counts[0]
    if count > _MAX_LEVELS:
        raise DomainError(f"[E_min, E_max] holds {count:.6g} levels, more "
                          f"than the {_MAX_LEVELS} one solve resolves")
    pairs = range(len(keys) - 1)
    halves = {}     # each root point of the last pass: half its pair's width
    while True:
        cuts = {}   # index of a pair that gets energies: them, sorted, and
                    # its root points among them
        for i in pairs:
            lo, hi = counts[i], counts[i + 1]
            e1, e2 = keys[i], keys[i + 1]
            if not (hi > lo and e2 - e1 > config.e_tol):
                continue
            points = []
            for n in range(lo, hi):
                points += _root_points(keys, samples, i, n, config.e_tol)
            roots = {E for E in points if e1 < E < e2}
            # this pair lies inside one the last pass cut: a root point at
            # its ends is one of that pair's, and halves holds its half width
            if roots and hi - lo == 1 and e2 - e1 <= (
                    halves.get(e1) or halves.get(e2, 0.0)):
                inner = roots
            else:
                div = _SPLIT * (hi - lo)
                step = (e2 - e1) / div
                points += [j * step + e1 for j in range(1, div)]
                inner = {E for E in points if e1 < E < e2}
            if inner:
                cuts[i] = sorted(inner), roots
        if not cuts:
            break
        inner = [E for points, _ in cuts.values() for E in points]
        added = sample_fn(inner)
        samples.update(zip(inner, added))
        fresh = [s.n_below for s in added]
        # splice each pair's energies in after its first end, and examine
        # the pairs between its ends next
        spliced, tallies, pairs, start = [], [], [], 0
        halves = {}
        for i, (points, roots) in cuts.items():
            halves.update(dict.fromkeys(roots, 0.5 * (keys[i + 1] - keys[i])))
            spliced += keys[start:i + 1] + points
            tallies += counts[start:i + 1] + fresh[:len(points)]
            del fresh[:len(points)]
            pairs += range(len(spliced) - len(points) - 1, len(spliced))
            start = i + 1
        keys, counts = spliced + keys[start:], tallies + counts[start:]

    scan = tuple(samples[E] for E in keys)
    gammas = np.array([s.gamma for s in scan])
    drops = gammas[:-1] - gammas[1:]
    drops = drops[drops > _MONOTONE_JITTER * np.maximum(1.0,
                                                        np.abs(gammas[:-1]))]
    if drops.size:
        raise MonotonicityError(
            f"defect angle decreased by {drops.max():.3e} along the scan; "
            "the integrator or a cue is misconfigured")

    levels = {}  # in energy order: each level is kept at its first pair
    for (e1, e2), lo, hi in zip(zip(keys, keys[1:]), counts, counts[1:]):
        for n in range(lo, hi):
            levels.setdefault(n, Eigenvalue(n=n, energy=0.5 * (e1 + e2),
                                            width=e2 - e1))
    return tuple(levels.values()), scan


def _solve(problem, E_min, E_max, config, sampler):
    """Scan and split on one interval, resolved at the energy extremes.

    sampler(problem, config, window, E_min, E_max, series) returns the
    function that maps a batch of energies in [E_min, E_max] to their
    DefectSamples; series is each tail's cue series at the energy extremes
    (`cues.side_series`), built once for the interval gate and the sampler.
    """
    config = config or SolveConfig()
    for name, E in (("E_min", E_min), ("E_max", E_max)):
        _check_energies(problem, name, E)
    if not E_min < E_max:
        raise DomainError("need E_min < E_max")
    series = cues.side_series(problem, E_min, E_max)
    window = _window(problem, E_min, E_max, config, series)
    eigenvalues, scan = _scan_and_split(
        sampler(problem, config, window, E_min, E_max, series), E_min, E_max,
        config)
    return SpectrumResult(eigenvalues=eigenvalues, scan=scan,
                          problem=problem.with_interval(window[0], window[2]),
                          config=config)


def find_eigenvalues(problem: ProblemSpec, E_min: float, E_max: float,
                     config: SolveConfig = None) -> SpectrumResult:
    """All eigenvalues in [E_min, E_max], bracketed via the monotone defect.

    The interval is resolved once per run at the energy extremes; every
    Gamma sample shares it, its matching point c and the mesh of the
    passes, and result.scan holds them all.  Gamma = alpha_R(c) -
    alpha_L(c).  Each pass adds one inverse-interpolation root step per
    level of a bracket holding k levels (`_root_points`) and cuts the
    bracket into _SPLIT * k = 2 k equal pieces, unless it holds one level
    and the last root step halved it, so that it at least halves every
    two passes (`_scan_and_split`).  Level n's bracket is an adjacent pair
    of samples whose n_below steps past n, at most config.e_tol wide
    unless float resolution stops the splitting first.
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

    The interval, admitted at E_n, and c are `_window`'s.  Both cues run
    toward c, where the halves are joined (`integrate_angle_sampled`), so
    psi decays toward both ends; each start angle is checked to lie on its
    decaying branch (`_cue_angles`).  E_n should be an accepted
    eigenvalue; the node count of psi then equals its branch index.
    """
    _check_energies(problem, "E_n", E_n)
    config = config or SolveConfig()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise DomainError("grid must be a nonempty 1-d array")
    a, c, b, _ = _window(problem, E_n, E_n + 1e-14, config)
    if not np.all((a <= grid) & (grid <= b)):
        raise DomainError(f"grid must lie inside the interval [{a}, {b}]")
    (left,), (right,) = _cue_angles(problem, [E_n], a, b)
    t_s, alpha_s, log_s = integrate_angle_sampled(
        problem, E_n, left, right, a, c, b, config, t_eval=grid)
    log_shift = log_s - np.max(log_s)
    psi = np.exp(log_shift) * np.cos(alpha_s)
    # the trapezoid rule (np.trapezoid needs numpy 2)
    norm = math.sqrt(np.sum(np.diff(t_s) * (psi[1:]**2 + psi[:-1]**2) / 2.0))
    if norm > 0:
        psi = psi / norm
    peak = np.argmax(np.abs(psi))
    if psi[peak] != 0:
        first = np.nonzero(np.abs(psi) > 0.05 * abs(psi[peak]))[0][0]
        if psi[first] < 0:
            psi = -psi
    return EigenfunctionSamples(t=t_s, alpha=alpha_s, log_rho=log_s, psi=psi)
