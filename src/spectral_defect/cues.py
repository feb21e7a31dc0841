"""Boundary angles from decaying-solution ("vanishing cue") asymptotics.

A cue is the logarithmic derivative f = psi'/psi of the solution decaying at
one boundary.  It solves the Riccati identity f' + f^2 = 2(V_eff - E) and is
represented as a leading term plus a finite asymptotic series, truncated at
its smallest term.  arctan(f) at the working-interval endpoint is the
boundary angle fed to the angular integration.

The tail classes live here, one per asymptotic shape of a boundary: a
constant level, an oscillator tail, a Coulomb tail and the 0+ singularities
of the Coulomb and Yukawa wells.  Each knows its energy threshold, its cue
series and the boundary angle built from it, how it bounds, pads, settles
and admits its side of the working interval and whether it puts a problem on
the half line.  A family picks its tails by their parameters: a Coulomb well
with an oscillator term, the quark hybrid among them, has the oscillator
tail with its charge and the Coulomb 0+ singularity with its omega, and the
Yukawa far tail is a Coulomb tail of zero charge.  `potentials` imports this
module, so problems and potentials are duck-typed here.
"""

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import DomainError, IntervalSelectionError, ThresholdError

DEFAULT_N_TERMS = 16
_ZERO_FLOOR = 1e-4          # radial problems never start below this
_GROWTH = 1.5               # geometric interval growth factor
_HALF_MAX = 0.5 * np.finfo(float).max    # the largest x whose 2 x is finite


# ---------------------------------------------------------------------------
# Series representation
# ---------------------------------------------------------------------------

def _scalar_or_array(x):
    """A float for a single energy, the array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def _ordered_sum(terms):
    """Sum over the first axis, one term after another, so an energy's sum
    is the same whatever batch it is in (np.sum's order depends on the
    shape)."""
    return np.add.accumulate(terms, axis=0)[-1] if len(terms) else 0.0


@dataclass(frozen=True)
class CueSeries:
    """Leading term plus correction series for a Riccati cue f(t).

    f(t) = leading * t**power + sum(coeffs[i] * t**p_i).  power is 1 for
    oscillator-dominated tails, 0 for constant-coefficient tails and -1 at
    0+ singularities.  The series runs in 1/t (p_i = -(i+1)) for power >= 0
    and in t (p_i = i) for power -1.  It is asymptotic: evaluation
    truncates at the smallest surviving term, never past `coeffs`.

    A series may hold a batch of energies: coeffs then has a trailing
    energy axis, leading broadcasts against it, and each energy is
    truncated at its own smallest term.  Evaluation returns a float for a
    single energy and an array for a batch.
    """

    leading: Union[float, np.ndarray]
    power: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least two series coefficients")
        if not np.all(np.isfinite(coeffs)):
            # extreme potential parameters overflow a series: not a code bug
            raise DomainError("series coefficients must be finite")

    def _powers(self):
        """p_i, shaped to broadcast against coeffs."""
        index = np.arange(len(self.coeffs))
        powers = -(index + 1) if self.power >= 0 else index
        return powers.reshape((-1,) + (1,) * (self.coeffs.ndim - 1))

    def _truncated(self, t: float):
        """(the terms of f at t, the mask of those kept, their count)."""
        powers = self._powers()
        terms = self.coeffs * float(t) ** powers
        mags = np.abs(terms)
        live = mags > 0
        smallest = np.argmin(np.where(live, mags, np.inf), axis=0)
        count = np.where(live.any(axis=0), smallest + 1, len(mags))
        index = np.arange(len(mags)).reshape(powers.shape)
        return terms, index < count, count

    def truncation_index(self, t: float):
        """Number of terms kept at t by the smallest-term rule."""
        count = self._truncated(t)[2]
        return int(count) if count.ndim == 0 else count

    def evaluate(self, t: float):
        """f(t), truncated by the smallest-term rule."""
        terms, kept, _ = self._truncated(t)
        tail = _ordered_sum(np.where(kept, terms, 0.0))
        return _scalar_or_array(self.leading * t ** self.power + tail)

    def derivative(self, t: float):
        """f'(t), term-by-term, with the same truncation as evaluate."""
        powers = self._powers()
        terms = self.coeffs * powers * float(t) ** (powers - 1)
        tail = _ordered_sum(np.where(self._truncated(t)[1], terms, 0.0))
        return _scalar_or_array(
            self.power * self.leading * t ** (self.power - 1) + tail)


# ---------------------------------------------------------------------------
# Recurrence engines
# ---------------------------------------------------------------------------
#
# Substituting each ansatz into f' + f^2 = 2(V_eff - E) and matching powers
# of t yields one linear recurrence per kind of series.  `d` holds the
# inverse-power tail of the right-hand side (d[s] multiplies t**-s), `c` its
# Taylor part (c[s] multiplies t**s, with s = -1 allowed).  The energy-borne
# inputs (E, k, c[0]) may be arrays; every coefficient then carries their
# shape as a trailing axis.

def _inverse_power_series(k, d, n_terms, first=None):
    """Coefficients of t**-1 ... t**-n_terms of f = -k t**p + series.

    The t**-s balance fixes the coefficient of t**-(s + p).  An oscillator's
    -k t (p = 1) also fixes the t**-1 coefficient, passed as `first`; a
    constant -k (p = 0) leaves it to the loop.
    """
    p = 0 if first is None else 1
    a = np.zeros((n_terms + 1,) + np.shape(first if p else k))
    if p:
        a[1] = first
    # inf or nan at an extreme E, which CueSeries refuses: a failed gate
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, n_terms + 1 - p):
            quad = _ordered_sum(a[1:s] * a[s - 1:0:-1])
            a[s + p] = (-(s - 1) * a[s - 1] + quad - d.get(s, 0.0)) / (2 * k)
    return a[1:]


def _pole_cue(l, c, n_terms):
    """The cue f = (l + 1)/t + series in t at a 0+ singularity."""
    a = np.zeros((n_terms,) + np.broadcast(*c.values()).shape)
    # inf or nan at an extreme E, which CueSeries refuses: a failed gate
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_terms):
            quad = _ordered_sum(a[:s] * a[s - 1::-1]) if s else 0.0
            a[s] = (c.get(s - 1, 0.0) - quad) / (s + 2 * l + 2)
    return CueSeries(l + 1.0, -1, a)


# ---------------------------------------------------------------------------
# Tail classes
# ---------------------------------------------------------------------------

def _decay_padded(t, side, gap, config):
    """t moved outward by 16 decay lengths 1/sqrt(2 gap), gap >= kappa."""
    pad = 16.0 / math.sqrt(2.0 * max(gap, config.kappa))
    return t - pad if side == "left" else t + pad


@dataclass(frozen=True)
class ConstantLevel:
    """V identically equal to `level` beyond the boundary.

    The decaying solution is exp(-k|t|) with k = sqrt(2 (level - E)), so the
    boundary angle is exact and no series is needed.
    """

    level: float
    half_line = False

    @property
    def threshold(self) -> float:
        return self.level

    def bound(self, problem, side, E_lo, E_hi, config, series=None):
        """The support edge on this side, once E_hi clears the level (an
        exact cue has no series to gate)."""
        if self.level - E_hi < config.kappa:
            raise ThresholdError(
                f"E_max = {E_hi} does not clear the {side} level "
                f"{self.level} by kappa = {config.kappa}")
        return self.support_edge(problem, side)

    def support_edge(self, problem, side):
        """The outermost breakpoint on this side; V is the level beyond it."""
        bp = problem.potential.breakpoints()
        if len(bp) < 2:
            # no support to bound: take [-1, 1] about the step, if any
            centre = bp[0] if bp else 0.0
            bp = (centre - 1.0, centre + 1.0)
        return min(bp) if side == "left" else max(bp)

    def fd_edge(self, t, side, E, config):
        """t moved 16 decay lengths outward, deep into the decay zone."""
        return _decay_padded(t, side, self.level - E, config)

    def settle(self, problem, side, end):
        """end, or the edge if it reaches past it.  An end inside the edge
        is kept only on a flat stretch at the level: no breakpoint between
        them, and V the level at the end and halfway to the edge."""
        edge = self.support_edge(problem, side)
        out = -1.0 if side == "left" else 1.0
        if out * (end - edge) >= 0:
            return edge
        where = f"the {side} end {end} lies inside the support edge {edge}"
        for t in sorted(problem.potential.breakpoints(), reverse=out < 0):
            if out * (t - end) > 0 > out * (t - edge):
                raise IntervalSelectionError(
                    f"{where}, with the breakpoint {t} in between")
        mid = 0.5 * (end + edge)
        for v in problem.effective_potential().evaluate(np.array([end, mid])):
            if v != self.level:
                raise IntervalSelectionError(f"{where}, where V = {v} is not "
                                             f"the tail level {self.level}")
        return end

    def admit(self, problem, side, end, E_lo, E_hi, config, series=None):
        """Raise unless the explicit end is valid: `settle` decides."""
        self.settle(problem, side, end)

    def boundary_angle(self, E, t, side, series=None):
        E = np.asarray(E, dtype=float)
        above = _first_not_below(E, self.level)
        if above is not None:
            raise ThresholdError(
                f"E = {above} not below {side} level {self.level}")
        # capped where 2 (level - E) would overflow: the angle is the limit
        # pi / 2 there to the last bit, capped or not
        gap = np.minimum(self.level - E, _HALF_MAX)
        angle = np.arctan(np.sqrt(2.0 * gap))
        return _scalar_or_array(angle if side == "left" else -angle)


class _SeriesTail:
    """A tail whose decaying solution is known through its cue series.

    Subclasses provide cue_series(E, n_terms) and, unless they sit at a 0+
    singularity, seed(E_hi, kappa): the distance from the origin where the
    boundary search starts.
    """

    threshold = math.inf
    half_line = False

    def bound(self, problem, side, E_lo, E_hi, config, series):
        """Grow outward from the seed until the residual and clearance pass,
        each candidate gated against the side's series (`side_series`).

        A finite threshold must clear E_hi by more than kappa, or the
        clearance gate would push the boundary out without end.
        """
        if self.threshold - E_hi <= config.kappa:
            raise ThresholdError(
                f"E_max = {E_hi} does not clear the {side} threshold "
                f"{self.threshold} by more than kappa = {config.kappa}")
        seed = self.seed(E_hi, config.kappa)
        if side == "left":
            seed = -seed
        return _resolve_side(problem, side, E_lo, E_hi, config, series, seed,
                             grow=lambda t: t * _GROWTH)

    def fd_edge(self, t, side, E, config):
        """16 decay lengths beyond t below a finite threshold, else t moved
        30 % further from the origin."""
        if math.isinf(self.threshold):
            return 1.3 * t
        return _decay_padded(t, side, self.threshold - E, config)

    def settle(self, problem, side, end):
        """end as given: a series tail has no support edge to settle on."""
        return end

    def admit(self, problem, side, end, E_lo, E_hi, config, series):
        """Raise unless the explicit end passes `bound`'s cue-residual gate
        at E_lo and E_hi (its clearance test is for a chosen end only)."""
        failure = _tail_failure(problem, side, end, E_lo, E_hi, config, False,
                                series)
        if failure is not None:
            raise IntervalSelectionError(
                f"the {side} end {end} fails the cue gate (residual_tol = "
                f"{config.residual_tol}): {failure}")

    def boundary_angle(self, E, t, side, series=None):
        """arctan of the cue at t; series, when given, is the cue series at
        the energies E, built already."""
        if series is None:
            series = tail_cue_series(self, np.asarray(E, dtype=float))
        return _scalar_or_array(np.arctan(series.evaluate(t)))


@dataclass(frozen=True)
class OscillatorTail(_SeriesTail):
    """V ~ -charge/t + omega^2 t^2 / 2 as |t| grows, angular momentum l.

    At charge 0 and l = 0 it is the pure harmonic tail; a Coulomb well with
    an oscillator term has its charge here.
    """

    omega: float
    l: int = 0
    charge: float = 0.0

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = -omega t + series in 1/t, valid as t -> +infinity.

        Evaluated at negative t it gives the left-decaying cue only at
        charge 0: then only odd inverse powers survive, so the series is
        odd like the exact f.  A charge's -charge/t does not mirror.
        """
        if not self.omega > 0:
            raise DomainError("oscillator cue needs omega > 0; for "
                              "omega -> 0 use the Coulomb cue instead")
        d = {1: -2.0 * self.charge, 2: float(self.l * (self.l + 1))}
        # inf beyond the float range, which CueSeries refuses: a failed gate
        with np.errstate(over="ignore"):
            first = E / self.omega - 0.5
        coeffs = _inverse_power_series(self.omega, d, n_terms, first)
        return CueSeries(-self.omega, 1, coeffs)

    def seed(self, E_hi, kappa):
        top = max(E_hi, 0.0, kappa)
        turn = math.sqrt(2.0 * top + 2.0 * self.charge) / self.omega
        return max(1.3 * turn, 4.0 / math.sqrt(self.omega))


@dataclass(frozen=True)
class CoulombTail(_SeriesTail):
    """V ~ -charge/t as t -> +infinity, angular momentum l.

    Charge 0 is the Yukawa far tail: the screened charge decays faster than
    every inverse power, so the series sees only the centrifugal tail; the
    residual against the actual potential accounts for the neglected
    exponential.
    """

    l: int
    charge: float = 1.0
    threshold = 0.0

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = -sqrt(2|E|) + series in 1/t."""
        E = np.asarray(E, dtype=float)
        above = _first_not_below(E, 0.0)
        if above is not None:
            raise ThresholdError(f"decaying tail cue needs E < 0, not {above}")
        # inf beyond the float range, where the 0+ series of the other side
        # already fails its gate, so no candidate end is tested against it
        with np.errstate(over="ignore"):
            k = np.sqrt(-2.0 * E)
        d = {1: -2.0 * self.charge, 2: float(self.l * (self.l + 1))}
        return CueSeries(-k, 0, _inverse_power_series(k, d, n_terms))

    def seed(self, E_hi, kappa):
        seed = max(10.0, 3.0 / math.sqrt(2.0 * abs(E_hi)))
        # clearing the tail by kappa forces charge/b <= |E_hi| - kappa,
        # which bound keeps positive
        return max(seed, 1.05 * self.charge / (abs(E_hi) - kappa))


class _ZeroSingularity(_SeriesTail):
    """A left boundary at the 0+ singularity: the problem's half-line tail.

    Subclasses carry the angular momentum l.
    """

    half_line = True

    def bound(self, problem, side, E_lo, E_hi, config, series):
        """Shrink toward the singularity, floored at 1e-4."""
        # near the singularity the forbidden-region clearance does not apply
        return _resolve_side(problem, side, E_lo, E_hi, config, series,
                             seed=1e-2,
                             grow=lambda t: max(t / _GROWTH, _ZERO_FLOOR),
                             check_clearance=False)

    def fd_edge(self, t, side, E, config):
        """A wall at the origin; the grid nodes sit strictly beyond it."""
        return 0.0


@dataclass(frozen=True)
class CoulombZeroSingularity(_ZeroSingularity):
    """Left boundary at the 0+ singularity of V = -charge/t + omega^2 t^2/2,
    the Coulomb well with its oscillator term (the quark hybrid's)."""

    l: int
    charge: float = 1.0
    omega: float = 0.0

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = (l+1)/t + power series in t; omega enters at order t^3."""
        # inf beyond the float range, which CueSeries refuses: a failed gate
        with np.errstate(over="ignore"):
            c = {-1: -2.0 * self.charge, 0: -2.0 * E,
                 2: self.omega * self.omega}
        return _pole_cue(self.l, c, n_terms)


@dataclass(frozen=True)
class YukawaZeroSingularity(_ZeroSingularity):
    """Left boundary at the 0+ singularity of a Yukawa well."""

    l: int
    screening_lambda: float

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = (l+1)/t + series; the screened charge feeds every order."""
        if not self.screening_lambda > 0:
            raise DomainError("yukawa cue needs screening_lambda > 0")
        lam = self.screening_lambda
        c = {s: -2.0 * (-lam) ** (s + 1) / math.factorial(s + 1)
             for s in range(-1, n_terms)}
        # inf beyond the float range, which CueSeries refuses: a failed gate
        with np.errstate(over="ignore"):
            c[0] -= 2.0 * E
        return _pole_cue(self.l, c, n_terms)


TailClass = Union[ConstantLevel, OscillatorTail, CoulombTail,
                  CoulombZeroSingularity, YukawaZeroSingularity]


def constant_levels(left, right, error: Exception) -> Tuple[float, float]:
    """(left, right) levels of two constant tails; raises error otherwise."""
    if not (isinstance(left, ConstantLevel)
            and isinstance(right, ConstantLevel)):
        raise error
    return left.level, right.level


def settled(problem, interval):
    """interval, its ends settled (`settle`) unless they cross on flat V."""
    lo = problem.left_tail.settle(problem, "left", interval[0])
    hi = problem.right_tail.settle(problem, "right", interval[1])
    return (lo, hi) if lo < hi else interval


def _first_not_below(E, level):
    """The first of the energies E (an array) not below level, or None."""
    above = E[~(E < level)]
    return float(above.flat[0]) if above.size else None


# ---------------------------------------------------------------------------
# Boundary angles and residuals used by the spectrum module
# ---------------------------------------------------------------------------

def verify_cue_residual(series: CueSeries, potential, l: int, E: float,
                        t_check: float) -> float:
    """|f' + f^2 - 2(V_eff - E)| at t_check, the gate before a cue is used."""
    from .potentials import effective_radial  # potentials imports this module
    f = series.evaluate(t_check)
    df = series.derivative(t_check)
    v = effective_radial(potential, l).evaluate(t_check)
    return abs(df + f * f - 2.0 * (v - E))


def tail_cue_series(tail, E) -> CueSeries:
    """CueSeries of a series-backed tail at one energy or a batch; the
    pipeline builds each one here."""
    return tail.cue_series(E)


def side_series(problem, E_lo: float, E_hi: float):
    """(left, right): each tail's cue series at the batch [E_lo, E_hi].

    A solve builds them once: its interval gate tests every candidate end
    against its side's, and its mesh takes the end angles from them.  A
    constant tail, whose cue is exact, has None; a series that cannot be
    built has the DomainError or OverflowError that building it raised,
    and fails every candidate end with it (`_tail_failure`).
    """
    pair = []
    for tail in (problem.left_tail, problem.right_tail):
        series = None
        if not isinstance(tail, ConstantLevel):
            try:
                series = tail_cue_series(tail, np.array([E_lo, E_hi],
                                                        dtype=float))
            except (DomainError, OverflowError) as exc:
                series = exc
        pair.append(series)
    return tuple(pair)


def left_boundary_angle(problem, energies, a: float, series=None):
    """Angle of the left-decaying cue at t = a, in (-pi/2, pi/2).

    A float for one energy, an array for an array of energies; series,
    when given, is the left cue series at the energies (`side_series`).
    """
    return problem.left_tail.boundary_angle(energies, a, "left", series)


def right_boundary_angle(problem, energies, b: float, series=None):
    """Angle of the right-decaying cue at t = b, in (-pi/2, pi/2).

    A float for one energy, an array for an array of energies; series,
    when given, is the right cue series at the energies (`side_series`).
    """
    return problem.right_tail.boundary_angle(energies, b, "right", series)


def boundary_residual(problem, E, t: float, side: str, series=None):
    """Cue residual of a series tail at a candidate boundary, a float for
    one energy and an array for an array of energies (a constant tail's cue
    is exact, and its `settle` decides where V has reached the level).
    series, when given, is the side's cue series at E, built already."""
    tail = problem.left_tail if side == "left" else problem.right_tail
    if series is None:
        series = tail_cue_series(tail, E)
    return verify_cue_residual(series, problem.potential, problem.l or 0, E,
                               t)


# ---------------------------------------------------------------------------
# Boundary search used by the series tails
# ---------------------------------------------------------------------------

def _tail_failure(problem, side, t, E_lo, E_hi, config, check_clearance,
                  series):
    """Why t fails as a boundary, or None when it passes.

    t passes when the cue residual is within tolerance at both energy
    extremes, taken in one batch against series, the side's
    (`side_series`), and, with check_clearance, V_eff(t) clears E_hi by
    kappa.  A series that could not be built or that overflows at t (near
    0 or infinity) fails too.
    """
    try:
        if isinstance(series, Exception):
            raise series.with_traceback(None)
        residuals = boundary_residual(problem, np.array([E_lo, E_hi]), t,
                                      side, series)
        for E, residual in zip((E_lo, E_hi), residuals):
            if not residual <= config.residual_tol:     # nan fails too
                return f"cue residual {residual:.3e} at E = {E}"
        if check_clearance:
            clearance = problem.effective_potential().evaluate(t) - E_hi
            if not clearance >= config.kappa:
                return f"V - E_max = {clearance:.3e} is below kappa"
    except (DomainError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _resolve_side(problem, side, E_lo, E_hi, config, series, seed, grow,
                  check_clearance=True):
    """Grow a candidate boundary geometrically until the gates pass."""
    t = seed
    for _ in range(200):
        failure = _tail_failure(problem, side, t, E_lo, E_hi, config,
                                check_clearance, series)
        if failure is None:
            return t
        last_t, t = t, grow(t)
        if t == last_t:
            break
    raise IntervalSelectionError(
        f"no admissible {side} boundary for E in [{E_lo}, {E_hi}] "
        f"(residual_tol={config.residual_tol}); last tried t = {last_t}: "
        f"{failure}")
