"""Boundary angles from decaying-solution ("vanishing cue") asymptotics.

A cue is the logarithmic derivative f = psi'/psi of the solution decaying at
one boundary.  It solves the Riccati identity f' + f^2 = 2(V_eff - E) and is
represented as a leading term plus a finite asymptotic series, truncated at
its smallest term.  arctan(f) at the working-interval endpoint is the
boundary angle fed to the angular integration.

The tail classes live here, one per kind of boundary: each knows its energy
threshold, its cue series, the boundary angle and residual built from it and
where a right boundary search starts.  `potentials` imports this module, so
problems and potentials are duck-typed here.
"""

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import DomainError, ThresholdError

DEFAULT_N_TERMS = 16


# ---------------------------------------------------------------------------
# Series representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearTerm:
    """Leading behaviour f ~ slope * t (oscillator-dominated tails)."""
    slope: float


@dataclass(frozen=True)
class ConstantTerm:
    """Leading behaviour f ~ value (constant-coefficient tails)."""
    value: float


@dataclass(frozen=True)
class PoleTerm:
    """Leading behaviour f ~ coefficient / t (0+ singularities)."""
    coefficient: float


INVERSE_T = "inverse_t"
DIRECT_T = "direct_t"


@dataclass(frozen=True)
class CueSeries:
    """Leading term plus correction series for a Riccati cue f(t).

    For variable == "inverse_t", coeffs[i] multiplies t**-(i+1); for
    "direct_t" it multiplies t**i.  The series is asymptotic: evaluation
    truncates at the smallest surviving term, never past `coeffs`.
    """

    leading: Union[LinearTerm, ConstantTerm, PoleTerm]
    coeffs: Tuple[float, ...]
    variable: str

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("need at least two series coefficients")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("series coefficients must be finite")
        if self.variable not in (INVERSE_T, DIRECT_T):
            raise ValueError(f"unknown series variable {self.variable!r}")

    def _powers(self):
        if self.variable == INVERSE_T:
            return np.arange(-1, -len(self.coeffs) - 1, -1)
        return np.arange(len(self.coeffs))

    def truncation_index(self, t: float) -> int:
        """Number of terms kept at t by the smallest-term rule."""
        mags = np.abs(np.asarray(self.coeffs) * float(t) ** self._powers())
        live = np.nonzero(mags > 0)[0]
        if live.size == 0:
            return len(self.coeffs)
        smallest = live[np.argmin(mags[live])]
        return int(smallest) + 1

    def evaluate(self, t: float, n_terms: int = None) -> float:
        """f(t); n_terms overrides the smallest-term truncation."""
        m = self.truncation_index(t) if n_terms is None else int(n_terms)
        c = np.asarray(self.coeffs[:m])
        tail = float(np.sum(c * float(t) ** self._powers()[:m]))
        return self._leading_value(t) + tail

    def derivative(self, t: float, n_terms: int = None) -> float:
        """f'(t), term-by-term, with the same truncation as evaluate."""
        m = self.truncation_index(t) if n_terms is None else int(n_terms)
        powers = self._powers()[:m]
        c = np.asarray(self.coeffs[:m])
        tail = float(np.sum(c * powers * float(t) ** (powers - 1)))
        return self._leading_derivative(t) + tail

    def _leading_value(self, t):
        lead = self.leading
        if isinstance(lead, LinearTerm):
            return lead.slope * t
        if isinstance(lead, ConstantTerm):
            return lead.value
        return lead.coefficient / t

    def _leading_derivative(self, t):
        lead = self.leading
        if isinstance(lead, LinearTerm):
            return lead.slope
        if isinstance(lead, ConstantTerm):
            return 0.0
        return -lead.coefficient / (t * t)


# ---------------------------------------------------------------------------
# Recurrence engines
# ---------------------------------------------------------------------------
#
# Substituting each ansatz into f' + f^2 = 2(V_eff - E) and matching powers
# of t yields one linear recurrence per leading-term shape.  `d` holds the
# inverse-power tail of the right-hand side (d[s] multiplies t**-s), `c` its
# Taylor part (c[s] multiplies t**s, with s = -1 allowed).

def _linear_leading_series(omega, E, d, n_terms):
    a = np.zeros(n_terms + 1)
    a[1] = E / omega - 0.5
    for s in range(1, n_terms):
        quad = np.dot(a[1:s], a[s - 1:0:-1])
        a[s + 1] = (-(s - 1) * a[s - 1] + quad - d.get(s, 0.0)) / (2 * omega)
    return tuple(a[1:])


def _constant_leading_series(k, d, n_terms):
    b = np.zeros(n_terms + 1)
    for s in range(1, n_terms + 1):
        quad = np.dot(b[1:s], b[s - 1:0:-1])
        b[s] = (-(s - 1) * b[s - 1] + quad - d.get(s, 0.0)) / (2 * k)
    return tuple(b[1:])


def _pole_leading_series(l, c, n_terms):
    a = np.zeros(n_terms)
    for s in range(n_terms):
        quad = np.dot(a[:s], a[s - 1::-1]) if s else 0.0
        a[s] = (c.get(s - 1, 0.0) - quad) / (s + 2 * l + 2)
    return tuple(a)


# ---------------------------------------------------------------------------
# Tail classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantLevel:
    """V identically equal to `level` beyond the boundary.

    The decaying solution is exp(-k|t|) with k = sqrt(2 (level - E)), so the
    boundary angle is exact and no series is needed.
    """

    level: float

    @property
    def threshold(self) -> float:
        return self.level

    def boundary_angle(self, E, t, side, n_terms):
        if not E < self.level:
            raise ThresholdError(
                f"E = {E} not below {side} level {self.level}")
        angle = math.atan(math.sqrt(2.0 * (self.level - E)))
        return angle if side == "left" else -angle

    def residual(self, problem, E, t, n_terms):
        v = problem.effective_potential().evaluate(t)
        k2 = 2.0 * (self.level - E)
        # constant-tail cue is exact only where V has settled to the level
        return abs(2.0 * (v - E) - k2)


class _SeriesTail:
    """A tail whose decaying solution is known through its cue series.

    Subclasses provide cue_series(E, n_terms) and, when they can sit on the
    right, seed(E_hi, kappa, support_edge): where the boundary search starts.
    """

    threshold = math.inf

    def boundary_angle(self, E, t, side, n_terms):
        return math.atan(tail_cue_series(self, E, n_terms).evaluate(t))

    def residual(self, problem, E, t, n_terms):
        series = tail_cue_series(self, E, n_terms)
        return verify_cue_residual(series, problem.potential, problem.l or 0,
                                   E, t)


@dataclass(frozen=True)
class OscillatorTail(_SeriesTail):
    """V ~ omega^2 t^2 / 2 as |t| grows."""

    omega: float

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = -omega t + series, valid as t -> +infinity.

        Evaluated at negative t it gives the left-decaying cue: only odd
        inverse powers survive, so the series is odd like the exact f.
        """
        if not self.omega > 0:
            raise DomainError("oscillator cue needs omega > 0")
        coeffs = _linear_leading_series(self.omega, E, {}, n_terms)
        return CueSeries(LinearTerm(-self.omega), coeffs, INVERSE_T)

    def seed(self, E_hi, kappa, support_edge):
        top = max(E_hi, 0.0)
        turn = math.sqrt(2.0 * max(top, kappa)) / self.omega
        return max(1.3 * turn, 4.0 / math.sqrt(self.omega),
                   support_edge or 0.0)


@dataclass(frozen=True)
class CoulombTail(_SeriesTail):
    """V ~ -charge/t as t -> +infinity, angular momentum l."""

    l: int
    charge: float = 1.0
    threshold = 0.0

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = -sqrt(2|E|) + series in 1/t."""
        d = {1: -2.0 * self.charge, 2: float(self.l * (self.l + 1))}
        return _constant_cue(E, d, n_terms)

    def seed(self, E_hi, kappa, support_edge):
        seed = max(10.0, 3.0 / math.sqrt(2.0 * abs(E_hi)))
        # clearing the tail by kappa forces charge/b <= |E_hi| - kappa
        return max(seed, 1.05 * self.charge / max(abs(E_hi) - kappa, 1e-12))


@dataclass(frozen=True)
class YukawaTail(_SeriesTail):
    """V ~ -exp(-lambda t)/t as t -> +infinity."""

    l: int
    screening_lambda: float
    threshold = 0.0

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = -sqrt(2|E|) + series in 1/t.

        The screened charge decays faster than every inverse power, so the
        series sees only the centrifugal tail; the residual against the
        actual potential accounts for the neglected exponential.
        """
        return _constant_cue(E, {2: float(self.l * (self.l + 1))}, n_terms)

    def seed(self, E_hi, kappa, support_edge):
        return max(10.0, 3.0 / math.sqrt(2.0 * abs(E_hi)))


@dataclass(frozen=True)
class QuarkTail(_SeriesTail):
    """V ~ -1/t + omega^2 t^2 / 2 as t -> +infinity."""

    omega: float
    l: int

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = -omega t + series in 1/t."""
        if not self.omega > 0:
            raise DomainError("quark infinity cue needs omega > 0; for "
                              "omega -> 0 use the Coulomb cue instead")
        d = {1: -2.0, 2: float(self.l * (self.l + 1))}
        coeffs = _linear_leading_series(self.omega, E, d, n_terms)
        return CueSeries(LinearTerm(-self.omega), coeffs, INVERSE_T)

    def seed(self, E_hi, kappa, support_edge):
        top = max(E_hi, 0.0)
        turn = math.sqrt(2.0 * max(top, kappa) + 2.0) / self.omega
        return max(1.3 * turn, 4.0 / math.sqrt(self.omega))


@dataclass(frozen=True)
class CoulombZeroSingularity(_SeriesTail):
    """Left boundary at the 0+ singularity of a Coulomb-type well."""

    l: int
    charge: float = 1.0

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """f = (l+1)/t + power series in t."""
        return _pole_cue(self.l, {-1: -2.0 * self.charge, 0: -2.0 * E},
                         n_terms)


@dataclass(frozen=True)
class YukawaZeroSingularity(_SeriesTail):
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
        c[0] -= 2.0 * E
        return _pole_cue(self.l, c, n_terms)


@dataclass(frozen=True)
class QuarkZeroSingularity(_SeriesTail):
    """Left boundary at the 0+ singularity of the quark hybrid well."""

    omega: float
    l: int

    def cue_series(self, E, n_terms=DEFAULT_N_TERMS):
        """Coulomb 0+ cue plus the confining term from order t^3 on."""
        c = {-1: -2.0, 0: -2.0 * E, 2: self.omega * self.omega}
        return _pole_cue(self.l, c, n_terms)


TailClass = Union[
    ConstantLevel, OscillatorTail, CoulombTail, YukawaTail, QuarkTail,
    CoulombZeroSingularity, YukawaZeroSingularity, QuarkZeroSingularity,
]


def _constant_cue(E, d, n_terms):
    k = _decay_rate(E)
    return CueSeries(ConstantTerm(-k), _constant_leading_series(k, d, n_terms),
                     INVERSE_T)


def _pole_cue(l, c, n_terms):
    return CueSeries(PoleTerm(l + 1.0), _pole_leading_series(l, c, n_terms),
                     DIRECT_T)


def _decay_rate(E):
    if not E < 0:
        raise ThresholdError("decaying tail cue needs E < 0")
    return math.sqrt(-2.0 * E)


# ---------------------------------------------------------------------------
# Cue constructors (unit charge for the Coulomb cue)
# ---------------------------------------------------------------------------

def oscillator_cue_coeffs(omega: float, E: float,
                          n_terms: int = DEFAULT_N_TERMS) -> CueSeries:
    """Right-decaying cue of the pure harmonic tail, f = -omega t + series."""
    return OscillatorTail(omega).cue_series(E, n_terms)


def coulomb_infinity_cue_coeffs(l: int, E: float,
                                n_terms: int = DEFAULT_N_TERMS) -> CueSeries:
    """Right-decaying Coulomb cue, f = -sqrt(2|E|) + series in 1/t."""
    return CoulombTail(l).cue_series(E, n_terms)


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


def tail_cue_series(tail, E: float,
                    n_terms: int = DEFAULT_N_TERMS) -> CueSeries:
    """CueSeries of a series-backed tail; the pipeline builds each one here."""
    return tail.cue_series(E, n_terms)


def left_boundary_angle(problem, E: float, a: float,
                        n_terms: int = DEFAULT_N_TERMS) -> float:
    """Angle of the left-decaying cue at t = a, in (-pi/2, pi/2)."""
    return problem.left_tail.boundary_angle(E, a, "left", n_terms)


def right_boundary_angle(problem, E: float, b: float,
                         n_terms: int = DEFAULT_N_TERMS) -> float:
    """Angle of the right-decaying cue at t = b, in (-pi/2, pi/2)."""
    return problem.right_tail.boundary_angle(E, b, "right", n_terms)


def boundary_residual(problem, E: float, t: float, side: str,
                      n_terms: int = DEFAULT_N_TERMS) -> float:
    """Cue residual at a candidate boundary; 0 for exact constant tails."""
    tail = problem.left_tail if side == "left" else problem.right_tail
    return tail.residual(problem, E, t, n_terms)
