"""Potential families and problem specifications.

All quantities are dimensionless with hbar = m = 1.  Potentials evaluate on
scalars or numpy arrays; instances are immutable and safe to share between
workers.  Each family names its own boundary behaviour through tails(l):
one tail class per asymptotic shape, with the family's parameters (the
Yukawa far tail is a Coulomb tail of zero charge, and a Coulomb well with
an oscillator term, the quark hybrid among them, has the oscillator far
tail with its charge).  The tail classes live in `cues` and are
re-exported here.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

import numpy as np

from .cues import (ConstantLevel, CoulombTail, CoulombZeroSingularity,
                   OscillatorTail, TailClass, YukawaZeroSingularity,
                   constant_levels)
from .errors import ConfigError, DomainError


def _check_positive(name, value):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _cache_arrays(potential, **entries):
    """Set each entry on the frozen potential as a read-only float array."""
    for name, values in entries.items():
        array = np.array(values, dtype=float)
        array.flags.writeable = False
        object.__setattr__(potential, name, array)


# ---------------------------------------------------------------------------
# Potential families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedOscillator:
    """Harmonic well frozen at its value beyond |t| = cutoff_a.

    V(t) = omega^2 t^2 / 2 for |t| <= cutoff_a, constant outside; C0 at the
    truncation radii.
    """

    omega: float
    cutoff_a: float

    def __post_init__(self):
        _check_positive("omega", self.omega)
        _check_positive("cutoff_a", self.cutoff_a)
        if not math.isfinite(self.tails(0)[0].level):
            raise ValueError(f"the tail level omega^2 cutoff_a^2 / 2 "
                             f"overflows for omega = {self.omega!r}, "
                             f"cutoff_a = {self.cutoff_a!r}")

    def breakpoints(self):
        return (-self.cutoff_a, self.cutoff_a)

    def evaluate(self, t):
        x = np.minimum(np.abs(t), self.cutoff_a)
        return 0.5 * self.omega**2 * x * x

    def tails(self, l):
        v = 0.5 * self.omega**2 * self.cutoff_a**2
        return ConstantLevel(v), ConstantLevel(v)


@dataclass(frozen=True)
class HybridOscillator:
    """Two harmonic half-wells joined continuously at the origin."""

    omega_left: float
    omega_right: float

    def __post_init__(self):
        _check_positive("omega_left", self.omega_left)
        _check_positive("omega_right", self.omega_right)

    def breakpoints(self):
        return (0.0,)

    def evaluate(self, t):
        w = np.where(np.asarray(t) < 0, self.omega_left, self.omega_right)
        out = 0.5 * w * w * np.asarray(t) ** 2
        return float(out) if np.isscalar(t) else out

    def tails(self, l):
        return (OscillatorTail(self.omega_left),
                OscillatorTail(self.omega_right))


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step potential: values[i] on (breakpoints[i-1], breakpoints[i]).

    The fields are tuples; read-only arrays of both, built once and kept
    outside the fields, let `evaluate` find a piece in O(log n).
    """

    breakpoints_: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints_)
        vals = tuple(float(x) for x in self.values)
        if len(vals) != len(bp) + 1:
            raise ValueError("need len(values) == len(breakpoints) + 1")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints_", bp)
        object.__setattr__(self, "values", vals)
        _cache_arrays(self, _edges=bp, _levels=vals)

    def breakpoints(self):
        return self.breakpoints_

    def evaluate(self, t):
        out = self._levels[np.searchsorted(self._edges, t, side="right")]
        return float(out) if np.isscalar(t) else out

    def tails(self, l):
        return ConstantLevel(self.values[0]), ConstantLevel(self.values[-1])


def SquareWell(depth: float, left: float, right: float) -> PiecewiseConstant:
    """Constant well of the given (non-positive) depth on [left, right)."""
    if depth > 0:
        raise ValueError("depth must be <= 0")
    if not left < right:
        raise ValueError("left edge must be below right edge")
    return PiecewiseConstant((left, right), (0.0, depth, 0.0))


@dataclass(frozen=True)
class Coulomb:
    """Attractive Coulomb well on the half line, with an optional confining
    oscillator term: V(t) = -charge / t + omega^2 t^2 / 2, omega >= 0."""

    charge: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        _check_positive("charge", self.charge)
        if not self.omega >= 0:
            raise ValueError(f"omega must be non-negative, got {self.omega!r}")

    def breakpoints(self):
        return ()

    def evaluate(self, t):
        _require_half_line(t)
        return -self.charge / t + 0.5 * self.omega**2 * t * t

    def tails(self, l):
        far = (OscillatorTail(self.omega, l, self.charge) if self.omega > 0
               else CoulombTail(l, self.charge))
        return CoulombZeroSingularity(l, self.charge, self.omega), far


def QuarkHybrid(omega: float) -> Coulomb:
    """The quark hybrid well -1/t + omega^2 t^2 / 2, omega > 0: a unit
    Coulomb charge confined by an oscillator term."""
    _check_positive("omega", omega)
    return Coulomb(1.0, omega)


@dataclass(frozen=True)
class Yukawa:
    """Screened Coulomb well V(t) = -exp(-lambda t) / t."""

    screening_lambda: float

    def __post_init__(self):
        _check_positive("screening_lambda", self.screening_lambda)

    def breakpoints(self):
        return ()

    def evaluate(self, t):
        _require_half_line(t)
        return -np.exp(-self.screening_lambda * t) / t

    def tails(self, l):
        # the screened charge leaves a pure centrifugal far tail
        return (YukawaZeroSingularity(l, self.screening_lambda),
                CoulombTail(l, 0.0))


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear interpolation of (t, V) samples.

    Clamps to the endpoint values outside the sampled range, consistent with
    a compactly supported deformation between constant tails.  The fields
    are tuples; `evaluate` reads read-only arrays of both, built once and
    kept outside the fields.
    """

    ts: Tuple[float, ...]
    vs: Tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(x) for x in self.ts)
        vs = tuple(float(x) for x in self.vs)
        if len(ts) != len(vs) or len(ts) < 2:
            raise ValueError("need matching (t, V) samples, at least two")
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("sample abscissae must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "vs", vs)
        _cache_arrays(self, _ts=ts, _vs=vs)

    def breakpoints(self):
        return self.ts

    def evaluate(self, t):
        out = np.interp(t, self._ts, self._vs)
        return float(out) if np.isscalar(t) else out

    def tails(self, l):
        return ConstantLevel(self.vs[0]), ConstantLevel(self.vs[-1])


@dataclass(frozen=True)
class EffectiveRadial:
    """base potential plus the centrifugal barrier l(l+1)/(2 t^2)."""

    base: "PotentialSpec"
    l: int

    def __post_init__(self):
        object.__setattr__(self, "l", _angular_momentum(self.l))
        if not self.base.tails(self.l)[0].half_line:
            raise ValueError(_NO_ZERO_CUE)

    def breakpoints(self):
        return self.base.breakpoints()

    def evaluate(self, t):
        # the base family guards the half line (see __post_init__)
        return self.base.evaluate(t) + 0.5 * self.l * (self.l + 1) / (t * t)

    def tails(self, l):
        return self.base.tails(self.l)


@dataclass(frozen=True)
class Shifted:
    """base potential plus a constant offset (spectra shift with it)."""

    base: "PotentialSpec"
    offset: float

    def breakpoints(self):
        return self.base.breakpoints()

    def evaluate(self, t):
        return self.base.evaluate(t) + self.offset

    def tails(self, l):
        left, right = constant_levels(
            *self.base.tails(l),
            ConfigError("shifted potentials support constant tails only"))
        return (ConstantLevel(left + self.offset),
                ConstantLevel(right + self.offset))


PotentialSpec = Union[
    TruncatedOscillator, HybridOscillator, PiecewiseConstant, Coulomb,
    Yukawa, Tabulated, EffectiveRadial, Shifted,
]


_NO_ZERO_CUE = "half-line problems need a 0+ singularity cue on the left"


def _require_half_line(t):
    # the cue gates read V at one float t, where np.any would cost more
    # than V; the pass meshes read it on arrays
    if t <= 0 if isinstance(t, float) else np.any(np.asarray(t) <= 0):
        raise DomainError("half-line potential evaluated at t <= 0")


def _angular_momentum(l) -> int:
    """l as an int; ValueError unless it is a non-negative integer."""
    if l < 0 or int(l) != l:
        raise ValueError("l must be a non-negative integer")
    return int(l)


def effective_radial(potential: PotentialSpec, l: int) -> PotentialSpec:
    """Half-line potential with the centrifugal term for angular momentum l.

    For l = 0 the input is returned unchanged (the barrier vanishes).
    """
    if l == 0:
        return potential
    return EffectiveRadial(potential, l)


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A potential, its angular momentum and a working interval.

    l is None on the whole line and a non-negative integer on the half line,
    where only a family whose left tail is a 0+ singularity fits; the tail
    classes follow from (potential, l) and are derived here, never passed
    in.  interval is None for automatic selection (see
    spectrum.auto_interval).
    """

    potential: PotentialSpec
    l: Optional[int] = None
    interval: Optional[Tuple[float, float]] = None
    left_tail: TailClass = field(init=False)
    right_tail: TailClass = field(init=False)

    def __post_init__(self):
        if self.l is not None:
            object.__setattr__(self, "l", _angular_momentum(self.l))
        left, right = self.potential.tails(self.l or 0)
        if left.half_line != (self.l is not None):
            raise ValueError(_NO_ZERO_CUE if self.l is not None else
                             "half-line-only potential on the whole line")
        object.__setattr__(self, "left_tail", left)
        object.__setattr__(self, "right_tail", right)
        if self.interval is not None:
            a, b = self.interval
            if not (a < b and math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"need finite a < b, got interval ({a}, {b})")
            if self.l is not None and not a > 0:
                raise ValueError(
                    "half-line problems must start at a > 0, never at the "
                    "singularity")

    def effective_potential(self) -> PotentialSpec:
        """The potential actually entering the angular equation."""
        return effective_radial(self.potential, self.l or 0)

    def with_interval(self, a: float, b: float) -> "ProblemSpec":
        return replace(self, interval=(a, b))

    def threshold(self) -> float:
        """Energies must stay below this for the defect angle to exist."""
        return min(self.left_tail.threshold, self.right_tail.threshold)


def problem_for(potential: PotentialSpec, l: Optional[int] = None,
                interval: Optional[Tuple[float, float]] = None) -> ProblemSpec:
    """ProblemSpec of the potential; families with a 0+ cue get l = 0."""
    if l is None and potential.tails(0)[0].half_line:
        l = 0
    return ProblemSpec(potential, l, interval)
