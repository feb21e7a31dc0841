"""Integration of the angular form of the Riccati equation.

The phase-plane angle alpha of (psi, psi') obeys

    d(alpha)/dt = 2 [V(t) - E] cos^2(alpha) - sin^2(alpha)

which is globally regular: at vertical angles the rate is exactly -1, so
trajectories cross them transversally and alpha can be integrated as an
ordinary unwrapped real variable.  The log-amplitude co-integrates as
d(log rho)/dt = [V - E + 1/2] sin(2 alpha) when eigenfunctions are needed.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError
from .potentials import ProblemSpec

_EXPLICIT_METHODS = ("RK23", "RK45", "DOP853")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for the adaptive embedded-pair integrator.

    method is an explicit scipy solve_ivp scheme: RK23, RK45 or DOP853.
    DOP853 is the default because the 1e-12 tolerances make a high-order
    pair much cheaper than a 4(5) pair at equal accuracy.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    method: str = "DOP853"

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.method not in _EXPLICIT_METHODS:
            raise ValueError(f"method must be one of "
                             f"{', '.join(_EXPLICIT_METHODS)}, got "
                             f"{self.method!r}")


# ---------------------------------------------------------------------------
# Segment-split adaptive integration
# ---------------------------------------------------------------------------

def _segment_points(a: float, b: float, breakpoints: Sequence[float]):
    inner = sorted(p for p in set(breakpoints) if a < p < b)
    return [a] + inner + [b]


def _integrate_vector(fun, a, b, y0, config, breakpoints, t_eval=None):
    """Integrate y' = fun(t, y) over [a, b], split at breakpoints.

    Returns (y_final, t_points, y_points); the sampled arrays are only
    collected when t_eval is given.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    steps = 0
    ts_out, ys_out = [], []
    for s0, s1 in zip(*(lambda p: (p[:-1], p[1:]))(
            _segment_points(a, b, breakpoints))):
        kwargs = {}
        if t_eval is not None:
            sel = [t for t in t_eval if s0 <= t <= s1]
            kwargs["t_eval"] = sorted(set(sel + [s1]))
        sol = solve_ivp(fun, (s0, s1), y, method=config.method,
                        rtol=config.rel_tol, atol=config.abs_tol,
                        dense_output=False, **kwargs)
        if not sol.success:
            raise IntegrationError(
                f"integrator stopped at t = {sol.t[-1]}: {sol.message}",
                t_reached=float(sol.t[-1]))
        steps += sol.t.size
        if steps > config.max_steps:
            raise IntegrationError(
                f"step budget {config.max_steps} exhausted at t = "
                f"{sol.t[-1]}", t_reached=float(sol.t[-1]))
        if t_eval is not None:
            ts_out.append(sol.t)
            ys_out.append(sol.y)
        y = sol.y[:, -1]
    if t_eval is not None:
        return y, np.concatenate(ts_out), np.concatenate(ys_out, axis=1)
    return y, None, None


def _angular_fun(potential, energies, with_amplitude):
    energies = np.asarray(energies, dtype=float)
    n = energies.size

    def fun(t, y):
        v = potential.evaluate(t)
        alpha = y[:n]
        c = np.cos(alpha)
        s = np.sin(alpha)
        dalpha = 2.0 * (v - energies) * c * c - s * s
        if not with_amplitude:
            return dalpha
        dlog = (v - energies + 0.5) * 2.0 * s * c
        return np.concatenate([dalpha, dlog])

    return fun


def _scaled_fun(potential, energies):
    energies = np.asarray(energies, dtype=float)
    if not np.all(energies < 0):
        raise DomainError("scaled angular chart requires E < 0")
    roots = np.sqrt(2.0 * np.abs(energies))

    def fun(t, y):
        v = potential.evaluate(t)
        c = np.cos(y)
        return roots * np.cos(2.0 * y) + (2.0 / roots) * v * c * c

    return fun


def integrate_angles(problem: ProblemSpec, energies, alpha_starts, a: float,
                     b: float, config: IntegratorConfig,
                     with_amplitude: bool = False, chart: str = "plain"):
    """Batched angle integration over [a, b]; one component per energy.

    Sharing one adaptive mesh across the batch keeps every component within
    tolerance (the controller steps on the worst one) and amortizes the
    per-step cost of the scan and of lock-step bisection.
    Returns (alphas_at_b, log_rhos_at_b or None).
    """
    potential = problem.effective_potential()
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    alpha_starts = np.broadcast_to(
        np.asarray(alpha_starts, dtype=float), energies.shape)
    if chart == "scaled":
        if with_amplitude:
            raise DomainError("amplitude tracking is only wired to the "
                              "plain chart")
        fun = _scaled_fun(potential, energies)
        y0 = alpha_starts
    elif chart == "plain":
        fun = _angular_fun(potential, energies, with_amplitude)
        y0 = (np.concatenate([alpha_starts, np.zeros_like(alpha_starts)])
              if with_amplitude else alpha_starts)
    else:
        raise DomainError(f"unknown chart {chart!r}")
    y, _, _ = _integrate_vector(fun, a, b, y0, config,
                                potential.breakpoints())
    n = energies.size
    if with_amplitude:
        return y[:n], y[n:]
    return y, None


def integrate_angle_sampled(problem: ProblemSpec, E: float,
                            alpha_start: float, a: float, b: float,
                            config: IntegratorConfig, t_eval):
    """(t, alpha, log_rho) over [a, b], sampled on t_eval."""
    potential = problem.effective_potential()
    fun = _angular_fun(potential, [E], with_amplitude=True)
    y0 = np.array([alpha_start, 0.0])
    _, ts, ys = _integrate_vector(fun, a, b, y0, config,
                                  potential.breakpoints(), t_eval=list(t_eval))
    return ts, ys[0], ys[1]
