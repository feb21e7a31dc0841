"""Independent verification paths for the angular pipeline.

Two deliberately different routes to the same spectra: the transfer
eigencondition, built by direct phase-space integration of (psi, psi') for
a whole batch of energies at once, and a finite-difference matrix
eigensolver.  Shared-bug risk with the shooting pipeline is minimal by
construction.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import cues
from .angular import _integrate_vector
from .errors import DomainError
from .potentials import ProblemSpec
from .spectrum import (SolveConfig, _check_energies, _matching_point,
                       auto_interval)

_RESCALE_LIMIT = 1e120
_ROOT_XTOL = 1e-12          # brentq's absolute tolerance on a transfer root


def _propagate(potential, energies, s0, s1, y, config):
    """y, a (2, N) array of (q, p) columns, one per energy, carried from s0
    to s1 (either order) in one integration.

    The integrator cuts at the breakpoints.  At checkpoints at most 5
    apart, a column whose peak passes _RESCALE_LIMIT is divided by its own
    power of two before growth can overflow; a column that never grows
    past the limit comes back unscaled.
    """
    def fun(t, y):      # (q, p)' of the columns, y = (q1, .., p1, ..)
        half = y.size // 2
        return np.concatenate(
            [y[half:], 2.0 * (potential.evaluate(t) - energies) * y[:half]])

    y = np.asarray(y, dtype=float)
    checkpoints = np.linspace(s0, s1,
                              max(1, math.ceil(abs(s1 - s0) / 5.0)) + 1)
    for p0, p1 in zip(checkpoints, checkpoints[1:]):
        y = _integrate_vector(fun, p0, p1, y.ravel(), config,
                              potential.breakpoints()).reshape(2, -1)
        peak = np.max(np.abs(y), axis=0)
        big = peak > _RESCALE_LIMIT
        y[:, big] /= np.exp2(np.floor(np.log2(peak[big])))
    return y


def transfer_mismatch(problem: ProblemSpec, E, config: SolveConfig = None):
    """theta_L - theta_R mod pi, in (-pi/2, pi/2]: the angles of e+
    carried forward from a and of e- carried backward from b to the
    matching point c of the support [a, b] (`spectrum._matching_point`).

    E is one energy (a float comes back) or an array of them (an array
    comes back); each half is one `_propagate` call for all of them.  e+ =
    (1, k_L) decays to the left of a and e- = (1, -k_R) to the right of b,
    so the mismatch is zero exactly at eigenvalues.  Each direction is
    carried only toward the well, not across the far tail, where it would
    turn onto the growing direction whatever E is.  The ends are the
    problem interval's (or +-inf) settled on the support (`cues.settled`),
    so the cost does not grow with the length of a constant tail.
    """
    left, right = cues.constant_levels(
        problem.left_tail, problem.right_tail,
        DomainError("transfer matrices need constant tails"))
    energies = _check_energies(problem, "E", E)
    config = config or SolveConfig()
    a, b = cues.settled(problem, problem.interval or (-math.inf, math.inf))
    c = _matching_point(problem, (a, b))
    potential = problem.effective_potential()
    e = energies.ravel()
    (q_l, p_l), (q_r, p_r) = (
        _propagate(potential, e, s0, c, np.stack([np.ones_like(e), slope]),
                   config)
        for s0, slope in ((a, np.sqrt(2.0 * (left - e))),
                          (b, -np.sqrt(2.0 * (right - e)))))
    theta_l, theta_r = np.arctan2(p_l, q_l), np.arctan2(p_r, q_r)
    mismatch = math.pi / 2 - (theta_r - theta_l + math.pi / 2) % math.pi
    return cues._scalar_or_array(mismatch.reshape(energies.shape))


def eigencondition_root(problem: ProblemSpec, E_lo: float, E_hi: float,
                        config: SolveConfig = None) -> float:
    """Root of the transfer mismatch inside a bracket around one level.

    The mismatch also changes sign where it wraps from pi/2 to -pi/2;
    brentq converges on that jump as on a root, so a result whose mismatch
    is more than pi/4 from zero raises instead.
    """
    from scipy.optimize import brentq

    for name, E in (("E_lo", E_lo), ("E_hi", E_hi)):
        _check_energies(problem, name, E)

    def f(E):
        return transfer_mismatch(problem, E, config)

    f_lo, f_hi = f(E_lo), f(E_hi)
    if f_lo * f_hi > 0:
        raise DomainError(
            f"mismatch does not change sign on [{E_lo}, {E_hi}]")
    root = brentq(f, E_lo, E_hi, xtol=_ROOT_XTOL)
    if abs(f(root)) > math.pi / 4:
        raise DomainError(
            f"the mismatch wraps past pi/2 on [{E_lo}, {E_hi}] instead of "
            "crossing zero; narrow the bracket around one level")
    return root


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FdResult:
    """Richardson-extrapolated eigenvalues with discretization estimates."""

    energies: np.ndarray
    errors: np.ndarray

    def __len__(self):
        return len(self.energies)


def _fd_levels(potential, a, b, n, e_ceiling):
    """Levels below e_ceiling of the Dirichlet three-point matrix.

    A node reads V at itself, unless a breakpoint lies strictly inside its
    cell (t - h/2, t + h/2) and off the node: then it reads the mean of V
    over the cell, taken piece by piece at the pieces' midpoints.  A jump
    read at one side of it would move the levels by O(h) and spoil the
    Richardson step; on a grid whose nodes or cell edges hold the
    breakpoints nothing changes.
    """
    from scipy.linalg import eigh_tridiagonal

    h = (b - a) / (n + 1)
    if not 0.0 < h * h < math.inf:
        raise DomainError(f"the fd grid step {h:g} on [{a:g}, {b:g}] has no "
                          "finite nonzero square")
    t = a + h * np.arange(1, n + 1)
    v = np.asarray(potential.evaluate(t), dtype=float)
    breakpoints = np.unique(potential.breakpoints())
    for i in np.unique(np.rint((breakpoints - a) / h).astype(int) - 1):
        if not 0 <= i < n:
            continue
        left, right = t[i] - 0.5 * h, t[i] + 0.5 * h
        inside = breakpoints[(left < breakpoints) & (breakpoints < right)]
        if np.any(inside != t[i]):
            cuts = np.concatenate([[left], inside, [right]])
            v[i] = np.dot(np.diff(cuts), potential.evaluate(
                0.5 * (cuts[:-1] + cuts[1:]))) / h
    diag = 1.0 / h**2 + v
    off = np.full(n - 1, -0.5 / h**2)
    lo = float(np.min(v)) - 1.0
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                            select_range=(lo, e_ceiling))


def fd_eigenvalues(problem: ProblemSpec, E_ceiling: float,
                   grid_size: int = 4096,
                   interval: Optional[Tuple[float, float]] = None,
                   config: SolveConfig = None) -> FdResult:
    """Dirichlet three-point eigenvalues below E_ceiling, extrapolated.

    Two grids (h and h/2) feed a Richardson step that removes the leading
    h^2 error and estimates what is left.
    """
    if not (isinstance(grid_size, (int, np.integer)) and grid_size >= 64):
        raise DomainError(f"grid_size must be an integer of at least 64, "
                          f"not {grid_size!r}")
    _check_energies(problem if interval is None else None, "E_ceiling",
                    E_ceiling)
    potential = problem.effective_potential()
    if interval is None:
        interval = fd_interval(problem, E_ceiling, config)
    a, b = interval
    coarse = _fd_levels(potential, a, b, grid_size, E_ceiling)
    fine = _fd_levels(potential, a, b, 2 * grid_size + 1, E_ceiling)
    m = min(len(coarse), len(fine))
    coarse, fine = coarse[:m], fine[:m]
    extrap = (4.0 * fine - coarse) / 3.0
    errors = np.abs(fine - coarse) / 3.0
    keep = extrap < E_ceiling
    return FdResult(energies=extrap[keep], errors=errors[keep])


def fd_interval(problem: ProblemSpec, E: float,
                config: SolveConfig = None) -> Tuple[float, float]:
    """The walls (`_walls`) of the auto or admitted interval at E."""
    _check_energies(problem, "E", E)
    config = config or SolveConfig()
    return _walls(problem, auto_interval(problem, E - 1e-9, E, config), E,
                  config)


def _walls(problem, interval, E, config):
    """Each end settled (`cues.settled`), then padded by its tail's
    `fd_edge`, deep in the decay zone of every level at or below E."""
    a, b = cues.settled(problem, interval)
    return (problem.left_tail.fd_edge(a, "left", E, config),
            problem.right_tail.fd_edge(b, "right", E, config))
