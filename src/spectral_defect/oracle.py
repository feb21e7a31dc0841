"""Independent verification paths for the angular pipeline.

Three deliberately different routes to the same spectra: direct phase-space
integration of (psi, psi'), the symplectic transfer-matrix eigencondition,
and a finite-difference matrix eigensolver.  Shared-bug risk with the
shooting pipeline is minimal by construction.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .angular import IntegratorConfig, _integrate_vector
from .errors import DomainError, ThresholdError
from .potentials import ConstantLevel, ProblemSpec
from .spectrum import SolveConfig, auto_interval

_RESCALE_LIMIT = 1e120


@dataclass(frozen=True)
class PhaseState:
    """Point on the classical phase plane: q = psi, p = psi'.

    The true components are q * 2**scale_exp, p * 2**scale_exp; only the
    direction matters for spectral checks, so overflow is absorbed into the
    exponent.
    """

    t: float
    q: float
    p: float
    scale_exp: int = 0

    def angle(self) -> float:
        return math.atan2(self.p, self.q)


@dataclass(frozen=True)
class TransferMatrix:
    """Symplectic 2x2 evolution matrix u(b, a), times 2**scale_exp."""

    matrix: np.ndarray
    scale_exp: int = 0

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix)) * 4.0 ** self.scale_exp


def _phase_fun(potential, E):
    def fun(t, y):
        return np.array([y[1], 2.0 * (potential.evaluate(t) - E) * y[0]])
    return fun


def _propagate(potential, E, t0, t1, y0, config):
    """(q, p) propagation with power-of-two rescaling on overflow."""
    fun = _phase_fun(potential, E)
    breaks = [p for p in potential.breakpoints() if t0 < p < t1]
    points = [t0] + sorted(breaks) + [t1]
    # extra cuts so growth between rescale checks stays representable
    refined = []
    for s0, s1 in zip(points, points[1:]):
        pieces = max(1, int(math.ceil((s1 - s0) / 5.0)))
        refined.extend(np.linspace(s0, s1, pieces + 1)[:-1])
    refined.append(t1)
    y = np.asarray(y0, dtype=float)
    exp = 0
    for s0, s1 in zip(refined, refined[1:]):
        y, _, _ = _integrate_vector(fun, s0, s1, y, config, ())
        peak = np.max(np.abs(y))
        if peak > _RESCALE_LIMIT:
            shift = int(math.floor(math.log2(peak)))
            y = y / 2.0 ** shift
            exp += shift
    return y, exp


def propagate_phase(problem: ProblemSpec, E: float, start: PhaseState,
                    t_end: float,
                    config: IntegratorConfig = None) -> PhaseState:
    """Integrate dq/dt = p, dp/dt = 2[V - E] q from the start state."""
    config = config or IntegratorConfig()
    potential = problem.effective_potential()
    y, exp = _propagate(potential, E, start.t, t_end,
                        [start.q, start.p], config)
    return PhaseState(t=t_end, q=float(y[0]), p=float(y[1]),
                      scale_exp=start.scale_exp + exp)


def transfer_matrix(problem: ProblemSpec, E: float,
                    config: IntegratorConfig = None) -> TransferMatrix:
    """u(b, a) over the compact support, from the two canonical states."""
    config = config or IntegratorConfig()
    a, b = _support_interval(problem)
    potential = problem.effective_potential()
    cols = []
    exps = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        y, exp = _propagate(potential, E, a, b, y0, config)
        cols.append(y)
        exps.append(exp)
    common = max(exps)
    u = np.column_stack([c / 2.0 ** (common - e)
                         for c, e in zip(cols, exps)])
    return TransferMatrix(matrix=u, scale_exp=common)


def _tail_levels(problem):
    """(left, right) tail levels; DomainError unless both are constant."""
    left, right = problem.left_tail, problem.right_tail
    if not (isinstance(left, ConstantLevel)
            and isinstance(right, ConstantLevel)):
        raise DomainError("transfer matrices need constant tails")
    return left.level, right.level


def _support_interval(problem):
    _tail_levels(problem)
    if problem.interval is not None:
        return problem.interval
    bp = problem.potential.breakpoints()
    if not bp:
        raise DomainError("potential has no compact support to bracket")
    return min(bp), max(bp)


def transfer_mismatch(problem: ProblemSpec, E: float,
                      config: IntegratorConfig = None) -> float:
    """Signed angle (mod pi, in (-pi/2, pi/2]) between u(b,a) e+ and e-.

    Zero exactly at eigenvalues: the expanding direction must be carried
    onto the shrinking one.
    """
    left, right = _tail_levels(problem)
    if not (E < left and E < right):
        raise ThresholdError("E must lie below both tail levels")
    u = transfer_matrix(problem, E, config).matrix
    e_plus = np.array([1.0, math.sqrt(2.0 * (left - E))])
    k_minus = math.sqrt(2.0 * (right - E))
    out = u @ e_plus
    theta = math.atan2(out[1], out[0]) - math.atan(-k_minus)
    return (theta + math.pi / 2) % math.pi - math.pi / 2


def eigencondition_root(problem: ProblemSpec, E_lo: float, E_hi: float,
                        config: IntegratorConfig = None,
                        xtol: float = 1e-12) -> float:
    """Root of the transfer mismatch inside a bracket around one level."""
    config = config or IntegratorConfig()

    def f(E):
        return transfer_mismatch(problem, E, config)

    f_lo, f_hi = f(E_lo), f(E_hi)
    if f_lo * f_hi > 0:
        raise DomainError(
            f"mismatch does not change sign on [{E_lo}, {E_hi}]")
    return brentq(f, E_lo, E_hi, xtol=xtol)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FdResult:
    """Richardson-extrapolated eigenvalues with discretization estimates."""

    energies: np.ndarray
    errors: np.ndarray
    interval: Tuple[float, float]

    def __iter__(self):
        return iter(self.energies)

    def __len__(self):
        return len(self.energies)


def _fd_levels(potential, a, b, n, e_ceiling):
    h = (b - a) / (n + 1)
    t = a + h * np.arange(1, n + 1)
    v = np.asarray(potential.evaluate(t), dtype=float)
    diag = 1.0 / h**2 + v
    off = np.full(n - 1, -0.5 / h**2)
    lo = float(np.min(v)) - 1.0
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                            select_range=(lo, e_ceiling))
    return vals


def fd_eigenvalues(problem: ProblemSpec, E_ceiling: float,
                   grid_size: int = 4096,
                   interval: Optional[Tuple[float, float]] = None,
                   config: SolveConfig = None) -> FdResult:
    """Dirichlet three-point eigenvalues below E_ceiling, extrapolated.

    Two grids (h and h/2) feed a Richardson step that removes the leading
    h^2 error and estimates what is left.
    """
    if grid_size < 64:
        raise DomainError("grid_size must be at least 64")
    config = config or SolveConfig()
    potential = problem.effective_potential()
    if interval is None:
        interval = _fd_interval(problem, E_ceiling, config)
    a, b = interval
    coarse = _fd_levels(potential, a, b, grid_size, E_ceiling)
    fine = _fd_levels(potential, a, b, 2 * grid_size + 1, E_ceiling)
    m = min(len(coarse), len(fine))
    coarse, fine = coarse[:m], fine[:m]
    extrap = (4.0 * fine - coarse) / 3.0
    errors = np.abs(fine - coarse) / 3.0
    keep = extrap < E_ceiling
    return FdResult(energies=extrap[keep], errors=errors[keep],
                    interval=(a, b))


def _fd_interval(problem, e_ceiling, config):
    """Auto interval padded so Dirichlet walls sit deep in the decay zone."""
    a, b = auto_interval(problem, e_ceiling - 1e-9, e_ceiling, config)
    left, right = problem.left_tail, problem.right_tail
    if isinstance(right, ConstantLevel):
        kappa = math.sqrt(2.0 * max(right.level - e_ceiling, config.kappa))
        b = b + 16.0 / kappa
    else:
        b = 1.3 * b
    if problem.l is not None:
        a = 0.0 if problem.l > 0 else min(a, 1e-4)
        a = max(a, 1e-6)
    elif isinstance(left, ConstantLevel):
        kappa = math.sqrt(2.0 * max(left.level - e_ceiling, config.kappa))
        a = a - 16.0 / kappa
    else:
        a = 1.3 * a
    return a, b
