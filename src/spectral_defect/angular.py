"""Integration of the angular form of the Riccati equation.

The phase-plane angle alpha of (psi, psi') obeys

    d(alpha)/dt = 2 [V(t) - E] cos^2(alpha) - sin^2(alpha)

which is globally regular: at vertical angles the rate is exactly -1, so
trajectories cross them transversally and alpha can be integrated as an
ordinary unwrapped real variable.  The log-amplitude co-integrates as
d(log rho)/dt = [V - E + 1/2] sin(2 alpha) when eigenfunctions are needed.

The spectrum module integrates the left angle forward from a and the right
angle backward from b, both to one matching point c (`integrate_angles`,
and `integrate_angle_sampled` for the eigenfunction); the flow is the same
in either direction.  Breakpoints have one home, `_cuts`, through which
every integration of the package runs, in either direction.  Where V jumps
the rate of the flow does, so each piece between breakpoints is integrated
as its own smooth problem whose right-hand side sees t only strictly
inside the piece (`_integrate_vector`).

alpha turns at rates between 1 and k^2 = 2 |V - E|, and the step controller
must resolve the fast part.  `integrate_angles` therefore integrates the
scaled (modified Pruefer) angle theta, tan(theta) = psi' / (S psi), with S
frozen on each of a few pieces at about the k of the piece's midpoint
(`_chart_flow`), so that theta turns at a nearly uniform rate.  With S
constant the theta flow is exact and as cheap as the alpha flow
(`_chart_fun`; S = 1 is alpha), and each angle is recharted exactly at
every cut on the same branch (`_rechart`), so Gamma and n_below are those
of alpha.  The scaled chart of `find_eigenvalues_scaled` is the same flow
on one piece over [a, b] with S = sqrt(2 (v0 - E)), v0 the tail level; its
angle at b is recharted to alpha there.

Where V is constant the flow is a Moebius flow with the fixed points
alpha = +-atan(k) (mod pi), k = sqrt|2 (V - E)|, and solvable exactly.  For
`PiecewiseConstant` (`SquareWell` builds one), shifted or not, every piece
is constant, so `integrate_angles` takes each one in closed form
(`_plateau_flow`) and makes no `solve_ivp` call.  The adaptive flow still
runs for every other family, for the eigenfunction sampler (which needs the
log-amplitude at grid points, in alpha), for the scaled chart, and for the
transfer-matrix oracle, which integrates (psi, psi') on purpose: it is the
independent check of the closed form.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .potentials import PiecewiseConstant, ProblemSpec, Shifted

# The scaled chart (`_chart_flow`): S = (q^2 + _CHART_FLOOR^2)^(1/4) stays
# at least sqrt(0.1) ~ 0.32 on a piece whose midpoint sits at a turning point
# (q = 0), so no chart there is more than ~3x off the plain angle; 1 loses
# the gain on hydrogen and 2 kappa loses on its low levels.  _CHART_PIECES
# pieces span [a, b]: enough for S to follow a Coulomb well over its
# geometric span, few enough that each piece's solve_ivp start-up (a step
# size search and a short first step) stays a small share of a pass.
_CHART_FLOOR = 0.1
_CHART_PIECES = 8


# ---------------------------------------------------------------------------
# Piecewise adaptive integration
# ---------------------------------------------------------------------------

def _inside(fun, s0, s1):
    """fun with t held one float step inside the piece between s0 and s1."""
    lo, hi = sorted((math.nextafter(s0, s1), math.nextafter(s1, s0)))
    return lambda t, y: fun(min(max(t, lo), hi), y)


def _cuts(a, b, breakpoints):
    """a, the breakpoints strictly between a and b in the order of travel
    from a to b, and b: the ends of the pieces of an integration."""
    lo, hi = sorted((a, b))
    return [a] + sorted((p for p in set(breakpoints) if lo < p < hi),
                        reverse=bool(b < a)) + [b]


def _integrate_vector(fun, a, b, y0, config, breakpoints, t_eval=()):
    """Integrate y' = fun(t, y) from a to b, cut at the breakpoints between.

    b < a integrates right to left.  DOP853 with config.rel_tol as both the
    relative and the absolute tolerance: at 1e-12 a high-order pair is much
    cheaper than a 4(5) pair.  With breakpoints, fun sees t clamped one
    float step inside each piece, so no stage reads V across a jump at a
    cut, a or b.  Returns (y_end, y_at_t_eval): the state at b (y0 when
    a == b) and one state column per point of t_eval, in its order, read
    from the dense output of the piece that holds the point (a point on a
    cut from the piece that starts there, in the order of travel); a point
    no piece holds keeps y0.
    """
    y = np.array(y0, dtype=float, ndmin=1)
    t_eval = np.asarray(t_eval, dtype=float)
    sampled = np.repeat(y[:, None], t_eval.size, axis=1)
    cuts = _cuts(a, b, breakpoints)
    for s0, s1 in zip(cuts, cuts[1:]):
        if s0 == s1:
            continue    # an empty half of a pass: no RHS call, none at a cut
        lo, hi = sorted((s0, s1))
        held = (lo <= t_eval) & (t_eval <= hi)
        sol = solve_ivp(_inside(fun, s0, s1) if breakpoints else fun,
                        (s0, s1), y, method="DOP853", rtol=config.rel_tol,
                        atol=config.rel_tol, dense_output=held.any())
        if not sol.success:
            raise IntegrationError(
                f"integrator stopped at t = {sol.t[-1]}: {sol.message}",
                t_reached=float(sol.t[-1]))
        y = sol.y[:, -1]
        if held.any():
            sampled[:, held] = sol.sol(t_eval[held])
    return y, sampled


def _amplitude_fun(potential, E):
    """(alpha, log rho)' of one energy: the eigenfunction sampler's flow."""
    def fun(t, y):
        q = potential.evaluate(t) - E
        c, s = np.cos(y[0]), np.sin(y[0])
        return np.array([2.0 * q * c * c - s * s, (q + 0.5) * 2.0 * s * c])

    return fun


def _chart_fun(potential, energies, scale):
    """theta' in the chart tan(theta) = psi' / (S psi), S = scale > 0.

    S is one positive number per energy (or one for all), frozen over the
    integration; with h = (V - E) / S the flow is exact for any such S:

        theta' = (h - S/2) + (h + S/2) cos(2 theta).

    S = 1 is the plain angle alpha.
    """
    energies = np.asarray(energies, dtype=float)
    half = 0.5 * np.asarray(scale, dtype=float)
    inverse = 1.0 / np.asarray(scale, dtype=float)

    def fun(t, y):
        h = (potential.evaluate(t) - energies) * inverse
        return (h - half) + (h + half) * np.cos(2.0 * y)

    return fun


def _rechart(angles, ratio):
    """The angles in the chart whose tangent is ratio times theirs.

    Each angle is read as m pi + x with |x| <= pi/2 and keeps m: the charts
    agree on every multiple of pi/2, so Gamma and n_below do not move.
    atan2 is continuous through x = +-pi/2, where rounding may leave |x| an
    ulp past pi/2.
    """
    m = np.round(angles / math.pi)
    x = angles - m * math.pi
    return m * math.pi + np.arctan2(ratio * np.sin(x), np.cos(x))


# ---------------------------------------------------------------------------
# Closed-form propagation where V is constant
# ---------------------------------------------------------------------------

def _plateau_step(v, energies, alpha, delta):
    """The angles after a step delta (either sign) over a piece where V = v.

    Each angle is read as m pi + x with |x| <= pi/2, a frame in which
    (psi, psi') = (cos x, sin x), so psi >= 0.  The piece carries that state
    exactly, up to a positive factor, and counts the signed number of zeros
    of psi crossed (`turns`, positive forward); alpha drops pi per zero.
    With q = 2 (v - E) and k = sqrt|q|:

    - q > 0: sin(atan(k) +- x) are the components of the state along the
      fixed directions tan(alpha) = +-k; their ratio r is the ratio of
      the two exponential solutions.  The component that decays in the
      direction of travel (`fade`) scales by e^{-2k|delta|} <= 1, the other
      (`keep`) stays; psi ~ keep + fade and psi' ~ +-k (keep - fade).  psi
      changes sign, at most once, where 1 + r does.
    - q < 0: (psi, psi'/k) rotates by k delta; the Pruefer phase beta with
      psi ~ cos(beta) advances by k delta, and the zero count is the integer
      nearest beta / pi whose parity is the sign of psi.
    - q = 0: the shear (psi, psi') -> (psi + psi' delta, psi').
    """
    q = 2.0 * (v - energies)
    k = np.sqrt(np.abs(q))
    sign = math.copysign(1.0, delta)
    m = np.round(alpha / math.pi)
    x = alpha - m * math.pi
    cx, sx = np.cos(x), np.sin(x)
    psi, dpsi = cx + delta * sx, sx.copy()
    up, down = q > 0, q < 0
    if up.any():
        ku, xu = k[up], x[up]
        theta = np.arctan(ku)
        keep = np.sin(theta + sign * xu)
        fade = np.sin(theta - sign * xu)
        rate = -2.0 * ku * abs(delta)
        # psi = keep + fade e^rate: a short piece adds the change to psi at
        # the start, a long one scales fade, so that no sum of terms of
        # order one leaves a small psi (a state that left the repelling
        # direction would lose its digits)
        short = rate > -0.5
        em, faded = fade * np.expm1(rate), fade * np.exp(rate)
        psi[up] = np.where(short, 2.0 * np.sin(theta) * cx[up] + em,
                           keep + faded)
        dpsi[up] = ku * np.where(short, 2.0 * np.cos(theta) * sx[up]
                                 - sign * em, sign * (keep - faded))
    turns = sign * (psi < 0)    # q >= 0: one zero at most
    if down.any():
        kd = k[down]
        phase = kd * delta
        c, s = np.cos(phase), np.sin(phase)
        psi[down] = cx[down] * c + sx[down] * (s / kd)
        dpsi[down] = sx[down] * c - kd * cx[down] * s
        beta = np.arctan2(-sx[down], kd * cx[down]) + phase
        odd = psi[down] < 0
        turns[down] = 2.0 * np.round((beta / math.pi - odd) / 2.0) + odd
    flip = np.where(psi < 0, -1.0, 1.0)
    return (m - turns) * math.pi + np.arctan2(flip * dpsi, flip * psi)


def _plateau_flow(potential, energies):
    """flow(s0, s1, alpha): the angles carried from s0 to s1 (either order)
    in closed form, piece by piece, for a `PiecewiseConstant`; None for
    any other potential.  A `Shifted` one (what `eref = tail` solves) is
    one too.

    V is read once per piece, at its midpoint.
    """
    base = potential
    while isinstance(base, Shifted):
        base = base.base
    if not isinstance(base, PiecewiseConstant):
        return None

    def flow(s0, s1, alpha):
        alpha = np.array(alpha, dtype=float)
        cuts = _cuts(s0, s1, potential.breakpoints())
        for p0, p1 in zip(cuts, cuts[1:]):
            if p0 != p1:
                v = potential.evaluate(0.5 * (p0 + p1))
                alpha = _plateau_step(v, energies, alpha, p1 - p0)
        return alpha

    return flow


def _span_points(problem: ProblemSpec, a: float, b: float, n: int):
    """n points spanning [a, b], ends exact: geometric on the half line,
    uniform on the whole line."""
    return (np.geomspace if problem.l is not None else np.linspace)(a, b, n)


def _chart_flow(potential, energies, grid, config):
    """flow(s0, s1, alpha): the angles carried from s0 to s1 (either order)
    by the adaptive flow in a chart frozen per piece.

    The pieces are cut at the grid points and at the breakpoints.  On each,
    every energy gets its own S = (q^2 + _CHART_FLOOR^2)^(1/4), with
    q = 2 (V - E) read at the piece's midpoint, off the breakpoints; the
    angle is recharted exactly at each cut (`_rechart`) and returned as
    alpha.
    """
    breakpoints = potential.breakpoints()

    def flow(s0, s1, alpha):
        if s0 == s1:
            return alpha
        theta, scale = alpha, 1.0
        cuts = _cuts(s0, s1, (*breakpoints, *grid))
        for p0, p1 in zip(cuts, cuts[1:]):
            q = 2.0 * (potential.evaluate(0.5 * (p0 + p1)) - energies)
            new = (q * q + _CHART_FLOOR**2) ** 0.25
            theta = _rechart(theta, scale / new)
            theta, _ = _integrate_vector(_chart_fun(potential, energies, new),
                                         p0, p1, theta, config, breakpoints)
            scale = new
        return _rechart(theta, scale)

    return flow


def integrate_angles(problem: ProblemSpec, energies, left_starts,
                     right_starts, a: float, c: float, b: float, config):
    """Batched angle integration of both halves to the matching point c.

    The left angles run forward from a to c and the right angles backward
    from b to c, one component per energy; either half may be empty (c at
    a or b).  Sharing one adaptive mesh across the batch keeps every
    component within tolerance (the controller steps on the worst one) and
    amortizes the per-step cost of the scan and of lock-step bracket
    splitting: a pass costs nearly the same at 10 energies as at 150.  The
    adaptive flow runs in the scaled chart of `_chart_flow` on the
    _CHART_PIECES pieces of `_span_points` over [a, b], cut again at c and
    the breakpoints.  On a piecewise-constant family every piece is taken
    in closed form instead (`_plateau_flow`), at a cost linear in the batch
    and in the pieces.  config is the SolveConfig; only its rel_tol is read.
    Returns the pair (alpha_left_at_c, alpha_right_at_c);
    integrate_angle_sampled carries the log-amplitude.
    """
    potential = problem.effective_potential()
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    flow = _plateau_flow(potential, energies) or _chart_flow(
        potential, energies, _span_points(problem, a, b, _CHART_PIECES + 1),
        config)
    return tuple(flow(s0, c, np.broadcast_to(np.asarray(start, dtype=float),
                                             energies.shape))
                 for start, s0 in ((left_starts, a), (right_starts, b)))


def integrate_angle_sampled(problem: ProblemSpec, E: float, left_start,
                            right_start, a: float, c: float, b: float,
                            config, t_eval):
    """(t, alpha, log_rho) at exactly the points of t_eval, sorted.

    The arguments are those of `integrate_angles`, for one energy.  Each
    half runs from its own cue toward c and samples the points on its side
    (c on the left), so each carries the solution that decays away from
    its end.  The right half is joined to the left at c: its log_rho moves
    to the left's value there and its alpha by the multiple of pi nearest
    alpha_L(c) - alpha_R(c).  t_eval must lie inside [a, b]; log_rho is 0
    at a.
    """
    potential = problem.effective_potential()
    fun = _amplitude_fun(potential, E)
    ts = np.sort(np.asarray(t_eval, dtype=float))
    left = ts <= c
    (end_l, ys_l), (end_r, ys_r) = (
        _integrate_vector(fun, s0, c, [start, 0.0], config,
                          potential.breakpoints(), t_eval=ts[side])
        for start, s0, side in ((left_start, a, left),
                                (right_start, b, ~left)))
    shift = end_l - end_r
    shift[0] = math.pi * np.round(shift[0] / math.pi)
    ys = np.concatenate([ys_l, ys_r + shift[:, None]], axis=1)
    return ts, ys[0], ys[1]
