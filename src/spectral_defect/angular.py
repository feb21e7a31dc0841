"""Integration of the angular form of the Riccati equation.

The phase-plane angle alpha of (psi, psi') obeys

    d(alpha)/dt = 2 [V(t) - E] cos^2(alpha) - sin^2(alpha)

which is globally regular: at vertical angles the rate is exactly -1, so
trajectories cross them transversally and alpha can be integrated as an
ordinary unwrapped real variable.  The log-amplitude co-integrates as
d(log rho)/dt = [V - E + 1/2] sin(2 alpha) when eigenfunctions are needed.

The spectrum module carries the left angle forward from a and the right
angle backward from b, both to one matching point c (`integrate_angles`,
and `integrate_angle_sampled` for the eigenfunction); the flow is the same
in either direction.  Breakpoints have one home, `_cuts`, through which
every integration of the package runs, in either direction.  Where V jumps
the rate of the flow does, so each piece between breakpoints is its own
smooth problem, and no integration reads V at a cut.

`integrate_angles` propagates (psi, psi') instead of alpha.  Each step of a
mesh built once per solve from V alone (`pass_mesh`) maps it by exp(Omega),
Omega the sixth-order Magnus approximant from V at three Gauss nodes
(`_magnus`), in closed form.  The steps are joined by a lifted product: each
map m is carried with phi = f(0), f the increasing lift of m's action on
angles, and (B, phi_B) after (A, phi_A) is (B A, f_B(phi_A)) (`_lift`,
`_compose`).  The product is associative, so it is taken as a pairwise tree
over all steps and energies at once (`_product`), and the angle it hands
on is unwrapped: n_below is exact.  A leaf's phi is the plateau angle of
the step, whose zero count is exact, corrected mod pi to the Magnus map.

Where V is constant the flow is a Moebius flow with the fixed points
alpha = +-atan(k) (mod pi), k = sqrt|2 (V - E)|, and solvable exactly.  For
`PiecewiseConstant` (`SquareWell` builds one), shifted or not, every piece
is constant, so `integrate_angles` takes each one in closed form
(`_plateau_flow`) and needs no mesh.  The adaptive flow (`_integrate_vector`)
runs for the eigenfunction sampler (which needs the log-amplitude at grid
points), for the scaled chart of `find_eigenvalues_scaled` (the theta flow
of `_chart_fun` on one piece over [a, b], its angle at b recharted to
alpha by `_rechart`), and for the transfer-matrix oracle, which integrates
(psi, psi') on purpose: those are the independent checks of the passes.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .potentials import PiecewiseConstant, ProblemSpec, Shifted


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


def _constant_pieces(potential):
    """Whether every piece of the potential is constant: a
    `PiecewiseConstant`, shifted or not (what `eref = tail` solves)."""
    while isinstance(potential, Shifted):
        potential = potential.base
    return isinstance(potential, PiecewiseConstant)


def _plateau_flow(potential, energies, s0, s1, alpha):
    """The angles carried from s0 to s1 (either order) in closed form,
    piece by piece, over a potential with `_constant_pieces`.

    V is read once per piece, at its midpoint.
    """
    alpha = np.array(alpha, dtype=float)
    cuts = _cuts(s0, s1, potential.breakpoints())
    for p0, p1 in zip(cuts, cuts[1:]):
        if p0 != p1:
            v = potential.evaluate(0.5 * (p0 + p1))
            alpha = _plateau_step(v, energies, alpha, p1 - p0)
    return alpha


def _span_points(problem: ProblemSpec, a: float, b: float, n: int):
    """n points spanning [a, b], ends exact: geometric on the half line,
    uniform on the whole line."""
    return (np.geomspace if problem.l is not None else np.linspace)(a, b, n)


# ---------------------------------------------------------------------------
# Magnus steps on a mesh, joined by a lifted product
# ---------------------------------------------------------------------------

_GAUSS = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_PIECE_STEPS = 16           # steps of a piece before its first doubling
_MAX_PIECE_STEPS = 2**14    # the doubling stops here: a rel_tol that it
                            # cannot meet sooner is below the rounding
_BLOCK = 2048               # step-energies one tree product holds at once
_LEAF_SLACK = math.pi / 4   # largest mod-pi correction of a leaf's angle


class _Steps(NamedTuple):
    """Mesh steps in the order of travel: start t, signed width h and V at
    the Gauss nodes t + _GAUSS h, one row per step."""

    t: np.ndarray
    h: np.ndarray
    v: np.ndarray


_NO_STEPS = _Steps(np.empty(0), np.empty(0), np.empty((0, 3)))


def _steps(potential, t, h):
    """The steps that start at t and are h wide; V is read at their nodes."""
    nodes = t[:, None] + h[:, None] * _GAUSS
    return _Steps(t, h, np.reshape(potential.evaluate(nodes.ravel()),
                                   nodes.shape))


def _magnus(h, v, energies):
    """exp(Omega) of every step (rows) at every energy (columns), as its
    entries (m00, m01, m10, m11) stacked on a first axis.

    Omega is the sixth-order Magnus approximant of Blanes, Casas and Ros
    (BIT 40, 2000) for (psi, psi')' = A(q) (psi, psi'), A(q) = [[0, 1],
    [q, 0]], from q = 2 (V - E) at the three Gauss nodes:

        a1 = h A(q2),  a2 = sqrt(15) h / 3 (q3 - q1) N,
        a3 = 10 h / 3 (q3 - 2 q2 + q1) N,      N = [[0, 0], [1, 0]],
        Omega = a1 + a3 / 12 + [-20 a1 - a3 + [a1, a2],
                                a2 - [a1, 2 a3 + [a1, a2]] / 60] / 240,

    expanded here to Omega = [[p, r], [s, -p]].  The method is symmetric:
    a step taken backward (h < 0, nodes in the order of travel) is the
    inverse of the same step forward.  Omega^2 = w^2 I with
    w^2 = p^2 + r s, so exp(Omega) = cosh(w) + sinh(w) Omega / w, or the
    cos and sin of |w| where w^2 < 0.  Where w^2 > 0 the map is scaled by
    e^{-w}, so that no entry overflows on a long forbidden step; the angles
    see only its direction.
    """
    h = h[:, None]
    q1, q2, q3 = (2.0 * (v[:, i, None] - energies) for i in range(3))
    beta = math.sqrt(15.0) / 3.0 * h * (q3 - q1)        # a2 = beta N
    gamma = 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1)       # a3 = gamma N
    p = h * beta * (h * (4.0 / 3.0 * h * q2 + gamma / 30.0) - 20.0) / 240.0
    r = h + h * h * (h * beta * beta - 20.0 * gamma) / 3600.0
    s = h * q2 + gamma / 12.0 + h * (h * q2 * (20.0 * gamma + h * beta * beta)
                                     + gamma * gamma - 30.0 * beta * beta
                                     ) / 3600.0
    w2 = p * p + r * s
    w = np.sqrt(np.abs(w2))
    grows, moves = w2 > 0, w > 0
    em = np.expm1(-2.0 * w)
    cos = np.where(grows, 1.0 + 0.5 * em, np.cos(w))
    sin = np.where(moves, np.where(grows, -0.5 * em, np.sin(w))
                   / np.where(moves, w, 1.0), 1.0)
    return np.stack([cos + sin * p, sin * r, sin * s, cos - sin * p])


def _lift(m, phi, x):
    """f(x) for the lifted map (m, phi): the increasing lift of m's action
    on angles, f(x + pi) = f(x) + pi, with f(0) = phi.

    x is read as k pi + x0 with |x0| <= pi/2, and f(x) = k pi + phi plus
    the signed angle from m e(0) to m e(x0), e(x) = (cos x, sin x).  m
    keeps the orientation (det m > 0), so that angle lies in (-pi, pi) and
    has the sign of det(m) sin(x0): atan2 gives it with no tolerance,
    continuously through x0 = 0 and through x0 = +-pi/2, where rounding
    may leave |x0| an ulp past pi/2.  A det that rounds to zero or below
    (m nearly singular after a long forbidden stretch) is taken as +0.
    """
    k = np.round(x / math.pi)
    x0 = x - k * math.pi
    c, s = np.cos(x0), np.sin(x0)
    m00, m01, m10, m11 = m
    det = m00 * m11 - m01 * m10
    det = np.where(det > 0, det, 0.0)
    dot = m00 * (m00 * c + m01 * s) + m10 * (m10 * c + m11 * s)
    return k * math.pi + phi + np.arctan2(det * s, dot)


def _compose(later, earlier):
    """(B A, f_B(phi_A)) for later = (B, phi_B) after earlier = (A, phi_A),
    scaled by its largest entry: the action is projective."""
    (b, phi_b), (a, phi_a) = later, earlier
    m = np.stack([b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
                  b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3]])
    return m / np.abs(m).max(axis=0), _lift(b, phi_b, phi_a)


def _product(m, phi):
    """(m, phi) of the composition of the steps along phi's first axis (the
    second axis of m), the first step applied first: a pairwise tree, each
    round of which is one vectorized `_compose`."""
    while len(phi) > 1:
        n = len(phi) - len(phi) % 2
        pm, pphi = _compose((m[:, 1:n:2], phi[1:n:2]),
                            (m[:, :n:2], phi[:n:2]))
        m = np.concatenate([pm, m[:, n:]], axis=1)
        phi = np.concatenate([pphi, phi[n:]])
    return m[:, 0], phi[0]


def _plateau_angle(q, h):
    """alpha after a step h (either sign) from alpha = 0 where q = 2 (V - E)
    is constant: (psi, psi') = (1, 0) goes to (cosh(k h), k sinh(k h)),
    k = sqrt(q), which never vanishes, or to (cos(k h), -k sin(k h)),
    k = sqrt(-q), whose Pruefer phase k h counts the zeros crossed
    (`_rechart` of it to alpha keeps the branch)."""
    k = np.sqrt(np.abs(q))
    return np.where(q > 0, np.arctan(k * np.tanh(k * h)),
                    -_rechart(k * h, k))


def _leaves(steps, energies, potential):
    """(m, phi) of every step (rows) at every energy (columns).

    m is the Magnus map (`_magnus`).  phi is the closed-form angle of the
    plateau step from alpha = 0 with V at the step's midpoint
    (`_plateau_angle`), whose zero count is exact, corrected mod pi to the
    angle of m e(0).  Where the step resolves V the two maps are close
    and the correction small; a step whose correction exceeds _LEAF_SLACK
    at any energy is split in two, V read at the halves' nodes, and gets
    the product of their leaves.
    """
    m = _magnus(steps.h, steps.v, energies)
    phi = _plateau_angle(2.0 * (steps.v[:, 1, None] - energies),
                         steps.h[:, None])
    turn = np.arctan2(m[2], m[0]) - phi
    turn -= math.pi * np.round(turn / math.pi)
    phi += turn
    split = (np.abs(turn) > _LEAF_SLACK).any(axis=1)
    if split.any():
        t, h = steps.t[split], 0.5 * steps.h[split]
        halves = _steps(potential, np.stack([t, t + h], axis=1).ravel(),
                        np.repeat(h, 2))
        hm, hphi = _leaves(halves, energies, potential)
        m[:, split], phi[split] = _compose((hm[:, 1::2], hphi[1::2]),
                                           (hm[:, ::2], hphi[::2]))
    return m, phi


def _carry(steps, energies, alpha, potential):
    """alpha carried over the steps, one column per energy.

    The leaves are reduced by the tree in blocks of at most _BLOCK
    step-energies, which bounds the memory of a pass, and each block's
    lift is applied to alpha in order.
    """
    width = max(1, _BLOCK // energies.size)
    for i in range(0, steps.h.size, width):
        block = _Steps(*(x[i:i + width] for x in steps))
        alpha = _lift(*_product(*_leaves(block, energies, potential)), alpha)
    return alpha


def _span_steps(problem, potential, p0, p1, n):
    """The n steps from p0 to p1 between `_span_points`."""
    points = _span_points(problem, p0, p1, n + 1)
    return _steps(potential, points[:-1], np.diff(points))


def pass_mesh(problem: ProblemSpec, energies, left_starts, right_starts,
              a: float, c: float, b: float, config):
    """The steps (left, right) of both halves of `integrate_angles`.

    The arguments are those of `integrate_angles`, for the energies that
    bound the passes the mesh serves (a solve's E_min and E_max).  Each
    half is cut at the breakpoints (`_cuts`), and each piece into
    `_span_points` steps.  The start angles are carried piece by piece in
    the direction of travel; a piece's step count doubles from
    _PIECE_STEPS while the angle it hands on moves by more than
    63 rel_tol max(1, |alpha|) / pieces between n and 2n steps at any of
    the energies, and the finer count is kept.  For a sixth-order method
    that move is 63 times the error of the finer count.  V is read at the
    Gauss nodes only, never at a cut.  None for a potential with
    `_constant_pieces`, whose passes take every piece in closed form.
    config is the SolveConfig; only its rel_tol is read.
    """
    potential = problem.effective_potential()
    if _constant_pieces(potential):
        return None
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    breakpoints = potential.breakpoints()
    halves = [[(p0, p1) for p0, p1 in zip(cuts, cuts[1:]) if p0 != p1]
              for cuts in (_cuts(a, c, breakpoints), _cuts(b, c, breakpoints))]
    tol = 63.0 * config.rel_tol / max(1, sum(map(len, halves)))
    mesh = []
    for pieces, start in zip(halves, (left_starts, right_starts)):
        alpha = np.broadcast_to(np.asarray(start, dtype=float), energies.shape)
        parts = [_NO_STEPS]
        for p0, p1 in pieces:
            n = _PIECE_STEPS
            coarse = _carry(_span_steps(problem, potential, p0, p1, n),
                            energies, alpha, potential)
            while True:
                n *= 2
                steps = _span_steps(problem, potential, p0, p1, n)
                fine = _carry(steps, energies, alpha, potential)
                moved = np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))
                if np.all(moved <= tol) or n >= _MAX_PIECE_STEPS:
                    break
                coarse = fine
            parts.append(steps)
            alpha = fine
        mesh.append(_Steps(*map(np.concatenate, zip(*parts))))
    return tuple(mesh)


def integrate_angles(problem: ProblemSpec, energies, left_starts,
                     right_starts, a: float, c: float, b: float, config,
                     mesh=None):
    """Batched angle integration of both halves to the matching point c.

    The left angles run forward from a to c and the right angles backward
    from b to c, one component per energy; either half may be empty (c at
    a or b).  Each half is carried over its steps of the mesh from
    `pass_mesh` by the lifted Magnus product, at a cost linear in the
    steps and in the batch, and V is read only where a leaf is split (a
    solve builds one mesh and passes it to every pass).  Without a mesh
    one is built from the batch's lowest and highest energy.  On a piecewise-constant family
    every piece is taken in closed form instead (`_plateau_flow`) and no
    mesh is used.  config is the SolveConfig; only its rel_tol is read.
    Returns the pair (alpha_left_at_c, alpha_right_at_c);
    integrate_angle_sampled carries the log-amplitude.
    """
    potential = problem.effective_potential()
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    starts = [np.broadcast_to(np.asarray(start, dtype=float), energies.shape)
              for start in (left_starts, right_starts)]
    if _constant_pieces(potential):
        return tuple(_plateau_flow(potential, energies, s0, c, start)
                     for start, s0 in zip(starts, (a, b)))
    if mesh is None:
        ends = [np.argmin(energies), np.argmax(energies)]
        mesh = pass_mesh(problem, energies[ends], starts[0][ends],
                         starts[1][ends], a, c, b, config)
    return tuple(_carry(steps, energies, start, potential)
                 for steps, start in zip(mesh, starts))


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
