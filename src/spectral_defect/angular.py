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
Omega the sixth-order Magnus approximant from V at three Gauss nodes, in
closed form (`_magnus`); the part of Omega that does not depend on E is
built with the mesh (`_omega`).  The steps are joined by a lifted product
of nodes (m, n): m a map scaled by its largest entry and oriented, its
first column not pointing left (m00 >= 0; -m acts on angles as m does),
and n an integer count of half turns, so that phi = f(0) = n pi + theta(m)
for f the increasing lift of m's action on angles and theta(m) =
atan2(m10, m00) in [-pi/2, pi/2].  (B, n_B) after (A, n_A) is the node of
B A with phi = f_B(phi_A), which needs no transcendental function: n grows
by n_A + n_B, and by the sign of a10 where B A's first column crossed the
vertical (`_compose`).  The product is associative, so it is taken as a
pairwise tree over all steps and energies at once (`_product`), and the
angle it hands on is unwrapped: n_below is exact.  A leaf's n is read off
the plateau angle of the step, whose zero count is exact, corrected mod pi
to the Magnus map; the root's theta is read once per block (`_carry`).

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

from .errors import DomainError, IntegrationError
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
    m *= math.pi
    x = angles - m
    y = np.sin(x)
    y *= ratio
    m += np.arctan2(y, np.cos(x, out=x), out=y)
    return m


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
_BLOCK = 8192               # step-energies one tree product holds at once
_LEAF_SLACK = math.pi / 4   # largest mod-pi correction of a leaf's angle
_MAX_SPLITS = 6             # halvings of one step before a pass gives up


class _Steps(NamedTuple):
    """Mesh steps in the order of travel, one row per step: start t, signed
    width h, V at the Gauss nodes t + _GAUSS h, and the coefficients of
    Omega that do not depend on E (`_omega`).  A solve builds them once,
    with its mesh, and every pass reads them."""

    t: np.ndarray
    h: np.ndarray
    v: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    r: np.ndarray
    s0: np.ndarray
    s1: np.ndarray


_NO_STEPS = _Steps(np.empty(0), np.empty(0), np.empty((0, 3)),
                   *np.empty((5, 0)))


def _omega(h, v):
    """(p0, p1, r, s0, s1) of steps h wide with V = v at their Gauss nodes.

    Omega is the sixth-order Magnus approximant of Blanes, Casas and Ros
    (BIT 40, 2000) for (psi, psi')' = A(q) (psi, psi'), A(q) = [[0, 1],
    [q, 0]], from q = 2 (V - E) at the three nodes:

        a1 = h A(q2),  a2 = sqrt(15) h / 3 (q3 - q1) N,
        a3 = 10 h / 3 (q3 - 2 q2 + q1) N,      N = [[0, 0], [1, 0]],
        Omega = a1 + a3 / 12 + [-20 a1 - a3 + [a1, a2],
                                a2 - [a1, 2 a3 + [a1, a2]] / 60] / 240,

    expanded here to Omega = [[p, r], [s, -p]].  dq/dE = -2 at every node,
    so q3 - q1 and q3 - 2 q2 + q1 do not depend on E, nor does r, and p and
    s are affine in q2: p = p0 + p1 q2, s = s0 + s1 q2.
    """
    beta = 2.0 * math.sqrt(15.0) / 3.0 * h * (v[:, 2] - v[:, 0])   # a2 / N
    gamma = 20.0 / 3.0 * h * (v[:, 2] - 2.0 * v[:, 1] + v[:, 0])   # a3 / N
    hbb = h * beta * beta
    return (h * beta * (h * gamma / 30.0 - 20.0) / 240.0,
            h * h * h * beta / 180.0,
            h + h * h * (hbb - 20.0 * gamma) / 3600.0,
            gamma / 12.0 + h * (gamma * gamma - 30.0 * beta * beta) / 3600.0,
            h + h * h * (20.0 * gamma + hbb) / 3600.0)


def _steps(potential, t, h):
    """The steps that start at t and are h wide; V is read at their nodes,
    and Omega's energy-free coefficients are built from it."""
    nodes = t[:, None] + h[:, None] * _GAUSS
    v = np.reshape(potential.evaluate(nodes.ravel()), nodes.shape)
    return _Steps(t, h, v, *_omega(h, v))


def _magnus(steps, q2):
    """exp(Omega) of every step (rows) at every energy (columns), as its
    entries (m00, m01, m10, m11) stacked on a first axis; q2 = 2 (V - E)
    at each step's middle node, one column per energy.

    Omega = [[p, r], [s, -p]] with p = p0 + p1 q2, s = s0 + s1 q2 and r
    from the step's coefficients (`_omega`), so a pass forms only the two
    affine forms, w^2 and the closed form.  The method is symmetric: a
    step taken backward (h < 0, nodes in the order of travel) is the
    inverse of the same step forward.  Omega^2 = w^2 I with
    w^2 = p^2 + r s, so exp(Omega) = cosh(w) + sinh(w) Omega / w, or the
    cos and sin of |w| where w^2 < 0.  Where w^2 > 0 the map is scaled by
    e^{-w}, so that no entry overflows on a long forbidden step; the angles
    see only its direction.
    """
    m = np.empty((4,) + q2.shape)
    # the map's rows hold the work: a leaf's peak memory sets how wide a
    # block fits in the same memory
    p, s, w2 = m[0], m[2], m[3]
    np.multiply(steps.p1[:, None], q2, out=p)
    p += steps.p0[:, None]
    np.multiply(steps.s1[:, None], q2, out=s)
    s += steps.s0[:, None]
    r = steps.r[:, None]
    np.multiply(p, p, out=w2)
    w2 += np.multiply(r, s, out=m[1])
    grows = w2 > 0      # each branch is evaluated where it holds only
    turns = ~grows
    w = np.sqrt(np.abs(w2, out=m[1]), out=m[1])
    # where w^2 > 0, cos = e^{-w} cosh(w) = 1 + em / 2 and
    # sin = e^{-w} sinh(w) / w = -em / (2 w), em = e^{-2w} - 1
    cos, sin = np.empty(q2.shape), w2
    np.multiply(w, -2.0, out=cos, where=grows)
    np.expm1(cos, out=cos, where=grows)
    np.multiply(cos, -0.5, out=sin, where=grows)
    np.divide(sin, w, out=sin, where=grows)
    np.multiply(cos, 0.5, out=cos, where=grows)
    np.add(cos, 1.0, out=cos, where=grows)
    np.cos(w, out=cos, where=turns)
    moves = turns & (w > 0)
    np.sin(w, out=sin, where=moves)
    np.divide(sin, w, out=sin, where=moves)
    np.copyto(sin, 1.0, where=turns & ~moves)
    p *= sin
    s *= sin
    np.multiply(sin, r, out=m[1])
    np.subtract(cos, p, out=m[3])
    p += cos
    return m


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
    det = m00 * m11
    det -= m01 * m10
    det = np.where(det > 0, det, 0.0) * s
    dot = m00 * c
    dot += m01 * s
    dot *= m00
    part = m10 * c
    part += m11 * s
    part *= m10
    dot += part
    angle = np.arctan2(det, dot)
    angle += phi
    angle += k * math.pi
    return angle


def _compose(later, earlier):
    """The node of later = (B, n_B) after earlier = (A, n_A): B A scaled
    by its largest entry (the action is projective), negated where its
    first column points left (m00 < 0), and n_A + n_B plus, where it was
    negated, the sign of a10.

    phi = f_B(phi_A) = (n_A + n_B) pi + f_B(theta_A), and f_B(theta_A) is
    theta_B turned toward theta_A by less than pi, with the sign of
    theta_A, because det B > 0.  So it lies in (-3 pi / 2, 3 pi / 2), and
    B A e(0) points along it: where that column does not point left it is
    theta(B A), and where it does, theta(-B A) plus pi times the sign of
    theta_A, which is the sign of a10.  A column on the vertical reads the
    same phi either way.  No transcendental function is called.  The four
    entries of B A are written into one array and scaled in place, the
    negation riding on the scale.
    """
    (b, n_b), (a, n_a) = later, earlier
    m = np.empty(b.shape)
    for j in (0, 1):    # column j of B A: rows (m0j, m1j) = B (a0j, a1j)
        np.multiply(b[::2], a[j], out=m[j::2])
        m[j::2] += b[1::2] * a[j + 2]
    left = m[0] < 0
    scale = np.abs(m).max(axis=0)
    np.negative(scale, out=scale, where=left)
    m /= scale
    n = np.copysign(left, a[2])
    n += n_a
    n += n_b
    return m, n


def _product(m, n):
    """The node (m, n) of the composition of the steps along n's first axis
    (the second axis of m), the first step applied first: a pairwise tree,
    each round of which is one vectorized `_compose`."""
    while len(n) > 1:
        k = len(n) - len(n) % 2
        pm, pn = _compose((m[:, 1:k:2], n[1:k:2]), (m[:, :k:2], n[:k:2]))
        if k < len(n):      # the odd step out joins the next round
            pm = np.concatenate([pm, m[:, k:]], axis=1)
            pn = np.concatenate([pn, n[k:]])
        m, n = pm, pn
    return m[:, 0], n[0]


def _plateau_angle(q, h):
    """alpha after a step h (either sign) from alpha = 0 where q = 2 (V - E)
    is constant: (psi, psi') = (1, 0) goes to (cosh(k h), k sinh(k h)),
    k = sqrt(q), which never vanishes, or to (cos(k h), -k sin(k h)),
    k = sqrt(-q), whose Pruefer phase k h counts the zeros crossed
    (`_rechart` of it to alpha keeps the branch)."""
    k = np.abs(q)
    np.sqrt(k, out=k)
    angle = k * h       # k h until each branch replaces it
    up = q > 0          # each branch is evaluated where it holds only
    angle[up] = np.arctan(k[up] * np.tanh(angle[up]))
    down = ~up
    angle[down] = -_rechart(angle[down], k[down])
    return angle


def _leaves(steps, energies, potential, splits=_MAX_SPLITS):
    """The node (m, n) of every step (rows) at every energy (columns).

    m is the Magnus map (`_magnus`), oriented as a node's is: negated
    where its first column points left.  n is the integer nearest
    (plateau - theta(m)) / pi, plateau the closed-form angle of the step
    from alpha = 0 with V at its midpoint (`_plateau_angle`), whose zero
    count is exact: phi = n pi + theta(m) is the plateau angle corrected
    mod pi to the angle of m e(0).  Where the step resolves V the two maps
    are close and the correction small; a step whose correction exceeds
    _LEAF_SLACK at any energy is split in two, V read at the halves'
    nodes, and gets the product of their leaves.  A step still split after
    `splits` more halvings raises IntegrationError: the halves double at
    each one, and where no width resolves the step (|E| so large that
    Omega's terms overflow) they would fill the memory.  The correction is
    taken mod pi, so it cannot see a plateau angle more than 3 pi / 4 off
    the step's lift: on a mesh from `pass_mesh` no step is that coarse,
    because its doubling goes on until the angle each piece hands on
    settles.
    """
    q2 = steps.v[:, 1, None] - energies
    q2 *= 2.0
    plateau = _plateau_angle(q2, steps.h[:, None])
    m = _magnus(steps, q2)
    np.negative(m, out=m, where=m[0] < 0)
    turn = np.arctan2(m[2], m[0], out=q2)     # q2 is spent
    turn -= plateau
    n = np.round(turn / -math.pi)
    turn += math.pi * n
    split = (np.abs(turn) > _LEAF_SLACK).any(axis=1)
    if split.any():
        t, h = steps.t[split], 0.5 * steps.h[split]
        if not splits:
            raise IntegrationError(
                f"the step from t = {t[0]:g} is split {_MAX_SPLITS} times "
                "and still does not resolve V", t_reached=float(t[0]))
        halves = _steps(potential, np.stack([t, t + h], axis=1).ravel(),
                        np.repeat(h, 2))
        hm, hn = _leaves(halves, energies, potential, splits - 1)
        m[:, split], n[split] = _compose((hm[:, 1::2], hn[1::2]),
                                         (hm[:, ::2], hn[::2]))
    return m, n


def _carry(steps, energies, alpha, potential):
    """alpha carried over the steps, one column per energy.

    The leaves are built from the steps' stored coefficients (`_magnus`)
    and reduced by the tree in blocks of at most _BLOCK step-energies,
    which bounds the memory of a pass.  The root (m, n) of each block is
    read as the lifted map with phi = n pi + theta(m), one arctan2 per
    energy, and its lift is applied to alpha in order.  A block of one
    step or of every step hands on the same angles up to rounding.
    """
    width = max(1, _BLOCK // energies.size)
    for i in range(0, steps.h.size, width):
        block = _Steps(*(x[i:i + width] for x in steps))
        m, n = _product(*_leaves(block, energies, potential))
        alpha = _lift(m, math.pi * n + np.arctan2(m[2], m[0]), alpha)
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


def _check_coverage(mesh, a, c, b):
    """DomainError unless the halves of mesh run from a and from b to c."""
    slack = 1e-12 * max(abs(a), abs(b))    # the rounding of the step ends
    for steps, start, side in zip(mesh, (a, b), ("left", "right")):
        ends = ((steps.t[0], steps.t[-1] + steps.h[-1]) if steps.h.size
                else (c, c))
        if abs(ends[0] - start) > slack or abs(ends[1] - c) > slack:
            raise DomainError(
                f"the {side} half of the mesh runs from {ends[0]} to "
                f"{ends[1]}, not from {start} to {c}")


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
    one is built from the batch's lowest and highest energy.  A given
    mesh must run from a to c on the left and from b to c on the right,
    its ends equal to those up to rounding, or DomainError is raised; a
    half is empty where c is its end.  What that check cannot see is a
    mesh too coarse for V: a leaf whose plateau angle is more than 3 pi / 4
    off the step's lift goes unnoticed (`_leaves`), and it is the
    doubling of `pass_mesh` that resolves it.  On a piecewise-constant
    family every piece is taken in closed form instead (`_plateau_flow`)
    and no mesh is used.  config is the SolveConfig; only its rel_tol is
    read.  Returns the pair (alpha_left_at_c, alpha_right_at_c);
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
    else:
        _check_coverage(mesh, a, c, b)
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
