"""Integration of the angular form of the Riccati equation.

The phase-plane angle alpha of (psi, psi') obeys

    d(alpha)/dt = 2 [V(t) - E] cos^2(alpha) - sin^2(alpha)

which is globally regular: at vertical angles the rate is exactly -1, so
trajectories cross them transversally and alpha can be integrated as an
ordinary unwrapped real variable.  The log-amplitude of (psi, psi') obeys
d(log rho)/dt = [V - E + 1/2] sin(2 alpha).

The spectrum module carries the left angle forward from a and the right
angle backward from b, both to one matching point c (`integrate_angles`,
and `integrate_angle_sampled` for the eigenfunction); the flow is the same
in either direction.  Breakpoints have one home, `_cuts`, through which
every integration of the package runs, in either direction.  Where V jumps
the rate of the flow does, so each piece between breakpoints is its own
smooth problem, and no integration reads V at a cut.

`integrate_angles` propagates (psi, psi') instead of alpha.  Each step of a
mesh built once per solve from V alone (`pass_mesh`) maps it by exp(Omega),
Omega the eighth-order Magnus approximant from V at four Gauss nodes, in
closed form (`_magnus`); the part of Omega that does not depend on E is
built with the mesh (`_omega`).  The steps are joined by a lifted product
of nodes (m, n, d): m a map scaled by its largest entry and oriented, its
first column not pointing left (m00 >= 0; -m acts on angles as m does), n
an integer count of half turns, so that phi = f(0) = n pi + theta(m) for f
the increasing lift of m's action on angles and theta(m) = atan2(m10, m00)
in [-pi/2, pi/2], and d its determinant, carried exactly from each leaf's
e^{-2w} (`_exponential`).  (B, n_B, d_B) after (A, n_A, d_A) is the node of
B A with phi = f_B(phi_A), which needs no transcendental function: n grows
by n_A + n_B, and by the sign of a10 where B A's first column crossed the
vertical, and d is d_A d_B over the scale squared (`_compose`).  The
product is associative, so it is taken by one pairwise tree over runs of
steps of power-of-two lengths and all energies at once (`_roots`), the
runs' roots composed from the last (`_product`), and the angle it hands on
is unwrapped: n_below is exact.  A leaf's n is read off the plateau angle
of the step, whose zero count is exact, corrected mod pi to the Magnus map
(a large correction raises: only `pass_mesh` refines); the root's theta is
read once per block (`_carry`).  Leaves and nodes are held energy-major,
(entry, energy, step), and the tree pairs along the last axis, so numpy's
inner loops run over the steps, which are many.  `pass_mesh` builds the
first round of its doubling, every count up to _BATCH_STEPS of every piece
of both halves, in one batch of a piece a row: one `_steps` and one
`_nodes` call, and the same tree over all those runs of steps at once.  One
loop then settles each piece: its angle is lifted over the roots of its
first-round counts in one call, and each later count is carried on its own
(`_carry`), as each half of a pass is.

Where V is constant the flow is a Moebius flow with the fixed points
alpha = +-atan(k) (mod pi), k = sqrt|2 (V - E)|, and solvable exactly.  For
`PiecewiseConstant` (`SquareWell` builds one), shifted or not, every piece
is constant: a solve builds one mesh for it too, whose steps are its
pieces, V read once per piece at its midpoint (`_level_steps`), and every
pass lifts the angles over each step's exact leaf on its own, with no
product, for speed: its closed-form map, plateau angle and determinant
(`_carry_levels`).  The eigenfunction (`integrate_angle_sampled`) is
carried over the mesh of `pass_mesh` at its energy, cut at the grid
points, one leaf at a time (`_amplitudes`).  The adaptive flow
(`_integrate_vector`) serves only the independent checks of the passes:
the scaled chart of `find_eigenvalues_scaled` (the theta flow of
`_chart_fun` over [a, b], its angle at b recharted to alpha by `_rechart`)
and the transfer-matrix oracle, which integrates (psi, psi').  Its
integrator, scipy's `solve_ivp`, is imported on first use (the module
attribute `solve_ivp`, which a caller may replace), so that the rest loads
numpy only.
"""

import itertools
import math
import sys
from typing import NamedTuple

import numpy as np

from .cues import settled
from .errors import DomainError, IntegrationError
from .potentials import PiecewiseConstant, ProblemSpec, Shifted


# ---------------------------------------------------------------------------
# Piecewise adaptive integration
# ---------------------------------------------------------------------------

def __getattr__(name):
    """`solve_ivp`, imported from scipy and bound here on first access."""
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global solve_ivp
    from scipy.integrate import solve_ivp
    return solve_ivp


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


def _integrate_vector(fun, a, b, y0, config, breakpoints):
    """Integrate y' = fun(t, y) from a to b, cut at the breakpoints between.

    b < a integrates right to left.  DOP853 with config.rel_tol as both the
    relative and the absolute tolerance: at 1e-12 a high-order pair is much
    cheaper than a 4(5) pair.  With breakpoints, fun sees t clamped one
    float step inside each piece, so no stage reads V across a jump at a
    cut, a or b.  Returns the state at b (y0 when a == b).
    """
    # read through the module, so that a replaced `solve_ivp` is the one run
    solve_ivp = sys.modules[__name__].solve_ivp
    y = np.array(y0, dtype=float, ndmin=1)
    cuts = _cuts(a, b, breakpoints)
    for s0, s1 in zip(cuts, cuts[1:]):
        if s0 == s1:
            continue    # an empty stretch: no RHS call, none at a cut
        sol = solve_ivp(_inside(fun, s0, s1) if breakpoints else fun,
                        (s0, s1), y, method="DOP853", rtol=config.rel_tol,
                        atol=config.rel_tol)
        if not sol.success:
            raise IntegrationError(
                f"integrator stopped at t = {sol.t[-1]}: {sol.message}",
                t_reached=float(sol.t[-1]))
        y = sol.y[:, -1]
    return y


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


def _constant_pieces(potential):
    """Whether every piece of the potential is constant: a
    `PiecewiseConstant`, shifted or not (what `eref = tail` solves)."""
    while isinstance(potential, Shifted):
        potential = potential.base
    return isinstance(potential, PiecewiseConstant)


def _span_points(problem: ProblemSpec, a: float, b: float, n: int):
    """n points spanning [a, b], ends exact: geometric on the half line,
    uniform on the whole line."""
    return (np.geomspace if problem.l is not None else np.linspace)(a, b, n)


# ---------------------------------------------------------------------------
# Magnus steps on a mesh, joined by a lifted product
# ---------------------------------------------------------------------------

_NODE = tuple(math.sqrt(3.0 / 7.0 + sign * 2.0 / 7.0 * math.sqrt(1.2)) / 2.0
              for sign in (-1.0, 1.0))  # |t - midpoint| / h, inner and outer
_GAUSS = 0.5 + np.array([-_NODE[1], -_NODE[0], _NODE[0], _NODE[1]])
_PIECE_STEPS = 16           # steps of a piece before its first doubling
_MAX_PIECE_STEPS = 2**14    # the doubling stops here: a rel_tol that it
                            # cannot meet sooner is below the rounding
_BLOCK = 8192               # step-energies one tree product holds at once
_BATCH_STEPS = 256          # the doubling's counts up to here are built in
                            # one batch (`_first_round`)
_LEAF_SLACK = math.pi / 4   # largest mod-pi correction of a leaf's angle


class _Steps(NamedTuple):
    """Mesh steps in the order of travel, one row per step: start t, signed
    width h, and from V at the Gauss nodes t + _GAUSS h, V at the midpoint
    of the cubic through them and the coefficients of Omega that do not
    depend on E (`_omega`).  Over a constant piece V is read once, at the
    midpoint, and the rest is that of a constant step, in closed form
    (`_level_steps`).  A solve builds them once, with its mesh, and every
    pass reads them."""

    t: np.ndarray
    h: np.ndarray
    vm: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


_NO_STEPS = _Steps(*np.empty((11, 0)))


def _omega(h, v):
    """(vm, p0, p1, p2, r0, r1, s0, s1, s2) of steps h wide with V = v at
    their Gauss nodes.

    Omega is the eighth-order Magnus approximant of Blanes, Casas and Ros
    (BIT 40, 2000) for (psi, psi')' = A(q) (psi, psi'), A(q) = [[0, 1],
    [q, 0]], q = 2 (V - E): the Magnus series cut after h^7 of q(t_m + x)
    = c0 + c1 x + c2 x^2 + c3 x^3, the cubic through the four nodes, t_m
    the step's midpoint.  Omega = [[p, r], [s, -p]] with

        p = -c1 h^3 / 12 + h^5 (c0 c1 / 180 - c3 / 80)
            + h^7 (13 c1 c2 / 15120 + c0 c3 / 1680 - c0^2 c1 / 1890),
        r = h - c2 h^5 / 180 + h^7 (c1^2 / 7560 + c0 c2 / 1890),
        s = c0 h + c2 h^3 / 12 + h^5 (c0 c2 / 180 - c1^2 / 120)
            + h^7 (c2^2 / 3024 - c1 c3 / 420 + c0 c1^2 / 1080
                   - c0^2 c2 / 1890).

    dq/dE = -2 at every node, so c1, c2 and c3 do not depend on E, and
    c0 = 2 (vm - E), vm the cubic of V at the midpoint.  So p and s are
    quadratic in c0 and r is affine in it: p = p0 + p1 u + p2 u^2,
    r = r0 + r1 u and s = h (c0 + s0 + s1 u + s2 u^2), where u is c0 in
    the terms past the leading c0 h (`_magnus` saturates it).  The cubic
    is built from the sums and differences of the nodes symmetric about
    t_m, scaled by powers of h, so that no power of h divides: a constant
    V gives p = 0, r = h and s = c0 h exactly, and a step taken backward
    (h < 0, nodes in the order of travel) is the inverse of the same step
    forward, Omega changing sign.
    """
    inner, outer = _NODE
    spread = outer * outer - inner * inner
    mid, far = 0.5 * (v[:, 1] + v[:, 2]), 0.5 * (v[:, 0] + v[:, 3])
    rise = (v[:, 2] - v[:, 1]) / inner      # c1 h + c3 h^3 inner^2
    vm = mid - (far - mid) * (inner * inner / spread)
    e2 = 2.0 * (far - mid) / spread                           # c2 h^2
    e3 = ((v[:, 3] - v[:, 0]) / outer - rise) / spread        # c3 h^3
    e1 = rise - e3 * (inner * inner)                          # c1 h
    hh = h * h
    return (vm,
            hh * (13.0 * hh * e1 * e2 / 15120.0 - e1 / 12.0 - e3 / 80.0),
            hh * hh * (e1 / 180.0 + e3 / 1680.0),
            hh * hh * hh * e1 / -1890.0,
            h - h * hh * (e2 / 180.0 - hh * e1 * e1 / 7560.0),
            h * hh * hh * e2 / 1890.0,
            e2 / 12.0 + hh * (e2 * e2 / 3024.0 - e1 * e1 / 120.0
                              - e1 * e3 / 420.0),
            hh * (e2 / 180.0 + hh * e1 * e1 / 1080.0),
            hh * hh * e2 / -1890.0)


def _steps(potential, t, h):
    """The steps that start at t and are h wide; V is read at their nodes,
    and Omega's energy-free coefficients are built from it."""
    nodes = t[:, None] + h[:, None] * _GAUSS
    v = np.reshape(potential.evaluate(nodes.ravel()), nodes.shape)
    return _Steps(t, h, *_omega(h, v))


def _level_steps(potential, t, h):
    """The steps that start at t and are h wide over pieces where V is
    constant: V is read once a step, at its midpoint, and is the level at
    every node; Omega is that of a constant step, p = 0, r = h and s = c0 h
    (`_omega` gives it from four equal reads), so r0 = h and every other
    coefficient is 0."""
    zero = np.zeros(h.shape)
    return _Steps(t, h, potential.evaluate(t + 0.5 * h), zero, zero, zero, h,
                  zero, zero, zero, zero)


def _horner(u, coefficients, out):
    """sum_k c_k u^k, one c_k per step (last axis), the highest power
    first."""
    np.multiply(coefficients[0], u, out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= u
    out += coefficients[-1]
    return out


def _magnus(steps, q):
    """Omega = [[p, r], [s, -p]] of every step at every energy, p, r and s
    on a first axis over a row of work (`_exponential` maps it to exp(Omega)
    in place); q = 2 (vm - E), c0 of `_omega`, one row per energy and one
    column per step.

    p, r and s are evaluated from the step's coefficients (`_omega`) by
    Horner's rule in u = c0 / (1 + (c0 h^2 / 10)^2), the leading c0 h of s
    taken as it is.  Successive terms of the series shrink by about c0 h^2
    / 10.5, so where c0 h^2 is large its truncation means nothing:
    saturated, a far forbidden step stays close to its plateau map, and a
    resolved step changes only at O(h^9).  The method is symmetric: a step
    taken backward is the inverse of the same step forward.
    """
    m = np.empty((4,) + q.shape)
    # the map's rows hold the work (the last one u until the exponential):
    # a leaf's peak memory sets how wide a block fits in the same memory
    p, r, s, u = m
    np.multiply(q, steps.h * steps.h * 0.1, out=u)
    with np.errstate(over="ignore"):    # inf on a far forbidden step; then
        u *= u                          # u = q / inf = 0, the saturated limit
    u += 1.0
    np.divide(q, u, out=u)
    _horner(u, (steps.p2, steps.p1, steps.p0), p)
    _horner(u, (steps.r1, steps.r0), r)
    _horner(u, (steps.s2, steps.s1, steps.s0), s)
    s += q
    s *= steps.h
    return m


def _exponential(m):
    """(m, w): exp(Omega) for Omega = [[p, r], [s, -p]], p, r and s the
    first three rows of m, written over m as (m00, m01, m10, m11), and w.

    Omega^2 = w^2 I with w^2 = p^2 + r s, so exp(Omega) = cosh(w) +
    sinh(w) Omega / w, or the cos and sin of |w| where w^2 < 0 (w is then
    returned as 0).  Where w^2 > 0 the map is scaled by e^{-w}, so that no
    entry overflows on a long forbidden step; the angles see only its
    direction.  Omega is traceless, so the map's det is e^{-2w} exactly;
    its entries lose it past w of about 18, so every det is built from w.
    """
    p, r, s, w2 = m
    np.multiply(p, p, out=w2)
    w = np.multiply(r, s)
    w2 += w
    grows = w2 > 0      # each branch is evaluated where it holds only
    turns = ~grows
    np.sqrt(np.abs(w2, out=w), out=w)
    # where w^2 > 0, cos = e^{-w} cosh(w) = 1 + em / 2 and
    # sin = e^{-w} sinh(w) / w = -em / (2 w), em = e^{-2w} - 1
    cos, sin = np.empty(w.shape), w2
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
    r *= sin
    s *= sin
    np.subtract(cos, p, out=m[3])
    p += cos
    np.copyto(w, 0.0, where=turns)
    return m, w


def _lift(m, phi, x, det):
    """f(x) for the lifted map (m, phi) of determinant det: the increasing
    lift of m's action on angles, f(x + pi) = f(x) + pi, with f(0) = phi.
    m's entries are on its first axis; the rest of m, phi, x and det
    broadcast.

    x is read as k pi + x0 with |x0| <= pi/2, and f(x) = k pi + phi plus
    the signed angle from m e(0) to m e(x0), e(x) = (cos x, sin x).  m
    keeps the orientation (det m > 0), so that angle lies in (-pi, pi) and
    has the sign of det(m) sin(x0): atan2 gives it with no tolerance,
    continuously through x0 = 0 and through x0 = +-pi/2, where rounding
    may leave |x0| an ulp past pi/2.  det is the one every leaf and node
    carries exactly (`_exponential`, `_compose`): read from the entries of
    a map nearly singular (a long forbidden step or stretch) it is lost to
    the rounding, and with it the small component that places the angle
    near a doublet.
    """
    k = np.round(x / math.pi)
    x0 = x - k * math.pi
    c, s = np.cos(x0), np.sin(x0)
    m00, m01, m10, m11 = m
    det = det * s
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
    """The node of later = (B, n_B, d_B) after earlier = (A, n_A, d_A):
    B A scaled by its largest entry (the action is projective), negated
    where its first column points left (m00 < 0), n_A + n_B plus, where it
    was negated, the sign of a10, and d_A d_B over the scale squared, the
    det that the entries of a nearly singular B A lose.

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
    (b, n_b, d_b), (a, n_a, d_a) = later, earlier
    m = np.empty(b.shape)
    for j in (0, 1):    # column j of B A: rows (m0j, m1j) = B (a0j, a1j)
        np.multiply(b[::2], a[j], out=m[j::2])
        m[j::2] += b[1::2] * a[j + 2]
    left = m[0] < 0
    scale = np.abs(m).max(axis=0)
    np.negative(scale, out=scale, where=left)
    m /= scale
    d = d_b * d_a
    d /= scale
    d /= scale
    n = np.copysign(left, a[2])
    n += n_a
    n += n_b
    return m, n, d


def _product(m, n, d):
    """The node (m, n, d) of the composition of the steps along n's last
    axis (m's and d's too), the first step applied first: the roots of the
    runs its length's binary digits cut, longest first (`_roots`), composed
    from the last, which pairs the steps as rounds of pairs would, an odd
    node out joining the next round."""
    width = n.shape[-1]
    runs = [1 << k for k in reversed(range(width.bit_length()))
            if width >> k & 1]
    m, n, d = _roots(m, n, d, runs)
    node = m[..., -1], n[..., -1], d[..., -1]
    for j in reversed(range(len(runs) - 1)):
        node = _compose(node, (m[..., j], n[..., j], d[..., j]))
    return node


def _roots(m, n, d, runs):
    """The node of each run of steps along the last axis, one per run on
    the last axis, in one pairwise tree: the one tree of the passes and
    of the mesh's first round.

    runs are the lengths of the runs in order, powers of two, longest
    first.  Each round pairs the steps of every run still longer than one
    node in one `_compose`: every such run is even and starts at an even
    offset, so no pair straddles two runs.  A run down to one node is
    finished; the shortest runs finish first, and they are at the tail,
    from which they are taken.
    """
    root_m = np.empty(m.shape[:-1] + (len(runs),))
    root_n, root_d = np.empty((2,) + n.shape[:-1] + (len(runs),))
    live, length = len(runs), 1
    while live:
        done = live
        while done and runs[done - 1] == length:
            done -= 1
        if done < live:     # runs done .. live - 1 are down to one node
            cut = n.shape[-1] - (live - done)
            root_m[..., done:live], root_n[..., done:live] = (m[..., cut:],
                                                              n[..., cut:])
            root_d[..., done:live] = d[..., cut:]
            m, n, d, live = m[..., :cut], n[..., :cut], d[..., :cut], done
        if live:
            m, n, d = _compose((m[..., 1::2], n[..., 1::2], d[..., 1::2]),
                               (m[..., ::2], n[..., ::2], d[..., ::2]))
            length *= 2
    return root_m, root_n, root_d


def _plateau_angle(q, h):
    """alpha after a step h (either sign) from alpha = 0 where q = 2 (V - E)
    is constant: (psi, psi') = (1, 0) goes to (cosh(k h), k sinh(k h)),
    k = sqrt(q), which never vanishes, or to (cos(k h), -k sin(k h)),
    k = sqrt(-q), whose Pruefer phase k h counts the zeros crossed
    (`_rechart` of it to alpha keeps the branch)."""
    k = np.sqrt(np.abs(q))
    kh = k * h
    up = q > 0          # the rechart reads (0, 1) there, which it keeps
    angle = -_rechart(np.where(up, 0.0, kh), np.where(up, 1.0, k))
    np.arctan(k * np.tanh(kh), out=angle, where=up)
    return angle


def _nodes(steps, energies):
    """(m, n, w, coarse): the node (m, n) of every step at every energy,
    its scale w, and which steps are too wide for V: m's entries on its
    first axis, then one row per energy and one column per step, n's and
    w's rows and columns those of m.

    m is the Magnus map exp(Omega) scaled by e^{-w} (`_exponential`),
    oriented as a node's is: negated where its first column points left.  n
    is the integer nearest (plateau - theta(m)) / pi, plateau the
    closed-form angle of the step from alpha = 0 with V = vm, the cubic
    through the nodes at the step's midpoint (`_plateau_angle`), whose zero
    count is exact: phi = n pi + theta(m) is the plateau angle corrected
    mod pi to the angle of m e(0).  Where the step resolves V the two maps
    are close and the correction small; a step whose correction at any
    energy is beyond _LEAF_SLACK, or not finite, is too wide for V there
    (`coarse`, one flag per step).  The correction is taken mod pi, so it
    cannot see a plateau angle more than 3 pi / 4 off the step's lift: on a
    mesh from `pass_mesh` no step is that coarse, because its doubling goes
    on until the angle each piece hands on settles.
    """
    q = steps.vm - energies[:, None]
    # q passes the float range only for an E far below V, whose node is
    # then not finite and its step coarse: an IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        q *= 2.0
        plateau = _plateau_angle(q, steps.h)
        m, w = _exponential(_magnus(steps, q))
        np.negative(m, out=m, where=m[0] < 0)
        turn = np.arctan2(m[2], m[0], out=q)      # q is spent
        turn -= plateau
        n = np.round(turn / -math.pi)
        turn += math.pi * n
    coarse = ~(np.abs(turn) <= _LEAF_SLACK).all(axis=0)
    return m, n, w, coarse


def _leaves(steps, energies):
    """(m, n, w) of `_nodes`; a step too wide for V at any energy raises
    IntegrationError naming the first such step."""
    m, n, w, coarse = _nodes(steps, energies)
    if coarse.any():
        t = float(steps.t[coarse][0])
        raise IntegrationError(
            f"the step from t = {t:g} is too wide to resolve V", t_reached=t)
    return m, n, w


def _carry(steps, energies, alpha):
    """alpha carried over the steps, one component per energy.

    The leaves are built from the steps' stored coefficients (`_magnus`)
    and reduced (`_product`) in blocks of at most _BLOCK step-energies,
    which bounds the memory of a pass; a step too wide for V raises
    (`_leaves`).  Each block's root, its phi = n pi + theta(m) read with
    one arctan2 per energy, is lifted onto alpha in order with its exact
    det, built from e^{-2w} once per block (`_compose`), so the block does
    not move the angles, even where its product is rank one to the rounding.
    """
    width = max(1, _BLOCK // energies.size)
    for i in range(0, steps.h.size, width):
        block = _Steps(*(x[i:i + width] for x in steps))
        m, n, w = _leaves(block, energies)
        m, n, d = _product(m, n, np.exp(-2.0 * w))
        alpha = _lift(m, math.pi * n + np.arctan2(m[2], m[0]), alpha, d)
    return alpha


def _carry_levels(mesh, energies, starts):
    """(alpha_L, alpha_R) carried from the starts over the halves of a mesh
    of a potential with `_constant_pieces`, one step a piece (`pass_mesh`),
    each step's vm its piece's level and h its signed width.

    Each step's leaf is exact: m the closed form of Omega = [[0, h],
    [q h, 0]], q = 2 (vm - E), and its det e^{-2w} (`_exponential`, the
    plateau map), and phi its plateau angle, whose zero count is exact
    (`_plateau_angle`).  The angles are lifted over the steps one at a
    time (`_lift`), with no product, for speed only: a product carries
    its det as exactly, but a tree over a few pieces costs more than it
    saves.  The leaves of both halves are built together, in blocks of at
    most _BLOCK step-energies; a leaf is elementwise, so neither the block
    nor the batch changes a bit.
    """
    h = np.concatenate([steps.h for steps in mesh])
    vm = np.concatenate([steps.vm for steps in mesh])
    alphas, cut = list(starts), mesh[0].h.size
    width = max(1, _BLOCK // energies.size)
    for i in range(0, h.size, width):
        hb = h[i:i + width]
        q = vm[i:i + width] - energies[:, None]
        m = np.zeros((4,) + q.shape)
        m[1] = hb
        # q h^2 passes the float range only for an E far below V, whose
        # leaf is then not finite, nor Gamma: an IntegrationError
        with np.errstate(over="ignore", invalid="ignore"):
            q *= 2.0
            np.multiply(q, hb, out=m[2])
            m, w = _exponential(m)
            phi = _plateau_angle(q, hb)
        det = np.exp(-2.0 * w)
        for j in range(hb.size):
            half = int(i + j >= cut)
            alphas[half] = _lift(m[:, :, j], phi[:, j], alphas[half],
                                 det[:, j])
    return tuple(alphas)


def _span_steps(problem, potential, p0, p1, n):
    """The n steps from p0 to p1 between `_span_points`."""
    points = _span_points(problem, p0, p1, n + 1)
    return _steps(potential, points[:-1], np.diff(points))


def _first_round(problem, potential, pieces, energies):
    """For each piece in turn, the first round of its doubling: (steps, m,
    phi, d, wide), steps those of all its counts, the longest first, and
    (m, phi) the lifted map of each count and d its determinant on m's,
    phi's and d's last axis, the shortest first, with wide whether the
    count has a step too wide for V (its map then means nothing).

    The round holds the counts _PIECE_STEPS, 2 _PIECE_STEPS, ... up to
    _BATCH_STEPS, the doubling's cap or as many as fit in _BLOCK
    step-energies, and pieces are batched up to _BLOCK, one piece a row:
    one `_steps`, one `_nodes` and one `_roots` call per batch, the runs
    of steps of each row laid out longest first.  Count n's points are its
    piece's finest count's `_span_points`, every (finest / n)-th, which
    are those of n itself, bit for bit (either spacing sets point i from i
    times the width over the count, and halving that is exact).
    _PIECE_STEPS is a power of two, as `_roots` needs.  Whatever _BLOCK
    is, the round holds the count _PIECE_STEPS and a batch one piece.
    """
    counts = [_PIECE_STEPS]
    while (counts[-1] < _MAX_PIECE_STEPS and 2 * counts[-1] <= _BATCH_STEPS
           and (sum(counts) + 2 * counts[-1]) * energies.size <= _BLOCK):
        counts.append(2 * counts[-1])
    runs, total = counts[::-1], sum(counts)
    group = max(1, _BLOCK // (total * energies.size))
    for i in range(0, len(pieces), group):
        batch = pieces[i:i + group]
        points = np.stack([_span_points(problem, p0, p1, runs[0] + 1)
                           for p0, p1 in batch])
        grids = [points[:, ::runs[0] // n] for n in runs]
        t = np.concatenate([grid[:, :-1] for grid in grids], axis=1)
        h = np.concatenate([grid[:, 1:] for grid in grids], axis=1)
        h -= t
        steps = _steps(potential, t.ravel(), h.ravel())
        m, n, w, coarse = _nodes(steps, energies)
        d = np.exp(-2.0 * w)
        wide = np.logical_or.reduceat(coarse.reshape(len(batch), total),
                                      np.cumsum(runs) - runs, axis=1)
        if coarse.any():
            # the identity in their place: the tree composes only resolved
            # steps, as a carry per count does, and no garbage (which may
            # not be finite) reaches it
            m[..., coarse] = np.array([1.0, 0.0, 0.0, 1.0])[:, None, None]
            n[..., coarse] = 0.0
            d[..., coarse] = 1.0
        shape = energies.size, len(batch), total
        m, n, d = _roots(m.reshape(4, *shape), n.reshape(shape),
                         d.reshape(shape), runs)
        phi = math.pi * n + np.arctan2(m[2], m[0])
        for j in range(len(batch)):
            yield (_Steps(*(x[j * total:(j + 1) * total] for x in steps)),
                   m[:, :, j, ::-1], phi[:, j, ::-1], d[:, j, ::-1],
                   wide[j, ::-1])


def pass_mesh(problem: ProblemSpec, energies, left_starts, right_starts,
              a: float, c: float, b: float, config):
    """The steps (left, right) of both halves of `integrate_angles`.

    The arguments are those of `integrate_angles`; the mesh is built for
    the batch's lowest and highest energy (one where they are equal), which
    bound the passes it serves (a solve's E_min and E_max).  Each half is
    cut at the breakpoints (`_cuts`).  With `_constant_pieces` a piece is
    one step, V read once at its midpoint (`_level_steps`), whose vm is the
    piece's level and whose leaf is exact (`_carry_levels`), so no angle is
    carried and nothing is doubled; otherwise it is cut into
    `_span_points` steps.  The start angles are carried piece by piece in
    the direction of travel; a piece's step count doubles from _PIECE_STEPS
    until the angle it hands on moves by at most 255 rel_tol max(1,
    |alpha|) / pieces at every energy from the last count with no step too
    wide for V (such a count is not settled), and that finer count is kept:
    for an eighth-order method the move between n and 2n steps is 2^8 - 1 =
    255 times the error at 2n.  At _MAX_PIECE_STEPS the doubling stops, and
    a count that still has a step too wide raises IntegrationError naming
    it.  The counts up to _BATCH_STEPS of every piece of both halves are
    built together, before any angle is carried (`_first_round`).  One loop
    then walks each piece's counts: those of the first round are lifted
    from its start angle in one call, one with a step too wide left
    unsettled, and every later count goes through `_carry`, which raises on
    such a step, as a first-round count too wide at the cap does there.
    The meshes are those of one `_carry` per count, bit for bit.  V is read
    at the Gauss nodes only (at the midpoints only on constant pieces),
    never at a cut.  config is the SolveConfig; only its rel_tol is read.
    """
    potential = problem.effective_potential()
    breakpoints = potential.breakpoints()
    halves = [[(p0, p1) for p0, p1 in zip(cuts, cuts[1:]) if p0 != p1]
              for cuts in (_cuts(a, c, breakpoints), _cuts(b, c, breakpoints))]
    if _constant_pieces(potential):     # each piece's ends are its points
        edges, cut = np.reshape(halves[0] + halves[1], (-1, 2)), len(halves[0])
        steps = _level_steps(potential, edges[:, 0], edges[:, 1] - edges[:, 0])
        return (_Steps(*(x[:cut] for x in steps)),
                _Steps(*(x[cut:] for x in steps)))
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    lo, hi = np.argmin(energies), np.argmax(energies)
    ends = [lo] if lo == hi else [lo, hi]
    starts = [np.broadcast_to(np.asarray(start, dtype=float),
                              energies.shape)[ends]
              for start in (left_starts, right_starts)]
    energies = energies[ends]
    tol = 255.0 * config.rel_tol / max(1, sum(map(len, halves)))
    rounds = _first_round(problem, potential, halves[0] + halves[1], energies)
    mesh = []
    for pieces, alpha in zip(halves, starts):
        parts = [_NO_STEPS]
        for piece, (batch, m, phi, d, wide) in zip(pieces, rounds):
            lifted, coarse = _lift(m, phi, alpha[:, None], d), None
            for k in itertools.count():
                n = _PIECE_STEPS << k
                if k < wide.size:   # the shorter counts follow count n
                    if wide[k] and n < _MAX_PIECE_STEPS:
                        continue    # a step too wide: not settled
                    end = batch.h.size - n + _PIECE_STEPS
                    steps = _Steps(*(x[end - n:end] for x in batch))
                else:
                    steps = _span_steps(problem, potential, *piece, n)
                try:    # a count past the round, or at the cap, is carried
                    fine = (_carry(steps, energies, alpha)
                            if k >= wide.size or wide[k] else lifted[:, k])
                except IntegrationError:    # a step too wide: not settled
                    if n >= _MAX_PIECE_STEPS:
                        raise
                    continue
                if n >= _MAX_PIECE_STEPS or coarse is not None and np.all(
                        np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine))
                        <= tol):
                    break
                coarse = fine
            # a copy: a view would hold on to the whole batch it came from
            parts.append(_Steps(*(x.copy() for x in steps)))
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
    steps and in the batch; a pass over a given mesh reads no V (a solve
    builds one mesh and passes it to every pass).  Without a mesh one is
    built for the batch (`pass_mesh`).  A given mesh must run from a to c
    on the left and from b to c on the right, its ends equal to those up
    to rounding, or DomainError is raised; a half is empty where c is its
    end.  A step too wide for V raises IntegrationError naming it
    (`_leaves`), unless its plateau angle is more than 3 pi / 4 off its
    lift, which no check sees; the doubling of `pass_mesh` keeps both out.
    Each half is carried on its own (`_carry`), in blocks of _BLOCK
    step-energies.  On a piecewise-constant family the mesh is the pieces,
    and the angles of both halves are lifted over each piece's exact leaf
    on its own instead, with no product (`_carry_levels`).  config is the
    SolveConfig; only its rel_tol is read.  Returns (alpha_L(c), alpha_R(c)).
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    # np.broadcast_to costs a pass several microseconds: only a start that
    # is not one per energy already is broadcast
    starts = [np.asarray(start, dtype=float) for start in (left_starts,
                                                           right_starts)]
    starts = [start if start.shape == energies.shape
              else np.broadcast_to(start, energies.shape) for start in starts]
    if mesh is None:
        mesh = pass_mesh(problem, energies, *starts, a, c, b, config)
    else:
        _check_coverage(mesh, a, c, b)
    if _constant_pieces(problem.effective_potential()):
        return _carry_levels(mesh, energies, starts)
    return tuple(_carry(steps, energies, start)
                 for steps, start in zip(mesh, starts))


def _amplitudes(potential, points, E, alpha):
    """(alpha, log rho) at energy E and the points, one row each, carried
    from (alpha, 0) over the steps between them (`_steps`).

    alpha is lifted over the leaves (`_leaves`) one step at a time, as by
    `_lift`, each with its exact det e^{-2w}, w its scale (`_exponential`),
    and log rho adds log |m e(alpha)| + w a step.
    """
    steps = _steps(potential, points[:-1], np.diff(points))
    (m00, m01, m10, m11), n, w = _leaves(steps, np.array([E]))
    rows = (m00, m01, m10, m11, np.exp(-2.0 * w),
            math.pi * n + np.arctan2(m10, m00), w)
    out, log_rho = [(alpha, 0.0)], 0.0
    for m00, m01, m10, m11, det, phi, w in zip(*np.concatenate(rows).tolist()):
        k = round(alpha / math.pi) * math.pi
        c, s = math.cos(alpha - k), math.sin(alpha - k)
        x, y = m00 * c + m01 * s, m10 * c + m11 * s
        log_rho += math.log(math.hypot(x, y)) + w
        alpha = math.atan2(det * s, m00 * x + m10 * y) + phi + k
        out.append((alpha, log_rho))
    return np.array(out).T


def integrate_angle_sampled(problem: ProblemSpec, E: float, left_start,
                            right_start, a: float, c: float, b: float,
                            config, t_eval):
    """(t, alpha, log_rho) at exactly the points of t_eval, sorted.

    The arguments are those of `integrate_angles`, for one energy.  Each
    half runs from its own cue toward c and samples the points on its side
    (c on the left), so each carries the solution that decays away from its
    end (`_amplitudes`): over its steps of the `pass_mesh` at E on the
    interval settled on the support (`cues.settled`), c moved into it, and
    over the stretch from its end to the settled edge, where V is the
    tail's level, in one step more, so the cost does not grow with the
    length of a constant tail; each step is cut at the points it holds.
    Where psi is below about 1e-12 of its peak (a far tail, whose wide
    steps the flow forgives) alpha and log_rho are only those of the
    steps' maps.  The right half is joined to the left at c: its log_rho
    moves to the left's value there and its alpha by the multiple of pi
    nearest alpha_L(c) - alpha_R(c).  t_eval must lie inside [a, b];
    log_rho is 0 at a.
    """
    potential = problem.effective_potential()
    ts = np.sort(np.asarray(t_eval, dtype=float))
    lo, hi = settled(problem, (a, b))
    c = min(max(c, lo), hi)
    mesh = pass_mesh(problem, E, left_start, right_start, lo, c, hi, config)
    ends, samples = [], []
    for steps, start, s0, grid, way in (
            (mesh[0], left_start, a, ts[ts <= c], 1),
            (mesh[1], right_start, b, ts[ts > c], -1)):
        # the end, the steps' starts and the points, in the order of travel
        travel = np.unique(np.concatenate([[s0], steps.t, grid, [c]]))[::way]
        ys = _amplitudes(potential, travel, E, start)
        ends.append(ys[:, -1])
        samples.append(ys[:, ::way][:, np.searchsorted(travel[::way], grid)])
    shift = ends[0] - ends[1]
    shift[0] = math.pi * np.round(shift[0] / math.pi)
    ys = np.concatenate([samples[0], samples[1] + shift[:, None]], axis=1)
    return ts, ys[0], ys[1]
