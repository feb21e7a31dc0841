import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spectral_defect as sd
from spectral_defect import angular, cues, oracle, spectrum
from scipy.linalg import expm

from spectral_defect.angular import (_GAUSS, _amplitude_fun, _carry,
                                     _chart_fun, _compose, _integrate_vector,
                                     _leaves, _lift, _magnus, _omega,
                                     _product, _rechart, _span_steps,
                                     _steps, integrate_angle_sampled,
                                     integrate_angles, pass_mesh)
from spectral_defect.errors import DomainError
from spectral_defect.potentials import Shifted


FLAT = sd.PiecewiseConstant((0.0,), (0.0, 0.0))  # V identically zero
# jumps at -1, 0 and 1, right-continuous: evaluate(0.0) reads -1, not -2
STEPS = sd.PiecewiseConstant((-1.0, 0.0, 1.0), (0.0, -2.0, -1.0, 0.0))


def flat_problem(a, b):
    return sd.problem_for(FLAT, interval=(a, b))


def terminal_angles(problem, energies, alpha_start):
    """The left angles at b of the problem's interval (c = b)."""
    a, b = problem.interval
    alpha_l, _ = integrate_angles(problem, energies, alpha_start, 0.0, a, b,
                                  b, sd.SolveConfig())
    return alpha_l


def test_rate_is_minus_one_at_vertical_angles():
    # at alpha = pi/2 the potential term is multiplied by cos^2 = 0
    for v in (5.0, -3.0, 0.0):
        well = sd.PiecewiseConstant((0.0,), (v, v))
        fun = _chart_fun(well, [-1.0, 2.0, 0.0, -1.0], 1.0)
        alphas = np.array([math.pi / 2, math.pi / 2, -math.pi / 2,
                           -math.pi / 2])
        assert np.allclose(fun(0.3, alphas), -1.0, rtol=0.0, atol=1e-15)


def test_rate_at_horizontal_angle():
    well = sd.PiecewiseConstant((0.0,), (1.5, 1.5))
    fun = _chart_fun(well, [-0.5, 1.5], 1.0)
    assert fun(0.0, np.zeros(2)) == pytest.approx([4.0, 0.0])


def test_log_amplitude_rhs_vanishes_on_axes():
    fun = _amplitude_fun(FLAT, -1.0)
    assert fun(0.0, np.array([0.0, 0.0]))[1] == 0.0
    assert fun(0.0, np.array([math.pi / 2, 0.0]))[1] == pytest.approx(
        0.0, abs=1e-15)


def test_fixed_point_holds_for_flat_potential():
    """For V = 0 and E = -1/2 the angle arctan(1) is stationary."""
    E = -0.5
    alpha_star = math.atan(math.sqrt(2.0 * (0.0 - E)))
    fun = _chart_fun(FLAT, [E], 1.0)
    assert fun(1.0, np.array([alpha_star]))[0] == pytest.approx(
        0.0, abs=1e-15)
    alphas = terminal_angles(flat_problem(-5.0, 5.0), [E], alpha_star)
    assert alphas[0] == pytest.approx(alpha_star, abs=1e-10)


def _rk4(f, t0, t1, y0, n):
    h = (t1 - t0) / n
    t, y = t0, y0
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def test_square_well_against_fixed_step_rk4():
    """The adaptive integrator agrees with a naive fixed-step reference."""
    well = sd.SquareWell(depth=-2.0, left=-1.0, right=1.0)
    problem = sd.problem_for(well, interval=(-1.0, 1.0))
    E = -1.0
    alpha0 = math.atan(math.sqrt(2.0 * (0.0 - E)))

    def f(t, alpha):
        # scalar form of the angular flow, independent of the batched RHS
        c, s = math.cos(alpha), math.sin(alpha)
        return 2.0 * (well.evaluate(t) - E) * c * c - s * s

    reference = _rk4(f, -1.0, 1.0, alpha0, 4000)
    got = terminal_angles(problem, [E], alpha0)[0]
    assert got == pytest.approx(reference, abs=1e-9)


def test_terminal_angle_decreases_with_energy():
    # d(rhs)/dE = -2 cos^2(alpha) <= 0, so higher E lags behind
    well = sd.SquareWell(depth=-3.0, left=-1.5, right=1.5)
    problem = sd.problem_for(well, interval=(-1.5, 1.5))
    alphas = [terminal_angles(problem, [E], 1.0)[0]
              for E in (-2.5, -1.5, -0.5)]
    assert alphas[0] > alphas[1] > alphas[2]


def test_pi_shift_equivariance():
    well = sd.SquareWell(depth=-2.0, left=-1.0, right=1.0)
    problem = sd.problem_for(well, interval=(-2.0, 2.0))
    base = terminal_angles(problem, [-0.7], 0.4)[0]
    shifted = terminal_angles(problem, [-0.7], 0.4 + math.pi)[0]
    assert shifted - base == pytest.approx(math.pi, abs=1e-8)


def test_scaled_rhs_fixed_angles():
    """Free squeezing flow holds the diagonal directions +-pi/4."""
    energies = np.array([-0.5, -0.5, -2.0, -2.0])
    fun = _chart_fun(FLAT, energies, np.sqrt(-2.0 * energies))
    alphas = np.array([math.pi / 4, -math.pi / 4] * 2)
    assert np.allclose(fun(1.0, alphas), 0.0, rtol=0.0, atol=1e-14)


def test_amplitude_recovers_flat_decay():
    # on a flat stretch the decaying solution is exp(-kt) with k=sqrt(-2E)
    E = -0.5
    k = math.sqrt(-2.0 * E)
    alpha_star = -math.atan(k)
    problem = flat_problem(0.0, 4.0)
    # c = b: the left half alone spans [a, b]
    ts, _, log_rhos = integrate_angle_sampled(problem, E, alpha_star, 0.0,
                                              0.0, 4.0, 4.0, sd.SolveConfig(),
                                              t_eval=[4.0])
    # rho^2 = psi^2 + psi'^2 scales like exp(-2kt) too
    assert ts[-1] == 4.0
    assert log_rhos[-1] == pytest.approx(-k * 4.0, abs=1e-9)


def _counting_ivp(monkeypatch):
    """The nfev of every solve_ivp call the package makes, in order."""
    nfev = []
    solve_ivp = angular.solve_ivp

    def counting(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(angular, "solve_ivp", counting)
    return nfev


def test_rhs_never_reads_v_at_a_breakpoint(monkeypatch):
    # the transfer-matrix oracle still integrates across the jumps of STEPS,
    # here with every jump inside the interval
    problem = sd.problem_for(STEPS, interval=(-2.0, 2.0))
    calls = []
    evaluate = sd.PiecewiseConstant.evaluate

    def recording(self, t):
        calls.append(np.array(t, dtype=float))
        return evaluate(self, t)

    monkeypatch.setattr(sd.PiecewiseConstant, "evaluate", recording)
    oracle.transfer_matrix(problem, -1.1)
    assert calls
    assert not np.isin(np.concatenate([t.ravel() for t in calls]),
                       STEPS.breakpoints()).any()


@pytest.mark.parametrize("well, interval, e_min, e_max", [
    (STEPS, (-3.0, 3.0), -1.99, -0.01),
    (sd.TruncatedOscillator(1.0, 2.0), (-4.0, 4.0), 0.1, 1.9)],
    ids=["piecewise", "truncated"])
def test_a_solve_reads_v_at_a_breakpoint_only_to_find_c(
        monkeypatch, well, interval, e_min, e_max):
    # the one search for the matching point reads V on its whole grid, ends
    # and jumps included; every other call (a closed-form piece on STEPS,
    # a stage of the flow across the kinks at +-2 of the oscillator) stays
    # off the breakpoints
    problem = sd.problem_for(well, interval=interval)
    grid = np.linspace(*interval, spectrum._MATCH_GRID)
    calls = []
    evaluate = type(well).evaluate

    def recording(self, t):
        calls.append(np.array(t, dtype=float))
        return evaluate(self, t)

    monkeypatch.setattr(type(well), "evaluate", recording)
    assert sd.find_eigenvalues(problem, e_min, e_max).eigenvalues
    searches = [t for t in calls if np.array_equal(t, grid)]
    others = [t for t in calls if not np.array_equal(t, grid)]
    assert len(searches) == 1
    assert others
    assert not np.isin(np.concatenate([t.ravel() for t in others]),
                       well.breakpoints()).any()


def test_halves_meet_where_one_flow_would_pass():
    # the right half runs b -> c over the jumps at 1 and 0: started from
    # where the forward flow ends, it must land where that flow passed c
    problem = sd.problem_for(STEPS, interval=(-2.0, 2.0))
    config = sd.SolveConfig()
    energies, starts = [-1.5, -0.3], [0.7, -0.4]
    at_b = terminal_angles(problem, energies, starts)
    alpha_l, alpha_r = integrate_angles(problem, energies, starts, at_b,
                                        -2.0, -0.5, 2.0, config)
    assert alpha_r == pytest.approx(alpha_l, abs=1e-8)
    # with c = a the left half is empty and the right one runs all the way
    alpha_l, alpha_r = integrate_angles(problem, energies, starts, at_b,
                                        -2.0, -2.0, 2.0, config)
    assert np.array_equal(alpha_l, starts)
    assert alpha_r == pytest.approx(starts, abs=1e-8)


def test_transfer_root_rhs_budget(monkeypatch):
    # each piece is smooth, so the error estimate rejects no step at a jump
    problem = sd.problem_for(STEPS)
    result = sd.find_eigenvalues(problem, -1.99, -0.01)
    assert len(result.eigenvalues) == 1
    E = result.energies[0]
    nfev = _counting_ivp(monkeypatch)
    root = oracle.eigencondition_root(problem, E - 1e-3, E + 1e-3)
    assert root == pytest.approx(E, abs=1e-9)
    assert sum(nfev) <= 8000


@pytest.mark.parametrize("problem, e_min, e_max", [
    (sd.problem_for(STEPS), -1.99, -0.01),
    (sd.problem_for(sd.SquareWell(-4.0, -1.0, 1.0)), -3.99, -0.01),
    (sd.problem_for(sd.Coulomb(), l=1), -0.2, -0.01),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), 1e-6, 8.0 - 2e-3),
    (sd.problem_for(sd.QuarkHybrid(math.sqrt(5e-5))), -0.52, 0.05)],
    ids=["piecewise", "square", "hydrogen-l1", "oscillator-a4", "quark"])
def test_no_pass_makes_an_ivp_call(monkeypatch, problem, e_min, e_max):
    # constant pieces go in closed form, every other family by Magnus steps
    nfev = _counting_ivp(monkeypatch)
    assert sd.find_eigenvalues(problem, e_min, e_max).eigenvalues
    assert nfev == []


def test_shifted_constant_pieces_make_no_ivp_call(monkeypatch):
    # what `eref = tail` solves: the shifted steps stay in closed form
    well = sd.PiecewiseConstant((-1.0, 0.2, 1.0), (0.0, -3.0, -1.0, 0.0))
    plain = sd.find_eigenvalues(sd.problem_for(well), -2.99, -0.01)
    nfev = _counting_ivp(monkeypatch)
    shifted = sd.find_eigenvalues(sd.problem_for(Shifted(well, 5.0)),
                                  2.01, 4.99)
    assert nfev == []
    assert len(shifted.eigenvalues) == len(plain.eigenvalues) == 2
    assert np.allclose(shifted.energies, plain.energies + 5.0, rtol=0.0,
                       atol=plain.config.e_tol)


def test_sampled_states_are_exactly_the_grid():
    # 0.0 is both a grid node and an inner breakpoint
    problem = sd.problem_for(STEPS, interval=(-1.0, 1.0))
    E = -1.1
    alpha_a = cues.left_boundary_angle(problem, E, -1.0)
    grid = np.linspace(-1.0, 1.0, 401)
    ts, alphas, log_rhos = integrate_angle_sampled(
        problem, E, alpha_a, 0.0, -1.0, 1.0, 1.0, sd.SolveConfig(),
        t_eval=grid)
    assert np.array_equal(ts, grid)
    assert alphas.shape == log_rhos.shape == grid.shape
    alpha_b = terminal_angles(problem, [E], alpha_a)[0]
    assert alphas[-1] == pytest.approx(alpha_b, abs=1e-8)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        sd.SolveConfig(rel_tol=0.0)


# ---------------------------------------------------------------------------
# Closed form on constant pieces against the adaptive flow
# ---------------------------------------------------------------------------

@st.composite
def lattice_wells(draw, lattice=1.0 / 64.0, span=3.0):
    """Wells as in acceptance criterion 3: 1-3 inner segments on a lattice."""
    n_inner = draw(st.integers(1, 3))
    cells = int(span / lattice)
    edges = draw(st.lists(st.integers(-cells, cells), min_size=n_inner + 1,
                          max_size=n_inner + 1, unique=True))
    depths = draw(st.lists(st.floats(0.5, 4.0), min_size=n_inner,
                           max_size=n_inner))
    return sd.PiecewiseConstant(tuple(sorted(e * lattice for e in edges)),
                                (0.0, *(-d for d in depths), 0.0))


def closed_gammas(problem, energies, interval, c):
    return np.array([s.gamma for s in sd.defect_angles(
        problem, energies, interval=interval, c=c)])


def adaptive_gammas(problem, energies, interval, c, config=sd.SolveConfig()):
    """Gamma_c by the adaptive flow on every piece: the reference."""
    potential = problem.effective_potential()
    fun = _chart_fun(potential, energies, 1.0)
    (a, b), halves = interval, []
    for boundary_angle, s0 in ((cues.left_boundary_angle, a),
                               (cues.right_boundary_angle, b)):
        starts = [boundary_angle(problem, E, s0) for E in energies]
        y, _ = _integrate_vector(fun, s0, c, starts, config,
                                 potential.breakpoints())
        halves.append(y)
    return halves[1] - halves[0]


@settings(max_examples=30, deadline=None, database=None)
@given(well=lattice_wells(), where=st.floats(0.0, 1.0))
def test_closed_form_matches_the_adaptive_flow(well, where):
    problem = sd.problem_for(well)
    e_min, e_max = min(well.values) + 0.02, -0.02
    a, b = sd.auto_interval(problem, e_min, e_max, sd.SolveConfig())
    energies = np.linspace(e_min, e_max, 16)
    for c in (a, b, a + where * (b - a)):
        assert closed_gammas(problem, energies, (a, b), c) == pytest.approx(
            adaptive_gammas(problem, energies, (a, b), c), abs=1e-10)


@pytest.mark.parametrize("turns", [0.5, 2.5])
def test_a_zero_of_psi_at_the_end_of_a_piece(turns):
    # V = 0, E = 1/2 turns alpha at rate -1; psi = cos(t) vanishes at the
    # end of the piece, where the rounded psi and phase may disagree
    end = turns * math.pi
    alphas = terminal_angles(flat_problem(0.0, end), [0.5], 0.0)
    assert alphas[0] == pytest.approx(-end, abs=1e-12)


TERRACE = sd.PiecewiseConstant((-1.0, 0.0, 1.5), (0.0, -3.0, -1.0, 0.0))


def test_long_constant_tails_keep_gamma_finite():
    # k |delta| reaches 1e3 at E = -0.5 on tails 1e3 long
    problem = sd.problem_for(TERRACE)
    energies = np.linspace(-2.9, -0.05, 12)
    auto = sd.auto_interval(problem, -2.9, -0.05, sd.SolveConfig())
    wide = (auto[0] - 1e3, auto[1] + 1e3)
    gammas = closed_gammas(sd.problem_for(TERRACE, interval=wide), energies,
                           wide, 0.2)
    assert np.all(np.isfinite(gammas))
    assert gammas == pytest.approx(
        closed_gammas(problem, energies, auto, 0.2), abs=1e-10)


@pytest.mark.parametrize("q", [0.0, 1e-12, -1e-12])
def test_energy_at_a_plateau_level(q):
    # E at the inner plateau V = -1 (q = 2 (V - E) = 0) and a hair either
    # side of it, next to energies in the well and above the plateau
    problem = sd.problem_for(TERRACE)
    energies = np.array([-1.0 - q / 2.0, -2.0, -0.5])
    interval = (-1.0, 1.5)
    for c in (-1.0, 1.5, 0.7):
        assert closed_gammas(problem, energies, interval, c) == \
            pytest.approx(adaptive_gammas(problem, energies, interval, c),
                          abs=1e-10)


# ---------------------------------------------------------------------------
# The scaled chart of the adaptive flow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_rechart_keeps_the_branch_and_round_trips(scale):
    # alpha = m pi + x: +-pi/2 is a fixed point of every chart, and an ulp
    # either side of it must not move the angle to a neighbouring branch
    for m in range(-30, 31):
        for x in (-math.pi / 2, -1.0, -1e-3, 0.3, 1.5, math.pi / 2):
            alpha = m * math.pi + x
            alphas = np.array([np.nextafter(alpha, -np.inf), alpha,
                               np.nextafter(alpha, np.inf)])
            theta = _rechart(alphas, 1.0 / scale)
            if abs(x) == math.pi / 2:
                assert np.abs(theta - alphas).max() <= 1e-9
            else:
                offset = theta - m * math.pi
                assert np.all(np.abs(offset) < math.pi / 2)
                assert np.all(np.sign(offset) == np.sign(x))
            assert _rechart(theta, scale) == pytest.approx(
                alphas, rel=0.0, abs=1e-12 * max(1.0, abs(alpha)))


# ---------------------------------------------------------------------------
# Magnus steps and the lifted product
# ---------------------------------------------------------------------------

def _bcr_exponential(h, q):
    """exp(Omega) of the Blanes-Casas-Ros approximant, by 2x2 matrices."""
    def a(q):
        return np.array([[0.0, 1.0], [q, 0.0]])

    def bracket(x, y):
        return x @ y - y @ x

    n = np.array([[0.0, 0.0], [1.0, 0.0]])
    a1 = h * a(q[1])
    a2 = math.sqrt(15.0) * h / 3.0 * (q[2] - q[0]) * n
    a3 = 10.0 * h / 3.0 * (q[2] - 2.0 * q[1] + q[0]) * n
    c1 = bracket(a1, a2)
    omega = a1 + a3 / 12.0 + bracket(-20.0 * a1 - a3 + c1,
                                     a2 - bracket(a1, 2.0 * a3 + c1) / 60.0
                                     ) / 240.0
    return expm(omega)


def _entries(m):
    """The 2x2 map of one step and energy, scaled by its largest entry."""
    m = np.reshape(m, (2, 2))
    return m / np.abs(m).max()


class _NodeValues:
    """A potential that reads the given V at the three nodes of a step."""

    def __init__(self, v):
        self.v = v

    def evaluate(self, t):
        return self.v


def _magnus_step(t, h, v, E):
    """The Magnus map of one step at one energy, V = v at its nodes in the
    order of travel, its coefficients built as a mesh builds them."""
    step = _steps(_NodeValues(v), np.array([t]), np.array([h]))
    return _magnus(step, 2.0 * (step.v[:, 1, None] - np.array([E])))


def test_magnus_map_is_the_exponential_of_the_approximant():
    # closed form against matrix algebra and expm; backward is the inverse
    rng = np.random.default_rng(3)
    for _ in range(40):
        h, E = rng.uniform(-1.5, 1.5), rng.uniform(-5.0, 5.0)
        v = rng.uniform(-8.0, 8.0, 3)
        got = _magnus_step(0.0, h, v, E)
        want = _bcr_exponential(h, 2.0 * (v - E))
        assert _entries(got) == pytest.approx(_entries(want), abs=1e-12)
        back = _magnus_step(h, -h, v[::-1], E)
        assert _entries(np.linalg.inv(np.reshape(back, (2, 2)))) == \
            pytest.approx(_entries(got), abs=1e-12)


@pytest.mark.parametrize("m", [
    [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]],
    [[2.0, 1.0], [1.0, 1.0]],
    [[1.0, 5.0], [0.0, 1.0]],
    [[1e-3, 1.0], [-1.0, 1e-3]],
    # a long forbidden step scaled by e^{-w}: det rounds to about 0
    [[0.5, 0.5 / 3.0], [1.5, 0.5]]],
    ids=["rotation", "hyperbolic", "shear", "near-half-turn", "singular"])
def test_lift_keeps_the_branch_at_multiples_of_pi(m):
    # f(k pi) = k pi + phi, and an ulp either side of k pi or of
    # k pi + pi/2 (where the reading of x changes branch) stays there
    m = np.array(m, dtype=float).ravel()
    phi = math.atan2(m[2], m[0]) + 4.0 * math.pi
    for k in range(-30, 31):
        for x in (k * math.pi, k * math.pi + math.pi / 2):
            xs = np.array([np.nextafter(x, -np.inf), x,
                           np.nextafter(x, np.inf)])
            fs = _lift(m, phi, xs)
            assert np.ptp(fs) <= 1e-12 * max(1.0, abs(x))
        assert _lift(m, phi, k * math.pi) == pytest.approx(
            k * math.pi + phi, rel=0.0, abs=1e-12 * max(1.0, abs(k)))
        assert _lift(m, phi, k * math.pi + 1.0) == pytest.approx(
            _lift(m, phi, 1.0) + k * math.pi, rel=0.0,
            abs=1e-12 * max(1.0, abs(k)))


def _phi(m, n):
    """phi = f(0) of the node (m, n): n pi + theta(m)."""
    return math.pi * n + np.arctan2(m[2], m[0])


def test_tree_product_equals_the_left_to_right_fold():
    # the left half of the 72-level well turns through some 36 pi at the
    # top energies; 1,001 steps leave an odd step out of most rounds
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 12.0))
    potential = problem.effective_potential()
    energies = np.array([0.2, 30.0, 60.0, 71.5])
    points = np.linspace(-14.0, 0.0, 1002)
    m, n = _leaves(_steps(potential, points[:-1], np.diff(points)),
                   energies, potential)
    tree = _product(m, n)
    fold = (m[:, 0], n[0])
    for j in range(1, len(n)):
        fold = _compose((m[:, j], n[j]), fold)
    tree_phi, fold_phi = _phi(*tree), _phi(*fold)
    assert np.array_equal(np.floor(tree_phi / math.pi),
                          np.floor(fold_phi / math.pi))
    assert np.all(np.abs(tree_phi - fold_phi)
                  <= 1e-12 * np.maximum(1.0, np.abs(fold_phi)))
    assert tree_phi.min() < -30.0 * math.pi
    alphas = np.array([0.3, -1.2, 2.0, 0.0])
    assert _lift(tree[0], tree_phi, alphas) == pytest.approx(
        _lift(fold[0], fold_phi, alphas), rel=0.0, abs=1e-10)


def test_a_leaf_whose_correction_is_large_is_split():
    # at E = 70 the plateau angle of the step [4, 7] of t^2 / 2 is about
    # pi/2 off the Magnus map mod pi: corrected to it, the leaf would land
    # a branch away from the flow; split, it keeps the flow's branch
    well = sd.TruncatedOscillator(1.0, 12.0)
    reads = []

    class Recording:
        def evaluate(self, t):
            reads.append(np.size(t))
            return well.evaluate(t)

    energies = np.array([70.0])
    step = _steps(well, np.array([4.0]), np.array([3.0]))
    phi = _phi(*_leaves(step, energies, Recording()))
    points = np.linspace(4.0, 7.0, 4001)
    want = _phi(*_product(*_leaves(
        _steps(well, points[:-1], np.diff(points)), energies, well)))
    assert reads
    assert abs(phi[0, 0] - want[0]) < math.pi / 4


def _node(m, n):
    """The node of one 2x2 map (rows m00 m01, m10 m11) and n half turns,
    as a tree holds it: one column, entries on the first axis."""
    return np.reshape(np.array(m, dtype=float), (4, 1)), np.array([float(n)])


@st.composite
def magnus_pairs(draw):
    """Two oriented Magnus maps of steps taken in one direction, as a pass
    takes them, each with a count of half turns.  One step in three is
    long and forbidden, its map of rank one to the rounding."""
    sign = draw(st.sampled_from([-1.0, 1.0]))
    nodes = []
    for _ in range(2):
        v = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=3,
                                   max_size=3)))
        h, E = draw(st.floats(0.0, 3.0)), draw(st.floats(-8.0, 8.0))
        if draw(st.integers(0, 2)) == 0:
            h, E = draw(st.floats(5.0, 40.0)), v.min() - 20.0
        m = _magnus_step(0.0, sign * h, v, E)[:, 0, 0]
        nodes.append(_node(-m if m[0] < 0 else m, draw(st.integers(-40, 40))))
    return nodes


@settings(max_examples=300, deadline=None, database=None)
@given(pair=magnus_pairs())
def test_composing_two_leaves_lifts_the_earlier_angle(pair):
    # phi of (B, n_B) after (A, n_A) is f_B(phi_A), with no tolerance
    # taken on which side of the vertical B A's first column falls.  Where
    # B A e(0) cancels to the rounding (A e(0) on B's null line) neither
    # form can tell its direction, and a pass never puts it there
    later, earlier = pair
    (b, _), (a, _) = pair
    column = np.hypot(b[0] * a[0] + b[1] * a[2], b[2] * a[0] + b[3] * a[2])
    assume(column[0] > 1e-8 * np.abs(b).max() * np.hypot(a[0], a[2])[0])
    phi = _phi(*_compose(later, earlier))
    want = _lift(later[0], _phi(*later), _phi(*earlier))
    assert abs(phi[0] - want[0]) <= 1e-12 * max(1.0, abs(want[0]))


@pytest.mark.parametrize("turns", [(0, 0), (3, -2)])
def test_a_column_at_the_vertical_keeps_phi_continuous(turns):
    # B A's first column lands an ulp left of the vertical, on it with
    # either sign of zero, or an ulp right of it, above the origin (B the
    # quarter turn after a shear that leans A's column by a10) and below
    # it (a shear by b01 after the quarter turn back, A's column leaning
    # by a00); phi moves by no more than the column does
    n_b, n_a = turns
    ulp = math.ulp(0.0)
    edges = [-ulp, -0.0, 0.0, ulp]
    above = [(_node([b00, -1.0, 1.0, 0.0], n_b),
              _node([1.0, 0.0, a10, 1.0], n_a))
             for b00, a10 in ((0.0, ulp), (-0.0, 0.0), (0.0, 0.0),
                              (0.0, -ulp))]
    below = [(_node([1.0, b01, 0.0, 1.0], n_b),
              _node([a00, 1.0, -1.0, 0.0], n_a))
             for b01, a00 in ((ulp, 0.0), (0.0, -0.0), (0.0, 0.0),
                              (0.0, ulp))]
    for pairs, side in ((above, 1.0), (below, -1.0)):
        columns = [(b[0] * a[0] + b[1] * a[2], b[2] * a[0] + b[3] * a[2])
                   for (b, _), (a, _) in pairs]
        assert [(x[0], math.copysign(1.0, x[0]), y[0]) for x, y in columns] \
            == [(x, math.copysign(1.0, x), side) for x in edges]
        want = (n_a + n_b) * math.pi + side * math.pi / 2
        for later, earlier in pairs:
            phi = _phi(*_compose(later, earlier))[0]
            assert phi == pytest.approx(want, rel=0.0, abs=4e-16 * abs(want))
            assert phi == pytest.approx(
                _lift(later[0], _phi(*later), _phi(*earlier))[0],
                rel=0.0, abs=4e-16 * abs(want))


def test_a_step_no_halving_resolves_raises():
    # at E = -1e300 Omega's p term overflows w^2 on any width a few
    # halvings reach: the pass stops instead of doubling the halves on
    well = sd.TruncatedOscillator(1.0, 2.0)
    step = _steps(well, np.array([-2.0]), np.array([0.5]))
    with pytest.raises(sd.IntegrationError, match="split 6 times"), \
            np.errstate(over="ignore"):
        _leaves(step, np.array([-1e300]), well)


def test_mesh_doubles_each_piece_to_its_own_count():
    # the long constant tails converge at the first doubling; the kinks at
    # +-4 cut the well into pieces of their own
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0),
                             interval=(-1004.0, 1004.0))
    energies = [1e-6, 7.998]
    lefts, rights = spectrum._cue_angles(problem, energies, -1004.0, 1004.0)
    left, right = pass_mesh(problem, energies, lefts, rights, -1004.0, 0.0,
                            1004.0, sd.SolveConfig())
    assert left.h.sum() == pytest.approx(1004.0)
    assert right.h.sum() == pytest.approx(-1004.0)
    tail = left.t < -4.0
    assert tail.sum() == 32
    assert (~tail).sum() > 32
    assert pass_mesh(sd.problem_for(STEPS), energies, lefts, rights, -3.0,
                     0.0, 3.0, sd.SolveConfig()) is None


def test_a_rel_tol_below_the_rounding_stops_the_doubling():
    # rel_tol = 1e-300 asks for more than the rounding gives: the smooth
    # pieces [-2, 0] and [0, 2] double up to the cap, and the constant
    # ones beyond +-2, whose Magnus steps are exact, stop short only where
    # their angles at n and 2n steps met the tolerance
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0),
                             interval=(-3.0, 3.0))
    potential = problem.effective_potential()
    energies = np.array([0.5, 1.5])
    config = sd.SolveConfig(rel_tol=1e-300)
    starts = spectrum._cue_angles(problem, energies, -3.0, 3.0)
    mesh = pass_mesh(problem, energies, *starts, -3.0, 0.0, 3.0, config)
    cap, tol = angular._MAX_PIECE_STEPS, 63.0 * config.rel_tol / 4
    for steps, start, end in zip(mesh, starts, (-3.0, 3.0)):
        cut = math.copysign(2.0, end)
        at = int(np.flatnonzero(steps.t == cut)[0])
        tail = angular._Steps(*(x[:at] for x in steps))
        assert steps.h.size - at == cap
        assert tail.h.size <= cap
        if tail.h.size < cap:
            coarse = _carry(_span_steps(problem, potential, end, cut,
                                        tail.h.size // 2),
                            energies, start, potential)
            fine = _carry(tail, energies, start, potential)
            assert np.all(np.abs(fine - coarse)
                          <= tol * np.maximum(1.0, np.abs(fine)))


@st.composite
def smooth_problems(draw):
    """An oscillator, a Coulomb well with l <= 2 or a tabulated well, six
    energies below its threshold that cover a few levels, and where to put
    two more within 1e-8 of one of its levels."""
    kind = draw(st.sampled_from(["truncated", "hybrid", "coulomb",
                                 "tabulated"]))
    near = (draw(st.floats(0.0, 1.0)),
            draw(st.lists(st.floats(-1e-8, 1e-8), min_size=2, max_size=2)))
    if kind == "coulomb":
        charge, l = draw(st.floats(0.8, 2.0)), draw(st.integers(0, 2))
        top = -0.5 * charge**2 / (l + 1) ** 2
        return (sd.problem_for(sd.Coulomb(charge), l=l),
                np.linspace(1.15 * top, 0.21 * top, 6), near)
    if kind == "tabulated":
        # 3-12 samples of a well between zero tails
        count, width = draw(st.integers(3, 12)), draw(st.floats(1.0, 4.0))
        depths = draw(st.lists(st.floats(0.5, 4.0), min_size=count - 2,
                               max_size=count - 2))
        well = sd.Tabulated(tuple(np.linspace(-width, width, count)),
                            (0.0, *(-d for d in depths), 0.0))
        return (sd.problem_for(well),
                np.linspace(-max(depths) + 0.02, -0.02, 6), near)
    if kind == "truncated":
        omega, cutoff = draw(st.floats(0.5, 2.0)), draw(st.floats(1.5, 4.0))
        well = sd.TruncatedOscillator(omega, cutoff)
        ceiling = 0.5 * omega**2 * cutoff**2
    else:
        well = sd.HybridOscillator(draw(st.floats(0.5, 2.0)),
                                   draw(st.floats(0.5, 2.0)))
        ceiling = 6.0
    return sd.problem_for(well), np.linspace(0.05, 0.95 * ceiling, 6), near


def _with_near_level(problem, energies, near):
    """The energies, and two more within 1e-8 of a level among them."""
    where, offsets = near
    levels = sd.find_eigenvalues(problem, energies[0], energies[-1]).energies
    if not levels.size:
        return energies
    level = levels[min(int(where * levels.size), levels.size - 1)]
    return np.concatenate([energies, level + np.array(offsets)])


@settings(max_examples=12, deadline=None, database=None)
@given(case=smooth_problems())
def test_mesh_passes_match_the_plain_flow(case):
    problem, energies, near = case
    energies = _with_near_level(problem, energies, near)
    interval = sd.auto_interval(problem, energies.min(), energies.max(),
                                sd.SolveConfig())
    c = spectrum._matching_point(problem, interval)
    samples = sd.defect_angles(problem, energies, interval=interval, c=c)
    plain = [spectrum.DefectSample(E=E, gamma=g) for E, g in zip(
        energies, adaptive_gammas(problem, energies, interval, c))]
    for got, want in zip(samples, plain):
        tol = 1e-10 * max(1.0, abs(want.gamma))
        assert got.gamma == pytest.approx(want.gamma, rel=0.0, abs=tol)
        # an energy on a level puts Gamma on n pi, where either count holds
        if abs(math.remainder(want.gamma, math.pi)) > tol:
            assert got.n_below == want.n_below


@pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
def test_hydrogen_passes_match_a_tight_plain_flow():
    # the frozen scaled chart these passes replaced was 1.3e-11 off here
    problem = sd.problem_for(sd.Coulomb())
    energies = np.linspace(-0.6, -0.0045, 63)
    interval = sd.auto_interval(problem, -0.6, -0.0045, sd.SolveConfig())
    c = spectrum._matching_point(problem, interval)
    want = adaptive_gammas(problem, energies, interval, c,
                           sd.SolveConfig(rel_tol=1e-14))
    got = closed_gammas(problem, energies, interval, c)
    assert np.all(np.abs(got - want) <= 2e-12 * np.maximum(1.0, np.abs(want)))


def _solve_mesh(problem, energies, interval=None):
    """The interval, c, start angles and mesh a solve over the energies
    would use."""
    config = sd.SolveConfig()
    interval = interval or sd.auto_interval(problem, energies.min(),
                                            energies.max(), config)
    (a, b), c = interval, spectrum._matching_point(problem, interval)
    starts = spectrum._cue_angles(problem, energies, a, b)
    ends = [np.argmin(energies), np.argmax(energies)]
    mesh = pass_mesh(problem, energies[ends], starts[0][ends],
                     starts[1][ends], a, c, b, config)
    return (a, c, b), starts, mesh


@settings(max_examples=8, deadline=None, database=None)
@given(case=smooth_problems())
def test_the_angles_handed_on_do_not_depend_on_the_block(case):
    # one step a block, three, or every step of the half in one block
    problem, energies, near = case
    energies = _with_near_level(problem, energies, near)
    _, starts, mesh = _solve_mesh(problem, energies)
    potential = problem.effective_potential()
    most = max(steps.h.size for steps in mesh)
    carried = []
    for block in (1, 3, most):
        with mock.patch.object(angular, "_BLOCK", block * energies.size):
            carried.append([_carry(steps, energies, start, potential)
                            for steps, start in zip(mesh, starts)])
    for got in carried[:-1]:
        for alpha, want in zip(got, carried[-1]):
            assert np.array_equal(np.floor(alpha / math.pi),
                                  np.floor(want / math.pi))
            assert np.all(np.abs(alpha - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_stored_coefficients_match_their_steps():
    # the kinks at +-4 cut each half into pieces that pass_mesh joins, and
    # blocks of three steps straddle the joins
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0),
                             interval=(-7.0, 9.0))
    potential = problem.effective_potential()
    energies = np.array([0.3, 2.5, 7.9])
    (a, c, b), starts, mesh = _solve_mesh(problem, energies, (-7.0, 9.0))
    seen, leaves = [], angular._leaves

    def recording(steps, *args):
        seen.append(steps)
        return leaves(steps, *args)

    with mock.patch.object(angular, "_leaves", recording), \
            mock.patch.object(angular, "_BLOCK", 3 * energies.size):
        integrate_angles(problem, energies, *starts, a, c, b,
                         sd.SolveConfig(), mesh)
    assert len(seen) >= sum(steps.h.size for steps in mesh) // 3
    for steps in (*mesh, *seen):
        nodes = steps.t[:, None] + steps.h[:, None] * _GAUSS
        assert np.array_equal(steps.v, potential.evaluate(nodes))
        assert np.array_equal(np.stack(steps[3:]),
                              np.stack(_omega(steps.h, steps.v)))


def test_a_hydrogen_solve_stays_in_its_memory():
    # the traced peak of a solve grows with the tree's block, about 0.79 MB
    # at _BLOCK = 8,192: a wider block fails here before it moves the
    # process's peak RSS
    problem = sd.problem_for(sd.Coulomb())
    sd.find_eigenvalues(problem, -0.6, -0.0045)
    tracemalloc.start()
    try:
        sd.find_eigenvalues(problem, -0.6, -0.0045)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6


def test_a_mesh_for_another_interval_is_refused():
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    energies = np.array([0.3, 1.2, 6.0])
    (a, c, b), _, mesh = _solve_mesh(problem, energies, (-6.0, 6.0))
    assert c == 0.0
    for interval, at in (((-5.0, 6.0), c), ((-6.0, 6.5), c),
                         ((-6.0, 6.0), 1.0), ((-6.0, 6.0), -6.0)):
        with pytest.raises(DomainError, match="half of the mesh runs"):
            sd.defect_angles(problem, energies, interval=interval, c=at,
                             mesh=mesh)
    own = sd.defect_angles(problem, energies, interval=(a, b), c=c,
                           mesh=mesh)
    assert [s.n_below for s in own] == [0, 1, 6]


def test_an_empty_half_needs_c_at_its_end():
    # hydrogen puts c at a: the left half of its mesh is empty
    problem = sd.problem_for(sd.Coulomb())
    energies = np.array([-0.6, -0.1])
    (a, c, b), starts, mesh = _solve_mesh(problem, energies)
    assert c == a and mesh[0].h.size == 0
    config = sd.SolveConfig()
    integrate_angles(problem, energies, *starts, a, c, b, config, mesh)
    with pytest.raises(DomainError, match="left half"):
        integrate_angles(problem, energies, *starts, a, 2.0 * a, b, config,
                         mesh)
