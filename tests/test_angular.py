import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import spectral_defect as sd
from spectral_defect import angular, cues, oracle, spectrum
from scipy.linalg import expm

from spectral_defect.angular import (_GAUSS, _carry, _chart_fun, _compose,
                                     _cuts, _inside, _integrate_vector,
                                     _leaves, _lift, _magnus, _omega,
                                     _product, _rechart, _span_steps,
                                     _steps,
                                     integrate_angle_sampled,
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


def amplitude_fun(potential, E):
    """(alpha, log rho)' of one energy: the adaptive flow that the sampler
    is checked against,

        d(log rho)/dt = [V - E + 1/2] sin(2 alpha)."""
    def fun(t, y):
        q = potential.evaluate(t) - E
        c, s = np.cos(y[0]), np.sin(y[0])
        return np.array([2.0 * q * c * c - s * s, (q + 0.5) * 2.0 * s * c])

    return fun


def adaptive_samples(problem, E, left, right, a, c, b, grid):
    """(alpha, log rho) on the sorted grid by the adaptive flow of each half
    from its own end, piece by piece, read from the dense output of the
    piece that holds each point (a point no piece holds keeps its start),
    and joined at c as the sampler joins: the reference."""
    potential = problem.effective_potential()
    fun, ends, samples = amplitude_fun(potential, E), [], []
    for start, s0, held in ((left, a, grid <= c), (right, b, grid > c)):
        y, points = np.array([start, 0.0]), grid[held]
        ys = np.repeat(y[:, None], points.size, axis=1)     # c at s0 keeps y
        cuts = _cuts(s0, c, potential.breakpoints())
        for p0, p1 in zip(cuts, cuts[1:]):
            if p0 == p1:
                continue
            sol = angular.solve_ivp(_inside(fun, p0, p1), (p0, p1), y,
                                    method="DOP853", rtol=1e-12, atol=1e-12,
                                    dense_output=True)
            inside = (min(p0, p1) <= points) & (points <= max(p0, p1))
            ys[:, inside] = sol.sol(points[inside])
            y = sol.y[:, -1]
        ends.append(y)
        samples.append(ys)
    shift = ends[0] - ends[1]
    shift[0] = math.pi * np.round(shift[0] / math.pi)
    return np.concatenate([samples[0], samples[1] + shift[:, None]], axis=1)


def test_log_amplitude_rhs_vanishes_on_axes():
    fun = amplitude_fun(FLAT, -1.0)
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
    # c = b, moved onto the support edge 1: the right half carries the same
    # decaying solution from 4 back to 1
    ts, _, log_rhos = integrate_angle_sampled(problem, E, alpha_star,
                                              alpha_star, 0.0, 4.0, 4.0,
                                              sd.SolveConfig(), t_eval=[4.0])
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
    # the transfer oracle still integrates across the jumps of STEPS, here
    # with every jump inside the interval
    problem = sd.problem_for(STEPS, interval=(-2.0, 2.0))
    calls = []
    evaluate = sd.PiecewiseConstant.evaluate

    def recording(self, t):
        calls.append(np.array(t, dtype=float))
        return evaluate(self, t)

    monkeypatch.setattr(sd.PiecewiseConstant, "evaluate", recording)
    oracle._propagate(problem.effective_potential(), np.array([-1.1, -1.1]),
                      -2.0, 2.0, np.eye(2), sd.SolveConfig())
    assert calls
    assert not np.isin(np.concatenate([t.ravel() for t in calls]),
                       STEPS.breakpoints()).any()


@pytest.mark.parametrize("well, interval, e_min, e_max", [
    (STEPS, (-3.0, 3.0), -1.99, -0.01),
    (sd.TruncatedOscillator(1.0, 2.0), (-4.0, 4.0), 0.1, 1.9)],
    ids=["piecewise", "truncated"])
def test_a_solve_reads_v_at_a_breakpoint_only_to_find_c(
        monkeypatch, well, interval, e_min, e_max):
    # the one search for the matching point reads V on its whole grid, the
    # interval settled on the support (+-1 on STEPS, +-2 on the
    # oscillator), ends and jumps included; every other call (a
    # closed-form piece on STEPS, a Magnus step across the kinks at +-2 of
    # the oscillator) stays off the breakpoints
    problem = sd.problem_for(well, interval=interval)
    grid = np.linspace(*cues.settled(problem, interval), spectrum._MATCH_GRID)
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


ONE_OF_EACH = pytest.mark.parametrize("problem, e_min, e_max", [
    (sd.problem_for(STEPS), -1.99, -0.01),
    (sd.problem_for(sd.SquareWell(-4.0, -1.0, 1.0)), -3.99, -0.01),
    (sd.problem_for(sd.Coulomb(), l=1), -0.2, -0.01),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), 1e-6, 8.0 - 2e-3),
    (sd.problem_for(sd.QuarkHybrid(math.sqrt(5e-5))), -0.52, 0.05)],
    ids=["piecewise", "square", "hydrogen-l1", "oscillator-a4", "quark"])


@ONE_OF_EACH
def test_no_pass_makes_an_ivp_call(monkeypatch, problem, e_min, e_max):
    # constant pieces go in closed form, every other family by Magnus steps
    nfev = _counting_ivp(monkeypatch)
    assert sd.find_eigenvalues(problem, e_min, e_max).eigenvalues
    assert nfev == []


@ONE_OF_EACH
def test_the_sampler_is_the_adaptive_flow(monkeypatch, problem, e_min,
                                          e_max):
    # psi from the pass mesh at E, with no ivp call, is psi from the
    # adaptive (alpha, log rho) flow within 1e-9, with the same nodes
    result = sd.find_eigenvalues(problem, e_min, e_max)
    ev = result.eigenvalues[min(1, len(result.eigenvalues) - 1)]
    a, b = result.problem.interval
    grid = np.linspace(a, b, 1001)
    nfev = _counting_ivp(monkeypatch)
    ef = sd.reconstruct_eigenfunction(result.problem, ev.energy, grid)
    assert nfev == []
    (left,), (right,) = spectrum._cue_angles(result.problem, [ev.energy], a,
                                             b)
    alpha, log_rho = adaptive_samples(
        result.problem, ev.energy, left, right, a,
        spectrum._matching_point(result.problem, (a, b)), b, grid)
    psi = np.exp(log_rho - np.max(log_rho)) * np.cos(alpha)
    psi /= math.sqrt(np.sum(np.diff(grid) * (psi[1:] ** 2 + psi[:-1] ** 2))
                     / 2.0)
    psi *= np.sign(np.dot(psi, ef.psi))
    assert np.max(np.abs(ef.psi - psi)) <= 1e-9
    assert ef.node_count() == ev.n


def test_a_step_too_wide_for_det_m_keeps_its_growth():
    # the barrier (-12, 12) at 400 grows by e^{682} at the levels in the
    # wells; on a 3-point grid the right half crosses it in two steps, each
    # scaled by an e^{-2w} that underflows det m, and log rho still reads
    # the growth a 2001-point grid reads.  The levels are doublets split
    # far below the rounding, so the growing part of the state that leaves
    # one well is rounding, and the two grids agree to 1e-3 only
    well = sd.PiecewiseConstant((-14.0, -12.0, 12.0, 14.0),
                                (0.0, -4.0, 400.0, -4.0, 0.0))
    result = sd.find_eigenvalues(sd.problem_for(well), -3.99, -0.01)
    assert len(result.eigenvalues) == 4
    for ev in result.eigenvalues:
        coarse, fine = (sd.reconstruct_eigenfunction(
            result.problem, ev.energy, np.linspace(-14.0, 14.0, n))
            for n in (3, 2001))
        assert np.all(np.isfinite(coarse.psi))
        assert coarse.alpha == pytest.approx(fine.alpha[::1000], rel=0.0,
                                             abs=1e-9)
        assert coarse.log_rho[2] < -600.0
        assert coarse.log_rho == pytest.approx(fine.log_rho[::1000],
                                               rel=1e-3)
        # the right half leaves the barrier at -12 on its growing direction
        # (1, -kb) and turns in the left well in closed form: a product of
        # leaves, rank one over the barrier, was 3e-4 rad off here
        k, kb = (math.sqrt(2.0 * abs(v - ev.energy)) for v in (-4.0, 400.0))
        well = (-14.0 < fine.t) & (fine.t < -12.0)
        h = fine.t[well] + 12.0
        turns = (fine.alpha[well] - np.arctan2(
            -k * np.sin(k * h) - kb * np.cos(k * h),
            np.cos(k * h) - kb / k * np.sin(k * h))) / math.pi
        assert np.max(np.abs(turns - np.round(turns))) <= 1e-9


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


def test_a_constant_tail_in_closed_form_is_the_flow_over_it():
    # on (-4, 2) the tails (-4, -1) and (1, 2) of STEPS are filled in closed
    # form; each half run by the adaptive flow from its own end agrees
    problem = sd.problem_for(STEPS, interval=(-4.0, 2.0))
    config, E, (a, c, b) = sd.SolveConfig(), -1.1, (-4.0, -0.5, 2.0)
    (left,), (right,) = spectrum._cue_angles(problem, [E], a, b)
    grid = np.linspace(a, b, 61)
    ts, alphas, log_rhos = integrate_angle_sampled(problem, E, left, right,
                                                   a, c, b, config, grid)
    want = adaptive_samples(problem, E, left, right, a, c, b, grid)
    assert np.array_equal(ts, grid)
    assert np.allclose(alphas, want[0], rtol=0.0, atol=1e-9)
    assert np.allclose(log_rhos, want[1], rtol=0.0, atol=1e-9)
    assert alphas[0] == left and log_rhos[0] == 0.0


def test_a_long_constant_tail_costs_the_sampler_nothing(monkeypatch):
    # the carry starts at the support edge -1, whatever a is: the same V
    # reads at a = -1e5 as at a = -100, and the same psi
    well = sd.SquareWell(-2.0, -1.0, 1.0)
    E = sd.find_eigenvalues(sd.problem_for(well), -1.9, -0.1).energies[1]
    grid = np.linspace(-1.0, 1.0, 201)
    reads, evaluate = [], sd.PiecewiseConstant.evaluate

    def reading(self, t):
        reads.append(np.size(t))
        return evaluate(self, t)

    monkeypatch.setattr(sd.PiecewiseConstant, "evaluate", reading)
    runs = []
    for a in (-100.0, -100000.0):
        reads.clear()
        ef = sd.reconstruct_eigenfunction(
            sd.problem_for(well, interval=(a, 1.0)), E, grid)
        runs.append((list(reads), ef.psi))
    (near, psi_near), (far, psi_far) = runs
    assert near == far and near
    assert np.max(np.abs(psi_far - psi_near)) <= 1e-10


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
    a, b = interval
    return np.array([s.gamma for s in sd.defect_angles(
        problem, energies, window=(a, c, b, None))])


def adaptive_gammas(problem, energies, interval, c, config=sd.SolveConfig()):
    """Gamma_c by the adaptive flow on every piece: the reference."""
    potential = problem.effective_potential()
    fun = _chart_fun(potential, energies, 1.0)
    (a, b), halves = interval, []
    for boundary_angle, s0 in ((cues.left_boundary_angle, a),
                               (cues.right_boundary_angle, b)):
        starts = [boundary_angle(problem, E, s0) for E in energies]
        y = _integrate_vector(fun, s0, c, starts, config,
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


@pytest.mark.parametrize("v", [-3.0, -1.0, 0.0])
@pytest.mark.parametrize("delta", [-20.0, -0.2, -1e-3, 0.05, 0.2, 20.0])
def test_a_step_well_pass_does_not_depend_on_its_batch(v, delta):
    # a step well's pass lifts each energy's angle over the exact leaves of
    # its pieces, built elementwise in blocks of _BLOCK step-energies: each
    # energy's angles are the same bits alone and in the batch, whatever the
    # block, on every branch of the leaf (q > 0, q < 0, q = 0).  Four
    # pieces of level v, |delta| wide, are crossed forward (delta > 0, the
    # left half) or backward (delta < 0, the right half)
    width = abs(delta)
    problem = sd.problem_for(
        sd.PiecewiseConstant((width, 2.0 * width, 3.0 * width), (v,) * 4),
        interval=(0.0, 4.0 * width))
    c = 4.0 * width if delta > 0 else 0.0
    energies = np.repeat([-3.5, -3.0, -1.0, -0.2, v], 3)
    alphas = np.random.default_rng(7).uniform(-20.0, 20.0, energies.size)

    def angles(i):
        return np.stack(integrate_angles(
            problem, energies[i], alphas[i], alphas[i], 0.0, c, 4.0 * width,
            sd.SolveConfig())).tobytes()

    for block in (1, 16, 8192):
        with mock.patch.object(angular, "_BLOCK", block):
            batch = np.stack(integrate_angles(
                problem, energies, alphas, alphas, 0.0, c, 4.0 * width,
                sd.SolveConfig()))
            for i in range(energies.size):
                assert batch[:, i:i + 1].tobytes() == angles(slice(i, i + 1))


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

def _series_exponential(h, q):
    """expm of the Magnus series cut after h^7 for q = c0 + c1 x + c2 x^2
    + c3 x^3 (x from the step's midpoint) through the values q at the four
    nodes, c0 saturated to c0 / (1 + (c0 h^2 / 10)^2) past the leading
    c0 h of s."""
    x = (_GAUSS - 0.5) * h
    c0, c1, c2, c3 = np.linalg.solve(np.vander(x, 4, increasing=True), q)
    u = c0 / (1.0 + (c0 * h * h / 10.0) ** 2)
    p = (-c1 * h**3 / 12.0 + h**5 * (u * c1 / 180.0 - c3 / 80.0)
         + h**7 * (13.0 * c1 * c2 / 15120.0 + u * c3 / 1680.0
                   - u * u * c1 / 1890.0))
    r = h - c2 * h**5 / 180.0 + h**7 * (c1 * c1 / 7560.0 + u * c2 / 1890.0)
    s = (c0 * h + c2 * h**3 / 12.0 + h**5 * (u * c2 / 180.0 - c1 * c1 / 120.0)
         + h**7 * (c2 * c2 / 3024.0 - c1 * c3 / 420.0 + u * c1 * c1 / 1080.0
                   - u * u * c2 / 1890.0))
    return expm(np.array([[p, r], [s, -p]]))


def _entries(m):
    """The 2x2 map of one step and energy, scaled by its largest entry."""
    m = np.reshape(m, (2, 2))
    return m / np.abs(m).max()


class _NodeValues:
    """A potential that reads the given V at the four nodes of a step."""

    def __init__(self, v):
        self.v = v

    def evaluate(self, t):
        return self.v


def _magnus_step(t, h, v, E):
    """(m, w): the Magnus map of one step at one energy and its scale, V =
    v at its nodes in the order of travel, its coefficients built as a mesh
    builds them."""
    step = _steps(_NodeValues(v), np.array([t]), np.array([h]))
    return angular._exponential(
        _magnus(step, 2.0 * (step.vm[:, None] - np.array([E]))))


def test_magnus_map_is_the_exponential_of_the_approximant():
    # closed form against matrix algebra and expm; backward is the inverse,
    # up to a positive factor: its adjugate (a map of rank one to the
    # rounding, a cubic far above E, has det 0 and no inverse to take)
    rng = np.random.default_rng(3)
    for _ in range(40):
        h, E = rng.uniform(-1.5, 1.5), rng.uniform(-5.0, 5.0)
        v = rng.uniform(-8.0, 8.0, 4)
        got, _ = _magnus_step(0.0, h, v, E)
        want = _series_exponential(h, 2.0 * (v - E))
        assert _entries(got) == pytest.approx(_entries(want), abs=1e-12)
        b00, b01, b10, b11 = np.ravel(_magnus_step(h, -h, v[::-1], E)[0])
        assert _entries([b11, -b01, -b10, b00]) == \
            pytest.approx(_entries(got), abs=1e-12)


@settings(max_examples=200, deadline=None, database=None)
@given(v=st.floats(-1e4, 1e4), width=st.floats(1e-12, 40.0),
       sign=st.sampled_from([-1.0, 1.0]),
       energies=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=4))
@example(v=-0.0, width=1.0, sign=-1.0, energies=[0.0])
def test_a_constant_step_is_the_plateau_map_bit_for_bit(v, width, sign,
                                                       energies):
    # on a constant V the stored coefficients give p = 0, r = h and
    # s = q h exactly, and a leaf's map is the closed form of that Omega
    # to the last bit, whatever the width, down to 1e-12.  The leaf forms
    # s as (Horner sum + q) h, the sum of zero coefficients +0.0, so the
    # closed form does too: at q = -0.0 and h < 0 its s is -0.0, where
    # h q would give +0.0
    h = sign * width
    energies = np.array(energies)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        step = _steps(_NodeValues(np.full(4, v)), np.zeros(1), np.array([h]))
        m, _, _ = _leaves(step, energies)
        q = (v - energies) * 2.0
        want, _ = angular._exponential(np.stack(
            [np.zeros_like(q), np.full_like(q, h), (0.0 + q) * h,
             np.empty_like(q)]))
    assert step.vm[0] == v and step.r0[0] == h
    assert not np.any(np.stack([step.p0, step.p1, step.p2, step.r1,
                                step.s0, step.s1, step.s2]))
    np.negative(want, out=want, where=want[0] < 0)
    assert m[..., 0].tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1e-12, 1e-9, 1e-6])
def test_a_narrow_step_of_a_smooth_well_raises_no_warning(width):
    # the cubic is built from node sums and differences, and no power of
    # h divides them: steps this narrow near the Coulomb singularity,
    # where V is some -1e2, build and map to the identity warning-free
    potential = sd.problem_for(sd.Coulomb(), l=1).effective_potential()
    t = np.array([0.01, 0.5, 3.0])
    energies = np.array([-0.6, -0.01, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sign in (-1.0, 1.0):
            h = np.full(3, sign * width)
            m, n, _ = _leaves(_steps(potential, t, h), energies)
            assert not n.any()
            assert np.abs(m[0] - 1.0).max() < 1e-3
            assert np.abs(m[3] - 1.0).max() < 1e-3


def test_one_step_errs_as_the_ninth_power_of_its_width():
    # against 64 sub-steps, a step's error falls about 2^9 per halving of
    # h (2^8 to 2^10 here; a sixth-order step falls about 2^7): an
    # eighth-order method
    potential = sd.problem_for(sd.Coulomb(), l=1).effective_potential()
    energies, start = np.array([-0.2, -0.05, -0.01]), np.zeros(3)
    errors = []
    for h in (2.0, 1.0, 0.5, 0.25):
        one = _carry(_steps(potential, np.array([3.0]), np.array([h])),
                     energies, start)
        points = np.linspace(3.0, 3.0 + h, 65)
        fine = _carry(_steps(potential, points[:-1], np.diff(points)),
                      energies, start)
        errors.append(np.abs(one - fine))
    errors = np.array(errors)
    assert errors.min() > 1e-15     # above the rounding
    ratios = errors[:-1] / errors[1:]
    assert np.all((2.0**8 < ratios) & (ratios < 2.0**10)), ratios


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
    # k pi + pi/2 (where the reading of x changes branch) stays there; det
    # is read from the entries, where it rounds to 0 or below taken as +0
    m = np.array(m, dtype=float).ravel()
    phi = math.atan2(m[2], m[0]) + 4.0 * math.pi
    det = max(m[0] * m[3] - m[1] * m[2], 0.0)
    for k in range(-30, 31):
        for x in (k * math.pi, k * math.pi + math.pi / 2):
            xs = np.array([np.nextafter(x, -np.inf), x,
                           np.nextafter(x, np.inf)])
            fs = _lift(m, phi, xs, det)
            assert np.ptp(fs) <= 1e-12 * max(1.0, abs(x))
        assert _lift(m, phi, k * math.pi, det) == pytest.approx(
            k * math.pi + phi, rel=0.0, abs=1e-12 * max(1.0, abs(k)))
        assert _lift(m, phi, k * math.pi + 1.0, det) == pytest.approx(
            _lift(m, phi, 1.0, det) + k * math.pi, rel=0.0,
            abs=1e-12 * max(1.0, abs(k)))


def _phi(m, n, d):
    """phi = f(0) of the node (m, n, d): n pi + theta(m)."""
    return math.pi * n + np.arctan2(m[2], m[0])


def _round_product(m, n, d):
    """The pairwise tree by rounds that `_product` replaces: each round
    composes neighbouring nodes, and an odd node out joins the next."""
    node = m, n, d
    while node[1].shape[-1] > 1:
        k = node[1].shape[-1] // 2 * 2
        paired = _compose(tuple(x[..., 1:k:2] for x in node),
                          tuple(x[..., :k:2] for x in node))
        # an odd step out joins the next round
        node = tuple(np.concatenate([p, x[..., k:]], axis=-1)
                     for p, x in zip(paired, node))
    return tuple(x[..., 0] for x in node)


def _random_nodes(rng, energies, width):
    """Oriented random maps, integer half-turn counts and the maps'
    determinants, energy-major."""
    m = rng.standard_normal((4, energies, width))
    m *= np.where(m[0] < 0, -1.0, 1.0)
    n = rng.integers(-9, 10, (energies, width)).astype(float)
    return m, n, m[0] * m[3] - m[1] * m[2]


@settings(max_examples=150, deadline=None, database=None)
@given(width=st.integers(1, 4097), energies=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(width=1, energies=1, seed=0)
@example(width=4095, energies=2, seed=1)
@example(width=4096, energies=1, seed=2)
@example(width=4097, energies=3, seed=3)
def test_a_blocks_product_is_the_tree_by_rounds(width, energies, seed):
    # the runs of the block's binary digits, each one tree, composed from
    # the last: the pairs of the tree by rounds, to the last bit
    m, n, d = _random_nodes(np.random.default_rng(seed), energies, width)
    got, want = _product(m, n, d), _round_product(m, n, d)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_tree_product_equals_the_left_to_right_fold():
    # the left half of the 72-level well turns through some 36 pi at the
    # top energies; 1,001 steps leave an odd step out of most rounds
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 12.0))
    potential = problem.effective_potential()
    energies = np.array([0.2, 30.0, 60.0, 71.5])
    points = np.linspace(-14.0, 0.0, 1002)
    m, n, w = _leaves(_steps(potential, points[:-1], np.diff(points)),
                      energies)
    node = m, n, np.exp(-2.0 * w)
    tree = _product(*node)
    fold = tuple(x[..., 0] for x in node)
    for j in range(1, n.shape[-1]):
        fold = _compose(tuple(x[..., j] for x in node), fold)
    tree_phi, fold_phi = _phi(*tree), _phi(*fold)
    assert np.array_equal(np.floor(tree_phi / math.pi),
                          np.floor(fold_phi / math.pi))
    assert np.all(np.abs(tree_phi - fold_phi)
                  <= 1e-12 * np.maximum(1.0, np.abs(fold_phi)))
    assert tree_phi.min() < -30.0 * math.pi
    alphas = np.array([0.3, -1.2, 2.0, 0.0])
    assert _lift(tree[0], tree_phi, alphas, tree[2]) == pytest.approx(
        _lift(fold[0], fold_phi, alphas, fold[2]), rel=0.0, abs=1e-10)


def test_a_leaf_whose_correction_is_large_raises():
    # at E = 70 the plateau angle of the step [4, 7] of t^2 / 2 is about
    # pi/2 off the Magnus map mod pi: corrected to it, the leaf would land
    # a branch away from the flow, so it is refused
    well = sd.TruncatedOscillator(1.0, 12.0)
    step = _steps(well, np.array([4.0]), np.array([3.0]))
    with pytest.raises(sd.IntegrationError, match="t = 4 is too wide") \
            as caught:
        _leaves(step, np.array([70.0]))
    assert caught.value.t_reached == 4.0


def test_a_coarse_mesh_handed_to_a_pass_raises():
    # the left half is resolved but for its last step, [4, 7] at E = 70:
    # the pass names that step instead of repairing it
    well = sd.TruncatedOscillator(1.0, 12.0)
    problem = sd.problem_for(well, interval=(-14.0, 14.0))
    energies = np.array([20.0, 70.0])
    starts = spectrum._cue_angles(problem, energies, -14.0, 14.0)

    def steps(*pieces):
        parts = [_span_steps(problem, well, *piece) for piece in pieces]
        return angular._Steps(*map(np.concatenate, zip(*parts)))

    mesh = (steps((-14.0, -12.0, 64), (-12.0, 4.0, 1024), (4.0, 7.0, 1)),
            steps((14.0, 12.0, 64), (12.0, 7.0, 512)))
    with pytest.raises(sd.IntegrationError, match="t = 4 is too wide") \
            as caught:
        integrate_angles(problem, energies, *starts, -14.0, 7.0, 14.0,
                         sd.SolveConfig(), mesh)
    assert caught.value.t_reached == 4.0


def _counting_carry(carried):
    """angular._carry, appending to carried the step count of each count
    it is handed and whether it raised."""
    carry = angular._carry

    def recording(steps, *args):
        try:
            alpha = carry(steps, *args)
        except sd.IntegrationError:
            carried.append((steps.h.size, True))
            raise
        carried.append((steps.h.size, False))
        return alpha

    return recording


def test_the_doubling_resolves_a_step_the_leaves_refuse():
    # the piece [4, 7] at E = 70 starts as the one step that _leaves
    # refuses: the first round flags that count too wide, so it is
    # unsettled and carried by no one; the doubling goes on from 2 steps,
    # lifted by the round (the mesh of a carry per count 1, 2, 4, ...), to
    # the angle of a fine carry
    well = sd.TruncatedOscillator(1.0, 12.0)
    problem = sd.problem_for(well)
    energies, start, rounds, carried = np.array([70.0]), np.zeros(1), [], []
    first_round = angular._first_round

    def recording(*args):
        for piece in first_round(*args):
            rounds.append(piece)
            yield piece

    with mock.patch.object(angular, "_PIECE_STEPS", 1):
        with mock.patch.object(angular, "_first_round", recording), \
                mock.patch.object(angular, "_carry",
                                  _counting_carry(carried)):
            left, right = pass_mesh(problem, energies, start, start, 4.0,
                                    7.0, 7.0, sd.SolveConfig())
        want, _ = _one_carry_per_count(problem, energies, start, start, 4.0,
                                       7.0, 7.0, sd.SolveConfig())
    (_, m, _, _, wide), = rounds
    assert m.shape[-1] == wide.size == 9        # the counts 1, 2, ..., 256
    assert wide[:3].tolist() == [True, False, False]
    assert carried == []
    assert right.h.size == 0 and left.h.size > 4
    for x, y in zip(left, want):
        assert x.tobytes() == y.tobytes()
    fine = _carry(_span_steps(problem, well, 4.0, 7.0, 4096), energies, start)
    assert _carry(left, energies, start) == pytest.approx(fine, rel=1e-12)


def _node(m, n, d=1.0):
    """The node of one 2x2 map (rows m00 m01, m10 m11), n half turns and
    its determinant d, as a tree holds it: one column, entries on the first
    axis."""
    return (np.reshape(np.array(m, dtype=float), (4, 1)),
            np.array([float(n)]), np.array([d]))


@st.composite
def magnus_pairs(draw):
    """Two oriented Magnus maps of steps taken in one direction, as a pass
    takes them, each with a count of half turns.  One step in three is
    long and forbidden, its map of rank one to the rounding."""
    sign = draw(st.sampled_from([-1.0, 1.0]))
    nodes = []
    for _ in range(2):
        v = np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=4,
                                   max_size=4)))
        h, E = draw(st.floats(0.0, 3.0)), draw(st.floats(-8.0, 8.0))
        if draw(st.integers(0, 2)) == 0:
            h, E = draw(st.floats(5.0, 40.0)), v.min() - 20.0
        m, w = _magnus_step(0.0, sign * h, v, E)
        m = m[:, 0, 0]
        nodes.append(_node(-m if m[0] < 0 else m, draw(st.integers(-40, 40)),
                           math.exp(-2.0 * w[0, 0])))
    return nodes


@settings(max_examples=300, deadline=None, database=None)
@given(pair=magnus_pairs())
def test_composing_two_leaves_lifts_the_earlier_angle(pair):
    # phi of (B, n_B) after (A, n_A) is f_B(phi_A), with no tolerance
    # taken on which side of the vertical B A's first column falls.  Where
    # B A e(0) cancels to the rounding (A e(0) on B's null line) neither
    # form can tell its direction, and a pass never puts it there
    later, earlier = pair
    (b, _, _), (a, _, _) = pair
    column = np.hypot(b[0] * a[0] + b[1] * a[2], b[2] * a[0] + b[3] * a[2])
    assume(column[0] > 1e-8 * np.abs(b).max() * np.hypot(a[0], a[2])[0])
    phi = _phi(*_compose(later, earlier))
    want = _lift(later[0], _phi(*later), _phi(*earlier), later[2])
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
                   for (b, _, _), (a, _, _) in pairs]
        assert [(x[0], math.copysign(1.0, x[0]), y[0]) for x, y in columns] \
            == [(x, math.copysign(1.0, x), side) for x in edges]
        want = (n_a + n_b) * math.pi + side * math.pi / 2
        for later, earlier in pairs:
            phi = _phi(*_compose(later, earlier))[0]
            assert phi == pytest.approx(want, rel=0.0, abs=4e-16 * abs(want))
            assert phi == pytest.approx(
                _lift(later[0], _phi(*later), _phi(*earlier), later[2])[0],
                rel=0.0, abs=4e-16 * abs(want))


def test_a_step_no_doubling_resolves_raises_at_the_cap():
    # at the lowest float E, q = 2 (V - E) overflows to inf and Omega is
    # not finite on any width: the doubling of the piece stops at its cap
    # and raises there; every count is too wide, so the first round's
    # (16 ... 256) are left unsettled, and each later one is handed to
    # _carry, which refuses it
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0))
    carried = []
    with mock.patch.object(angular, "_carry", _counting_carry(carried)), \
            pytest.raises(sd.IntegrationError, match="t = -2 is too wide"), \
            np.errstate(over="ignore", invalid="ignore"):
        pass_mesh(problem, [-np.finfo(float).max], [0.0], [0.0], -2.0, -1.5,
                  -1.5, sd.SolveConfig())
    assert carried == [(angular._PIECE_STEPS << k, True)
                       for k in range(5, 11)]
    assert carried[-1][0] == angular._MAX_PIECE_STEPS


def test_a_first_round_count_at_the_cap_raises_naming_its_step():
    # with the cap inside the first round, the count there is the last
    # one: too wide, it is carried, and the carry names its step
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0))
    carried = []
    with mock.patch.object(angular, "_MAX_PIECE_STEPS", 64), \
            mock.patch.object(angular, "_carry", _counting_carry(carried)), \
            pytest.raises(sd.IntegrationError, match="t = -2 is too wide"), \
            np.errstate(over="ignore", invalid="ignore"):
        pass_mesh(problem, [-np.finfo(float).max], [0.0], [0.0], -2.0, -1.5,
                  -1.5, sd.SolveConfig())
    assert carried == [(64, True)]


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


@pytest.mark.parametrize("well", [STEPS, Shifted(STEPS, 5.0)],
                         ids=["steps", "shifted"])
def test_a_step_well_mesh_is_its_pieces(well):
    # one step a piece in the order of travel, cut at the jumps: V at the
    # piece's midpoint as vm (what the closed form reads) and the signed
    # width as h; the two energies' starts do not matter
    problem = sd.problem_for(well, interval=(-3.0, 3.0))
    mesh = pass_mesh(problem, [-1.5, -0.3], [0.7, -0.4], 0.0, -3.0, -0.5,
                     3.0, sd.SolveConfig())
    for steps, ends in zip(mesh, ([-3.0, -1.0, -0.5], [3.0, 1.0, 0.0, -0.5])):
        ends = np.array(ends)
        assert steps.h.size == ends.size - 1
        assert steps.t.tobytes() == ends[:-1].tobytes()
        assert steps.h.tobytes() == np.diff(ends).tobytes()
        assert steps.vm.tobytes() == np.array(
            [well.evaluate(0.5 * (p0 + p1))
             for p0, p1 in zip(ends, ends[1:])]).tobytes()


def _step_well(pieces, seed):
    """A random step well of `pieces` pieces on (-20, 20), zero outside."""
    rng = np.random.default_rng(seed)
    return sd.PiecewiseConstant(
        tuple(np.sort(rng.uniform(-20.0, 20.0, pieces + 1))),
        (0.0, *rng.uniform(-3.0, 0.0, pieces), 0.0))


@pytest.mark.parametrize("pieces", [64, 1024])
def test_a_step_well_solve_reads_v_twice_and_steps_once_a_piece(monkeypatch,
                                                                 pieces):
    # the work of a step-well solve scales with its pieces only through
    # the closed-form steps: V is read once to find c and once for the
    # mesh, and each pass lifts the angles over each piece of each half in
    # one step
    well = _step_well(pieces, seed=pieces)
    reads, steps, passes = [], [0], []
    evaluate = sd.PiecewiseConstant.evaluate

    def reading(self, t):
        reads.append(np.size(t))
        return evaluate(self, t)

    def stepping(*args):
        steps[0] += 1
        return _lift(*args)

    def counted(problem, energies, lefts, rights, a, c, b, config, mesh):
        before = steps[0]
        angles = integrate_angles(problem, energies, lefts, rights, a, c, b,
                                  config, mesh)
        # every breakpoint is a piece's end, and c cuts one piece in two
        passes.append((steps[0] - before,
                       len(set(well.breakpoints()) | {c}) - 1))
        return angles

    monkeypatch.setattr(sd.PiecewiseConstant, "evaluate", reading)
    monkeypatch.setattr(angular, "_lift", stepping)
    monkeypatch.setattr(spectrum, "integrate_angles", counted)
    assert sd.find_eigenvalues(sd.problem_for(well), -2.9, -0.05).eigenvalues
    assert len(passes) >= 3
    assert all(made == want for made, want in passes)
    # the mesh reads V once a piece
    assert reads == [spectrum._MATCH_GRID, passes[0][1]]


def test_a_step_well_mesh_that_stops_short_of_c_is_refused():
    problem = sd.problem_for(STEPS, interval=(-3.0, 3.0))
    energies, starts = np.array([-1.5, -0.3]), ([0.7, -0.4], [0.1, 0.2])
    config = sd.SolveConfig()
    mesh = pass_mesh(problem, energies, *starts, -3.0, -0.5, 3.0, config)
    with pytest.raises(DomainError, match="left half of the mesh runs"):
        integrate_angles(problem, energies, *starts, -3.0, 0.5, 3.0, config,
                         mesh)
    alpha_l, alpha_r = integrate_angles(problem, energies, *starts, -3.0,
                                        -0.5, 3.0, config, mesh)
    want = integrate_angles(problem, energies, *starts, -3.0, -0.5, 3.0,
                            config)
    assert alpha_l.tobytes() == want[0].tobytes()
    assert alpha_r.tobytes() == want[1].tobytes()


def _one_carry_per_count(problem, energies, left_starts, right_starts, a, c,
                         b, config):
    """The mesh of pass_mesh's doubling, each count of each piece built
    and carried on its own (one `_carry` per count)."""
    potential = problem.effective_potential()
    breakpoints = potential.breakpoints()
    halves = [[(p0, p1) for p0, p1 in zip(cuts, cuts[1:]) if p0 != p1]
              for cuts in (angular._cuts(a, c, breakpoints),
                           angular._cuts(b, c, breakpoints))]
    tol = 255.0 * config.rel_tol / max(1, sum(map(len, halves)))
    mesh = []
    for pieces, start in zip(halves, (left_starts, right_starts)):
        alpha = np.broadcast_to(np.asarray(start, dtype=float),
                                energies.shape)
        parts = [angular._NO_STEPS]
        for p0, p1 in pieces:
            n, coarse = angular._PIECE_STEPS, None
            while True:
                steps = _span_steps(problem, potential, p0, p1, n)
                try:
                    fine = _carry(steps, energies, alpha)
                except sd.IntegrationError:
                    if n >= angular._MAX_PIECE_STEPS:
                        raise
                else:
                    settled = coarse is not None and np.all(
                        np.abs(fine - coarse)
                        / np.maximum(1.0, np.abs(fine)) <= tol)
                    if settled or n >= angular._MAX_PIECE_STEPS:
                        break
                    coarse = fine
                n *= 2
            parts.append(steps)
            alpha = fine
        mesh.append(angular._Steps(*map(np.concatenate, zip(*parts))))
    return tuple(mesh)


def _tabulated_41():
    """41 samples of V = -2 e^{-t^2} (1 + 0.3 sin 3t) on [-3, 3], its ends
    0: a well of 41 pieces, more than one batch of the first round holds
    (8 at two energies)."""
    t = np.linspace(-3.0, 3.0, 41)
    v = -2.0 * np.exp(-t * t) * (1.0 + 0.3 * np.sin(3.0 * t))
    v[[0, -1]] = 0.0
    return sd.Tabulated(tuple(t), tuple(v))


@pytest.mark.parametrize("problem, energies, interval", [
    (sd.problem_for(sd.Coulomb(), l=0), [-0.6, -0.0045], None),
    (sd.problem_for(sd.Coulomb(), l=1), [-0.2, -0.01], None),
    (sd.problem_for(sd.Coulomb(), l=2), [-0.1, -0.01], None),
    (sd.problem_for(sd.HybridOscillator(0.5, 1.0)), [1e-6, 5.0], None),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), [1e-6, 7.998],
     (-1004.0, 1004.0)),
    (sd.problem_for(_tabulated_41()), [-2.0, -0.05], None)],
    ids=["hydrogen-l0", "hydrogen-l1", "hydrogen-l2", "hybrid",
         "oscillator-a4-wide", "tabulated-41"])
def test_the_batched_doubling_builds_the_mesh_of_one_carry_per_count(
        problem, energies, interval):
    # the first round of every piece of both halves is built in one batch;
    # the mesh is the one a carry per count builds, to the last bit
    energies = np.array(energies)
    (a, c, b), starts, mesh = _solve_mesh(problem, energies, interval)
    want = _one_carry_per_count(problem, energies, *starts, a, c, b,
                                sd.SolveConfig())
    for got, ref in zip(mesh, want):
        assert got.h.size == ref.h.size
        for x, y in zip(got, ref):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    if interval:    # the kinks at +-4 cut each half into two pieces
        assert all(np.sum(steps.t == cut) == 1
                   for steps, cut in zip(mesh, (-4.0, 4.0)))


@settings(max_examples=200, deadline=None, database=None)
@given(powers=st.lists(st.integers(0, 7), min_size=1, max_size=8),
       energies=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_one_tree_over_runs_gives_each_runs_product(powers, energies, seed):
    # runs of power-of-two lengths, longest first, side by side on the
    # last axis: each root is its run's own product, to the last bit
    runs = [2**k for k in sorted(powers, reverse=True)]
    node = _random_nodes(np.random.default_rng(seed), energies, sum(runs))
    roots = angular._roots(*node, runs)
    ends = np.cumsum(runs)
    for r, (start, end) in enumerate(zip(ends - runs, ends)):
        want = _round_product(*(x[..., start:end] for x in node))
        for root, x in zip(roots, want):
            assert root[..., r].tobytes() == x.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(half_line=st.booleans(), ends=st.tuples(
           st.floats(1e-9, 1e4), st.floats(1e-9, 1e4), st.booleans()),
       coarse=st.integers(0, 8), finer=st.integers(1, 6))
def test_strided_points_are_those_of_the_coarser_count(half_line, ends,
                                                       coarse, finer):
    # every (finest / n)-th point of the finest count's span is the span
    # of n steps itself, bit for bit, geometric or uniform, either way
    p0, p1, negative = ends
    assume(p0 != p1)
    if half_line:
        problem = sd.problem_for(sd.Coulomb(), l=0)
    else:
        problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
        p0 = -p0 if negative else p0
    n = 2**coarse
    finest = n * 2**finer
    points = angular._span_points(problem, p0, p1, finest + 1)
    want = angular._span_points(problem, p0, p1, n + 1)
    assert points[::finest // n].tobytes() == want.tobytes()


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
                            energies, start)
            fine = _carry(tail, energies, start)
            assert np.all(np.abs(fine - coarse)
                          <= tol * np.maximum(1.0, np.abs(fine)))


@pytest.mark.parametrize("problem, energies, half", [
    (sd.problem_for(sd.Coulomb(), l=1), [-0.2, -0.01], 1),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), [1e-6, 7.998], 0)],
    ids=["hydrogen-l1-right", "oscillator-a4-left"])
def test_the_doubling_moves_shrink_as_an_eighth_order_method(problem,
                                                             energies, half):
    # pass_mesh settles a piece at a move of 255 times its tolerance
    # because the move between n and 2n steps is 2^8 - 1 times the error
    # at 2n: on the smooth piece that ends the half, from 32 steps on, each
    # doubling shrinks the move 200-320x until it reaches the rounding
    # (below 1e-14); the constant tail before it is exact at any count
    potential = problem.effective_potential()
    energies = np.array(energies)
    (a, c, b), starts, _ = _solve_mesh(problem, energies)
    cuts = angular._cuts((a, b)[half], c, potential.breakpoints())
    alpha = starts[half]
    for p0, p1 in zip(cuts[:-2], cuts[1:-1]):
        alpha = _carry(_span_steps(problem, potential, p0, p1, 16), energies,
                       alpha)
    angles = [_carry(_span_steps(problem, potential, cuts[-2], c, n),
                     energies, alpha) for n in 32 * 2 ** np.arange(8)]
    moves = np.array([np.max(np.abs(fine - coarse)
                             / np.maximum(1.0, np.abs(fine)))
                      for coarse, fine in zip(angles, angles[1:])])
    resolved = moves[1:] > 1e-14
    ratios = moves[:-1][resolved] / moves[1:][resolved]
    assert resolved.sum() >= 2 and moves[-1] < 1e-14
    assert np.all((200.0 < ratios) & (ratios < 320.0)), ratios


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
    a, c, b, _ = spectrum._window(problem, energies.min(), energies.max(),
                                  sd.SolveConfig())
    samples = sd.defect_angles(problem, energies)
    plain = [spectrum.DefectSample(E=E, gamma=g) for E, g in zip(
        energies, adaptive_gammas(problem, energies, (a, b), c))]
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
    mesh = pass_mesh(problem, energies, *starts, a, c, b, config)
    return (a, c, b), starts, mesh


@settings(max_examples=8, deadline=None, database=None)
@given(case=smooth_problems())
def test_the_angles_handed_on_do_not_depend_on_the_block(case):
    # one step a block, three, or every step of the half in one block
    problem, energies, near = case
    energies = _with_near_level(problem, energies, near)
    _, starts, mesh = _solve_mesh(problem, energies)
    most = max(steps.h.size for steps in mesh)
    carried = []
    for block in (1, 3, most):
        with mock.patch.object(angular, "_BLOCK", block * energies.size):
            carried.append([_carry(steps, energies, start)
                            for steps, start in zip(mesh, starts)])
    for got in carried[:-1]:
        for alpha, want in zip(got, carried[-1]):
            assert np.array_equal(np.floor(alpha / math.pi),
                                  np.floor(want / math.pi))
            assert np.all(np.abs(alpha - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_a_block_below_two_first_counts_still_solves():
    # at _BLOCK = 16 not even the first count of two energies fits: the
    # first round keeps it and batches one piece a time, and the levels
    # are the default's
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    want = sd.find_eigenvalues(problem, 1e-6, 7.998)
    with mock.patch.object(angular, "_BLOCK", 16):
        got = sd.find_eigenvalues(problem, 1e-6, 7.998)
    assert len(got.eigenvalues) == len(want.eigenvalues) == 8
    assert np.all(np.abs(got.energies - want.energies)
                  <= want.config.e_tol)


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
        assert np.array_equal(np.stack(steps[2:]), np.stack(
            _omega(steps.h, potential.evaluate(nodes))))


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
            sd.defect_angles(problem, energies,
                             window=(interval[0], at, interval[1], mesh))
    own = sd.defect_angles(problem, energies, window=(a, c, b, mesh))
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
