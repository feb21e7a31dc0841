import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_defect as sd
from spectral_defect import angular, cues, oracle, spectrum
from spectral_defect.angular import (_amplitude_fun, _chart_fun,
                                     _integrate_vector, _rechart,
                                     integrate_angle_sampled,
                                     integrate_angles)
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


@pytest.mark.parametrize("well, e_min", [
    (STEPS, -1.99), (sd.SquareWell(-4.0, -1.0, 1.0), -3.99)],
    ids=["piecewise", "square"])
def test_constant_pieces_make_no_ivp_call(monkeypatch, well, e_min):
    nfev = _counting_ivp(monkeypatch)
    result = sd.find_eigenvalues(sd.problem_for(well), e_min, -0.01)
    assert result.eigenvalues
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


def adaptive_gammas(problem, energies, interval, c):
    """Gamma_c by the adaptive flow on every piece: the reference."""
    potential = problem.effective_potential()
    fun = _chart_fun(potential, energies, 1.0)
    (a, b), halves = interval, []
    for boundary_angle, s0 in ((cues.left_boundary_angle, a),
                               (cues.right_boundary_angle, b)):
        starts = [boundary_angle(problem, E, s0) for E in energies]
        y, _ = _integrate_vector(fun, s0, c, starts, sd.SolveConfig(),
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


@st.composite
def smooth_problems(draw):
    """An oscillator or a Coulomb well with l <= 2, and energies below its
    threshold that cover a few levels."""
    kind = draw(st.sampled_from(["truncated", "hybrid", "coulomb"]))
    if kind == "coulomb":
        charge, l = draw(st.floats(0.8, 2.0)), draw(st.integers(0, 2))
        top = -0.5 * charge**2 / (l + 1) ** 2
        return (sd.problem_for(sd.Coulomb(charge), l=l),
                np.linspace(1.15 * top, 0.21 * top, 6))
    if kind == "truncated":
        omega, cutoff = draw(st.floats(0.5, 2.0)), draw(st.floats(1.5, 4.0))
        well = sd.TruncatedOscillator(omega, cutoff)
        ceiling = 0.5 * omega**2 * cutoff**2
    else:
        well = sd.HybridOscillator(draw(st.floats(0.5, 2.0)),
                                   draw(st.floats(0.5, 2.0)))
        ceiling = 6.0
    return sd.problem_for(well), np.linspace(0.05, 0.95 * ceiling, 6)


@settings(max_examples=12, deadline=None, database=None)
@given(case=smooth_problems())
def test_chart_flow_matches_the_plain_flow(case):
    problem, energies = case
    interval = sd.auto_interval(problem, energies[0], energies[-1],
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


@pytest.mark.parametrize("problem, e_min, e_max, budget", [
    (sd.problem_for(sd.Coulomb(), l=1), -0.2, -0.01, 21_823),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), 1e-6, 8.0 - 2e-3,
     8_686)], ids=["hydrogen-l1", "oscillator-a4"])
def test_chart_solve_rhs_budget(monkeypatch, problem, e_min, e_max, budget):
    # 1.05 x the RHS evaluations measured with the chart (plain angle:
    # 30,700 and 22,600)
    nfev = _counting_ivp(monkeypatch)
    assert sd.find_eigenvalues(problem, e_min, e_max).eigenvalues
    assert sum(nfev) <= budget
