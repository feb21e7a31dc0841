import math

import numpy as np
import pytest

import spectral_defect as sd
from spectral_defect.angular import (_angular_fun, _scaled_fun,
                                     integrate_angles)
from spectral_defect.errors import DomainError


FLAT = sd.PiecewiseConstant((0.0,), (0.0, 0.0))  # V identically zero


def flat_problem(a, b):
    return sd.problem_for(FLAT, interval=(a, b))


def terminal_angles(problem, energies, alpha_start, **kwargs):
    """(alphas, log_rhos or None) at b of the problem's interval."""
    a, b = problem.interval
    return integrate_angles(problem, energies, alpha_start, a, b,
                            sd.IntegratorConfig(), **kwargs)


def test_rate_is_minus_one_at_vertical_angles():
    # at alpha = pi/2 the potential term is multiplied by cos^2 = 0
    for v in (5.0, -3.0, 0.0):
        well = sd.PiecewiseConstant((0.0,), (v, v))
        fun = _angular_fun(well, [-1.0, 2.0, 0.0, -1.0], with_amplitude=False)
        alphas = np.array([math.pi / 2, math.pi / 2, -math.pi / 2,
                           -math.pi / 2])
        assert np.allclose(fun(0.3, alphas), -1.0, rtol=0.0, atol=1e-15)


def test_rate_at_horizontal_angle():
    well = sd.PiecewiseConstant((0.0,), (1.5, 1.5))
    fun = _angular_fun(well, [-0.5, 1.5], with_amplitude=False)
    assert fun(0.0, np.zeros(2)) == pytest.approx([4.0, 0.0])


def test_log_amplitude_rhs_vanishes_on_axes():
    fun = _angular_fun(FLAT, [-1.0, -1.0], with_amplitude=True)
    rates = fun(0.0, np.array([0.0, math.pi / 2, 0.0, 0.0]))
    assert rates[2] == 0.0
    assert rates[3] == pytest.approx(0.0, abs=1e-15)


def test_fixed_point_holds_for_flat_potential():
    """For V = 0 and E = -1/2 the angle arctan(1) is stationary."""
    E = -0.5
    alpha_star = math.atan(math.sqrt(2.0 * (0.0 - E)))
    fun = _angular_fun(FLAT, [E], with_amplitude=False)
    assert fun(1.0, np.array([alpha_star]))[0] == pytest.approx(
        0.0, abs=1e-15)
    alphas, _ = terminal_angles(flat_problem(-5.0, 5.0), [E], alpha_star)
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
    got = terminal_angles(problem, [E], alpha0)[0][0]
    assert got == pytest.approx(reference, abs=1e-9)


def test_terminal_angle_decreases_with_energy():
    # d(rhs)/dE = -2 cos^2(alpha) <= 0, so higher E lags behind
    well = sd.SquareWell(depth=-3.0, left=-1.5, right=1.5)
    problem = sd.problem_for(well, interval=(-1.5, 1.5))
    alphas = [terminal_angles(problem, [E], 1.0)[0][0]
              for E in (-2.5, -1.5, -0.5)]
    assert alphas[0] > alphas[1] > alphas[2]


def test_pi_shift_equivariance():
    well = sd.SquareWell(depth=-2.0, left=-1.0, right=1.0)
    problem = sd.problem_for(well, interval=(-2.0, 2.0))
    base = terminal_angles(problem, [-0.7], 0.4)[0][0]
    shifted = terminal_angles(problem, [-0.7], 0.4 + math.pi)[0][0]
    assert shifted - base == pytest.approx(math.pi, abs=1e-8)


def test_scaled_rhs_fixed_angles():
    """Free squeezing flow holds the diagonal directions +-pi/4."""
    fun = _scaled_fun(FLAT, [-0.5, -0.5, -2.0, -2.0])
    alphas = np.array([math.pi / 4, -math.pi / 4] * 2)
    assert np.allclose(fun(1.0, alphas), 0.0, rtol=0.0, atol=1e-14)
    with pytest.raises(DomainError):
        _scaled_fun(FLAT, [-0.5, 0.5])


def test_amplitude_recovers_flat_decay():
    # on a flat stretch the decaying solution is exp(-kt) with k=sqrt(-2E)
    E = -0.5
    k = math.sqrt(-2.0 * E)
    alpha_star = -math.atan(k)
    problem = flat_problem(0.0, 4.0)
    _, log_rhos = terminal_angles(problem, [E], alpha_star,
                                  with_amplitude=True)
    # rho^2 = psi^2 + psi'^2 scales like exp(-2kt) too
    assert log_rhos[0] == pytest.approx(-k * 4.0, abs=1e-9)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        sd.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        sd.IntegratorConfig(max_steps=0)
    with pytest.raises(ValueError, match="RK23, RK45, DOP853"):
        sd.IntegratorConfig(method="Radau")
