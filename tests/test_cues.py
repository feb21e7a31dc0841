import math

import numpy as np
import pytest

import spectral_defect as sd
from spectral_defect import cues
from spectral_defect.errors import DomainError, ThresholdError


# ---------------------------------------------------------------------------
# Printed low-order coefficients
# ---------------------------------------------------------------------------

def test_oscillator_first_coefficient():
    series = cues.oscillator_cue_coeffs(omega=1.3, E=0.7)
    assert series.coeffs[0] == pytest.approx(0.7 / 1.3 - 0.5)


def test_oscillator_third_coefficient():
    # a3 = a1 (a1 - 1) / (2 omega) follows from the recurrence by hand
    omega, E = 1.0, 0.7
    a1 = E / omega - 0.5
    series = cues.oscillator_cue_coeffs(omega, E)
    assert series.coeffs[2] == pytest.approx(a1 * (a1 - 1.0) / (2.0 * omega))


def test_oscillator_even_coefficients_vanish():
    """Only odd inverse powers survive, matching the odd exact cue."""
    series = cues.oscillator_cue_coeffs(omega=0.8, E=1.1, n_terms=12)
    assert np.allclose(series.coeffs[1::2], 0.0, atol=1e-15)
    assert any(abs(c) > 0 for c in series.coeffs[::2])


def test_coulomb_zero_leading_coefficients():
    for l in (0, 1, 3):
        E = -0.21
        series = cues.CoulombZeroSingularity(l).cue_series(E)
        assert series.coeffs[0] == pytest.approx(-1.0 / (l + 1))
        expect = -(2.0 * E * (l + 1) ** 2 + 1.0) / ((2 * l + 3) * (l + 1) ** 2)
        assert series.coeffs[1] == pytest.approx(expect)


def test_yukawa_zero_matches_coulomb_in_the_unscreened_limit():
    E, l = -0.4, 1
    coul = cues.CoulombZeroSingularity(l).cue_series(E, n_terms=8)
    yuk = cues.YukawaZeroSingularity(l, 1e-12).cue_series(E, n_terms=8)
    assert np.allclose(coul.coeffs, yuk.coeffs, atol=1e-9)


def test_yukawa_zero_second_coefficient():
    E, l, lam = -0.4, 0, 0.6
    series = cues.YukawaZeroSingularity(l, lam).cue_series(E)
    a0 = -1.0 / (l + 1)
    expect = (2.0 * lam - 2.0 * E - a0 * a0) / (2 * l + 3)
    assert series.coeffs[1] == pytest.approx(expect)


def test_quark_zero_departs_from_coulomb_at_cubic_order():
    E, l, omega = -0.1, 0, 0.05
    coul = cues.CoulombZeroSingularity(l).cue_series(E, n_terms=6)
    quark = cues.QuarkZeroSingularity(omega, l).cue_series(E, n_terms=6)
    assert np.allclose(coul.coeffs[:3], quark.coeffs[:3])
    diff = quark.coeffs[3] - coul.coeffs[3]
    assert diff == pytest.approx(omega * omega / (2 * l + 5))


def test_quark_infinity_second_coefficient():
    series = cues.QuarkTail(omega=0.3, l=0).cue_series(-0.2)
    assert series.coeffs[1] == pytest.approx(1.0 / 0.3)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def test_exact_oscillator_sentinel():
    """E = omega/2 terminates the series: the ground-state cue is exact."""
    series = cues.oscillator_cue_coeffs(omega=1.0, E=0.5)
    assert np.allclose(series.coeffs, 0.0, atol=1e-15)
    pure = sd.HybridOscillator(1.0, 1.0)
    for t in (3.0, 10.0, 25.0):
        assert cues.verify_cue_residual(series, pure, 0, 0.5, t) < 1e-13


def test_exact_coulomb_sentinel():
    # hydrogen ground state: f = 1/t - 1 solves the Riccati identity exactly
    series = cues.coulomb_infinity_cue_coeffs(l=0, E=-0.5)
    assert series.coeffs[0] == pytest.approx(1.0)
    assert np.allclose(series.coeffs[1:], 0.0, atol=1e-15)
    for t in (5.0, 40.0):
        assert cues.verify_cue_residual(series, sd.Coulomb(), 0, -0.5,
                                        t) < 1e-13


def test_coulomb_sentinels_scale_with_charge():
    # ground state of charge Z: psi = t exp(-Z t), so f = 1/t - Z at both ends
    Z = 2.0
    well = sd.Coulomb(charge=Z)
    left, right = well.tails(0)
    assert left == cues.CoulombZeroSingularity(0, Z)
    assert right == cues.CoulombTail(0, Z)
    far = right.cue_series(-Z * Z / 2.0)
    assert far.evaluate(30.0) == pytest.approx(-Z + 1.0 / 30.0, abs=1e-14)
    near = left.cue_series(-Z * Z / 2.0)
    assert near.evaluate(1e-3) == pytest.approx(1.0 / 1e-3 - Z)
    for series, t in ((far, 30.0), (near, 1e-2)):
        assert cues.verify_cue_residual(series, well, 0, -Z * Z / 2.0,
                                        t) < 1e-12


def test_coulomb_zero_sentinel_is_exact_too():
    series = cues.CoulombZeroSingularity(l=0).cue_series(-0.5)
    assert series.evaluate(1e-3) == pytest.approx(1.0 / 1e-3 - 1.0)
    assert cues.verify_cue_residual(series, sd.Coulomb(), 0, -0.5,
                                    0.01) < 1e-12


def test_residual_shrinks_with_distance():
    series = cues.oscillator_cue_coeffs(omega=1.0, E=0.7, n_terms=10)
    pure = sd.HybridOscillator(1.0, 1.0)
    res = [cues.verify_cue_residual(series, pure, 0, 0.7, t)
           for t in (4.0, 8.0, 16.0)]
    assert res[0] > res[1] > res[2]


def test_smallest_term_truncation():
    series = cues.oscillator_cue_coeffs(omega=1.0, E=0.7, n_terms=16)
    # far out, more terms help before the asymptotic turnover
    assert series.truncation_index(20.0) >= series.truncation_index(2.0)
    m = series.truncation_index(5.0)
    assert 1 <= m <= 16


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

def test_compact_support_angles_antisymmetric():
    problem = sd.problem_for(sd.SquareWell(-1.0, 0.0, 2.0))
    for E in (-0.9, -0.5, -1e-3):
        left = cues.left_boundary_angle(problem, E, 0.0)
        right = cues.right_boundary_angle(problem, E, 2.0)
        assert right == -left
        assert 0.0 < left < math.pi / 2
    assert cues.left_boundary_angle(problem, -0.5, 0.0) == pytest.approx(
        math.atan(1.0))


def test_compact_support_angles_reject_open_channel():
    step = sd.problem_for(sd.PiecewiseConstant((0.0,), (0.0, 1.0)))
    with pytest.raises(ThresholdError):
        cues.left_boundary_angle(step, 0.5, 0.0)
    assert cues.right_boundary_angle(step, 0.5, 0.0) == pytest.approx(
        -math.atan(1.0))
    with pytest.raises(ThresholdError):
        cues.right_boundary_angle(step, 1.0, 0.0)


def test_boundary_angle_dispatch():
    problem = sd.problem_for(sd.Coulomb())
    a, b = 1e-3, 60.0
    left = cues.left_boundary_angle(problem, -0.5, a)
    assert left == pytest.approx(math.atan(1.0 / a - 1.0))
    right = cues.right_boundary_angle(problem, -0.5, b)
    assert right == pytest.approx(math.atan(-1.0 + 1.0 / b))


def test_constant_tail_angles_are_exact():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    E = -0.5
    assert cues.left_boundary_angle(problem, E, -1.0) == pytest.approx(
        math.atan(1.0))
    assert cues.right_boundary_angle(problem, E, 1.0) == pytest.approx(
        -math.atan(1.0))
    with pytest.raises(ThresholdError):
        cues.left_boundary_angle(problem, 0.5, -1.0)


def test_domain_guards():
    with pytest.raises(DomainError):
        cues.oscillator_cue_coeffs(omega=-1.0, E=0.5)
    with pytest.raises(ThresholdError):
        cues.coulomb_infinity_cue_coeffs(l=0, E=0.1)
    with pytest.raises(DomainError):
        cues.QuarkTail(omega=0.0, l=0).cue_series(-0.5)
