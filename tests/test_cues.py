import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_defect as sd
from spectral_defect import cues, spectrum
from spectral_defect.errors import (DomainError, MonotonicityError,
                                    ThresholdError)


# ---------------------------------------------------------------------------
# Printed low-order coefficients
# ---------------------------------------------------------------------------

def test_oscillator_first_coefficient():
    series = cues.OscillatorTail(1.3).cue_series(0.7)
    assert series.coeffs[0] == pytest.approx(0.7 / 1.3 - 0.5)


def test_oscillator_third_coefficient():
    # a3 = a1 (a1 - 1) / (2 omega) follows from the recurrence by hand
    omega, E = 1.0, 0.7
    a1 = E / omega - 0.5
    series = cues.OscillatorTail(omega).cue_series(E)
    assert series.coeffs[2] == pytest.approx(a1 * (a1 - 1.0) / (2.0 * omega))


def test_oscillator_even_coefficients_vanish():
    """Only odd inverse powers survive, matching the odd exact cue."""
    series = cues.OscillatorTail(0.8).cue_series(1.1, 12)
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
    quark = cues.CoulombZeroSingularity(l, 1.0, omega).cue_series(E,
                                                                  n_terms=6)
    assert np.allclose(coul.coeffs[:3], quark.coeffs[:3])
    diff = quark.coeffs[3] - coul.coeffs[3]
    assert diff == pytest.approx(omega * omega / (2 * l + 5))


def test_quark_infinity_second_coefficient():
    series = cues.OscillatorTail(omega=0.3, l=0, charge=1.0).cue_series(-0.2)
    assert series.coeffs[1] == pytest.approx(1.0 / 0.3)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def test_exact_oscillator_sentinel():
    """E = omega/2 terminates the series: the ground-state cue is exact."""
    series = cues.OscillatorTail(1.0).cue_series(0.5)
    assert np.allclose(series.coeffs, 0.0, atol=1e-15)
    pure = sd.HybridOscillator(1.0, 1.0)
    for t in (3.0, 10.0, 25.0):
        assert cues.verify_cue_residual(series, pure, 0, 0.5, t) < 1e-13


def test_exact_coulomb_sentinel():
    # hydrogen ground state: f = 1/t - 1 solves the Riccati identity exactly
    series = cues.CoulombTail(0).cue_series(-0.5)
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


@pytest.mark.parametrize("l", [0, 2])
def test_families_take_the_shared_tail_classes_with_their_parameters(l):
    lam, omega = 0.05, 0.1
    assert sd.Yukawa(lam).tails(l) == (cues.YukawaZeroSingularity(l, lam),
                                       cues.CoulombTail(l, 0.0))
    assert sd.QuarkHybrid(omega).tails(l) == (
        cues.CoulombZeroSingularity(l, 1.0, omega),
        cues.OscillatorTail(omega, l, 1.0))
    assert sd.HybridOscillator(0.5, 1.0).tails(l) == (
        cues.OscillatorTail(0.5), cues.OscillatorTail(1.0))
    # a screened charge has no 1/t term: the far cue starts at 1/t^2
    k = math.sqrt(0.6)
    series = cues.CoulombTail(l, 0.0).cue_series(-0.3)
    assert series.coeffs[0] == 0.0
    assert series.coeffs[1] == pytest.approx(-l * (l + 1) / (2.0 * k))
    # the far tails fit the families' own potentials
    for well, E, t in ((sd.Yukawa(lam), -0.05, 800.0),
                       (sd.QuarkHybrid(omega), 0.2, 60.0)):
        far = well.tails(l)[1].cue_series(E)
        assert cues.verify_cue_residual(far, well, l, E, t) < 1e-12


def test_coulomb_zero_sentinel_is_exact_too():
    series = cues.CoulombZeroSingularity(l=0).cue_series(-0.5)
    assert series.evaluate(1e-3) == pytest.approx(1.0 / 1e-3 - 1.0)
    assert cues.verify_cue_residual(series, sd.Coulomb(), 0, -0.5,
                                    0.01) < 1e-12


def test_residual_shrinks_with_distance():
    series = cues.OscillatorTail(1.0).cue_series(0.7, 10)
    pure = sd.HybridOscillator(1.0, 1.0)
    res = [cues.verify_cue_residual(series, pure, 0, 0.7, t)
           for t in (4.0, 8.0, 16.0)]
    assert res[0] > res[1] > res[2]


@pytest.mark.parametrize("tail, E, power, t", [
    (cues.OscillatorTail(1.0), 0.7, 1, 5.0),
    (cues.CoulombTail(1), -0.3, 0, 5.0),
    (cues.CoulombZeroSingularity(0), -0.3, -1, 0.3),
], ids=["oscillator", "coulomb", "zero_singularity"])
def test_derivative_matches_central_difference(tail, E, power, t):
    # E is off every sentinel, so the series does not terminate
    series = tail.cue_series(E)
    assert series.power == power
    h = 1e-5 * t
    kept = {series.truncation_index(x) for x in (t - h, t, t + h)}
    assert len(kept) == 1
    slope = (series.evaluate(t + h) - series.evaluate(t - h)) / (2 * h)
    assert series.derivative(t) == pytest.approx(slope, rel=1e-8)


def test_smallest_term_truncation():
    series = cues.OscillatorTail(1.0).cue_series(0.7, 16)
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
        cues.OscillatorTail(-1.0).cue_series(0.5)
    with pytest.raises(ThresholdError):
        cues.CoulombTail(0).cue_series(0.1)
    with pytest.raises(DomainError):
        cues.OscillatorTail(omega=0.0, l=0, charge=1.0).cue_series(-0.5)
    with pytest.raises(DomainError, match="screening_lambda"):
        cues.YukawaZeroSingularity(0, 0.0).cue_series(-0.5)
    with pytest.raises(ValueError, match="two series coefficients"):
        cues.CueSeries(1.0, 0, [1.0])


# ---------------------------------------------------------------------------
# Batches of energies
# ---------------------------------------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# each tail class with the energies below its threshold and the boundary
# points t at which the pipeline uses it
TAIL_CASES = {
    "constant": (st.builds(cues.ConstantLevel, _floats(-3.0, 3.0)),
                 -4.0, 0.0, _floats(-5.0, 5.0)),
    "oscillator": (st.builds(cues.OscillatorTail, _floats(0.2, 3.0)),
                   -2.0, 30.0, _floats(3.0, 40.0)),
    # charge 0 is the Yukawa far tail
    "coulomb": (st.builds(cues.CoulombTail, st.integers(0, 4),
                          st.just(0.0) | _floats(0.5, 3.0)),
                -2.0, -1e-3, _floats(5.0, 400.0)),
    "quark": (st.builds(cues.OscillatorTail, _floats(0.005, 2.0),
                        st.integers(0, 4), st.just(1.0)),
              -2.0, 20.0, _floats(5.0, 400.0)),
    "coulomb_zero": (st.builds(cues.CoulombZeroSingularity, st.integers(0, 4),
                               _floats(0.5, 3.0)), -2.0, 2.0,
                     _floats(1e-4, 0.5)),
    "yukawa_zero": (st.builds(cues.YukawaZeroSingularity, st.integers(0, 4),
                              _floats(0.01, 1.0)), -2.0, 2.0,
                    _floats(1e-4, 0.5)),
    "quark_zero": (st.builds(cues.CoulombZeroSingularity, st.integers(0, 4),
                             st.just(1.0), _floats(0.005, 2.0)), -2.0, 2.0,
                   _floats(1e-4, 0.5)),
}


@st.composite
def tail_batches(draw):
    """(tail, energies, t, side): a tail class, energies below its
    threshold, a boundary point and the side the tail sits on."""
    tails, lo, hi, points = TAIL_CASES[draw(st.sampled_from(
        sorted(TAIL_CASES)))]
    tail = draw(tails)
    hi = min(hi, tail.threshold - 1e-3)
    energies = draw(st.lists(_floats(lo, hi), min_size=1, max_size=12))
    side = "left" if isinstance(tail, cues._ZeroSingularity) else draw(
        st.sampled_from(["left", "right"]))
    t = draw(points)
    if side == "left" and not isinstance(tail, cues._ZeroSingularity):
        t = -t
    return tail, np.array(energies), t, side


@settings(max_examples=300, deadline=None, database=None)
@given(tail_batches())
def test_batched_angles_equal_the_per_energy_angles(case):
    tail, energies, t, side = case
    batch = tail.boundary_angle(energies, t, side)
    assert isinstance(batch, np.ndarray) and batch.shape == energies.shape
    single = [tail.boundary_angle(E, t, side) for E in energies]
    assert all(isinstance(angle, float) for angle in single)
    assert np.max(np.abs(batch - single)) <= 1e-15


@pytest.mark.parametrize("tail, bad", [
    (cues.ConstantLevel(1.0), 1.0),
    (cues.ConstantLevel(1.0), 2.5),
    (cues.CoulombTail(0), 0.0),
    (cues.CoulombTail(1, 0.0), 0.3),
], ids=["at-level", "above-level", "coulomb-at-0", "yukawa-above-0"])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_batch_raises_the_threshold_error_of_its_first_bad_energy(
        tail, bad, where):
    energies = np.insert(np.linspace(-0.9, -0.1, 4), where, [bad, bad + 1])
    with pytest.raises(ThresholdError) as single:
        tail.boundary_angle(bad, 20.0, "right")
    with pytest.raises(ThresholdError) as batch:
        tail.boundary_angle(energies, 20.0, "right")
    assert str(batch.value) == str(single.value)
    assert str(bad) in str(batch.value)
    assert str(bad + 1) not in str(batch.value)


def test_a_batch_raises_the_domain_error_of_one_overflowing_energy():
    # E = omega / 2 ends the oscillator series at once; any other E
    # overflows it at omega = 1e-150
    tail = cues.OscillatorTail(1e-150)
    sentinel = 0.5e-150
    assert tail.boundary_angle(sentinel, 5.0, "right") == pytest.approx(
        math.atan(-1e-150 * 5.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="finite"):
            tail.boundary_angle(1.0, 5.0, "right")
        with pytest.raises(DomainError, match="finite"):
            tail.boundary_angle(np.array([sentinel, 1.0]), 5.0, "right")


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_wrong_cue_in_a_batch_names_the_first_wrong_energy(monkeypatch,
                                                             side):
    # the cue is flipped only at E > -0.5; the batch is out of order, and
    # the first wrong energy in it is -0.3, not the lowest one, -0.45
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    name = f"{side}_boundary_angle"
    boundary_angle = getattr(cues, name)
    monkeypatch.setattr(cues, name, lambda problem, E, t, *series: np.where(
        np.asarray(E) > -0.5, -1.0, 1.0) * boundary_angle(problem, E, t,
                                                          *series))
    energies = np.array([-1.5, -0.3, -0.9, -0.45, -0.2])
    with pytest.raises(MonotonicityError,
                       match=rf"{side} cue at E = -0\.3 is not"):
        spectrum._cue_angles(problem, energies, -1.0, 1.0)
    lefts, rights = spectrum._cue_angles(problem, energies[[0, 2]], -1.0,
                                         1.0)
    assert lefts.shape == rights.shape == (2,)


@pytest.mark.parametrize("problem, E_lo, E_hi", [
    (sd.problem_for(sd.Coulomb(), l=0), -0.6, -0.0045),
    (sd.problem_for(sd.Coulomb(), l=2), -0.1, -0.01),
    (sd.problem_for(sd.HybridOscillator(0.5, 1.0)), 1e-6, 5.0),
    (sd.problem_for(sd.QuarkHybrid(0.1), l=1), -0.2, 0.6),
    (sd.problem_for(sd.Yukawa(0.05), l=1), -0.2, -0.002)],
    ids=["hydrogen-l0", "hydrogen-l2", "hybrid", "quark", "yukawa"])
def test_a_candidate_boundary_is_gated_by_one_batched_series(
        monkeypatch, problem, E_lo, E_hi):
    # the interval search asks for both energy extremes' residuals in one
    # call, against one cue series for the two built once per side, and
    # each is the residual of its energy alone to the last bit, so the
    # interval does not move
    builds, calls, build = [], [], cues.tail_cue_series
    residual = cues.boundary_residual

    def counted_build(tail, E):
        builds.append((tail, np.shape(E)))
        return build(tail, E)

    def counted_residual(problem, E, t, side, series):
        calls.append((np.shape(E), t, side))
        return residual(problem, E, t, side, series)

    monkeypatch.setattr(cues, "tail_cue_series", counted_build)
    monkeypatch.setattr(cues, "boundary_residual", counted_residual)
    sd.auto_interval(problem, E_lo, E_hi, sd.SolveConfig())
    assert calls and all(shape == (2,) for shape, _, _ in calls)
    series_tails = [tail for tail in (problem.left_tail, problem.right_tail)
                    if not isinstance(tail, cues.ConstantLevel)]
    assert builds == [(tail, (2,)) for tail in series_tails]
    for _, t, side in calls:
        batch = residual(problem, np.array([E_lo, E_hi]), t, side)
        single = [residual(problem, E, t, side) for E in (E_lo, E_hi)]
        assert batch.tobytes() == np.array(single).tobytes()


def test_a_failing_candidate_names_its_first_failing_energy():
    problem = sd.problem_for(sd.Coulomb())
    energies = np.array([-0.6, -0.01])
    _, series = cues.side_series(problem, *energies)
    low, high = cues.boundary_residual(problem, energies, 40.0, "right")
    assert low < high
    for tol, named in ((0.5 * low, -0.6), (math.sqrt(low * high), -0.01)):
        failure = cues._tail_failure(problem, "right", 40.0, *energies,
                                     sd.SolveConfig(residual_tol=tol), False,
                                     series)
        assert failure == f"cue residual {(low, high)[named == -0.01]:.3e} " \
                          f"at E = {named}"
    assert cues._tail_failure(problem, "right", 40.0, *energies,
                              sd.SolveConfig(residual_tol=2.0 * high),
                              False, series) is None
    # far out the cue gate passes and the kappa clearance decides: V at
    # 2000 is -5e-4, above E_max = -0.0011 by less than kappa = 1e-3
    _, series = cues.side_series(problem, -0.6, -0.0011)
    for check_clearance, failure in (
            (True, "V - E_max = 6.000e-04 is below kappa"), (False, None)):
        assert cues._tail_failure(problem, "right", 2000.0, -0.6, -0.0011,
                                  sd.SolveConfig(), check_clearance,
                                  series) == failure
