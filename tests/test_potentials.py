import numpy as np
import pytest

from spectral_defect import potentials as pot
from spectral_defect.errors import DomainError


def test_truncated_oscillator_matches_closed_form():
    rng = np.random.default_rng(7)
    v = pot.TruncatedOscillator(omega=1.3, cutoff_a=2.5)
    for t in rng.uniform(-6, 6, size=40):
        if abs(t) <= 2.5:
            expect = 0.5 * 1.3**2 * t * t
        else:
            expect = 0.5 * 1.3**2 * 2.5**2
        assert v.evaluate(t) == pytest.approx(expect, abs=1e-14)


def test_truncated_oscillator_continuous_at_cutoff():
    v = pot.TruncatedOscillator(omega=2.0, cutoff_a=1.5)
    eps = 1e-9
    for edge in v.breakpoints():
        inner = v.evaluate(edge - np.sign(edge) * eps)
        outer = v.evaluate(edge + np.sign(edge) * eps)
        assert abs(inner - outer) < 1e-7


def test_hybrid_oscillator_sides():
    v = pot.HybridOscillator(omega_left=0.5, omega_right=1.0)
    assert v.evaluate(-2.0) == pytest.approx(0.5 * 0.25 * 4.0)
    assert v.evaluate(2.0) == pytest.approx(0.5 * 1.0 * 4.0)
    assert v.evaluate(0.0) == 0.0


def test_square_well_and_piecewise_agree():
    sq = pot.SquareWell(depth=-2.0, left=-1.0, right=1.0)
    pw = pot.PiecewiseConstant(breakpoints_=(-1.0, 1.0),
                               values=(0.0, -2.0, 0.0))
    ts = np.linspace(-3, 3, 101)
    # the step convention may differ exactly at a breakpoint, so skip those
    ts = ts[np.all(np.abs(ts[:, None] - np.array([-1.0, 1.0])) > 1e-9, axis=1)]
    assert np.allclose(sq.evaluate(ts), pw.evaluate(ts))


def test_coulomb_and_yukawa_half_line_guard():
    with pytest.raises(DomainError):
        pot.Coulomb().evaluate(-1.0)
    with pytest.raises(DomainError):
        pot.Yukawa(screening_lambda=0.5).evaluate(0.0)


def test_yukawa_value():
    v = pot.Yukawa(screening_lambda=0.25)
    t = 3.0
    assert v.evaluate(t) == pytest.approx(-np.exp(-0.75) / 3.0)


def test_quark_hybrid_value():
    v = pot.QuarkHybrid(omega=0.1)
    assert v.evaluate(2.0) == pytest.approx(-0.5 + 0.5 * 0.01 * 4.0)


def test_tabulated_interpolates_and_clamps():
    v = pot.Tabulated(ts=(0.0, 1.0, 2.0), vs=(-1.0, -3.0, 0.0))
    assert v.evaluate(0.5) == pytest.approx(-2.0)
    assert v.evaluate(-5.0) == -1.0
    assert v.evaluate(10.0) == 0.0


def test_effective_radial_identity_for_s_wave():
    v = pot.Coulomb()
    assert pot.effective_radial(v, 0) is v


def test_effective_radial_adds_centrifugal():
    v = pot.effective_radial(pot.Coulomb(), 2)
    t = 1.7
    assert v.evaluate(t) == pytest.approx(-1.0 / t + 0.5 * 6.0 / (t * t))


def test_shifted_moves_values_and_tails():
    base = pot.SquareWell(depth=-1.0, left=0.0, right=2.0)
    v = pot.Shifted(base, 3.0)
    assert v.evaluate(1.0) == pytest.approx(2.0)
    left, right = v.tails(0)
    assert left == pot.ConstantLevel(3.0)
    assert right == pot.ConstantLevel(3.0)


def test_array_evaluation_matches_scalar():
    rng = np.random.default_rng(3)
    cases = [pot.TruncatedOscillator(1.0, 2.0),
             pot.HybridOscillator(0.5, 1.5),
             pot.PiecewiseConstant((-1.0, 0.5), (0.0, -2.0, 1.0)),
             pot.Tabulated((0.0, 1.0), (0.0, -1.0))]
    ts = rng.uniform(-4, 4, size=17)
    for v in cases:
        arr = v.evaluate(ts)
        assert arr.shape == ts.shape
        for t, val in zip(ts, arr):
            assert v.evaluate(float(t)) == pytest.approx(val)


def test_problem_for_wires_expected_tails():
    p = pot.problem_for(pot.Coulomb())
    assert p.l == 0
    assert p.left_tail == pot.CoulombZeroSingularity(0)
    assert p.right_tail == pot.CoulombTail(0)
    assert p.threshold() == 0.0

    q = pot.problem_for(pot.TruncatedOscillator(1.0, 2.0))
    assert q.l is None
    assert q.threshold() == pytest.approx(2.0)


def test_problem_spec_rejects_bad_interval():
    with pytest.raises(ValueError):
        pot.problem_for(pot.Coulomb(), interval=(-1.0, 5.0))
    with pytest.raises(ValueError):
        pot.problem_for(pot.SquareWell(-1.0, 0.0, 1.0), interval=(3.0, 2.0))


def test_half_line_only_potential_rejects_whole_line():
    with pytest.raises(ValueError):
        pot.ProblemSpec(pot.Coulomb())
