import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert pot.SquareWell(-2, -1, 1) == pot.PiecewiseConstant((-1, 1),
                                                              (0, -2, 0))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data(),
       edges=st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40,
                      unique=True),
       points=st.lists(st.floats(-2e3, 2e3), min_size=1, max_size=20))
def test_a_step_well_reads_v_as_its_tuples_bit_for_bit(data, edges, points):
    # evaluate reads arrays cached at construction; the values are those
    # the tuples give, scalar or array, on breakpoints and off them
    edges = sorted(edges)
    values = data.draw(st.lists(st.floats(-1e4, 1e4), min_size=len(edges) + 1,
                                max_size=len(edges) + 1))
    well = pot.PiecewiseConstant(tuple(edges), tuple(values))
    t = np.array(points + edges)
    want = np.asarray(well.values)[
        np.searchsorted(well.breakpoints_, t, side="right")]
    assert well.evaluate(t).tobytes() == want.tobytes()
    scalars = [well.evaluate(x) for x in t.tolist()]
    assert all(type(x) is float for x in scalars)
    assert np.array(scalars).tobytes() == want.tobytes()
    assert well == pot.PiecewiseConstant(tuple(edges), tuple(values))
    assert hash(well) == hash(pot.PiecewiseConstant(tuple(edges),
                                                    tuple(values)))


@pytest.mark.parametrize("potential, t", [
    (pot.Coulomb(), -1.0),
    (pot.Coulomb(), np.float64(0.0)),
    (pot.Yukawa(screening_lambda=0.5), 0.0),
    (pot.Yukawa(screening_lambda=0.5), -1.0),
    (pot.QuarkHybrid(omega=0.1), 0.0),
    (pot.EffectiveRadial(pot.Coulomb(), 1), -0.5),
    (pot.EffectiveRadial(pot.Yukawa(0.5), 2), np.array([0.5, 0.0, 2.0])),
    (pot.QuarkHybrid(omega=0.1), np.array([[1.0, -3.0]])),
], ids=["coulomb", "coulomb_numpy_zero", "yukawa_zero", "yukawa",
        "quark_zero", "radial", "radial_array", "quark_array"])
def test_half_line_guard(potential, t):
    with pytest.raises(DomainError):
        potential.evaluate(t)


def test_yukawa_value():
    v = pot.Yukawa(screening_lambda=0.25)
    t = 3.0
    assert v.evaluate(t) == pytest.approx(-np.exp(-0.75) / 3.0)


def test_quark_hybrid_value():
    v = pot.QuarkHybrid(omega=0.1)
    assert v.evaluate(2.0) == pytest.approx(-0.5 + 0.5 * 0.01 * 4.0)


@pytest.mark.parametrize("l", [0, 1, 3])
def test_the_quark_hybrid_is_a_unit_coulomb_well_with_an_oscillator_term(l):
    well = pot.QuarkHybrid(0.1)
    assert type(well) is pot.Coulomb
    assert well == pot.Coulomb(1.0, 0.1)
    assert well.tails(l) == pot.Coulomb(1.0, 0.1).tails(l)
    assert pot.Coulomb(2.0, 0.1).tails(l) == (
        pot.CoulombZeroSingularity(l, 2.0, 0.1),
        pot.OscillatorTail(0.1, l, 2.0))
    assert pot.Coulomb(2.0).tails(l) == (pot.CoulombZeroSingularity(l, 2.0),
                                         pot.CoulombTail(l, 2.0))


@pytest.mark.parametrize("make", [
    lambda: pot.Coulomb(omega=-1.0), lambda: pot.Coulomb(omega=math.nan),
    lambda: pot.Coulomb(2.0, -1e-300), lambda: pot.QuarkHybrid(0.0),
    lambda: pot.QuarkHybrid(-0.1), lambda: pot.QuarkHybrid(math.nan)],
    ids=["negative", "nan", "tiny-negative", "hybrid-zero", "hybrid-negative",
         "hybrid-nan"])
def test_a_negative_or_nan_omega_is_refused(make):
    with pytest.raises(ValueError, match="omega"):
        make()


class _Untouchable:
    """A sequence that raises when it is iterated, indexed or converted."""

    def _refuse(self, *args):
        raise AssertionError("evaluate read a tuple field")

    __iter__ = __getitem__ = __len__ = __array__ = _refuse


@pytest.mark.parametrize("potential, fields, reference", [
    (pot.PiecewiseConstant((-1.0, 0.5, 2.0), (0.0, -2.0, -0.5, 1.0)),
     ("breakpoints_", "values"),
     lambda well, t: np.asarray(well.values)[
         np.searchsorted(well.breakpoints_, t, side="right")]),
    (pot.Tabulated((-1.0, 0.0, 0.5, 2.0), (0.0, -3.0, -1.0, 0.25)),
     ("ts", "vs"), lambda well, t: np.interp(t, well.ts, well.vs)),
], ids=["piecewise", "tabulated"])
def test_evaluate_reads_only_the_cached_arrays(potential, fields, reference):
    # a read costs O(log n) only if no call converts the tuples anew: with
    # them replaced by sequences that refuse every read, scalar and array
    # reads still give the values the tuples give, bit for bit
    t = np.array([-3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 5.0])
    want = reference(potential, t)
    for name in fields:
        object.__setattr__(potential, name, _Untouchable())
    assert potential.evaluate(t).tobytes() == want.tobytes()
    scalars = [potential.evaluate(x) for x in t.tolist()]
    assert all(type(x) is float for x in scalars)
    assert np.array(scalars).tobytes() == want.tobytes()


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
    ts = rng.uniform(-4, 4, size=17)
    half = np.abs(ts) + 0.1
    cases = [(pot.TruncatedOscillator(1.0, 2.0), ts),
             (pot.HybridOscillator(0.5, 1.5), ts),
             (pot.PiecewiseConstant((-1.0, 0.5), (0.0, -2.0, 1.0)), ts),
             (pot.Tabulated((0.0, 1.0), (0.0, -1.0)), ts),
             (pot.Coulomb(charge=2.0), half),
             (pot.Yukawa(0.5), half),
             (pot.QuarkHybrid(omega=0.1), half),
             (pot.EffectiveRadial(pot.Coulomb(), 1), half)]
    for v, points in cases:
        arr = v.evaluate(points)
        assert arr.shape == points.shape
        for t, val in zip(points, arr):
            # numpy scalars take the same path as floats
            assert v.evaluate(float(t)) == pytest.approx(val)
            assert v.evaluate(t) == pytest.approx(val)


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


@pytest.mark.parametrize("a, b", [(-3.0, math.inf), (-math.inf, 3.0),
                                  (math.nan, 3.0), (-3.0, math.nan)])
def test_problem_spec_rejects_a_non_finite_end(a, b):
    # an infinite b once sent find_eigenvalues_scaled and
    # reconstruct_eigenfunction into an integration without end
    well = pot.SquareWell(-2.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        pot.problem_for(well, interval=(a, b))
    with pytest.raises(ValueError, match="finite"):
        pot.problem_for(well).with_interval(a, b)


def test_half_line_only_potential_rejects_whole_line():
    with pytest.raises(ValueError):
        pot.ProblemSpec(pot.Coulomb())


def test_half_line_problem_needs_a_zero_singularity():
    # a constant-tail family would be solved with its whole-line left cue
    with pytest.raises(ValueError, match="0\\+ singularity"):
        pot.ProblemSpec(pot.SquareWell(-2.0, 1.0, 2.0), l=0,
                        interval=(1e-3, 12.0))
    # nor would a centrifugal barrier over a constant-tail family
    with pytest.raises(ValueError, match="0\\+ singularity"):
        pot.effective_radial(pot.SquareWell(-2.0, 1.0, 2.0), 1)
