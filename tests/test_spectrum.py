import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.optimize import brentq
from scipy.special import eval_genlaguerre

import spectral_defect as sd
from spectral_defect import cues, oracle, spectrum
from spectral_defect.angular import integrate_angles
from spectral_defect.errors import (DomainError, IntegrationError,
                                    IntervalSelectionError,
                                    MonotonicityError, SpectralDefectError,
                                    ThresholdError)
from spectral_defect.potentials import EffectiveRadial, Shifted


def square_well_levels(depth, half_width):
    """Transcendental matching roots for a centered square well.

    Even states solve k tan(k L) = kappa, odd states -k cot(k L) = kappa,
    with k = sqrt(2(E - depth)), kappa = sqrt(-2E), L the half width.
    """
    levels = []
    for parity in ("even", "odd"):
        def mismatch(E):
            k = math.sqrt(2.0 * (E - depth))
            kap = math.sqrt(-2.0 * E)
            if parity == "even":
                return k * math.tan(k * half_width) - kap
            return -k / math.tan(k * half_width) - kap

        # scan for sign changes away from the tangent poles
        grid = np.linspace(depth + 1e-9, -1e-9, 4001)
        vals = []
        for E in grid:
            try:
                vals.append(mismatch(E))
            except ZeroDivisionError:
                vals.append(np.nan)
        vals = np.asarray(vals)
        for e1, e2, v1, v2 in zip(grid, grid[1:], vals, vals[1:]):
            if np.isfinite(v1) and np.isfinite(v2) and v1 * v2 < 0 \
                    and abs(v1) + abs(v2) < 50.0:
                levels.append(brentq(mismatch, e1, e2, xtol=1e-13))
    return sorted(levels)


def test_square_well_matches_transcendental_roots():
    depth, half_width = -2.0, 1.0
    problem = sd.problem_for(sd.SquareWell(depth, -half_width, half_width))
    result = sd.find_eigenvalues(problem, depth + 1e-6, -2e-3)
    exact = square_well_levels(depth, half_width)
    assert len(result.eigenvalues) == len(exact)
    for ev, ref in zip(result.eigenvalues, exact):
        assert ev.energy == pytest.approx(ref, abs=1e-9)
    assert [ev.n for ev in result.eigenvalues] == list(range(len(exact)))


def test_hydrogen_ground_state():
    problem = sd.problem_for(sd.Coulomb())
    result = sd.find_eigenvalues(problem, -0.6, -0.4)
    assert len(result.eigenvalues) == 1
    assert result.eigenvalues[0].energy == pytest.approx(-0.5, abs=1e-9)


def test_coulomb_levels_scale_with_charge():
    # charge Z: E_n = -Z^2 / (2 (n+1)^2), six levels of Z = 2 in the window
    problem = sd.problem_for(sd.Coulomb(charge=2.0))
    result = sd.find_eigenvalues(problem, -2.5, -0.05)
    exact = [-2.0 / (n + 1) ** 2 for n in range(6)]
    assert [ev.n for ev in result.eigenvalues] == list(range(6))
    assert np.allclose(result.energies, exact, rtol=0.0, atol=1e-8)


@st.composite
def lattice_wells(draw, lattice=1.0 / 32.0, span=2.0, max_inner=2):
    """Piecewise-constant wells between zero tails, edges on a lattice."""
    n_inner = draw(st.integers(1, max_inner))
    cells = int(span / lattice)
    edges = draw(st.lists(st.integers(-cells, cells), min_size=n_inner + 1,
                          max_size=n_inner + 1, unique=True))
    depths = draw(st.lists(st.floats(0.5, 4.0), min_size=n_inner,
                           max_size=n_inner))
    return sd.PiecewiseConstant(tuple(sorted(e * lattice for e in edges)),
                                (0.0, *(-d for d in depths), 0.0))


@settings(max_examples=5, deadline=None, database=None)
@given(well=lattice_wells(), offset=st.floats(-5.0, 5.0))
def test_shifted_well_spectrum_moves_with_the_offset(well, offset):
    e_min, e_max = min(well.values) + 1e-3, -0.1
    plain = sd.find_eigenvalues(sd.problem_for(well), e_min, e_max)
    shifted = sd.find_eigenvalues(sd.problem_for(Shifted(well, offset)),
                                  e_min + offset, e_max + offset)
    assert len(shifted.eigenvalues) == len(plain.eigenvalues)
    assert np.allclose(shifted.energies, plain.energies + offset, rtol=0.0,
                       atol=1e-8)


@settings(max_examples=5, deadline=None, database=None)
@given(well=lattice_wells())
def test_count_levels_agrees_with_found_levels(well):
    e_min, e_max = min(well.values) + 1e-3, -0.1
    problem = sd.problem_for(well)
    levels = sd.find_eigenvalues(problem, e_min, e_max).energies
    ceilings = [0.5 * (e1 + e2) for e1, e2 in zip(levels, levels[1:])]
    for ceiling in ceilings + [e_max]:
        assert sd.count_levels(problem, ceiling) == np.sum(levels <= ceiling)


@settings(max_examples=8, deadline=None, database=None)
@given(well=lattice_wells(), where=st.floats(0.0, 1.0))
def test_level_count_does_not_depend_on_the_matching_point(well, where):
    # both halves solve one pi-periodic flow, so Gamma at any c lies in the
    # same (n - 1) pi .. n pi band: only its shape depends on c
    config = sd.SolveConfig()
    problem = sd.problem_for(well)
    e_min, e_max = min(well.values) + 0.02, -0.02
    a, b = sd.auto_interval(problem, e_min, e_max, config)
    energies = np.linspace(e_min, e_max, 16)
    counts = []
    for c in (a, b, a + where * (b - a)):
        samples = sd.defect_angles(problem, energies, config,
                                   (a, c, b, None))
        gammas = [s.gamma for s in samples]
        assert min(np.diff(gammas)) >= -spectrum._MONOTONE_JITTER
        counts.append([s.n_below for s in samples])
    assert counts[0] == counts[1] == counts[2]
    # a right cue with its sign flipped sits on the growing branch
    right_boundary_angle = cues.right_boundary_angle
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cues, "right_boundary_angle",
                      lambda problem, E, t, *series:
                      -right_boundary_angle(problem, E, t, *series))
        with pytest.raises(MonotonicityError):
            sd.find_eigenvalues(problem, e_min, e_max)


def test_defect_angle_negative_below_ground():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    sample = sd.defect_angles(problem, [-1.9])[0]
    assert sample.gamma < 0.0
    assert sample.n_below == 0


@pytest.mark.parametrize("potential, interval, E_min, E_max", [
    (sd.PiecewiseConstant((0.0,), (0.0, 0.0)), (-3.0, 3.0), -0.9, -0.05),
    (sd.PiecewiseConstant((0.0,), (0.0, 1.0)), None, -0.5, -0.01),
], ids=["flat", "step"])
def test_flat_potential_has_no_levels(potential, interval, E_min, E_max):
    # a single breakpoint bounds no support; the step used to get the
    # degenerate interval (0, 0)
    problem = sd.problem_for(potential, interval=interval)
    assert sd.count_levels(problem, E_max) == 0
    result = sd.find_eigenvalues(problem, E_min, E_max)
    assert result.eigenvalues == ()


def test_count_levels_truncated_oscillator():
    ceiling = 2.0 - 2e-3
    two = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0))
    assert sd.count_levels(two, ceiling) == 2


def test_defect_sample_counting_rule():
    assert sd.DefectSample(E=0.0, gamma=-0.3).n_below == 0
    assert sd.DefectSample(E=0.0, gamma=0.1).n_below == 1
    assert sd.DefectSample(E=0.0, gamma=3.5 * math.pi).n_below == 4


def test_defect_sample_is_an_immutable_value():
    sample = sd.DefectSample(E=-1.5, gamma=0.1)
    assert (sample.E, sample.gamma) == (-1.5, 0.1)
    assert sample == sd.DefectSample(gamma=0.1, E=-1.5)
    assert sample != sd.DefectSample(E=-1.5, gamma=0.2)
    assert hash(sample) == hash(sd.DefectSample(E=-1.5, gamma=0.1))
    for field in ("E", "gamma", "n_below"):
        with pytest.raises(AttributeError):
            setattr(sample, field, 0.0)


def test_defect_angle_increases_with_energy():
    problem = sd.problem_for(sd.SquareWell(-4.0, -1.0, 1.0))
    samples = sd.defect_angles(problem, [-3.5, -2.0, -1.0, -0.2])
    gammas = [s.gamma for s in samples]
    assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))


def test_auto_interval_clears_residual_gate():
    from spectral_defect.cues import boundary_residual
    config = sd.SolveConfig()
    problem = sd.problem_for(sd.Coulomb())
    a, b = sd.auto_interval(problem, -0.6, -0.01, config)
    assert 0 < a < b
    for E in (-0.6, -0.01):
        assert boundary_residual(problem, E, a, "left") <= config.residual_tol
        assert boundary_residual(problem, E, b, "right") <= config.residual_tol


def test_interval_selection_error_names_the_last_attempt():
    problem = sd.problem_for(sd.Coulomb())
    config = sd.SolveConfig(residual_tol=1e-300)
    with pytest.raises(IntervalSelectionError,
                       match=r"last tried t = \S+: cue residual \S+ at E ="):
        sd.auto_interval(problem, -0.6, -0.1, config)


def test_failed_radial_left_search_stops_at_the_floor(monkeypatch):
    calls = []
    residual = cues.boundary_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(cues, "boundary_residual", counted)
    with pytest.raises(IntervalSelectionError,
                       match=r"left boundary .* last tried t = 0\.0001: "):
        sd.auto_interval(sd.problem_for(sd.Coulomb()), -0.6, -0.01,
                         sd.SolveConfig(residual_tol=1e-12))
    assert len(calls) <= 15


def test_threshold_guard():
    problem = sd.problem_for(sd.Coulomb())
    with pytest.raises(ThresholdError):
        sd.defect_angles(problem, [0.5])
    with pytest.raises(ThresholdError):
        sd.auto_interval(problem, -0.5, 0.1, sd.SolveConfig())


def test_an_explicit_interval_settles_onto_the_support():
    # past the square well's edges V is the tail level, where the decaying
    # cue is exact: the ends move onto the edges
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0),
                             interval=(-9.0, 9.0))
    assert sd.auto_interval(problem, -1.9, -0.1, sd.SolveConfig()) == \
        (-1.0, 1.0)


def test_an_explicit_end_inside_a_constant_tails_support_raises():
    # at -3 the a = 4 oscillator reads V = 4.5, not its tail level 8: the
    # left cue would start the tail there, and the levels would be off by
    # up to 0.37.  An end on the support edge or past it solves
    well = sd.TruncatedOscillator(1.0, 4.0)
    with pytest.raises(IntervalSelectionError, match="left end -3.0 .* edge "
                       "-4.0, where V = 4.5 is not the tail level 8.0"):
        sd.find_eigenvalues(sd.problem_for(well, interval=(-3.0, 64.0)),
                            1e-6, 7.998)
    for interval in ((-4.0, 64.0), (-5.0, 5.0)):
        result = sd.find_eigenvalues(sd.problem_for(well, interval=interval),
                                     1e-6, 7.998)
        assert [ev.n for ev in result.eigenvalues] == list(range(8))


OSC4 = sd.TruncatedOscillator(1.0, 4.0)
_ENTRY_POINTS = {
    "solve": lambda p: sd.find_eigenvalues(p, 1e-6, 7.998),
    "count": lambda p: sd.count_levels(p, 7.998),
    "defect_angles": lambda p: sd.defect_angles(p, [7.9]),
    "eigenfunction": lambda p: sd.reconstruct_eigenfunction(
        p, 0.5, np.linspace(*p.interval, 9)),
    "transfer": lambda p: oracle.transfer_mismatch(p, 0.5),
    "fd": lambda p: oracle.fd_eigenvalues(p, 7.998),
}


@pytest.mark.parametrize("interval", [(-3.0, 64.0), (-100.0, -50.0)],
                         ids=["inside", "off-support"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_refuses_an_end_no_cue_starts_from(entry,
                                                             interval):
    # V(-3) = 4.5 is not the level 8; (-100, -50) misses the well, though
    # V(-50) is the level, as the breakpoint -4 lies between -50 and the
    # right edge 4
    with pytest.raises(IntervalSelectionError,
                       match="V = 4.5 is not|breakpoint -4.0 in between"):
        _ENTRY_POINTS[entry](sd.problem_for(OSC4, interval=interval))


def test_an_end_on_a_flat_stretch_at_the_tail_level_solves():
    well = sd.PiecewiseConstant((-3.0, -1.0, 1.0, 3.0),
                                (0.0, 0.0, -2.0, 0.0, 0.0))
    auto = sd.find_eigenvalues(sd.problem_for(well), -1.99, -0.01).energies
    flat = sd.find_eigenvalues(sd.problem_for(well, interval=(-2.0, 2.0)),
                               -1.99, -0.01).energies
    assert np.allclose(auto, [-1.469687466, -0.203550742], rtol=0.0,
                       atol=1e-9)
    assert np.allclose(flat, auto, rtol=0.0, atol=1e-9)


def test_settled_ends_that_cross_on_flat_v_keep_the_interval():
    # with no breakpoint the support edges fall back to +-1: the left end 5
    # is kept on the flat stretch and the right end 10 would move onto 1
    problem = sd.problem_for(sd.PiecewiseConstant((), (0.0,)),
                             interval=(5.0, 10.0))
    assert sd.auto_interval(problem, -0.9, -0.05,
                            sd.SolveConfig()) == (5.0, 10.0)
    assert not sd.find_eigenvalues(problem, -0.9, -0.05).eigenvalues


@pytest.mark.parametrize("interval", [(-4.0, 64.0), (-5.0, 5.0),
                                      (-10.0, 10.0), (-1004.0, 1004.0)])
def test_an_interval_covering_the_support_keeps_its_levels_bit_for_bit(
        interval):
    # the ends settle onto the support edges -+4, so the passes, the mesh
    # and the matching point are the automatic solve's
    auto = sd.find_eigenvalues(sd.problem_for(OSC4), 1e-6, 7.998)
    given_ = sd.find_eigenvalues(sd.problem_for(OSC4, interval=interval),
                                 1e-6, 7.998)
    assert given_.problem.interval == auto.problem.interval == (-4.0, 4.0)
    assert given_.scan == auto.scan
    assert given_.eigenvalues == auto.eigenvalues


@pytest.mark.parametrize("interval, match", [
    # on (0.01, 16) the levels were off by up to 96 e_tol (n = 2 at
    # -0.0555555459098); on (1, 30) the left cue turned onto the growing
    # branch, and the failure blamed the cue
    ((0.01, 16.0), r"right end 16\.0 fails the cue gate .*: cue residual "
                   r"3\.77\de-06 at E = -0\.05"),
    ((1.0, 30.0), r"left end 1\.0 fails the cue gate .*: cue residual"),
    # the series overflows at an end this close to the singularity
    ((1e-300, 20.0), r"left end 1e-300 fails the cue gate .*: OverflowError"),
])
def test_an_explicit_series_end_must_pass_the_cue_gate(interval, match):
    problem = sd.problem_for(sd.Coulomb(), l=0, interval=interval)
    with pytest.raises(IntervalSelectionError, match=match):
        sd.find_eigenvalues(problem, -0.6, -0.05)


_SERIES_ENTRY_POINTS = {
    "solve": lambda p: sd.find_eigenvalues(p, -0.6, -0.05),
    "count": lambda p: sd.count_levels(p, -0.05),
    "defect_angles": lambda p: sd.defect_angles(p, [-0.05]),
    # n = 2: psi came back with no error, though 16 fails the gate there
    "eigenfunction": lambda p: sd.reconstruct_eigenfunction(
        p, -1.0 / 18.0, np.linspace(*p.interval, 9)),
}


@pytest.mark.parametrize("entry", list(_SERIES_ENTRY_POINTS))
def test_every_entry_point_gates_an_explicit_series_end(entry):
    # the Coulomb cue's residual at 16 is 3.8e-6 at E = -0.05 and 3.3e-7
    # at -1/18, far above residual_tol
    problem = sd.problem_for(sd.Coulomb(), l=0, interval=(0.01, 16.0))
    with pytest.raises(IntervalSelectionError,
                       match=r"right end 16\.0 fails the cue gate"):
        _SERIES_ENTRY_POINTS[entry](problem)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 7: a jump up in Gamma passes every check of a solve; "
    "certified envelope counts would refuse the spurious level"))
def test_a_pi_jump_in_gamma_is_refused(monkeypatch):
    # alpha_R raised by pi above E = 3 adds a level at 3.0 to the eight of
    # the a = 4 oscillator, and Gamma still rises.  A solve that raises, or
    # one that finds the eight alone, passes
    def jumped(problem, energies, *args):
        alpha_l, alpha_r = integrate_angles(problem, energies, *args)
        return alpha_l, alpha_r + np.where(np.asarray(energies) > 3.0,
                                           math.pi, 0.0)

    monkeypatch.setattr(spectrum, "integrate_angles", jumped)
    try:
        levels = sd.find_eigenvalues(sd.problem_for(OSC4), 1e-6,
                                     7.998).energies
    except SpectralDefectError:
        return
    assert levels.size == 8, f"a spurious level among {levels}"


@pytest.mark.parametrize("potential, l, E_min, E_max", [
    (sd.Coulomb(), 0, -0.6, -0.05), (sd.QuarkHybrid(0.1), 1, -0.2, 0.6)])
def test_the_auto_interval_given_explicitly_keeps_its_levels_bit_for_bit(
        potential, l, E_min, E_max):
    auto = sd.find_eigenvalues(sd.problem_for(potential, l), E_min, E_max)
    given = sd.find_eigenvalues(
        sd.problem_for(potential, l, auto.problem.interval), E_min, E_max)
    assert [(ev.n, ev.energy, ev.width) for ev in given.eigenvalues] == \
        [(ev.n, ev.energy, ev.width) for ev in auto.eigenvalues]


@st.composite
def flat_edged_wells(draw):
    """Piecewise-constant wells between zero tails whose outer pieces may
    sit at the tail level, edges on a quarter lattice."""
    n = draw(st.integers(2, 4))
    edges = draw(st.lists(st.integers(-12, 12), min_size=n + 1,
                          max_size=n + 1, unique=True))
    values = draw(st.lists(st.sampled_from([0.0, -1.0, -2.5]), min_size=n,
                           max_size=n))
    return sd.PiecewiseConstant(tuple(e / 4.0 for e in sorted(edges)),
                                (0.0, *values, 0.0))


@settings(max_examples=25, deadline=None, database=None)
@given(well=flat_edged_wells(), ends=st.lists(st.integers(-16, 16),
                                               min_size=2, max_size=2,
                                               unique=True))
def test_an_explicit_interval_raises_or_keeps_the_auto_levels(well, ends):
    a, b = sorted(e / 4.0 for e in ends)
    auto = sd.find_eigenvalues(sd.problem_for(well), -2.49, -0.05).energies
    try:
        given_ = sd.find_eigenvalues(sd.problem_for(well, interval=(a, b)),
                                     -2.49, -0.05).energies
    except IntervalSelectionError:
        return
    assert len(given_) == len(auto)
    assert np.allclose(given_, auto, rtol=0.0, atol=1e-9)


@settings(max_examples=30, deadline=None, database=None)
@given(well=st.one_of(st.just(OSC4), flat_edged_wells()),
       past=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                     min_size=2, max_size=2))
def test_an_interval_past_the_support_is_the_automatic_solve(well, past):
    # the ends lie at or past the support edges, on the constant tails:
    # they settle onto the edges, and every Gamma sample and level is the
    # automatic solve's, bit for bit
    E_min, E_max = (1e-6, 7.998) if well == OSC4 else (-2.49, -0.05)
    edges = well.breakpoints()
    problem = sd.problem_for(well, interval=(min(edges) - past[0],
                                             max(edges) + past[1]))
    auto = sd.find_eigenvalues(sd.problem_for(well), E_min, E_max)
    given_ = sd.find_eigenvalues(problem, E_min, E_max)
    assert given_.problem.interval == (min(edges), max(edges))
    assert given_.problem.interval == auto.problem.interval
    assert given_.scan == auto.scan
    assert given_.eigenvalues == auto.eigenvalues


@pytest.mark.parametrize("problem, E_min, E_max, interval, fd_interval", [
    (sd.problem_for(sd.Coulomb()), -0.6, -0.0045,
     (0.01, 450.0000000000001), (0.0, 618.6548085423137)),
    (sd.problem_for(sd.Coulomb(), l=1), -0.2, -0.01,
     (0.01, 262.5), (0.0, 375.6370849898476)),
    (sd.problem_for(sd.HybridOscillator(0.5, 1.0)), 1e-6, 5.0,
     (-27.748986467977538, 9.249662155992512),
     (-36.0736824083708, 12.024560802790266)),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), 1e-6, 7.998,
     (-4.0, 4.0), (-256.9822128134843, 256.9822128134843)),
    (sd.problem_for(sd.PiecewiseConstant((), (0.0,))), -0.9, -0.05,
     (-1.0, 1.0), (-51.596442562694065, 51.596442562694065)),
    (sd.problem_for(sd.PiecewiseConstant((0.0,), (0.0, 1.0))), -0.5, -0.01,
     (-1.0, 1.0), (-114.13708498984761, 12.25756071568467)),
], ids=["coulomb_l0", "coulomb_l1", "hybrid", "truncated", "flat", "step"])
def test_pinned_intervals(problem, E_min, E_max, interval, fd_interval):
    # one case per kind of boundary rule: 0+ shrink (l = 0 and l > 0),
    # series growth, constant support edge and constant edge with no
    # breakpoint or one; each tuple is exact, so any drift in a rule shows
    config = sd.SolveConfig()
    assert sd.auto_interval(problem, E_min, E_max, config) == interval
    assert oracle.fd_interval(problem, E_max, config) == fd_interval


@pytest.mark.parametrize("cutoff, levels", [(2.0, 2), (4.0, 8)])
def test_scaled_pipeline_matches_plain(cutoff, levels):
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, cutoff))
    ceiling = cutoff**2 / 2.0 - 2e-3
    plain = sd.find_eigenvalues(problem, 1e-6, ceiling)
    scaled = sd.find_eigenvalues_scaled(problem, 1e-6, ceiling)
    assert len(plain.eigenvalues) == len(scaled.eigenvalues) == levels
    for a, b in zip(plain.eigenvalues, scaled.eigenvalues):
        assert a.energy == pytest.approx(b.energy, abs=1e-8)
    # the scaled Gamma is the plain defect at b, monotone like Gamma_c
    for s1, s2 in zip(scaled.scan, scaled.scan[1:]):
        assert s1.gamma - s2.gamma <= \
            spectrum._MONOTONE_JITTER * max(1.0, abs(s1.gamma))


def test_scaled_pipeline_needs_constant_tails():
    problem = sd.problem_for(sd.Coulomb())
    with pytest.raises(DomainError):
        sd.find_eigenvalues_scaled(problem, -0.6, -0.1)


def test_scaled_pipeline_needs_energies_below_the_tails():
    # a set interval once skipped the threshold check, and the scaled chart
    # refused E at or above the tail level 0 itself (DomainError); every
    # entry point now checks its energies up front, naming the argument
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0),
                             interval=(-3.0, 3.0))
    with pytest.raises(ThresholdError, match=r"^E_max = 0\.5 is not below "
                       r"the tail threshold 0\.0$"):
        sd.find_eigenvalues_scaled(problem, -1.5, 0.5)


@pytest.mark.xfail(strict=True, raises=MonotonicityError, reason=(
    "the scaled chart's Gamma drops by 1.4e-3 along the scan of the deep "
    "a = 12 well on (1e-6, 60), where the plain pipeline finds 60 levels"))
def test_scaled_pipeline_matches_plain_in_a_deep_well():
    # on (1e-6, 30) both give 30 levels within 5.6e-11
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 12.0))
    plain = sd.find_eigenvalues(problem, 1e-6, 60.0)
    scaled = sd.find_eigenvalues_scaled(problem, 1e-6, 60.0)
    assert len(plain.eigenvalues) == len(scaled.eigenvalues) == 60
    assert np.allclose(scaled.energies, plain.energies, rtol=0.0, atol=1e-8)


def _hydrogen_function(n, t):
    """The closed-form l = 0 radial function u_n(t), unnormalized."""
    rho = 2.0 * t / (n + 1)
    return rho * np.exp(-rho / 2.0) * eval_genlaguerre(n, 1, rho)


@pytest.mark.parametrize("potential, l, E_min, E_max, levels", [
    (sd.TruncatedOscillator(1.0, 4.0), None, 1e-6, 4.0, 4),
    (sd.Coulomb(), 0, -0.6, -0.05, 3),
    (sd.Yukawa(0.05), 1, -0.12, -0.01, 2),
], ids=["oscillator", "hydrogen", "yukawa"])
def test_eigenfunction_nodes_match_branch_index(potential, l, E_min, E_max,
                                                levels):
    # past the last turning point a sweep from a alone picks up the
    # solution that grows toward b: hydrogen n = 0 (interval (0.01, 32.14))
    # then had a node and psi(b) at its peak, and both Yukawa levels
    # (interval (0.01, 362.4)) peaked at b
    result = sd.find_eigenvalues(sd.problem_for(potential, l=l), E_min, E_max)
    assert len(result.eigenvalues) >= levels
    a, b = result.problem.interval
    grid = np.linspace(a, b, 1500)
    for ev in result.eigenvalues[:levels]:
        ef = sd.reconstruct_eigenfunction(result.problem, ev.energy, grid)
        assert ef.node_count() == ev.n
        if isinstance(potential, sd.Coulomb):
            exact = _hydrogen_function(ev.n, ef.t)
            exact /= math.sqrt(trapezoid(exact * exact, ef.t))
            # 2.4e-11, 1.2e-10 and 2.5e-10 at n = 0, 1 and 2
            assert np.max(np.abs(ef.psi - exact)) <= 1e-9
        elif isinstance(potential, sd.Yukawa):
            # no closed form; b = 362.4 lies deep in both tails (the exact
            # hydrogen n = 1, 2 functions are 8e-5 and 5e-2 of their peak at
            # b = 32.14, the oscillator's b is its support edge)
            assert abs(ef.psi[-1]) <= 1e-6 * np.max(np.abs(ef.psi))


def test_eigenfunction_is_normalized():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -0.1)
    a, b = result.problem.interval
    grid = np.linspace(a, b, 2000)
    ef = sd.reconstruct_eigenfunction(result.problem,
                                      result.eigenvalues[0].energy, grid)
    assert trapezoid(ef.psi**2, ef.t) == pytest.approx(1.0, abs=1e-6)
    assert ef.psi[np.argmax(np.abs(ef.psi))] > 0


def test_an_eigenfunction_grid_may_reach_into_a_constant_tail():
    # past the square well's edges -+1, psi is psi(-+1) e^{-k (|t| - 1)},
    # carried in one step from the grid's outermost point
    result = sd.find_eigenvalues(
        sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0)), -1.9, -0.1)
    tail = np.linspace(1.0, 5.0, 81)
    grid = np.concatenate([-tail[::-1], np.linspace(-1.0, 1.0, 201)[1:-1],
                           tail])
    for ev in result.eigenvalues:
        ef = sd.reconstruct_eigenfunction(result.problem, ev.energy, grid)
        decay = np.exp(-math.sqrt(-2.0 * ev.energy) * (tail - 1.0))
        assert np.max(np.abs(ef.psi[-81:] - ef.psi[-81] * decay)) <= 1e-12
        assert np.max(np.abs(ef.psi[80::-1] - ef.psi[80] * decay)) <= 1e-12
        assert ef.node_count() == ev.n
    # a series tail's end is where its cue holds: nothing reaches past it
    hydrogen = sd.find_eigenvalues(sd.problem_for(sd.Coulomb()), -0.6, -0.4)
    a, b = hydrogen.problem.interval
    for grid in ([0.5 * a, 1.0], [1.0, 2.0 * b]):
        with pytest.raises(DomainError, match="grid"):
            sd.reconstruct_eigenfunction(hydrogen.problem, -0.5, grid)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10 stage A: psi is "
                   "normalised by the trapezoid rule on the caller's grid "
                   "only, not over the whole line")
def test_eigenfunction_is_normalized_over_the_whole_line():
    # the square well's n = 1 on its support [-1, 1], where the printed
    # grid stops, plus the exact constant tails psi(+-1)^2 / (2 kappa);
    # this sum reads 2.214, so psi is 1.49x too large
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -0.1)
    E = result.eigenvalues[1].energy
    grid = np.linspace(-1.0, 1.0, 2001)
    ef = sd.reconstruct_eigenfunction(result.problem, E, grid)
    kappa = math.sqrt(-2.0 * E)
    tails = (ef.psi[0] ** 2 + ef.psi[-1] ** 2) / (2.0 * kappa)
    assert trapezoid(ef.psi**2, ef.t) + tails == pytest.approx(1.0,
                                                               abs=1e-9)


@pytest.mark.parametrize("call, name", [
    (lambda p: sd.reconstruct_eigenfunction(p, -1.5, []), "grid"),
    (lambda p: sd.reconstruct_eigenfunction(p, -1.5, [0.0, math.nan]),
     "grid"),
    (lambda p: sd.defect_angles(p, []), "energies"),
    (lambda p: oracle.fd_eigenvalues(p, -0.1, grid_size=64.5), "grid_size"),
    (lambda p: sd.find_eigenvalues(p, -math.inf, -0.1), "E_min"),
    (lambda p: sd.defect_angles(p, [-math.inf]), "energies"),
    (lambda p: sd.count_levels(p, -math.inf), "E_ceiling"),
    (lambda p: sd.defect_angles(sd.problem_for(sd.Coulomb()),
                                [-math.inf, -0.1]), "energies"),
    (lambda p: sd.reconstruct_eigenfunction(p, math.nan, [0.0]), "E_n"),
    # a 2-d batch gave one sample of lists, and a 2-d grid a 2-d t
    (lambda p: sd.defect_angles(p, [[-1.5, -1.0]]), "energies"),
    (lambda p: sd.reconstruct_eigenfunction(p, -1.47, [[0.0, 0.5]]),
     "grid"),
], ids=["empty-grid", "nan-grid-point", "no-energies", "fractional-grid-size",
        "infinite-e-min", "minus-inf-energy", "minus-inf-ceiling",
        "coulomb-minus-inf-energy", "nan-eigenfunction-energy",
        "2-d-energies", "2-d-grid"])
def test_a_malformed_call_raises_a_domain_error_naming_its_argument(call,
                                                                   name):
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        call(sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0)))


@pytest.mark.parametrize("call, error, match", [
    # E_max 1e-4 under the tails, which it must clear by kappa = 1e-3
    (lambda p: sd.find_eigenvalues(p, -1.9, -1e-4), ThresholdError,
     r"^E_max = -0\.0001 does not clear the tail threshold 0\.0 by more "
     r"than kappa = 0\.001$"),
    (lambda p: sd.find_eigenvalues_scaled(sd.problem_for(
        sd.PiecewiseConstant((-1.0, 1.0), (0.0, -2.0, 1.0))), -1.9, -0.1),
     DomainError, r"^the scaled chart needs equal constant tails$"),
    (lambda p: sd.find_eigenvalues(p, -0.1, -1.9), DomainError,
     r"^need E_min < E_max$"),
], ids=["within-kappa", "scaled-unequal-tails", "reversed-window"])
def test_a_window_no_solve_takes_raises(call, error, match):
    with pytest.raises(error, match=match):
        call(sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0)))


@pytest.mark.xfail(strict=True, raises=IntegrationError, reason=(
    "ROADMAP item 3: at -1e7 the mesh's first step from the left end "
    "-142842 of the grown interval is too wide to resolve V"))
def test_a_ceiling_far_below_the_hybrid_oscillator_counts_nothing():
    # -1e5 and -1e6 count 0
    problem = sd.problem_for(sd.HybridOscillator(0.5, 1.0))
    assert sd.count_levels(problem, -1e7) == 0


_SQUARE = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
_ENERGY_PROBLEMS = {
    "square": _SQUARE,
    "square-interval": _SQUARE.with_interval(-3.0, 3.0),
    "hydrogen": sd.problem_for(sd.Coulomb()),
}
# each entry point with one energy argument free, and that argument's name;
# the others are valid on every problem above
_ENERGY_ARGUMENTS = {
    "defect_angles": (lambda p, E: sd.defect_angles(p, [-0.5, E]),
                      "energies"),
    "solve-E_min": (lambda p, E: sd.find_eigenvalues(p, E, -0.1), "E_min"),
    "solve-E_max": (lambda p, E: sd.find_eigenvalues(p, -0.5, E), "E_max"),
    "scaled-E_min": (lambda p, E: sd.find_eigenvalues_scaled(p, E, -0.1),
                     "E_min"),
    "scaled-E_max": (lambda p, E: sd.find_eigenvalues_scaled(p, -0.5, E),
                     "E_max"),
    "count": (lambda p, E: sd.count_levels(p, E), "E_ceiling"),
    "eigenfunction": (lambda p, E: sd.reconstruct_eigenfunction(p, E, [0.5]),
                      "E_n"),
    "auto_interval-E_min": (
        lambda p, E: sd.auto_interval(p, E, -0.1, sd.SolveConfig()), "E_min"),
    "auto_interval-E_max": (
        lambda p, E: sd.auto_interval(p, -0.5, E, sd.SolveConfig()), "E_max"),
    "fd": (lambda p, E: oracle.fd_eigenvalues(p, E), "E_ceiling"),
    "fd-walls": (lambda p, E: oracle.fd_eigenvalues(p, E, interval=(-5, 5)),
                 "E_ceiling"),
    "fd_interval": (lambda p, E: oracle.fd_interval(p, E), "E"),
    "transfer": (lambda p, E: oracle.transfer_mismatch(p, E), "E"),
    "root-E_lo": (lambda p, E: oracle.eigencondition_root(p, E, -1.0),
                  "E_lo"),
    "root-E_hi": (lambda p, E: oracle.eigencondition_root(p, -1.9, E),
                  "E_hi"),
}


# the entries whose argument is a batch of energies, not one
_BATCH_ENTRIES = ("defect_angles", "transfer")


def _energy_cases():
    for entry, (call, name) in _ENERGY_ARGUMENTS.items():
        for problem_id, problem in _ENERGY_PROBLEMS.items():
            if entry not in _BATCH_ENTRIES:
                yield pytest.param(
                    problem, call, np.array([-0.5, -0.4]), DomainError,
                    f"{name} must be one energy, not an array of shape (2,)",
                    id=f"{entry}-{problem_id}-array")
            for E in (math.nan, math.inf, -math.inf, 0.1, 0.5, -5e-4):
                if not math.isfinite(E):
                    error, message = DomainError, (
                        f"{name} must be finite, not {E}")
                elif entry == "fd-walls":
                    continue    # a box: its levels pass the tail threshold
                elif E < 0:
                    if problem_id == "square-interval":
                        continue    # exempt: see the test below
                    error, message = ThresholdError, (
                        f"{name} = {E} does not clear the tail threshold "
                        f"0.0 by more than kappa = 0.001")
                else:
                    error, message = ThresholdError, (
                        f"{name} = {E} is not below the tail threshold 0.0")
                if problem_id == "hydrogen" and entry == "transfer":
                    continue    # it needs constant tails before any energy
                yield pytest.param(problem, call, E, error, message,
                                   id=f"{entry}-{problem_id}-{E}")


@pytest.mark.parametrize("problem, call, E, error, message",
                         _energy_cases())
def test_every_entry_point_refuses_a_bad_energy_by_its_argument(
        problem, call, E, error, message):
    # a non-finite energy is a DomainError and one at or above the tail
    # threshold a ThresholdError, each naming the caller's argument and the
    # value.  Some once named another argument (count_levels said
    # "energies", reconstruct_eigenfunction "E_max = 0.10000000000001001"),
    # the wrong error (fd_eigenvalues: "ThresholdError: E_max = nan") or
    # none: eigencondition_root said "E", auto_interval on a set interval
    # returned, and fd_eigenvalues between walls at nan raised scipy's
    # LinAlgError.  An array given for one energy once failed untyped
    # ("truth value of an array is ambiguous", a broadcast error) or was
    # taken silently by auto_interval
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(problem, E)


def test_an_explicit_interval_is_exempt_from_the_kappa_gate():
    # the gate bounds the automatic interval; a given one needs none
    count, _ = _ENERGY_ARGUMENTS["count"]
    assert count(_ENERGY_PROBLEMS["square-interval"], -5e-4) == 2


def test_a_constant_tail_cleared_by_exactly_kappa_is_refused():
    # strict, as for a series tail, whose seed divides by |E_max| - kappa;
    # this window once solved to the 2 levels of the next one
    with pytest.raises(ThresholdError, match=r"^E_max = -0\.001 does not "):
        sd.find_eigenvalues(_SQUARE, -1.9, -1e-3)
    assert len(sd.find_eigenvalues(_SQUARE, -1.9, -1.001e-3).eigenvalues) == 2


def _without_warnings(call):
    """call(), with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


def test_an_extreme_energy_solves_without_an_overflow_warning():
    # (q h^2 / 10)^2, q = 2 (V - E), overflows in the Magnus step at
    # E = -1e300; u is then q / inf = 0, the saturation's limit, and the
    # levels are those found from E = -1e100
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    far = _without_warnings(lambda: sd.find_eigenvalues(problem, -1e300, 7.9))
    near = sd.find_eigenvalues(problem, -1e100, 7.9)
    assert len(far.eigenvalues) == len(near.eigenvalues) == 8
    assert np.allclose(far.energies, near.energies, rtol=0.0, atol=1e-10)
    # at E = -1e300 the square well's angle is pi/2 at 0: psi = cos(pi/2)
    ef = _without_warnings(lambda: sd.reconstruct_eigenfunction(
        _SQUARE, -1e300, [0.0]))
    assert ef.psi.tolist() == pytest.approx([math.cos(math.pi / 2)],
                                            rel=1e-9)


@pytest.mark.parametrize("problem, E_min, E_max", [
    (sd.problem_for(sd.Coulomb()), -1e150, -0.05),
    (sd.problem_for(sd.QuarkHybrid(0.1), l=1), -1e300, 0.6),
    (sd.problem_for(sd.Yukawa(0.1), l=1), -1e300, -0.002),
    (sd.problem_for(sd.HybridOscillator(1.0, 1.0)), -1e100, 4.0),
], ids=["coulomb", "quark_hybrid", "yukawa", "hybrid_oscillator"])
def test_an_extreme_energy_fails_the_cue_gate_without_a_warning(
        problem, E_min, E_max):
    # the quadratic term of the cue recurrence overflows: CueSeries refuses
    # the coefficients, and no boundary passes the gate
    with pytest.raises(IntervalSelectionError,
                       match="series coefficients must be finite"):
        _without_warnings(lambda: sd.find_eigenvalues(problem, E_min, E_max))


@pytest.mark.parametrize("E_min", [-1e50, -1e300, -1.7e308])
def test_the_scaled_chart_at_the_float_limit_raises_without_a_warning(E_min):
    # k = sqrt(2 (v0 - E)) is capped as the cue's gap is, and the chart's
    # overflow is silenced, so the stepper stops with an IntegrationError;
    # -1e300 once warned in scipy's first step, and -1.7e308 overflowed in
    # k and did not return
    with pytest.raises(IntegrationError, match="^integrator stopped at "):
        _without_warnings(
            lambda: sd.find_eigenvalues_scaled(_SQUARE, E_min, -0.1))


def test_an_effective_radial_potential_solves_as_its_l():
    # problem_for takes the tails of EffectiveRadial(base, l) from its l
    direct = sd.find_eigenvalues(sd.problem_for(sd.Coulomb(), l=1),
                                 -0.2, -0.01)
    wrapped = sd.find_eigenvalues(sd.problem_for(
        EffectiveRadial(sd.Coulomb(), 1)), -0.2, -0.01)
    assert wrapped.eigenvalues == direct.eigenvalues
    assert wrapped.scan == direct.scan
    assert wrapped.problem.interval == direct.problem.interval


# one problem of each family the CLI builds, the E_max of a solve on it
_CLI_FAMILIES = {
    "truncated_oscillator": (sd.problem_for(OSC4), 7.9),
    "hybrid_oscillator": (sd.problem_for(sd.HybridOscillator(0.5, 1.0)), 4.0),
    "square_well": (_SQUARE, -0.1),
    "piecewise": (sd.problem_for(sd.PiecewiseConstant(
        (-1.0, 0.0, 1.0), (0.0, -1.0, -2.0, 0.0))), -0.1),
    "coulomb": (sd.problem_for(sd.Coulomb()), -0.05),
    "yukawa": (sd.problem_for(sd.Yukawa(0.1), l=1), -0.002),
    "quark_hybrid": (sd.problem_for(sd.QuarkHybrid(0.1), l=1), 0.6),
    "tabulated": (sd.problem_for(sd.Tabulated(
        ts=(-2.0, -1.0, 0.0, 1.0, 2.0), vs=(0.0, -1.0, -2.0, -1.0, 0.0))),
        -0.1),
}


def test_every_cli_family_is_swept_to_the_float_limit():
    from spectral_defect import cli
    assert set(_CLI_FAMILIES) == set(cli._FAMILIES)


@pytest.mark.parametrize("family", list(_CLI_FAMILIES))
def test_an_energy_down_to_the_float_limit_warns_nowhere(family):
    # from about -5e307 down, 2 (V - E) or its product with a step's
    # width passes the float range: a constant tail's angle is then its
    # limit pi / 2, and a leaf or a cue series is not finite, which ends
    # in a typed error, never in a RuntimeWarning
    problem, E_max = _CLI_FAMILIES[family]
    outcomes = {}
    for E in (-1e10, -1e100, -1e200, -1e300, -1e305, -1e307, -5e307,
              -9e307, -1e308, -1.7e308):
        for name, call in (
                ("count", lambda: sd.count_levels(problem, E)),
                ("psi", lambda: sd.reconstruct_eigenfunction(
                    problem, E, [0.5]).psi.size)):
            try:
                outcomes[name, E] = _without_warnings(call)
            except SpectralDefectError as exc:
                outcomes[name, E] = type(exc)
    try:
        outcomes["solve"] = len(_without_warnings(lambda: sd.find_eigenvalues(
            problem, -1.7e308, E_max)).eigenvalues)
    except SpectralDefectError as exc:
        outcomes["solve"] = type(exc)
    if family == "square_well":
        assert [outcomes["count", E] for E in (-1e10, -1e300, -1.7e308)] == \
            [0, 0, IntegrationError]
    if family in ("coulomb", "yukawa", "quark_hybrid"):
        assert outcomes["count", -1.7e308] is IntervalSelectionError
        assert outcomes["solve"] is IntervalSelectionError


def test_solve_config_validation():
    with pytest.raises(ValueError):
        sd.SolveConfig(e_tol=-1.0)


def _seeded_lattice_wells(count, seed=2026, lattice=1.0 / 64.0, span=3.0):
    """Random wells drawn as in acceptance criterion 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_inner = int(rng.integers(1, 4))
        cells = int(span / lattice)
        edges = np.sort(rng.choice(np.arange(-cells, cells + 1),
                                   size=n_inner + 1, replace=False))
        depths = -rng.uniform(0.5, 4.0, size=n_inner)
        well = sd.PiecewiseConstant(tuple(edges * lattice),
                                    (0.0, *depths, 0.0))
        yield well, min(well.values) + 0.02, -0.02


@pytest.mark.parametrize(
    "potential, E_min, E_max",
    [(sd.SquareWell(-2.0, -1.0, 1.0), -1.9, -0.1),
     (sd.Coulomb(), -0.6, -0.03), *_seeded_lattice_wells(8)],
    ids=["square_well", "hydrogen", *(f"well{i}" for i in range(8))])
def test_brackets_are_narrow_and_certified(potential, E_min, E_max):
    result = sd.find_eigenvalues(sd.problem_for(potential), E_min, E_max)
    e_tol = result.config.e_tol
    # (midpoint, width) of every pair of neighbouring samples
    pairs = {(0.5 * (s1.E + s2.E), s2.E - s1.E): (s1, s2)
             for s1, s2 in zip(result.scan, result.scan[1:])}
    assert result.eigenvalues
    for ev in result.eigenvalues:
        assert 0 < ev.width <= e_tol
        s1, s2 = pairs[ev.energy, ev.width]
        assert s1.n_below <= ev.n < s2.n_below
        below, above = sd.defect_angles(
            result.problem, [ev.energy - 10 * e_tol, ev.energy + 10 * e_tol])
        assert below.gamma < ev.n * math.pi <= above.gamma


@settings(max_examples=10, deadline=None, database=None)
@given(well=lattice_wells(lattice=1.0 / 64.0, span=3.0, max_inner=3))
def test_root_step_finds_what_splitting_alone_finds(well):
    # the root step only adds energies inside certified pairs, so the cuts
    # alone must reach the same levels; wells as in acceptance criterion 3
    problem = sd.problem_for(well)
    e_min, e_max = min(well.values) + 0.02, -0.02
    result = sd.find_eigenvalues(problem, e_min, e_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_root_points", lambda *args: [])
        split = sd.find_eigenvalues(problem, e_min, e_max)
    assert [ev.n for ev in result.eigenvalues] == \
        [ev.n for ev in split.eigenvalues]
    assert np.allclose(result.energies, split.energies, rtol=0.0,
                       atol=result.config.e_tol)


# levels of the synthetic samplers on [0, 1]: a doublet shares a scan pair
_STEP_LEVELS = (0.123456789, 0.5, 0.5001, 0.9)


def _step_sampler(energies):
    """Gamma = pi / 2 + pi #{levels <= E}: a step of pi at each level."""
    return [spectrum.DefectSample(E=float(E), gamma=math.pi * (
        0.5 + sum(L <= E for L in _STEP_LEVELS))) for E in energies]


def _line_sampler(energies):
    """Gamma = pi (64 E + 1/2): level n at (n - 1/2) / 64."""
    return [spectrum.DefectSample(E=float(E), gamma=math.pi * (64.0 * E + 0.5))
            for E in energies]


def _points_below_the_level(keys, samples, i, n, e_tol):
    """Root points on the line's level n that never bracket it: all three
    sit below it, the nearest a 32nd of the pair away."""
    w = keys[i + 1] - keys[i]
    level = (n - 0.5) / 64.0
    return [level - w / 8, level - w / 16, level - w / 32]


@pytest.mark.parametrize("sampler, root_points", [
    (_step_sampler, None), (_line_sampler, _points_below_the_level)],
    ids=["step_gamma", "root_points_below"])
def test_a_levels_passes_stay_within_the_bisection_bound(
        monkeypatch, sampler, root_points):
    # where the root step never brackets a level, a pair skips its equal
    # cut only in a pass after its root points halved it, so it halves at
    # least every two passes: every level is bracketed to e_tol within
    # 2 ceil(log2(w_scan / e_tol)) + 1 passes, the scan's included
    config = sd.SolveConfig()
    batches, offered = [], {}   # each pass's energies and root points
    find_roots = root_points or spectrum._root_points

    def recorded_roots(*args):
        points = find_roots(*args)
        offered.setdefault(len(batches), set()).update(points)
        return points

    def recorded_sampler(energies):
        batches.append(sorted(energies))
        return sampler(energies)

    monkeypatch.setattr(spectrum, "_root_points", recorded_roots)
    levels, _ = spectrum._scan_and_split(recorded_sampler, 0.0, 1.0, config)
    w_scan = 1.0 / (spectrum._SCAN_SAMPLES - 1)
    bound = 2 * math.ceil(math.log2(w_scan / config.e_tol)) + 1
    keys, done, uncut = [], {}, 0   # done: level -> passes to reach e_tol
    for t, batch in enumerate(batches):
        if t >= 2:
            # every pair of one level that gets energies without its equal
            # cut had a root point of the last pass for an end, and at most
            # half the width of the pair that pass cut
            parent = sorted(set(keys) - set(batches[t - 1]))
            credit = offered[t - 1] & set(batches[t - 1])
            for e1, e2, lo, hi in zip(keys, keys[1:], counts, counts[1:]):
                j = np.searchsorted(batch, e1, side="right")
                if (hi - lo != 1 or j == len(batch) or batch[j] >= e2
                        or e1 + (e2 - e1) / 2 in batch):
                    continue
                uncut += 1
                assert {e1, e2} & credit
                j = np.searchsorted(parent, e1, side="right")
                assert e2 - e1 <= 0.5 * (parent[j] - parent[j - 1])
        keys = sorted(keys + batch)
        counts = [s.n_below for s in sampler(keys)]
        for e1, e2, lo, hi in zip(keys, keys[1:], counts, counts[1:]):
            if e2 - e1 <= config.e_tol:
                for n in range(lo, hi):
                    done.setdefault(n, t + 1)
    assert sorted(done) == [ev.n for ev in levels]
    assert max(done.values()) <= bound
    assert uncut


def _scan_and_split_by_rescans(sample_fn, E_min, E_max, config):
    """The search as it was before it revisited only the brackets it cut:
    every pass rescans every pair, with one np.linspace per cut pair.  A
    pair holding one level skips its cut, as there, when one of its ends is
    a root point of the last pass, it is at most half as wide as the pair
    that pass cut, and its own root points land inside it.  The reference
    for `spectrum._scan_and_split`, which must match it bit for bit."""
    Es = list(np.linspace(E_min, E_max, spectrum._SCAN_SAMPLES))
    samples = dict(zip(Es, sample_fn(Es)))
    below = {E: s.n_below for E, s in samples.items()}
    credited = set()    # first ends of the pairs the last root step halved
    while True:
        keys = sorted(samples)
        counts = [below[E] for E in keys]
        inner, cut = set(), []
        for i, (lo, hi) in enumerate(zip(counts, counts[1:])):
            e1, e2 = keys[i], keys[i + 1]
            if not (hi > lo and e2 - e1 > config.e_tol):
                continue
            roots = set()
            for n in range(lo, hi):
                roots.update(E for E in spectrum._root_points(
                    keys, samples, i, n, config.e_tol) if e1 < E < e2)
            points = set(roots)
            if not (roots and hi - lo == 1 and e1 in credited):
                points.update(E for E in np.linspace(
                    e1, e2, spectrum._SPLIT * (hi - lo) + 1)[1:-1]
                    if e1 < E < e2)
            cut.append(([e1, *sorted(points), e2], roots))
            inner |= points
        if not inner:
            break
        credited = {e1 for ends, roots in cut
                    for e1, e2 in zip(ends, ends[1:])
                    if (e1 in roots or e2 in roots)
                    and e2 - e1 <= 0.5 * (ends[-1] - ends[0])}
        inner = sorted(inner)
        added = dict(zip(inner, sample_fn(inner)))
        samples.update(added)
        below.update((E, s.n_below) for E, s in added.items())
    levels = {}
    for (e1, e2), lo, hi in zip(zip(keys, keys[1:]), counts, counts[1:]):
        for n in range(lo, hi):
            levels.setdefault(n, spectrum.Eigenvalue(
                n=n, energy=0.5 * (e1 + e2), width=e2 - e1))
    return tuple(levels.values()), tuple(samples[E] for E in keys)


def _assert_search_is_the_rescans(problem, E_min, E_max, config):
    series = cues.side_series(problem, E_min, E_max)
    window = spectrum._window(problem, E_min, E_max, config, series)
    sample_fn = spectrum._matched_sampler(problem, config, window, E_min,
                                          E_max, series)
    got, want = (
        [np.array([(ev.n, ev.energy, ev.width) for ev in levels]).tobytes(),
         np.array([(s.E, s.gamma) for s in scan]).tobytes()]
        for levels, scan in (
            spectrum._scan_and_split(sample_fn, E_min, E_max, config),
            _scan_and_split_by_rescans(sample_fn, E_min, E_max, config)))
    assert got == want


@settings(max_examples=10, deadline=None, database=None)
@given(well=lattice_wells(lattice=1.0 / 64.0, span=3.0, max_inner=3))
def test_the_search_is_the_rescans_on_lattice_wells(well):
    _assert_search_is_the_rescans(sd.problem_for(well),
                                  min(well.values) + 1e-3, -0.02,
                                  sd.SolveConfig())


@pytest.mark.parametrize("problem, E_min, E_max", [
    (sd.problem_for(sd.Coulomb()), -0.6, -0.0045),
    (sd.problem_for(sd.Coulomb(), l=1), -0.2, -0.01),
    (sd.problem_for(sd.Coulomb(), l=2), -0.1, -0.01),
    (sd.problem_for(sd.TruncatedOscillator(1.0, 4.0)), 1e-6, 7.998),
], ids=["hydrogen_l0", "hydrogen_l1", "hydrogen_l2", "truncated_a4"])
def test_the_search_is_the_rescans(problem, E_min, E_max):
    # a later pass examines only the pairs inside the brackets the last one
    # cut: every other pair got no energy, so a rescan finds nothing new
    _assert_search_is_the_rescans(problem, E_min, E_max, sd.SolveConfig())


def _dropping_sampler(drop):
    """Gamma near 225 (the deep oscillator's) with one level at E = 0.3 and
    a drop of `drop` at E = 0.7."""
    def sample(energies):
        return [spectrum.DefectSample(
            E=float(E), gamma=225.0 + math.pi * (E >= 0.3) - drop * (E >= 0.7))
            for E in energies]
    return sample


def test_monotone_allowance_scales_with_gamma():
    # TruncatedOscillator(1, 12) on (0, 71.99) drops 1.5e-9 at Gamma ~ 225,
    # noise that an absolute 1e-9 allowance took for a broken cue
    config = sd.SolveConfig()
    levels, scan = spectrum._scan_and_split(_dropping_sampler(1.5e-9), 0.0,
                                            1.0, config)
    assert [ev.n for ev in levels] == [72]
    assert abs(levels[0].energy - 0.3) <= config.e_tol
    assert min(s2.gamma - s1.gamma for s1, s2 in zip(scan, scan[1:])) \
        == pytest.approx(-1.5e-9)
    with pytest.raises(MonotonicityError, match="decreased by 1.000e-06"):
        spectrum._scan_and_split(_dropping_sampler(1e-6), 0.0, 1.0, config)


def _counted_passes(monkeypatch):
    """The batch size of every integration pass a solve makes from now on."""
    passes = []

    def counted(problem, energies, *args):
        passes.append(len(energies))
        return integrate_angles(problem, energies, *args)

    monkeypatch.setattr(spectrum, "integrate_angles", counted)
    return passes


def _hydrogen_levels(count):
    return [-0.5 / (n + 1) ** 2 for n in range(count)]


@pytest.mark.parametrize(
    "potential, E_min, E_max, energies, budget, levels, tol", [
        (sd.Coulomb(), -0.6, -0.0045, 183, 6, _hydrogen_levels(10), 1e-8),
        (sd.Coulomb(), -0.6, -0.05, 91, 4, _hydrogen_levels(3), 1e-8),
        # the truncated oscillator's ladder, as in acceptance criterion 2
        (sd.TruncatedOscillator(1.0, 4.0), 1e-6, 7.998, 128, 4,
         [n + 0.5 for n in range(8)], 0.1),
    ], ids=["hydrogen", "hydrogen_cli", "truncated_a4"])
def test_energy_and_pass_budget(monkeypatch, potential, E_min, E_max,
                                energies, budget, levels, tol):
    # a pass costs in proportion to its energies, so the energies a solve
    # evaluates are its cost
    passes = _counted_passes(monkeypatch)
    result = sd.find_eigenvalues(sd.problem_for(potential), E_min, E_max)
    assert len(result.scan) == sum(passes) <= energies
    assert len(passes) <= budget
    assert [ev.n for ev in result.eigenvalues] == list(range(len(levels)))
    assert np.allclose(result.energies, levels, rtol=0.0, atol=tol)


def test_a_long_constant_tail_costs_a_solve_nothing(monkeypatch):
    # both intervals settle onto the support (-1, 1), so a solve on (-1e5,
    # 1) takes the passes and Gamma evaluations of one on (-100, 1), and
    # finds the same levels (c sought over the whole interval was -1e5: 18
    # passes, 192 energies)
    well = sd.SquareWell(-2.0, -1.0, 1.0)
    passes = _counted_passes(monkeypatch)
    runs = []
    for a in (-100.0, -100000.0):
        passes.clear()
        result = sd.find_eigenvalues(sd.problem_for(well, interval=(a, 1.0)),
                                     -1.9, -0.1)
        runs.append((len(passes), sum(passes), result.energies))
    (near, near_evals, near_levels), (far, far_evals, far_levels) = runs
    assert near == far == 3 and near_evals == far_evals == 78
    assert far_levels.tolist() == near_levels.tolist()


def test_splitting_stops_at_float_resolution(monkeypatch):
    # an e_tol below the float spacing near the levels cannot be met; the
    # brackets stop one float step or so wide instead of collapsing to 0
    passes = _counted_passes(monkeypatch)
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -0.1,
                                 sd.SolveConfig(e_tol=1e-20))
    assert len(passes) <= 20
    assert len(result.eigenvalues) == 2
    for ev in result.eigenvalues:
        assert 0 < ev.width <= 4 * np.spacing(abs(ev.energy))
