"""The level-count guarantee at its edges: doublets, the tail threshold, a
misconfigured cue, a well 72 levels deep and tails 1,000 long."""

import time
import warnings
from unittest import mock

import numpy as np
import pytest

import spectral_defect as sd
from spectral_defect import angular, cues, oracle
from spectral_defect.errors import MonotonicityError, ThresholdError


def double_well(barrier):
    """Two wells of depth -4 and width 2, `barrier` apart, symmetric."""
    h = barrier / 2.0
    return sd.PiecewiseConstant((-h - 2.0, -h, h, h + 2.0),
                                (0.0, -4.0, 0.0, -4.0, 0.0))


def ramped_double_well(barrier, r=0.01):
    """double_well with each wall a ramp r wide: a `Tabulated` well, which
    the passes take by Magnus steps, not in closed form."""
    h = barrier / 2.0
    return sd.Tabulated(
        (-h - 2.0 - r, -h - 2.0, -h, -h + r, h - r, h, h + 2.0, h + 2.0 + r),
        (0.0, -4.0, -4.0, 0.0, 0.0, -4.0, -4.0, 0.0))


@pytest.mark.parametrize("well, energies", [
    (double_well(2.0), 121), (double_well(6.0), 161),
    (double_well(10.0), 142), (double_well(16.0), 118),
    (ramped_double_well(2.0), 121), (ramped_double_well(6.0), 180),
    (ramped_double_well(10.0), 180), (ramped_double_well(16.0), 180)],
    ids=["2.0", "6.0", "10.0", "16.0", "ramped-2.0", "ramped-6.0",
         "ramped-10.0", "ramped-16.0"])
def test_doublets_match_the_fd_oracle(well, energies):
    # splittings run from 3.5e-3 (barrier 2) past e_tol (barrier 10) to
    # exact degeneracy (barrier 16): a bracket holding two levels is cut 4
    # ways and gets one root step per level; the jumps sit on nodes of both
    # fd grids, the ramps' kinks do not (fd_err ~1e-5)
    problem = sd.problem_for(well)
    result = sd.find_eigenvalues(problem, -4.0 + 1e-3, -0.1)
    assert len(result.scan) <= energies
    fd = oracle.fd_eigenvalues(problem, -0.1, grid_size=24575,
                               interval=(-24.0, 24.0))
    assert [ev.n for ev in result.eigenvalues] == list(range(len(fd))) \
        == [0, 1, 2, 3]
    for ev, fd_e, err in zip(result.eigenvalues, fd.energies, fd.errors):
        assert abs(ev.energy - fd_e) <= err
        assert ev.width <= result.config.e_tol


@pytest.mark.parametrize("well", [
    ramped_double_well(6.0), ramped_double_well(10.0),
    ramped_double_well(16.0), double_well(10.0)],
    ids=["ramped-6.0", "ramped-10.0", "ramped-16.0", "10.0"])
def test_gamma_near_the_doublets_does_not_depend_on_the_block(well):
    # past a long barrier a block's product is rank one to the rounding;
    # with each node's determinant carried exactly, Gamma on and within
    # 1e-9 of every doublet level is the same at every tree block, from
    # one step-energy a block (32 over these 22 energies) to the whole
    # half, and so are the levels
    problem = sd.problem_for(well)
    window = [-4.0 + 1e-3, -0.1]
    result = sd.find_eigenvalues(problem, *window)
    levels = result.energies
    assert levels.size == 4
    # the window's ends first: the mesh is the solve's, built at them
    energies = np.concatenate([window, (levels[:, None] + np.array(
        [0.0, -1e-10, 1e-10, -1e-9, 1e-9])).ravel()])
    gammas = []
    for block in (32, 256, 2048, 8192, 16384):
        with mock.patch.object(angular, "_BLOCK", block):
            gammas.append(np.array([s.gamma for s in sd.defect_angles(
                problem, energies)]))
            assert np.all(np.abs(sd.find_eigenvalues(problem, *window).energies
                                 - levels) <= result.config.e_tol)
    for got in gammas[:-1]:
        assert np.all(np.abs(got - gammas[-1])
                      <= 1e-12 * np.maximum(1.0, np.abs(gammas[-1])))


@pytest.mark.parametrize("problem", [
    sd.problem_for(sd.Coulomb(), l=6), sd.problem_for(sd.Yukawa(0.1), l=6),
    sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))],
    ids=["coulomb", "yukawa", "square"])
@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_threshold_within_kappa_raises_up_front(problem, fraction):
    # E_max = -kappa used to put b at 1.16e19 on Coulomb; l = 6 then ran
    # for more than 10 minutes.  A constant tail is held to the same strict
    # rule, where the square well once solved at E_max = -kappa
    config = sd.SolveConfig()
    start = time.perf_counter()
    with pytest.raises(ThresholdError, match="kappa"):
        sd.find_eigenvalues(problem, -0.02, -fraction * config.kappa, config)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("potential, window, levels, side", [
    (sd.SquareWell(-4.0, -1.0, 1.0), (-3.9, -0.1), 2, "right"),
    (sd.SquareWell(-4.0, -1.0, 1.0), (-3.9, -0.1), 2, "left"),
    (sd.TruncatedOscillator(1.0, 2.0), (1e-6, 1.998), 2, "right"),
], ids=["square-right", "square-left", "truncated-right"])
def test_a_flipped_cue_breaks_monotonicity(monkeypatch, potential, window,
                                           levels, side):
    # on these wells Gamma_c stays monotone with the right cue flipped (the
    # constant tail holds the growing direction fixed), so the scan's drop
    # check would pass wrong levels; the start-angle check must catch it,
    # for the eigenfunction too
    problem = sd.problem_for(potential)
    result = sd.find_eigenvalues(problem, *window)
    assert len(result.eigenvalues) == levels
    name = f"{side}_boundary_angle"
    boundary_angle = getattr(cues, name)
    monkeypatch.setattr(cues, name, lambda problem, E, t, *series:
                        -boundary_angle(problem, E, t, *series))
    with pytest.raises(MonotonicityError, match=f"decays to the {side}"):
        sd.find_eigenvalues(problem, *window)
    with pytest.raises(MonotonicityError, match=f"decays to the {side}"):
        sd.reconstruct_eigenfunction(result.problem, result.energies[0],
                                     np.linspace(*result.problem.interval,
                                                 101))


def test_deep_truncated_oscillator_holds_every_level():
    # the tail level 72 caps a well 72 levels deep; below the cutoff at
    # |t| = 12 the bottom levels are those of the full oscillator
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 12.0))
    result = sd.find_eigenvalues(problem, 0.0, 71.99)
    assert [ev.n for ev in result.eigenvalues] == list(range(72))
    assert len(result.scan) <= 1298
    for ev in result.eigenvalues[:10]:
        assert abs(ev.energy - (ev.n + 0.5)) <= 1e-10


def test_tails_a_thousand_long_solve_quietly_and_fast():
    # each piece of the mesh doubles to its own step count, so the constant
    # tails take few steps; a step count shared by all of [a, b] needed more
    # than 2^15 and broke the scan
    well = sd.TruncatedOscillator(1.0, 4.0)
    auto = sd.find_eigenvalues(sd.problem_for(well), 1e-6, 7.998)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        wide = sd.find_eigenvalues(
            sd.problem_for(well, interval=(-1004.0, 1004.0)), 1e-6, 7.998)
        elapsed = time.perf_counter() - start
    assert [ev.n for ev in wide.eigenvalues] == list(range(8))
    assert np.allclose(wide.energies, auto.energies, rtol=0.0,
                       atol=auto.config.e_tol)
    assert elapsed < 1.0
