import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import spectral_defect as sd
from spectral_defect import cues
from spectral_defect.errors import (DomainError, IntervalSelectionError,
                                    ThresholdError)
from spectral_defect.potentials import Shifted


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
def lattice_wells(draw, lattice=1.0 / 32.0, span=2.0):
    """Piecewise-constant wells between zero tails, edges on a lattice."""
    n_inner = draw(st.integers(1, 2))
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


def test_defect_angle_negative_below_ground():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    sample = sd.defect_angle(problem, -1.9)
    assert sample.gamma < 0.0
    assert sample.n_below == 0


def test_flat_potential_has_no_levels():
    flat = sd.PiecewiseConstant((0.0,), (0.0, 0.0))
    problem = sd.problem_for(flat, interval=(-3.0, 3.0))
    assert sd.count_levels(problem, -0.05) == 0
    result = sd.find_eigenvalues(problem, -0.9, -0.05)
    assert result.eigenvalues == ()


def test_count_levels_truncated_oscillator():
    ceiling = 2.0 - 2e-3
    two = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0))
    assert sd.count_levels(two, ceiling) == 2


def test_defect_sample_counting_rule():
    assert sd.DefectSample(E=0.0, gamma=-0.3, alpha_b=0.0).n_below == 0
    assert sd.DefectSample(E=0.0, gamma=0.1, alpha_b=0.0).n_below == 1
    assert sd.DefectSample(E=0.0, gamma=3.5 * math.pi,
                           alpha_b=0.0).n_below == 4


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
        sd.defect_angle(problem, 0.5)
    with pytest.raises(ThresholdError):
        sd.auto_interval(problem, -0.5, 0.1, sd.SolveConfig())


def test_explicit_interval_is_respected():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0),
                             interval=(-9.0, 9.0))
    assert sd.auto_interval(problem, -1.9, -0.1, sd.SolveConfig()) == \
        (-9.0, 9.0)


def test_scaled_pipeline_matches_plain():
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0))
    plain = sd.find_eigenvalues(problem, 1e-6, 2.0 - 2e-3)
    scaled = sd.find_eigenvalues_scaled(problem, 1e-6, 2.0 - 2e-3)
    assert len(plain.eigenvalues) == len(scaled.eigenvalues) == 2
    for a, b in zip(plain.eigenvalues, scaled.eigenvalues):
        assert a.energy == pytest.approx(b.energy, abs=1e-8)


def test_scaled_pipeline_needs_constant_tails():
    problem = sd.problem_for(sd.Coulomb())
    with pytest.raises(DomainError):
        sd.find_eigenvalues_scaled(problem, -0.6, -0.1)


def test_eigenfunction_nodes_match_branch_index():
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    result = sd.find_eigenvalues(problem, 1e-6, 4.0)
    a, b = result.problem.interval
    grid = np.linspace(a, b, 1500)
    for ev in result.eigenvalues[:4]:
        ef = sd.reconstruct_eigenfunction(result.problem, ev.energy, grid)
        assert ef.node_count() == ev.n


def test_eigenfunction_is_normalized():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -0.1)
    a, b = result.problem.interval
    grid = np.linspace(a, b, 2000)
    ef = sd.reconstruct_eigenfunction(result.problem,
                                      result.eigenvalues[0].energy, grid)
    from scipy.integrate import trapezoid
    assert trapezoid(ef.psi**2, ef.t) == pytest.approx(1.0, abs=1e-6)
    assert ef.psi[np.argmax(np.abs(ef.psi))] > 0


def test_solve_config_validation():
    with pytest.raises(ValueError):
        sd.SolveConfig(e_tol=-1.0)
    with pytest.raises(ValueError):
        sd.SolveConfig(scan_samples=1)


def test_gamma_residual_reported():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -0.1)
    for ev in result.eigenvalues:
        assert ev.gamma_residual < 1e-6
