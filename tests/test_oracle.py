import math

import numpy as np
import pytest

import spectral_defect as sd
from spectral_defect import angular, oracle
from spectral_defect.angular import integrate_angles
from spectral_defect.errors import DomainError


def test_fd_reproduces_particle_in_a_box():
    # Dirichlet box of width pi: E_n = (n+1)^2 / 2
    flat = sd.PiecewiseConstant((0.0,), (0.0, 0.0))
    problem = sd.problem_for(flat, interval=(0.0, math.pi))
    fd = oracle.fd_eigenvalues(problem, 13.0, grid_size=2048,
                               interval=(0.0, math.pi))
    expect = [(n + 1) ** 2 / 2.0 for n in range(5)]
    assert len(fd) == 5
    for got, ref, err in zip(fd.energies, expect, fd.errors):
        assert abs(got - ref) < max(1e-8, 10 * err)


def _transfer(problem, E):
    """u(b, a) over the problem's interval, or its support without one: both
    canonical columns carried at E in one `_propagate` call."""
    bp = problem.potential.breakpoints()
    a, b = problem.interval or (min(bp), max(bp))
    return oracle._propagate(problem.effective_potential(),
                             np.array([E, E]), a, b, np.eye(2),
                             sd.SolveConfig())


def test_transfer_matrix_closed_form_forbidden_region():
    """Over a constant stretch u = [[cosh ks, sinh(ks) k^-1], ...]."""
    level, E, length = 1.0, -0.5, 0.7
    flat = sd.PiecewiseConstant((0.0,), (level, level))
    problem = sd.problem_for(flat, interval=(0.0, length))
    u = _transfer(problem, E)
    k = math.sqrt(2.0 * (level - E))
    s = k * length
    expect = np.array([[math.cosh(s), math.sinh(s) / k],
                       [k * math.sinh(s), math.cosh(s)]])
    assert np.allclose(u, expect, atol=1e-10)


def test_transfer_matrix_closed_form_allowed_region():
    depth, E, length = -2.0, -0.5, 1.3
    flat = sd.PiecewiseConstant((0.0,), (depth, depth))
    problem = sd.problem_for(flat, interval=(0.0, length))
    u = _transfer(problem, E)
    k = math.sqrt(2.0 * (E - depth))
    s = k * length
    expect = np.array([[math.cos(s), math.sin(s) / k],
                       [-k * math.sin(s), math.cos(s)]])
    assert np.allclose(u, expect, atol=1e-10)


def test_transfer_matrix_is_symplectic():
    # det(u) = 1; cancellation between the hyperbolic entries limits how
    # sharply this can be checked once forbidden stretches grow solutions
    # (none grows past the rescale limit here, so no column is scaled)
    rng = np.random.default_rng(11)
    for _ in range(5):
        edges = np.sort(rng.uniform(-2.5, 2.5, size=3))
        vals = (0.0, *rng.uniform(-2.0, 0.0, size=2), 0.0)
        well = sd.PiecewiseConstant(tuple(edges), vals)
        problem = sd.problem_for(well)
        u = _transfer(problem, rng.uniform(-1.5, -0.2))
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-6)


def test_rescaling_keeps_entries_finite():
    # a long forbidden stretch grows like exp(k length) ~ e^500; without
    # rescaling the entries would overflow double precision, and with it
    # each column ends at most at the rescale limit
    flat = sd.PiecewiseConstant((0.0,), (2.0, 2.0))
    problem = sd.problem_for(flat, interval=(0.0, 200.0))
    u = _transfer(problem, -2.0)
    assert np.all(np.isfinite(u))
    assert np.all(np.max(np.abs(u), axis=0) <= oracle._RESCALE_LIMIT)
    # the image of any state aligns with the expanding direction (1, k)
    k = math.sqrt(2.0 * (2.0 - (-2.0)))
    out = u @ np.array([1.0, 0.0])
    assert out[1] / out[0] == pytest.approx(k, rel=1e-8)


def test_transfer_matrix_is_one_propagation(monkeypatch):
    # both columns in one pass: one solve_ivp per rescale checkpoint, and
    # (-4, 4) spans two of them
    calls = []
    solve_ivp = angular.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(angular, "solve_ivp", counting)
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    u = _transfer(problem, 2.5)
    assert len(calls) == 2
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-8)


def test_phase_angle_agrees_with_angular_flow():
    """atan2(p, q) mod pi must reproduce the angular integration."""
    well = sd.SquareWell(-2.0, -1.0, 1.0)
    problem = sd.problem_for(well, interval=(-1.0, 1.0))
    E = -0.8
    alpha0 = 0.6
    q, p = _transfer(problem, E) @ np.array(
        [math.cos(alpha0), math.sin(alpha0)])
    alphas, _ = integrate_angles(problem, [E], [alpha0], [0.0], -1.0, 1.0,
                                 1.0, sd.SolveConfig())
    alpha = alphas[0]
    wrapped = (math.atan2(p, q) - alpha + math.pi / 2) % math.pi - math.pi / 2
    assert wrapped == pytest.approx(0.0, abs=1e-9)


def test_a_batched_mismatch_agrees_with_single_energies():
    # one propagation per half for the whole batch; DOP853 then steps on
    # the error of every column at once, so the values move only within
    # the integrator's tolerance
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    energies = np.linspace(0.1, 7.9, 24)
    batch = oracle.transfer_mismatch(problem, energies)
    single = [oracle.transfer_mismatch(problem, float(E)) for E in energies]
    assert isinstance(batch, np.ndarray) and batch.shape == energies.shape
    assert all(isinstance(x, float) for x in single)
    assert np.max(np.abs(batch - single)) <= 1e-10


def test_eigencondition_agrees_with_defect_pipeline():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -2e-3)
    for ev in result.eigenvalues:
        root = oracle.eigencondition_root(problem, ev.energy - 1e-4,
                                          ev.energy + 1e-4)
        assert root == pytest.approx(ev.energy, abs=1e-8)
        assert abs(oracle.transfer_mismatch(problem, root)) < 1e-8


def test_eigencondition_root_rejects_the_wrap():
    # the mismatch jumps from pi/2 to -pi/2 at -0.49946 on this bracket, a
    # sign change brentq takes for the root; the only level is -1.11235
    problem = sd.problem_for(
        sd.PiecewiseConstant((-1.0, 0.0, 1.0), (0.0, -2.0, -1.0, 0.0)))
    with pytest.raises(DomainError, match=r"\[-1.99, -0.01\]"):
        oracle.eigencondition_root(problem, -1.99, -0.01)
    assert oracle.eigencondition_root(problem, -1.2, -1.0) == \
        pytest.approx(-1.11235, abs=1e-5)


def test_transfer_requires_constant_tails():
    problem = sd.problem_for(sd.Coulomb())
    with pytest.raises(DomainError):
        oracle.transfer_mismatch(problem, -0.5)


def test_a_potential_with_no_breakpoints_is_matched_on_its_unit_support(
        monkeypatch):
    # with fewer than two breakpoints the support is +-1 about the step, as
    # `auto_interval` takes it; on V = 0 each decaying direction is carried
    # unchanged, so the mismatch is 2 atan(k) mod pi
    starts = []
    propagate = oracle._propagate

    def recording(potential, energies, s0, s1, y, config):
        starts.append(s0)
        return propagate(potential, energies, s0, s1, y, config)

    monkeypatch.setattr(oracle, "_propagate", recording)
    problem = sd.problem_for(sd.PiecewiseConstant((), (0.0,)))
    energies = np.array([-2.0, -0.5, -0.01])
    mismatch = oracle.transfer_mismatch(problem, energies)
    assert starts == [-1.0, 1.0]
    want = 2.0 * np.arctan(np.sqrt(-2.0 * energies))
    want[want > math.pi / 2] -= math.pi
    assert mismatch == pytest.approx(want, abs=1e-10)


def test_fd_matches_defect_pipeline_on_truncated_oscillator():
    # the interval is chosen so the potential kinks at +-2 fall exactly on
    # grid nodes of both nested grids; otherwise the Richardson step is
    # polluted by the non-smooth O(h^2) alignment error
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 2.0))
    result = sd.find_eigenvalues(problem, 1e-6, 2.0 - 2e-3)
    fd = oracle.fd_eigenvalues(problem, 2.0 - 2e-3, grid_size=16999,
                               interval=(-34.0, 34.0))
    assert len(fd) == len(result.eigenvalues)
    for got, ev in zip(fd.energies, result.eigenvalues):
        assert got == pytest.approx(ev.energy, abs=1e-6)


@pytest.mark.parametrize("right", [0.5, 1.0])
def test_square_well_levels_match_the_fd_oracle(right):
    # the right edge falls on a node of both fd grids; that node must read
    # the outer level, as the step is right-continuous
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, right))
    result = sd.find_eigenvalues(problem, -2.0 + 1e-3, -0.1)
    fd = oracle.fd_eigenvalues(problem, -0.1, grid_size=24575,
                               interval=(-24.0, 24.0))
    assert len(fd) == len(result.eigenvalues) > 0
    for ev, fd_e, err in zip(result.eigenvalues, fd.energies, fd.errors):
        assert abs(ev.energy - fd_e) <= err


@pytest.mark.parametrize("l, E_min, levels", [(0, -2.5, 4), (1, -0.6, 3)])
def test_a_charged_coulomb_well_with_an_oscillator_term_matches_the_fd_oracle(
        l, E_min, levels):
    # charge 2 and omega 0.1 together: the cues of both tails carry both
    problem = sd.problem_for(sd.Coulomb(2.0, 0.1), l=l)
    result = sd.find_eigenvalues(problem, E_min, 0.3)
    fd = oracle.fd_eigenvalues(
        problem, 0.3, grid_size=8192,
        interval=oracle.fd_interval(problem, result.energies[-1]))
    keep = fd.energies >= E_min
    assert len(result.eigenvalues) == np.count_nonzero(keep) == levels
    for ev, fd_e, err in zip(result.eigenvalues, fd.energies[keep],
                             fd.errors[keep]):
        assert abs(ev.energy - fd_e) <= err


@pytest.mark.parametrize("E", [
    math.nan, math.inf, -math.inf, [-1.0, math.nan], [math.inf, -1.0],
    [-1.0, -0.5, -math.inf]],
    ids=["nan", "inf", "minus-inf", "batch-nan", "batch-inf",
         "batch-minus-inf"])
def test_the_transfer_oracle_rejects_a_non_finite_energy(E):
    # solve_ivp once stepped on without end at E = nan or inf, and nan or
    # +inf once reached the threshold test, whose error names no value
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    with pytest.raises(DomainError, match=r"\bE must be finite"):
        oracle.transfer_mismatch(problem, np.array(E) if isinstance(E, list)
                                 else E)


def test_fd_between_given_walls_takes_a_ceiling_above_the_tails():
    # the walls make a box, whose levels go on past the tail level 0
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    fd = oracle.fd_eigenvalues(problem, 0.5, interval=(-5.0, 5.0))
    assert np.allclose(fd.energies, [-1.4697, -0.2008, 0.2682, 0.4189],
                       rtol=0.0, atol=1e-4)


@pytest.mark.parametrize("E", [-0.5, 0.5])
def test_the_transfer_oracle_refuses_series_tails_before_their_energies(E):
    with pytest.raises(DomainError, match="need constant tails"):
        oracle.transfer_mismatch(sd.problem_for(sd.Coulomb()), E)


def test_fd_rejects_tiny_grid():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    with pytest.raises(DomainError):
        oracle.fd_eigenvalues(problem, -0.1, grid_size=16)


def test_fd_walls_whose_grid_step_squares_to_infinity_raise():
    # explicit walls are taken as given: (1e300 - 1e299) / 4097 ~ 2e296
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    with pytest.raises(DomainError, match="has no finite nonzero square"):
        oracle.fd_eigenvalues(problem, -0.1, interval=(1e299, 1e300))
