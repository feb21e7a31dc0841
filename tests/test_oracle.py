import math

import numpy as np
import pytest

import spectral_defect as sd
from spectral_defect import oracle
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


def test_transfer_matrix_closed_form_forbidden_region():
    """Over a constant stretch u = [[cosh ks, sinh(ks) k^-1], ...]."""
    level, E, length = 1.0, -0.5, 0.7
    flat = sd.PiecewiseConstant((0.0,), (level, level))
    problem = sd.problem_for(flat, interval=(0.0, length))
    u = oracle.transfer_matrix(problem, E).matrix
    k = math.sqrt(2.0 * (level - E))
    s = k * length
    expect = np.array([[math.cosh(s), math.sinh(s) / k],
                       [k * math.sinh(s), math.cosh(s)]])
    assert np.allclose(u, expect, atol=1e-10)


def test_transfer_matrix_closed_form_allowed_region():
    depth, E, length = -2.0, -0.5, 1.3
    flat = sd.PiecewiseConstant((0.0,), (depth, depth))
    problem = sd.problem_for(flat, interval=(0.0, length))
    u = oracle.transfer_matrix(problem, E).matrix
    k = math.sqrt(2.0 * (E - depth))
    s = k * length
    expect = np.array([[math.cos(s), math.sin(s) / k],
                       [-k * math.sin(s), math.cos(s)]])
    assert np.allclose(u, expect, atol=1e-10)


def test_transfer_matrix_is_symplectic():
    # det(u) = 1; cancellation between the hyperbolic entries limits how
    # sharply this can be checked once forbidden stretches grow solutions
    rng = np.random.default_rng(11)
    for _ in range(5):
        edges = np.sort(rng.uniform(-2.5, 2.5, size=3))
        vals = (0.0, *rng.uniform(-2.0, 0.0, size=2), 0.0)
        well = sd.PiecewiseConstant(tuple(edges), vals)
        problem = sd.problem_for(well)
        tm = oracle.transfer_matrix(problem, rng.uniform(-1.5, -0.2))
        assert tm.det == pytest.approx(1.0, abs=1e-6)


def test_rescaling_keeps_entries_finite():
    # a long forbidden stretch grows like exp(k length) ~ e^500; without
    # rescaling the entries would overflow double precision
    flat = sd.PiecewiseConstant((0.0,), (2.0, 2.0))
    problem = sd.problem_for(flat, interval=(0.0, 200.0))
    tm = oracle.transfer_matrix(problem, -2.0)
    assert np.all(np.isfinite(tm.matrix))
    assert tm.scale_exp > 0
    # the image of any state aligns with the expanding direction (1, k)
    k = math.sqrt(2.0 * (2.0 - (-2.0)))
    out = tm.matrix @ np.array([1.0, 0.0])
    assert out[1] / out[0] == pytest.approx(k, rel=1e-8)


def test_phase_angle_agrees_with_angular_flow():
    """atan2(p, q) mod pi must reproduce the angular integration."""
    well = sd.SquareWell(-2.0, -1.0, 1.0)
    problem = sd.problem_for(well, interval=(-1.0, 1.0))
    E = -0.8
    alpha0 = 0.6
    start = oracle.PhaseState(t=-1.0, q=math.cos(alpha0), p=math.sin(alpha0))
    end = oracle.propagate_phase(problem, E, start, 1.0)
    alphas, _ = integrate_angles(problem, [E], [alpha0], -1.0, 1.0,
                                 sd.IntegratorConfig())
    alpha = alphas[0]
    wrapped = (end.angle() - alpha + math.pi / 2) % math.pi - math.pi / 2
    assert wrapped == pytest.approx(0.0, abs=1e-9)


def test_eigencondition_agrees_with_defect_pipeline():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    result = sd.find_eigenvalues(problem, -1.9, -2e-3)
    for ev in result.eigenvalues:
        root = oracle.eigencondition_root(problem, ev.energy - 1e-4,
                                          ev.energy + 1e-4)
        assert root == pytest.approx(ev.energy, abs=1e-8)
        assert abs(oracle.transfer_mismatch(problem, root)) < 1e-8


def test_transfer_requires_constant_tails():
    problem = sd.problem_for(sd.Coulomb())
    with pytest.raises(DomainError):
        oracle.transfer_matrix(problem, -0.5)


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


def test_fd_rejects_tiny_grid():
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    with pytest.raises(DomainError):
        oracle.fd_eigenvalues(problem, -0.1, grid_size=16)
