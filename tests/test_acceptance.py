"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with -s or in failure
output) and asserts the same condition, so the suite stays honest.
"""

import math
import time

import numpy as np
import pytest

import spectral_defect as sd
from spectral_defect import oracle


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def hydrogen():
    # ceiling -0.0045 puts exactly the first ten levels in the window;
    # the eleventh sits at -1/242 ~ -0.00413
    problem = sd.problem_for(sd.Coulomb())
    t0 = time.perf_counter()
    result = sd.find_eigenvalues(problem, -0.6, -0.0045)
    return result, time.perf_counter() - t0


def lattice_well(rng, lattice=1.0 / 64.0, span=3.0, max_segments=3):
    """Random piecewise-constant well with breakpoints on a fixed lattice.

    The lattice keeps the wells compatible with node-aligned fd grids
    without making them any less random at the scales that matter.
    """
    n_inner = int(rng.integers(1, max_segments + 1))
    cells = int(span / lattice)
    edges = rng.choice(np.arange(-cells, cells + 1), size=n_inner + 1,
                       replace=False)
    edges = np.sort(edges) * lattice
    depths = -rng.uniform(0.5, 4.0, size=n_inner)
    return sd.PiecewiseConstant(tuple(edges), (0.0, *depths, 0.0))


def test_criterion_1_hydrogen_table(hydrogen):
    result, elapsed = hydrogen
    exact = [-0.5 / (n + 1) ** 2 for n in range(10)]
    count_ok = len(result.eigenvalues) == 10
    worst = max(abs(ev.energy - ref)
                for ev, ref in zip(result.eigenvalues, exact)) \
        if count_ok else math.inf
    ok = count_ok and worst <= 1e-8 and elapsed <= 60.0
    report(1, "hydrogen levels -1/(2(n+1)^2), n = 0..9", ok,
           f"{len(result.eigenvalues)} levels, worst error {worst:.2e}, "
           f"{elapsed:.1f} s")


def test_criterion_2_truncated_oscillator_counts():
    details = []
    ok = True
    for cutoff, expect_count, (L, grid) in ((2.0, 2, (34.0, 16999)),
                                            (4.0, 8, (36.0, 17999))):
        problem = sd.problem_for(sd.TruncatedOscillator(1.0, cutoff))
        ceiling = 0.5 * cutoff**2 - 2e-3
        result = sd.find_eigenvalues(problem, 1e-6, ceiling)
        count = sd.count_levels(problem, ceiling)
        fd = oracle.fd_eigenvalues(problem, min(ceiling, 7.6),
                                   grid_size=grid, interval=(-L, L))
        fd_ok = len(fd) == len(result.eigenvalues) and all(
            abs(g - ev.energy) < 1e-6
            for g, ev in zip(fd.energies, result.eigenvalues))
        ladder_ok = all(abs(ev.energy - (ev.n + 0.5)) < 0.1
                        for ev in result.eigenvalues) if cutoff == 4.0 \
            else True
        ok = ok and count == expect_count \
            and len(result.eigenvalues) == expect_count and fd_ok \
            and ladder_ok
        details.append(f"a={cutoff:g}: {count} levels")
    report(2, "truncated oscillator counts 2 and 8, fd-checked", ok,
           ", ".join(details))


def test_criterion_3_defect_monotonicity():
    rng = np.random.default_rng(2026)
    worst_drop = -math.inf
    for _ in range(50):
        well = lattice_well(rng)
        problem = sd.problem_for(well)
        depth = min(well.values)
        energies = np.linspace(depth + 0.02, -0.02, 20)
        gammas = [s.gamma for s in sd.defect_angles(problem, energies)]
        worst_drop = max(worst_drop,
                         max(g1 - g2 for g1, g2 in zip(gammas, gammas[1:])))
    ok = worst_drop < 1e-9
    report(3, "Gamma strictly increasing on 50 random wells x 20 energies",
           ok, f"worst decrease {worst_drop:.2e}")


def _transfer_root(problem, energy):
    for delta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        lo, hi = energy - delta, energy + delta
        try:
            return oracle.eigencondition_root(problem, lo, hi)
        except sd.SpectralDefectError:
            continue
    raise AssertionError(f"no mismatch bracket near E = {energy}")


def test_criterion_4_oracle_triangle():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    ok = True
    for _ in range(20):
        well = lattice_well(rng, span=2.5)
        problem = sd.problem_for(well)
        depth = min(well.values)
        result = sd.find_eigenvalues(problem, depth + 1e-3, -0.1)
        fd = oracle.fd_eigenvalues(problem, -0.1, grid_size=24575,
                                   interval=(-24.0, 24.0))
        if len(fd) != len(result.eigenvalues):
            ok = False
            break
        for ev, fd_e in zip(result.eigenvalues, fd.energies):
            root = _transfer_root(problem, ev.energy)
            mism = abs(oracle.transfer_mismatch(problem, root))
            spread = max(abs(ev.energy - fd_e), abs(ev.energy - root),
                         abs(root - fd_e))
            worst = max(worst, spread)
            ok = ok and spread < 1e-6 and mism < 1e-8
            checked += 1
    report(4, "spectrum / transfer-matrix / fd pairwise within 1e-6", ok,
           f"{checked} levels, worst spread {worst:.2e}")


def test_criterion_5_scaled_flow_reconciliation():
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    plain = sd.find_eigenvalues(problem, 1e-6, 8.0 - 2e-3)
    scaled = sd.find_eigenvalues_scaled(problem, 1e-6, 8.0 - 2e-3)
    count_ok = len(plain.eigenvalues) == len(scaled.eigenvalues) == 8
    worst = max(abs(a.energy - b.energy) for a, b in
                zip(plain.eigenvalues, scaled.eigenvalues)) \
        if count_ok else math.inf
    ok = count_ok and worst < 1e-8
    report(5, "scaled chart matches plain pipeline", ok,
           f"worst difference {worst:.2e}")


def test_criterion_6_cue_residual_decay():
    from spectral_defect.cues import (CoulombTail, OscillatorTail,
                                      verify_cue_residual)
    pure = sd.HybridOscillator(1.0, 1.0)

    series = OscillatorTail(1.0).cue_series(0.7, 6)
    ts = np.geomspace(5.0, 50.0, 16)
    res = [verify_cue_residual(series, pure, 0, 0.7, t) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
    slope_ok = abs(slope - (-6.0)) < 0.5

    osc_exact = OscillatorTail(1.0).cue_series(0.5)
    coul_exact = CoulombTail(0).cue_series(-0.5)
    sentinel_ok = (verify_cue_residual(osc_exact, pure, 0, 0.5, 10.0) <= 1e-13
                   and verify_cue_residual(coul_exact, sd.Coulomb(), 0, -0.5,
                                           40.0) <= 1e-13)

    osc_problem = sd.problem_for(pure)
    osc_ground = sd.find_eigenvalues(osc_problem, 1e-6, 0.9).eigenvalues
    coul_problem = sd.problem_for(sd.Coulomb())
    coul_ground = sd.find_eigenvalues(coul_problem, -0.6, -0.4).eigenvalues
    pipeline_ok = (len(osc_ground) == 1
                   and abs(osc_ground[0].energy - 0.5) <= 1e-9
                   and len(coul_ground) == 1
                   and abs(coul_ground[0].energy + 0.5) <= 1e-9)

    ok = slope_ok and sentinel_ok and pipeline_ok
    report(6, "cue residual slope -N and exact sentinels", ok,
           f"slope {slope:.2f}, sentinels {'exact' if sentinel_ok else 'off'}")


def test_criterion_7_hybrid_oscillator_interlacing():
    problem = sd.problem_for(sd.HybridOscillator(0.5, 1.0))
    ceiling = 5.0
    result = sd.find_eigenvalues(problem, 1e-6, ceiling)
    fd = oracle.fd_eigenvalues(problem, ceiling, grid_size=16383,
                               interval=(-16.0, 16.0))
    fd_ok = len(fd) == len(result.eigenvalues) and all(
        abs(g - ev.energy) < 1e-6
        for g, ev in zip(fd.energies, result.eigenvalues))
    interlace_ok = all(
        0.5 * (ev.n + 0.5) < ev.energy < 1.0 * (ev.n + 0.5)
        for ev in result.eigenvalues)
    ok = fd_ok and interlace_ok and len(result.eigenvalues) > 0
    report(7, "hybrid oscillator fd-checked and ladder-interlaced", ok,
           f"{len(result.eigenvalues)} levels below {ceiling}")


def test_criterion_8_quark_spacing_regularity():
    problem = sd.problem_for(sd.QuarkHybrid(omega=math.sqrt(5e-5)))
    result = sd.find_eigenvalues(problem, -0.52, 0.05)
    upper = [ev.energy for ev in result.eigenvalues if ev.energy > -0.01]
    spacings = np.diff(upper)
    rsd = float(np.std(spacings) / np.mean(spacings))
    ok = len(spacings) >= 2 and rsd < 0.10
    report(8, "quark well spacings above -0.01 nearly uniform", ok,
           f"{len(upper)} levels, relative spread {rsd:.1%}")


def test_criterion_9_interval_robustness(hydrogen):
    result, _ = hydrogen
    a, b = result.problem.interval
    widened = sd.problem_for(sd.Coulomb(), interval=(2.0 * a, 2.0 * b))
    redone = sd.find_eigenvalues(widened, -0.6, -0.0045)
    count_ok = len(redone.eigenvalues) == len(result.eigenvalues)
    worst = max(abs(x.energy - y.energy) for x, y in
                zip(result.eigenvalues, redone.eigenvalues)) \
        if count_ok else math.inf
    ok = count_ok and worst < 1e-9
    report(9, "hydrogen stable under doubled interval", ok,
           f"worst shift {worst:.2e}")
