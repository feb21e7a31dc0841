"""The benchmark's workloads: inputs made from a seed, references, checks.

An operation is one `find_eigenvalues` call (radial, wells) or one
`cli.main(argv)` call (cli).  Each workload has a fixed cycle of operations,
one untimed warm-up operation and, where the program has a known defect on
that workload, a probe that reproduces it.  `Workload.prepare` computes
every reference before any timing starts.
"""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np
from scipy.linalg import eigh_tridiagonal

import spectral_defect as sd
from spectral_defect import cli, oracle

EXACT_TOL = 1e-8        # against closed-form levels
FD_TOL = 1e-6           # against the finite-difference oracle

# criterion-4 settings (tests/test_acceptance.py): oracle grid and interval,
# well lattice, half-width and ceiling
FD_GRID = 24575
FD_INTERVAL = (-24.0, 24.0)
LATTICE = 1.0 / 64.0
SPAN = 2.5
WELL_CEILING = -0.1
# wells per cycle for each (inner segments, levels in the window) cell, 4
# meaning 4 or more.  Apportioned to 20 wells from the shares of 20,000
# criterion-4 draws (segments uniform on 1-3): first over level counts
# (0: 3.8 %, 1: 32.9 %, 2: 37.8 %, 3: 21.4 %, 4+: 4.1 %), then over
# segment counts within each level count.  Cells left out hold 2.4 % of
# the draws between them.
WELL_MIX = {
    (1, 0): 1,
    (1, 1): 4, (2, 1): 2, (3, 1): 1,
    (1, 2): 2, (2, 2): 2, (3, 2): 3,
    (1, 3): 1, (2, 3): 1, (3, 3): 2,
    (3, 4): 1,
}

SCAN_SAMPLES = 128      # cli scan default
MONOTONE_JITTER = 1e-9  # integrator noise the program itself allows on Gamma


class WrongResult(Exception):
    """The program returned, but its output disagrees with the reference."""


@dataclass
class Op:
    """One operation.

    `run` does the work and returns its output; `check(output, ref)` returns
    the worst energy error it saw (0.0 for outputs without energies) and
    raises on a wrong count, an error above tolerance or a failed check.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, object], float]
    reference: Callable[[], object]
    ref: object = None


@dataclass
class Probe:
    """A known defect: an operation expected to raise `expected`."""

    op: Op
    expected: str
    defect: str


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: Op
    probes: List[Probe] = field(default_factory=list)

    def prepare(self):
        for op in self.ops + [self.warmup] + [p.op for p in self.probes]:
            op.ref = op.reference()


def _compare(energies, refs, tol):
    energies, refs = list(energies), list(refs)
    if len(energies) != len(refs):
        raise WrongResult(f"{len(energies)} levels, expected {len(refs)}")
    err = max((abs(e - r) for e, r in zip(energies, refs)), default=0.0)
    if not err <= tol:
        raise WrongResult(f"error {err:.3e} above {tol:g}")
    return err


def _coulomb_levels(charge, l, e_min, e_max):
    """Exact levels -Z^2 / (2 (n + l + 1)^2) inside [e_min, e_max]."""
    levels = (-charge**2 / (2.0 * (n + l + 1) ** 2) for n in range(10_000))
    return [e for e in levels if e_min <= e <= e_max]


def _solve_op(kind, problem, e_min, e_max, reference, tol):
    return Op(kind,
              run=lambda: sd.find_eigenvalues(problem, e_min, e_max),
              check=lambda result, ref: _compare(result.energies, ref, tol),
              reference=reference)


# ---------------------------------------------------------------------------
# radial: half-line Coulomb solves against exact levels
# ---------------------------------------------------------------------------

def _coulomb_op(kind, charge, l, e_min, e_max):
    problem = sd.problem_for(sd.Coulomb(charge=charge), l=l)
    return _solve_op(kind, problem, e_min, e_max,
                     lambda: _coulomb_levels(charge, l, e_min, e_max),
                     EXACT_TOL)


def radial(seed, workdir):
    ops = [
        _coulomb_op("hydrogen_l0", 1.0, 0, -0.6, -0.0045),
        _coulomb_op("hydrogen_l1", 1.0, 1, -0.2, -0.01),
        _coulomb_op("hydrogen_l2", 1.0, 2, -0.1, -0.01),
    ]
    order = np.random.default_rng(seed).permutation(len(ops))
    probe = Probe(_coulomb_op("coulomb_z2", 2.0, 0, -2.5, -0.05),
                  expected="IntervalSelectionError",
                  defect="the Coulomb tail classes ignore the charge")
    return Workload("radial", [ops[i] for i in order],
                    warmup=_coulomb_op("warmup", 1.0, 0, -0.6, -0.1),
                    probes=[probe])


# ---------------------------------------------------------------------------
# wells: random piecewise-constant wells against the fd oracle
# ---------------------------------------------------------------------------

def lattice_well(rng, n_inner):
    """Criterion-4 random well: (breakpoints, values) with n_inner segments."""
    cells = int(SPAN / LATTICE)
    edges = rng.choice(np.arange(-cells, cells + 1), size=n_inner + 1,
                       replace=False)
    edges = np.sort(edges) * LATTICE
    depths = -rng.uniform(0.5, 4.0, size=n_inner)
    return tuple(edges), (0.0, *depths, 0.0)


def rough_level_count(breakpoints, values, ceiling, grid=2001,
                      half_width=12.0):
    """Levels below `ceiling` from a coarse three-point finite-difference
    matrix; used only to sort generated wells by how much work they are."""
    t = np.linspace(-half_width, half_width, grid + 2)[1:-1]
    h = t[1] - t[0]
    v = np.asarray(values)[np.searchsorted(breakpoints, t, side="right")]
    levels = eigh_tridiagonal(1.0 / h**2 + v, np.full(grid - 1, -0.5 / h**2),
                              eigvals_only=True, select="v",
                              select_range=(v.min() - 1.0, ceiling))
    return len(levels)


def stratified_wells(rng):
    """Criterion-4 wells drawn cell by cell in the proportions of WELL_MIX.

    A well's cost is set mostly by its segment count (solve_ivp calls per
    pass) and its level count (energies per bisection pass), so fixing how
    many wells each cell gets makes every seed's cycle the same mix of work;
    plain draws made the median follow the seed.
    """
    wells = []
    for (n_inner, n_levels), count in WELL_MIX.items():
        while count:
            bp, values = lattice_well(rng, n_inner)
            found = rough_level_count(bp, values, WELL_CEILING)
            if min(found, 4) == n_levels:
                wells.append((n_inner, found, bp, values))
                count -= 1
    return wells


def _well_op(kind, well):
    problem = sd.problem_for(well)

    def reference():
        fd = oracle.fd_eigenvalues(problem, WELL_CEILING, grid_size=FD_GRID,
                                   interval=FD_INTERVAL)
        return list(fd.energies)

    return _solve_op(kind, problem, min(well.values) + 1e-3, WELL_CEILING,
                     reference, FD_TOL)


def wells(seed, workdir):
    rng = np.random.default_rng(seed)
    generated = stratified_wells(rng)
    order = rng.permutation(len(generated))
    ops = [_well_op(f"well_{n}seg_{k}lev",
                    sd.PiecewiseConstant(bp, values))
           for n, k, bp, values in (generated[i] for i in order)]
    warm = sd.PiecewiseConstant((-1.0, 1.0), (0.0, -2.0, 0.0))
    return Workload("wells", ops, warmup=_well_op("warmup", warm))


# ---------------------------------------------------------------------------
# cli: every command through cli.main on two INI files
# ---------------------------------------------------------------------------

OSC_INI = """\
[potential]
family = truncated_oscillator
omega = 1
cutoff = 4

[solve]
emin = 1e-6
emax = 7.998
ceiling = 7.998
n = 2
"""

HYDROGEN_INI = """\
[potential]
family = coulomb

[domain]
kind = halfline
l = 0

[solve]
emin = -0.6
emax = -0.05
ceiling = -0.05
n = 1
"""


def _osc_reference():
    problem = sd.problem_for(sd.TruncatedOscillator(omega=1.0, cutoff_a=4.0))
    fd = oracle.fd_eigenvalues(problem, 7.998, grid_size=FD_GRID,
                               interval=FD_INTERVAL)
    return [e for e in fd.energies if e >= 1e-6], FD_TOL, 2, 7.998


def _hydrogen_reference():
    return _coulomb_levels(1.0, 0, -0.6, -0.05), EXACT_TOL, 1, -0.05


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _check_solve(path, ref):
    levels, tol, _, _ = ref
    with open(path) as fh:
        rows = [line.split() for line in fh.read().splitlines()[1:]]
    return _compare([float(row[1]) for row in rows], levels, tol)


def _check_scan(path, ref):
    levels, _, _, _ = ref
    header, rows = _read_rows(path)
    gammas = [g for _, g in rows]
    if header != ["energy", "gamma"] or len(rows) != SCAN_SAMPLES:
        raise WrongResult(f"scan table has {len(rows)} rows")
    if min(g2 - g1 for g1, g2 in zip(gammas, gammas[1:])) < -MONOTONE_JITTER:
        raise WrongResult("scanned Gamma decreases")
    n_below = 0 if gammas[-1] < 0 else math.floor(gammas[-1] / math.pi) + 1
    if n_below != len(levels):
        raise WrongResult(f"Gamma at emax counts {n_below} levels, expected "
                          f"{len(levels)}")
    return 0.0


def _check_count(path, ref):
    with open(path) as fh:
        count = int(fh.read().strip())
    if count != len(ref[0]):
        raise WrongResult(f"count {count}, expected {len(ref[0])}")
    return 0.0


def _check_eigenfunction(path, ref):
    _, _, n, _ = ref
    _, rows = _read_rows(path)
    psi = np.array([p for _, p in rows])
    signs = np.sign(psi[np.abs(psi) > 1e-6 * np.max(np.abs(psi))])
    nodes = int(np.sum(signs[1:] * signs[:-1] < 0))
    if nodes != n:
        raise WrongResult(f"eigenfunction has {nodes} nodes, expected {n}")
    return 0.0


def _check_verify(path, ref):
    return 0.0


_CHECKS = {"solve": _check_solve, "scan": _check_scan,
           "count": _check_count, "eigenfunction": _check_eigenfunction,
           "verify": _check_verify}


def _cli_op(ini, command, workdir, reference):
    config = workdir / f"{ini}.ini"
    out = workdir / f"{ini}-{command}.out"

    def run():
        return cli.main([command, str(config), "--output", str(out)])

    def check(code, ref):
        if code != 0:
            raise WrongResult(f"exit code {code}")
        return _CHECKS[command](out, ref)

    return Op(f"{ini}_{command}", run, check, reference)


def cli_loop(seed, workdir):
    workdir = Path(workdir)
    (workdir / "osc.ini").write_text(OSC_INI)
    (workdir / "hydrogen.ini").write_text(HYDROGEN_INI)
    ops = [_cli_op("osc", cmd, workdir, _osc_reference) for cmd in _CHECKS]
    ops += [_cli_op("hydrogen", cmd, workdir, _hydrogen_reference)
            for cmd in _CHECKS if cmd != "verify"]
    order = np.random.default_rng(seed).permutation(len(ops))
    probe = Probe(_cli_op("hydrogen", "verify", workdir, _hydrogen_reference),
                  expected="AttributeError",
                  defect="oracle.transfer_mismatch reads .level of a "
                         "series tail before the constant-tail check")
    return Workload("cli", [ops[i] for i in order],
                    warmup=_cli_op("osc", "count", workdir, _osc_reference),
                    probes=[probe])


WORKLOADS = {"radial": radial, "wells": wells, "cli": cli_loop}
