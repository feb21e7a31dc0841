"""Command-line front end: config-driven solve/scan/count/eigenfunction/verify.

The configuration is INI-style with sections [potential], [domain], [solve]
and [tolerances]; see README.md for the full key reference.  Tables go to
stdout with 12 significant digits; CSV output uses a header row, comma
delimiter and '.' decimal point regardless of locale.
"""

import argparse
import configparser
import csv
import io
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import oracle, spectrum
from .angular import IntegratorConfig
from .errors import ConfigError, SpectralDefectError
from .potentials import (Coulomb, HybridOscillator, PiecewiseConstant,
                         ProblemSpec, QuarkHybrid, SquareWell, Tabulated,
                         TruncatedOscillator, Yukawa, ConstantLevel,
                         problem_for, validate_problem)

_FAMILIES = ("truncated_oscillator", "hybrid_oscillator", "square_well",
             "piecewise", "coulomb", "yukawa", "quark_hybrid", "tabulated")


@dataclass(frozen=True)
class RunConfig:
    """Validated problem, tolerances and output settings for one run."""

    problem: ProblemSpec
    config: spectrum.SolveConfig
    params: Dict[str, float]
    energy_offset: float = 0.0
    fmt: str = "table"
    output: Optional[str] = None
    scan_out: Optional[str] = None


def _get(section, key, cast, required=False, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}' in section "
                              f"[{section.name}]", key=key)
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value {raw!r} for key '{key}' in section "
                          f"[{section.name}]: {exc}", key=key)


def _float_list(raw):
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _build_potential(section):
    family = _get(section, "family", str, required=True)
    if family not in _FAMILIES:
        raise ConfigError(f"unknown potential family {family!r}; choose one "
                          f"of {', '.join(_FAMILIES)}", key="family")
    if family == "truncated_oscillator":
        return TruncatedOscillator(
            omega=_get(section, "omega", float, required=True),
            cutoff_a=_get(section, "cutoff", float, required=True))
    if family == "hybrid_oscillator":
        return HybridOscillator(
            omega_left=_get(section, "omega_left", float, required=True),
            omega_right=_get(section, "omega_right", float, required=True))
    if family == "square_well":
        return SquareWell(depth=_get(section, "depth", float, required=True),
                          left=_get(section, "left", float, required=True),
                          right=_get(section, "right", float, required=True))
    if family == "piecewise":
        return PiecewiseConstant(
            breakpoints_=_get(section, "breakpoints", _float_list,
                              required=True),
            values=_get(section, "values", _float_list, required=True))
    if family == "coulomb":
        return Coulomb(charge=_get(section, "charge", float, default=1.0))
    if family == "yukawa":
        return Yukawa(screening_lambda=_get(section, "lambda", float,
                                            required=True))
    if family == "quark_hybrid":
        return QuarkHybrid(omega=_get(section, "omega", float, required=True))
    if family == "tabulated":
        path = _get(section, "file", str, required=True)
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return Tabulated(ts=tuple(data[:, 0]), vs=tuple(data[:, 1]))


_INTEGRATOR_KEYS = {"rel_tol": ("rel_tol", float),
                   "abs_tol": ("abs_tol", float),
                   "max_steps": ("max_steps", lambda raw: int(float(raw))),
                   "method": ("method", str)}
_SOLVE_KEYS = {"e_tol": ("e_tol", float),
               "residual_tol": ("residual_tol", float),
               "kappa": ("kappa", float),
               "n_terms": ("n_terms", int),
               "samples": ("scan_samples", int)}


def _fields(section, keys):
    """Constructor keywords for the keys present; defaults apply otherwise."""
    return {name: _get(section, key, cast)
            for key, (name, cast) in keys.items() if key in section}


def parse_config(text: str) -> RunConfig:
    """RunConfig from INI text; defaults applied for omitted tolerances."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}")
    if "potential" not in parser:
        raise ConfigError("missing required section [potential]",
                          key="potential")
    for name in ("domain", "tolerances"):
        if name not in parser:
            parser.add_section(name)
    try:
        return _build_run(parser)
    except ValueError as exc:
        # family, domain and config constructors validate their own fields
        raise ConfigError(str(exc)) from None


def _build_run(parser):
    potential = _build_potential(parser["potential"])

    domain = parser["domain"]
    kind = _get(domain, "kind", str.lower, default="wholeline")
    if kind not in ("wholeline", "halfline"):
        raise ConfigError(f"unknown domain kind {kind!r}", key="kind")
    l = None
    if kind == "halfline":
        l = _get(domain, "l", int, required=True)
    elif potential.half_line_only:
        raise ConfigError(f"{type(potential).__name__} lives on the half "
                          "line; set kind = halfline and l", key="kind")

    a, b = _get(domain, "a", float), _get(domain, "b", float)
    interval = None
    if a is not None or b is not None:
        if a is None or b is None:
            raise ConfigError("explicit intervals need both 'a' and 'b'",
                              key="a" if a is None else "b")
        interval = (a, b)

    problem = problem_for(potential, l=l, interval=interval)
    validate_problem(problem)

    offset = 0.0
    eref = _get(domain, "eref", str, default="absolute")
    if eref not in ("absolute", "tail"):
        raise ConfigError(f"unknown energy reference {eref!r}", key="eref")
    if eref == "tail":
        if not isinstance(problem.right_tail, ConstantLevel):
            raise ConfigError("eref = tail needs a constant right tail",
                              key="eref")
        offset = problem.right_tail.level

    tol = parser["tolerances"]
    solve_config = spectrum.SolveConfig(
        integrator=IntegratorConfig(**_fields(tol, _INTEGRATOR_KEYS)),
        **_fields(tol, _SOLVE_KEYS))

    params = {}
    if "solve" in parser:
        for key, raw in parser["solve"].items():
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigError(f"bad numeric value {raw!r} for key "
                                  f"'{key}' in section [solve]", key=key)
    return RunConfig(problem=problem, config=solve_config, params=params,
                     energy_offset=offset)


def _require_param(run, key):
    if key not in run.params:
        raise ConfigError(f"missing required key '{key}' in section [solve]",
                          key=key)
    return run.params[key]


def _fmt(x):
    return f"{x:.12g}"


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    out = io.StringIO() if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, float) else x
                             for x in row])
        if path is None:
            sys.stdout.write(out.getvalue())
    finally:
        out.close()


def _eigen_rows(result, offset):
    return [(ev.n, ev.energy - offset, ev.gamma_residual)
            for ev in result.eigenvalues]


def _cmd_solve(run):
    emin = _require_param(run, "emin") + run.energy_offset
    emax = _require_param(run, "emax") + run.energy_offset
    result = spectrum.find_eigenvalues(run.problem, emin, emax, run.config)
    rows = _eigen_rows(result, run.energy_offset)
    if run.fmt == "csv":
        _write_csv(run.output, ["n", "energy", "gamma_residual"], rows)
    else:
        lines = [f"{'n':>4}  {'E_n':>18}  {'gamma_residual':>14}"]
        lines += [f"{n:>4}  {_fmt(e):>18}  {_fmt(g):>14}" for n, e, g in rows]
        _emit(lines, run.output)
    if run.scan_out:
        _write_csv(run.scan_out, ["energy", "gamma"],
                   [(s.E - run.energy_offset, s.gamma) for s in result.scan])
    return 0


def _cmd_scan(run):
    emin = _require_param(run, "emin") + run.energy_offset
    emax = _require_param(run, "emax") + run.energy_offset
    samples = int(run.params.get("samples", 128))
    energies = np.linspace(emin, emax, samples)
    sams = spectrum.defect_angles(run.problem, energies, run.config)
    _write_csv(run.scan_out or run.output, ["energy", "gamma"],
               [(s.E - run.energy_offset, s.gamma) for s in sams])
    return 0


def _cmd_count(run):
    ceiling = _require_param(run, "ceiling") + run.energy_offset
    n = spectrum.count_levels(run.problem, ceiling, run.config)
    _emit([str(n)], run.output)
    return 0


def _cmd_eigenfunction(run):
    n = int(_require_param(run, "n"))
    emin = _require_param(run, "emin") + run.energy_offset
    emax = _require_param(run, "emax") + run.energy_offset
    result = spectrum.find_eigenvalues(run.problem, emin, emax, run.config)
    match = [ev for ev in result.eigenvalues if ev.n == n]
    if not match:
        raise SpectralDefectError(
            f"no branch n = {n} in [{emin}, {emax}]; found "
            f"{[ev.n for ev in result.eigenvalues]}")
    a, b = result.problem.interval
    gmin = run.params.get("grid_min", a)
    gmax = run.params.get("grid_max", b)
    points = int(run.params.get("grid_points", 2001))
    grid = np.linspace(gmin, gmax, points)
    ef = spectrum.reconstruct_eigenfunction(result.problem, match[0].energy,
                                            grid, run.config)
    _write_csv(run.output, ["t", "psi"], list(zip(ef.t, ef.psi)))
    return 0


def _cmd_verify(run):
    emin = _require_param(run, "emin") + run.energy_offset
    emax = _require_param(run, "emax") + run.energy_offset
    result = spectrum.find_eigenvalues(run.problem, emin, emax, run.config)
    grid_size = int(run.params.get("grid", 8192))
    fd = oracle.fd_eigenvalues(run.problem, emax, grid_size=grid_size,
                               config=run.config)
    fd_vals = [e for e in fd.energies if e >= emin]
    lines = [f"{'n':>4}  {'E_angular':>18}  {'E_fd':>18}  {'diff':>12}"
             f"  {'fd_err':>10}"]
    status = 0
    for i, ev in enumerate(result.eigenvalues):
        if i < len(fd_vals):
            diff = ev.energy - fd_vals[i]
            err = fd.errors[list(fd.energies).index(fd_vals[i])]
            lines.append(f"{ev.n:>4}  {_fmt(ev.energy - run.energy_offset):>18}"
                         f"  {_fmt(fd_vals[i] - run.energy_offset):>18}"
                         f"  {_fmt(diff):>12}  {_fmt(float(err)):>10}")
        else:
            lines.append(f"{ev.n:>4}  {_fmt(ev.energy - run.energy_offset):>18}"
                         f"  {'-':>18}  {'-':>12}  {'-':>10}")
            status = 1
    if len(fd_vals) != len(result.eigenvalues):
        lines.append(f"count mismatch: angular {len(result.eigenvalues)}, "
                     f"finite-difference {len(fd_vals)}")
        status = 1
    try:
        for ev in result.eigenvalues:
            mism = oracle.transfer_mismatch(result.problem, ev.energy,
                                            run.config.integrator)
            lines.append(f"transfer mismatch at n={ev.n}: {_fmt(abs(mism))}")
    except SpectralDefectError:
        lines.append("transfer-matrix check skipped (needs constant tails)")
    _emit(lines, run.output)
    return status


_COMMANDS = {
    "solve": _cmd_solve,
    "scan": _cmd_scan,
    "count": _cmd_count,
    "eigenfunction": _cmd_eigenfunction,
    "verify": _cmd_verify,
}


def run(config: RunConfig, command: str = "solve") -> int:
    """Execute one command against a parsed configuration."""
    return _COMMANDS[command](config)


def _apply_overrides(run_cfg, args):
    integ = run_cfg.config.integrator
    if args.rel_tol is not None:
        integ = replace(integ, rel_tol=args.rel_tol)
    if args.abs_tol is not None:
        integ = replace(integ, abs_tol=args.abs_tol)
    cfg = replace(run_cfg.config, integrator=integ)
    if args.e_tol is not None:
        cfg = replace(cfg, e_tol=args.e_tol)
    if args.residual_tol is not None:
        cfg = replace(cfg, residual_tol=args.residual_tol)
    problem = run_cfg.problem
    if args.interval is not None:
        problem = problem.with_interval(*args.interval)
    return replace(run_cfg, config=cfg, problem=problem,
                   fmt=args.format, output=args.output,
                   scan_out=getattr(args, "scan_out", None))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spectral-defect",
        description="Discrete Schroedinger spectra from the angular Riccati "
                    "flow and the monotone defect angle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("solve", "find eigenvalues in [emin, emax]"),
            ("scan", "emit a (E, Gamma) CSV over [emin, emax]"),
            ("count", "count levels at or below the ceiling"),
            ("eigenfunction", "emit a (t, psi) CSV for branch n"),
            ("verify", "cross-check against the matrix oracle")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="path to an INI configuration file")
        p.add_argument("--e-tol", type=float, default=None)
        p.add_argument("--rel-tol", type=float, default=None)
        p.add_argument("--abs-tol", type=float, default=None)
        p.add_argument("--residual-tol", type=float, default=None)
        p.add_argument("--interval", type=float, nargs=2, metavar=("A", "B"),
                       default=None)
        p.add_argument("--format", choices=("table", "csv"), default="table")
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout")
        if name == "solve":
            p.add_argument("--scan-out", dest="scan_out", default=None,
                           help="also write the Gamma scan CSV here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            run_cfg = parse_config(fh.read())
        run_cfg = _apply_overrides(run_cfg, args)
        return run(run_cfg, args.command)
    except ConfigError as exc:
        print(f"spectral-defect: configuration error: {exc}", file=sys.stderr)
        return 2
    except SpectralDefectError as exc:
        print(f"spectral-defect: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"spectral-defect: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
