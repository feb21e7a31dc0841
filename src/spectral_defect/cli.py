"""Command-line front end: config-driven solve/scan/count/eigenfunction/verify.

The configuration is INI-style with sections [potential], [domain], [solve]
and [tolerances]; see README.md for the full key reference.  Tables go to
stdout with 12 significant digits; CSV output uses a header row, comma
delimiter and '.' decimal point regardless of locale.
"""

import argparse
import configparser
import functools
import math
import re
import sys
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from . import cues, oracle, spectrum
from .errors import ConfigError, SpectralDefectError
from .potentials import (Coulomb, HybridOscillator, PiecewiseConstant,
                         ProblemSpec, QuarkHybrid, Shifted, SquareWell,
                         Tabulated, TruncatedOscillator, Yukawa)

_SECTIONS = ("potential", "domain", "tolerances", "solve")
# the command-line flags that override [tolerances] keys of the same name
_TOLERANCE_FLAGS = ("e_tol", "rel_tol", "residual_tol")
# verify fails a level whose |E_angular - E_fd| exceeds
# max(_FD_ERR_FACTOR * fd_err, _FD_DIFF_FLOOR)
_FD_ERR_FACTOR = 10.0
_FD_DIFF_FLOOR = 1e-9
# and one whose transfer mismatch changes sign on no E -+ d with
# _TRANSFER_BOUND <= d <= max(_TRANSFER_BOUND, 10 e_tol)
_TRANSFER_BOUND = 1e-9
# the largest count a key takes: sample and grid counts beyond it would not
# fit in memory
_MAX_COUNT = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Validated problem, tolerances and output settings for one run."""

    problem: ProblemSpec
    config: spectrum.SolveConfig
    params: Dict[str, float]
    fmt: str = "table"
    output: Optional[str] = None
    scan_out: Optional[str] = None


class _Section(dict):
    """Raw values of one INI section; remembers the keys the parser read."""

    def __init__(self, parser, name):
        super().__init__(parser[name] if name in parser else {})
        self.name = name
        self.read = set()

    def reject_unread(self):
        for key in self:
            if key not in self.read:
                raise ConfigError(f"unknown key '{key}' in section "
                                  f"[{self.name}]", key=key)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        """Constructor checks and file reads fail with the section's name."""
        if isinstance(exc, (ValueError, OverflowError, OSError)):
            raise ConfigError(f"section [{self.name}]: {exc}") from None


def _get(section, key, cast, required=False, default=None):
    section.read.add(key)
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


def _number(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _number_list(raw):
    return tuple(_number(x) for x in raw.replace(",", " ").split())


def _integer(minimum):
    """Cast to an int from minimum to _MAX_COUNT; fractions are rejected."""
    def cast(raw):
        value = _number(raw)
        if value != int(value) or not minimum <= value <= _MAX_COUNT:
            raise ValueError(f"must be an integer from {minimum} to "
                             f"{_MAX_COUNT}")
        return int(value)
    return cast


def _required(section, key, cast=_number):
    return _get(section, key, cast, required=True)


def _given(section, keys):
    """The keys present in the section as numbers; the rest keep defaults."""
    return {key: _get(section, key, _number) for key in keys if key in section}


def _tabulated(section):
    path = _required(section, "file", str)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2 or not np.all(np.isfinite(data)):
        raise ConfigError(f"tabulated file {path!r} needs two columns "
                          "of finite numbers, t and V", key="file")
    return Tabulated(ts=tuple(data[:, 0]), vs=tuple(data[:, 1]))


# each family's builder from its [potential] section
_FAMILIES = {
    "truncated_oscillator": lambda s: TruncatedOscillator(
        omega=_required(s, "omega"), cutoff_a=_required(s, "cutoff")),
    "hybrid_oscillator": lambda s: HybridOscillator(
        omega_left=_required(s, "omega_left"),
        omega_right=_required(s, "omega_right")),
    "square_well": lambda s: SquareWell(
        depth=_required(s, "depth"), left=_required(s, "left"),
        right=_required(s, "right")),
    "piecewise": lambda s: PiecewiseConstant(
        breakpoints_=_required(s, "breakpoints", _number_list),
        values=_required(s, "values", _number_list)),
    "coulomb": lambda s: Coulomb(**_given(s, ("charge",))),
    "yukawa": lambda s: Yukawa(screening_lambda=_required(s, "lambda")),
    "quark_hybrid": lambda s: QuarkHybrid(omega=_required(s, "omega")),
    "tabulated": _tabulated,
}


# [tolerances] keys, each a SolveConfig field of the same name
_SOLVE_KEYS = ("rel_tol", "e_tol", "residual_tol", "kappa")
# [solve] keys of all commands together: one file serves every command
_SOLVE_PARAMS = {"emin": _number, "emax": _number, "ceiling": _number,
                 "n": _integer(0), "samples": _integer(2),
                 "grid": _integer(64), "grid_min": _number,
                 "grid_max": _number, "grid_points": _integer(2)}


def parse_config(text: str, overrides=()) -> RunConfig:
    """RunConfig from INI text; defaults applied for omitted tolerances.

    overrides are raw (section, key, value) strings laid over the file, as
    the command-line flags are; they pass the same casts and checks.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser's text runs over several lines: one line per error
        raise ConfigError("malformed configuration: "
                          + " ".join(str(exc).split()))
    for section, key, value in overrides:
        parser.read_dict({section: {key: value}})
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; the sections are "
                              + ", ".join(f"[{s}]" for s in _SECTIONS))
    if "potential" not in parser:
        raise ConfigError("missing required section [potential]",
                          key="potential")
    return _build_run(parser)


def _build_run(parser):
    sections = [_Section(parser, name) for name in _SECTIONS]
    pot_section, domain, tol, solve = sections
    family = _required(pot_section, "family", str)
    if family not in _FAMILIES:
        raise ConfigError(f"unknown potential family {family!r}; choose one "
                          f"of {', '.join(_FAMILIES)}", key="family")
    with pot_section:
        potential = _FAMILIES[family](pot_section)

    kind = _get(domain, "kind", str.lower, default="wholeline")
    if kind not in ("wholeline", "halfline"):
        raise ConfigError(f"unknown domain kind {kind!r}", key="kind")
    # ProblemSpec checks l and that the family belongs on the chosen line
    l = _required(domain, "l") if kind == "halfline" else None

    a, b = _get(domain, "a", _number), _get(domain, "b", _number)
    interval = None
    if a is not None or b is not None:
        if a is None or b is None:
            raise ConfigError("explicit intervals need both 'a' and 'b'",
                              key="a" if a is None else "b")
        interval = (a, b)

    eref = _get(domain, "eref", str, default="absolute")
    if eref not in ("absolute", "tail"):
        raise ConfigError(f"unknown energy reference {eref!r}", key="eref")
    with domain:
        problem = ProblemSpec(potential, l, interval)
    if eref == "tail":
        _, level = cues.constant_levels(
            problem.left_tail, problem.right_tail,
            ConfigError("eref = tail needs constant tails", key="eref"))
        # every energy read or written is then relative to the tail level
        problem = replace(problem, potential=Shifted(potential, -level))

    with tol:
        solve_config = spectrum.SolveConfig(**_given(tol, _SOLVE_KEYS))
    params = {key: _get(solve, key, cast)
              for key, cast in _SOLVE_PARAMS.items() if key in solve}
    for section in sections:
        section.reject_unread()
    return RunConfig(problem=problem, config=solve_config, params=params)


def _require_param(run, key):
    if key not in run.params:
        raise ConfigError(f"missing required key '{key}' in section [solve]",
                          key=key)
    return run.params[key]


def _solve(run):
    return spectrum.find_eigenvalues(run.problem, _require_param(run, "emin"),
                                     _require_param(run, "emax"), run.config)


def _fmt(x):
    return f"{x:.12g}"


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows):
    """CSV lines for `_emit`: the header, then one line of numbers per row."""
    return [header] + [",".join(map(_fmt, row)) for row in rows]


def _cmd_solve(run):
    result = _solve(run)
    rows = [(ev.n, ev.energy, ev.width) for ev in result.eigenvalues]
    if run.fmt == "csv":
        _emit(_csv("n,energy,width", rows), run.output)
    else:
        lines = [f"{'n':>4}  {'E_n':>18}  {'width':>14}"]
        lines += [f"{n:>4}  {_fmt(e):>18}  {_fmt(w):>14}" for n, e, w in rows]
        _emit(lines, run.output)
    if run.scan_out:
        _emit(_csv("energy,gamma", [(s.E, s.gamma) for s in result.scan]),
              run.scan_out)
    return 0


def _cmd_scan(run):
    energies = np.linspace(_require_param(run, "emin"),
                           _require_param(run, "emax"),
                           run.params.get("samples", 128))
    sams = spectrum.defect_angles(run.problem, energies, run.config)
    _emit(_csv("energy,gamma", [(s.E, s.gamma) for s in sams]), run.output)
    return 0


def _cmd_count(run):
    n = spectrum.count_levels(run.problem, _require_param(run, "ceiling"),
                              run.config)
    _emit([str(n)], run.output)
    return 0


def _cmd_eigenfunction(run):
    n = _require_param(run, "n")
    result = _solve(run)
    match = [ev for ev in result.eigenvalues if ev.n == n]
    if not match:
        raise SpectralDefectError(f"no branch n = {n} in [emin, emax]; found "
                                  f"{[ev.n for ev in result.eigenvalues]}")
    problem, E = result.problem, match[0].energy
    a, b = problem.interval     # settled on the support (`auto_interval`)
    grid = np.linspace(run.params.get("grid_min", a),
                       run.params.get("grid_max", b),
                       run.params.get("grid_points", 2001))
    ef = spectrum.reconstruct_eigenfunction(problem, E, grid, run.config)
    _emit(_csv("t,psi", zip(ef.t, ef.psi)), run.output)
    return 0


def _brackets_a_root(lo, hi):
    # the mismatch is an angle mod pi: a jump between -+pi/2 is no root
    return (lo * hi < 0) & (abs(hi - lo) < math.pi / 2)


def _transfer_brackets(problem, energies, bound, config):
    """(d, mismatch at E - d, mismatch at E + d) for each level E, for the
    first d, from bound down by factors of 8 to _TRANSFER_BOUND, that
    brackets a root.

    Each shrink round is one oracle call, for E -+ d of every level that
    has not bracketed yet.  A bound over which the mismatch turns by more
    than pi/2 (it turns about 3.5 rad per unit energy at n = 0 on the a = 4
    oscillator) can wrap it past -+pi/2 on a correct level; a bracket at
    any d <= bound still places a root within bound.  Without one, the
    last (smallest) d is returned.
    """
    energies = np.asarray(energies, dtype=float)
    d, lo, hi = (np.empty_like(energies) for _ in range(3))
    todo, step = np.arange(energies.size), bound
    while todo.size:
        e = energies[todo]
        lo[todo], hi[todo] = np.split(oracle.transfer_mismatch(
            problem, np.concatenate([e - step, e + step]), config), 2)
        d[todo] = step
        if step <= _TRANSFER_BOUND:
            break
        todo = todo[~_brackets_a_root(lo[todo], hi[todo])]
        step = max(step / 8.0, _TRANSFER_BOUND)
    return np.stack([d, lo, hi], axis=1).tolist()


def _cmd_verify(run):
    result = _solve(run)
    emin, emax = run.params["emin"], run.params["emax"]
    # walls padded for the top level found, not for the ceiling: a ceiling
    # just under a tail level would put them far out on a coarse grid
    top = result.eigenvalues[-1].energy if result.eigenvalues else emax
    fd = oracle.fd_eigenvalues(
        run.problem, emax, grid_size=run.params.get("grid", 8192),
        interval=oracle.fd_interval(run.problem, top, run.config),
        config=run.config)
    fd_levels = [(e, err) for e, err in zip(fd.energies, fd.errors)
                 if e >= emin]
    lines = [f"{'n':>4}  {'E_angular':>18}  {'E_fd':>18}  {'diff':>12}"
             f"  {'fd_err':>10}"]
    status = 0
    for ev, (fd_e, err) in zip(result.eigenvalues, fd_levels):
        diff = ev.energy - fd_e
        lines.append(f"{ev.n:>4}  {_fmt(ev.energy):>18}  {_fmt(fd_e):>18}  "
                     f"{_fmt(diff):>12}  {_fmt(float(err)):>10}")
        if abs(diff) > max(_FD_ERR_FACTOR * err, _FD_DIFF_FLOOR):
            lines.append(f"level n={ev.n} disagrees: |diff| > max("
                         f"{_FD_ERR_FACTOR:g} fd_err, {_FD_DIFF_FLOOR:g})")
            status = 1
    for ev in result.eigenvalues[len(fd_levels):]:
        lines.append(f"{ev.n:>4}  {_fmt(ev.energy):>18}"
                     f"  {'-':>18}  {'-':>12}  {'-':>10}")
    if len(fd_levels) != len(result.eigenvalues):
        lines.append(f"count mismatch: angular {len(result.eigenvalues)}, "
                     f"finite-difference {len(fd_levels)}")
        status = 1
    bound = max(_TRANSFER_BOUND, 10.0 * run.config.e_tol)
    problem = result.problem
    skipped = SpectralDefectError(
        "transfer-matrix check skipped (needs constant tails)")
    try:
        cues.constant_levels(problem.left_tail, problem.right_tail, skipped)
        brackets = _transfer_brackets(
            problem, [ev.energy for ev in result.eigenvalues], bound,
            run.config)
    except SpectralDefectError as exc:
        lines.append(str(exc) if exc is skipped else "transfer-matrix check "
                     f"failed: {type(exc).__name__}: {exc}")
        status |= exc is not skipped
    else:
        for ev, (d, lo, hi) in zip(result.eigenvalues, brackets):
            lines.append(f"transfer mismatch at n={ev.n} on E -+ {d:g}: "
                         f"{_fmt(lo)}, {_fmt(hi)}")
            if not _brackets_a_root(lo, hi):
                lines.append(f"level n={ev.n} fails the transfer check: no "
                             f"root of the mismatch within {bound:g}")
                status = 1
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


class _ParserExit(Exception):
    """argparse's exit (a usage error or --help): (status, stderr text)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors on one line, like every other command-line error, and
    -1e1 read as a number; its subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1 and -.5, but not -1e1 or -1E3
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def exit(self, status=0, message=None):
        raise _ParserExit(status, message or "")

    def error(self, message):
        self.exit(2, f"spectral-defect: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every `main` call shares it."""
    parser = _ArgumentParser(
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
        for key in _TOLERANCE_FLAGS:
            p.add_argument("--" + key.replace("_", "-"),
                           help=f"override [tolerances] {key}")
        p.add_argument("--interval", nargs=2, metavar=("A", "B"),
                       help="override [domain] a and b")
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout")
        if name == "solve":
            p.add_argument("--format", choices=("table", "csv"),
                           default="table")
            p.add_argument("--scan-out", dest="scan_out", default=None,
                           help="also write every Gamma sample of the solve "
                                "as CSV here")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 0, 1 or 2.

    Usage errors and --help return as well; main raises no SystemExit.
    """
    try:
        args = _build_parser().parse_args(argv)
        overrides = [("tolerances", key, getattr(args, key))
                     for key in _TOLERANCE_FLAGS
                     if getattr(args, key) is not None]
        if args.interval is not None:
            overrides += zip(("domain", "domain"), ("a", "b"), args.interval)
        with open(args.config) as fh:
            run_cfg = parse_config(fh.read(), overrides)
        run_cfg = replace(run_cfg, output=args.output,
                          fmt=getattr(args, "format", "table"),
                          scan_out=getattr(args, "scan_out", None))
        # overflow on the way to a typed failure is reported by that failure
        with np.errstate(all="ignore"):
            return run(run_cfg, args.command)
    except _ParserExit as exc:
        status, message = exc.args
        sys.stderr.write(message)
        return status
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
