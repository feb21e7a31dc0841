import contextlib
import csv
import io
import tempfile
import warnings
from dataclasses import replace

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import spectral_defect as sd
from spectral_defect import angular, cli, oracle
from spectral_defect.errors import ConfigError, IntegrationError


OSC_CONFIG = """
[potential]
family = truncated_oscillator
omega = 1
cutoff = 2

[solve]
emin = 1e-6
emax = 1.998
"""

OSC4_CONFIG = OSC_CONFIG.replace("cutoff = 2", "cutoff = 4").replace(
    "emax = 1.998", "emax = 7.998")

COULOMB_CONFIG = """
[potential]
family = coulomb

[domain]
kind = halfline
l = 0

[solve]
emin = -0.6
emax = -0.4
"""

WELL_CONFIG = """
[potential]
family = square_well
depth = -2
left = -1
right = 1

[solve]
emin = -1.9
emax = -0.002
"""


def test_parse_truncated_oscillator():
    run = cli.parse_config(OSC_CONFIG)
    assert run.problem.potential == sd.TruncatedOscillator(1.0, 2.0)
    assert run.params["emax"] == pytest.approx(1.998)
    assert run.config.e_tol == 1e-10


def test_parse_coulomb_half_line():
    run = cli.parse_config(COULOMB_CONFIG)
    assert run.problem.potential == sd.Coulomb()
    assert run.problem.l == 0


def test_missing_angular_momentum_names_the_key():
    text = COULOMB_CONFIG.replace("l = 0\n", "")
    with pytest.raises(ConfigError) as err:
        cli.parse_config(text)
    assert err.value.key == "l"
    assert "'l'" in str(err.value)


def test_half_line_family_requires_half_line_domain():
    with pytest.raises(ConfigError):
        cli.parse_config("[potential]\nfamily = coulomb\n")


def test_unknown_family_rejected():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("[potential]\nfamily = morse\n")
    assert "morse" in str(err.value)
    # the message lists every family, in the order of the builders' dict
    names = ["truncated_oscillator", "hybrid_oscillator", "square_well",
             "piecewise", "coulomb", "yukawa", "quark_hybrid", "tabulated"]
    assert list(cli._FAMILIES) == names
    assert str(err.value).endswith("choose one of " + ", ".join(names))


@pytest.mark.parametrize("text, read, value", [
    (OSC_CONFIG + "samples = 1e3\n", lambda run: run.params["samples"], 1000),
    (OSC_CONFIG + "samples = 64.0\n", lambda run: run.params["samples"], 64),
    (COULOMB_CONFIG.replace("l = 0", "l = 1.0"), lambda run: run.problem.l, 1),
], ids=["samples_1e3", "samples_64.0", "l_1.0"])
def test_integer_keys_take_integral_numbers(text, read, value):
    got = read(cli.parse_config(text))
    assert got == value
    assert type(got) is int


def test_tolerance_overrides_parsed():
    text = OSC_CONFIG + "\n[tolerances]\nrel_tol = 1e-9\n"
    run = cli.parse_config(text)
    assert run.config.rel_tol == 1e-9


def test_solve_csv_round_trip(tmp_path):
    """CSV output re-read as floats must match the library call."""
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_CONFIG)
    out = tmp_path / "levels.csv"
    code = cli.main(["solve", str(cfg), "--format", "csv",
                     "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
    direct = sd.find_eigenvalues(problem, -1.9, -0.002)
    assert len(rows) == len(direct.eigenvalues)
    for row, ev in zip(rows, direct.eigenvalues):
        assert int(row["n"]) == ev.n
        assert float(row["energy"]) == pytest.approx(ev.energy, abs=1e-10)


def test_solve_empty_spectrum_exits_zero(tmp_path):
    cfg = tmp_path / "flat.ini"
    cfg.write_text("""
[potential]
family = piecewise
breakpoints = 0
values = 0 0

[domain]
a = -3
b = 3

[solve]
emin = -0.9
emax = -0.05
""")
    out = tmp_path / "levels.csv"
    code = cli.main(["solve", str(cfg), "--format", "csv",
                     "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_count_command(tmp_path, capsys):
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG.replace(
        "emin = 1e-6\nemax = 1.998", "ceiling = 1.998"))
    code = cli.main(["count", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_scan_writes_the_requested_rows(tmp_path, capsys):
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG + "samples = 40\n")
    assert cli.main(["scan", str(cfg)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    gammas = [float(row["gamma"]) for row in rows]
    assert len(gammas) == 40
    assert all(g2 >= g1 for g1, g2 in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("n", [0, 1])
def test_eigenfunction_has_n_nodes(tmp_path, capsys, n):
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG + f"n = {n}\n")
    assert cli.main(["eigenfunction", str(cfg)]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    psi = np.array([float(row["psi"]) for row in rows])
    signs = np.sign(psi[np.abs(psi) > 1e-6 * np.max(np.abs(psi))])
    assert len(psi) == 2001
    assert np.sum(signs[1:] * signs[:-1] < 0) == n


def test_solve_table_matches_the_csv(tmp_path, capsys):
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG)
    assert cli.main(["solve", str(cfg)]) == 0
    table = [line.split() for line in
             capsys.readouterr().out.splitlines()[1:]]
    assert cli.main(["solve", str(cfg), "--format", "csv"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(n, e) for n, e, _ in table] == \
        [(row["n"], row["energy"]) for row in rows] != []


def test_main_carries_no_state_between_calls(tmp_path, capsys):
    # every call parses with the one parser of the process: a --format csv
    # call leaves the next plain solve a table, and a usage error after a
    # good call is still one line and exit code 2
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG)
    assert cli.main(["solve", str(cfg), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("n,energy,width\n")
    assert cli.main(["solve", str(cfg)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["n", "E_n", "width"] and "," not in table[0]
    assert len(table) == 3
    assert cli.main(["solve", str(cfg), "--format", "xml"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "invalid choice: 'xml'" in captured.err
    assert cli.main(["solve", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == table


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["solve", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "spectral-defect" in capsys.readouterr().err


def test_malformed_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[potential]\nfamily = square_well\ndepth = shallow\n")
    code = cli.main(["solve", str(cfg)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_solve_key_reported(tmp_path, capsys):
    cfg = tmp_path / "nokeys.ini"
    cfg.write_text(WELL_CONFIG.replace("emin = -1.9\n", ""))
    code = cli.main(["solve", str(cfg)])
    assert code == 2
    assert "emin" in capsys.readouterr().err


def test_interval_override(tmp_path):
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_CONFIG)
    out = tmp_path / "levels.csv"
    code = cli.main(["solve", str(cfg), "--interval", "-8", "8",
                     "--format", "csv", "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_scan_out_writes_monotone_gamma(tmp_path):
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_CONFIG)
    out = tmp_path / "levels.csv"
    scan = tmp_path / "scan.csv"
    cli.main(["solve", str(cfg), "--format", "csv", "--output", str(out),
              "--scan-out", str(scan)])
    with open(scan, newline="") as fh:
        rows = list(csv.DictReader(fh))
    gammas = [float(r["gamma"]) for r in rows]
    assert len(gammas) > 32
    assert all(g2 >= g1 - 1e-9 for g1, g2 in zip(gammas, gammas[1:]))


def _solved_energies(tmp_path, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "levels.csv"
    assert cli.main(["solve", str(cfg), "--format", "csv",
                     "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


def _count(tmp_path, text, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert cli.main(["count", str(cfg)]) == 0
    return int(capsys.readouterr().out)


def test_eref_tail_shifts_energies(tmp_path, capsys):
    # the tail level of this oscillator is omega^2 cutoff^2 / 2 = 2
    tail_text = OSC_CONFIG.replace(
        "[solve]", "[domain]\neref = tail\n\n[solve]").replace(
        "emin = 1e-6\nemax = 1.998", "emin = -1.999999\nemax = -0.002")
    referred = _solved_energies(tmp_path, tail_text)
    absolute = _solved_energies(tmp_path, OSC_CONFIG)
    assert len(referred) == len(absolute) == 2
    assert referred == pytest.approx([e - 2.0 for e in absolute], abs=1e-9)
    for ceiling in (-1.0, -0.002):
        tail_count = _count(tmp_path, tail_text + f"ceiling = {ceiling}\n",
                            capsys)
        abs_count = _count(tmp_path,
                           OSC_CONFIG + f"ceiling = {ceiling + 2.0}\n", capsys)
        assert tail_count == abs_count


def test_verify_coulomb_skips_the_transfer_check(tmp_path, capsys):
    cfg = tmp_path / "hydrogen.ini"
    cfg.write_text(COULOMB_CONFIG.replace("emax = -0.4", "emax = -0.05"))
    assert cli.main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "transfer-matrix check skipped (needs constant tails)" in out
    assert "transfer mismatch" not in out


def test_verify_fails_when_the_transfer_oracle_fails(tmp_path, capsys,
                                                    monkeypatch):
    # only tails that are not both constant skip the transfer check
    def failing(*args, **kwargs):
        raise IntegrationError("the step size underflowed")

    monkeypatch.setattr(cli.oracle, "transfer_mismatch", failing)
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC4_CONFIG)
    assert cli.main(["verify", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out
    assert [line for line in out.splitlines() if "transfer" in line] == [
        "transfer-matrix check failed: IntegrationError: the step size "
        "underflowed"]


def _verify_rows(out):
    """(n, diff, fd_err) of each level row of the verify table."""
    rows = [line.split() for line in out.splitlines()[1:]]
    return [(int(r[0]), float(r[3]), float(r[4])) for r in rows
            if len(r) == 5 and r[0].isdigit()]


def test_verify_hydrogen_agrees_with_the_fd_oracle(tmp_path, capsys):
    # the fd walls sit at the origin and 16 decay lengths past b; a wall
    # delta from the origin would shift level n by 2 delta / (n + 1)^3,
    # which the Richardson error estimate cannot see
    cfg = tmp_path / "hydrogen.ini"
    cfg.write_text(COULOMB_CONFIG.replace("emax = -0.4", "emax = -0.05"))
    assert cli.main(["verify", str(cfg)]) == 0
    rows = _verify_rows(capsys.readouterr().out)
    assert [n for n, _, _ in rows] == [0, 1, 2]
    assert all(abs(diff) <= 1e-8 for _, diff, _ in rows)


@pytest.mark.parametrize("shift, code", [(0.0, 0), (1e-6, 1)])
def test_verify_fails_a_level_beyond_the_fd_error(tmp_path, capsys,
                                                  monkeypatch, shift, code):
    fd_eigenvalues = oracle.fd_eigenvalues

    def shifted(*args, **kwargs):
        fd = fd_eigenvalues(*args, **kwargs)
        return replace(fd, energies=fd.energies + shift,
                       errors=np.full(len(fd), 1e-9))

    monkeypatch.setattr(oracle, "fd_eigenvalues", shifted)
    cfg = tmp_path / "hydrogen.ini"
    cfg.write_text(COULOMB_CONFIG)
    assert cli.main(["verify", str(cfg)]) == code
    failed = [line for line in capsys.readouterr().out.splitlines()
              if "disagrees" in line]
    assert [line.split(":")[0] for line in failed] == \
        ["level n=0 disagrees"] * code


@pytest.mark.parametrize("shift, code", [(0.0, 0), (1e-4, 1)])
def test_verify_fails_a_square_well_level_off_by_1e_4(tmp_path, capsys,
                                                      monkeypatch, shift,
                                                      code):
    # the jumps at -+1 fall inside fd cells, whose nodes read the cell mean
    # of V: fd_err ~1e-6 instead of ~5e-4, so the fd gate sees 1e-4
    find_eigenvalues = sd.find_eigenvalues

    def patched(*args, **kwargs):
        result = find_eigenvalues(*args, **kwargs)
        levels = [replace(ev, energy=ev.energy + shift) if ev.n == 0 else ev
                  for ev in result.eigenvalues]
        return replace(result, eigenvalues=tuple(levels))

    monkeypatch.setattr(cli.spectrum, "find_eigenvalues", patched)
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_CONFIG)
    assert cli.main(["verify", str(cfg)]) == code
    out = capsys.readouterr().out
    rows = _verify_rows(out)
    assert [n for n, _, _ in rows] == [0, 1]
    assert all(err < 1e-5 for _, _, err in rows)
    failed = [line for line in out.splitlines() if "disagrees" in line]
    assert [line.split(":")[0] for line in failed] == \
        ["level n=0 disagrees"] * code


def test_verify_truncated_oscillator_reports_each_level(tmp_path, capsys):
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG)
    assert cli.main(["verify", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    mismatches = [line for line in lines
                  if line.startswith("transfer mismatch")]
    assert [line.split(":")[0] for line in mismatches] == [
        "transfer mismatch at n=0 on E -+ 1e-09",
        "transfer mismatch at n=1 on E -+ 1e-09"]
    for line in mismatches:
        lo, hi = (float(x) for x in line.split(":")[1].split(","))
        assert lo * hi < 0 and max(abs(lo), abs(hi)) < 1e-3


@pytest.mark.parametrize("shift, code", [(0.0, 0), (1e-6, 1)])
def test_verify_gates_the_transfer_mismatch(tmp_path, capsys, monkeypatch,
                                            shift, code):
    # the a = 4 oscillator with level n = 3 moved off by shift; the fd gate
    # there is 10 fd_err ~ 4e-5, so only the transfer check sees 1e-6
    find_eigenvalues = sd.find_eigenvalues

    def patched(*args, **kwargs):
        result = find_eigenvalues(*args, **kwargs)
        levels = [replace(ev, energy=ev.energy + shift) if ev.n == 3 else ev
                  for ev in result.eigenvalues]
        return replace(result, eigenvalues=tuple(levels))

    monkeypatch.setattr(cli.spectrum, "find_eigenvalues", patched)
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC4_CONFIG)
    assert cli.main(["verify", str(cfg)]) == code
    out = capsys.readouterr().out
    assert "disagrees" not in out
    failed = [line for line in out.splitlines() if "fails" in line]
    assert failed == ["level n=3 fails the transfer check: no root of the "
                      "mismatch within 1e-09"] * code


def test_the_transfer_bracket_shrinks_past_a_wrap():
    # bound 0.5 wraps the mismatch past -+pi/2 on the three lowest levels
    # of the a = 4 oscillator (slope ~3.5 rad per unit energy at n = 0);
    # the bracket shrinks by factors of 8 until it places the root
    problem = sd.problem_for(sd.TruncatedOscillator(1.0, 4.0))
    result = sd.find_eigenvalues(problem, 1e-6, 7.998)
    brackets = cli._transfer_brackets(
        result.problem, [ev.energy for ev in result.eigenvalues], 0.5,
        result.config)
    assert all(cli._brackets_a_root(lo, hi) for _, lo, hi in brackets)
    spans = [d for d, _, _ in brackets]
    assert len(spans) == 8
    assert spans[:3] == [0.0625] * 3


def test_verify_makes_two_solve_ivp_calls(tmp_path, capsys, monkeypatch):
    # the transfer check on the a = 4 oscillator: one propagation per half
    # for every level's E -+ d (16 scalar mismatches made 32 calls), and
    # the solve and the fd oracle make none
    calls = []
    solve_ivp = angular.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(angular, "solve_ivp", counting)
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC4_CONFIG)
    assert cli.main(["verify", str(cfg)]) == 0
    assert "transfer mismatch at n=7" in capsys.readouterr().out
    assert len(calls) == 2


@pytest.mark.parametrize("right", [5, 20, 64])
def test_verify_passes_a_long_forbidden_tail(tmp_path, capsys, right):
    # carried across a long tail to b, e+ turns onto the growing direction
    # on both sides of a level; matched at c, the mismatch still changes
    # sign there, by about Gamma' 1e-9
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_CONFIG.replace("emax = -0.002", "emax = -0.1"))
    assert cli.main(["verify", str(cfg), "--interval", "-3", str(right)]) == 0
    out = capsys.readouterr().out
    mismatches = [line for line in out.splitlines()
                  if line.startswith("transfer mismatch")]
    assert [line.split(":")[0] for line in mismatches] == [
        "transfer mismatch at n=0 on E -+ 1e-09",
        "transfer mismatch at n=1 on E -+ 1e-09"]
    for line in mismatches:
        lo, hi = (float(x) for x in line.split(":")[1].split(","))
        assert lo * hi < 0 and max(abs(lo), abs(hi)) < 1e-7


def test_verify_on_a_long_interval_starts_at_the_support(tmp_path, capsys,
                                                         monkeypatch):
    # past the well's edges V is the tail level, so the transfer check
    # starts each direction at an edge and the fd walls are padded from
    # it: on (-3, 10000) the fd grid keeps the default step, the levels
    # pass, and the transfer checks cost what they cost on (-3, 64)
    cfg = tmp_path / "well.ini"
    cfg.write_text(WELL_CONFIG.replace("emax = -0.002", "emax = -0.1"))
    calls = []
    solve_ivp = angular.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(angular, "solve_ivp", counting)
    levels, counts = [], []
    for interval in ([], ["--interval", "-3", "64"],
                     ["--interval", "-3", "10000"]):
        calls.clear()
        assert cli.main(["verify", str(cfg), *interval]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.split()[0].isdigit()]
        levels.append([float(row[1]) for row in rows])
        counts.append(len(calls))
    default, short, long = levels
    assert len(default) == 2
    assert np.allclose(long, default, rtol=0.0, atol=1e-9)
    assert np.allclose(short, default, rtol=0.0, atol=1e-9)
    assert counts[2] == counts[1] > 0


def test_verify_pads_the_fd_walls_at_the_top_level(tmp_path, capsys):
    # the ceiling sits 2e-3 under the tail level 8; walls padded there
    # stood at +-257 and gave fd_err 3.1e-5 at n = 0
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC4_CONFIG)
    assert cli.main(["verify", str(cfg)]) == 0
    rows = _verify_rows(capsys.readouterr().out)
    assert [n for n, _, _ in rows] == list(range(8))
    assert rows[0][2] <= 1e-6


YUKAWA_CONFIG = """
[potential]
family = yukawa
lambda = 0.05

[domain]
kind = halfline
l = 1

[solve]
emin = -0.12
emax = -0.01
"""

# 61 samples of min(t^2 / 2, 4.5) on [-3, 3]: constant tails at 4.5
TABULATED_WELL_CONFIG = """
[potential]
family = tabulated
file = {dir}/well.csv

[solve]
emin = 0.01
emax = 4.4
"""


@pytest.mark.parametrize("text", [YUKAWA_CONFIG, TABULATED_WELL_CONFIG],
                         ids=["yukawa", "tabulated"])
def test_verify_passes(tmp_path, capsys, text):
    # the table file is written for both; only the tabulated run reads it
    t = np.linspace(-3.0, 3.0, 61)
    np.savetxt(tmp_path / "well.csv",
               np.column_stack([t, np.minimum(0.5 * t * t, 4.5)]),
               delimiter=",")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("{dir}", str(tmp_path)))
    assert cli.main(["verify", str(cfg)]) == 0
    assert _verify_rows(capsys.readouterr().out)


TABULATED_CONFIG = """
[potential]
family = tabulated
file = {dir}/one_column.csv
"""

# a constant-tail family has no 0+ singularity, so no half-line problem
HALF_LINE_WELL_CONFIG = """
[potential]
family = square_well
depth = -2
left = 1
right = 2

[domain]
kind = halfline
l = 0
a = 1e-3
b = 12

[solve]
emin = -1.9
emax = -0.05
"""


_BAD_VALUES = [
    (COULOMB_CONFIG.replace("l = 0", "l = one"), "'l'", "solve", ""),
    (OSC_CONFIG.replace("omega = 1", "omega = -1"), "omega", "solve", ""),
    (OSC_CONFIG + "\n[tolerances]\ne_tol = abc\n", "'e_tol'", "solve", ""),
    (OSC_CONFIG + "\n[tolerances]\nmethod = FOO\n", "'method'", "solve", ""),
    (COULOMB_CONFIG.replace("l = 0", "l = -1"), "non-negative", "solve", ""),
    (COULOMB_CONFIG.replace("l = 0", "l = 1.5"), "non-negative", "solve", ""),
    (OSC_CONFIG + "samples = 1.5\n", "'samples'", "scan", ""),
    (OSC_CONFIG + "samples = 1\n", "'samples'", "scan", ""),
    (HALF_LINE_WELL_CONFIG, "[domain]", "solve", ""),
    (HALF_LINE_WELL_CONFIG, "[domain]", "verify", ""),
    (TABULATED_CONFIG, "two columns", "solve", ""),
    (COULOMB_CONFIG + "\n[tolerances]\nn_terms = 1\n", "n_terms", "solve",
     ""),
    (COULOMB_CONFIG + "\n[tolerances]\nn_terms = -3\n", "n_terms", "solve",
     ""),
    (OSC_CONFIG + "samples = 0\n", "'samples'", "scan", ""),
    (OSC_CONFIG + "samples = -5\n", "'samples'", "scan", ""),
    (OSC_CONFIG + "n = 0\ngrid_points = 0\n", "'grid_points'",
     "eigenfunction", ""),
    (OSC_CONFIG.replace("omega = 1", "omega = %(x)s"), "'omega'", "solve", ""),
    (WELL_CONFIG.replace("depth = -2", "depth = nan"), "'depth'", "count", ""),
    (WELL_CONFIG.replace("depth = -2", "depth = 2"), "depth must be <= 0",
     "count", ""),
    (WELL_CONFIG.replace("left = -1", "left = 1"), "left edge must be below",
     "count", ""),
    (OSC_CONFIG.replace("omega = 1", "omega = inf"), "'omega'", "solve", ""),
    (OSC_CONFIG.replace("omega = 1", "omega = 1e200"), "out of range",
     "solve", ""),
    (OSC_CONFIG.replace("omega = 1", "omega = 1e154").replace(
        "cutoff = 2", "cutoff = 1e154"), "[potential]", "count", ""),
    (COULOMB_CONFIG.replace("family = coulomb",
                            "family = coulomb\nchrage = 2"), "'chrage'",
     "count", ""),
    (OSC_CONFIG + "emxa = 2\n", "'emxa'", "solve", ""),
    (OSC_CONFIG, "[tolerances]", "solve", "--e-tol -1"),
    (OSC_CONFIG, "'rel_tol'", "solve", "--rel-tol nan"),
    (OSC_CONFIG, "[tolerances]", "solve", "--residual-tol 0"),
    (OSC_CONFIG, "[domain]", "solve", "--interval 5 1"),
    (COULOMB_CONFIG, "[domain]", "solve", "--interval -1 1"),
    (OSC_CONFIG, "'e_tol'", "solve", "--e-tol inf"),
    (OSC_CONFIG + "n = 1.5\n", "'n'", "eigenfunction", ""),
    (OSC_CONFIG + "grid = 10\n", "'grid'", "verify", ""),
    (OSC_CONFIG + "\n[tolerance]\ne_tol = abc\n", "[tolerance]", "solve", ""),
    (COULOMB_CONFIG.replace("l = 0", "l = 0\neref = tail"), "eref", "solve",
     ""),
    # counts past cli._MAX_COUNT would not fit in memory
    (OSC_CONFIG + "samples = 1e20\n", "'samples'", "scan", ""),
    (OSC_CONFIG + "grid = 1e20\n", "'grid'", "verify", ""),
    (OSC_CONFIG + "n = 0\ngrid_points = 1e20\n", "'grid_points'",
     "eigenfunction", ""),
    # removed keys: rel_tol sets both integrator tolerances, and a solve
    # scans spectrum._SCAN_SAMPLES energies first
    (OSC_CONFIG + "\n[tolerances]\nabs_tol = 1e-12\n", "'abs_tol'", "solve",
     ""),
    (OSC_CONFIG + "\n[tolerances]\nsamples = 64\n", "'samples'", "solve",
     ""),
]


def _bad_value_id(row):
    """pytest's id of the first three columns; the flags follow if any."""
    text, key, command, flags = row
    parts = [text, key, command]
    return "-".join(parts + [flags] if flags else parts)


@pytest.mark.parametrize("text, key, command, flags", _BAD_VALUES,
                         ids=[_bad_value_id(row) for row in _BAD_VALUES])
def test_bad_values_are_one_line_usage_errors(tmp_path, capsys, monkeypatch,
                                              text, key, command, flags):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a command ran"))
    (tmp_path / "one_column.csv").write_text("0\n1\n2\n")
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text.replace("{dir}", str(tmp_path)))
    assert cli.main([command, str(cfg), *flags.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("spectral-defect: configuration error: ")
    assert key in lines[0]


# solver failures and argparse errors: (INI text, argv, exit code)
_ONE_LINE_FAILURES = [
    ("[potential]\nfamily = quark_hybrid\nomega = 1e50\n[domain]\n"
     "kind = halfline\nl = 0\n[solve]\nceiling = 1\n", "count {cfg}", 1),
    ("[potential]\nfamily = hybrid_oscillator\nomega_left = 1e200\n"
     "omega_right = 1\n[solve]\nemin = 0.1\nemax = 2\n", "solve {cfg}", 1),
    (OSC_CONFIG, "scan {cfg} --format table", 2),
    (OSC_CONFIG, "count {cfg} --bogus", 2),
    (OSC_CONFIG, "solve", 2),
    (OSC_CONFIG, "solve {cfg} --abs-tol 1e-12", 2),
    # windows of ~1e148 and ~1e300 levels, past spectrum._MAX_LEVELS
    ("[potential]\nfamily = piecewise\nbreakpoints = -1 1\n"
     "values = 0 -1e300 0\n[solve]\nemin = -1e299\nemax = -0.1\n",
     "solve {cfg}", 1),
    ("[potential]\nfamily = square_well\ndepth = -2\nleft = -1e300\n"
     "right = 1e300\n[solve]\nemin = -1.9\nemax = -0.1\n", "solve {cfg}", 1),
    # intervals wholly past the well: a left end beyond the breakpoint 1
    # (or 2) the left cue would skip
    (WELL_CONFIG, "verify {cfg} --interval 1e299 1e300", 1),
    (OSC_CONFIG, "solve {cfg} --interval 2 1e300", 1),
    # on the a = 4 oscillator: an end inside the support, where V is not
    # the tail level its cue assumes, and an interval that misses the well
    # though V is the level at both its ends
    (OSC4_CONFIG, "solve {cfg} --interval -3 64", 1),
    (OSC4_CONFIG, "solve {cfg} --interval -100 -50", 1),
    (OSC4_CONFIG + "ceiling = 7.998\n", "count {cfg} --interval -100 -50",
     1),
    # hydrogen: a right end where the Coulomb cue's residual is 3.8e-6
    (COULOMB_CONFIG.replace("emax = -0.4", "emax = -0.05"),
     "solve {cfg} --interval 0.01 16", 1),
    (COULOMB_CONFIG.replace("emax = -0.4", "emax = -0.05\nn = 2"),
     "eigenfunction {cfg} --interval 0.01 16", 1),
]


@pytest.mark.parametrize("text, argv, code", _ONE_LINE_FAILURES)
def test_failures_print_one_line(tmp_path, capsys, text, argv, code):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.main(argv.format(cfg=cfg).split())
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert [str(w.message) for w in caught] == []


def test_help_returns_zero(capsys):
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: spectral-defect")
    assert captured.err == ""


# each family's own keys; every other known key is drawn at random
_FAMILY_KEYS = {"truncated_oscillator": ("omega", "cutoff"),
                "hybrid_oscillator": ("omega_left", "omega_right"),
                "square_well": ("depth", "left", "right"),
                "piecewise": ("breakpoints", "values"),
                "coulomb": ("charge",), "yukawa": ("lambda",),
                "quark_hybrid": ("omega",), "tabulated": ("file",),
                "morse": ()}
_KNOWN_KEYS = {
    "potential": sorted({key for keys in _FAMILY_KEYS.values()
                         for key in keys}),
    "domain": ("kind", "l", "a", "b", "eref"),
    "solve": ("emin", "emax", "ceiling", "n", "samples", "grid", "grid_min",
              "grid_max", "grid_points"),
    "tolerances": ("rel_tol", "e_tol", "residual_tol", "kappa"),
}
_ENTRIES = [(section, key) for section, keys in _KNOWN_KEYS.items()
            for key in keys]
# what --e-tol, --rel-tol, --residual-tol and --interval set
_FLAGS = [[("tolerances", "e_tol")], [("tolerances", "rel_tol")],
          [("tolerances", "residual_tol")], [("domain", "a"), ("domain", "b")]]
_NUMBERS = st.one_of(
    st.floats(0, 10).map(repr), st.floats(-10, 0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 100).map(str),
    st.sampled_from([f"1e{exponent}" for exponent in range(-400, 401, 20)]))
_JUNK = st.one_of(
    st.fractions(max_denominator=7).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "", "abc", "0 1"]))
_CHOICES = {"kind": ("halfline", "wholeline"), "l": ("0", "1", "2"),
            "eref": ("absolute", "tail")}
_LISTS = ("breakpoints", "values")


def _value(draw, key):
    """A choice, list or number as the key takes; junk one time in ten."""
    if not draw(st.integers(0, 9)):
        return draw(_JUNK)
    if key in _CHOICES:
        return draw(st.sampled_from(_CHOICES[key]))
    if key in _LISTS:
        return ", ".join(draw(st.lists(_NUMBERS, max_size=4)))
    return draw(_NUMBERS)


@st.composite
def ini_runs(draw):
    """INI text over the known keys, plus flag overrides laid over it.

    The family's own keys are always drawn, and half the files put the
    problem on the half line, so most get past the required-key checks.
    """
    family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
    entries = {("potential", key): None for key in _FAMILY_KEYS[family]}
    if draw(st.booleans()):
        entries.update({("domain", "kind"): "halfline", ("domain", "l"): None})
    entries.update(dict.fromkeys(draw(st.lists(st.sampled_from(_ENTRIES),
                                                max_size=6))))
    sections = {"potential": [f"family = {family}"]}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(
            f"{key} = {value or _value(draw, key)}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                   for name, lines in sections.items())
    flags = draw(st.lists(st.sampled_from(_FLAGS), max_size=3))
    return text, [(section, key, _value(draw, key))
                  for flag in flags for section, key in flag]


@settings(max_examples=300, deadline=None, database=None)
@given(ini_runs())
def test_parse_config_returns_a_run_or_a_config_error(ini_run):
    text, overrides = ini_run
    try:
        run = cli.parse_config(text, overrides)
    except ConfigError:
        return
    assert isinstance(run, cli.RunConfig)


# end-to-end runs of cli.main: three cheap problems, a coarse e_tol and a
# small fd grid, with a few keys and flags drawn from the fuzzer's values
_RUN_BASES = {
    "square_well": ({"family": "square_well", "depth": "-2", "left": "-1",
                     "right": "1"}, {}, ("-1.9", "-0.1")),
    "truncated_oscillator": ({"family": "truncated_oscillator",
                              "omega": "1", "cutoff": "2"}, {},
                             ("1e-6", "1.998")),
    "coulomb": ({"family": "coulomb"}, {"kind": "halfline", "l": "0"},
                ("-0.6", "-0.1")),
}
_RUN_ENTRIES = [("solve", key) for key in ("emin", "emax", "ceiling", "n",
                                           "samples", "grid")] + [
    ("domain", key) for key in ("kind", "l", "a", "b", "eref")] + [
    ("tolerances", key) for key in ("e_tol", "rel_tol", "residual_tol")]
# no number between 10 and 1e300: a window of many levels or a long
# interval is slow, not wrong
_RUN_NUMBERS = st.sampled_from(["-3", "-1", "-0.5", "0", "1e-3", "0.25", "1",
                                "2", "2.5", "1e-9", "1e300", "-1e300"])
_RUN_JUNK = st.sampled_from(["nan", "-nan", "inf", "-inf", "", "abc", "0 1",
                             "1/3"])
_RUN_FLAGS = {"e_tol": "--e-tol", "rel_tol": "--rel-tol",
              "residual_tol": "--residual-tol"}


def _run_value(draw, key=None):
    """A choice the key takes or one of _RUN_NUMBERS; junk one time in
    five."""
    if not draw(st.integers(0, 4)):
        return draw(_RUN_JUNK)
    return draw(st.sampled_from(_CHOICES[key]) if key in _CHOICES
                else _RUN_NUMBERS)


@st.composite
def cli_runs(draw):
    """A command, the INI text of one of _RUN_BASES with up to two values
    replaced, and up to two flags."""
    family = draw(st.sampled_from(sorted(_RUN_BASES)))
    potential, domain, (emin, emax) = _RUN_BASES[family]
    sections = {"potential": dict(potential), "domain": dict(domain),
                "solve": {"emin": emin, "emax": emax, "ceiling": emax,
                          "n": "1", "samples": "16", "grid": "256"},
                "tolerances": {"e_tol": "1e-6"}}
    keys = [("potential", key) for key in potential if key != "family"]
    for section, key in draw(st.lists(st.sampled_from(keys + _RUN_ENTRIES),
                                      max_size=2)):
        sections[section][key] = _run_value(draw, key)
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in entries.items())
                   for name, entries in sections.items() if entries)
    flags = []
    for key in draw(st.lists(st.sampled_from([*_RUN_FLAGS, "interval"]),
                             max_size=2)):
        if key == "interval":
            flags += ["--interval", _run_value(draw), _run_value(draw)]
        else:
            flags += [_RUN_FLAGS[key], _run_value(draw)]
    command = draw(st.sampled_from(["solve", "scan", "count",
                                    "eigenfunction", "verify"]))
    return command, text, flags


@settings(max_examples=60, deadline=None, database=None)
@given(cli_runs())
def test_every_command_exits_with_a_code_and_at_most_one_line(cli_run):
    command, text, flags = cli_run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/run.ini"
        with open(cfg, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, cfg, *flags, "--output",
                             f"{tmp}/out"])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert len(lines) <= 1, lines
    assert "Traceback" not in err.getvalue()
