import csv

import pytest

import spectral_defect as sd
from spectral_defect import cli
from spectral_defect.errors import ConfigError


OSC_CONFIG = """
[potential]
family = truncated_oscillator
omega = 1
cutoff = 2

[solve]
emin = 1e-6
emax = 1.998
"""

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


def test_tolerance_overrides_parsed():
    text = OSC_CONFIG + "\n[tolerances]\nrel_tol = 1e-9\nsamples = 32\n"
    run = cli.parse_config(text)
    assert run.config.integrator.rel_tol == 1e-9
    assert run.config.scan_samples == 32


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


def test_eref_tail_shifts_energies(tmp_path):
    cfg = tmp_path / "osc.ini"
    cfg.write_text("""
[potential]
family = truncated_oscillator
omega = 1
cutoff = 2

[domain]
eref = tail

[solve]
emin = -1.999999
emax = -0.002
""")
    out = tmp_path / "levels.csv"
    code = cli.main(["solve", str(cfg), "--format", "csv",
                     "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # tail level is 2, so tail-referred energies are E_abs - 2 < 0
    assert len(rows) == 2
    assert all(float(r["energy"]) < 0 for r in rows)
    assert float(rows[0]["energy"]) == pytest.approx(0.49702 - 2.0, abs=1e-3)


def test_verify_coulomb_skips_the_transfer_check(tmp_path, capsys):
    cfg = tmp_path / "hydrogen.ini"
    cfg.write_text(COULOMB_CONFIG.replace("emax = -0.4", "emax = -0.05"))
    assert cli.main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "transfer-matrix check skipped (needs constant tails)" in out
    assert "transfer mismatch" not in out


def test_verify_truncated_oscillator_reports_each_level(tmp_path, capsys):
    cfg = tmp_path / "osc.ini"
    cfg.write_text(OSC_CONFIG)
    assert cli.main(["verify", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    mismatches = [line for line in lines
                  if line.startswith("transfer mismatch")]
    assert [line.split(":")[0] for line in mismatches] == [
        "transfer mismatch at n=0", "transfer mismatch at n=1"]
    assert all(float(line.split(":")[1]) < 1e-8 for line in mismatches)


@pytest.mark.parametrize("text, key", [
    (COULOMB_CONFIG.replace("l = 0", "l = one"), "'l'"),
    (OSC_CONFIG.replace("omega = 1", "omega = -1"), "omega"),
    (OSC_CONFIG + "\n[tolerances]\ne_tol = abc\n", "'e_tol'"),
    (OSC_CONFIG + "\n[tolerances]\nmethod = FOO\n", "'FOO'"),
])
def test_bad_values_are_one_line_usage_errors(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert cli.main(["solve", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("spectral-defect: configuration error: ")
    assert key in lines[0]
