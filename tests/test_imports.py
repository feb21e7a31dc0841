"""What a fresh interpreter loads: solves run on numpy alone.

scipy serves the independent checks only (the oracles and the scaled
chart), and is imported on their first call; the eigenfunction is carried
over the pass mesh.  These tests import it themselves, so each case runs
in a new interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_defect

SRC = Path(spectral_defect.__file__).resolve().parents[1]

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

# run in the child: argv[1] is a directory with osc.ini and hydrogen.ini,
# argv[2:] are (ini, command) pairs; prints one JSON line per command
CHILD = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import spectral_defect as sd
from spectral_defect import cli

work = Path(sys.argv[1])
print(json.dumps({"step": "import", "code": 0, "scipy": scipy_modules()}))
pairs = sys.argv[2:]
for ini, command in zip(pairs[::2], pairs[1::2]):
    if command == "square-well":
        problem = sd.problem_for(sd.SquareWell(-2.0, -1.0, 1.0))
        code = 0 if sd.find_eigenvalues(problem, -1.9, -0.1).eigenvalues \\
            else 1
    else:
        code = cli.main([command, str(work / f"{ini}.ini"), "--output",
                         str(work / f"{ini}-{command}.out")])
    print(json.dumps({"step": f"{ini} {command}", "code": code,
                      "scipy": scipy_modules()}))
"""


def _run_fresh(tmp_path, *pairs):
    """The JSON lines of CHILD run on pairs in a new interpreter."""
    (tmp_path / "osc.ini").write_text(OSC_INI)
    (tmp_path / "hydrogen.ini").write_text(HYDROGEN_INI)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    args = [str(x) for pair in pairs for x in pair]
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)] + args,
                          capture_output=True, text=True, timeout=300,
                          env=env)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_imports_and_solves_load_no_scipy(tmp_path):
    pairs = [(ini, command) for ini in ("osc", "hydrogen")
             for command in ("solve", "scan", "count", "eigenfunction")]
    steps = _run_fresh(tmp_path, *pairs, ("-", "square-well"))
    assert [s["step"] for s in steps] == (
        ["import"] + [f"{i} {c}" for i, c in pairs] + ["- square-well"])
    for step in steps:
        assert step["code"] == 0, step["step"]
        assert step["scipy"] == [], step["step"]


@pytest.mark.parametrize("command", ["verify"])
def test_the_checks_load_scipy_on_first_use(tmp_path, command):
    solve, check = _run_fresh(tmp_path, ("osc", "solve"),
                              ("osc", command))[1:]
    assert solve["code"] == 0 and solve["scipy"] == []
    assert check["code"] == 0
    assert "scipy" in check["scipy"]
