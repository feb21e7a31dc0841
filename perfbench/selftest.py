"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/selftest.py

Kept out of the default test collection on purpose: the hydrogen check pins
the work counts of the baseline program, and a change that makes the solver
do less work is expected to move them (and to report the new counts).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scipy.integrate                                    # noqa: E402

import spectral_defect as sd                              # noqa: E402
from spectral_defect import (angular, cli, cues, oracle,  # noqa: E402
                             potentials, spectrum)

import calib                                              # noqa: E402
import run                                                # noqa: E402
import workloads                                          # noqa: E402
from tracing import Tracer                                # noqa: E402


def _traced_cycle(workload):
    tracer = Tracer()
    tracer.install(sd)
    try:
        records, cycles = run.measure(workload, 0, calib, tracer,
                                      with_probes=True)
    finally:
        tracer.uninstall()
    assert cycles == 1
    metrics = tracer.layer_metrics(len(records), cycles)
    counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
    calls = [name for _, _, _, name, _, _ in tracer.spans]
    return records, counts, calls


def test_two_traced_runs_give_identical_counts(tmp_path):
    runs = []
    for _ in range(2):
        workload = workloads.cli_loop(seed=5, workdir=tmp_path)
        workload.prepare()
        runs.append(_traced_cycle(workload))
    (rec_a, counts_a, calls_a), (rec_b, counts_b, calls_b) = runs
    assert all(not r.wrong for r in rec_a + rec_b)
    assert counts_a == counts_b
    assert calls_a == calls_b
    # the cli loop reaches every layer
    for name in ("potentials.evaluate_calls", "cues.boundary_angle_calls",
                 "angular.sampled_calls", "spectrum.bisect_evals",
                 "oracle.fd_calls", "oracle.transfer_calls"):
        assert counts_a[name] > 0, name
    # the hydrogen verify probe is the one failing cli.main call per cycle
    assert counts_a["cli.failed"] == 1


def test_hydrogen_operation_counts_match_baseline():
    tracer = Tracer()
    tracer.install(sd)
    try:
        with tracer.operation(0, "hydrogen_l0"):
            result = sd.find_eigenvalues(sd.problem_for(sd.Coulomb()),
                                         -0.6, -0.0045)
    finally:
        tracer.uninstall()
    assert len(result.eigenvalues) == 10
    m = {k: v for k, (v, _) in tracer.layer_metrics(1, 1).items()}
    assert m["angular.passes"] == 28
    assert m["spectrum.gamma_evals"] == 326
    assert m["angular.rhs_evals"] == 348_692
    assert m["angular.steps"] == 24_358


def test_every_patched_name_is_restored():
    originals = {
        "Coulomb.evaluate": vars(potentials.Coulomb)["evaluate"],
        "EffectiveRadial.evaluate": vars(potentials.EffectiveRadial)[
            "evaluate"],
    }
    tracer = Tracer()
    tracer.install(sd)
    assert spectrum.integrate_angles is not angular.integrate_angles
    tracer.uninstall()
    assert tracer.restored()
    assert spectrum.integrate_angles is angular.integrate_angles
    assert spectrum.integrate_angle_sampled is angular.integrate_angle_sampled
    assert angular.solve_ivp is scipy.integrate.solve_ivp
    assert oracle.auto_interval is spectrum.auto_interval
    assert sd.find_eigenvalues is spectrum.find_eigenvalues
    assert sd.defect_angles is spectrum.defect_angles
    assert sd.fd_eigenvalues is oracle.fd_eigenvalues
    assert sd.transfer_mismatch is oracle.transfer_mismatch
    assert cues.left_boundary_angle.__module__ == cues.__name__
    assert not hasattr(cues.tail_cue_series, "__wrapped__")
    assert not hasattr(cli.run, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.parse_config, "__wrapped__")
    for qualname, fn in originals.items():
        cls = getattr(potentials, qualname.split(".")[0])
        assert vars(cls)["evaluate"] is fn


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    produced = set(tracer.layer_metrics(1, 1)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
