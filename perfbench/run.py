"""Time-to-certified-spectrum benchmark for spectral_defect.

    python3 perfbench/run.py --workload radial|wells|cli --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory.  Each workload is a closed loop with one operation in flight:
whole cycles of its operations run until S seconds have passed.  Every
output is checked against a reference computed before timing.  Known
defects are reproduced by probes that are reported but kept out of the
timed operations.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
one untraced cycle, then traced cycles, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"
TAIL_BEYOND = 10          # samples the reported tail percentile must leave


@dataclass
class Record:
    kind: str
    wall: float
    cal: float                     # calibration kernel seconds around the op
    err: float = 0.0
    failure: Optional[str] = None  # exception type, exit code or check
    wrong: bool = False            # output disagreed with the reference
    probe: object = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("radial", "wells", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(args, workdir):
    """Import the package, make the inputs.  Returns (workload, seconds)."""
    t0 = time.perf_counter()
    import spectral_defect            # noqa: F401  (timed import)
    import spectral_defect.cli        # noqa: F401
    t_import = time.perf_counter() - t0
    import workloads
    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return workload, t_import + time.perf_counter() - t1


def warm_up(workload):
    t0 = time.perf_counter()
    output = workload.warmup.run()
    return output, time.perf_counter() - t0


def setup_in_child(args):
    """Set-up seconds of a fresh interpreter, one child at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_op(op, calib, tracer=None, op_id=0):
    c0 = calib.kernel_seconds()
    scope = tracer.operation(op_id, op.kind) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            output = op.run()
    except Exception as exc:  # an operation may fail: count it, go on
        wall = time.perf_counter() - t0
        return Record(op.kind, wall, 0.5 * (c0 + calib.kernel_seconds()),
                      failure=type(exc).__name__)
    wall = time.perf_counter() - t0
    rec = Record(op.kind, wall, 0.5 * (c0 + calib.kernel_seconds()))
    return check_output(rec, op, output)


def check_output(rec, op, output):
    """Judge an output against the op's reference, outside any timing."""
    try:
        rec.err = op.check(output, op.ref)
    except Exception as exc:  # any check error means a wrong output
        rec.failure, rec.wrong = f"{type(exc).__name__}: {exc}", True
    return rec


def measure(workload, seconds, calib, tracer=None, with_probes=False):
    """Whole cycles of the workload until `seconds` have passed."""
    cycle = [(op, None) for op in workload.ops]
    if with_probes:
        cycle += [(p.op, p) for p in workload.probes]
    records, cycles = [], 0
    start = time.perf_counter()
    while True:
        for op, probe in cycle:
            rec = run_op(op, calib, tracer, op_id=len(records))
            rec.probe = probe
            records.append(rec)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            return records, cycles


def run_probes(workload, calib):
    records = []
    for probe in workload.probes:
        rec = run_op(probe.op, calib)
        rec.probe = probe
        records.append(rec)
    return records


def check_warm_up(workload, output):
    rec = check_output(Record(workload.warmup.kind, 0.0, 0.0),
                       workload.warmup, output)
    if rec.wrong:
        say(f"  WRONG warm-up output: {rec.failure}")
    return rec


def tail(values):
    """Highest whole percentile leaving TAIL_BEYOND samples above it."""
    n = len(values)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)            # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return pct, sorted(values)[rank - 1]
    return None, None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def say(*parts):
    print("perfbench:", *parts, flush=True)


def report_records(records, probes):
    timed = [r for r in records if r.probe is None]
    by_kind = {}
    for r in timed:
        by_kind.setdefault(r.kind, []).append(r)
    for kind, rs in by_kind.items():
        ok = [r.wall for r in rs if r.failure is None]
        med = f"{statistics.median(ok):.4f} s" if ok else "-"
        say(f"  op {kind:<20} n={len(rs):<3} p50 {med}"
            f"  failed {len(rs) - len(ok)}")
    for r in timed:
        if r.failure is not None:
            say(f"  FAILED {r.kind}: {r.failure}")
    outcomes = {}
    for r in probes:
        if r.failure == r.probe.expected:
            state = f"reproduced ({r.failure})"
        elif r.failure is None:
            state = "no longer fails; output checked"
        else:
            state = f"fails differently ({r.failure})"
        outcomes.setdefault((r.probe.op.kind, r.probe.defect, state), 0)
        outcomes[r.probe.op.kind, r.probe.defect, state] += 1
    for (kind, defect, state), n in outcomes.items():
        say(f"  known defect [{kind}]: {defect}: {state} x{n}")


def failure_summary(records, probes):
    attempted = len(records) + len(probes)
    failed = [r for r in records + probes if r.failure is not None]
    types = sorted({r.failure.split(":")[0] for r in failed})
    say(f"  failed_frac {len(failed) / attempted:.4f} "
        f"({len(failed)} of {attempted} attempted, probes included;"
        f" {', '.join(types) or 'none'})")


def emit(spec_key, values, records, warm):
    spec = json.loads(SPEC.read_text())
    timed = [r for r in records if r.probe is None]
    metrics = {}
    for entry in spec[spec_key]:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} is not "
                             f"{entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not warm.wrong and not any(r.wrong for r in records),
        "attempted": len(timed),
        "failed": sum(r.failure is not None for r in timed),
        "metrics": metrics,
    }), flush=True)


def end_to_end(args, workdir):
    workload, t_setup = setup(args, workdir)
    # calib loads numpy: import it after the timed set-up, so that this
    # sample pays numpy's import as the children's samples do
    import calib
    warm_output, t_warm = warm_up(workload)
    workload.prepare()
    warm = check_warm_up(workload, warm_output)
    setups = [t_setup + t_warm, setup_in_child(args)]

    records, cycles = measure(workload, args.seconds, calib)
    probes = run_probes(workload, calib)
    # one more set-up after the timed loop, so that one slow spell of the
    # machine cannot hit every sample
    setups.append(setup_in_child(args))
    ok = [r for r in records if r.failure is None]
    if not ok:
        say("no operation succeeded")
        return 1
    walls = [r.wall for r in ok]
    cals = [r.cal for r in records]
    pct, tail_value = tail(walls)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s.p50": (statistics.median(walls), "s"),
        "norm_wall.p50": (statistics.median(r.wall / r.cal for r in ok),
                          "ratio"),
        "ops_per_s": (len(ok) / sum(r.wall for r in records), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    say(f"workload {workload.name} seed {args.seed}: {len(records)} ops in "
        f"{cycles} cycles, closed loop, one operation in flight")
    report_records(records, probes)
    for name, (value, unit) in values.items():
        say(f"  {name} {value:.6g} {unit}")
    say("  setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    tail_text = f"p{pct} {tail_value:.4f} s" if pct else "n/a"
    say(f"  wall_s.tail {tail_text} (n={len(walls)})")
    say(f"  max_err {max(r.err for r in ok):.3e} Hartree")
    failure_summary(records, probes)
    say(f"  calibration kernel median {statistics.median(cals) * 1e3:.4f} ms")
    say("  wait time: none (no queue, lock or other process in the loop)")
    emit("end_to_end", values, records + probes, warm)
    return 0


def traced(args, workdir):
    import calib
    from tracing import Tracer
    import spectral_defect as sd

    workload, _ = setup(args, workdir)
    warm_output, _ = warm_up(workload)
    workload.prepare()
    warm = check_warm_up(workload, warm_output)
    base, _ = measure(workload, 0, calib)

    tracer = Tracer()
    tracer.install(sd)
    try:
        records, cycles = measure(workload, args.seconds, calib, tracer,
                                  with_probes=True)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise RuntimeError("a traced name was not restored")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    values = tracer.layer_metrics(len(records), cycles)
    traced_p50 = statistics.median(r.wall for r in records
                                   if r.probe is None and r.failure is None)
    untraced_p50 = statistics.median(r.wall for r in base
                                     if r.failure is None)
    values["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    say(f"workload {workload.name} seed {args.seed}: traced {len(records)} "
        f"ops in {cycles} cycles (probes included); per-layer values are "
        f"means per operation; spans in {spans_path.relative_to(ROOT)}")
    report_records(records, [r for r in records if r.probe])
    for name, (value, unit) in values.items():
        say(f"  {name} {value:.6g} {unit}")
    say(f"  tracing overhead: traced p50 {traced_p50:.4f} s, untraced p50 "
        f"{untraced_p50:.4f} s")
    say("  wait time: none (no queue, lock or other process in the loop)")
    emit("per_layer", values, records, warm)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spectral_defect" / "__init__.py").is_file():
        print(f"perfbench: no spectral_defect package under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload, t_setup = setup(args, workdir)
            _, t_warm = warm_up(workload)
            print(json.dumps({"setup_s": t_setup + t_warm}))
            return 0
        return traced(args, workdir) if args.trace else end_to_end(args,
                                                                    workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
