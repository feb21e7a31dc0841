"""Outside-in tracing of the spectral_defect layers.

The tracer replaces public names where their callers look them up (module
globals and class attributes), records one span per call of the coarse
boundaries, and aggregates counts and times for the hot leaves (potential
evaluation runs ~10^5 times per solve, too often for one span each).
`uninstall` puts every original object back; `restored` checks that it did.

Spans are (id, parent, op, name, start, end) tuples kept in memory and
written out once, at the end of a run.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span names
OP = "op"
INTERVAL = "spectrum.interval"
GAMMA_BATCH = "spectrum.gamma_batch"
SOLVE = "spectrum.solve"
PASS = "angular.pass"
SAMPLED = "angular.sampled"
IVP = "angular.ivp"
BOUNDARY = "cues.boundary_angle"
RESIDUAL = "cues.residual"
FD = "oracle.fd"
TRANSFER = "oracle.transfer"
PARSE = "cli.parse"
RUN = "cli.run"

CLI_COMMANDS = ("solve", "scan", "count", "eigenfunction", "verify")


class Tracer:
    """Installs the wrappers, owns the spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.eval_s = 0.0
        self._stack = []          # (span id, name) of the open spans
        self._next_id = 0
        self._op = None
        self._eval_depth = 0
        self._patches = []        # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, name))
        return self._next_id, parent

    def _exit(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((sid, parent, self._op, name, start, end))

    def _enclosing(self):
        return self._stack[-1][1] if self._stack else None

    @contextmanager
    def operation(self, op_id, kind):
        """One span around one benchmark operation."""
        name = f"{OP}:{kind}"
        self._op = op_id
        sid, parent = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start, time.perf_counter())
            self._op = None

    def _spanned(self, name, fn, after=None, label=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            sid, parent = tracer._enter(span_name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, parent, span_name, start,
                             time.perf_counter())
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_spanned(self, owner, attr, name, **kw):
        self._patch(owner, attr, self._spanned(name, getattr(owner, attr),
                                               **kw))

    def install(self, sd):
        """Wrap the layer boundaries of the imported package `sd`."""
        from spectral_defect import angular, cli, cues, oracle, potentials
        from spectral_defect import spectrum

        for cls in vars(potentials).values():
            if (isinstance(cls, type) and cls.__module__ == potentials.__name__
                    and "evaluate" in vars(cls)):
                self._patch(cls, "evaluate", self._evaluate_wrapper(
                    vars(cls)["evaluate"]))

        self._patch_spanned(cues, "left_boundary_angle", BOUNDARY)
        self._patch_spanned(cues, "right_boundary_angle", BOUNDARY)
        self._patch_spanned(cues, "boundary_residual", RESIDUAL)
        self._patch(cues, "tail_cue_series",
                    self._counted("series_builds", cues.tail_cue_series))

        self._patch(angular, "solve_ivp", self._ivp_wrapper(angular.solve_ivp))
        self._patch_spanned(spectrum, "integrate_angles", PASS,
                            after=self._after_pass)
        self._patch_spanned(spectrum, "integrate_angle_sampled", SAMPLED)

        self._patch_spanned(spectrum, "auto_interval", INTERVAL)
        self._patch_spanned(oracle, "auto_interval", INTERVAL)
        self._patch_spanned(spectrum, "defect_angles", GAMMA_BATCH,
                            after=self._after_gamma_batch)
        for owner in (spectrum, sd):
            self._patch(owner, "find_eigenvalues",
                        self._solve_wrapper(owner.find_eigenvalues))

        self._patch_spanned(oracle, "fd_eigenvalues", FD)
        self._patch_spanned(oracle, "transfer_mismatch", TRANSFER)

        self._patch(cli, "main", self._cli_main_wrapper(cli.main))
        self._patch_spanned(cli, "parse_config", PARSE)
        self._patch_spanned(cli, "run", RUN, label=_cli_run_label)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every patched name is bound to its original again."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._patches)

    # -- wrappers that count ----------------------------------------------

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _evaluate_wrapper(self, fn):
        """Counts every evaluate call; times only the outermost one.

        EffectiveRadial and Shifted call their base family's evaluate, so
        nested calls are counted but their time is already inside the
        outer call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(potential, t):
            tracer.counts["evaluate_calls"] += 1
            if tracer._eval_depth:
                return fn(potential, t)
            tracer._eval_depth = 1
            start = time.perf_counter()
            try:
                return fn(potential, t)
            finally:
                tracer.eval_s += time.perf_counter() - start
                tracer._eval_depth = 0

        return wrapper

    def _ivp_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(fun, t_span, y0, *args, **kwargs):
            owner = tracer._enclosing()
            sid, parent = tracer._enter(IVP)
            start = time.perf_counter()
            try:
                sol = fn(fun, t_span, y0, *args, **kwargs)
            finally:
                tracer._exit(sid, parent, IVP, start, time.perf_counter())
            c = tracer.counts
            c["rhs_evals_all"] += sol.nfev
            if owner in (PASS, SAMPLED):
                c["ivp_calls"] += 1
                c["rhs_evals"] += sol.nfev
                if "t_eval" not in kwargs:
                    # without t_eval, sol.t holds every accepted step
                    c["steps"] += sol.t.size - 1
                    c["rhs_evals_stepped"] += sol.nfev
            elif owner == TRANSFER:
                c["transfer_rhs_evals"] += sol.nfev
            return sol

        return wrapper

    def _cli_main_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                code = fn(*args, **kwargs)
            except Exception:
                counts["cli_failed"] += 1
                raise
            counts["cli_failed"] += code != 0
            return code

        return wrapper

    def _after_pass(self, result):
        self.counts["passes"] += 1
        self.counts["pass_energies"] += len(result[0])

    def _after_gamma_batch(self, result):
        self.counts["gamma_batches"] += 1
        self.counts["gamma_evals"] += len(result)

    def _solve_wrapper(self, fn):
        tracer = self
        spanned = self._spanned(SOLVE, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.counts["gamma_evals"]
            result = spanned(*args, **kwargs)
            c = tracer.counts
            c["solve_gamma_evals"] += c["gamma_evals"] - before
            c["scan_evals"] += len(result.scan)
            c["levels"] += len(result.eigenvalues)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")

    def self_times(self):
        """Total self time per span name: duration minus child coverage."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = Counter()
        for sid, _, _, name, start, end in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (end - start) - covered
        return totals

    def durations(self):
        totals, calls = Counter(), Counter()
        for _, _, _, name, start, end in self.spans:
            totals[name] += end - start
            calls[name] += 1
        return totals, calls

    def layer_metrics(self, n_ops, cycles):
        """Per-layer metrics, each a mean per operation unless noted."""
        c = self.counts
        dur, calls = self.durations()
        self_s = self.self_times()

        def per_op(x):
            return x / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "potentials.evaluate_calls": (
                per_op(c["evaluate_calls"]), "count"),
            "potentials.evaluate_s": (per_op(self.eval_s), "s"),
            "potentials.evaluate_per_rhs": (
                ratio(c["evaluate_calls"], c["rhs_evals_all"]), "ratio"),
            "cues.boundary_angle_calls": (per_op(calls[BOUNDARY]), "count"),
            "cues.boundary_angle_s": (per_op(dur[BOUNDARY]), "s"),
            "cues.series_builds": (per_op(c["series_builds"]), "count"),
            "cues.residual_calls": (per_op(calls[RESIDUAL]), "count"),
            "angular.passes": (per_op(c["passes"]), "count"),
            "angular.pass_width": (
                ratio(c["pass_energies"], c["passes"]), "count"),
            "angular.ivp_calls": (per_op(c["ivp_calls"]), "count"),
            "angular.rhs_evals": (per_op(c["rhs_evals"]), "count"),
            "angular.steps": (per_op(c["steps"]), "count"),
            "angular.rhs_per_step": (
                ratio(c["rhs_evals_stepped"], c["steps"]), "ratio"),
            "angular.ivp_s": (per_op(self._ivp_s_under_angular()), "s"),
            "angular.pass_self_s": (per_op(self_s[PASS]), "s"),
            "angular.sampled_calls": (per_op(calls[SAMPLED]), "count"),
            "spectrum.interval_calls": (per_op(calls[INTERVAL]), "count"),
            "spectrum.interval_s": (per_op(dur[INTERVAL]), "s"),
            "spectrum.gamma_batches": (per_op(c["gamma_batches"]), "count"),
            "spectrum.gamma_evals": (per_op(c["gamma_evals"]), "count"),
            "spectrum.scan_evals": (per_op(c["scan_evals"]), "count"),
            "spectrum.bisect_evals": (
                per_op(c["solve_gamma_evals"] - c["scan_evals"]), "count"),
            "spectrum.gamma_evals_per_level": (
                ratio(c["solve_gamma_evals"], c["levels"]), "ratio"),
            "oracle.fd_calls": (per_op(calls[FD]), "count"),
            "oracle.fd_s": (per_op(dur[FD]), "s"),
            "oracle.transfer_calls": (per_op(calls[TRANSFER]), "count"),
            "oracle.transfer_s": (per_op(dur[TRANSFER]), "s"),
            "oracle.transfer_rhs_evals": (
                per_op(c["transfer_rhs_evals"]), "count"),
            "cli.parse_s": (ratio(dur[PARSE], calls[PARSE]), "s"),
            # per cycle, so the known defect reads as a whole number
            "cli.failed": (c["cli_failed"] / cycles, "count"),
        }
        for cmd in CLI_COMMANDS:
            name = f"{RUN}.{cmd}"
            m[f"cli.{cmd}_s"] = (ratio(dur[name], calls[name]), "s")
        return m

    def _ivp_s_under_angular(self):
        names = {sid: name for sid, _, _, name, _, _ in self.spans}
        return sum(end - start
                   for _, parent, _, name, start, end in self.spans
                   if name == IVP and names.get(parent) in (PASS, SAMPLED))


def _cli_run_label(args, kwargs):
    command = kwargs.get("command", args[1] if len(args) > 1 else "solve")
    return f"{RUN}.{command}"
