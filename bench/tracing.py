"""Per-layer tracing from outside the library.

The tracer wraps each layer's public functions (and, where a layer has no
public function for a step, the module-level name the step calls) on the
defining module, on every ``obrs`` module that imported the name, and on the
class for methods. Each wrapped call records a span: name, start, end,
parent span and request id. Spans stay in memory until the run ends. A
layer's self time is its span time minus the time its child spans cover, so
the self times of all layers plus ``bench.self_s`` add up to the traced wall
time.

Counts come from the wrapped calls' arguments and return values, and from
the library's own counters (``RatioFn.calls``). Sizes labelled ``computed``
are derived from array shapes, not measured. A wrapped name that no longer
exists makes its metrics absent, not a failure.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Per-layer metrics: name, unit, better. Counts are divided by the work units
# the traced phase completed; self times are seconds within the traced phase.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("dist.log_density.calls", "count/unit", "lower"),
    ("dist.log_density.points", "count/unit", "lower"),
    ("dist.log_density.elems_computed", "count/unit", "lower"),
    ("dist.log_density.self_s", "s", "lower"),
    ("dist.sample.points", "count/unit", "lower"),
    ("dist.sample.self_s", "s", "lower"),
    ("dist.ratio.points", "count/unit", "lower"),
    ("dist.trapezoid_grid.calls", "count/unit", "lower"),
    ("dist.trapezoid_grid.self_s", "s", "lower"),
    ("sampling.solve.calls", "count/unit", "lower"),
    ("sampling.solve.rate_passes", "count/unit", "lower"),
    ("sampling.solve.self_s", "s", "lower"),
    ("sampling.solve.max_rate_err", "ratio", "lower"),
    ("sampling.refine.calls", "count/unit", "lower"),
    ("sampling.refine.self_s", "s", "lower"),
    ("sampling.accept_prob.points", "count/unit", "lower"),
    ("sampling.accept_prob.self_s", "s", "lower"),
    ("sampling.rejection_sample.draws", "count/unit", "lower"),
    ("sampling.rejection_sample.accepted", "count/unit", "higher"),
    ("sampling.rejection_sample.accept_ratio", "ratio", "higher"),
    ("sampling.rejection_sample.self_s", "s", "lower"),
    ("fdiv.kernel.points", "count/unit", "lower"),
    ("fdiv.kernel.bytes_computed", "B/unit", "lower"),
    ("fdiv.kernel.self_s", "s", "lower"),
    ("fdiv.divergence_finite.calls", "count/unit", "lower"),
    ("fdiv.divergence_finite.self_s", "s", "lower"),
    ("prcurve.pr_curve.calls", "count/unit", "lower"),
    ("prcurve.pr_curve.points", "count/unit", "lower"),
    ("prcurve.pr_curve.self_s", "s", "lower"),
    ("prcurve.pr_arrays.calls", "count/unit", "lower"),
    ("prcurve.pr_arrays.self_s", "s", "lower"),
    ("oracle.random_feasible_acceptance.calls", "count/unit", "lower"),
    ("oracle.random_feasible_acceptance.self_s", "s", "lower"),
    ("oracle.check_improvement_bound.calls", "count/unit", "lower"),
    ("oracle.check_improvement_bound.self_s", "s", "lower"),
    ("landscape.budgeted_loss.calls", "count/unit", "lower"),
    ("landscape.budgeted_loss.self_s", "s", "lower"),
    ("cli.main.calls", "count/unit", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.write.bytes", "B/unit", "lower"),
    ("cli.write.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.work_units", "count", "higher"),
)

def _log_density(tr, args, kwargs, result):
    mix = args[0]
    points = np.size(args[1]) // mix.dim
    tr.add("dist.log_density.points", points)
    tr.add("dist.log_density.elems_computed", points * mix.n_components * mix.dim)


def _sample(tr, args, kwargs, result):
    tr.add("dist.sample.points", args[2] if len(args) > 2 else kwargs["n"])


def _accept_prob(tr, args, kwargs, result):
    x = args[1]
    tr.add("sampling.accept_prob.points", 1 if np.isscalar(x) or isinstance(x, tuple) else len(x))


def _solve(tr, args, kwargs, result):
    target_rate = args[2] if len(args) > 2 else kwargs["target_rate"]
    tr.max_rate_err = max(tr.max_rate_err, abs(result[1] - target_rate))


def _rejection(tr, args, kwargs, result):
    tr.add("sampling.rejection_sample.draws", result.draws_used)
    tr.add("sampling.rejection_sample.accepted", result.accepted)


def _fdiv_terms(tr, args, kwargs, result):
    # computed: bytes of the three input arrays plus the output array
    pw, qw, log_u = (np.asarray(a) for a in args[1:4])
    tr.add("fdiv.kernel.points", log_u.size)
    tr.add("fdiv.kernel.bytes_computed", pw.nbytes + qw.nbytes + log_u.nbytes + 8 * log_u.size)


def _f_value(tr, args, kwargs, result):
    # computed: one input and one output float per point
    n = np.size(args[1])
    tr.add("fdiv.kernel.points", n)
    tr.add("fdiv.kernel.bytes_computed", 16 * n)


def _pr_curve(tr, args, kwargs, result):
    tr.add("prcurve.pr_curve.points", len(result.lams))


def _written(path_arg: int, filename: str | None = None):
    def count(tr, args, kwargs, result):
        path = Path(args[path_arg])
        tr.add("cli.write.bytes", os.path.getsize(path / filename if filename else path))
    return count


def _rate_pass(tr, args, kwargs, result):
    tr.add("sampling.solve.rate_passes", 1)


def _ratio_made(tr, args, kwargs, result):
    tr.ratios.append(result)


# (module, attribute, span name, count hook): each call records a span
TARGETS = (
    ("obrs.dist", "GaussianMixture.log_density", "dist.log_density", _log_density),
    ("obrs.dist", "GaussianMixture.sample", "dist.sample", _sample),
    ("obrs.dist", "FiniteDist.sample", "dist.sample", _sample),
    ("obrs.dist", "trapezoid_grid", "dist.trapezoid_grid", None),
    # the inline slack solve has no public function: wrap the name it calls
    ("obrs.sampling", "_solve_log_shift", "sampling.solve", _solve),
    ("obrs.sampling", "refine", "sampling.refine", None),
    ("obrs.sampling", "AcceptanceSpec.accept_prob", "sampling.accept_prob", _accept_prob),
    ("obrs.sampling", "rejection_sample", "sampling.rejection_sample", _rejection),
    ("obrs.fdiv", "_fdiv_terms", "fdiv.kernel", _fdiv_terms),
    ("obrs.fdiv", "f_value", "fdiv.kernel", _f_value),
    ("obrs.fdiv", "divergence_finite", "fdiv.divergence_finite", None),
    ("obrs.prcurve", "pr_curve", "prcurve.pr_curve", _pr_curve),
    ("obrs.prcurve", "_pr_arrays", "prcurve.pr_arrays", None),
    ("obrs.oracle", "random_feasible_acceptance", "oracle.random_feasible_acceptance", None),
    ("obrs.oracle", "check_improvement_bound", "oracle.check_improvement_bound", None),
    ("obrs.landscape", "budgeted_loss", "landscape.budgeted_loss", None),
    ("obrs.cli", "main", "cli.main", None),
    ("obrs.cli", "_write_csv", "cli.write", _written(0)),
    ("obrs.cli", "_write_summary", "cli.write", _written(0)),
    ("obrs.cli", "_write_manifest", "cli.write", _written(0, "manifest.json")),
)

# (module, attribute, metric, count hook): counted without a span of their own
COUNTERS = (
    ("obrs.sampling", "_acceptance_rate", "sampling.solve.rate_passes", _rate_pass),
    ("obrs.dist", "ratio_of", "dist.ratio.points", _ratio_made),
)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id, name, request, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_rate_err = 0.0
        self.ratios: list = []
        self.request = -1
        self.root_s = 0.0
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn, hook):
        tracer = self
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            frame = [sid, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                else:
                    tracer.root_s += dur
                    parent = -1
                tracer.spans.append((sid, parent, name, tracer.request, frame[1], end))
            tracer.counts[calls] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "obrs" or n.startswith("obrs.")]
        plan = [(t, self._span) for t in TARGETS] + [(c, self._counter) for c in COUNTERS]
        for (modname, attr, name, hook), wrap in plan:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = vars(owner).get(meth) if owner is not None else None
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = wrap(name, orig, hook)
            if cls_name:
                self._rebind(owner, meth, orig, wrapped)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, key, orig, wrapped)
            self.present.add(name)

    def _rebind(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _measured(self, metric: str) -> bool:
        return (metric.startswith(("bench.", "trace.")) or metric in self.present
                or metric.rsplit(".", 1)[0] in self.present)

    def metrics(self, wall: float, units: float, untraced_rate: float) -> tuple[dict, list[str]]:
        """Per-layer metrics of the traced phase, and the names left absent."""
        self.counts["dist.ratio.points"] = float(sum(r.calls for r in self.ratios))
        traced_rate = units / wall
        values = {
            "bench.self_s": wall - self.root_s,
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
            "trace.wall_s": wall,
            "trace.work_units": float(units),
            "sampling.solve.max_rate_err": self.max_rate_err,
        }
        draws = self.counts["sampling.rejection_sample.draws"]
        values["sampling.rejection_sample.accept_ratio"] = (
            self.counts["sampling.rejection_sample.accepted"] / draws if draws else 0.0
        )
        out, absent = {}, []
        for name, unit, _ in LAYER_METRICS:
            if not self._measured(name):
                absent.append(name)
                continue
            if name in values:
                value = values[name]
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]]
            else:
                value = self.counts[name] / units
            out[name] = {"value": float(value), "unit": unit}
        return out, absent

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,request,start,end\n")
            for sid, parent, name, req, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{req},{start!r},{end!r}\n")
