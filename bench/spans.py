"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: `Tracer.install` replaces a
layer's public name in the module that looks it up with a wrapper that
records the span's name, parent, start, end and (for kernels) the number
of points it was asked for. Nothing in `circwass` is edited. Spans stay in
memory as columns and are aggregated when the run ends.
"""

import time

import numpy as np

# (consumer module, attribute, span name). A name a later change deletes is
# reported as absent instead of crashing the run.
WRAPS = (
    ("harness", "family_sample", "harness.sample"),
    ("harness", "fit_mle", "estimate.fit_mle"),
    ("harness", "wasserstein_fit", "estimate.fit_w"),
    ("estimate", "powell_min", "optimize.powell"),
    ("estimate", "diff_evolution_min", "optimize.de"),
    ("estimate", "grid_cdf_of", "transport.grid_cdf"),
    ("estimate", "w1_grid", "transport.w1_grid"),
    ("estimate", "_wp_equal_weight_arrays", "transport.wp_equal"),
    ("estimate", "family_quantile", "families.quantile"),
    ("estimate", "family_logpdf", "families.logpdf"),
    ("transport", "family_cdf", "families.cdf"),
    ("transport", "select_kth", "optimize.select_kth"),
    ("transport", "_wp_equal_weight_arrays", "transport.wp_equal"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "load_sample", "circular.load_sample"),
    ("cli", "discrete_from_sample", "circular.discrete"),
    ("cli", "wp_discrete", "transport.wp_discrete"),
    ("cli", "wp_general", "transport.wp_general"),
)

OPTIMIZER_SPANS = ("optimize.powell", "optimize.de")
OBJECTIVE_SPAN = "estimate.objective"
CONVERGED = "estimate.converged"  # prefix of the fit convergence metric name


def _points(span, args):
    """Input size of a kernel call, or 0 where size is not meaningful."""
    if span in ("families.cdf", "families.quantile", "families.logpdf"):
        return int(np.size(args[1]))
    if span in ("optimize.select_kth", "transport.wp_equal"):
        return int(np.size(args[0]))
    if span == "transport.grid_cdf":
        return int(args[1])
    if span == "transport.wp_general":
        return args[0].size + args[1].size
    return 0


def _fit_span(args, kwargs):
    spec = kwargs.get("spec", args[2] if len(args) > 2 else None)
    if spec is None or spec.discretization == "grid":
        return "estimate.fit_w1"
    return "estimate.fit_w2" if spec.p == 2.0 else "estimate.fit_w"


class Tracer:
    """Records spans as parallel columns; ids are row numbers, -1 is no parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.points: list = []
        self.results: list = []
        self.absent: list = []
        self._stack = [-1]
        self._installed: list = []

    def wrap(self, fn, span, points=0, keep_result=False):
        """Return `fn` wrapped so each call records one span.

        `span` is a name or a callable (args, kwargs) -> name. With
        `keep_result` the call's return value is kept for later inspection.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        pts, results, stack, clock = self.points, self.results, self._stack, self.clock

        def wrapped(*args, **kwargs):
            sid = len(starts)
            names.append(span if isinstance(span, str) else span(args, kwargs))
            parents.append(stack[-1])
            pts.append(points(names[sid], args) if points else 0)
            ends.append(0.0)
            results.append(None)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if keep_result:
                results[sid] = out
            return out

        return wrapped

    def _optimizer(self, fn, span):
        inner = self.wrap(fn, span, keep_result=True)

        def call(f, *args, **kwargs):
            # the objective is wrapped here so MLE searches are counted too
            return inner(self.wrap(f, OBJECTIVE_SPAN), *args, **kwargs)

        return call

    def install(self, modules) -> None:
        """Wrap every name in WRAPS found in `modules` (name -> module)."""
        for mod_name, attr, span in WRAPS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if span in OPTIMIZER_SPANS:
                new = self._optimizer(fn, span)
            elif span == "estimate.fit_w":
                new = self.wrap(fn, _fit_span)
            else:
                new = self.wrap(fn, span, points=_points)
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds that recording one span adds to a call, timed on a no-op
        wrapped by a scratch tracer with this tracer's clock."""
        def noop():
            return None

        wrapped = Tracer(self.clock).wrap(noop, "probe")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return ((t2 - t1) - (t1 - t0)) / calls

    def absent_spans(self) -> set:
        """Span names none of whose wrapped names exist any more. The
        objective span is recorded only through the optimizer wraps, and
        convergence only through Powell's, so they go absent with them."""
        present = {span for mod, attr, span in WRAPS if f"{mod}.{attr}" not in self.absent}
        gone = {span for _, _, span in WRAPS} - present
        if gone.issuperset(OPTIMIZER_SPANS):
            gone.add(OBJECTIVE_SPAN)
        if "optimize.powell" in gone:
            gone.add(CONVERGED)
        return gone

    def self_times(self):
        """(durations, self times): a span's self time is its duration minus
        the durations of its direct children."""
        dur = np.asarray(self.ends, dtype=float) - np.asarray(self.starts, dtype=float)
        par = np.asarray(self.parents, dtype=np.int64)
        child = par >= 0
        covered = np.bincount(par[child], weights=dur[child], minlength=dur.size)
        return dur, dur - covered

    def nesting_errors(self) -> list:
        """Spans that end before they start, or lie outside their parent's
        [start, end]. When there are none, every self time is at least 0 and
        the self times of a tree add up to its root's duration."""
        start = np.asarray(self.starts, dtype=float)
        end = np.asarray(self.ends, dtype=float)
        par = np.asarray(self.parents, dtype=np.int64)
        errors = [f"span {sid} ({self.names[sid]}) ends before it starts"
                  for sid in np.flatnonzero(end < start)]
        child = np.flatnonzero(par >= 0)
        outside = child[(start[child] < start[par[child]]) | (end[child] > end[par[child]])]
        errors += [f"span {sid} ({self.names[sid]}) lies outside its parent "
                   f"{par[sid]} ({self.names[par[sid]]})" for sid in outside]
        return errors

    def aggregate(self) -> dict:
        """Per span name: calls, total_s, self_s, points; optimizer spans
        also get the evaluations their reports count."""
        dur, self_t = self.self_times()
        out: dict = {}
        for sid, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
            row["calls"] += 1
            row["total_s"] += float(dur[sid])
            row["self_s"] += float(self_t[sid])
            row["points"] += self.points[sid]
            if name in OPTIMIZER_SPANS and self.results[sid] is not None:
                row["evals"] = row.get("evals", 0) + int(self.results[sid].evaluations)
        return out

    def converged_frac(self) -> float | None:
        """Share of fits whose Powell searches all report convergence, over
        the fits that ran an optimizer at all."""
        verdict: dict = {}
        for sid, name in enumerate(self.names):
            if name != "optimize.powell" or self.results[sid] is None:
                continue
            parent = self.parents[sid]
            ok = bool(self.results[sid].converged)
            verdict[parent] = verdict.get(parent, True) and ok
        return sum(verdict.values()) / len(verdict) if verdict else None
