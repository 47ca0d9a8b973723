"""In-memory tracing of the package from outside it.

The tracer replaces public functions and methods of the package with
timing wrappers for the length of a traced round and puts the original
objects back afterwards. Two kinds of wrapper exist:

* span wrappers record one span (name, start, end, parent, op id) per
  call, for layer entry points that run at most a few thousand times
  per round;
* aggregate wrappers only count calls and add up their time, for hot
  inner calls (``theta_tail``, golden-section searches and their probe
  functions, matrix-exponential actions) that run up to ~10^6 times.

Self time of a span is its duration minus the time covered by its child
spans and by the aggregate calls made directly inside it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op_id: int | None = None
    # time spent in aggregate (unspanned) calls made directly inside this span
    agg_child: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    calls: int = 0
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount


class Tracer:
    """Span store, aggregate counters and the stack that links them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._stack: list[int] = []
        self._agg_depth = 0

    # -- spans ---------------------------------------------------------

    def open(self, name, op_id=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent].op_id
        self.spans.append(Span(name, self.clock(), parent=parent, op_id=op_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    @contextmanager
    def span(self, name, op_id=None):
        idx = self.open(name, op_id)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- aggregates ----------------------------------------------------

    def aggregate(self, name) -> Aggregate:
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        return agg

    def timed_call(self, agg: Aggregate, fn, *args, **kwargs):
        """Call fn, adding its time to agg and, when it is the outermost
        aggregate call, to the enclosing span's aggregate-child time."""
        self._agg_depth += 1
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            self._agg_depth -= 1
            agg.calls += 1
            agg.seconds += dt
            if self._agg_depth == 0 and self._stack:
                self.spans[self._stack[-1]].agg_child += dt

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans minus aggregate calls."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c - s.agg_child for s, c in zip(self.spans, child)]

    def inclusive(self, names) -> float:
        """Summed duration of spans named in `names`, counting a span
        only when no ancestor also carries one of those names."""
        names = set(names)
        total = 0.0
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            nested = False
            while p is not None:
                if self.spans[p].name in names:
                    nested = True
                    break
                p = self.spans[p].parent
            if not nested:
                total += s.duration
        return total

    def self_time(self, names) -> float:
        names = set(names)
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name in names)

    def count(self, names) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s.name in names)

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op_id": s.op_id,
                }
                for s in self.spans
            ],
            "aggregates": {
                k: {"calls": a.calls, "seconds": a.seconds, **a.extra}
                for k, a in sorted(self.aggregates.items())
            },
        }


# -- wrapper factories ------------------------------------------------------


def span_wrapper(tracer, name, on_result=None):
    def factory(fn):
        def wrapped(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapped

    return factory


def aggregate_wrapper(tracer, name, before=None):
    agg = tracer.aggregate(name)

    def factory(fn):
        def wrapped(*args, **kwargs):
            if before is not None:
                before(agg, args, kwargs)
            return tracer.timed_call(agg, fn, *args, **kwargs)

        return wrapped

    return factory


def golden_wrapper(tracer, name):
    """Aggregate wrapper for golden_min that also counts the probes made
    through its objective function (first positional argument)."""
    agg = tracer.aggregate(name)
    probes = tracer.aggregate(name + ".probe")

    def factory(fn):
        def wrapped(f, *args, **kwargs):
            def probe(t):
                probes.calls += 1
                return f(t)

            return tracer.timed_call(agg, fn, probe, *args, **kwargs)

        return wrapped

    return factory


# -- installation -----------------------------------------------------------


class Patches:
    """Attribute replacements that can be undone.

    Each target is (owner, attribute); the owner is a module or class of
    the package. A target whose owner or attribute no longer exists is
    recorded in `missing` and skipped, so that a refactor that removes a
    wrapped name makes its metrics absent instead of crashing the run.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def wrap(self, owner, attr, factory, label):
        if owner is None or attr not in vars(owner):
            self.missing.add(label)
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(factory(raw.__func__))
        else:
            replacement = factory(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _resolve(modules, dotted):
    """'master.RedfieldGenerator' -> the class, 'cli' -> the module."""
    head, *rest = dotted.split(".")
    obj = modules.get(head)
    for part in rest:
        obj = vars(obj).get(part) if obj is not None else None
    return obj


def _tcl2_pass_counter(agg, args, kwargs):
    gen, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
    agg.add("terms", int(np.size(gen.kernel.g)))
    if float(t) == 0.0:
        agg.add("tau0")


def _make_useful_counter(tracer, default_time_grid):
    agg = tracer.aggregate("regions.sup_refine.useful")

    def on_result(res, args, kwargs):
        if res.t_star is None:
            return
        grid = kwargs.get("grid")
        if grid is None:
            model, kernel = args[0], args[1]
            grid = default_time_grid(model, kernel, kwargs.get("t_window", 50.0))
        agg.calls += 1
        if not np.any(np.asarray(grid) == res.t_star):
            agg.add("off_grid")

    return on_result


def _times_counter(tracer, name, pos, keyword):
    """Counts the time points passed as argument `pos` / `keyword`."""
    agg = tracer.aggregate(name + ".times")

    def on_result(res, args, kwargs):
        agg.calls += int(np.size(args[pos] if len(args) > pos else kwargs[keyword]))

    return on_result


def _bytes_counter(tracer):
    agg = tracer.aggregate("cli.bytes")

    def on_result(res, args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        agg.calls += len(text.encode("utf-8"))

    return on_result


def install(tracer: Tracer, modules: dict) -> Patches:
    """Wrap the package's layer entry points; `modules` maps short module
    names (cli, bath, ...) to the imported modules."""
    patches = Patches()

    def span(name, on_result=None):
        return span_wrapper(tracer, name, on_result)

    regions = modules.get("regions")
    grid_fn = getattr(regions, "default_time_grid", None)

    # functions: every module that imported the name holds its own reference
    function_targets = [
        (("bath", "config", "cli"), "fit_exponential_mixture", span("bath.fit")),
        (("bath",), "correlation_quadrature",
         span("bath.correlation_quadrature",
              _times_counter(tracer, "bath.correlation_quadrature", 1, "t"))),
        (("master", "cli"), "propagate_markovian", span("master.propagate_markovian")),
        (("master", "cli"), "propagate_tcl2", span("master.propagate_tcl2")),
        (("master",), "golden_min", golden_wrapper(tracer, "master.dip_refine")),
        (("regions",), "golden_min", golden_wrapper(tracer, "regions.sup_refine")),
        (("regions", "cli"), "u_prime_membership",
         span("regions.u_prime_membership",
              _make_useful_counter(tracer, grid_fn) if grid_fn else None)),
        (("regions", "cli"), "region_scan", span("regions.region_scan")),
        (("corrections", "oracle"), "delta_rho1", span("corrections.delta_rho1")),
        (("corrections", "cli"), "slipped_initial_condition",
         span("corrections.slipped_initial_condition")),
        (("oracle",), "evolve_exact",
         span("oracle.evolve_exact", _times_counter(tracer, "oracle.evolve_exact", 2, "times"))),
        (("oracle",), "delta_rho2_direct",
         span("oracle.delta_rho2_direct", _times_counter(tracer, "oracle.delta_rho2_direct", 4, "times"))),
        (("oracle",), "build_total_hamiltonian", span("oracle.build_total_hamiltonian")),
        (("oracle",), "thermal_total_state", span("oracle.thermal_total_state")),
        (("cli",), "_dump_json", span("cli.format")),
        (("cli",), "_write", span("cli.write", _bytes_counter(tracer))),
    ]
    method_targets = [
        (("master.RedfieldGenerator",), "theta_tail",
         aggregate_wrapper(tracer, "master.theta_tail", _tcl2_pass_counter)),
        (("master.PositivityScanner",), "evaluate", span("master.PositivityScanner.evaluate")),
        (("regions.VariationalTables",), "__init__", span("regions.VariationalTables")),
        (("regions.VariationalTables",), "tables", span("regions.VariationalTables.tables")),
        (("operators.Superoperator",), "expm_action",
         aggregate_wrapper(tracer, "operators.expm_action")),
        (("operators.Superoperator",), "expm_action_many",
         aggregate_wrapper(tracer, "operators.expm_action")),
        (("master.Trajectory", "regions.RegionScanResult"), "to_csv", span("cli.format")),
        (("config.RunConfig",), "load", span("config.load")),
    ]
    for owners, attr, factory in function_targets + method_targets:
        for owner in owners:
            patches.wrap(_resolve(modules, owner), attr, factory, f"{owner}.{attr}")
    return patches


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(tracer: Tracer, missing=frozenset()) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}.

    A metric whose wrapped target no longer exists in the package is
    left out (absent), not reported as zero.
    """
    def agg(name):
        return tracer.aggregates.get(name, Aggregate())

    def ratio(num, den):
        return num / den if den else 0.0

    tt = agg("master.theta_tail")
    n_tcl2 = tracer.count(["master.propagate_tcl2"])
    useful = agg("regions.sup_refine.useful")
    table = [
        # name, unit, wrapped targets it needs, value
        ("bath.correlation_quadrature_calls", "count", ["bath.correlation_quadrature"],
         lambda: agg("bath.correlation_quadrature.times").calls),
        ("bath.correlation_quadrature_s", "s", ["bath.correlation_quadrature"],
         lambda: tracer.inclusive(["bath.correlation_quadrature"])),
        ("master.theta_tail_calls", "count", ["master.RedfieldGenerator.theta_tail"],
         lambda: tt.calls),
        ("master.theta_tail_s", "s", ["master.RedfieldGenerator.theta_tail"],
         lambda: tt.seconds),
        ("master.kernel_term_evals", "count", ["master.RedfieldGenerator.theta_tail"],
         lambda: tt.extra.get("terms", 0)),
        ("master.tcl2_passes", "count",
         ["master.RedfieldGenerator.theta_tail", "master.propagate_tcl2"],
         lambda: ratio(tt.extra.get("tau0", 0), n_tcl2)),
        ("master.propagate_tcl2_self_s", "s", ["master.propagate_tcl2"],
         lambda: tracer.self_time(["master.propagate_tcl2"])),
        ("master.propagate_markov_s", "s", ["master.propagate_markovian"],
         lambda: tracer.inclusive(["master.propagate_markovian"])),
        ("master.positivity_evaluate_calls", "count", ["master.PositivityScanner.evaluate"],
         lambda: tracer.count(["master.PositivityScanner.evaluate"])),
        ("master.positivity_evaluate_self_s", "s", ["master.PositivityScanner.evaluate"],
         lambda: tracer.self_time(["master.PositivityScanner.evaluate"])),
        ("master.dip_refine_calls", "count", ["master.golden_min"],
         lambda: agg("master.dip_refine").calls),
        ("master.dip_refine_probes", "count", ["master.golden_min"],
         lambda: agg("master.dip_refine.probe").calls),
        ("master.dip_refine_s", "s", ["master.golden_min"],
         lambda: agg("master.dip_refine").seconds),
        ("regions.tables_calls", "count", ["regions.VariationalTables.__init__"],
         lambda: tracer.count(["regions.VariationalTables"])),
        ("regions.tables_s", "s",
         ["regions.VariationalTables.__init__", "regions.VariationalTables.tables"],
         lambda: tracer.inclusive(["regions.VariationalTables", "regions.VariationalTables.tables"])),
        ("regions.u_prime_calls", "count", ["regions.u_prime_membership"],
         lambda: tracer.count(["regions.u_prime_membership"])),
        ("regions.u_prime_self_s", "s", ["regions.u_prime_membership"],
         lambda: tracer.self_time(["regions.u_prime_membership"])),
        ("regions.sup_refine_probes", "count", ["regions.golden_min"],
         lambda: agg("regions.sup_refine.probe").calls),
        ("regions.sup_refine_s", "s", ["regions.golden_min"],
         lambda: agg("regions.sup_refine").seconds),
        ("regions.sup_refine_useful_ratio", "ratio", ["regions.u_prime_membership"],
         lambda: ratio(useful.extra.get("off_grid", 0), useful.calls)),
        ("regions.region_scan_self_s", "s", ["regions.region_scan"],
         lambda: tracer.self_time(["regions.region_scan"])),
        ("corrections.delta_rho1_calls", "count", ["corrections.delta_rho1"],
         lambda: tracer.count(["corrections.delta_rho1"])),
        ("corrections.delta_rho1_s", "s", ["corrections.delta_rho1"],
         lambda: tracer.inclusive(["corrections.delta_rho1"])),
        ("corrections.slipped_s", "s", ["corrections.slipped_initial_condition"],
         lambda: tracer.inclusive(["corrections.slipped_initial_condition"])),
        ("oracle.evolve_exact_times", "count", ["oracle.evolve_exact"],
         lambda: agg("oracle.evolve_exact.times").calls),
        ("oracle.evolve_exact_s", "s", ["oracle.evolve_exact"],
         lambda: tracer.inclusive(["oracle.evolve_exact"])),
        ("oracle.delta_rho2_direct_times", "count", ["oracle.delta_rho2_direct"],
         lambda: agg("oracle.delta_rho2_direct.times").calls),
        ("oracle.delta_rho2_direct_s", "s", ["oracle.delta_rho2_direct"],
         lambda: tracer.inclusive(["oracle.delta_rho2_direct"])),
        ("oracle.total_state_s", "s",
         ["oracle.build_total_hamiltonian", "oracle.thermal_total_state"],
         lambda: tracer.inclusive(["oracle.build_total_hamiltonian", "oracle.thermal_total_state"])),
        ("operators.expm_action_calls", "count", ["operators.Superoperator.expm_action"],
         lambda: agg("operators.expm_action").calls),
        ("operators.expm_action_s", "s", ["operators.Superoperator.expm_action"],
         lambda: agg("operators.expm_action").seconds),
        ("config.load_s", "s", ["config.RunConfig.load"],
         lambda: tracer.inclusive(["config.load"])),
        ("cli.format_write_s", "s", ["cli._write"],
         lambda: tracer.inclusive(["cli.format", "cli.write"])),
        ("cli.bytes_written", "bytes", ["cli._write"],
         lambda: agg("cli.bytes").calls),
    ]
    return {
        name: (value(), unit)
        for name, unit, needs, value in table
        if not any(n in missing for n in needs)
    }
