"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py

They import the package from ../src like the benchmark does. The last
test runs two traced rounds of every workload (about 40 s).
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

MODULES = worker.MODULES


@pytest.fixture(scope="module")
def pkg():
    return worker.load_package(ROOT)


def _modules(pkg):
    return {k: getattr(pkg, k) for k in MODULES}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(name):
    assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)
    json.dumps(workloads.make_inputs(name, 3))


def test_tcl2_inputs_stay_in_their_class():
    for seed in range(50):
        inp = workloads.make_inputs("single_state", seed)
        x, y, z = inp["tcl2_state"]
        assert workloads.TCL2_Z_RANGE[0] <= abs(z) <= workloads.TCL2_Z_RANGE[1]
        assert x * x + y * y + z * z <= workloads.STATE_RADIUS_MAX**2 + 1e-5
        assert 0.0 <= inp["kappa"] < workloads.TCL2_KAPPA_MAX
        assert all(sum(c * c for c in v) <= workloads.STATE_RADIUS_MAX**2 + 1e-5
                   for v in inp["states"])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_synthetic_span_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    agg = tr.aggregate("hot")

    def hot():
        clock.now += 0.5

    root = tr.open("cmd", op_id=7)          # 0 .. 10
    clock.now = 1.0
    a = tr.open("a")                         # 1 .. 5
    clock.now = 2.0
    b = tr.open("b")                         # 2 .. 3
    clock.now = 3.0
    tr.close(b)
    tr.timed_call(agg, hot)                  # 3 .. 3.5 inside a
    clock.now = 5.0
    tr.close(a)
    tr.timed_call(agg, hot)                  # 5 .. 5.5 inside cmd
    c = tr.open("a")                         # 5.5 .. 6.5, same name as a
    clock.now = 6.5
    tr.close(c)
    clock.now = 10.0
    tr.close(root)

    assert [s.op_id for s in tr.spans] == [7, 7, 7, 7]
    assert tr.self_times() == pytest.approx([10 - 4 - 1 - 0.5, 4 - 1 - 0.5, 1.0, 1.0])
    assert tr.self_time(["a"]) == pytest.approx(3.5)
    assert tr.inclusive(["a"]) == pytest.approx(5.0)
    # b is nested inside a, so it is not counted twice
    assert tr.inclusive(["a", "b"]) == pytest.approx(5.0)
    assert agg.calls == 2 and agg.seconds == pytest.approx(1.0)


def test_nested_aggregates_are_subtracted_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    outer, inner = tr.aggregate("outer"), tr.aggregate("inner")

    def inner_fn():
        clock.now += 1.0

    def outer_fn():
        clock.now += 1.0
        tr.timed_call(inner, inner_fn)

    s = tr.open("s")
    tr.timed_call(outer, outer_fn)
    clock.now += 1.0
    tr.close(s)
    assert tr.self_times() == pytest.approx([1.0])
    assert (outer.seconds, inner.seconds) == pytest.approx((2.0, 1.0))


def _snapshot(pkg):
    snap = {}
    for name in MODULES:
        mod = getattr(pkg, name)
        snap[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                snap[f"{name}.{attr}"] = dict(vars(obj))
    return snap


def test_wrapped_attributes_are_restored(pkg, tmp_path):
    before = _snapshot(pkg)
    tr = tracing.Tracer()
    patches = tracing.install(tr, _modules(pkg))
    try:
        assert pkg.master.propagate_tcl2 is not before["master"]["propagate_tcl2"]
        assert pkg.cli.main(["diagnose", "--initial=0.1,0.2,0.3", "--out", str(tmp_path)]) == 0
    finally:
        patches.restore()
    assert _snapshot(pkg) == before
    assert not patches.missing
    assert tr.count(["regions.u_prime_membership"]) == 1
    assert tr.count(["config.load"]) == 1


def test_missing_target_makes_its_metric_absent(pkg):
    mods = _modules(pkg)
    master_without_theta_tail = type("M", (), {})  # a class without theta_tail
    mods_view = dict(mods)
    fake_master = type(sys)("fake_master")
    fake_master.RedfieldGenerator = master_without_theta_tail
    mods_view["master"] = fake_master
    tr = tracing.Tracer()
    patches = tracing.install(tr, mods_view)
    patches.restore()
    assert "master.RedfieldGenerator.theta_tail" in patches.missing
    metrics = tracing.layer_metrics(tr, patches.missing)
    assert "master.theta_tail_calls" not in metrics
    assert "master.tcl2_passes" not in metrics
    assert "regions.u_prime_calls" in metrics


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = set(tracing.layer_metrics(tracing.Tracer()))
    layer |= set(worker.command_metrics([]))
    layer |= {"trace.overhead_s", "bath.kernel_terms", "bath.fit_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == set(worker.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _traced_counts(pkg, name, seed, out):
    inputs = workloads.make_inputs(name, seed)
    ops = workloads.make_ops(name, inputs, pkg)
    for i in range(len(ops)):
        os.makedirs(os.path.join(out, f"op{i}"), exist_ok=True)
    tr = tracing.Tracer()
    patches = tracing.install(tr, _modules(pkg))
    try:
        _, _, errors = worker.run_round(pkg, workloads, ops, out, tr)
    finally:
        patches.restore()
    assert errors == []
    metrics = tracing.layer_metrics(tr, patches.missing)
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counters_repeat_for_a_seed(pkg, tmp_path, name):
    first = _traced_counts(pkg, name, 5, str(tmp_path / "a"))
    second = _traced_counts(pkg, name, 5, str(tmp_path / "b"))
    assert first == second
    if name == "single_state":
        assert first["master.tcl2_passes"] > 2
        assert first["master.theta_tail_calls"] > 0
    if name == "disk_scan":
        assert first["master.dip_refine_probes"] > first["master.dip_refine_calls"] > 0
        assert first["regions.sup_refine_probes"] > 0
    if name == "reference":
        assert first["master.theta_tail_calls"] == 0
        assert first["bath.correlation_quadrature_calls"] == 200
