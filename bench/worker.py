"""One workload in one fresh process.

Started by run.py, never imported by it. The clock starts before numpy
or the package is imported, so the reported set-up time covers the
package import, `RunConfig.load` and the first kernel fit (which the
package caches for the rest of the process). The process then repeats
the workload's round of operations, closed loop and single-threaded,
until the requested seconds have passed, checks every operation's
output outside the timed region, and prints one JSON line.

    python3 bench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --out DIR [--trace-file FILE]
    python3 bench/worker.py --root DIR --setup-only
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402


END_TO_END = ("setup_s", "round_s", "peak_rss_mb")
MODULES = ("bath", "cli", "config", "corrections", "master", "operators", "oracle", "regions")


# The reference box shares its cores with other tenants, and its speed
# drifts by up to 40-50 % within minutes: the rounds of every workload and
# the set-up time slow down together. End-to-end times are therefore given
# in reference seconds: raw seconds * CAL_REF_S / (median time of
# `calibrate` in the worker, timed before the first round and after each
# round). CAL_REF_S is that median on the reference box at full speed,
# where a reference second is close to a raw one. Raw times go to the
# run's env line.
CAL_REF_S = 0.18


def calibrate(np):
    """Seconds for a fixed mix of the kinds of work the package does:
    exponentials over a 4001-term vector, small-matrix numpy calls, a
    pure-Python loop and a dense symmetric eigensolve."""
    g = np.arange(4001) * 6.28 + 1.0 + 0j
    a = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    m = np.cos(np.outer(np.arange(160), np.arange(160)) * 0.01)
    t0 = time.perf_counter()
    for k in range(900):
        np.exp(-1e-3 * k * g)
    for _ in range(12_000):
        a @ a - a.conj().T
    s = 0
    for k in range(600_000):
        s += k * k % 7
    for _ in range(36):
        np.linalg.eigh(m)
    return time.perf_counter() - t0


def load_package(root):
    """Import the package from root/src, never from an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import scipy

    import redfield_slippage
    from redfield_slippage import bath, cli, config, corrections, master, operators, oracle, regions

    where = os.path.realpath(redfield_slippage.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"redfield_slippage imported from {where}, not from {src}")
    return types.SimpleNamespace(
        np=np, scipy=scipy, bath=bath, cli=cli, config=config, corrections=corrections,
        master=master, operators=operators, oracle=oracle, regions=regions,
    )


def run_op(pkg, workloads, op, out):
    """Run one operation; returns (seconds, error or None)."""
    t0 = time.perf_counter()
    try:
        if op.argv is None:
            workloads.run_oracle(pkg, op.state, out)
            rc = 0
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = pkg.cli.main(op.argv + ["--out", out, "--jobs", "1"])
    except SystemExit as exc:  # argparse rejects the arguments
        return time.perf_counter() - t0, f"{op.kind}: exit {exc.code}"
    except Exception:
        return time.perf_counter() - t0, f"{op.kind}: {traceback.format_exc()}"
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, f"{op.kind}: exit code {rc}"
    return dt, None


def run_round(pkg, workloads, ops, out_root, tracer=None):
    """One closed-loop pass over ops. Returns (wall, [(kind, seconds)], errors);
    outputs are checked after the round, outside the timed region."""
    lat = []
    errors = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        out = os.path.join(out_root, f"op{i}")
        if tracer is None:
            dt, err = run_op(pkg, workloads, op, out)
        else:
            with tracer.span("cmd." + op.kind, op_id=i):
                dt, err = run_op(pkg, workloads, op, out)
        lat.append((op.kind, dt))
        errors.append(err)
    wall = time.perf_counter() - t0
    for i, op in enumerate(ops):
        if errors[i] is None:
            try:
                errors[i] = op.check(os.path.join(out_root, f"op{i}"))
            except (OSError, KeyError, ValueError) as exc:
                errors[i] = f"{op.kind}: unreadable output ({exc!r})"
    return wall, lat, [e for e in errors if e]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def command_metrics(latencies, cells=0):
    """Per-command latencies of untraced rounds, keyed as in BENCHMARK.json;
    `cells` is the number of physical cells one region-scan classifies."""
    by = {}
    for kind, dt in latencies:
        by.setdefault(kind, []).append(dt)
    scans = by.get("region_scan", [])
    return {
        "cli.region_scan_s": (_median(scans), "s"),
        "cli.scan_cells_per_s": (cells / _median(scans) if scans else 0.0, "1/s"),
        "cli.diagnose_p50_s": (_median(by.get("diagnose", [])), "s"),
        "cli.propagate_markov_p50_s": (_median(by.get("propagate_markov", [])), "s"),
        # one tcl2 command per round: the per-round sum is its median
        "cli.propagate_tcl2_s": (_median(by.get("propagate_tcl2", [])), "s"),
        "cli.oracle_s": (_median(by.get("oracle", [])), "s"),
        "cli.bath_correlation_s": (_median(by.get("bath_correlation", [])), "s"),
    }


def scan_cells(out_root, ops):
    """Physical cells of the round's region-scan, from its metadata."""
    for i, op in enumerate(ops):
        if op.kind == "region_scan":
            try:
                with open(os.path.join(out_root, f"op{i}", "region_scan_meta.json"),
                          encoding="utf-8") as fh:
                    scan = json.load(fh)["scan"]
            except FileNotFoundError:  # the scan failed; counted as such
                return 0
            return scan["grid_n"] ** 2 - scan["n_unphysical"]
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    pkg = load_package(args.root)
    cfg = pkg.config.RunConfig.load(None, [])
    t_fit = time.perf_counter()
    kernel = cfg.kernel()
    fit_s = time.perf_counter() - t_fit
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads  # next to this script, so on sys.path already

    if args.trace:
        import tracing

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, inputs, pkg)
    for i in range(len(ops)):
        os.makedirs(os.path.join(args.out, f"op{i}"), exist_ok=True)
    modules = {k: getattr(pkg, k) for k in MODULES}

    rounds = []  # (traced, wall, latencies)
    errors = []
    traces = []
    calibrate(pkg.np)  # warm-up: first calls load LAPACK and fill caches
    calibs = [calibrate(pkg.np)]
    t_begin = time.perf_counter()
    t_prev = t_begin
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer, modules)
            try:
                wall, lat, errs = run_round(pkg, workloads, ops, args.out, tracer)
            finally:
                patches.restore()
            traces.append((tracer, patches.missing))
        else:
            wall, lat, errs = run_round(pkg, workloads, ops, args.out)
        rounds.append((traced, wall, lat))
        errors.extend(errs)
        calibs.append(calibrate(pkg.np))
        # stop before a round that would end past --seconds, once the
        # minimum (one untraced round, plus one traced round if tracing) ran
        now = time.perf_counter()
        over = now + (now - t_prev) - t_begin > args.seconds
        t_prev = now
        if over and (not args.trace or traces):
            break

    for e in errors:
        print(e, file=sys.stderr)
    untraced = [r for r in rounds if not r[0]]
    walls = [w for _, w, _ in untraced]
    lat_all = [x for _, _, lat in untraced for x in lat]
    result = {
        "attempted": sum(len(lat) for _, _, lat in rounds),
        "failed": len(errors),
        "round_walls": [w for _, w, _ in rounds],
        "setup_raw_s": setup_s,
        "calib_s": calibs,
        "scale": CAL_REF_S / _median(calibs),
        "versions": {"numpy": pkg.np.__version__, "scipy": pkg.scipy.__version__},
    }
    if args.trace:
        per_round = [tracing.layer_metrics(t, missing) for t, missing in traces]
        layer = {}
        for name, (_, unit) in per_round[0].items():
            vals = [m[name][0] for m in per_round]
            # counts repeat exactly across rounds; times take the median
            layer[name] = (vals[0] if unit != "s" else _median(vals), unit)
        layer.update(command_metrics(lat_all, scan_cells(args.out, ops)))
        traced_walls = [w for t, w, _ in rounds if t]
        layer["trace.overhead_s"] = (_median(traced_walls) - _median(walls), "s")
        layer["bath.kernel_terms"] = (int(kernel.g.size), "count")
        layer["bath.fit_s"] = (fit_s, "s")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
        result["absent"] = sorted(set().union(*(m for _, m in traces)))
        result["counts_repeat"] = all(
            m[k][0] == per_round[0][k][0]
            for m in per_round for k in m if m[k][1] != "s"
        )
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "rounds": [t.to_json() for t, _ in traces]}, fh)
    else:
        result["metrics"] = {
            "setup_s": {"value": setup_s * result["scale"], "unit": "s"},
            "round_s": {"value": _median(walls) * result["scale"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
