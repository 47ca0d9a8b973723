"""Benchmark entry point for the redfield_slippage package.

    python3 bench/run.py --workload {disk_scan,single_state,reference} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The package is imported from
./src, never from an installed copy, and no build step is needed.

Each run starts fresh processes one after another, never two at once:
(untraced runs only) SETUP_PROBES processes that only import the package, load the default
config and fit the default kernel, then one worker process that does the
same and then repeats the workload's round of operations for --seconds
(see worker.py and workloads.py). BLAS and OpenMP pools are pinned to
one thread in the children and scans run with --jobs 1, so the run uses
one core; multi-process scan scaling is not measured.

With --trace 0 the last stdout line carries the end-to-end metrics:

    setup_s      median set-up time over all fresh processes of the run
    round_s      median time of one round (set-up excluded)
    peak_rss_mb  peak resident set size of the worker process

Both times are in reference seconds: the worker also times a fixed
calibration loop between rounds, and the raw times of the run are scaled
by the reference speed over the measured speed (see worker.CAL_REF_S).
The raw times and the calibration times are recorded on the env line.

With --trace 1 the worker alternates untraced and traced rounds and the
last line carries the per-layer metrics of the traced rounds (counts of
one round, median times), the per-command latencies of the untraced
rounds (cli.*) and the tracing overhead. Spans are written to
.bench_out/trace-<workload>-<seed>.json. The line before the result
records the environment: git sha (when the checkout is a git tree),
core count, Python, numpy and scipy versions.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {
    k: "1"
    for k in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, timeout):
    """Run a worker to completion; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER, "--root", ROOT] + args,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def git_sha(root):
    """HEAD commit from the .git directory, or None outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("disk_scan", "single_state", "reference"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    package = os.path.join(ROOT, "src", "redfield_slippage", "__init__.py")
    if not os.path.isfile(package):
        print(f"bench: no package source at {package}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_child(["--setup-only"], CHILD_TIMEOUT_S)["setup_s"]
                  for _ in range(probes)]
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        res = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--out", work] + (["--trace-file", trace_file] if args.trace else []),
            CHILD_TIMEOUT_S,
        )
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = res["metrics"]
    if not args.trace:
        # the probes run seconds before the worker: scale them by its speed
        samples = [s * res["scale"] for s in setups] + [metrics["setup_s"]["value"]]
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    env = {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **res["versions"],
        "round_walls": res["round_walls"],
        "error_rate": res["failed"] / res["attempted"],
        "setup_raw_s": setups + [res["setup_raw_s"]],
        "calib_s": res["calib_s"],
    }
    if args.trace:
        env["absent"] = res["absent"]
        env["counts_repeat"] = res["counts_repeat"]
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
