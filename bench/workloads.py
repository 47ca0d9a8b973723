"""Seeded workload inputs, the operations that drive the package with
them, and the checks on each operation's output.

Every input is drawn from `random.Random(seed)`, so the same seed gives
the same inputs on any machine and a different seed gives different
ones. The package only ever sees the generated inputs: command-line
arguments for `cli.main`, and a Bloch vector for the oracle entry
points.

Why each workload exists, and which layers it loads:

* disk_scan: one `region-scan` of a reduced grid at the default physics.
  The `U'` sup search and the `N` dip refinement (golden-section probes
  over all 4001 kernel terms) do almost all the work; variational
  tables are built once and amortised over the grid.
* single_state: `diagnose` and `propagate --mode markov` for many seeded
  states plus one `propagate --mode tcl2`. TCL2 integration
  (`theta_tail` over 4001 terms, repeated by step halving) dominates;
  `diagnose` rebuilds the variational tables on every call, so work
  moved into table set-up shows here as a cost.
* reference: the exact few-mode oracle and the contour-quadrature kernel
  table. Only few-term discrete kernels and the independent quadrature
  run, none of the 4001-term continuum hot path, so kernel compression,
  scan batching and closed-form TCL2 should leave it unchanged.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("disk_scan", "single_state", "reference")

# disk_scan: grid reduced from the 201 x 201 default so one scan takes
# seconds; the slice height is drawn from a narrow band around z = 0.
SCAN_GRID_N = 31
SCAN_Z_BAND = 0.05

# single_state: states per round, each given diagnose + markov.
N_STATES = 48
STATE_RADIUS_MAX = 0.95
# TCL2 runs to t_end = 3 rather than the CLI default 20: at t_end <= 2.5
# the first halving repeats the same step (one step per output interval)
# and "converges" at once, hiding the halving cost; at 20 a single call
# exhausts the halving budget after ~40 s. States with |z| >= 0.5 and
# kappa < 0.5 need 7 RK4 passes at t_end = 3 (47 760 theta_tail calls),
# so every seed exercises the halving loop the same way; equatorial
# states and kappa near 1 stop after 2-6 passes, which would make a
# run's cost depend on the seed by factors of two.
TCL2_T_END = 3.0
TCL2_Z_RANGE = (0.5, 0.9)
TCL2_KAPPA_MAX = 0.5

# reference: oracle state radius range (cmd_oracle uses |r| = 0.67).
ORACLE_RADIUS = (0.3, 0.8)

# output checks, taken from the acceptance gate
TCL2_TRACE_DIST_TOL = 1e-8
MARKOV_TRACE_ERR_TOL = 1e-12
SIGN_RESIDUAL_TOL = 1e-8
SCALING_SLOPE_MIN = 2.7
BATH_REL_RESIDUAL_TOL = 1e-8


def _fmt(x: float) -> str:
    return repr(round(float(x), 6))


def _ball_point(rng, r_max):
    """Uniform point in the ball of radius r_max."""
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        if sum(c * c for c in v) <= 1.0:
            return [r_max * c for c in v]


def _tcl2_state(rng):
    z = rng.uniform(*TCL2_Z_RANGE) * rng.choice((-1.0, 1.0))
    rho_max = math.sqrt(STATE_RADIUS_MAX**2 - z * z)
    r = rho_max * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return [r * math.cos(phi), r * math.sin(phi), z]


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one run, as plain JSON-able data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{int(seed)}")
    if workload == "disk_scan":
        return {"grid_n": SCAN_GRID_N, "z": round(rng.uniform(-SCAN_Z_BAND, SCAN_Z_BAND), 6)}
    if workload == "single_state":
        states = [[round(c, 6) for c in _ball_point(rng, STATE_RADIUS_MAX)] for _ in range(N_STATES)]
        tcl2 = [round(c, 6) for c in _tcl2_state(rng)]
        kappa = round(rng.uniform(0.0, TCL2_KAPPA_MAX), 6)
        return {"states": states, "tcl2_state": tcl2, "kappa": kappa, "t_end": TCL2_T_END}
    r = rng.uniform(*ORACLE_RADIUS)
    u = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in u))
    return {"oracle_state": [round(r * c / norm, 6) for c in u]}


# -- operations -------------------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation: `kind` names the command, `argv` is
    passed to `cli.main` (None for the direct oracle call), `check`
    inspects the output directory afterwards and returns an error
    message or None."""

    kind: str
    argv: list | None
    check: object
    state: list | None = None


def _bloch(v):
    # passed as --initial=x,y,z: a leading minus would read as an option
    return ",".join(_fmt(c) for c in v)


def make_ops(workload: str, inputs: dict, pkg) -> list:
    """Operations of one round, in the order they run. `pkg` is the imported
    package namespace used to compute reference values for the checks."""
    if workload == "disk_scan":
        n = inputs["grid_n"]
        argv = ["region-scan", "--set", f"scan.grid_n={n}", "--set", f"scan.z={_fmt(inputs['z'])}"]
        return [Op("region_scan", argv, lambda out: check_scan(out, n))]
    if workload == "single_state":
        ops = []
        for v in inputs["states"]:
            b = _bloch(v)
            ops.append(Op("diagnose", ["diagnose", f"--initial={b}"], lambda out, v=v: check_diagnose(out, v)))
            ops.append(Op("propagate_markov", ["propagate", "--mode", "markov", f"--initial={b}"],
                          check_markov))
        v, kappa, t_end = inputs["tcl2_state"], inputs["kappa"], inputs["t_end"]
        reference = tcl2_reference(pkg, v, kappa, t_end)
        ops.append(Op(
            "propagate_tcl2",
            ["propagate", "--mode", "tcl2", f"--initial={_bloch(v)}", f"--kappa={_fmt(kappa)}",
             "--set", f"propagation.t_end={_fmt(t_end)}"],
            lambda out: check_tcl2(out, reference),
        ))
        return ops
    return [
        Op("oracle", None, check_oracle, state=inputs["oracle_state"]),
        Op("bath_correlation", ["bath-correlation"], check_bath_correlation),
    ]


def run_oracle(pkg, state, out):
    """The three oracle entry points with the arguments cmd_oracle uses,
    except the hard-coded state, which is the seeded one here."""
    np = pkg.np
    cfg = pkg.config.RunConfig.load(None, [])
    model = cfg.model()
    orc = pkg.oracle
    bath = orc.default_oracle_bath(
        omega_c=float(cfg["bath.omega_cutoff"]),
        beta=float(cfg["oracle.beta"]),
        n_modes=int(cfg["oracle.n_modes"]),
        omega_max=float(cfg["oracle.omega_max"]) * model.epsilon,
        fock_cutoff=int(cfg["oracle.fock_cutoff"]),
    )
    rho_s = pkg.operators.bloch_to_density(tuple(state))
    times = np.linspace(0.2, 6.0, int(cfg["oracle.n_times"]))
    lam_c = float(cfg["oracle.cancellation_lambda"])
    sign, details = orc.pin_natural_sign(model, bath, rho_s, lam_c, times)
    scaling = orc.validate_scaling(
        model, bath, rho_s,
        lambdas=tuple(cfg.oracle_lambdas()),
        t_star=float(cfg["oracle.t_star"]),
    )
    orc.short_time_markovianity(model, bath, rho_s, 0.2, np.linspace(0.25, 2.0, 8))
    dim = int(orc.build_total_hamiltonian(model, bath, lam_c).shape[0])
    report = {
        "pinned_sign": sign,
        "residual": details[sign]["max_residual"],
        "natural_sign": pkg.corrections.NATURAL_SIGN,
        "slope": scaling["slope"],
        "total_dimension": dim,
    }
    with open(os.path.join(out, "oracle_check.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def tcl2_reference(pkg, v, kappa, t_end):
    """Closed-form second-order trajectory the TCL2 integrator must match."""
    cfg = pkg.config.RunConfig.load(None, [f"propagation.t_end={_fmt(t_end)}"])
    corr = pkg.corrections
    rho = pkg.operators.bloch_to_density(tuple(float(c) for c in v))
    traj = corr.perturbative_solution(
        cfg.model(), cfg.kernel(), float(cfg["lambda"]), rho,
        corr.NaturalFamily(float(kappa)), cfg.propagation_times(),
    )
    return [(float(t), b.x, b.y, b.z) for t, b in zip(traj.times, traj.blochs())]


# -- output checks ----------------------------------------------------------


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_scan(out, grid_n):
    rows = _rows(os.path.join(out, "region_scan.csv"))
    if len(rows) != grid_n * grid_n:
        return f"region_scan has {len(rows)} rows, expected {grid_n * grid_n}"
    u = [[False] * grid_n for _ in range(grid_n)]
    nn = [[False] * grid_n for _ in range(grid_n)]
    for k, row in enumerate(rows):
        i, j = divmod(k, grid_n)  # y slowest
        u[i][j] = row["in_U_prime"] == "1"
        nn[i][j] = row["in_N"] == "1"
    if not any(map(any, u)) or not any(map(any, nn)):
        return "U' or N is empty"
    c = grid_n // 2
    if u[c][c]:
        return "the disk centre is in U'"
    for i in range(grid_n):
        for j in range(grid_n):
            if nn[i][j] and not any(
                u[a][b]
                for a in range(max(i - 1, 0), min(i + 2, grid_n))
                for b in range(max(j - 1, 0), min(j + 2, grid_n))
            ):
                return f"N cell ({i},{j}) lies outside U' dilated by one cell"
    return None


def check_diagnose(out, v):
    with open(os.path.join(out, "diagnose.json"), encoding="utf-8") as fh:
        d = json.load(fh)
    r = math.sqrt(sum(c * c for c in v))
    if abs(d["p0"] - 0.5 * (1.0 - r)) > 1e-12:
        return f"diagnose p0 {d['p0']} does not match the state"
    lam = d["config"]["lambda"]
    if abs(d["bound"] - (d["p0"] - lam * lam * d["sup_value"])) > 1e-12:
        return "diagnose bound != p0 - lambda^2 sup"
    if d["in_U_prime"] != (d["bound"] < 0.0):
        return "diagnose membership disagrees with its bound"
    if not all(math.isfinite(x) for x in (d["sup_value"], d["slipped"]["err_est"])):
        return "diagnose reported a non-finite value"
    return None


def check_markov(out):
    rows = _rows(os.path.join(out, "trajectory.csv"))
    if not rows:
        return "empty markov trajectory"
    worst = max(float(r["trace_err"]) for r in rows)
    if not worst <= MARKOV_TRACE_ERR_TOL:
        return f"markov trace error {worst:g} > {MARKOV_TRACE_ERR_TOL:g}"
    return None


def check_tcl2(out, reference):
    rows = _rows(os.path.join(out, "trajectory.csv"))
    if len(rows) != len(reference):
        return f"tcl2 trajectory has {len(rows)} rows, expected {len(reference)}"
    worst = 0.0
    for row, (t, x, y, z) in zip(rows, reference):
        if float(row["t"]) != t:
            return "tcl2 time grid differs from the reference"
        # trace distance of two qubit states is half their Bloch distance
        d = 0.5 * math.sqrt(
            (float(row["x"]) - x) ** 2 + (float(row["y"]) - y) ** 2 + (float(row["z"]) - z) ** 2
        )
        worst = max(worst, d)
    if not worst <= TCL2_TRACE_DIST_TOL:
        return f"tcl2 trajectory is {worst:g} from the closed form"
    return None


def check_oracle(out):
    with open(os.path.join(out, "oracle_check.json"), encoding="utf-8") as fh:
        d = json.load(fh)
    if d["pinned_sign"] != d["natural_sign"]:
        return f"oracle pinned sign {d['pinned_sign']} != NATURAL_SIGN"
    if not d["residual"] < SIGN_RESIDUAL_TOL:
        return f"cancellation residual {d['residual']:g}"
    if not d["slope"] >= SCALING_SLOPE_MIN:
        return f"scaling slope {d['slope']:g} < {SCALING_SLOPE_MIN}"
    return None


def check_bath_correlation(out):
    rows = _rows(os.path.join(out, "bath_correlation.csv"))
    if not rows:
        return "empty bath-correlation table"
    worst = max(float(r["rel_residual"]) for r in rows)
    if not worst < BATH_REL_RESIDUAL_TOL:
        return f"bath-correlation max rel_residual {worst:g}"
    return None
