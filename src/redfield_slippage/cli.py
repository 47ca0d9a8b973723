"""Command-line front end.

Five subcommands cover the library surface:

    bath-correlation   dual-evaluation table of the reservoir kernel
    region-scan        joint membership scan over a Bloch-disk slice
    propagate          single-trajectory propagation to CSV
    diagnose           membership bound and slippage for one state
    oracle             exact-reference consistency report

All numeric output is CSV (floats as shortest round-trip decimals,
booleans as 1/0, absent values empty) with a JSON metadata side file
embedding the resolved configuration, or plain JSON for the one-state
reports. Outputs carry no timestamps; identical invocations produce
byte-identical files. Exit codes: 0 success, 2 configuration error,
3 kernel-integrability diagnostic, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, bath
from .bath import (
    KernelNotIntegrableError,
    LorentzDrudeBath,
    PoleCollisionError,
    fit_exponential_mixture,
)
from .config import ConfigError, RunConfig
from .corrections import NATURAL_SIGN, NaturalFamily, Product, slipped_initial_condition
from .master import (
    TCL2_TOL,
    build_redfield_generator,
    csv_table,
    propagate_markovian,
    propagate_tcl2,
)
from .operators import BlochVector, bloch_to_density
from .oracle import (
    OracleConsistencyError,
    check_comparison_time,
    default_oracle_bath,
    pin_natural_sign,
    short_time_markovianity,
    validate_scaling,
)
from .regions import region_scan, u_prime_membership

SEED_ENV = "REDFIELD_SLIPPAGE_SEED"


def _base_metadata(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "config": cfg.to_metadata(),
        "natural_sign": NATURAL_SIGN,
        "seed_env": os.environ.get(SEED_ENV),
        "version": __version__,
    }


def _dump_json(obj) -> str:
    """Strict JSON of a report: a non-finite number is a ConfigError
    naming the report's command, never NaN or Infinity in the file."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigError(
            f"{obj.get('command')}: the result is not finite at this configuration ({exc})"
        ) from exc


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _out_dir(cfg, args):
    d = args.out if args.out else str(cfg["output.directory"])
    os.makedirs(d, exist_ok=True)
    return d


def _parse_bloch(text) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--initial expects x,y,z, got {text!r}")
    try:
        v = BlochVector(*(float(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"--initial expects three floats, got {text!r}") from exc
    if not v.is_physical():
        raise ConfigError(f"initial Bloch vector has norm {v.norm():g} > 1")
    return v


def cmd_bath_correlation(cfg: RunConfig, args) -> int:
    spec = cfg.bath_spec()
    if not isinstance(spec, LorentzDrudeBath):
        raise ConfigError("bath-correlation needs bath.type=lorentz_drude")
    times = cfg.quadrature_times()
    try:
        kernel = fit_exponential_mixture(spec, int(cfg["bath.matsubara_k_max"]))
    except ValueError as exc:
        raise ConfigError(f"bath: {exc}") from exc
    series = kernel.evaluate(times)
    try:
        quadr, q_err = bath.correlation_quadrature(spec, times)
    except ValueError as exc:
        # the panel budget of the contour rule bounds t_max * X
        raise ConfigError(
            f"bath-correlation: {exc}; lower quadrature.t_max, "
            "or raise bath.beta or lower bath.omega_cutoff"
        ) from exc
    # abs of each numpy complex scalar: the array abs differs in last digits
    resid = [abs(cs - cq) / max(abs(cs), abs(cq), 1e-300) for cs, cq in zip(series, quadr)]
    cols = (times, series.real, series.imag, quadr.real, quadr.imag, resid)
    header = "t,re_c_series,im_c_series,re_c_quadrature,im_c_quadrature,rel_residual"
    meta = _base_metadata(cfg, "bath-correlation")
    meta["kernel"] = dict(kernel.meta)
    meta["remainder_bound"] = kernel.remainder_bound
    # largest estimated relative error of the quadrature column; rows
    # that underflow to an exact 0 carry an error of 0
    q_rel = np.divide(q_err, np.abs(quadr), out=np.zeros_like(q_err), where=q_err > 0.0)
    meta["quadrature_err_est"] = float(q_rel.max())
    meta["quadrature_converged"] = bool(q_rel.max() <= bath.QUAD_REL_TOL)
    meta_text = _dump_json(meta)  # checked before either file is written
    out = _out_dir(cfg, args)
    _write(os.path.join(out, "bath_correlation.csv"), csv_table(header, cols))
    _write(os.path.join(out, "bath_correlation_meta.json"), meta_text)
    return 0


def cmd_region_scan(cfg: RunConfig, args) -> int:
    lam = float(cfg["lambda"])
    if lam <= 0.0:
        raise ConfigError("region-scan needs lambda > 0")
    model = cfg.model()
    kernel = cfg.kernel()
    # an overflowing lam^2 breaks the generator, which is refused as a
    # ValueError below; numpy need not warn on the way there
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = region_scan(
                model,
                kernel,
                lam,
                grid_n=int(cfg["scan.grid_n"]),
                z=float(cfg["scan.z"]),
                t_window=float(cfg["scan.t_window"]),
                refine_iters=int(cfg["scan.refine_iters"]),
                jobs=int(args.jobs),
            )
    except ValueError as exc:
        # the N scan needs a unique stationary state and a nonzero
        # lam^2 Re Gamma, which an extreme lambda breaks; the sup search
        # grid is bounded in size
        raise ConfigError(f"region-scan: {exc}") from exc
    out = _out_dir(cfg, args)
    _write(os.path.join(out, "region_scan.csv"), result.to_csv())
    meta = _base_metadata(cfg, "region-scan")
    meta["scan"] = result.metadata
    _write(os.path.join(out, "region_scan_meta.json"), _dump_json(meta))
    return 0


def cmd_propagate(cfg: RunConfig, args) -> int:
    if not np.isfinite(args.kappa):
        raise ConfigError(f"--kappa must be finite, got {args.kappa!r}")
    model = cfg.model()
    kernel = cfg.kernel()
    lam = float(cfg["lambda"])
    rho0 = bloch_to_density(_parse_bloch(args.initial))
    times = cfg.propagation_times()
    # the TCL2 panel budget raises ValueError; overflow, also of lam^2 in
    # the generator, is refused below
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gen = build_redfield_generator(model, kernel, lam)
            if args.mode == "markov":
                traj = propagate_markovian(gen, rho0, times)
            else:
                traj = propagate_tcl2(gen, rho0, times, kappa=float(args.kappa))
    except ValueError as exc:
        raise ConfigError(f"propagate: {exc}") from exc
    # min_eig is finite only where x, y and z are; the times are validated
    if not np.all(np.isfinite((traj.min_eigenvalues, traj.trace_errors))):
        raise ConfigError("propagate: the trajectory is not finite at this configuration")
    meta = _base_metadata(cfg, "propagate")
    meta["initial"] = [float(p) for p in args.initial.split(",")]
    meta["mode"] = args.mode
    meta["kappa"] = float(args.kappa)
    if args.mode == "tcl2":
        meta["tcl2_err_est"] = traj.err_est
        meta["tcl2_converged"] = traj.err_est < TCL2_TOL
    meta_text = _dump_json(meta)  # checked before either file is written
    out = _out_dir(cfg, args)
    _write(os.path.join(out, "trajectory.csv"), traj.to_csv())
    _write(os.path.join(out, "trajectory_meta.json"), meta_text)
    return 0


def cmd_diagnose(cfg: RunConfig, args) -> int:
    model = cfg.model()
    kernel = cfg.kernel()
    lam = float(cfg["lambda"])
    bloch = _parse_bloch(args.initial)
    rho = bloch_to_density(bloch)
    # an overflowing lam^2 makes the report non-finite, which _dump_json
    # turns into a config error; numpy need not warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            res = u_prime_membership(
                model, kernel, lam, rho,
                t_window=float(cfg["scan.t_window"]),
                refine_iters=int(cfg["scan.refine_iters"]),
            )
        except ValueError as exc:  # the sup search grid is bounded
            raise ConfigError(f"diagnose: {exc}") from exc
        report = slipped_initial_condition(model, kernel, lam, rho, Product())
    obj = _base_metadata(cfg, "diagnose")
    obj.update(
        {
            "initial": {"x": bloch.x, "y": bloch.y, "z": bloch.z},
            "p0": res.p0,
            "sup_value": res.sup_value,
            "t_star": res.t_star,
            "bound": res.bound,
            "in_U_prime": res.in_u_prime,
            "degenerate_p0": res.degenerate_p0,
            "slipped": report.to_dict(),
        }
    )
    out = _out_dir(cfg, args)
    _write(os.path.join(out, "diagnose.json"), _dump_json(obj))
    return 0


def cmd_oracle(cfg: RunConfig, args) -> int:
    model = cfg.model()
    try:
        bath = default_oracle_bath(
            omega_c=float(cfg["bath.omega_cutoff"]),
            beta=float(cfg["oracle.beta"]),
            n_modes=int(cfg["oracle.n_modes"]),
            omega_max=float(cfg["oracle.omega_max"]) * model.epsilon,
            fock_cutoff=int(cfg["oracle.fock_cutoff"]),
        )
    except ValueError as exc:
        # the truncated bath rejects a visible thermal tail or an
        # oversized Hilbert space: both come from the oracle.* keys
        raise ConfigError(f"oracle bath: {exc}") from exc
    t_star = float(cfg["oracle.t_star"])
    try:
        check_comparison_time(bath, t_star)
    except ValueError as exc:
        raise ConfigError(f"oracle.t_star: {exc}") from exc
    rho_s = bloch_to_density((0.6, 0.0, 0.3))
    n_times = int(cfg["oracle.n_times"])
    times = np.linspace(0.2, 6.0, n_times)
    lam_c = float(cfg["oracle.cancellation_lambda"])
    sign, details = pin_natural_sign(model, bath, rho_s, lam_c, times)
    scaling = validate_scaling(
        model,
        bath,
        rho_s,
        lambdas=tuple(cfg.oracle_lambdas()),
        t_star=t_star,
    )
    markov = short_time_markovianity(
        model, bath, rho_s, 0.2, np.linspace(0.25, 2.0, 8)
    )
    obj = _base_metadata(cfg, "oracle")
    obj.update(
        {
            "pinned_sign": sign,
            "cancellation": {str(k): v for k, v in details.items()},
            "scaling": scaling,
            "markovianity": markov,
            "total_dimension": 2 * bath.dim_bath,
        }
    )
    out = _out_dir(cfg, args)
    _write(os.path.join(out, "oracle_report.json"), _dump_json(obj))
    return 0


# built once per process: argparse copies the --set list before appending
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redfield-slippage",
        description="Second-order open-system dynamics for a two-level "
        "system in a bosonic reservoir: kernels, propagation, slippage "
        "corrections and Bloch-disk region scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--jobs", type=int, default=1, help="worker processes for scans")

    p = sub.add_parser("bath-correlation", help="dual kernel evaluation table")
    common(p)
    p = sub.add_parser("region-scan", help="membership scan over a Bloch-disk slice")
    common(p)
    p = sub.add_parser("propagate", help="propagate one initial state to CSV")
    common(p)
    p.add_argument("--initial", default="1,0,0", help="initial Bloch vector x,y,z")
    p.add_argument("--mode", choices=("markov", "tcl2"), default="markov")
    p.add_argument("--kappa", type=float, default=0.0, help="initial-correlation weight (tcl2)")
    p = sub.add_parser("diagnose", help="membership bound and slippage for one state")
    common(p)
    p.add_argument("--initial", default="1,0,0", help="Bloch vector x,y,z")
    p = sub.add_parser("oracle", help="exact-reference consistency report")
    common(p)
    return parser


_COMMANDS = {
    "bath-correlation": cmd_bath_correlation,
    "region-scan": cmd_region_scan,
    "propagate": cmd_propagate,
    "diagnose": cmd_diagnose,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = RunConfig.load(args.config, args.overrides)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KernelNotIntegrableError, PoleCollisionError) as exc:
        print(f"kernel diagnostic: {exc}", file=sys.stderr)
        return 3
    except OracleConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
