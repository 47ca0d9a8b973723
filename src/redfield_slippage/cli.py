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
from .corrections import NATURAL_SIGN, Product, slipped_initial_condition
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
    default_oracle_bath,
    pin_natural_sign,
    short_time_markovianity,
    validate_scaling,
)
from .regions import region_scan, u_prime_membership

SEED_ENV = "REDFIELD_SLIPPAGE_SEED"


def _dump_json(obj) -> str:
    """Strict JSON of a report: a non-finite number is a ConfigError,
    never NaN or Infinity in the file."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigError(f"the result is not finite at this configuration ({exc})") from exc


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _finish(cfg: RunConfig, args, stem: str, fields: dict, table=None) -> int:
    """Write `<stem>.csv` from table() and `<stem>_meta.json`, or `<stem>.json`;
    the report is checked before the table is formatted or a directory made,
    and an output path that cannot be made or written is a ConfigError."""
    meta = {
        "command": args.command,
        "config": cfg.to_metadata(),
        "natural_sign": NATURAL_SIGN,
        "seed_env": os.environ.get(SEED_ENV),
        "version": __version__,
        **fields,
    }
    text = _dump_json(meta)
    out = args.out if args.out else str(cfg["output.directory"])
    try:
        os.makedirs(out, exist_ok=True)
        if table is None:
            _write(os.path.join(out, f"{stem}.json"), text)
        else:
            _write(os.path.join(out, f"{stem}.csv"), table())
            _write(os.path.join(out, f"{stem}_meta.json"), text)
    except OSError as exc:
        raise ConfigError(f"cannot write to the output directory {out!r}: {exc}") from exc
    return 0


def _parse_bloch(text) -> BlochVector:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--initial expects x,y,z, got {text!r}")
    try:
        v = BlochVector(*(float(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"--initial expects three floats, got {text!r}") from exc
    if not np.all(np.isfinite((v.x, v.y, v.z))):
        raise ConfigError(f"initial Bloch vector components must be finite, got {text!r}")
    if not v.is_physical():
        raise ConfigError(f"initial Bloch vector has norm {v.norm():g} > 1")
    return v


def cmd_bath_correlation(cfg: RunConfig, args) -> int:
    spec = cfg.bath_spec()
    if not isinstance(spec, LorentzDrudeBath):
        raise ConfigError("bath-correlation needs bath.type=lorentz_drude")
    times = cfg.quadrature_times()
    kernel = fit_exponential_mixture(spec)
    series = kernel.evaluate(times)
    quadr, q_err = bath.correlation_quadrature(spec, times)
    # abs of each numpy complex scalar: the array abs differs in last digits
    resid = [abs(cs - cq) / max(abs(cs), abs(cq), 1e-300) for cs, cq in zip(series, quadr)]
    table = np.column_stack((times, series.real, series.imag, quadr.real, quadr.imag, resid))
    if not np.all(np.isfinite(table)):
        raise ConfigError("the kernel table is not finite at this configuration")
    header = "t,re_c_series,im_c_series,re_c_quadrature,im_c_quadrature,rel_residual"
    # largest estimated relative error of the quadrature column; rows
    # that underflow to an exact 0 carry an error of 0
    q_rel = np.divide(q_err, np.abs(quadr), out=np.zeros_like(q_err), where=q_err > 0.0)
    fields = {
        "kernel": dict(kernel.meta),
        "remainder_bound": kernel.remainder_bound,
        "quadrature_err_est": float(q_rel.max()),
        "quadrature_converged": bool(q_rel.max() <= bath.QUAD_REL_TOL),
    }
    return _finish(cfg, args, "bath_correlation", fields, lambda: csv_table(header, table))


def cmd_region_scan(cfg: RunConfig, args) -> int:
    result = region_scan(
        cfg.model(),
        cfg.kernel(),
        float(cfg["lambda"]),
        grid_n=int(cfg["scan.grid_n"]),
        z=float(cfg["scan.z"]),
        jobs=int(args.jobs),
    )
    return _finish(cfg, args, "region_scan", {"scan": result.metadata}, result.to_csv)


def cmd_propagate(cfg: RunConfig, args) -> int:
    if not np.isfinite(args.kappa):
        raise ConfigError(f"--kappa must be finite, got {args.kappa!r}")
    model = cfg.model()
    kernel = cfg.kernel()
    lam = float(cfg["lambda"])
    rho0 = bloch_to_density(_parse_bloch(args.initial))
    times = cfg.propagation_times()
    gen = build_redfield_generator(model, kernel, lam)
    if args.mode == "markov":
        traj = propagate_markovian(gen, rho0, times)
    else:
        traj = propagate_tcl2(gen, rho0, times, kappa=float(args.kappa))
    # min_eig is finite only where x, y and z are; the times are validated
    if not np.all(np.isfinite((traj.min_eigenvalues, traj.trace_errors))):
        raise ConfigError("the trajectory is not finite at this configuration")
    fields = {
        "initial": [float(p) for p in args.initial.split(",")],
        "mode": args.mode,
        "kappa": float(args.kappa),
    }
    if args.mode == "tcl2":
        fields["tcl2_err_est"] = traj.err_est
        fields["tcl2_converged"] = traj.err_est < TCL2_TOL
    return _finish(cfg, args, "trajectory", fields, traj.to_csv)


def cmd_diagnose(cfg: RunConfig, args) -> int:
    model = cfg.model()
    kernel = cfg.kernel()
    lam = float(cfg["lambda"])
    bloch = _parse_bloch(args.initial)
    rho = bloch_to_density(bloch)
    res = u_prime_membership(model, kernel, lam, rho)
    report = slipped_initial_condition(model, kernel, lam, rho, Product())
    fields = {
        "initial": {"x": bloch.x, "y": bloch.y, "z": bloch.z},
        "p0": res.p0,
        "sup_value": res.sup_value,
        "t_star": res.t_star,
        "bound": res.bound,
        "in_U_prime": res.in_u_prime,
        "degenerate_p0": res.degenerate_p0,
        "slipped": report.to_dict(),
    }
    return _finish(cfg, args, "diagnose", fields)


def cmd_oracle(cfg: RunConfig, args) -> int:
    model = cfg.model()
    # the truncated bath refuses a visible thermal tail or an oversized
    # Hilbert space, both set by the oracle.* keys
    bath = default_oracle_bath(
        omega_c=float(cfg["bath.omega_cutoff"]),
        beta=float(cfg["oracle.beta"]),
        n_modes=int(cfg["oracle.n_modes"]),
        omega_max=float(cfg["oracle.omega_max"]) * model.epsilon,
        fock_cutoff=int(cfg["oracle.fock_cutoff"]),
    )
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
        t_star=float(cfg["oracle.t_star"]),
    )
    markov = short_time_markovianity(
        model, bath, rho_s, 0.2, np.linspace(0.25, 2.0, 8)
    )
    fields = {
        "pinned_sign": sign,
        "cancellation": {str(k): v for k, v in details.items()},
        "scaling": scaling,
        "markovianity": markov,
        "total_dimension": 2 * bath.dim_bath,
    }
    return _finish(cfg, args, "oracle_report", fields)


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
    """Run one command and map its refusal to an exit code: a library
    ValueError (ConfigError among them) is 2, a kernel diagnostic 3 and
    an oracle inconsistency 4. Every output is checked to be finite, so
    numpy need not warn on an overflow that ends in a refusal."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.jobs < 1:
                raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
            cfg = RunConfig.load(args.config, args.overrides)
            return _COMMANDS[args.command](cfg, args)
    # PoleCollisionError is a ValueError, so the diagnostics come first
    except (KernelNotIntegrableError, PoleCollisionError) as exc:
        code, kind, reason = 3, "kernel diagnostic", exc
    except OracleConsistencyError as exc:
        code, kind, reason = 4, "consistency failure", exc
    except ValueError as exc:
        code, kind, reason = 2, "config error", exc
    print(f"{kind}: {args.command}: {reason}", file=sys.stderr)
    return code

if __name__ == "__main__":
    sys.exit(main())
