import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redfield_slippage import __version__
from redfield_slippage.bath import DiscreteModes, LorentzDrudeBath
from redfield_slippage.cli import _dump_json, main
from redfield_slippage.config import (
    DEFAULTS,
    MAX_GRID_N,
    MAX_ORACLE_MODES,
    ConfigError,
    RunConfig,
)
from redfield_slippage.corrections import NaturalFamily, perturbative_solution
from redfield_slippage.master import MAX_POINTS, build_redfield_generator, stationary_state
from redfield_slippage.operators import bloch_to_density
from redfield_slippage.oracle import OracleConsistencyError

C_AT_1 = 1.0596900936272289 - 0.5778636748954609j
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_config_file_parse_and_overrides(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment line\n"
        "\n"
        "lambda = 0.25   # trailing comment\n"
        "scan.grid_n = 41\n"
        "bath.type = lorentz_drude\n"
    )
    cfg = RunConfig.load(str(path), ["scan.grid_n=21", "quadrature.n_points=7"])
    assert cfg["lambda"] == 0.25
    # overrides are applied after the file
    assert cfg["scan.grid_n"] == 21
    assert isinstance(cfg["scan.grid_n"], int)
    assert cfg["quadrature.n_points"] == 7
    # untouched keys keep their defaults
    assert cfg["oracle.beta"] == DEFAULTS["oracle.beta"]
    meta = cfg.to_metadata()
    assert list(meta) == sorted(DEFAULTS)
    assert meta["lambda"] == 0.25


def test_config_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.load(str(bad))
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        RunConfig.load(str(bad))
    bad.write_text("scan.grid_n = eleven\n")
    with pytest.raises(ConfigError, match="bad value"):
        RunConfig.load(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.load(str(tmp_path / "absent.conf"))
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.load(None, ["nope=3"])
    with pytest.raises(ConfigError, match="expects key=value"):
        RunConfig.load(None, ["lambda0.5"])
    # RunConfig is built directly too, and checks its keys itself
    with pytest.raises(ConfigError, match="unknown config key: no_such_key"):
        RunConfig({"no_such_key": 1})


def test_config_validation_bounds():
    for overrides in (
        ["scan.grid_n=10"],
        ["scan.grid_n=1"],
        ["lambda=-0.1"],
        ["quadrature.t_min=2.0", "quadrature.t_max=1.0"],
        ["quadrature.n_points=0"],
        ["quadrature.n_points=100001"],
        ["scan.z=1.5"],
        ["output.format=json"],
        ["model.epsilon=0"],
        ["oracle.lambdas=0.1,-0.2"],
        # one shared size bound for every output time grid
        ["propagation.n_points=1"],
        ["propagation.n_points=100001"],
        ["oracle.n_times=0"],
        ["oracle.n_times=100001"],
    ):
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides)


# (smallest, largest) accepted value of every key that sizes an array
SIZE_BOUNDS = {
    "quadrature.n_points": (1, MAX_POINTS),
    "propagation.n_points": (2, MAX_POINTS),
    "oracle.n_times": (1, MAX_POINTS),
    "scan.grid_n": (3, MAX_GRID_N),
    "oracle.n_modes": (1, MAX_ORACLE_MODES),
}


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(sorted(SIZE_BOUNDS)),
    text=st.one_of(
        st.integers().map(str),
        st.sampled_from(
            [10**300, -(10**300), MAX_POINTS + 1, MAX_GRID_N + 2]
            + [MAX_ORACLE_MODES + 1]
        ).map(str),
        st.floats().map(repr),
    ),
)
def test_config_refuses_out_of_bounds_sizes(key, text):
    # validation alone decides: nothing is ever run at a drawn size
    lo, hi = SIZE_BOUNDS[key]
    value = int(text) if text.lstrip("-").isdigit() else None
    valid = value is not None and lo <= value <= hi and (key != "scan.grid_n" or value % 2 == 1)
    if valid:
        assert RunConfig.load(None, [f"{key}={text}"])[key] == value
    else:
        with pytest.raises(ConfigError):
            RunConfig.load(None, [f"{key}={text}"])


def test_config_quadrature_window_inside_the_domain():
    # C(t) is exposed for t >= T_MIN_FACTOR / omega_c = 1e-6 / omega_c
    times = RunConfig.load(None, ["quadrature.t_min=1e-6"]).quadrature_times()
    assert times[0] == 1e-6 and times.size == 200
    with pytest.raises(ConfigError, match="quadrature.t_min"):
        RunConfig.load(None, ["quadrature.t_min=9e-7"]).quadrature_times()
    with pytest.raises(ConfigError, match="quadrature.t_min"):
        RunConfig.load(None, ["bath.omega_cutoff=0.5", "quadrature.t_min=1e-6"]).quadrature_times()


def test_config_discrete_modes():
    cfg = RunConfig.load(None, ["bath.type=discrete", "bath.modes=0.8:0.5,1.6:0.25"])
    assert cfg.parsed_modes() == ((0.8, 0.5), (1.6, 0.25))
    spec = cfg.bath_spec()
    assert isinstance(spec, DiscreteModes)
    assert isinstance(RunConfig().bath_spec(), LorentzDrudeBath)
    with pytest.raises(ConfigError, match="needs bath.modes"):
        RunConfig.load(None, ["bath.type=discrete"]).parsed_modes()
    with pytest.raises(ConfigError, match="bad mode entry"):
        RunConfig.load(None, ["bath.type=discrete", "bath.modes=0.8"]).parsed_modes()


def test_cli_bath_correlation_table(tmp_path):
    rc = main(
        [
            "bath-correlation",
            "--out",
            str(tmp_path),
            "--set",
            "quadrature.n_points=12",
            "--set",
            "quadrature.t_min=0.01",
            "--set",
            "quadrature.t_max=20",
        ]
    )
    assert rc == 0
    header, rows = _read_csv(tmp_path / "bath_correlation.csv")
    assert header == "t,re_c_series,im_c_series,re_c_quadrature,im_c_quadrature,rel_residual"
    assert len(rows) == 12
    assert float(rows[0][0]) == pytest.approx(0.01)
    assert float(rows[-1][0]) == pytest.approx(20.0)
    # the two evaluation routes agree everywhere on the grid
    assert max(float(r[5]) for r in rows) < 1e-8
    # every field is the repr of its double, as the former row-by-row
    # formatter wrote it
    assert [",".join(repr(float(v)) for v in r) for r in rows] == [",".join(r) for r in rows]
    meta = _read_json(tmp_path / "bath_correlation_meta.json")
    assert meta["command"] == "bath-correlation"
    assert meta["kernel"] == {"beta": 1.0, "omega": 1.0}
    # the certified error of the compressed Matsubara series
    assert 0.0 < meta["remainder_bound"] <= 1e-12
    assert "bath.matsubara_k_max" not in meta["config"]
    # the quadrature's own certificate, like tcl2_err_est for propagate
    assert meta["quadrature_converged"] is True
    assert 0.0 < meta["quadrature_err_est"] < 1e-12


@pytest.mark.parametrize("override", ["bath.beta=0.1", "bath.omega_cutoff=5"])
def test_cli_bath_correlation_off_default(tmp_path, override):
    # a fixed contour shift and a cutoff-only panel grading left rows off
    # by up to 0.5 (beta = 0.1) and 4.4e-6 (omega_c = 5) here
    assert main(["bath-correlation", "--out", str(tmp_path), "--set", override]) == 0
    _, rows = _read_csv(tmp_path / "bath_correlation.csv")
    assert len(rows) == 200
    assert max(float(r[5]) for r in rows) < 1e-10
    meta = _read_json(tmp_path / "bath_correlation_meta.json")
    assert meta["quadrature_converged"] is True


def test_cli_bath_correlation_large_times(tmp_path):
    # e^{-ct} e^{-ipt} E1 overflowed its factors at large t and wrote nan;
    # times whose value underflows are now an exact 0. Beyond 2^1023 the
    # contour rule's panel edges ran forever
    for t_max in (1e6, sys.float_info.max):
        argv = ["bath-correlation", "--out", str(tmp_path)]
        argv += ["--set", f"quadrature.t_max={t_max!r}", "--set", "quadrature.n_points=5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        _, rows = _read_csv(tmp_path / "bath_correlation.csv")
        values = np.array([[float(v) for v in r] for r in rows])
        assert values.shape == (5, 6) and np.all(np.isfinite(values))
        assert values[-1, 0] == t_max and np.all(values[-2:, 3:5] == 0.0)
        assert _read_json(tmp_path / "bath_correlation_meta.json")["quadrature_converged"] is True


def test_cli_bath_correlation_single_point(tmp_path):
    rc = main(
        [
            "bath-correlation",
            "--out",
            str(tmp_path),
            "--set",
            "quadrature.n_points=1",
            "--set",
            "quadrature.t_min=1.0",
        ]
    )
    assert rc == 0
    _, rows = _read_csv(tmp_path / "bath_correlation.csv")
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(C_AT_1.real, rel=1e-10)
    assert float(rows[0][2]) == pytest.approx(C_AT_1.imag, rel=1e-10)


def test_cli_pole_collision_exit3(tmp_path, capsys):
    rc = main(
        [
            "bath-correlation",
            "--out",
            str(tmp_path),
            "--set",
            "bath.beta=6.283185307179586",
        ]
    )
    assert rc == 3
    assert "kernel diagnostic" in capsys.readouterr().err


def test_cli_small_cutoff_is_no_pole_collision(tmp_path):
    # beta * omega_c / 2 = 5e-7 sits next to 0 * pi, where no Matsubara
    # frequency is near omega_c and c_0 tends to pi omega_c / beta; at
    # 1e-320, omega_c^2 underflows to 0 where cot(beta omega_c / 2)
    # overflows, and c_0 goes through x cot x
    for cutoff in ("1e-6", "1e-320"):
        rc = main(
            [
                "propagate",
                "--mode",
                "markov",
                "--out",
                str(tmp_path),
                "--set",
                f"bath.omega_cutoff={cutoff}",
            ]
        )
        assert rc == 0
        _, rows = _read_csv(tmp_path / "trajectory.csv")
        assert rows and all(np.isfinite(float(v)) for r in rows for v in r)


def test_cli_bath_correlation_converges_at_a_large_cutoff(tmp_path):
    # the contour rule covers [-X, X] with X = 40 / beta, which does not
    # grow with omega_c: with X = 30 omega_c this command took 13.8 s and
    # did not converge; it takes under a second
    start = time.perf_counter()
    argv = ["bath-correlation", "--out", str(tmp_path), "--set", "bath.omega_cutoff=400"]
    assert main(argv) == 0
    assert time.perf_counter() - start < 10.0
    meta = _read_json(tmp_path / "bath_correlation_meta.json")
    assert meta["quadrature_converged"] is True
    _, rows = _read_csv(tmp_path / "bath_correlation.csv")
    assert max(float(r[5]) for r in rows) < 1e-11


def test_cli_propagate_at_a_non_contracting_matsubara_tail(tmp_path):
    # at beta = 1e300 more Matsubara frequencies lie below the cutoff than
    # the fit sums, so its remainder bound is infinite, which the markov
    # propagation does not read; the run warns about nothing
    argv = ["propagate", "--out", str(tmp_path), "--set", "bath.beta=1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    _, rows = _read_csv(tmp_path / "trajectory.csv")
    assert rows and all(np.isfinite(float(v)) for r in rows for v in r)


def test_cli_cutoff_on_first_matsubara_exit3(tmp_path, capsys):
    # beta * omega_c / 2 = pi: the cutoff pole meets 2 pi / beta
    rc = main(
        [
            "propagate",
            "--mode",
            "markov",
            "--out",
            str(tmp_path),
            "--set",
            "bath.omega_cutoff=6.283185307179586",
        ]
    )
    assert rc == 3
    assert "kernel diagnostic" in capsys.readouterr().err


def test_cli_oracle_runs_at_a_cutoff_pole_collision(tmp_path):
    # at oracle.beta = 12 this cutoff puts beta omega_c / 2 on pi, where the
    # cutoff pole of the pole series meets the first Matsubara frequency;
    # the oracle discretises J(w) and builds no pole series
    assert main(["oracle", "--out", str(tmp_path), "--set", "bath.omega_cutoff=0.5235987755982988"]) == 0
    assert _read_json(tmp_path / "oracle_report.json")["pinned_sign"] == -1


def test_cli_resonant_discrete_exit3(tmp_path, capsys):
    rc = main(
        [
            "propagate",
            "--out",
            str(tmp_path),
            "--set",
            "bath.type=discrete",
            "--set",
            "bath.modes=1.0:0.5",
        ]
    )
    assert rc == 3
    assert "kernel diagnostic" in capsys.readouterr().err


def test_cli_unknown_key_exit2(tmp_path, capsys):
    rc = main(["diagnose", "--out", str(tmp_path), "--set", "nope=1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert main(["region-scan", "--out", str(tmp_path), "--set", "scan.grid_n=10"]) == 2
    # the sup search's window and iteration count are constants, not keys
    assert main(["diagnose", "--out", str(tmp_path), "--set", "scan.t_window=50"]) == 2
    assert main(["region-scan", "--out", str(tmp_path), "--set", "scan.refine_iters=32"]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["region-scan", "--set", "lambda=0", "--set", "scan.grid_n=11"],
        # beta = 0.5 leaves a visible thermal tail above the Fock cutoff
        ["oracle", "--set", "oracle.beta=0.5"],
        ["region-scan", "--set", "scan.grid_n=3", "--jobs", "0"],
        ["diagnose", "--set", "bath.type=discrete", "--set", "bath.modes=0.3:0.1,-2:0.1"],
        ["propagate", "--mode", "tcl2", "--kappa", "nan"],
        ["propagate", "--mode", "tcl2", "--kappa=-inf"],
        ["propagate", "--set", "lambda=nan"],
        ["propagate", "--set", "propagation.t_end=nan"],
        ["propagate", "--mode", "tcl2", "--set", "propagation.t_end=inf"],
        ["diagnose", "--set", "bath.type=discrete", "--set", "bath.modes=nan:0.1"],
        # t = 100 lies past half the recurrence time of the default oracle bath
        ["oracle", "--set", "oracle.t_star=100"],
        ["oracle", "--set", "oracle.lambdas=0.08"],
        ["oracle", "--set", "oracle.lambdas=0.04,0.04,0.04"],
        # below T_MIN_FACTOR / omega_c = 1e-6, where C(t) is not exposed
        ["bath-correlation", "--set", "quadrature.t_min=1e-9"],
        ["bath-correlation", "--set", "quadrature.n_points=100001"],
        # t = 50 at X = 40 / beta = 4e5 needs 8e6 contour panels
        ["bath-correlation", "--set", "bath.beta=1e-4"],
        # lam^2 underflows: the N scan sees no relaxation
        ["region-scan", "--set", "lambda=1e-200", "--set", "scan.grid_n=5"],
        # the slowest decay rate is below 1e-10 of the spectral scale, so
        # the stationary state is not resolved: |w| = 0, 0.864, 1.7e12,
        # 1.7e12 at lambda = 1e6 and 0, 1.7e-12, 1, 1 at lambda = 1e-6
        ["region-scan", "--set", "lambda=1e6", "--set", "scan.grid_n=5"],
        ["region-scan", "--set", "lambda=1e-6"],
        # the Lamb shift at this cutoff makes one generator eigenvalue
        # positive (+0.34): the N scan has no stationary limit to reach
        ["region-scan", "--set", "bath.omega_cutoff=1000"],
        # lam^2 overflows: the bound is -inf and the slippage NaN
        ["diagnose", "--set", "lambda=1e200"],
        # the sup search grid would need ~3e301 nodes
        ["diagnose", "--set", "model.epsilon=1e300"],
        # the memory time is infinite
        ["diagnose", "--set", "bath.beta=1e300"],
        ["diagnose", "--set", "bath.beta=1e13"],
        # the Matsubara remainder bound is infinite
        ["bath-correlation", "--set", "bath.beta=1e300"],
        # the sup search grid is refused before the kernel amplitudes overflow
        ["region-scan", "--set", "model.epsilon=1e300"],
        # lam^2 is huge or overflows: the generator has no usable eigensystem
        ["region-scan", "--set", "lambda=1e100"],
        ["region-scan", "--set", "lambda=1e160"],
        # t_end / h0 = 1e300 base panels of the TCL2 quadrature
        ["propagate", "--mode", "tcl2", "--set", "propagation.t_end=1e300"],
        # Im C(t) = -(pi/2) omega_c^2 e^{-omega_c t} overflows
        ["diagnose", "--set", "bath.omega_cutoff=1e300"],
        # the coherence phase epsilon t of exp(t G) overflows: NaN rows,
        # refused before either file
        ["propagate", "--set", "propagation.t_end=1e308", "--set", "model.epsilon=2"],
        ["propagate", "--mode", "tcl2", "--kappa", "1e308"],
        # 8 epsilon overflows: the sup search step is 0
        ["diagnose", "--set", "model.epsilon=1.7976931348623157e308"],
        # the Matsubara poles 2 pi k / beta and their amplitudes overflow
        ["bath-correlation", "--set", "bath.beta=1e-300"],
        ["diagnose", "--set", "bath.beta=5e-324"],
        # beta omega_c / 2 overflows before the pole-collision check
        ["propagate", "--set", "bath.beta=1e300", "--set", "bath.omega_cutoff=1e10"],
        # lam^2 overflows inside the generator
        ["propagate", "--set", "lambda=1e300"],
        ["propagate", "--mode", "tcl2", "--set", "lambda=1e300"],
        # the first-order corrections are NaN, which passed as a perfect
        # cancellation with both signs
        ["oracle", "--set", "oracle.beta=1.7976931348623157e308"],
        ["oracle", "--set", "model.epsilon=1.7976931348623157e308"],
        ["oracle", "--set", "oracle.cancellation_lambda=1e300"],
        # the corrections' norms underflow to 0 at every time
        ["oracle", "--set", "oracle.cancellation_lambda=1e-96"],
        # the mode frequency overflows the TCL2 base width 1 / rate to 0
        ["propagate", "--mode", "tcl2", "--set", "bath.type=discrete",
         "--set", "bath.modes=1.7976931348623157e308:0.1"],
        # lam^2 Gamma overflows at the second coupling of the scaling fit
        ["oracle", "--set", "oracle.lambdas=1e154,1.7976931348623157e308"],
        # a non-finite component, refused as such rather than by its norm
        ["propagate", "--initial=nan,0,0"],
        ["diagnose", "--initial=0,inf,0"],
        # the contour quadrature is of the continuum bath only
        ["bath-correlation", "--set", "bath.type=discrete", "--set", "bath.modes=0.5:0.1"],
        # a bath type that the program does not know
        ["propagate", "--set", "bath.type=ohmic"],
    ],
    ids=[
        "region_scan_lambda_zero",
        "oracle_thermal_tail",
        "jobs_zero",
        "discrete_negative_frequency",
        "kappa_nan",
        "kappa_inf",
        "lambda_nan",
        "t_end_nan",
        "t_end_inf",
        "mode_frequency_nan",
        "oracle_t_star_recurrence",
        "oracle_single_lambda",
        "oracle_repeated_lambda",
        "quadrature_t_min_below_domain",
        "quadrature_n_points_too_many",
        "quadrature_panel_budget",
        "region_scan_lambda_underflow",
        "region_scan_degenerate_stationary_state",
        "region_scan_lambda_tiny_stationary_state_unresolved",
        "region_scan_growing_mode",
        "diagnose_non_finite_report",
        "diagnose_sup_grid_epsilon",
        "diagnose_sup_grid_beta",
        "diagnose_memory_time_infinite",
        "bath_correlation_remainder_infinite",
        "region_scan_sup_grid_epsilon",
        "region_scan_lambda_huge",
        "region_scan_lambda_overflow",
        "tcl2_panel_budget",
        "omega_cutoff_overflow",
        "markov_non_finite_trajectory",
        "tcl2_non_finite_trajectory",
        "diagnose_sup_grid_step_underflow",
        "bath_correlation_poles_overflow",
        "diagnose_poles_overflow",
        "beta_omega_cutoff_overflow",
        "markov_lambda_squared_overflow",
        "tcl2_lambda_squared_overflow",
        "oracle_beta_overflow",
        "oracle_epsilon_overflow",
        "oracle_cancellation_lambda_overflow",
        "oracle_cancellation_lambda_underflow",
        "tcl2_mode_frequency_overflow",
        "oracle_scaling_lambda_overflow",
        "initial_nan",
        "initial_inf",
        "bath_correlation_discrete_bath",
        "unknown_bath_type",
    ],
)
def test_cli_config_error_exit2(tmp_path, capsys, argv):
    # --out names a directory that does not exist: a refusal makes none
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    if argv[-1].startswith("--initial="):
        assert "components must be finite" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["propagate", "--set", "lambda=1e300"],
        ["propagate", "--mode", "tcl2", "--set", "lambda=1e300"],
        ["region-scan", "--set", "lambda=1e160"],
    ],
    ids=["markov", "tcl2", "region_scan"],
)
def test_cli_overflowing_coupling_is_named(tmp_path, capsys, argv):
    # lam^2 Gamma overflows the dissipator: the refusal names the
    # coupling, not the eigensolver that would meet the infinities
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {argv[0]}: the dissipator lam^2 Gamma is not finite at lam = 1e+")


@pytest.mark.parametrize(
    "argv",
    [
        # discrete modes never relax: the N scan has no stationary limit
        ["region-scan", "--set", "bath.type=discrete", "--set", "bath.modes=0.3:0.1,0.9:0.1",
         "--set", "scan.grid_n=5"],
        # 2 pi 1000 / beta is within 1e-9 of omega_c relative, outside the
        # 1e-6 window of beta omega_c / 2 around 1000 pi: the fit refuses it
        ["diagnose", "--set", "bath.omega_cutoff=6283.185310321179"],
        ["propagate", "--set", "bath.omega_cutoff=6283.185310321179"],
        ["bath-correlation", "--set", "bath.omega_cutoff=6283.185310321179"],
        # the cutoff at which the oracle runs: the pole series refuses it
        ["propagate", "--set", "bath.beta=12", "--set", "bath.omega_cutoff=0.5235987755982988"],
    ],
    ids=[
        "region_scan_discrete_bath",
        "diagnose_matsubara_pole_on_cutoff",
        "propagate_matsubara_pole_on_cutoff",
        "bath_correlation_matsubara_pole_on_cutoff",
        "propagate_cot_pole_at_the_oracle_cutoff",
    ],
)
def test_cli_kernel_diagnostic_exit3(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "kernel diagnostic:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# a cheap successful run of each command
FAST_RUNS = {
    "bath-correlation": ["--set", "quadrature.n_points=12"],
    "region-scan": ["--set", "scan.grid_n=5"],
    "propagate": [],
    "diagnose": [],
    "oracle": ["--set", "oracle.n_modes=1", "--set", "oracle.omega_max=0.6",
               "--set", "oracle.n_times=8", "--set", "oracle.lambdas=0.08,0.16"],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", sorted(FAST_RUNS))
def test_cli_output_path_at_a_file_exit2(tmp_path, capsys, command, under):
    # an output directory that is a file, or lies under one, is refused
    # with the usual line, given through --out or output.directory
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = str(blocker / "out" if under else blocker)
    for where in (["--out", out], ["--set", f"output.directory={out}"]):
        assert main([command, *FAST_RUNS[command], *where]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command}: cannot write to the output directory")
    assert blocker.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


FUZZ_KEYS = ("lambda", "model.epsilon", "bath.beta", "bath.omega_cutoff", "propagation.t_end", "scan.z")
EXTREME_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-309,
     sys.float_info.max, math.inf, -math.inf, math.nan, 0.5, 1.0]
) | st.floats()
# physical magnitudes, log-uniform over the ranges of the bath and model keys
LOG_UNIFORM = st.floats(-3.0, 5.0).map(lambda e: 10.0**e)


def _assert_finite_outputs(out):
    for name in os.listdir(out):
        text = (Path(out) / name).read_text(encoding="utf-8")
        if name.endswith(".csv"):
            fields = [f for line in text.splitlines()[1:] for f in line.split(",") if f]
            assert all(math.isfinite(float(f)) for f in fields), name
        else:
            json.loads(text, parse_constant=lambda c: pytest.fail(f"{name} holds {c}"))


def _assert_exit_contract(command, values):
    """Runs the command with each of values set; returns the exit code
    and the bytes of the files written, by name."""
    argv = list(command)
    for key, value in values.items():
        argv += ["--set", f"{key}={value!r}"]
    with tempfile.TemporaryDirectory() as out:
        rc = main(argv + ["--out", out])
        assert rc in (0, 2, 3, 4)
        if rc == 0:
            _assert_finite_outputs(out)
        else:
            assert not os.listdir(out)
        return rc, {name: (Path(out) / name).read_bytes() for name in os.listdir(out)}


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from([["diagnose"], ["propagate", "--mode", "markov"]]),
    values=st.dictionaries(st.sampled_from(FUZZ_KEYS), EXTREME_FLOATS, min_size=1),
)
def test_cli_exit_codes_at_extreme_values(command, values):
    # the exit-code contract holds for any value: an exception, which would
    # end the command line in a traceback, or a warning fails this test
    _assert_exit_contract(command, values)


# odd and even sizes up to 41 x 41, and sizes outside [3, MAX_GRID_N]
GRID_NS = st.integers(1, 41) | st.sampled_from([-3, 0, MAX_GRID_N + 1, MAX_GRID_N + 2, 2**64])
SCAN_FUZZ_KEYS = ("lambda", "scan.z", "bath.omega_cutoff", "bath.beta", "model.epsilon")


@settings(max_examples=50, deadline=None)
@given(
    values=st.dictionaries(st.sampled_from(SCAN_FUZZ_KEYS), EXTREME_FLOATS | st.floats(0.0, 1.0) | LOG_UNIFORM),
    grid_n=GRID_NS,
)
# a growing mode of the generator, which the N scan refuses
@example(values={"bath.omega_cutoff": 1000.0}, grid_n=5)
def test_cli_region_scan_exit_codes_at_extreme_values(values, grid_n):
    # the N scan's cost does not grow as lambda shrinks, so a 41 x 41 scan
    # is cheap at any coupling; two worker processes write the same bytes
    # as one
    one, two = (
        _assert_exit_contract(["region-scan", f"--jobs={jobs}", "--set", f"scan.grid_n={grid_n}"], values)
        for jobs in (1, 2)
    )
    assert one == two


@settings(max_examples=40, deadline=None)
@given(values=st.dictionaries(st.sampled_from(("lambda", "propagation.t_end")), EXTREME_FLOATS, min_size=1))
@example(values={"lambda": 1e300})
def test_cli_tcl2_exit_codes_at_extreme_values(values):
    _assert_exit_contract(["propagate", "--mode", "tcl2", "--set", "propagation.n_points=5"], values)


# the bounds of both point counts, either side, and negative counts
POINT_COUNTS = st.sampled_from([0, 1, 2, MAX_POINTS, MAX_POINTS + 1]) | st.integers(max_value=-1)


@settings(max_examples=20, deadline=None)
@given(n=POINT_COUNTS)
@example(n=MAX_POINTS)
def test_cli_markov_n_points_exit_codes(n):
    _assert_exit_contract(["propagate", "--mode", "markov"], {"propagation.n_points": n})


@settings(max_examples=20, deadline=None)
@given(n=POINT_COUNTS)
@example(n=MAX_POINTS)
def test_cli_bath_correlation_n_points_exit_codes(n):
    # at t = 1000 the quadrature's bound underflows, so every point is an
    # exact 0 at no cost, and the compressed kernel keeps the series cheap
    argv = ["bath-correlation"]
    _assert_exit_contract(argv, {"quadrature.t_min": 1e3, "quadrature.t_max": 1e3, "quadrature.n_points": n})


@settings(max_examples=10, deadline=None)
@given(
    command=st.sampled_from([["diagnose"], ["propagate", "--mode", "markov"], ["bath-correlation"]]),
    k_max=st.sampled_from([-1, 0, 1, 64, 4000, 10**13, 2**64]),
)
def test_cli_matsubara_k_max_exit_codes(command, k_max):
    # the series is summed in full: the former truncation depth is an
    # unknown key, refused before anything runs
    rc, files = _assert_exit_contract(command, {"bath.matsubara_k_max": k_max})
    assert rc == 2 and not files


# bath extremes whose fit is refused at once or costs a few ms: values a
# factor 1e3 or so inside the boundaries, the boundaries themselves, and
# values that validation refuses
CUTOFF_EXTREMES = st.sampled_from(
    [5e-324, 1e-300, 1e-160, 1e-6, 0.3, 1.0, 40.0, 1e150, 1.3e154, 1e300, sys.float_info.max,
     0.0, -1.0, math.inf, math.nan]
)
BETA_EXTREMES = st.sampled_from(
    [5e-324, 1e-300, 1e-9, 0.01, 1.0, 30.0, 6e8, 1e9, 1e300, sys.float_info.max, 0.0, -1.0, math.inf]
)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from([["diagnose"], ["propagate", "--mode", "markov"]]),
    omega_c=CUTOFF_EXTREMES,
    beta=BETA_EXTREMES,
)
@example(command=["propagate", "--mode", "markov"], omega_c=1.0, beta=6e8)
@example(command=["propagate", "--mode", "markov"], omega_c=1e-160, beta=1e160)
def test_cli_kernel_fit_exit_codes_at_extreme_baths(command, omega_c, beta):
    # every pair the command accepts fits a kernel of a bounded number of
    # terms: at most 2 log4 of MAX_BELOW_CUTOFF blocks of MAX_NODES below
    # the cutoff and as many above
    rc, _ = _assert_exit_contract(command, {"bath.omega_cutoff": omega_c, "bath.beta": beta})
    if rc == 0:
        kernel = RunConfig.load(None, [f"bath.omega_cutoff={omega_c!r}", f"bath.beta={beta!r}"]).kernel()
        assert kernel.g.size <= 2000


BATH_FUZZ_KEYS = ("bath.beta", "bath.omega_cutoff", "quadrature.t_min", "quadrature.t_max")


@settings(max_examples=40, deadline=None)
@given(values=st.dictionaries(st.sampled_from(BATH_FUZZ_KEYS), EXTREME_FLOATS, min_size=1))
@example(values={"quadrature.t_max": sys.float_info.max})
def test_cli_bath_correlation_exit_codes_at_extreme_values(values):
    _assert_exit_contract(["bath-correlation", "--set", "quadrature.n_points=3"], values)


ORACLE_FUZZ_KEYS = (
    "oracle.beta", "oracle.omega_max", "oracle.t_star", "oracle.cancellation_lambda", "model.epsilon"
)


@settings(max_examples=20, deadline=None)
@given(values=st.dictionaries(st.sampled_from(ORACLE_FUZZ_KEYS), EXTREME_FLOATS, min_size=1))
@example(values={"oracle.beta": sys.float_info.max})
@example(values={"model.epsilon": sys.float_info.max})
@example(values={"oracle.cancellation_lambda": 1e300})
def test_cli_oracle_exit_codes_at_extreme_values(values):
    base = ["oracle", "--set", "oracle.n_modes=1", "--set", "oracle.omega_max=0.6"]
    _assert_exit_contract(base + ["--set", "oracle.n_times=2", "--set", "oracle.lambdas=0.08,0.16"], values)


# oracle sizes: small ones, which it runs or refuses at once (a visible
# thermal tail or the dimension cap), and ones that validation refuses
# before any mode or time grid is built
ORACLE_SIZES = {
    "oracle.n_modes": [-1, 0, 1, 2, MAX_ORACLE_MODES + 1, 10**8, 2**64],
    "oracle.fock_cutoff": [-1, 0, 1, 2, 10**8, 2**64],
    "oracle.n_times": [-1, 0, 1, 2, MAX_POINTS + 1, 2**64],
}


@settings(max_examples=30, deadline=None)
@given(
    values=st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(sizes) for key, sizes in ORACLE_SIZES.items()}
    )
)
@example(values={"oracle.n_modes": 10**8})
def test_cli_oracle_size_exit_codes(values):
    base = ["oracle", "--set", "oracle.omega_max=0.6", "--set", "oracle.lambdas=0.08,0.16"]
    _assert_exit_contract(base, {"oracle.n_modes": 1, "oracle.n_times": 2, **values})


@settings(max_examples=20, deadline=None)
@given(lambdas=st.lists(EXTREME_FLOATS | st.floats(0.0, 1.0), min_size=2, max_size=3))
@example(lambdas=[1e154, sys.float_info.max])
def test_cli_oracle_lambdas_exit_codes_at_extreme_values(lambdas):
    base = ["oracle", "--set", "oracle.n_modes=1", "--set", "oracle.omega_max=0.6", "--set", "oracle.n_times=2"]
    _assert_exit_contract(base + ["--set", "oracle.lambdas=" + ",".join(map(repr, lambdas))], {})


TCL2_SHORT = ["propagate", "--mode", "tcl2", "--set", "propagation.n_points=5"]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from([["diagnose"], ["propagate", "--mode", "markov"], TCL2_SHORT]),
    modes=st.lists(
        st.tuples(EXTREME_FLOATS | st.floats(0.0, 10.0), EXTREME_FLOATS | st.floats(0.0, 1.0)),
        min_size=1,
        max_size=3,
    ),
)
@example(command=TCL2_SHORT, modes=[(sys.float_info.max, 0.1)])
# a memory time of 1 / 1.8e308: the sup grid's first node is subnormal
@example(command=["diagnose"], modes=[(sys.float_info.max, 0.0)])
def test_cli_discrete_modes_exit_codes_at_extreme_values(command, modes):
    text = ",".join(f"{w!r}:{nu!r}" for w, nu in modes)
    _assert_exit_contract(command + ["--set", "bath.type=discrete", "--set", f"bath.modes={text}"], {})


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from([["diagnose"], ["propagate", "--mode", "markov"], TCL2_SHORT]),
    # most extreme triples lie outside the Bloch ball, so components in
    # [-1, 1] are drawn too
    bloch=st.tuples(*[EXTREME_FLOATS | st.floats(-1.0, 1.0)] * 3),
    kappa=EXTREME_FLOATS,
)
def test_cli_initial_and_kappa_exit_codes_at_extreme_values(command, bloch, kappa):
    argv = command + ["--initial=" + ",".join(map(repr, bloch))]
    if command == TCL2_SHORT:
        argv.append(f"--kappa={kappa!r}")
    _assert_exit_contract(argv, {})


# small runs of each command, and the float keys each reads; oracle.lambdas
# is a list of floats, of which the drawn value is the second
SMALL_RUNS = {
    "diagnose": ["diagnose"],
    "markov": ["propagate", "--mode", "markov"],
    "tcl2": TCL2_SHORT,
    "region_scan": ["region-scan", "--set", "scan.grid_n=5"],
    "bath_correlation": ["bath-correlation", "--set", "quadrature.n_points=3"],
    "oracle": ["oracle", "--set", "oracle.n_modes=1", "--set", "oracle.omega_max=0.6",
               "--set", "oracle.n_times=2", "--set", "oracle.lambdas=0.08,0.16"],
}
FLOAT_KEY_RUNS = {
    "model.epsilon": ("diagnose", "oracle"),
    "bath.omega_cutoff": ("bath_correlation", "oracle"),
    "bath.beta": ("markov", "region_scan"),
    "lambda": ("region_scan", "tcl2"),
    "scan.z": ("region_scan",),
    "propagation.t_end": ("markov", "tcl2"),
    "quadrature.t_min": ("bath_correlation",),
    "quadrature.t_max": ("bath_correlation",),
    "oracle.beta": ("oracle",),
    "oracle.omega_max": ("oracle",),
    "oracle.t_star": ("oracle",),
    "oracle.cancellation_lambda": ("oracle",),
    "oracle.lambdas": ("oracle",),
}


def test_every_float_key_is_fuzzed():
    floats = {key for key, default in DEFAULTS.items() if isinstance(default, float)}
    assert set(FLOAT_KEY_RUNS) == floats | {"oracle.lambdas"}


@pytest.mark.parametrize(
    "key, run",
    [(key, run) for key, runs in FLOAT_KEY_RUNS.items() for run in runs],
    ids=[f"{key}-{run}" for key, runs in FLOAT_KEY_RUNS.items() for run in runs],
)
@settings(max_examples=25, deadline=None)
@given(value=EXTREME_FLOATS | LOG_UNIFORM | st.floats(0.0, 1.0))
def test_cli_exit_codes_at_extreme_float_keys(key, run, value):
    text = f"0.08,{value!r}" if key == "oracle.lambdas" else repr(value)
    _assert_exit_contract(SMALL_RUNS[run] + ["--set", f"{key}={text}"], {})


def test_dump_json_refuses_non_finite_values(tmp_path, capsys):
    assert _dump_json({"command": "diagnose", "bound": -1.5}).startswith("{")
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="^the result is not finite"):
            _dump_json({"command": "diagnose", "bound": bad})
    # main names the command once, in front of the refusal
    assert main(["diagnose", "--set", "lambda=1e200", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: diagnose: the result is not finite")
    assert err.count("diagnose") == 1


def test_cli_propagate_markov(tmp_path):
    rc = main(
        [
            "propagate",
            "--out",
            str(tmp_path),
            "--set",
            "propagation.t_end=2.0",
            "--set",
            "propagation.n_points=5",
        ]
    )
    assert rc == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == "t,x,y,z,min_eig,trace_err"
    assert len(rows) == 5
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == pytest.approx(1.0)
    assert all(float(r[5]) < 1e-12 for r in rows)
    meta = _read_json(tmp_path / "trajectory_meta.json")
    assert meta["mode"] == "markov"
    assert meta["kappa"] == 0.0
    assert meta["initial"] == [1.0, 0.0, 0.0]
    assert meta["version"] == __version__
    assert meta["natural_sign"] == -1


@pytest.mark.parametrize("bath_set", [[], ["bath.omega_cutoff=2"], ["bath.beta=2.0"]])
def test_cli_propagate_markov_far_end_is_stationary(tmp_path, bath_set):
    # eig rounds the generator's zero eigenvalue to within +-4e-17 of 0 at
    # these baths; a positive rounding would overflow exp(t G) at t = 1e300
    # and a negative one would drop the stationary part
    overrides = ["propagation.t_end=1e300", *bath_set]
    argv = ["propagate", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    _, rows = _read_csv(tmp_path / "trajectory.csv")
    cfg = RunConfig.load(None, overrides)
    gen = build_redfield_generator(cfg.model(), cfg.kernel(), float(cfg["lambda"]))
    rho_ss = bloch_to_density(tuple(float(v) for v in rows[-1][1:4]))
    assert np.max(np.abs(rho_ss - stationary_state(gen))) < 1e-12


def test_cli_propagate_free_precession_preserves_z(tmp_path):
    rc = main(
        [
            "propagate",
            "--out",
            str(tmp_path),
            "--initial",
            "0.3,0,0.8",
            "--set",
            "lambda=0.0",
            "--set",
            "propagation.t_end=5.0",
            "--set",
            "propagation.n_points=11",
        ]
    )
    assert rc == 0
    _, rows = _read_csv(tmp_path / "trajectory.csv")
    z = np.array([float(r[3]) for r in rows])
    assert np.allclose(z, 0.8, atol=1e-12)
    # transverse magnitude is conserved without coupling
    xy = np.array([float(r[1]) ** 2 + float(r[2]) ** 2 for r in rows])
    assert np.allclose(xy, 0.09, atol=1e-12)


def test_cli_propagate_rejects_bad_initial(tmp_path, capsys):
    assert main(["propagate", "--out", str(tmp_path), "--initial", "1,1,1"]) == 2
    assert "norm" in capsys.readouterr().err
    assert main(["propagate", "--out", str(tmp_path), "--initial", "1,0"]) == 2
    assert main(["propagate", "--out", str(tmp_path), "--initial", "a,b,c"]) == 2


def test_cli_tcl2_kappa_one_matches_markov(tmp_path):
    common = [
        "--set",
        "lambda=0.3",
        "--set",
        "propagation.t_end=2.0",
        "--set",
        "propagation.n_points=9",
    ]
    out_m = tmp_path / "m"
    out_t = tmp_path / "t"
    assert main(["propagate", "--out", str(out_m), "--mode", "markov"] + common) == 0
    rc = main(
        ["propagate", "--out", str(out_t), "--mode", "tcl2", "--kappa", "1.0"] + common
    )
    assert rc == 0
    _, rows_m = _read_csv(out_m / "trajectory.csv")
    _, rows_t = _read_csv(out_t / "trajectory.csv")
    # full initial correlation removes the slippage transient entirely
    for rm, rt in zip(rows_m, rows_t):
        for col in (1, 2, 3):
            assert float(rt[col]) == pytest.approx(float(rm[col]), abs=1e-12)
    meta = _read_json(out_t / "trajectory_meta.json")
    assert meta["mode"] == "tcl2"
    assert meta["kappa"] == 1.0


def test_cli_tcl2_reports_quadrature_error(tmp_path):
    common = ["--set", "propagation.t_end=3.0", "--set", "propagation.n_points=7"]
    out_m = tmp_path / "m"
    out_t = tmp_path / "t"
    assert main(["propagate", "--out", str(out_m)] + common) == 0
    assert main(["propagate", "--out", str(out_t), "--mode", "tcl2", "--kappa", "0.2"] + common) == 0
    meta = _read_json(out_t / "trajectory_meta.json")
    assert meta["tcl2_converged"] is True
    assert 0.0 <= meta["tcl2_err_est"] < 1e-9
    # the certificate goes to the metadata only: the CSV layout is shared
    assert "tcl2_err_est" not in _read_json(out_m / "trajectory_meta.json")
    header_m, _ = _read_csv(out_m / "trajectory.csv")
    header_t, rows = _read_csv(out_t / "trajectory.csv")
    assert header_t == header_m == "t,x,y,z,min_eig,trace_err"
    assert len(rows) == 7


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(
            # mode frequencies stay 0.05 or more away from the splitting
            st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 3.0)),
            st.floats(0.0, 0.5),
        ),
        min_size=1,
        max_size=3,
    ),
    st.floats(0.5, 5.0),
    st.floats(0.0, 0.3),
    st.floats(0.0, 1.0),
    st.tuples(st.floats(-0.55, 0.55), st.floats(-0.55, 0.55), st.floats(-0.55, 0.55)),
    st.floats(0.5, 25.0),
)
def test_cli_tcl2_discrete_matches_closed_form(modes, beta, lam, kappa, bloch, t_end):
    out = Path(tempfile.mkdtemp())
    try:
        spec = ",".join(f"{w!r}:{nu!r}" for w, nu in modes)
        initial = ",".join(repr(c) for c in bloch)
        argv = [
            "propagate", "--out", str(out), "--mode", "tcl2",
            f"--initial={initial}", f"--kappa={kappa!r}",
            "--set", "bath.type=discrete", "--set", f"bath.modes={spec}",
            "--set", f"bath.beta={beta!r}", "--set", f"lambda={lam!r}",
            "--set", f"propagation.t_end={t_end!r}", "--set", "propagation.n_points=9",
        ]
        assert main(argv) == 0
        cfg = RunConfig.load(None, [a for a in argv[argv.index("--set"):] if a != "--set"])
        closed = perturbative_solution(
            cfg.model(), cfg.kernel(), lam, bloch_to_density(bloch),
            NaturalFamily(kappa), cfg.propagation_times(),
        )
        _, rows = _read_csv(out / "trajectory.csv")
        assert len(rows) == 9
        for row, b in zip(rows, closed.blochs()):
            x, y, z = (float(v) for v in row[1:4])
            # trace distance of qubit states is half their Bloch distance
            assert 0.5 * math.dist((x, y, z), (b.x, b.y, b.z)) < 1e-10
    finally:
        shutil.rmtree(out)


def test_cli_diagnose_report(tmp_path, capsys):
    rc = main(["diagnose", "--out", str(tmp_path), "--initial", "1,0,0"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    obj = _read_json(tmp_path / "diagnose.json")
    assert obj["command"] == "diagnose"
    assert obj["initial"] == {"x": 1.0, "y": 0.0, "z": 0.0}
    lam = obj["config"]["lambda"]
    assert obj["bound"] == pytest.approx(obj["p0"] - lam**2 * obj["sup_value"], rel=1e-12)
    # a pure equator state is certified correctable at this coupling
    assert obj["in_U_prime"] is True
    assert obj["bound"] < 0.0
    assert obj["t_star"] > 0.0
    assert obj["degenerate_p0"] is False
    assert sorted(obj["slipped"]) == [
        "delta1",
        "delta2",
        "err_est",
        "kappa",
        "rho_s",
        "slipped",
    ]


def test_cli_parser_keeps_no_state_between_calls(tmp_path):
    """The parser is built once per process; an override of one call
    must not leak into the next."""
    first, second = tmp_path / "a", tmp_path / "b"
    argv = ["propagate", "--set", "propagation.n_points=3"]
    assert main(argv + ["--set", "lambda=0.3", "--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert _read_json(first / "trajectory_meta.json")["config"]["lambda"] == 0.3
    meta = _read_json(second / "trajectory_meta.json")
    assert meta["config"]["lambda"] == DEFAULTS["lambda"]
    assert meta["config"]["propagation.n_points"] == 3


def test_cli_seed_env_recorded(tmp_path, monkeypatch):
    monkeypatch.setenv("REDFIELD_SLIPPAGE_SEED", "123")
    assert main(["diagnose", "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "diagnose.json")["seed_env"] == "123"
    monkeypatch.delenv("REDFIELD_SLIPPAGE_SEED")
    assert main(["diagnose", "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "diagnose.json")["seed_env"] is None


def test_cli_region_scan_deterministic(tmp_path):
    args = ["region-scan", "--set", "scan.grid_n=11"]
    dirs = [tmp_path / d for d in ("a", "b", "j2")]
    assert main(args + ["--out", str(dirs[0])]) == 0
    assert main(args + ["--out", str(dirs[1])]) == 0
    assert main(args + ["--out", str(dirs[2]), "--jobs", "2"]) == 0
    blobs = [(d / "region_scan.csv").read_bytes() for d in dirs]
    # reruns and the process-pool path are byte-identical
    assert blobs[0] == blobs[1] == blobs[2]
    metas = [(d / "region_scan_meta.json").read_bytes() for d in dirs]
    assert metas[0] == metas[1] == metas[2]
    header, rows = _read_csv(dirs[0] / "region_scan.csv")
    assert header == "x,y,z,p0,bound,in_U_prime,in_N,min_eig,witness_t"
    assert len(rows) == 121
    meta = _read_json(dirs[0] / "region_scan_meta.json")
    scan = meta["scan"]
    assert scan["grid_n"] == 11
    assert 0 < scan["n_in_n"] <= scan["n_in_u_prime"]
    assert scan["natural_sign"] == -1


def test_cli_oracle_fast_report(tmp_path):
    rc = main(
        [
            "oracle",
            "--out",
            str(tmp_path),
            "--set",
            "oracle.n_modes=1",
            "--set",
            "oracle.omega_max=0.6",
            "--set",
            "oracle.n_times=8",
            "--set",
            "oracle.lambdas=0.08,0.16",
        ]
    )
    assert rc == 0
    rep = _read_json(tmp_path / "oracle_report.json")
    assert rep["pinned_sign"] == -1
    assert rep["total_dimension"] == 12
    assert rep["cancellation"]["-1"]["max_residual"] < 1e-8
    assert rep["cancellation"]["1"]["max_residual"] == pytest.approx(2.0, abs=0.05)
    assert rep["scaling"]["slope"] > 2.7
    assert len(rep["markovianity"]["dist_product"]) == 8
    assert rep["config"]["oracle.n_modes"] == 1


def test_cli_oracle_inconsistency_exit4(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise OracleConsistencyError("forced failure")

    monkeypatch.setattr("redfield_slippage.cli.pin_natural_sign", boom)
    rc = main(
        [
            "oracle",
            "--out",
            str(tmp_path),
            "--set",
            "oracle.n_modes=1",
            "--set",
            "oracle.omega_max=0.6",
        ]
    )
    assert rc == 4
    assert "consistency failure" in capsys.readouterr().err


def _declared_entry_point():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["redfield-slippage"]


def test_cli_entry_point(tmp_path, child_env):
    # the console script is generated from pyproject.toml at install time;
    # check that its declared target is cli.main, then drive that target in a
    # child interpreter the way the generated wrapper does (sys.exit(main()))
    module_name, _, attr = _declared_entry_point().partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main
    proc = subprocess.run(
        [sys.executable, "-m", "redfield_slippage", "diagnose", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert os.path.exists(tmp_path / "diagnose.json")


def test_cli_import_leaves_out_scipy_integrate(child_env):
    # no command needs adaptive quadrature, and importing scipy.integrate
    # costs start-up time and resident memory
    code = "import sys, redfield_slippage.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_sparse(child_env):
    # the oracle finds the blocks of its Hamiltonian with numpy alone;
    # scipy.sparse would add to every command's start-up time
    code = "import sys, redfield_slippage.cli; print('scipy.sparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_SCIPY_PARTS_PROBE = """
import json, sys
from redfield_slippage.cli import main

PARTS = ("scipy.integrate", "scipy.sparse", "scipy.linalg", "scipy.special")
RUNS = [
    ["diagnose"],
    ["propagate", "--mode", "markov"],
    ["propagate", "--mode", "tcl2"],
    ["region-scan", "--set", "scan.grid_n=11"],
    ["oracle"],
    ["bath-correlation"],
]
loaded = {"import": [p for p in PARTS if p in sys.modules]}
for argv in RUNS:
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
    loaded[" ".join(argv)] = [p for p in PARTS if p in sys.modules]
print(json.dumps(loaded))
"""


def test_cli_commands_load_scipy_only_where_used(tmp_path, child_env):
    # start-up is most of a single-state command's wall time: importing the
    # CLI and running every command but bath-correlation loads no scipy
    # subpackage; bath-correlation loads scipy.special for exp1, and
    # scipy.linalg (expm) only comes with a defective generator
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PARTS_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(loaded) == 7
    assert {k: v for k, v in loaded.items() if v} == {"bath-correlation": ["scipy.special"]}


@pytest.mark.skipif(
    shutil.which("redfield-slippage") is None,
    reason="redfield-slippage console script not installed",
)
def test_cli_console_script(tmp_path):
    proc = subprocess.run(
        ["redfield-slippage", "diagnose", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert os.path.exists(tmp_path / "diagnose.json")
