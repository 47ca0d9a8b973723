"""Flat dotted-key run configuration.

Config files are plain text, one `key = value` per line, `#` starting a
comment. Every key has a typed default below; unknown keys and values
that fail validation raise ConfigError, a ValueError, which the command
line maps to exit code 2 like every other library ValueError. The same
keys can be overridden with repeated --set options, applied after the
file in order.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import (
    DEFAULT_K_MAX,
    T_MIN_FACTOR,
    DiscreteModes,
    LorentzDrudeBath,
    discrete_kernel,
    fit_exponential_mixture,
)
from .master import MAX_POINTS, SystemModel
from .oracle import DIM_CAP


class ConfigError(ValueError):
    """A value from outside the program that the command line refuses."""


# 2001^2 cells: a 290 MB result table and about 100 times the default scan
MAX_GRID_N = 2001
# a kernel term takes about 500 bytes at peak (its poles, the amplitude
# rows of the variational tables and their real stack): diagnose peaks at
# 520 MB with 10^6 terms, and at the default temperature the Matsubara
# remainder bound is already 0 in double precision at 10^5
MAX_K_MAX = 10**6
# every oscillator at least doubles the oracle's dimension (fock_cutoff
# >= 1): more modes are refused before their arrays are built
MAX_ORACLE_MODES = int(math.log2(DIM_CAP // 2))


DEFAULTS = {
    "model.epsilon": 1.0,
    "bath.type": "lorentz_drude",
    "bath.omega_cutoff": 1.0,
    "bath.beta": 1.0,
    "bath.matsubara_k_max": DEFAULT_K_MAX,
    "bath.modes": "",
    "lambda": 0.5,
    "quadrature.t_min": 1e-3,
    "quadrature.t_max": 50.0,
    "quadrature.n_points": 200,
    "scan.grid_n": 201,
    "scan.z": 0.0,
    "propagation.t_end": 20.0,
    "propagation.n_points": 200,
    "oracle.beta": 12.0,
    "oracle.n_modes": 3,
    "oracle.omega_max": 1.8,
    "oracle.fock_cutoff": 5,
    "oracle.t_star": 2.0,
    "oracle.lambdas": "0.04,0.08,0.16",
    "oracle.cancellation_lambda": 0.08,
    "oracle.n_times": 32,
    "output.directory": ".",
}


def _coerce(key, text):
    default = DEFAULTS[key]
    text = text.strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return _finite_float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


class RunConfig:
    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        if values:
            for k, v in values.items():
                if k not in DEFAULTS:
                    raise ConfigError(f"unknown config key: {k}")
                self.values[k] = v
        self.validate()

    def __getitem__(self, key):
        return self.values[key]

    @classmethod
    def load(cls, path=None, overrides=()):
        values = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            for lineno, raw in enumerate(text.splitlines(), start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
                values[key] = _coerce(key, val)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            values[key] = _coerce(key, val)
        return cls(values)

    def validate(self):
        v = self.values
        if v["model.epsilon"] <= 0.0:
            raise ConfigError("model.epsilon must be positive")
        if v["bath.type"] not in ("lorentz_drude", "discrete"):
            raise ConfigError("bath.type must be lorentz_drude or discrete")
        if v["bath.omega_cutoff"] <= 0.0 or v["bath.beta"] <= 0.0:
            raise ConfigError("bath.omega_cutoff and bath.beta must be positive")
        if not 1 <= v["bath.matsubara_k_max"] <= MAX_K_MAX:
            raise ConfigError(f"bath.matsubara_k_max must lie in [1, {MAX_K_MAX}]")
        if v["lambda"] < 0.0:
            raise ConfigError("lambda must be non-negative")
        if not (0.0 < v["quadrature.t_min"] <= v["quadrature.t_max"]):
            raise ConfigError("need 0 < quadrature.t_min <= quadrature.t_max")
        if not 1 <= v["quadrature.n_points"] <= MAX_POINTS:
            raise ConfigError(f"quadrature.n_points must lie in [1, {MAX_POINTS}]")
        n = v["scan.grid_n"]
        if not 3 <= n <= MAX_GRID_N or n % 2 == 0:
            raise ConfigError(f"scan.grid_n must be an odd integer in [3, {MAX_GRID_N}]")
        if abs(v["scan.z"]) > 1.0:
            raise ConfigError("scan.z must lie in [-1, 1]")
        if v["propagation.t_end"] <= 0.0:
            raise ConfigError("propagation.t_end must be positive")
        if not 2 <= v["propagation.n_points"] <= MAX_POINTS:
            raise ConfigError(f"propagation.n_points must lie in [2, {MAX_POINTS}]")
        if v["oracle.fock_cutoff"] < 1:
            raise ConfigError("oracle.fock_cutoff must be >= 1")
        if not 1 <= v["oracle.n_modes"] <= MAX_ORACLE_MODES:
            raise ConfigError(
                f"oracle.n_modes must lie in [1, {MAX_ORACLE_MODES}]: "
                f"the oracle's dimension is capped at {DIM_CAP}"
            )
        if v["oracle.beta"] <= 0.0 or v["oracle.omega_max"] <= 0.0:
            raise ConfigError("oracle.beta and oracle.omega_max must be positive")
        if v["oracle.t_star"] <= 0.0:
            raise ConfigError("oracle.t_star must be positive")
        lambdas = self.oracle_lambdas()
        if any(lam <= 0.0 for lam in lambdas):
            raise ConfigError("oracle.lambdas must be positive")
        # the scaling check fits a log-log slope through these couplings
        if len(set(lambdas)) < 2:
            raise ConfigError("oracle.lambdas needs at least two distinct couplings")
        if v["oracle.cancellation_lambda"] <= 0.0:
            raise ConfigError("oracle.cancellation_lambda must be positive")
        if not 1 <= v["oracle.n_times"] <= MAX_POINTS:
            raise ConfigError(f"oracle.n_times must lie in [1, {MAX_POINTS}]")

    def oracle_lambdas(self):
        try:
            return [_finite_float(tok) for tok in str(self.values["oracle.lambdas"]).split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError("oracle.lambdas must be a comma list of floats") from exc

    def parsed_modes(self):
        """bath.modes format: 'omega:nu,omega:nu,...'."""
        text = str(self.values["bath.modes"]).strip()
        if not text:
            raise ConfigError("bath.type=discrete needs bath.modes entries")
        modes = []
        for tok in text.split(","):
            if ":" not in tok:
                raise ConfigError(f"bad mode entry {tok!r}, expected omega:nu")
            w, _, nu = tok.partition(":")
            try:
                modes.append((_finite_float(w), _finite_float(nu)))
            except ValueError as exc:
                raise ConfigError(f"bad mode entry {tok!r}") from exc
        return tuple(modes)

    def model(self) -> SystemModel:
        return SystemModel(epsilon=float(self.values["model.epsilon"]))

    def bath_spec(self):
        beta = float(self.values["bath.beta"])
        if self.values["bath.type"] == "lorentz_drude":
            return LorentzDrudeBath(omega_c=float(self.values["bath.omega_cutoff"]), beta=beta)
        return DiscreteModes(self.parsed_modes(), beta=beta)

    def kernel(self):
        spec = self.bath_spec()
        if isinstance(spec, LorentzDrudeBath):
            return fit_exponential_mixture(spec, int(self.values["bath.matsubara_k_max"]))
        return discrete_kernel(spec)

    def quadrature_times(self):
        """The bath-correlation grid: n_points geometric times from t_min
        to t_max, all inside C(t)'s domain t >= T_MIN_FACTOR / omega_c."""
        t_lo = float(self.values["quadrature.t_min"])
        t_min = T_MIN_FACTOR / float(self.values["bath.omega_cutoff"])
        if t_lo < t_min:
            raise ConfigError(
                f"quadrature.t_min = {t_lo:g} is below {T_MIN_FACTOR:g} / bath.omega_cutoff "
                f"= {t_min:g}, outside C(t)'s domain (logarithmic divergence at t = 0)"
            )
        n = int(self.values["quadrature.n_points"])
        t_hi = float(self.values["quadrature.t_max"])
        return np.geomspace(t_lo, t_hi, n) if n > 1 else np.array([t_lo])

    def propagation_times(self):
        return np.linspace(
            0.0,
            float(self.values["propagation.t_end"]),
            int(self.values["propagation.n_points"]),
        )

    def to_metadata(self) -> dict:
        return {k: self.values[k] for k in sorted(self.values)}
