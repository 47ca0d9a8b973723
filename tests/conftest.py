"""Shared fixtures: one kernel fit per session, one oracle bath, seeded RNG,
and the environment of a child interpreter."""

import os
from pathlib import Path

import numpy as np
import pytest

import redfield_slippage
from redfield_slippage.bath import LorentzDrudeBath, fit_exponential_mixture
from redfield_slippage.master import SystemModel, build_redfield_generator
from redfield_slippage.oracle import default_oracle_bath


@pytest.fixture(scope="session")
def model():
    return SystemModel(epsilon=1.0)


@pytest.fixture(scope="session")
def ld_spec():
    return LorentzDrudeBath(omega_c=1.0, beta=1.0)


@pytest.fixture(scope="session")
def kernel(ld_spec):
    return fit_exponential_mixture(ld_spec)


@pytest.fixture(scope="session")
def generator(model, kernel):
    return build_redfield_generator(model, kernel, lam=0.5)


@pytest.fixture(scope="session")
def oracle_bath():
    return default_oracle_bath()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(scope="session")
def child_env():
    # the child must import the package this session imported, whatever its
    # working directory: an inherited relative PYTHONPATH would not resolve
    src = str(Path(redfield_slippage.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
