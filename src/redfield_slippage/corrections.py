"""Slippage corrections and correlated initial conditions.

Truncating the memory expansion at second order leaves two finite
corrections to the initial state of the reduced dynamics. delta_rho1
absorbs the relaxation transient of the memory kernel,

    delta_rho1[t; rho] = lam^2 (Psi(t) + Psi(t)^dag),
    Psi(t) = (1/4) sum_{s', s''} I_{s' s''}(t) [S^{s'}, S^{s''} rho],
    I_{s' s''}(t) = sum_j c_j / (g_j + i s'' eps) phi(i s' eps - g_j, t),

with phi(a, t) = (exp(a t) - 1)/a and the sums running over s = +-1
(S^{+1} = S^+, S^{-1} = S^-); bath.SlippageIntegrals evaluates them
over arrays of times. delta_rho2 absorbs the first-order
system-reservoir correlation of the initial total state; for the
one-parameter correlated family it collapses onto -kappa delta_rho1
because the correlated part free-streams inside the same memory
integral. The overall sign of that first-order part is fixed once by
the exact-diagonalization cancellation check and recorded here as
NATURAL_SIGN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import PAIRS, KernelNotIntegrableError, SlippageIntegrals
from .master import build_redfield_generator, trajectory_from_states
from .operators import SM, SP, unvec, vec

NATURAL_SIGN = -1

_SOP = {1: SP, -1: SM}


@dataclass(frozen=True)
class Product:
    """Uncorrelated rho_S x rho_R initial condition."""

    kappa: float = 0.0


@dataclass(frozen=True)
class NaturalFamily:
    """Initial total state carrying kappa times the stationary
    system-reservoir correlation, to first order in the coupling."""

    kappa: float
    sign: int = NATURAL_SIGN

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not np.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


@dataclass(frozen=True)
class ExplicitOracleState:
    """Correlated total state supplied directly as a matrix; only the
    exact-diagonalization module can consume it."""

    state: object


def delta_rho1(model, kernel, lam, rho_s, t):
    """Memory-transient correction at times t, of shape t.shape + (2, 2);
    zero at t = 0, and t = inf is the slippage."""
    rho_s = np.asarray(rho_s, dtype=complex)
    t = np.asarray(t, dtype=float)
    if np.any(np.isinf(t)) and not kernel.integrable:
        raise KernelNotIntegrableError(
            "the t -> infinity slippage needs an integrable kernel; "
            "discrete mode sets never relax"
        )
    ivals = SlippageIntegrals(kernel, model.epsilon)(t)
    ops = np.array(
        [_SOP[sp] @ (_SOP[sq] @ rho_s) - (_SOP[sq] @ rho_s) @ _SOP[sp] for sp, sq in PAIRS]
    )
    psi = 0.25 * np.tensordot(ivals, ops, axes=1)
    return (lam * lam) * (psi + np.conj(np.swapaxes(psi, -1, -2)))


def delta_rho2(model, kernel, lam, rho_s, correlation, t):
    """Initial-correlation correction at times t, shaped like delta_rho1.

    Vanishes identically for product states. For the kappa family the
    correlated part of the total state feeds the same memory integral
    as delta_rho1 with the opposite orientation, giving
    sign * kappa * delta_rho1.
    """
    if isinstance(correlation, Product):
        return np.zeros(np.shape(t) + (2, 2), dtype=complex)
    if isinstance(correlation, NaturalFamily):
        return correlation.sign * correlation.kappa * delta_rho1(
            model, kernel, lam, rho_s, t
        )
    if isinstance(correlation, ExplicitOracleState):
        raise TypeError(
            "explicit total states have no closed-form correction; "
            "use the exact-diagnostics module"
        )
    raise TypeError(f"unsupported correlation {type(correlation).__name__}")


def _matrix_to_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


@dataclass
class CorrectionReport:
    rho_s: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    slipped: np.ndarray
    kappa: float
    err_est: float

    def to_dict(self) -> dict:
        return {
            "rho_s": _matrix_to_json(self.rho_s),
            "delta1": _matrix_to_json(self.delta1),
            "delta2": _matrix_to_json(self.delta2),
            "slipped": _matrix_to_json(self.slipped),
            "kappa": float(self.kappa),
            "err_est": float(self.err_est),
        }


def slipped_initial_condition(model, kernel, lam, rho_s, correlation) -> CorrectionReport:
    """Effective initial condition for the memoryless semigroup,

        rho_slipped = rho_S + delta_rho1[inf] + delta_rho2[inf],

    which for the kappa family is rho_S + (1 - kappa) delta_rho1[inf].
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    if isinstance(correlation, Product):
        kappa = 0.0
    elif isinstance(correlation, NaturalFamily):
        kappa = float(correlation.kappa)
    else:
        raise TypeError(f"unsupported correlation {type(correlation).__name__}")
    d1 = delta_rho1(model, kernel, lam, rho_s, np.inf)
    d2 = delta_rho2(model, kernel, lam, rho_s, correlation, np.inf)
    slipped = rho_s + d1 + d2
    tail = getattr(kernel, "remainder_bound", 0.0) * kernel.tau_r_estimate
    err = lam * lam * tail + abs(complex(np.trace(d1 + d2)))
    return CorrectionReport(rho_s, d1, d2, slipped, kappa, float(err))


def perturbative_solution(model, kernel, lam, rho_s, correlation, times):
    """Second-order solution e^{t G} (rho_S + delta_rho1[t] + delta_rho2[t]).

    Exactly solves the time-local finite-memory equation integrated by
    propagate_tcl2, which makes the two routes interchangeable up to
    integration error.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    times = np.asarray(times, dtype=float)
    gen = build_redfield_generator(model, kernel, lam)
    starts = (
        rho_s
        + delta_rho1(model, kernel, lam, rho_s, times)
        + delta_rho2(model, kernel, lam, rho_s, correlation, times)
    )
    cols = gen.liouvillian.expm_action_many(times, vec(starts))
    return trajectory_from_states(times, unvec(cols.T))
