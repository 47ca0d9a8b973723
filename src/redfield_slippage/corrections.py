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

from .bath import PAIR_SP, PAIR_SQ, KernelNotIntegrableError, SlippageIntegrals
from .master import build_redfield_generator, trajectory_from_states
from .operators import SM, SP

NATURAL_SIGN = -1

# S^{s'} and S^{s''} of the four PAIRS, each stacked (4, 2, 2), with
# S^{+1} = S^+ and S^{-1} = S^-
S_LEFT = np.where(PAIR_SP[:, None, None] > 0.0, SP, SM)
S_RIGHT = np.where(PAIR_SQ[:, None, None] > 0.0, SP, SM)


def pair_commutators(rho):
    """[S^{s'}, S^{s''} rho] of the four PAIRS, shape (..., 4, 2, 2) for
    states rho (..., 2, 2). The S^s have 0/1 entries, so every product is
    exact."""
    s_rho = S_RIGHT @ np.asarray(rho)[..., None, :, :]
    return S_LEFT @ s_rho - s_rho @ S_LEFT


@dataclass(frozen=True)
class Product:
    """Uncorrelated rho_S x rho_R initial condition."""


@dataclass(frozen=True)
class NaturalFamily:
    """Initial total state carrying kappa times the stationary
    system-reservoir correlation, to first order in the coupling."""

    kappa: float

    def __post_init__(self):
        if not np.isfinite(self.kappa):
            raise ValueError("kappa must be finite")


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
    psi = 0.25 * np.tensordot(ivals, pair_commutators(rho_s), axes=1)
    return (lam * lam) * (psi + np.conj(np.swapaxes(psi, -1, -2)))


def delta_rho2(correlation, delta1):
    """Initial-correlation correction at the times of delta1, the
    delta_rho1 of the same state.

    Vanishes identically for product states. For the kappa family the
    correlated part of the total state feeds the same memory integral
    as delta_rho1 with the opposite orientation, giving
    NATURAL_SIGN * kappa * delta_rho1.
    """
    if isinstance(correlation, Product):
        return np.zeros_like(delta1)
    if isinstance(correlation, NaturalFamily):
        return NATURAL_SIGN * correlation.kappa * delta1
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
    d1 = delta_rho1(model, kernel, lam, rho_s, np.inf)
    d2 = delta_rho2(correlation, d1)
    kappa = float(correlation.kappa) if isinstance(correlation, NaturalFamily) else 0.0
    slipped = rho_s + d1 + d2
    # each I(inf) = -S(0) is off by at most the kernel's remainder_bound
    # (bath.fit_exponential_mixture), and ||[S', S'' rho]|| <= 2: the four
    # pairs move Psi + Psi^dag by at most 4 remainder_bound, and
    # delta_rho2 = -kappa delta_rho1 with them
    tail = 4.0 * (1.0 + abs(kappa)) * kernel.remainder_bound
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
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    gen = build_redfield_generator(model, kernel, lam)
    d1 = delta_rho1(model, kernel, lam, rho_s, times)
    starts = rho_s + d1 + delta_rho2(correlation, d1)
    return trajectory_from_states(times, gen.evolve(times, starts))
