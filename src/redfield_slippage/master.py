"""Second-order generator and propagation for the two-level system.

The model is H_S = eps S^z coupled through X = S^x to the reservoir.
The memoryless generator is

    d rho / dt = G rho,   G = -i [H_S, .] - Lambda_0,
    Lambda_0 rho = lam^2 ( [X, Theta rho] - [X, rho Theta^dag] ),
    Theta = (1/2) ( S^+ Gamma(-eps) + S^- Gamma(+eps) ),

with Gamma the half-range Fourier transform of the reservoir kernel.
The finite-memory variant replaces Gamma by the partial integrals
F_sigma(t) (Lambda_t, evaluated by bath.TailKernel), and
propagate_tcl2 solves the resulting time-local equation with an
optional initial-correlation counterterm parameterized by kappa. In the
interaction picture of G its right-hand side does not depend on the
state, so the solution is a quadrature: composite Gauss-Legendre
panels aligned with the output times and graded geometrically toward
t = 0, refined until two passes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import KernelNotIntegrableError
from .operators import (
    I2,
    SM,
    SP,
    SX,
    SZ,
    Superoperator,
    check_density,
    commutator_superoperator,
    density_to_bloch,
    unvec,
    vec,
    vectorize_superoperator,
)

POSITIVITY_TOL = 1e-12
# default pass-to-pass tolerance of propagate_tcl2
TCL2_TOL = 1e-9
# Gauss-Legendre nodes per propagate_tcl2 panel
TCL2_NODES = 8
# the base panels of propagate_tcl2 halve geometrically from the base
# width h0 down to w = h0 2^-TCL2_GRADES. The innermost panel [0, w] is
# never split; the drive moves there by at most ~ lam^2 w sum |c_k|, so
# its quadrature error is of order lam^2 w^2 sum |c_k|, with w^2 about
# h0^2 times the double-precision epsilon.
TCL2_GRADES = 26
# panels per vectorised drive evaluation in propagate_tcl2
TCL2_PANEL_BLOCK = 4096


def csv_float(x) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def golden_min(f, lo, hi, iters=48):
    """Golden-section minima of a batch of functions, one per bracket.

    lo and hi are arrays of bracket ends and f maps an array of probe
    points (one per bracket) to the array of values there; scalars are
    a batch of one. Each element runs the same fixed-count iteration,
    selected elementwise, so it follows the scalar update rule exactly.
    Assumes each bracket contains a single local minimum. Returns the
    best probed (t, f(t)) arrays.
    """
    invphi = 0.6180339887498949
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(int(iters)):
        left = f1 <= f2
        lo = np.where(left, lo, x1)
        hi = np.where(left, x2, hi)
        x_new = np.where(left, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
        f_new = f(x_new)
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    best = f1 <= f2
    return np.where(best, x1, x2), np.where(best, f1, f2)


@dataclass(frozen=True)
class SystemModel:
    """Two-level system with splitting eps, coupled through S^x."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")

    @property
    def hamiltonian(self) -> np.ndarray:
        return self.epsilon * SZ

    @property
    def coupling(self) -> np.ndarray:
        return SX


def _dissipator(theta, lam) -> np.ndarray:
    """lam^2 ( [X, theta rho] - [X, rho theta^dag] ) as a matrix on vec(rho)."""
    x = SX
    td = theta.conj().T
    s = (
        vectorize_superoperator(x @ theta, I2)
        - vectorize_superoperator(theta, x)
        - vectorize_superoperator(x, td)
        + vectorize_superoperator(I2, td @ x)
    )
    return s * (lam * lam)


class RedfieldGenerator:
    """Constant generator G = -i L_S - Lambda_0 plus the pieces needed
    to rebuild its finite-memory counterpart at any t."""

    def __init__(self, model: SystemModel, kernel, lam: float):
        if lam < 0.0:
            raise ValueError("lam must be non-negative")
        self.model = model
        self.kernel = kernel
        self.lam = float(lam)
        eps = model.epsilon
        self.gamma_plus = kernel.half_fourier(eps)
        self.gamma_minus = kernel.half_fourier(-eps)
        self.theta = 0.5 * (SP * self.gamma_minus + SM * self.gamma_plus)
        self.lambda0 = _dissipator(self.theta, self.lam)
        self.liouvillian = Superoperator(
            -1j * commutator_superoperator(model.hamiltonian) - self.lambda0, dim=2
        )

    @cached_property
    def f_sigma(self):
        """Evaluator of the partial half-range integrals F_+(t) and
        F_-(t), on a trailing axis of length 2 (bath.TailKernel)."""
        return self.kernel.tail_kernel(self.model.epsilon, (1, -1))

    def theta_tail(self, t: float) -> np.ndarray:
        """Theta_t = (1/2)(S^+ F_-(t) + S^- F_+(t)); theta_tail(0) == theta."""
        f_plus, f_minus = self.f_sigma(np.array([float(t)]))[0]
        return 0.5 * (SP * f_minus + SM * f_plus)


def build_redfield_generator(model: SystemModel, kernel, lam: float) -> RedfieldGenerator:
    return RedfieldGenerator(model, kernel, lam)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    min_eigenvalues: np.ndarray
    trace_errors: np.ndarray
    # largest change between the last two quadrature passes (TCL2 only)
    err_est: float = 0.0

    def blochs(self):
        return [density_to_bloch(s) for s in self.states]

    def to_csv(self) -> str:
        lines = ["t,x,y,z,min_eig,trace_err"]
        for t, s, m, e in zip(self.times, self.states, self.min_eigenvalues, self.trace_errors):
            b = density_to_bloch(s)
            lines.append(
                ",".join(
                    csv_float(v) for v in (t, b.x, b.y, b.z, m, e)
                )
            )
        return "\n".join(lines) + "\n"


def trajectory_from_states(times, states, err_est=0.0) -> Trajectory:
    mins = np.empty(len(states))
    terr = np.empty(len(states))
    for i, s in enumerate(states):
        b = density_to_bloch(s)
        mins[i] = 0.5 * (1.0 - b.norm())
        terr[i] = abs(complex(np.trace(s)) - 1.0)
    return Trajectory(np.asarray(times, dtype=float), list(states), mins, terr, float(err_est))


def propagate_markovian(generator: RedfieldGenerator, rho0, times) -> Trajectory:
    """Evolve under the constant generator via its eigendecomposition."""
    rho0 = check_density(rho0)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be non-negative")
    cols = generator.liouvillian.expm_action_many(times, vec(rho0))
    states = [unvec(cols[:, k]) for k in range(cols.shape[1])]
    return trajectory_from_states(times, states)


def _tcl2_drive(generator, rho0, tau):
    """e^{i tau L_S} Lambda_tau e^{-i tau L_S} rho0 at times tau (n,),
    as vectorized states (n, 4)."""
    f_plus, f_minus = generator.f_sigma(tau).T
    ph = np.exp(-1j * generator.model.epsilon * tau)
    n = tau.size
    rf = np.empty((n, 2, 2), dtype=complex)
    rf[:, 0, 0] = rho0[0, 0]
    rf[:, 0, 1] = rho0[0, 1] * ph
    rf[:, 1, 0] = rho0[1, 0] * np.conj(ph)
    rf[:, 1, 1] = rho0[1, 1]
    th = np.zeros((n, 2, 2), dtype=complex)
    th[:, 0, 1] = 0.5 * f_minus
    th[:, 1, 0] = 0.5 * f_plus
    a = th @ rf
    b = rf @ np.conj(np.swapaxes(th, 1, 2))
    m = (SX @ a - a @ SX) - (SX @ b - b @ SX)
    m[:, 0, 1] *= np.conj(ph)
    m[:, 1, 0] *= ph
    # vec() stacks columns: (m00, m10, m01, m11)
    return generator.lam**2 * np.swapaxes(m, 1, 2).reshape(n, 4)


def _split_panels(edges, parts):
    """Split every panel [a, b] of edges with a > 0 into `parts`
    geometrically equal panels; the first panel [0, edges[1]] stays
    whole. Every edge of the input is kept exactly."""
    a, b = np.log(edges[1:-1]), np.log(edges[2:])
    # in logarithms, so that a subnormal edge cannot overflow b / a
    inner = np.exp(a[:, None] + (b - a)[:, None] * (np.arange(parts) / parts))
    inner[:, 0] = edges[1:-1]
    return np.concatenate((edges[:1], inner.ravel(), edges[-1:]))


def propagate_tcl2(generator: RedfieldGenerator, rho0, times, kappa=0.0, tol=TCL2_TOL, max_halvings=8) -> Trajectory:
    """Time-local second-order propagation with memory and slippage.

    Works in the interaction picture of the full constant generator,
    where the equation of motion reduces to the bounded decaying drive

        dy/dtau = (1 - kappa) e^{i tau L_S} Lambda_tau e^{-i tau L_S} rho0,

    which does not depend on y, so y(t) = rho0 + int_0^t drive is a
    quadrature; the physical state is rho(t) = e^{t G} y(t). The base
    panels end at every output time, at every multiple of the base width
    h0 and at h0 2^-k (k = 0 .. TCL2_GRADES), which grades them toward
    tau = 0 where F_sigma behaves like tau log tau. Each pass sums
    TCL2_NODES-point Gauss-Legendre rules over its panels and
    accumulates them up to each output time. The next pass splits every
    panel but the innermost into two geometric halves (half the width,
    the square root of the grading ratio); passes stop once two in a
    row agree to within tol at every output time, or after max_halvings
    refinements. The last difference is returned as err_est (infinite
    when no refinement ran). At this order in the coupling all
    orderings of the memory term agree; kappa = 1 cancels the drive
    exactly and reproduces the memoryless semigroup.
    """
    rho0 = check_density(rho0)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be non-empty")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")
    if not np.isfinite(kappa):
        raise ValueError("kappa must be finite")

    scale = 1.0 - float(kappa)
    y0 = vec(rho0).astype(complex)
    t_end = float(times[-1])
    err = 0.0
    if generator.lam == 0.0 or scale == 0.0 or t_end == 0.0:
        ys = np.broadcast_to(y0, (times.size, 4))
    else:
        # base width: no wider than the system period, the slowest kernel
        # decay and the fastest discrete-mode oscillation (over 2 pi)
        g = generator.kernel.g
        rate = max(
            generator.model.epsilon,
            1.0 / generator.kernel.tau_r_estimate,
            float(np.max(np.abs(g.imag))),
        )
        h0 = 1.0 / rate
        base = np.unique(
            np.concatenate(
                (
                    [0.0],
                    h0 * 2.0 ** -np.arange(TCL2_GRADES + 1.0),
                    h0 * np.arange(1.0, np.floor(t_end / h0) + 1.0),
                    times,
                )
            )
        )
        base = base[base <= t_end]
        x_gl, w_gl = np.polynomial.legendre.leggauss(TCL2_NODES)

        def integrate(parts):
            edges = _split_panels(base, parts)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            panel = np.empty((mid.size, 4), dtype=complex)
            for lo in range(0, mid.size, TCL2_PANEL_BLOCK):
                sl = slice(lo, lo + TCL2_PANEL_BLOCK)
                tau = (mid[sl, None] + half[sl, None] * x_gl).ravel()
                d = _tcl2_drive(generator, rho0, tau).reshape(-1, TCL2_NODES, 4)
                panel[sl] = half[sl, None] * np.einsum("pnk,n->pk", d, w_gl)
            cum = np.concatenate((np.zeros((1, 4)), np.cumsum(panel, axis=0)))
            return y0 + scale * cum[np.searchsorted(edges, times)]

        ys = integrate(1)
        err = np.inf
        for level in range(1, int(max_halvings) + 1):
            fine = integrate(2**level)
            err = float(np.max(np.linalg.norm(fine - ys, axis=1)))
            ys = fine
            if err < tol:
                break

    states = [
        unvec(generator.liouvillian.expm_action(t, y))
        for t, y in zip(times, ys)
    ]
    return trajectory_from_states(times, states, err_est=err)


def stationary_state(generator: RedfieldGenerator) -> np.ndarray:
    """Null state of the generator, normalized; errors out when the zero
    eigenspace is degenerate."""
    w, v, _, _ = generator.liouvillian.eigensystem()
    scale = max(float(np.max(np.abs(w))), 1e-30)
    null_idx = np.flatnonzero(np.abs(w) < 1e-10 * scale)
    if len(null_idx) > 1:
        raise ValueError("stationary state is not unique (degenerate zero eigenspace)")
    idx = null_idx[0] if len(null_idx) == 1 else int(np.argmin(np.abs(w)))
    rho = unvec(v[:, idx])
    rho = 0.5 * (rho + rho.conj().T)
    tr = complex(np.trace(rho)).real
    if abs(tr) < 1e-12:
        raise ValueError("null vector of the generator is traceless")
    rho = rho / tr
    residual = float(np.linalg.norm(generator.liouvillian.matrix @ vec(rho)))
    if residual > 1e-10:
        raise ValueError(f"stationary-state residual too large: {residual:g}")
    return rho


def relaxation_horizon(generator: RedfieldGenerator) -> float:
    """Time after which any state is exponentially indistinguishable
    from the stationary one: 50 half-lives of the slowest decay."""
    rate = max(generator.gamma_plus.real, generator.gamma_minus.real)
    if rate <= 0.0:
        raise KernelNotIntegrableError(
            "the positivity scan needs a relaxing reservoir; discrete mode sets never relax"
        )
    if not generator.lam**2 * rate > 0.0:
        raise ValueError(
            f"relaxation horizon needs lam^2 Re Gamma > 0, got lam = {generator.lam:g}"
        )
    return 50.0 / (generator.lam**2 * rate)


@dataclass
class NMembership:
    in_n: bool
    witness_time: float | None
    min_eigenvalue_attained: float
    truncated: bool = False


class PositivityScanner:
    """Reusable minimum-eigenvalue scanner for one generator.

    Precomputes the eigendecomposition of the generator, a coarse time
    grid dense enough that no positivity dip can hide between nodes, and
    the stationary state used to cut the scan early. evaluate_many()
    then costs one (n x 4) x (4 x T) product for n initial states, plus
    one batched golden-section refinement of every dip, over all states,
    that approaches zero.
    """

    def __init__(self, generator: RedfieldGenerator, pos_tol=POSITIVITY_TOL):
        self.generator = generator
        self.pos_tol = float(pos_tol)
        w, v, vinv, ok = generator.liouvillian.eigensystem()
        if not ok:
            raise ValueError("generator eigendecomposition is unreliable")
        self._w, self._v, self._vinv = w, v, vinv
        eps = generator.model.epsilon
        self.t_cap = relaxation_horizon(generator)
        self.dt = (2.0 * np.pi / eps) / 24.0
        self.times = np.arange(0.0, self.t_cap + self.dt, self.dt)
        self._phases = np.exp(np.outer(w, self.times))
        # worst sub-grid undershoot of (1 - |r|)/2 between nodes,
        # from |d2 r / dt2| <= (eps^2 + relaxation) |r|
        self.refine_margin = 2.0 * (eps * self.dt) ** 2
        rho_ss = stationary_state(generator)
        b = density_to_bloch(rho_ss)
        self._r_ss = np.array([b.x, b.y, b.z])
        self.rho_ss = rho_ss

    @staticmethod
    def _bloch(s):
        """Bloch components of vectorized states s (..., 4)."""
        return 2.0 * s[..., 1].real, 2.0 * s[..., 1].imag, (s[..., 0] - s[..., 3]).real

    def _min_eig_at(self, t, y0):
        """(1 - |r(t)|)/2 at times t (n,) of the states with generator
        eigen-coordinates y0 (n, 4)."""
        s = (np.exp(np.multiply.outer(t, self._w)) * y0) @ self._v.T
        x, y, z = self._bloch(s)
        return 0.5 * (1.0 - np.sqrt(x * x + y * y + z * z))

    def evaluate_many(self, rhos, refine_iters=32) -> list:
        """NMembership of each initial state in rhos (n, 2, 2)."""
        rhos = np.asarray(rhos, dtype=complex)
        n = rhos.shape[0]
        # vec() stacks columns: (rho00, rho10, rho01, rho11)
        y0 = rhos.transpose(0, 2, 1).reshape(n, 4) @ self._vinv.T
        s = np.moveaxis(self._v @ (self._phases * y0[:, :, None]), 1, 2)
        path = np.stack(self._bloch(s), axis=1)
        dist = np.linalg.norm(path - self._r_ss[None, :, None], axis=1)
        conv = dist < 4e-9
        truncated = ~conv.any(axis=1)
        n_t = len(self.times)
        cut = np.where(truncated, n_t, np.argmax(conv, axis=1) + 1)
        last = cut - 1
        idx = np.arange(n_t)
        mins = np.where(
            idx < cut[:, None], 0.5 * (1.0 - np.linalg.norm(path, axis=1)), np.inf
        )

        cells = np.arange(n)
        coarse = np.argmin(mins, axis=1)
        best_v = mins[cells, coarse]
        best_t = self.times[coarse]
        # refine every local dip that could undershoot below the best
        # coarse value once sub-grid wiggle is accounted for
        thresh = best_v + self.refine_margin
        dip = np.zeros(mins.shape, dtype=bool)
        dip[:, 1:-1] = (mins[:, 1:-1] <= mins[:, :-2]) & (mins[:, 1:-1] <= mins[:, 2:])
        dip &= idx < last[:, None]
        ends = ((idx == 0) | (idx == last[:, None])) & (last[:, None] >= 1)
        cell, i = np.nonzero((dip | ends) & (mins < thresh[:, None]))
        lo = self.times[np.maximum(i - 1, 0)]
        hi = self.times[np.minimum(i + 1, last[cell])]
        y0_c = y0[cell]
        t_ref, v_ref = golden_min(
            lambda t: self._min_eig_at(t, y0_c), lo, hi, iters=refine_iters
        )
        # lowest refined dip per cell; lexsort is stable, so ties keep
        # the earliest dip
        order = np.lexsort((v_ref, cell))
        hit, first = np.unique(cell[order], return_index=True)
        pick = order[first]
        lower = v_ref[pick] < best_v[hit]
        best_v[hit[lower]] = v_ref[pick[lower]]
        best_t[hit[lower]] = t_ref[pick[lower]]

        in_n = best_v < -self.pos_tol
        # without a violation inside the scanned horizon, an unconverged
        # scan is reported as truncated rather than as a certificate
        return [
            NMembership(
                bool(in_n[k]),
                float(best_t[k]) if in_n[k] else None,
                float(best_v[k]),
                truncated=bool(truncated[k] and not in_n[k]),
            )
            for k in range(n)
        ]

    def evaluate(self, rho0, refine_iters=32) -> NMembership:
        """NMembership of one initial state, as a batch of one."""
        return self.evaluate_many(np.asarray(rho0)[None], refine_iters)[0]


def n_membership(generator: RedfieldGenerator, rho0, pos_tol=POSITIVITY_TOL) -> NMembership:
    """Does the memoryless trajectory from rho0 ever lose positivity?

    Scans min-eig of the evolving state over a horizon long enough that
    the state is stationary afterwards, refining every dip that could
    cross zero. in_n is true when the minimum goes below -pos_tol.
    """
    rho0 = check_density(rho0)
    return PositivityScanner(generator, pos_tol=pos_tol).evaluate(rho0)
