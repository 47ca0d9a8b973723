"""Second-order generator and propagation for the two-level system.

The model is H_S = eps S^z coupled through X = S^x to the reservoir.
The memoryless generator is

    d rho / dt = G rho,   G = -i [H_S, .] - Lambda_0,
    Lambda_0 rho = lam^2 ( [X, Theta rho] - [X, rho Theta^dag] ),
    Theta = (1/2) ( S^+ Gamma(-eps) + S^- Gamma(+eps) ),

with Gamma the half-range Fourier transform of the reservoir kernel.
The finite-memory variant replaces Gamma by the partial integrals
F_sigma(t) (Lambda_t below), and propagate_tcl2 integrates the
resulting time-local equation with an optional initial-correlation
counterterm parameterized by kappa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _dissipator(theta, lam) -> Superoperator:
    """lam^2 ( [X, theta rho] - [X, rho theta^dag] ) as a superoperator."""
    x = SX
    td = theta.conj().T
    s = (
        vectorize_superoperator(x @ theta, I2)
        - vectorize_superoperator(theta, x)
        - vectorize_superoperator(x, td)
        + vectorize_superoperator(I2, td @ x)
    )
    return (lam * lam) * s


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
            (-1j * commutator_superoperator(model.hamiltonian)).matrix
            - self.lambda0.matrix,
            dim=2,
        )
        # amplitudes of the partial half-range integrals F_sigma(t)
        self._amp_p = kernel.c / (kernel.g - 1j * eps)
        self._amp_m = kernel.c / (kernel.g + 1j * eps)

    def theta_tail(self, t: float) -> np.ndarray:
        """Theta_t = (1/2)(S^+ F_-(t) + S^- F_+(t)); theta_tail(0) == theta."""
        e = np.exp(-float(t) * self.kernel.g)
        eps_phase = np.exp(1j * self.model.epsilon * float(t))
        f_plus = eps_phase * np.dot(self._amp_p, e)
        f_minus = np.conj(eps_phase) * np.dot(self._amp_m, e)
        return 0.5 * (SP * f_minus + SM * f_plus)


def build_redfield_generator(model: SystemModel, kernel, lam: float) -> RedfieldGenerator:
    return RedfieldGenerator(model, kernel, lam)


def _superop_from_map(fn, dim=2) -> Superoperator:
    cols = []
    for j in range(dim * dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j % dim, j // dim] = 1.0
        cols.append(vec(fn(e)))
    return Superoperator(np.stack(cols, axis=1), dim=dim)


def redfield_generator_bruteforce(model: SystemModel, theta, lam: float) -> Superoperator:
    """Generator assembled column by column from dense matrix products.

    Takes theta directly (so tests can feed a quadrature-built one) and
    shares no kron algebra with the main construction.
    """
    h = model.hamiltonian
    x = model.coupling
    td = theta.conj().T

    def gen(rho):
        comm = -1j * (h @ rho - rho @ h)
        diss = x @ (theta @ rho) - (theta @ rho) @ x
        diss -= x @ (rho @ td) - (rho @ td) @ x
        return comm - lam * lam * diss

    return _superop_from_map(gen)


def build_lambda_t(generator: RedfieldGenerator, t: float) -> Superoperator:
    """Finite-memory dissipator Lambda_t; equals lambda0 at t = 0 and
    decays to zero on the kernel memory scale."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return _dissipator(generator.theta_tail(t), generator.lam)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    min_eigenvalues: np.ndarray
    trace_errors: np.ndarray

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


def trajectory_from_states(times, states) -> Trajectory:
    mins = np.empty(len(states))
    terr = np.empty(len(states))
    for i, s in enumerate(states):
        b = density_to_bloch(s)
        mins[i] = 0.5 * (1.0 - b.norm())
        terr[i] = abs(complex(np.trace(s)) - 1.0)
    return Trajectory(np.asarray(times, dtype=float), list(states), mins, terr)


def propagate_markovian(generator: RedfieldGenerator, rho0, times) -> Trajectory:
    """Evolve under the constant generator via its eigendecomposition."""
    rho0 = check_density(rho0)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be non-negative")
    cols = generator.liouvillian.expm_action_many(times, vec(rho0))
    states = [unvec(cols[:, k]) for k in range(cols.shape[1])]
    return trajectory_from_states(times, states)


def propagate_tcl2(generator: RedfieldGenerator, rho0, times, kappa=0.0, tol=1e-9, max_halvings=8) -> Trajectory:
    """Time-local second-order propagation with memory and slippage.

    Works in the interaction picture of the full constant generator,
    where the equation of motion reduces to the bounded decaying drive

        dy/dtau = (1 - kappa) e^{i tau L_S} Lambda_tau e^{-i tau L_S} rho0,

    integrated by fixed-step RK4 with the step halved until the sampled
    trajectory moves by less than tol; the physical state is recovered
    as rho(t) = e^{t G} y(t). At this order in the coupling all
    orderings of the memory term agree; kappa = 1 cancels the drive
    exactly and reproduces the memoryless semigroup.
    """
    rho0 = check_density(rho0)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be non-empty")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")

    eps = generator.model.epsilon
    lam = generator.lam
    scale = 1.0 - float(kappa)

    def drive(tau):
        ph = np.exp(-1j * eps * tau)
        rf = np.array(
            [
                [rho0[0, 0], rho0[0, 1] * ph],
                [rho0[1, 0] * np.conj(ph), rho0[1, 1]],
            ]
        )
        th = generator.theta_tail(tau)
        td = th.conj().T
        m = SX @ (th @ rf) - (th @ rf) @ SX
        m -= SX @ (rf @ td) - (rf @ td) @ SX
        m *= scale * lam * lam
        return np.array(
            [
                [m[0, 0], m[0, 1] * np.conj(ph)],
                [m[1, 0] * ph, m[1, 1]],
            ]
        )

    def integrate(h0):
        ys = []
        y = rho0.astype(complex)
        t_prev = 0.0
        for t_next in times:
            span = t_next - t_prev
            if span > 0.0:
                steps = max(1, int(np.ceil(span / h0)))
                h = span / steps
                tau = t_prev
                for _ in range(steps):
                    k1 = drive(tau)
                    k2 = drive(tau + 0.5 * h)
                    k3 = k2  # the drive does not depend on y
                    k4 = drive(tau + h)
                    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    tau += h
            ys.append(y)
            t_prev = t_next
        return ys

    if lam == 0.0 or scale == 0.0:
        ys = [rho0.astype(complex) for _ in times]
    else:
        h = min(1.0 / eps, generator.kernel.tau_r_estimate) / 40.0
        ys = integrate(h)
        for _ in range(int(max_halvings)):
            h *= 0.5
            ys_fine = integrate(h)
            delta = max(
                float(np.linalg.norm(a - b)) for a, b in zip(ys, ys_fine)
            )
            ys = ys_fine
            if delta < tol:
                break

    states = [
        unvec(generator.liouvillian.expm_action(t, vec(y)))
        for t, y in zip(times, ys)
    ]
    return trajectory_from_states(times, states)


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
    if generator.lam <= 0.0 or rate <= 0.0:
        raise ValueError("relaxation horizon needs lam > 0 and a decaying kernel")
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
