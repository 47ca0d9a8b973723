"""Second-order generator and propagation for the two-level system.

The model is H_S = eps S^z coupled through X = S^x to the reservoir.
The memoryless generator is

    d rho / dt = G rho,   G = -i [H_S, .] - Lambda_0,
    Lambda_0 rho = lam^2 ( [X, Theta rho] - [X, rho Theta^dag] ),
    Theta = (1/2) ( S^+ Gamma(-eps) + S^- Gamma(+eps) ),

with Gamma the half-range Fourier transform of the reservoir kernel.
The finite-memory variant replaces Gamma by the partial integrals
F_sigma(t) (Lambda_t, from bath.KernelIntegrals.f_sigma), and
propagate_tcl2 solves the resulting time-local equation with an
optional initial-correlation counterterm parameterized by kappa. In the
interaction picture of G its right-hand side does not depend on the
state, so the solution is a quadrature: composite Gauss-Legendre
panels aligned with the output times and graded geometrically toward
t = 0, integrated twice, the second time on halved panels, whose
difference is the reported error estimate.

PositivityScanner finds the lowest eigenvalue of the memoryless
trajectory over all t >= 0 (the N region). Because the coupling is
through S^x, one period of the x-y rotation and the stationary limit
bound it, so the scan's cost does not depend on lam.

golden_min is the one 1-D search of the package, shared by the N scan
and the U' sup (regions): its objectives return values with their
closed-form slopes, and it refines a batch of brackets by cubic
interpolation of values and slopes, GOLDEN_ITERS steps after the two
end probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial

import numpy as np

from .bath import KernelIntegrals, KernelNotIntegrableError
from .operators import (
    SX,
    SZ,
    BlochVector,
    Superoperator,
    bloch_xyz,
    check_density,
    superoperator,
    unvec,
    vec,
)

POSITIVITY_TOL = 1e-12
# most points of any time grid (the output grids, the linear part of the
# sup search grid, the TCL2 base panels): a huge size fails, not allocates
MAX_POINTS = 100_000
# the pass-to-pass difference of propagate_tcl2 under which it converged
TCL2_TOL = 1e-9
# steps of every slope search (golden_min), after its two end probes
GOLDEN_ITERS = 8
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
# rows per block of csv_table: one block's cells are held as strings at
# once, the rest of the table as joined text. A 31 x 31 scan is one
# block, so its mirrored cells share their strings.
CSV_BLOCK = 1024


def csv_table(header, table, flags=()) -> str:
    """CSV text of a float64 table (rows, columns): each value the shortest
    decimal that round-trips the double (the repr of a Python float),
    NaN an empty field, and the columns in `flags` 1 or 0.

    The table is formatted column by column in blocks of CSV_BLOCK rows:
    each distinct bit pattern of a column's block is formatted once (so
    0.0 and -0.0 stay apart), and each block is joined into one string.
    At 201 x 201 scan cells this takes 5.5 MB at its peak (tracemalloc),
    against 13 MB with the whole table as one block."""
    parts = [header, "\n"]
    for start in range(0, len(table), CSV_BLOCK):
        block = table[start : start + CSV_BLOCK]
        cols = []
        for j in range(block.shape[1]):
            # return_index makes np.unique sort stably, with the code that
            # lowest_per_cell already runs; its default quicksort would
            # page in another 0.19 MB of numpy's code
            keys, _, inverse = np.unique(
                block[:, j].view(np.int64), return_index=True, return_inverse=True
            )
            values = keys.view(np.float64).tolist()
            if j in flags:
                text = ["" if v != v else "1" if v else "0" for v in values]
            else:
                text = ["" if v != v else repr(v) for v in values]
            cols.append(np.array(text, dtype=object)[inverse])
        parts += ("\n".join(map(",".join, zip(*cols))), "\n")
    return "".join(parts)


def first_entry(batch, optional):
    """Entry 0 of a batch result whose fields are arrays, as Python
    scalars; the NaN that marks an absent `optional` value is None."""
    values = {f.name: getattr(batch, f.name)[0].item() for f in fields(batch)}
    if math.isnan(values[optional]):
        values[optional] = None
    return replace(batch, **values)


def _cubic_step(p, fp, dp, q, fq, dq):
    """Stationary point of the cubic with values f and slopes d at p and
    q, the one that is a minimum; NaN or infinite where it has none."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = dp + dq - 3.0 * ((fq - fp) / (q - p))
        d2 = np.sign(q - p) * np.sqrt(d1 * d1 - dp * dq)
        return q - (q - p) * ((dq + d2 - d1) / (dq - dp + 2.0 * d2))


def golden_min(f, lo, hi):
    """Minima of a batch of functions, one per bracket, from their slopes.

    lo and hi are arrays of bracket ends and f maps an array of probe
    points (one per bracket) to the arrays of values and slopes there;
    scalars are a batch of one. Both ends are probed first, then
    GOLDEN_ITERS steps. Where the end slopes change sign (falling at lo,
    rising at hi), a step probes the minimum of the cubic that matches
    the values and slopes of the two latest probes if it lies inside the
    bracket, and else that of the cubic through the bracket ends, which
    always does; elsewhere it probes the golden-section point nearer the
    lower end. The probe replaces lo where its slope is negative and hi
    otherwise. The cubic through the latest probes keeps the steps
    superlinear where one end of the bracket stays far out. Every
    element runs the same steps, selected elementwise, so it follows the
    scalar update rule exactly. Returns the best probed (t, f(t))
    arrays, the earliest probe on ties. The name is the one under which
    bench/tracing.py counts the probes of both searches.
    """
    invphi = 0.6180339887498949
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    (fa, da), (fb, db) = f(a), f(b)
    best_t, best_f = np.where(fb < fa, b, a), np.where(fb < fa, fb, fa)
    # the two latest probes, the older first
    p, fp, dp, q, fq, dq = a, fa, da, b, fb, db
    for _ in range(GOLDEN_ITERS):
        x_ends = _cubic_step(a, fa, da, b, fb, db)
        x_ends = np.where(np.isfinite(x_ends), x_ends, 0.5 * (a + b))
        x_last = _cubic_step(p, fp, dp, q, fq, dq)
        x = np.where((x_last > a) & (x_last < b), x_last, x_ends)
        x_gold = np.where(fa <= fb, b - invphi * (b - a), a + invphi * (b - a))
        x = np.where((da < 0.0) & (db > 0.0), x, x_gold)
        fx, dx = f(x)
        better = fx < best_f
        best_t, best_f = np.where(better, x, best_t), np.where(better, fx, best_f)
        left = dx < 0.0
        a, fa, da = np.where(left, x, a), np.where(left, fx, fa), np.where(left, dx, da)
        b, fb, db = np.where(left, b, x), np.where(left, fb, fx), np.where(left, db, dx)
        p, fp, dp, q, fq, dq = q, fq, dq, x, fx, dx
    return best_t, best_f


def lowest_per_cell(cell, values):
    """The distinct entries of cell, ascending, and for each the index of
    its lowest value; lexsort is stable, so ties keep the earliest."""
    order = np.lexsort((values, cell))
    hit, first = np.unique(cell[order], return_index=True)
    return hit, order[first]


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


def _theta(f_plus, f_minus) -> np.ndarray:
    """Theta = (1/2)(S^+ F_- + S^- F_+) over stacks (..., 2, 2) of the
    arrays f_plus, f_minus. Its two entries are set, not summed, so an
    infinite F stays in its own entry instead of making 0 * inf = NaN in
    the other."""
    f_plus = np.asarray(f_plus)
    theta = np.zeros(f_plus.shape + (2, 2), dtype=complex)
    theta[..., 0, 1] = 0.5 * f_minus
    theta[..., 1, 0] = 0.5 * f_plus
    return theta


def _dissipate(theta, rho) -> np.ndarray:
    """[X, theta rho] - [X, rho theta^dag] over broadcast stacks (..., 2, 2):
    the dissipator Lambda / lam^2 on Theta = Gamma, and the finite-memory
    Lambda_t / lam^2 on Theta_t."""
    a = theta @ rho
    b = rho @ np.conj(np.swapaxes(theta, -1, -2))
    return (SX @ a - a @ SX) - (SX @ b - b @ SX)


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
        self.theta = _theta(self.gamma_plus, self.gamma_minus)
        self.lambda0 = superoperator(partial(_dissipate, self.theta)) * (self.lam * self.lam)
        if not np.all(np.isfinite(self.lambda0)):
            raise ValueError(f"the dissipator lam^2 Gamma is not finite at lam = {self.lam:g}")
        h = model.hamiltonian
        self.liouvillian = Superoperator(
            -1j * superoperator(lambda rho: h @ rho - rho @ h) - self.lambda0
        )

    @cached_property
    def f_sigma(self):
        """Evaluator of the partial half-range integrals F_+(t) and
        F_-(t), on a trailing axis of length 2 (bath.KernelIntegrals)."""
        return KernelIntegrals(self.kernel, self.model.epsilon).f_sigma

    def theta_tail(self, t: float) -> np.ndarray:
        """Theta_t = (1/2)(S^+ F_-(t) + S^- F_+(t)); theta_tail(0) == theta."""
        return _theta(*self.f_sigma(np.array([float(t)]))[0])

    def evolve(self, times, starts) -> np.ndarray:
        """States exp(t G) rho (n, 2, 2) at the n times, from one start
        rho (2, 2) shared by every time or from starts[k] (n, 2, 2) at
        times[k]. Each state has the bits of a call for its time alone
        (Superoperator.expm_action_many)."""
        return unvec(self.liouvillian.expm_action_many(times, vec(starts)).T)


def build_redfield_generator(model: SystemModel, kernel, lam: float) -> RedfieldGenerator:
    return RedfieldGenerator(model, kernel, lam)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n, 2, 2), one state per time
    min_eigenvalues: np.ndarray
    trace_errors: np.ndarray
    # largest change between the two quadrature passes (TCL2 only)
    err_est: float = 0.0

    def blochs(self):
        return [BlochVector(*v) for v in np.column_stack(bloch_xyz(self.states)).tolist()]

    def to_csv(self) -> str:
        cols = (self.times, *bloch_xyz(self.states), self.min_eigenvalues, self.trace_errors)
        return csv_table("t,x,y,z,min_eig,trace_err", np.column_stack(cols))


def trajectory_from_states(times, states, err_est=0.0) -> Trajectory:
    """Trajectory of states (n, 2, 2); trace_err is the abs of a Python
    complex, whose last digit numpy's abs does not always reproduce, where
    it is finite. Elsewhere it is numpy's, inf or NaN, as Python's abs
    can raise OverflowError there."""
    states = np.asarray(states, dtype=complex).reshape(len(states), 2, 2)
    x, y, z = bloch_xyz(states)
    mins = 0.5 * (1.0 - np.sqrt(x * x + y * y + z * z))
    trace = states[:, 0, 0] + states[:, 1, 1] - 1.0
    terr = np.abs(trace)
    fits = np.isfinite(terr)
    terr[fits] = [abs(c) for c in trace[fits].tolist()]
    return Trajectory(np.asarray(times, dtype=float), states, mins, terr, float(err_est))


def propagate_markovian(generator: RedfieldGenerator, rho0, times) -> Trajectory:
    """Evolve under the constant generator via its eigendecomposition."""
    rho0 = check_density(rho0)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("times must be non-negative")
    return trajectory_from_states(times, generator.evolve(times, rho0))


def _tcl2_drive(generator, rho0, tau):
    """e^{i tau L_S} Lambda_tau e^{-i tau L_S} rho0 at times tau (n,),
    as vectorized states (n, 4). e^{-i tau L_S} is the entrywise factor
    P(tau): e^{-i eps tau} at [0, 1], its conjugate at [1, 0], 1 else."""
    p = np.ones((tau.size, 2, 2), dtype=complex)
    p[:, 0, 1] = np.exp(-1j * generator.model.epsilon * tau)
    p[:, 1, 0] = np.conj(p[:, 0, 1])
    theta = _theta(*generator.f_sigma(tau).T)
    return generator.lam * generator.lam * vec(_dissipate(theta, rho0 * p) * np.conj(p))


def _halve_panels(edges):
    """Split every panel [a, b] of edges with a > 0 at its geometric
    midpoint; the first panel [0, edges[1]] stays whole. Every edge of
    the input is kept exactly."""
    a, b = np.log(edges[1:-1]), np.log(edges[2:])
    # in logarithms, so that a subnormal edge cannot overflow b / a
    mid = np.exp(a + (b - a) * 0.5)
    return np.concatenate((edges[:1], np.column_stack((edges[1:-1], mid)).ravel(), edges[-1:]))


def propagate_tcl2(generator: RedfieldGenerator, rho0, times, kappa=0.0) -> Trajectory:
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
    accumulates them up to each output time. Exactly two passes run: on
    the base panels, then with every panel but the innermost split into
    two geometric halves (half the width, the square root of the grading
    ratio). The second pass is returned, and the largest norm of the
    difference of the two at an output time is err_est; it is below
    TCL2_TOL when the quadrature converged.
    At this order in the coupling all orderings of the memory term
    agree; kappa = 1 cancels the drive exactly and reproduces the
    memoryless semigroup.
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
        ys = y0
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
        # h0 is 0 where the rate overflows
        n_base = t_end / h0 if h0 > 0.0 else math.inf
        if not n_base <= MAX_POINTS:
            raise ValueError(f"t_end / h0 = {n_base:.3g} base panels, over {MAX_POINTS}")
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

        def integrate(edges):
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

        coarse = integrate(base)
        ys = integrate(_halve_panels(base))
        err = float(np.max(np.linalg.norm(ys - coarse, axis=1)))

    return trajectory_from_states(times, generator.evolve(times, unvec(ys)), err_est=err)


def stationary_state(generator: RedfieldGenerator) -> np.ndarray:
    """Null state of the generator, normalized: the eigenvector of the
    eigenvalue that eigensystem set to 0. Errors out when the slowest
    decay rate is below 1e-10 of the spectral scale max |w| (the null
    state is not resolved) or no eigenvalue was set to 0."""
    w, v, _, _ = generator.liouvillian.eigensystem()
    scale = max(float(np.max(np.abs(w))), 1e-30)
    if np.count_nonzero(np.abs(w) < 1e-10 * scale) > 1:
        raise ValueError(
            "stationary state is not resolved: the slowest decay rate is below "
            "1e-10 of the spectral scale"
        )
    zero = np.flatnonzero(w == 0.0)
    if len(zero) != 1:
        raise ValueError("the generator has no zero eigenvalue")
    rho = unvec(v[:, zero[0]])
    rho = 0.5 * (rho + rho.conj().T)
    tr = complex(np.trace(rho)).real
    if abs(tr) < 1e-12:
        raise ValueError("null vector of the generator is traceless")
    rho = rho / tr
    residual = float(np.linalg.norm(generator.liouvillian.matrix @ vec(rho)))
    if residual > 1e-10:
        raise ValueError(f"stationary-state residual too large: {residual:g}")
    return rho


@dataclass
class NMembership:
    """Fields are arrays over a batch of states; witness_time is NaN
    outside N."""

    in_n: np.ndarray
    witness_time: np.ndarray
    min_eigenvalue_attained: np.ndarray


class PositivityScanner:
    """Reusable minimum-eigenvalue scanner for one generator.

    The coupling through S^x separates the Bloch z component, which
    relaxes at rate g1, from the x-y pair, which relaxes at g1 / 2 and
    turns at Omega. With u = e^{-g1 t},

        |r(t)|^2 = (z_ss + dz u)^2 + u (P + Qc cos 2 Omega t + Qs sin 2 Omega t),

    which the envelope (z_ss + dz u)^2 + u (P + |Q|), convex in u,
    bounds and touches at every peak of the cosine. After the first
    peak, at t0 < pi / Omega, |r(t)| therefore never exceeds
    max(|r(t0)|, |z_ss|), so the lowest eigenvalue over t >= 0 is the
    lower of its minimum on [0, pi / Omega] and the stationary limit
    (1 - |r_ss|) / 2. The scanner samples that window every
    (2 pi / eps) / 24. Where the damping is strong (2 Omega < g1) it
    samples instead 24 nodes uniform in s = e^{-k t}, k the slowest
    decay rate, down to s = 1/24 and 24 more geometric in s down to
    1e-9. evaluate() then costs one (n x 4) x (4 x T) product for n
    initial states, plus one batched slope search (golden_min, from the
    closed-form slope of |r|) over the sample intervals that a curvature
    bound cannot clear, over all states. As
    |r|^2 = sum_jk (b_j . b_k) c_j c_k, c = e^{w t} y0 the eigen-coordinates
    and b the eigenvectors' Bloch images, on [t_i, t_i+1] it stays below
    its larger end value plus K dt^2 / 8, K = sum_jk |b_j . b_k|
    |w_j + w_k|^2 |c_j(t_i)| |c_k(t_i)|. The search refines exactly the
    intervals where this bound lies below the lowest sample: any interval
    that holds a lower value is one of them, and where K = 0 none is.
    """

    def __init__(self, generator: RedfieldGenerator):
        w, v, vinv, ok = generator.liouvillian.eigensystem()
        if not ok:
            raise ValueError("generator eigendecomposition is unreliable")
        self._w, self._v, self._vinv = w, v, vinv
        rate = max(generator.gamma_plus.real, generator.gamma_minus.real)
        if rate <= 0.0:
            raise KernelNotIntegrableError(
                "the positivity scan needs a relaxing reservoir; discrete mode sets never relax"
            )
        if not generator.lam * generator.lam * rate > 0.0:
            raise ValueError(
                f"the positivity scan needs lam^2 Re Gamma > 0, got lam = {generator.lam:g}"
            )
        self._v_ss = 0.5 * (1.0 - float(np.linalg.norm(bloch_xyz(stationary_state(generator)))))
        # the three decaying modes: the z relaxation and the x-y pair;
        # stationary_state above found exactly one zero eigenvalue
        decay = w[w != 0.0]
        omega = float(np.max(np.abs(decay.imag)))
        k = float(np.min(-decay.real))
        # a large Lamb shift can make a mode grow (lambda = 0.5 at omega_c = 200)
        if not k > 0.0:
            raise ValueError(f"the positivity scan needs every mode to decay, got a slowest rate of {k:g}")
        # while the x-y pair is complex, k = g1 / 2: this is 2 Omega >= g1
        if omega >= k:
            dt = (2.0 * np.pi / generator.model.epsilon) / 24.0
            self.times = np.arange(0.0, np.pi / omega + dt, dt)
        else:
            s = np.concatenate((1.0 - np.arange(24) / 24.0, np.geomspace(1.0 / 24.0, 1e-9, 25)[1:]))
            self.times = np.abs(np.log(s)) / k
        self._phases = np.exp(np.outer(w, self.times))
        bv = np.array([[0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]) @ v
        self._curv = np.abs(bv.T @ bv) * np.abs(w[:, None] + w) ** 2
        self._decay = np.exp(np.outer(self.times[:-1], w.real))

    def _min_eig_at(self, t, y0):
        """(1 - |r(t)|)/2 and its slope -(r . r') / (2 |r|) at times t (n,)
        of the states with generator eigen-coordinates y0 (n, 4); the
        slope is 0 where r = 0."""
        c = np.exp(np.multiply.outer(t, self._w)) * y0
        x, y, z = bloch_xyz(unvec(c @ self._v.T))
        dx, dy, dz = bloch_xyz(unvec((c * self._w) @ self._v.T))
        norm = np.sqrt(x * x + y * y + z * z)
        r_dr = x * dx + y * dy + z * dz
        slope = np.divide(-r_dr, 2.0 * norm, out=np.zeros_like(norm), where=norm > 0.0)
        return 0.5 * (1.0 - norm), slope

    def evaluate(self, rhos) -> NMembership:
        """NMembership of the initial states rhos (n, 2, 2), all at once."""
        rhos = np.asarray(rhos, dtype=complex)
        y0 = vec(rhos) @ self._vinv.T
        s = np.moveaxis(self._v @ (self._phases * y0[:, :, None]), 1, 2)
        mins = 0.5 * (1.0 - np.linalg.norm(np.stack(bloch_xyz(unvec(s)), axis=1), axis=1))

        cells = np.arange(rhos.shape[0])
        coarse = np.argmin(mins, axis=1)
        best_v = mins[cells, coarse]
        best_t = self.times[coarse]
        # refine every sample interval whose bound may beat the lowest sample
        a = np.abs(y0)[:, None, :] * self._decay
        g = (1.0 - 2.0 * np.minimum(mins[:, :-1], mins[:, 1:])) ** 2
        g += np.einsum("nij,jk,nik->ni", a, self._curv, a) * np.diff(self.times) ** 2 / 8.0
        cell, j = np.nonzero(0.5 * (1.0 - np.sqrt(g)) < best_v[:, None])
        lo, hi = self.times[j], self.times[j + 1]
        y0_c = y0[cell]
        t_ref, v_ref = golden_min(lambda t: self._min_eig_at(t, y0_c), lo, hi)
        # lowest refined interval per cell
        hit, pick = lowest_per_cell(cell, v_ref)
        lower = v_ref[pick] < best_v[hit]
        best_v[hit[lower]] = v_ref[pick[lower]]
        best_t[hit[lower]] = t_ref[pick[lower]]

        best_v = np.minimum(best_v, self._v_ss)
        in_n = best_v < -POSITIVITY_TOL
        return NMembership(in_n, np.where(in_n, best_t, np.nan), best_v)
