"""Variational existence bound and region scans on the Bloch disk.

A correlated total state built on the reduced state rho_S stays
positive, to second order, whenever

    p0 - lam^2 sup_t B(t)^2 / (4 A(t)) >= 0,

where p0 is the smallest eigenvalue of rho_S with eigenvector phi0 and

    B(t) = (1/2) Re sum_{s' s''} I_{s' s''}(t) N_{s' s''},
    A(t) = (1/4) Re sum_{s' s''} M_{s' s''} D_{s' s''}(t),

    M_{s' s''} = <phi0| S^{s'} rho_S S^{s''} |phi0>,
    N_{s' s''} = <phi0| [S^{s'}, S^{s''} rho_S] |phi0>.

I and D are closed-form double integrals of the reservoir kernel. Both
are assembled from the four kernel sums of bath.SlippageIntegrals (the
I of the slippage correction), evaluated over arrays of times by
bath.TermSums with the terms negligible at each time left out. Scans
evaluate one grid row of states as a batch: one matrix product for the
sup on the time grid, then one golden-section pass that refines every
state's sup, and likewise for the positivity dips. Batch results are
arrays over the states, and a scan is one float table in the column
order of its CSV, NaN where a field is empty.
A negative value of the expression above puts rho_S in U': no member
of the variational family of correlated total states built on rho_S is
positive, so rho_S has no naturally correlated partner of that family.
The scans pair U' with N, the states whose memoryless trajectory loses
positivity. In the slippage picture (Suarez, Silbey & Oppenheim,
J. Chem. Phys. 97, 5101 (1992)) a state of N has no natural partner,
so N should lie inside U'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import PAIR_SP, PAIR_SQ, PAIRS, SlippageIntegrals, sign_phases
from .corrections import NATURAL_SIGN
from .master import (
    MAX_POINTS,
    PositivityScanner,
    build_redfield_generator,
    first_entry,
    golden_min,
)
from .operators import (
    DEGENERACY_TOL,
    I2,
    SM,
    SP,
    SX,
    SY,
    SZ,
    check_density,
)

_SOP = {1: SP, -1: SM}

# below this, A is treated as zero and the ratio is excluded from the sup
A_FLOOR = 1e-14


class VariationalTables:
    """I and D over arrays of times, for fast B and A evaluation.

    Both come from the four kernel sums S_{s' s''}(t) behind
    bath.SlippageIntegrals. The amplitudes b_k = c_k / ((g_k - i s'' eps)
    (g_k + i s' eps)) of D are those of the pair (-s', -s'') with the sign
    flipped, so with Sb_{s' s''}(t) = sum_k b_k e^{-g_k t} = -S_{-s',-s''}(t),

        D_{s' s''}(t) = Phi_{s'+s''}(t) K_{s' s''} - e^{i (s'+s'') eps t} 2 Re Sb(0)
                        + e^{i s'' eps t} Sb(t) + e^{i s' eps t} conj Sb(t),

    where K_{s' s''} = Gamma(s'' eps) + conj Gamma(-s' eps) and Phi_s(t) is
    int_0^t e^{i s eps u} du.

    The sup search grid of default_time_grid and (I, D) on it are built
    once, grid first: its size check refuses an epsilon whose amplitudes
    would overflow.
    """

    def __init__(self, model, kernel, t_window=50.0):
        self.grid = default_time_grid(model, kernel, t_window)
        self.eps = eps = float(model.epsilon)
        self.integrals = SlippageIntegrals(kernel, eps)
        gamma = {s: kernel.half_fourier(s * eps) for s in (1, -1)}
        self._k = np.array([gamma[sq] + np.conj(gamma[-sp]) for sp, sq in PAIRS])
        self._two_re_sb0 = 2.0 * np.real(-self.integrals.s0[::-1])
        s_sum = PAIR_SP + PAIR_SQ
        self._phi_is_t = s_sum == 0.0
        self._phi_den = np.where(self._phi_is_t, 1.0, 1j * s_sum * eps)
        self.grid_tables = self.tables(self.grid)

    def tables(self, times):
        """(I, D), each of shape times.shape + (4,)."""
        return self._i_d(np.asarray(times, dtype=float))

    def _i_d(self, times):
        sums = self.integrals.sums(times)
        phase = np.exp(1j * self.eps * times)
        esp = sign_phases(phase, PAIR_SP)
        esq = sign_phases(phase, PAIR_SQ)
        i_vals = self.integrals.from_sums(phase, sums)
        e_s = esp * esq
        phi2 = np.where(self._phi_is_t, times[..., None], (e_s - 1.0) / self._phi_den)
        sb = -sums[..., ::-1]
        d_vals = phi2 * self._k - e_s * self._two_re_sb0 + esq * sb + esp * np.conj(sb)
        return i_vals, d_vals

    def b_a(self, t, m, n):
        """B and A at times t (...) for states with moments m, n (..., 4).

        Each time keeps the leading kernel terms that bath.term_groups
        selects for it. A dropped term weighs below e^-40 times its
        amplitude, so the dropped tail of B and of A is bounded by
        e^-40 * sum |amp| over the dropped terms.
        """
        i_vals, d_vals = self._i_d(np.asarray(t, dtype=float))
        b = 0.5 * np.real(np.sum(i_vals * n, axis=-1))
        a = 0.25 * np.real(np.sum(d_vals * m, axis=-1))
        return b, a


def state_moments(rho_s, phi0):
    """The four M and N moments of rho_S seen from the direction phi0.

    Takes one state (2, 2) and direction (2,), or stacks (k, 2, 2) and
    (k, 2); returns M and N of shape (..., 4).
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    phi0 = np.asarray(phi0, dtype=complex)
    bra = phi0.conj()
    m_vec = np.empty(phi0.shape[:-1] + (4,), dtype=complex)
    n_vec = np.empty(phi0.shape[:-1] + (4,), dtype=complex)
    for k, (sp, sq) in enumerate(PAIRS):
        a_op = _SOP[sp]
        b_op = _SOP[sq]
        b_rho = b_op @ rho_s
        m_vec[..., k] = np.einsum("...i,...ij,...j->...", bra, a_op @ rho_s @ b_op, phi0)
        n_vec[..., k] = np.einsum("...i,...ij,...j->...", bra, a_op @ b_rho - b_rho @ a_op, phi0)
    return m_vec, n_vec


def default_time_grid(model, kernel, t_window=50.0, density=1.0):
    """Search grid for the sup: dense linear sampling through the
    oscillatory regime, logarithmic tail out to t_window memory scales."""
    eps = model.epsilon
    tau = kernel.tau_r_estimate
    scale = max(tau, 1.0 / eps)
    t_lo = 1e-3 * min(1.0 / eps, tau)
    t_mid = 12.0 * scale
    t_max = float(t_window) * scale
    step = np.pi / (8.0 * eps * density)
    # step is 0 where 8 eps overflows
    n = (t_mid - t_lo) / step if step > 0.0 else np.inf
    if not n <= MAX_POINTS:
        raise ValueError(f"the sup search grid needs {n:.3g} linear nodes, over {MAX_POINTS}")
    lin = np.arange(t_lo, t_mid, step)
    if t_max > t_mid:
        tail = np.geomspace(t_mid, t_max, max(int(48 * density), 2))
        return np.concatenate((lin, tail))
    return lin


@dataclass
class VariationalResult:
    """Fields are arrays over a batch of states, or Python scalars for
    one state; t_star is NaN (None for one state) where the sup is zero."""

    p0: np.ndarray
    sup_value: np.ndarray
    t_star: np.ndarray
    bound: np.ndarray
    in_u_prime: np.ndarray
    degenerate_p0: np.ndarray


def _u_prime_many(tables, lam, rhos, refine_iters) -> VariationalResult:
    """VariationalResult of the states rhos (k, 2, 2), all at once.

    sup_t B^2 / (4A) is the argmax on the grid of tables, then one
    batched golden-section refinement of every state's bracket around it.
    """
    w, v = np.linalg.eigh(rhos)
    m, n = state_moments(rhos, v[:, :, 0])
    grid = tables.grid
    i_tab, d_tab = tables.grid_tables
    b_arr = 0.5 * np.real(i_tab @ n.T)
    a_arr = 0.25 * np.real(d_tab @ m.T)
    vals = np.zeros_like(b_arr)
    np.divide(b_arr * b_arr, 4.0 * a_arr, out=vals, where=a_arr > A_FLOOR)
    idx = np.argmax(vals, axis=0)
    coarse = vals[idx, np.arange(idx.size)]
    sup = np.zeros(idx.size)
    t_star = np.full(idx.size, np.nan)
    go = coarse > 0.0
    idx, coarse, m_go, n_go = idx[go], coarse[go], m[go], n[go]
    lo = grid[np.maximum(idx - 1, 0)]
    hi = grid[np.minimum(idx + 1, len(grid) - 1)]

    def neg_ratio(t):
        b, a = tables.b_a(t, m_go, n_go)
        out = np.zeros_like(b)
        np.divide(-(b * b), 4.0 * a, out=out, where=a > A_FLOOR)
        return out

    t_ref, neg = golden_min(neg_ratio, lo, hi, iters=refine_iters)
    # refinement that fails to beat the grid keeps the grid value
    kept = -neg < coarse
    sup[go] = np.where(kept, coarse, -neg)
    t_star[go] = np.where(kept, grid[idx], t_ref)
    bound = w[:, 0] - lam * lam * sup
    return VariationalResult(
        p0=w[:, 0],
        sup_value=sup,
        t_star=t_star,
        bound=bound,
        in_u_prime=bound < 0.0,
        degenerate_p0=w[:, 1] - w[:, 0] < DEGENERACY_TOL,
    )


def u_prime_membership(
    model,
    kernel,
    lam,
    rho_s,
    t_window=50.0,
    refine_iters=48,
) -> VariationalResult:
    """Does the correlated construction on rho_S survive the bound?

    in_u_prime is true when p0 - lam^2 sup < 0, i.e. when no value of
    the variational parameter keeps the correlated state positive.
    """
    rho_s = check_density(rho_s)
    tables = VariationalTables(model, kernel, t_window)
    return first_entry(_u_prime_many(tables, lam, rho_s[None], refine_iters), "t_star")


# the columns of a scan table and of its CSV; flags are 1.0 / 0.0
SCAN_HEADER = "x,y,z,p0,bound,in_U_prime,in_N,min_eig,witness_t"
_FLAG_TEXT = {"nan": "", "1.0": "1", "0.0": "0"}


@dataclass
class RegionScanResult:
    xs: np.ndarray
    ys: np.ndarray
    z: float
    table: np.ndarray  # (grid_n^2, 9), columns of SCAN_HEADER, NaN where empty
    metadata: dict

    def to_csv(self) -> str:
        """Row by row: the strings of all cells at once would double the memory."""
        lines = [SCAN_HEADER]
        for row in self.table:
            fields = list(map(repr, row.tolist()))
            fields[5], fields[6] = _FLAG_TEXT[fields[5]], _FLAG_TEXT[fields[6]]
            # repr gives "nan" only for NaN, which is an empty field
            lines.append(",".join(fields).replace("nan", ""))
        return "\n".join(lines) + "\n"


class _RowScan:
    """Scan of one grid row, y fixed; every physical cell of the row is
    evaluated as one batch. Built once per scan and shared by the rows."""

    def __init__(self, model, kernel, lam, xs, z, t_window, refine_iters, pos_tol):
        self.tables = VariationalTables(model, kernel, t_window)
        generator = build_redfield_generator(model, kernel, lam)
        self.scanner = PositivityScanner(generator, pos_tol=pos_tol)
        self.lam = float(lam)
        self.xs = xs
        self.z = float(z)
        self.refine_iters = int(refine_iters)

    def __call__(self, y):
        """The row's (len(xs), 6) block of the scan table columns p0 to
        witness_t, in x order."""
        y, z, xs = float(y), self.z, self.xs
        physical = xs * xs + y * y + z * z <= 1.0 + 1e-12
        rhos = 0.5 * I2 + xs[physical][:, None, None] * SX + y * SY + z * SZ
        u = _u_prime_many(self.tables, self.lam, rhos, self.refine_iters)
        nm = self.scanner.evaluate_many(rhos)
        block = np.full((xs.size, 6), np.nan)
        block[physical] = np.column_stack(
            (u.p0, u.bound, u.in_u_prime, nm.in_n, nm.min_eigenvalue_attained, nm.witness_time)
        )
        return block


def region_scan(
    model,
    kernel,
    lam,
    grid_n=201,
    z=0.0,
    t_window=50.0,
    refine_iters=32,
    pos_tol=1e-12,
    jobs=1,
) -> RegionScanResult:
    """Joint membership scan over the x-y slice of the Bloch disk.

    Rows are emitted in row-major order, y varying slowest, both axes
    ascending over [-1, 1] with grid_n nodes. Points outside the unit
    ball are flagged unphysical (empty fields), not evaluated. A grid
    row is the unit of batched evaluation and of the work handed to
    each of the jobs worker processes, so the output is deterministic
    and independent of jobs. N membership samples one period of the
    memoryless trajectory and compares it with the stationary limit
    (master.PositivityScanner), so its cost does not depend on lam.
    """
    grid_n = int(grid_n)
    if grid_n < 3 or grid_n % 2 == 0:
        raise ValueError("grid_n must be an odd integer >= 3")
    if lam <= 0.0:
        raise ValueError("region scans need lam > 0")
    xs = np.linspace(-1.0, 1.0, grid_n)
    ys = np.linspace(-1.0, 1.0, grid_n)
    scan = _RowScan(model, kernel, lam, xs, z, t_window, refine_iters, pos_tol)
    if int(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(int(jobs)) as pool:
            results = pool.map(scan, ys)
    else:
        results = [scan(y) for y in ys]
    x, y = np.meshgrid(xs, ys)
    table = np.column_stack(
        (x.ravel(), y.ravel(), np.full(x.size, float(z)), np.concatenate(results))
    )
    meta = {
        "grid_n": grid_n,
        "z": float(z),
        "lambda": float(lam),
        "epsilon": float(model.epsilon),
        "kernel": {k: v for k, v in kernel.meta.items()},
        "kernel_terms": int(len(kernel.g)),
        "t_window": float(t_window),
        "refine_iters": int(refine_iters),
        "pos_tol": float(pos_tol),
        "a_floor": A_FLOOR,
        "natural_sign": NATURAL_SIGN,
        "n_in_u_prime": int(np.sum(table[:, 5] == 1.0)),
        "n_in_n": int(np.sum(table[:, 6] == 1.0)),
        "n_unphysical": int(np.sum(np.isnan(table[:, 3]))),
    }
    return RegionScanResult(xs=xs, ys=ys, z=float(z), table=table, metadata=meta)


def max_radial_depth(
    model,
    kernel,
    lam,
    n_directions=64,
    r_tol=1e-5,
    t_window=50.0,
    refine_iters=48,
    z=0.0,
):
    """Deepest inward reach of the membership region from the unit circle.

    Each direction whose pure state (r = 1) is a member is walked inward
    on the ladder r = 1 - 0.02, r - 0.02, ... to its first non-member,
    and the membership boundary is then bisected to r_tol between that
    rung and the one above it; the returned depth is max over directions
    of 1 - r_boundary, with the angle of the first deepest direction. A
    direction that is a member down to the axis has depth 1. The ladders
    of all directions are one batch of _u_prime_many, and so is each
    bisection step of all directions still bracketing.
    """
    tables = VariationalTables(model, kernel, t_window)
    n_dir = int(n_directions)
    theta = 2.0 * np.pi * np.arange(n_dir) / n_dir
    cth, sth = np.cos(theta), np.sin(theta)

    def member(r, k):
        """in_u_prime of the states at radii r along directions k."""
        x, y = r * cth[k], r * sth[k]
        rhos = 0.5 * I2 + x[:, None, None] * SX + y[:, None, None] * SY + z * SZ
        return _u_prime_many(tables, lam, rhos, refine_iters).in_u_prime

    step = 0.02
    ladder = [1.0]
    r = 1.0 - step
    while r > 0.0:
        ladder.append(r)
        r -= step
    ladder = np.array(ladder)
    inside = member(np.tile(ladder, n_dir), np.repeat(np.arange(n_dir), ladder.size))
    inside = inside.reshape(n_dir, ladder.size)
    # the first non-member rung of each direction (ladder.size if none)
    first_out = np.where(inside.all(axis=1), ladder.size, np.argmin(inside, axis=1))
    depth = np.zeros(n_dir)
    depth[inside[:, 0] & (first_out == ladder.size)] = 1.0
    live = np.flatnonzero(inside[:, 0] & (first_out < ladder.size))
    lo = ladder[first_out[live]]
    hi = ladder[first_out[live] - 1]
    todo = hi - lo > r_tol
    while todo.any():
        mid = 0.5 * (lo[todo] + hi[todo])
        now_in = member(mid, live[todo])
        hi[todo] = np.where(now_in, mid, hi[todo])
        lo[todo] = np.where(now_in, lo[todo], mid)
        todo = hi - lo > r_tol
    depth[live] = 1.0 - 0.5 * (lo + hi)
    k = int(np.argmax(depth))
    return float(depth[k]), float(theta[k])
