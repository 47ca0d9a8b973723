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
evaluate blocks of SCAN_BLOCK cells as batches: one matrix product for
the sup on the time grid, then one pass of master.golden_min that
refines, from the closed-form slopes of B and A, every peak of the grid
that comes within SUP_RIVAL of a state's grid maximum, and likewise for
the positivity dips. Batch results are arrays over the states, and a
scan is one float table in the column order of its CSV, NaN where a
field is empty.
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
from functools import partial

import numpy as np

from .bath import PAIR_SP, PAIR_SQ, PAIRS, SlippageIntegrals, TermSums, sign_phases
from .corrections import NATURAL_SIGN, S_OPS
from .master import (
    GOLDEN_ITERS,
    MAX_POINTS,
    POSITIVITY_TOL,
    PositivityScanner,
    build_redfield_generator,
    first_entry,
    golden_min,
    lowest_per_cell,
)
from .operators import (
    DEGENERACY_TOL,
    I2,
    SX,
    SY,
    SZ,
    check_density,
)

# below this, A is treated as zero and the ratio is excluded from the sup
A_FLOOR = 1e-14
# the time window of the sup search, in memory scales (default_time_grid)
T_WINDOW = 50.0
# ratio of the geometric nodes at the head of the sup grid
HEAD_RATIO = 1.2
# a local maximum of the sup grid at this fraction of the grid maximum or
# more is refined too: over 4000 random states a peak between grid nodes
# lost up to 2.3 % of its height to sampling at epsilon = 1 and up to
# 26 % at epsilon 0.5 to 3
SUP_RIVAL = 0.5
# max_radial_depth: directions on the unit circle and the bisection
# tolerance on the membership boundary
N_DIRECTIONS = 16
R_TOL = 1e-5
# cells per batch of region_scan and per worker task: a 31 x 31 scan is one
# block, and larger blocks, at about 3 kB a cell, are no faster at 201 x 201
SCAN_BLOCK = 1024


class VariationalTables:
    """I and D over arrays of times, for fast B and A evaluation.

    Both come from the four kernel sums S_{s' s''}(t) behind
    bath.SlippageIntegrals. The amplitudes b_k = c_k / ((g_k - i s'' eps)
    (g_k + i s' eps)) of D are those of the pair (-s', -s'') with the sign
    flipped, so with Sb_{s' s''}(t) = sum_k b_k e^{-g_k t} = -S_{-s',-s''}(t),

        D_{s' s''}(t) = Phi_{s'+s''}(t) K_{s' s''} - e^{i (s'+s'') eps t} 2 Re Sb(0)
                        + e^{i s'' eps t} Sb(t) + e^{i s' eps t} conj Sb(t),

    where K_{s' s''} = Gamma(s'' eps) + conj Gamma(-s' eps) and Phi_s(t) is
    int_0^t e^{i s eps u} du. One bath.TermSums evaluates S(t) and its
    slope dS/dt, amplitude rows w_k and -g_k w_k, from the same
    exponentials, so the slopes of I and D, and of B and A, are closed
    form too.

    The sup search grid of default_time_grid and (I, D) on it are built
    once, grid first: its size check refuses an epsilon whose amplitudes
    would overflow.
    """

    def __init__(self, model, kernel):
        self.grid = default_time_grid(model, kernel)
        self.eps = eps = float(model.epsilon)
        self.integrals = SlippageIntegrals(kernel, eps)
        w = self.integrals.w
        self._sums = TermSums(kernel, np.concatenate((w, -kernel.g * w)))
        gamma = {s: kernel.half_fourier(s * eps) for s in (1, -1)}
        self._k = np.array([gamma[sq] + np.conj(gamma[-sp]) for sp, sq in PAIRS])
        self._two_re_sb0 = 2.0 * np.real(-self.integrals.s0[::-1])
        s_sum = PAIR_SP + PAIR_SQ
        self._phi_is_t = s_sum == 0.0
        self._phi_den = np.where(self._phi_is_t, 1.0, 1j * s_sum * eps)
        self.grid_tables = self.tables(self.grid)

    def tables(self, times):
        """(I, D), each of shape times.shape + (4,)."""
        return self._i_d(np.asarray(times, dtype=float))[:2]

    def _i_d(self, times, row_exact=False):
        """I, D, dI/dt and dD/dt at times (bath.TermSums for row_exact)."""
        both = self._sums(times, row_exact)
        sums, slopes = both[..., :4], both[..., 4:]
        phase = np.exp(1j * self.eps * times)
        esp = sign_phases(phase, PAIR_SP)
        esq = sign_phases(phase, PAIR_SQ)
        i_vals = self.integrals.from_sums(phase, sums)
        e_s = esp * esq
        phi2 = np.where(self._phi_is_t, times[..., None], (e_s - 1.0) / self._phi_den)
        sb = -sums[..., ::-1]
        d_vals = phi2 * self._k - e_s * self._two_re_sb0 + esq * sb + esp * np.conj(sb)
        # d/dt of each factor: e^{i s eps t} gives i s eps, Phi gives e_s
        isp, isq = 1j * self.eps * PAIR_SP, 1j * self.eps * PAIR_SQ
        dsb = -slopes[..., ::-1]
        di = esp * (isp * sums + slopes)
        dd = (
            e_s * (self._k - (isp + isq) * self._two_re_sb0)
            + esq * (isq * sb + dsb)
            + esp * (isp * np.conj(sb) + np.conj(dsb))
        )
        return i_vals, d_vals, di, dd

    def b_a(self, t, m, n):
        """B, A, dB/dt and dA/dt at times t (...) for states with moments
        m, n (..., 4).

        Each time keeps the leading kernel terms that bath.term_groups
        selects for it. A dropped term weighs below e^-40 times its
        amplitude, so the dropped tail of B and of A is bounded by
        e^-40 * sum |amp| over the dropped terms, and that of the slopes
        likewise with the amplitudes g_k w_k.
        """
        # time by time: a state's sup does not depend on its batch
        i_vals, d_vals, di, dd = self._i_d(np.asarray(t, dtype=float), row_exact=True)
        b = 0.5 * np.real(np.sum(i_vals * n, axis=-1))
        a = 0.25 * np.real(np.sum(d_vals * m, axis=-1))
        db = 0.5 * np.real(np.sum(di * n, axis=-1))
        da = 0.25 * np.real(np.sum(dd * m, axis=-1))
        return b, a, db, da


# S^{s'}, S^{s''} and S^{s'} S^{s''} of the PAIRS, each stacked (4, 2, 2)
_S_LEFT = np.array([S_OPS[sp] for sp, _ in PAIRS])
_S_RIGHT = np.array([S_OPS[sq] for _, sq in PAIRS])
_S_BOTH = _S_LEFT @ _S_RIGHT


def state_moments(rho_s, phi0):
    """The four M and N moments of rho_S seen from the direction phi0.

    Takes one state (2, 2) and direction (2,), or stacks (k, 2, 2) and
    (k, 2); returns M and N of shape (..., 4). Each moment is a bra,
    rho_S and a ket made from phi0 by the S operators:

        M = <phi0| S' rho S'' |phi0>,
        N = <phi0| S' S'' rho |phi0> - <phi0| S'' rho S' |phi0>.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    phi0 = np.asarray(phi0, dtype=complex)

    def form(left, right):
        bra = np.einsum("...i,pij->...pj", phi0.conj(), left)
        ket = np.einsum("pij,...j->...pi", right, phi0)
        return np.einsum("...pi,...ij,...pj->...p", bra, rho_s, ket)

    unit = np.broadcast_to(I2, _S_BOTH.shape)
    return form(_S_LEFT, _S_RIGHT), form(_S_BOTH, unit) - form(_S_RIGHT, _S_LEFT)


def default_time_grid(model, kernel, t_window=T_WINDOW):
    """Search grid for the sup: geometric nodes in the ratio HEAD_RATIO
    from t_lo up to t_join, where their spacing reaches the linear step
    pi / (16 eps), linear nodes from there through the oscillatory
    regime, and a logarithmic tail out to t_window memory scales.
    B^2 / (4A) can peak sharply at times well below a linear step, and
    the slope search needs such a peak inside a bracket of two nodes."""
    eps = model.epsilon
    tau = kernel.tau_r_estimate
    scale = max(tau, 1.0 / eps)
    t_lo = 1e-3 * min(1.0 / eps, tau)
    t_mid = 12.0 * scale
    t_max = float(t_window) * scale
    step = np.pi / (16.0 * eps)
    # step is 0 where 16 eps overflows
    n = (t_mid - t_lo) / step if step > 0.0 else np.inf
    if not n <= MAX_POINTS:
        raise ValueError(f"the sup search grid needs {n:.3g} linear nodes, over {MAX_POINTS}")
    # t_lo <= 1e-3 / eps < t_join < t_mid, as t_mid >= 12 / eps
    t_join = step / (HEAD_RATIO - 1.0)
    n_head = int(np.ceil(np.log(t_join / t_lo) / np.log(HEAD_RATIO)))
    head = np.geomspace(t_lo, t_join, n_head + 1)[:-1]
    lin = np.arange(t_join, t_mid, step)
    return np.concatenate((head, lin, np.geomspace(t_mid, t_max, 48)))


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


def _grid_peaks(tables, m, n):
    """The grid maximum of B^2 / (4A) of the states with moments m, n
    (k, 4), its node, and the (node, state) pairs of every local maximum
    of the grid within SUP_RIVAL of it, the grid maximum among them; the
    (grid x states) arrays are freed on return."""
    i_tab, d_tab = tables.grid_tables
    # Re(tab @ v.T) as one real product: no complex (grid x states) array
    b_arr = np.hstack((i_tab.real, -i_tab.imag)) @ np.hstack((n.real, n.imag)).T
    b_arr *= 0.5
    a4_arr = np.hstack((d_tab.real, -d_tab.imag)) @ np.hstack((m.real, m.imag)).T
    live = a4_arr > 4.0 * A_FLOOR
    # B^2 / (4 A) in the memory of B, 0 where A is below the floor
    vals = np.divide(np.square(b_arr, out=b_arr), a4_arr, out=b_arr, where=live)
    vals[~live] = 0.0
    idx = np.argmax(vals, axis=0)
    coarse = vals[idx, np.arange(idx.size)]
    peak = (vals >= SUP_RIVAL * coarse) & (coarse > 0.0)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    return coarse, idx, *np.nonzero(peak)


def _u_prime_many(tables, lam, rhos) -> VariationalResult:
    """VariationalResult of the states rhos (k, 2, 2), all at once.

    sup_t B^2 / (4A) is the maximum on the grid of tables, then one
    batched slope search (golden_min), in s = log t where the geometric
    parts of the grid are uniform, of the bracket around every local
    maximum of the grid within SUP_RIVAL of it: a peak that falls
    between nodes can lose a good part of its height to sampling.
    """
    w, v = np.linalg.eigh(rhos)
    m, n = state_moments(rhos, v[:, :, 0])
    grid = tables.grid
    coarse, idx, node, cell = _grid_peaks(tables, m, n)
    lo = np.log(grid[np.maximum(node - 1, 0)])
    hi = np.log(grid[np.minimum(node + 1, len(grid) - 1)])
    m_c, n_c = m[cell], n[cell]

    def neg_ratio(s):
        """-B^2 / (4 A) at t = e^s and its slope in s,
        -t (q dB/dt - q^2 dA/dt) with q = B / (2 A); both are 0 where A
        is below the floor."""
        t = np.exp(s)
        b, a, db, da = tables.b_a(t, m_c, n_c)
        live = a > A_FLOOR
        out = np.zeros_like(b)
        np.divide(-(b * b), 4.0 * a, out=out, where=live)
        q = np.divide(b, 2.0 * a, out=np.zeros_like(b), where=live)
        return out, -t * (q * db - q * q * da)

    s_ref, neg = golden_min(neg_ratio, lo, hi)
    # the highest refined peak of each state, where it beats the grid
    sup = coarse.copy()
    t_star = np.where(coarse > 0.0, grid[idx], np.nan)
    hit, pick = lowest_per_cell(cell, neg)
    up = -neg[pick] > coarse[hit]
    sup[hit[up]] = -neg[pick[up]]
    t_star[hit[up]] = np.exp(s_ref[pick[up]])
    bound = w[:, 0] - lam * lam * sup
    return VariationalResult(
        p0=w[:, 0],
        sup_value=sup,
        t_star=t_star,
        bound=bound,
        in_u_prime=bound < 0.0,
        degenerate_p0=w[:, 1] - w[:, 0] < DEGENERACY_TOL,
    )


def u_prime_membership(model, kernel, lam, rho_s) -> VariationalResult:
    """Does the correlated construction on rho_S survive the bound?

    in_u_prime is true when p0 - lam^2 sup < 0, i.e. when no value of
    the variational parameter keeps the correlated state positive.
    """
    rho_s = check_density(rho_s)
    tables = VariationalTables(model, kernel)
    return first_entry(_u_prime_many(tables, lam, rho_s[None]), "t_star")


# the columns of a scan table and of its CSV; flags are 1.0 / 0.0
SCAN_HEADER = "x,y,z,p0,bound,in_U_prime,in_N,min_eig,witness_t"
_FLAG_TEXT = {"nan": "", "1.0": "1", "0.0": "0"}


@dataclass
class RegionScanResult:
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


def _scan_block(tables, scanner, lam, xyz):
    """Scan table columns p0 to witness_t (k, 6) at Bloch points xyz (k, 3), as one batch."""
    x, y, z = xyz.T[:, :, None, None]
    rhos = 0.5 * I2 + x * SX + y * SY + z * SZ
    u = _u_prime_many(tables, lam, rhos)
    nm = scanner.evaluate_many(rhos)
    return np.column_stack(
        (u.p0, u.bound, u.in_u_prime, nm.in_n, nm.min_eigenvalue_attained, nm.witness_time)
    )


def region_scan(model, kernel, lam, grid_n=201, z=0.0, jobs=1) -> RegionScanResult:
    """Joint membership scan over the x-y slice of the Bloch disk.

    Rows are emitted in row-major order, y varying slowest, both axes
    ascending over [-1, 1] with grid_n nodes. Points outside the unit
    ball are flagged unphysical (empty fields), not evaluated. Blocks
    of up to SCAN_BLOCK physical cells, in row-major order, are the unit
    of batched evaluation and of the work handed to each of the jobs
    worker processes, so the output is deterministic and independent of
    jobs. N membership samples one period of the memoryless trajectory
    and compares it with the stationary limit (master.PositivityScanner),
    so its cost does not depend on lam.
    """
    grid_n = int(grid_n)
    if grid_n < 3 or grid_n % 2 == 0:
        raise ValueError("grid_n must be an odd integer >= 3")
    if lam <= 0.0:
        raise ValueError("region scans need lam > 0")
    xs = ys = np.linspace(-1.0, 1.0, grid_n)
    x, y = (a.ravel() for a in np.meshgrid(xs, ys))
    z = float(z)
    table = np.column_stack((x, y, np.full(x.size, z), np.full((x.size, 6), np.nan)))
    cells = np.flatnonzero(x * x + y * y + z * z <= 1.0 + 1e-12)
    points = [table[cells[i : i + SCAN_BLOCK], :3] for i in range(0, cells.size, SCAN_BLOCK)]
    tables = VariationalTables(model, kernel)
    scanner = PositivityScanner(build_redfield_generator(model, kernel, lam))
    scan = partial(_scan_block, tables, scanner, float(lam))
    if int(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(int(jobs)) as pool:
            results = pool.map(scan, points)
    else:
        results = [scan(p) for p in points]
    # no blocks where the slice misses the ball (|z| > 1)
    table[cells, 3:] = np.concatenate([np.empty((0, 6)), *results])
    meta = {
        "grid_n": grid_n,
        "z": z,
        "lambda": float(lam),
        "epsilon": float(model.epsilon),
        "kernel": {k: v for k, v in kernel.meta.items()},
        "kernel_terms": int(len(kernel.g)),
        "t_window": T_WINDOW,
        "refine_iters": GOLDEN_ITERS,
        "pos_tol": POSITIVITY_TOL,
        "a_floor": A_FLOOR,
        "natural_sign": NATURAL_SIGN,
        "n_in_u_prime": int(np.sum(table[:, 5] == 1.0)),
        "n_in_n": int(np.sum(table[:, 6] == 1.0)),
        "n_unphysical": int(np.sum(np.isnan(table[:, 3]))),
    }
    return RegionScanResult(table=table, metadata=meta)


def max_radial_depth(model, kernel, lam):
    """Deepest inward reach of the membership region from the unit
    circle of the z = 0 slice, over N_DIRECTIONS equally spaced directions.

    Each direction whose pure state (r = 1) is a member is walked inward
    on the ladder r = 1 - 0.02, r - 0.02, ... to its first non-member,
    and the membership boundary is then bisected to R_TOL between that
    rung and the one above it; the returned depth is max over directions
    of 1 - r_boundary, with the angle of the first deepest direction. A
    direction that is a member down to the axis has depth 1. The ladders
    of all directions are one batch of _u_prime_many, and so is each
    bisection step of all directions still bracketing.
    """
    tables = VariationalTables(model, kernel)
    n_dir = N_DIRECTIONS
    theta = 2.0 * np.pi * np.arange(n_dir) / n_dir
    cth, sth = np.cos(theta), np.sin(theta)

    def member(r, k):
        """in_u_prime of the states at radii r along directions k."""
        x, y = r * cth[k], r * sth[k]
        rhos = 0.5 * I2 + x[:, None, None] * SX + y[:, None, None] * SY
        return _u_prime_many(tables, lam, rhos).in_u_prime

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
    todo = hi - lo > R_TOL
    while todo.any():
        mid = 0.5 * (lo[todo] + hi[todo])
        now_in = member(mid, live[todo])
        hi[todo] = np.where(now_in, mid, hi[todo])
        lo[todo] = np.where(now_in, lo[todo], mid)
        todo = hi - lo > R_TOL
    depth[live] = 1.0 - 0.5 * (lo + hi)
    k = int(np.argmax(depth))
    return float(depth[k]), float(theta[k])
