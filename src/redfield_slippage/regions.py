"""Variational existence bound and region scans on the Bloch disk.

A correlated total state built on the reduced state rho_S stays
positive, to second order, whenever

    p0 - lam^2 sup_t B(t)^2 / (4 A(t)) >= 0,

where p0 is the smallest eigenvalue of rho_S with eigenvector phi0 and

    B(t) = (1/2) Re sum_{s' s''} I_{s' s''}(t) N_{s' s''},
    A(t) = (1/4) Re sum_{s' s''} M_{s' s''} D_{s' s''}(t),

    M_{s' s''} = <phi0| S^{s'} rho_S S^{s''} |phi0>,
    N_{s' s''} = <phi0| [S^{s'}, S^{s''} rho_S] |phi0>.

I and D are closed-form double integrals of the reservoir kernel, I
the slippage integrals of the corrections module. Both come with their
slopes from bath.KernelIntegrals.i_d over arrays of times, with the
kernel terms negligible at each time left out. Scans
evaluate blocks of SCAN_BLOCK cells as batches: one matrix product for
the sup on the time grid, then one pass of master.golden_min that
refines, from the closed-form slopes of B and A, every peak of the grid
that comes within SUP_RIVAL of a state's grid maximum, then one
master.PositivityScanner.evaluate for N. Batch results are arrays over
the states, and a scan is one float table in the column order of its
CSV, NaN where a field is empty.
Scans evaluate half of the disk. The system is eps S^z with coupling
S^x, and the rotation by pi about z maps S^x to -S^x and leaves eps S^z
alone; the coupling enters B, A and the generator at second order, so
U' and N are invariant under (x, y, z) -> (-x, -y, z) at every z, lam
and bath. Each scan axis is (i - c) / c with c = (grid_n - 1) // 2,
symmetric bit for bit, and a cell past the centre takes the fields of
its mirror.
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

from .bath import KernelIntegrals
from .corrections import NATURAL_SIGN, S_LEFT, S_RIGHT
from .master import (
    GOLDEN_ITERS,
    MAX_POINTS,
    POSITIVITY_TOL,
    PositivityScanner,
    build_redfield_generator,
    csv_table,
    first_entry,
    golden_min,
    lowest_per_cell,
)
from .operators import DEGENERACY_TOL, I2, bloch_to_density, check_density

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
# tolerance on the U' boundary
N_DIRECTIONS = 16
R_TOL = 1e-5
# cells per batch of region_scan and per worker task: a 31 x 31 scan is one
# block, and larger blocks, at about 3 kB a cell, are no faster at 201 x 201
SCAN_BLOCK = 1024


class VariationalTables:
    """I and D over arrays of times, for fast B and A evaluation, from
    bath.KernelIntegrals.i_d, with their slopes in closed form.

    The sup search grid of default_time_grid and (I, D) on it are built
    once, grid first: its size check refuses an epsilon whose amplitudes
    would overflow.
    """

    def __init__(self, model, kernel):
        self.grid = default_time_grid(model, kernel)
        self.integrals = KernelIntegrals(kernel, model.epsilon)
        self.grid_tables = self.tables(self.grid)

    def tables(self, times):
        """(I, D), each of shape times.shape + (4,)."""
        return self.integrals.i_d(times)[:2]

    def b_a(self, t, m, n):
        """B, A, dB/dt and dA/dt at times t (...) for states with moments
        m, n (..., 4).

        Each time keeps the leading kernel terms that bath.term_groups
        selects for it. A dropped term weighs below e^-40 times its
        amplitude, so the dropped tail of B and of A is bounded by
        e^-40 * sum |amp| over the dropped terms, and that of the slopes
        likewise with the amplitudes g_k w_k.
        """
        i_vals, d_vals, di, dd = self.integrals.i_d(t)
        b = 0.5 * np.real(np.sum(i_vals * n, axis=-1))
        a = 0.25 * np.real(np.sum(d_vals * m, axis=-1))
        db = 0.5 * np.real(np.sum(di * n, axis=-1))
        da = 0.25 * np.real(np.sum(dd * m, axis=-1))
        return b, a, db, da


# S^{s'} S^{s''} of the PAIRS, stacked (4, 2, 2)
_S_BOTH = S_LEFT @ S_RIGHT


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
    return form(S_LEFT, S_RIGHT), form(_S_BOTH, unit) - form(S_RIGHT, S_LEFT)


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
    # a subnormal t_lo (a memory time near the smallest double) overflows
    # the ratio t_join / t_lo
    n_head = np.ceil(np.log(t_join / t_lo) / np.log(HEAD_RATIO))
    if not n_head <= MAX_POINTS:
        raise ValueError(f"the sup search grid needs {n_head:.3g} geometric nodes, over {MAX_POINTS}")
    n_head = int(n_head)
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


def _sup(tables, m, n):
    """sup_t B^2 / (4A) of the states with moments m, n (k, 4) and its
    time (NaN where the sup is 0): the maximum on the grid of tables,
    then one batched slope search (golden_min), in s = log t where the
    geometric parts of the grid are uniform, of the bracket around every
    local maximum of the grid within SUP_RIVAL of it, as a peak between
    nodes can lose a good part of its height to sampling."""
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
    return sup, t_star


def _u_prime_many(tables, lam, rhos) -> VariationalResult:
    """VariationalResult of the states rhos (k, 2, 2), all at once.

    A degenerate p0 (rho_S = I / 2) takes the larger sup of |up> and
    |down>, the second in extra rows at the end of the batch: there M
    and N depend on phi0 only through n_z = <phi0| sigma_z |phi0>
    (S^+- S^+- = 0, S^+ S^- = |up><up|, [S^+, S^-] = sigma_z), B is
    linear in n_z and A affine, so B^2 / (4A) is convex in n_z where
    A > 0.
    """
    w, v = np.linalg.eigh(rhos)
    degenerate = w[:, 1] - w[:, 0] < DEGENERACY_TOL
    k, cells = len(rhos), np.flatnonzero(degenerate)
    phi0 = np.where(degenerate[:, None], I2[0], v[:, :, 0])
    kets = np.concatenate((phi0, np.broadcast_to(I2[1], (cells.size, 2))))
    sup, t_star = _sup(tables, *state_moments(np.concatenate((rhos, rhos[cells])), kets))
    beats = np.flatnonzero(sup[k:] > sup[cells])
    sup[cells[beats]], t_star[cells[beats]] = sup[k + beats], t_star[k + beats]
    sup, t_star = sup[:k], t_star[:k]
    bound = w[:, 0] - lam * lam * sup
    return VariationalResult(
        p0=w[:, 0],
        sup_value=sup,
        t_star=t_star,
        bound=bound,
        in_u_prime=bound < 0.0,
        degenerate_p0=degenerate,
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


@dataclass
class RegionScanResult:
    table: np.ndarray  # (grid_n^2, 9), columns of SCAN_HEADER, NaN where empty
    metadata: dict

    def to_csv(self) -> str:
        """The table through master.csv_table, in_U_prime and in_N as 1 / 0.
        Within a block of rows the grid nodes, the cells of unphysical
        points and the mirrored cells of the centre block repeat bit
        patterns, and each pattern is formatted once."""
        return csv_table(SCAN_HEADER, self.table, flags=(5, 6))


def _scan_block(tables, scanner, lam, xyz):
    """Scan table columns p0 to witness_t (k, 6) at Bloch points xyz (k, 3), as one batch."""
    rhos = bloch_to_density(xyz)
    u = _u_prime_many(tables, lam, rhos)
    nm = scanner.evaluate(rhos)
    return np.column_stack(
        (u.p0, u.bound, u.in_u_prime, nm.in_n, nm.min_eigenvalue_attained, nm.witness_time)
    )


def _scan_axis(grid_n):
    """The grid_n nodes (i - c) / c of a scan axis, c = (grid_n - 1) // 2:
    exact integers over c, so node grid_n - 1 - i is -node i bit for bit,
    which np.linspace(-1, 1, grid_n) is not."""
    c = (grid_n - 1) // 2
    return (np.arange(grid_n) - c) / c


def region_scan(model, kernel, lam, grid_n=201, z=0.0, jobs=1) -> RegionScanResult:
    """Joint membership scan over the x-y slice of the Bloch disk.

    Rows are emitted in row-major order, y varying slowest, both axes
    ascending over [-1, 1] with the grid_n nodes (i - c) / c of
    _scan_axis, c = (grid_n - 1) // 2. Points outside the unit ball are
    flagged unphysical (empty fields), not evaluated.

    Only the cells of flat index k <= grid_n^2 // 2 are evaluated: the
    rows with y < 0, the left half of the y = 0 row and the centre.
    Every other cell is the mirror (-x, -y) of cell grid_n^2 - 1 - k
    and takes its fields bit for bit. The rotation by pi about z maps
    S^x to -S^x and leaves eps S^z alone; the coupling S^x enters B, A,
    the generator and so the U' sup and the N scan only at second
    order, so all of them are invariant under (x, y, z) -> (-x, -y, z)
    at every z, lam and bath. The axes are symmetric bit for bit, so
    the mirror of a physical cell is physical.

    Blocks of up to SCAN_BLOCK evaluated cells, in row-major order, are
    the unit of batched evaluation and of the work handed to each of
    the jobs worker processes, so the output is deterministic and
    independent of jobs. N membership samples one period of the
    memoryless trajectory and compares it with the stationary limit
    (master.PositivityScanner), so its cost does not depend on lam.
    """
    grid_n = int(grid_n)
    if grid_n < 3 or grid_n % 2 == 0:
        raise ValueError("grid_n must be an odd integer >= 3")
    if lam <= 0.0:
        raise ValueError("region scans need lam > 0")
    xs = ys = _scan_axis(grid_n)
    x, y = (a.ravel() for a in np.meshgrid(xs, ys))
    z = float(z)
    table = np.column_stack((x, y, np.full(x.size, z), np.full((x.size, 6), np.nan)))
    physical = x * x + y * y + z * z <= 1.0 + 1e-12
    # the evaluated half: cells up to the centre, grid_n^2 // 2, included
    cells = np.flatnonzero(physical[: x.size // 2 + 1])
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
    table[x.size - 1 - cells, 3:] = table[cells, 3:]
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
    """Deepest inward reach of U' from the unit circle of the z = 0
    slice, over N_DIRECTIONS equally spaced directions.

    rho_S is in U' when lam^2 > lam_c^2 = p0 / S, where
    S = sup_t B^2 / (4 A) does not depend on lam. Along every direction
    p0 / S does not fall as r falls
    (test_u_prime_threshold_is_monotone_along_each_ray), so U' meets the
    ray in (r_b, 1], and one bisection in r finds r_b: the pure state at
    r = 1 is a member (else the depth is 0) and the axis r = 0 brackets
    it from inside. The N_DIRECTIONS / 2 directions theta in [0, pi)
    are bisected as one batch of _u_prime_many per step, to R_TOL; the
    ray of theta + pi is minus the ray of theta, the mirror (-x, -y) of
    region_scan, so it has the same depth. r = 0 itself is never
    probed: S there jumps from about 4e-33 (phi0 on the equator,
    n_z = 0) to its n_z = +-1 value (degenerate_p0; 0.0935 at the
    defaults). The depth is 1 - r_b, or 1 where no probe was outside
    U', and the angle is that of the first deepest direction, which
    lies in [0, pi).
    """
    tables = VariationalTables(model, kernel)
    half = N_DIRECTIONS // 2
    theta = 2.0 * np.pi * np.arange(half) / N_DIRECTIONS
    rays = np.column_stack((np.cos(theta), np.sin(theta), np.zeros(half)))

    def member(r):
        """in_u_prime of the state at radius r[k] on each direction k."""
        return _u_prime_many(tables, lam, bloch_to_density(r[:, None] * rays)).in_u_prime

    lo, hi = np.zeros(half), np.ones(half)
    pure_in = member(hi)
    while np.max(hi - lo) > R_TOL:
        mid = 0.5 * (lo + hi)
        now_in = member(mid)
        hi = np.where(now_in, mid, hi)
        lo = np.where(now_in, lo, mid)
    depth = np.where(lo > 0.0, 1.0 - 0.5 * (lo + hi), 1.0)
    depth[~pure_in] = 0.0
    k = int(np.argmax(depth))
    return float(depth[k]), float(theta[k])
