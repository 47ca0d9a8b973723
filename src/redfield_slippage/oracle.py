"""Exact reference dynamics on a truncated few-mode reservoir.

Everything downstream of the perturbative formulas is cross-checked
here against brute-force linear algebra: the two-level system plus a
handful of truncated oscillator modes is diagonalized exactly, the
correlated initial states are materialized as matrices, and the
first-order correction integrals are evaluated term by term in the
energy eigenbasis. No kernel closed forms are reused on this side. The
correlated part is linear in the sign convention, so one evaluation of
the corrections tests the cancellation identity for both signs.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .bath import (
    DiscreteModes,
    ExponentialSum,
    KernelNotIntegrableError,
    LorentzDrudeBath,
    discretize_spectral_density,
    mode_kernel,
    recurrence_estimate,
)
from .corrections import NATURAL_SIGN, NaturalFamily, Product, delta_rho1
from .master import SystemModel, build_redfield_generator, propagate_markovian, trajectory_from_states
from .operators import SM, SP, SX, trace_distance

DIM_CAP = 4096
TRUNCATION_TOL = 1e-8
# largest cancellation residual that pin_natural_sign accepts for a sign
CANCELLATION_TOL = 1e-8
# output times per block in evolve_exact and delta_rho2_direct: bounds
# their phase arrays whatever the number of times
TIME_BLOCK = 256


class OracleConsistencyError(RuntimeError):
    """Exact and perturbative branches disagree beyond explanation."""


class TruncatedBath:
    """Materialized oscillator modes with a shared Fock cutoff.

    Construction fails when the cutoff visibly truncates any mode's
    thermal occupancy (tail weight above 1e-8) or when the composite
    Hilbert space would exceed the hard cap.
    """

    def __init__(self, spec: DiscreteModes):
        self.spec = spec
        n_max = int(spec.fock_cutoff)
        w = spec.frequencies
        nu = spec.couplings
        tail = np.exp(-spec.beta * w * (n_max + 1))
        if np.any(tail >= TRUNCATION_TOL):
            worst = float(np.max(tail))
            raise ValueError(
                f"fock_cutoff={n_max} leaves thermal tail {worst:.2e} on the "
                "softest mode; raise the cutoff or beta"
            )
        d1 = n_max + 1
        nb = d1 ** len(w)
        if 2 * nb > DIM_CAP:
            raise ValueError(
                f"total dimension {2 * nb} exceeds the cap {DIM_CAP}; "
                "reduce mode count or fock_cutoff"
            )
        self.n_max = n_max
        self.n_modes = len(w)
        self.frequencies = w
        self.couplings = nu
        self.dim_bath = nb

        lower1 = np.diag(np.sqrt(np.arange(1, d1, dtype=float)), k=1).astype(complex)
        num1 = np.arange(d1, dtype=float)
        eye1 = np.eye(d1, dtype=complex)
        self.lowering = []
        energies = np.zeros(nb)
        for r in range(self.n_modes):
            mats = [eye1] * self.n_modes
            mats[r] = lower1
            self.lowering.append(reduce(np.kron, mats))
            nums = [np.ones(d1)] * self.n_modes
            nums[r] = num1
            energies += w[r] * reduce(np.kron, nums)
        self.bath_energies = energies

        logp = -spec.beta * energies
        p = np.exp(logp - logp.max())
        self.thermal_probs = p / p.sum()
        self.rho_r = np.diag(self.thermal_probs).astype(complex)

        y = np.zeros((nb, nb), dtype=complex)
        for r in range(self.n_modes):
            y += nu[r] * (self.lowering[r] + self.lowering[r].conj().T)
        self.coupling_operator = y

    def occupation_moments(self):
        """Per-mode (<b b^dag>, <b^dag b>) in the truncated thermal state.

        The pair satisfies the detailed-balance identity
        <b b^dag> = e^{beta w} <b^dag b> exactly at any cutoff, which is
        what keeps the reference kernel thermodynamically consistent.
        """
        n_max = self.n_max
        n = np.arange(n_max + 1, dtype=float)
        up = np.empty(self.n_modes)
        down = np.empty(self.n_modes)
        for r, w in enumerate(self.frequencies):
            p = np.exp(-self.spec.beta * w * n)
            p /= p.sum()
            up[r] = float(np.sum((n[:-1] + 1.0) * p[:-1]))
            down[r] = float(np.sum(n * p))
        return up, down


def truncated_kernel(bath: TruncatedBath) -> ExponentialSum:
    """Kernel whose half-range integrals match the truncated reservoir:
    bath.mode_kernel with the truncated occupation moments (not the
    untruncated Bose factors). Equals Tr[rho_R Y(t) Y(0)] identically."""
    up, down = bath.occupation_moments()
    meta = {"beta": bath.spec.beta, "n_modes": bath.n_modes}
    return mode_kernel(bath.frequencies, bath.couplings, up, down, meta)


def default_oracle_bath(
    omega_c=1.0, beta=12.0, n_modes=3, omega_max=1.8, fock_cutoff=5
) -> TruncatedBath:
    """Small non-resonant reference reservoir.

    The discretization keeps every mode frequency away from typical
    system splittings (midpoint frequencies 0.3, 0.9, 1.5 for the
    defaults) and beta is chosen cold enough that the Fock truncation
    invariant holds with a wide margin.
    """
    continuum = LorentzDrudeBath(omega_c=omega_c, beta=beta)
    spec = discretize_spectral_density(continuum, n_modes, omega_max, fock_cutoff)
    return TruncatedBath(spec)


def build_total_hamiltonian(model: SystemModel, bath: TruncatedBath, lam: float) -> np.ndarray:
    """H = H_S x 1 + 1 x H_R + lam X x Y as a real symmetric matrix:
    H_S = eps S^z, X = S^x and Y have real entries in the number basis,
    so each eigensolve of the oracle is a real one. Built as the
    (2, nb, 2, nb) array of its system blocks, H[a, :, b, :] = lam X_ab Y
    plus (H_S)_ab + delta_ab E_n at each bath-diagonal entry (n, n): the
    entries and sums of the Kronecker form, without a Kronecker product of
    the full dimension."""
    nb = bath.dim_bath
    x, y = model.coupling.real, bath.coupling_operator.real
    h = lam * (x[:, None, :, None] * y[None, :, None, :])
    # h[:, n, :, n] is the (nb, 2, 2) stack of the diagonal's system blocks
    n = np.arange(nb)
    h[:, n, :, n] += model.hamiltonian.real + bath.bath_energies[:, None, None] * np.eye(2)
    return h.reshape(2 * nb, 2 * nb)


def _natural_q(model, bath, rho_s, lam, kappa) -> np.ndarray:
    """First-order correlated part of the kappa-family total state, for
    the sign convention +1; NATURAL_SIGN times it is the state's part.

    Sector by sector, each rotating term of the interaction picks up
    its Abel-regularized half-range phase integral i/a; resonant modes
    (a = 0) have no such value and are rejected. A sector operator
    S x B acts on p0 = rho_S x rho_R factor by factor,
    (S x B) p0 = (S rho_S) x (B rho_R), so the bath factors are summed
    per system operator and each commutator adds (S rho_S)_ab B rho_R -
    (rho_S S)_ab rho_R B to the system block (a, b) of the state.
    """
    eps = model.epsilon
    rho_s = np.asarray(rho_s, dtype=complex)
    nb = bath.dim_bath
    # bath_sum[s] = sum over sectors with system operator (SP, SM)[s] of
    # (nu / 2)(i / a) B
    bath_sum = np.zeros((2, nb, nb), dtype=complex)
    for r in range(bath.n_modes):
        om = bath.frequencies[r]
        nu = bath.couplings[r]
        bop = bath.lowering[r]
        bdag = bop.conj().T
        sectors = (
            (0, bdag, -(eps + om)),
            (0, bop, om - eps),
            (1, bdag, eps - om),
            (1, bop, eps + om),
        )
        for s_idx, b_op, freq in sectors:
            if abs(freq) < 1e-9 * max(eps, om):
                raise KernelNotIntegrableError(
                    "a reservoir mode is resonant with the system splitting; "
                    "the correlated state has no stationary first-order part"
                )
            bath_sum[s_idx] += (nu / 2.0) * (1j / freq) * b_op
    # rho_R = diag(p) in the number basis: B rho_R scales columns, rho_R B rows
    p = bath.thermal_probs
    w_mat = np.zeros((2, nb, 2, nb), dtype=complex)
    for s_op, b_sum in zip((SP, SM), bath_sum):
        left, right = s_op @ rho_s, rho_s @ s_op
        b_rho, rho_b = b_sum * p, p[:, None] * b_sum
        for a, b in np.ndindex(2, 2):
            w_mat[a, :, b, :] += left[a, b] * b_rho - right[a, b] * rho_b
    return 1j * lam * kappa * w_mat.reshape(2 * nb, 2 * nb)


def hamiltonian_blocks(h) -> list:
    """Index sets of the connected components of h's nonzero pattern,
    in order of their smallest index.

    Each set is closed under h, so h is block diagonal over them. For
    the spin-boson Hamiltonian they are the two parity sectors of
    S^z x (-1)^N at lam != 0, and every basis state alone at lam = 0.
    Found by a frontier sweep from the smallest unassigned index.
    """
    nz = np.asarray(h) != 0
    link = nz | nz.T
    free = np.ones(link.shape[0], dtype=bool)
    blocks = []
    while free.any():
        seen = np.zeros_like(free)
        front = np.zeros_like(free)
        front[np.argmax(free)] = True
        while front.any():
            seen |= front
            front = link[front].any(axis=0) & ~seen
        free &= ~seen
        blocks.append(np.flatnonzero(seen))
    return blocks


def _eigh_blocks(h):
    """H = V diag(w) V^dag, one eigensolve per block of H.

    Block k fills its own rows `rows` and the run `cols` of columns of
    V, which is zero elsewhere; w is sorted within each block only.
    V is real for a real symmetric H and complex for a complex Hermitian
    one. Returns w, V and the (rows, cols) pair of every block."""
    dim = h.shape[0]
    w = np.empty(dim)
    v = np.zeros((dim, dim), dtype=np.result_type(h.dtype, float))
    pairs = []
    start = 0
    for rows in hamiltonian_blocks(h):
        cols = slice(start, start + rows.size)
        w[cols], v[rows, cols] = np.linalg.eigh(h[np.ix_(rows, rows)])
        pairs.append((rows, cols))
        start = cols.stop
    return w, v, pairs


def thermal_total_state(model, bath, rho_s, correlation, lam) -> np.ndarray:
    """rho_S x rho_R plus the first-order correlated part of the kappa
    family, if correlation is one."""
    rho_s = np.asarray(rho_s, dtype=complex)
    p0 = np.kron(rho_s, bath.rho_r)
    if isinstance(correlation, Product):
        return p0
    if isinstance(correlation, NaturalFamily):
        out = p0 + NATURAL_SIGN * _natural_q(model, bath, rho_s, lam, correlation.kappa)
        drift = np.linalg.norm(out - out.conj().T)
        if drift > 1e-12 * max(1.0, np.linalg.norm(out)):
            raise OracleConsistencyError(f"correlated state lost Hermiticity ({drift:g})")
        return out
    raise TypeError(f"unsupported correlation {type(correlation).__name__}")


def _time_blocks(n_times):
    return [slice(s, s + TIME_BLOCK) for s in range(0, n_times, TIME_BLOCK)]


def evolve_exact(h_total, rho_total0, times):
    """Unitary evolution of the total state, reduced to the system.

    H = V diag(w) V^dag is diagonalized one block at a time (see
    `hamiltonian_blocks`): for the spin-boson H at lam != 0 that is two
    parity sectors of dim / 2, at lam = 0 dim blocks of one state. With
    r0 = V^dag rho V the eigenbasis state and V_a the rows of V whose
    system index is a, the partial trace pairs r0 with
    G_ab = V_a^T conj(V_b). Folded into H_ab = G_ab * r0 (elementwise), it
    gives every output time at once,

        rho_ab(t) = sum_l [(P H_ab) * conj(P)]_{t l},  P_{t k} = e^{-i w_k t}.

    G_ab pairs the states (a, n) of a block K only with their partners
    (b, n), n the bath index, so it is nonzero on the pairs (K, L) of
    blocks that hold such partners, and only those pairs of r0 are
    formed: r0_KL = V_K^dag Re(rho_KL) V_L + 1j V_K^dag Im(rho_KL) V_L,
    for every start at once, then contracted with G_ab restricted to the
    partner rows in L. For a real H these are two real matrix products
    per side, half the work of the complex one that V^dag rho V would
    take; for a complex H the same expression is exact. Against one dense
    diagonalization, two sectors cut the eigensolve about fourfold and the
    products for r0 and G_ab two- and fourfold.

    `rho_total0` is one state (dim, dim), giving a Trajectory, or a stack
    (n, dim, dim) of starts that share the diagonalization, giving a list
    of n Trajectories; each start is contracted alone, so one start gives
    the bits it has in a stack. Times run in blocks of TIME_BLOCK. Beyond
    the starts and V, memory is O(n d_K d_L + TIME_BLOCK dim) for the
    largest pair (K, L) of blocks, n dim^2 / 4 for the two sectors, for
    any number of times. Every reduced state is checked against its
    start, to 1e-10: its trace, which sum_a G_aa = 1 keeps exact, so that
    a wrong block pairing or partner row shows, and its Hermiticity. A
    time that is not finite fails the check.
    """
    h_total = np.asarray(h_total)
    rho = np.asarray(rho_total0, dtype=complex)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    dim = h_total.shape[0]
    nb = dim // 2
    w, v, pairs = _eigh_blocks(h_total)
    starts = rho.reshape(-1, dim, dim)
    label = np.empty(dim, dtype=int)
    for k, (rows, _) in enumerate(pairs):
        label[rows] = k
    red = np.zeros((starts.shape[0], times.size, 2, 2), dtype=complex)
    for rows_k, cols_k in pairs:
        sys_k, bath_k = np.divmod(rows_k, nb)
        # every block L that holds a partner (b, n) of a state (a, n) of K
        for l in np.unique(label[np.concatenate((bath_k, bath_k + nb))]):
            rows_l, cols_l = pairs[l]
            rho_kl = starts[:, rows_k[:, None], rows_l]
            parts = v[rows_k, cols_k].conj().T @ np.stack((rho_kl.real, rho_kl.imag)) @ v[rows_l, cols_l]
            r0_kl = parts[0] + 1j * parts[1]
            del rho_kl, parts
            g = {}
            for a, b in np.ndindex(2, 2):
                own = (sys_k == a) & (label[bath_k + b * nb] == l)
                if own.any():
                    g[a, b] = v[rows_k[own], cols_k].T @ v[bath_k[own] + b * nb, cols_l].conj()
            for blk in _time_blocks(times.size):
                ph_k = np.exp(-1j * np.outer(times[blk], w[cols_k]))
                ph_l = np.exp(-1j * np.outer(times[blk], w[cols_l])).conj()
                for (a, b), g_ab in g.items():
                    # start by start, so that one start alone gives the same bits
                    for i, r0_i in enumerate(r0_kl):
                        red[i, blk, a, b] += np.sum((ph_k @ (g_ab * r0_i)) * ph_l, axis=1)
    trace_err = np.abs(np.trace(red, axis1=2, axis2=3) - np.trace(starts, axis1=1, axis2=2)[:, None])
    herm_err = np.max(np.abs(red - np.conj(np.swapaxes(red, 2, 3))), axis=(2, 3))
    if not np.all((trace_err <= 1e-10) & (herm_err <= 1e-10)):
        raise OracleConsistencyError("a reduced state lost the trace or the Hermiticity of its start")
    trajs = [trajectory_from_states(times, list(states)) for states in red]
    return trajs[0] if rho.ndim == 2 else trajs


def phi(a, t):
    """int_0^t exp(a u) du, elementwise over a and t broadcast together.

    Near a t = 0 the closed form loses digits to cancellation, so a
    six-term series takes over below |a t| = 1e-4. t = inf is allowed
    where Re a < 0 and gives -1/a. Scalar a and t give a complex number.
    """
    a_arr, t_arr = np.broadcast_arrays(
        np.asarray(a, dtype=complex), np.asarray(t, dtype=float)
    )
    if np.any(t_arr < 0.0):
        raise ValueError("t must be non-negative")
    inf = np.isinf(t_arr)
    if np.any(a_arr.real[inf] >= 0.0):
        raise ValueError("phi(a, inf) requires Re a < 0")
    out = np.empty(a_arr.shape, dtype=complex)
    out[inf] = -1.0 / a_arr[inf]
    x = a_arr * np.where(inf, 0.0, t_arr)
    small = ~inf & (np.abs(x) < 1e-4)
    if np.any(small):
        xs = x[small]
        out[small] = t_arr[small] * (
            1.0
            + xs / 2.0
            + xs**2 / 6.0
            + xs**3 / 24.0
            + xs**4 / 120.0
            + xs**5 / 720.0
        )
    big = ~inf & ~small
    if np.any(big):
        out[big] = np.expm1(x[big]) / a_arr[big]
    return out if out.ndim else complex(out)


def delta_rho2_direct(model, bath, q_corr, lam, times):
    """First-order correction integral evaluated directly in the
    system x bath energy basis, one phase factor per matrix element,

        delta_rho2_ab(t) = -i lam sum_{m n} Y_mn [
            sum_c X_ac phi(i(e_a - e_c + E_m - E_n), t) Q_(c n),(b m)
          - sum_c X_cb phi(i(e_c - e_b + E_m - E_n), t) Q_(a n),(c m) ],

    with e the system and E the bath energies. The sum runs over the
    nonzero entries of the coupling operator Y only, for all times at
    once (in blocks of TIME_BLOCK); the result has shape (n_times, 2, 2).

    Independent of every closed form in the perturbative modules; used
    to pin the sign convention and certify the cancellation identity.
    """
    eps = model.epsilon
    e_sys = np.array([0.5 * eps, -0.5 * eps])
    e_bath = bath.bath_energies
    nb = bath.dim_bath
    y = bath.coupling_operator
    m_idx, n_idx = np.nonzero(y)
    de_bath = e_bath[m_idx] - e_bath[n_idx]
    # yq[c, b, j] = Y_(m_j n_j) Q_(c n_j),(b m_j)
    qt = np.asarray(q_corr, dtype=complex).reshape(2, nb, 2, nb).transpose(0, 2, 1, 3)
    yq = y[m_idx, n_idx] * qt[:, :, n_idx, m_idx]
    times = np.atleast_1d(np.asarray(times, dtype=float))
    x = SX
    out = np.empty((times.size, 2, 2), dtype=complex)
    for blk in _time_blocks(times.size):
        tb = times[blk, None]
        term = np.zeros((tb.shape[0], 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                if x[i, j] == 0.0:
                    continue
                ph = x[i, j] * phi(1j * (e_sys[i] - e_sys[j] + de_bath), tb)
                # X_ij is X_ac (a = i, c = j) of the first sum and X_cb
                # (c = i, b = j) of the second
                term[:, i, :] += ph @ yq[j].T
                term[:, :, j] -= ph @ yq[:, i].T
        out[blk] = -1j * lam * term
    return out


def _relative_residuals(d1, d2):
    """|d1 + d2| / |d1| per time (Frobenius norms), 0 where d1 vanishes.
    Refuses corrections whose norms are not finite or vanish at every
    time, which would otherwise pass as a perfect cancellation."""
    num = np.linalg.norm(d1 + np.asarray(d2), axis=(-2, -1))
    den = np.linalg.norm(d1, axis=(-2, -1))
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den)) and np.any(den > 0)):
        raise ValueError(
            "the first-order corrections are not finite, or vanish at every time, "
            "at this configuration"
        )
    return np.divide(num, den, out=np.zeros_like(den), where=den > 0)


def cancellation_test(model, bath, rho_s, lam, times):
    """Residuals of delta_rho1 + delta_rho2 for the kappa = 1 state, for
    both sign conventions: a report per sign, -1 first.

    delta_rho2 is linear in the correlated part q, so the sign -1 takes
    the negated delta_rho2 of q(+1), which is what q(-1) = -q(+1) gives
    bit for bit. With the correct sign convention the two corrections
    cancel identically at every time; with the wrong one they add,
    leaving a relative residual of 2.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    times = np.asarray(times, dtype=float)
    d1 = delta_rho1(model, truncated_kernel(bath), lam, rho_s, times)
    d2 = delta_rho2_direct(model, bath, _natural_q(model, bath, rho_s, lam, 1.0), lam, times)
    reports = {}
    for sign in (-1, 1):
        residuals = _relative_residuals(d1, sign * d2)
        reports[sign] = {
            "sign": sign,
            "times": times.tolist(),
            "residuals": residuals.tolist(),
            "max_residual": float(np.max(residuals)),
        }
    return reports


def pin_natural_sign(model, bath, rho_s, lam, times):
    """Decide the sign convention empirically and fail hard on ambiguity."""
    results = cancellation_test(model, bath, rho_s, lam, times)
    passing = [sign for sign, res in results.items() if res["max_residual"] < CANCELLATION_TOL]
    if len(passing) != 1:
        raise OracleConsistencyError(
            "cancellation identity selected "
            + ("no sign" if not passing else "both signs")
            + f"; residuals: -1 -> {results[-1]['max_residual']:.3e}, "
            f"+1 -> {results[1]['max_residual']:.3e}"
        )
    return passing[0], results


def check_comparison_time(bath, t_star):
    """Refuse a comparison time in the second half of the recurrence
    period of the discrete bath, where the exact evolution revives."""
    rec = recurrence_estimate(bath.spec)
    if t_star >= 0.5 * rec:
        raise ValueError(
            f"t_star={t_star:g} runs into the discrete-bath recurrence "
            f"({rec:g}); use more modes or an earlier comparison time"
        )


def validate_scaling(
    model,
    bath,
    rho_s,
    lambdas=(0.04, 0.08, 0.16),
    t_star=2.0,
):
    """Trace-distance error of the second-order solution against exact
    evolution from a product start, per coupling; the log-log slope
    certifies the order.

    The error of the truncated expansion is O(lam^4) here (odd orders
    vanish for a Gaussian reservoir), so the fitted slope should sit
    near 4 and must exceed 3 for the order-2 claim to hold.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    t_star = float(t_star)
    check_comparison_time(bath, t_star)
    kern = truncated_kernel(bath)
    errors = []
    for lam in lambdas:
        # first, so that a coupling whose lam^2 Gamma overflows is refused
        # before the exact evolution meets it
        gen = build_redfield_generator(model, kern, float(lam))
        h = build_total_hamiltonian(model, bath, float(lam))
        rho_t0 = thermal_total_state(model, bath, rho_s, Product(), float(lam))
        exact = evolve_exact(h, rho_t0, [t_star]).states[0]
        d1 = delta_rho1(model, kern, float(lam), rho_s, t_star)
        pred = gen.evolve([t_star], rho_s + d1)[0]
        errors.append(trace_distance(exact, pred))
    lam_arr = np.asarray(lambdas, dtype=float)
    err_arr = np.asarray(errors, dtype=float)
    slope = float(np.polyfit(np.log(lam_arr), np.log(err_arr), 1)[0])
    return {
        "lambdas": lam_arr.tolist(),
        "errors": err_arr.tolist(),
        "slope": slope,
        "t_star": t_star,
        "bath": {
            "beta": float(bath.spec.beta),
            "modes": [[float(w), float(nu)] for w, nu in bath.spec.modes],
            "fock_cutoff": int(bath.spec.fock_cutoff),
        },
    }


def short_time_markovianity(model, bath, rho_s, lam, times):
    """Distances of exact evolutions (product and correlated starts)
    from the memoryless semigroup, resolved in time.

    Inside the reservoir memory window the correlated start tracks the
    semigroup more closely; the transient is what the product start
    spends building the missing correlation. Both starts evolve from
    one diagonalization of the total Hamiltonian."""
    rho_s = np.asarray(rho_s, dtype=complex)
    times = np.asarray(times, dtype=float)
    gen = build_redfield_generator(model, truncated_kernel(bath), lam)
    h = build_total_hamiltonian(model, bath, lam)
    markov = propagate_markovian(gen, rho_s, times).states
    starts = {"product": Product(), "natural": NaturalFamily(1.0)}
    rho_t0 = np.stack([thermal_total_state(model, bath, rho_s, c, lam) for c in starts.values()])
    out = {"times": times.tolist()}
    for label, traj in zip(starts, evolve_exact(h, rho_t0, times)):
        out[f"dist_{label}"] = [
            float(trace_distance(e, m)) for e, m in zip(traj.states, markov)
        ]
    return out
