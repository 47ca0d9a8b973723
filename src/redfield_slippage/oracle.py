"""Exact reference dynamics on a truncated few-mode reservoir.

Everything downstream of the perturbative formulas is cross-checked
here against brute-force linear algebra: the two-level system plus a
handful of truncated oscillator modes is diagonalized exactly, the
correlated initial states are materialized as matrices, and the
first-order correction integrals are evaluated term by term in the
energy eigenbasis. No kernel closed forms are reused on this side.
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
    recurrence_estimate,
)
from .corrections import (
    ExplicitOracleState,
    NaturalFamily,
    Product,
    delta_rho1,
    delta_rho2,
)
from .master import SystemModel, build_redfield_generator, trajectory_from_states
from .operators import SM, SP, SX, trace_distance, unvec, vec

DIM_CAP = 4096
TRUNCATION_TOL = 1e-8
# output times per block in evolve_exact and delta_rho2_direct: bounds
# their phase arrays whatever the number of times
TIME_BLOCK = 256


class OracleConsistencyError(RuntimeError):
    """Exact and perturbative branches disagree beyond explanation."""


class GibbsTotal:
    """Marker: initialize from the global thermal state of the coupled
    Hamiltonian instead of a constructed correlation."""

    def __repr__(self):
        return "GibbsTotal()"


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
    """Kernel whose half-range integrals match the truncated reservoir,

        C(t) = sum_r nu_r^2 [ a_r e^{-i w_r t} + n_r e^{+i w_r t} ],

    with a_r, n_r the truncated occupation moments (not the untruncated
    Bose factors). Equals Tr[rho_R Y(t) Y(0)] identically."""
    up, down = bath.occupation_moments()
    nu2 = bath.couplings**2
    c = np.concatenate((nu2 * up, nu2 * down)).astype(complex)
    g = np.concatenate((1j * bath.frequencies, -1j * bath.frequencies))
    return ExponentialSum(c, g, meta={"beta": bath.spec.beta, "n_modes": bath.n_modes})


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
    so each eigensolve of the oracle is a real one."""
    nb = bath.dim_bath
    h = np.kron(model.hamiltonian.real, np.eye(nb))
    h += np.kron(np.eye(2), np.diag(bath.bath_energies))
    h += lam * np.kron(model.coupling.real, bath.coupling_operator.real)
    return h


def _natural_q(model, bath, rho_s, lam, kappa, sign) -> np.ndarray:
    """First-order correlated part of the kappa-family total state.

    Sector by sector, each rotating term of the interaction picks up
    its Abel-regularized half-range phase integral i/a; resonant modes
    (a = 0) have no such value and are rejected. A sector operator
    S x B acts on p0 = rho_S x rho_R factor by factor,
    (S x B) p0 = (S rho_S) x (B rho_R), so the bath factors are summed
    per system operator and each commutator costs two Kronecker products.
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
    w_mat = np.zeros((2 * nb, 2 * nb), dtype=complex)
    for s_op, b_sum in zip((SP, SM), bath_sum):
        w_mat += np.kron(s_op @ rho_s, b_sum * p) - np.kron(rho_s @ s_op, p[:, None] * b_sum)
    return sign * 1j * lam * kappa * w_mat


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
    if isinstance(correlation, GibbsTotal):
        h = build_total_hamiltonian(model, bath, lam)
        w, v, _ = _eigh_blocks(h)
        p = np.exp(-bath.spec.beta * (w - w.min()))
        return (v * (p / p.sum())) @ v.conj().T
    rho_s = np.asarray(rho_s, dtype=complex)
    p0 = np.kron(rho_s, bath.rho_r)
    if isinstance(correlation, Product):
        return p0
    if isinstance(correlation, NaturalFamily):
        q = _natural_q(model, bath, rho_s, lam, correlation.kappa, correlation.sign)
        out = p0 + q
        drift = np.linalg.norm(out - out.conj().T)
        if drift > 1e-12 * max(1.0, np.linalg.norm(out)):
            raise OracleConsistencyError(f"correlated state lost Hermiticity ({drift:g})")
        return out
    if isinstance(correlation, ExplicitOracleState):
        return np.asarray(correlation.state, dtype=complex)
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

    The rows of G_ab in block k's columns are nonzero only in the columns
    of the blocks that hold the partner states (b, n) of block k's states
    (a, n), n the bath index, so each block contributes one product over
    those columns alone. Every step loops once over the blocks, never
    over pairs of them. Against one dense diagonalization, two sectors
    cut the eigensolve about fourfold and the products for r0 and G_ab
    two- and fourfold.

    `rho_total0` is one state (dim, dim), giving a Trajectory, or a stack
    (n, dim, dim) of starts that share the diagonalization, giving a list
    of n Trajectories. Times run in blocks of TIME_BLOCK, so memory is
    O(n dim^2 + TIME_BLOCK dim) for any number of times. The purity of
    the total state, (|P|^2 |r0|^2) . |P|^2, is checked at every time as
    an integration invariant.
    """
    h_total = np.asarray(h_total)
    rho = np.asarray(rho_total0, dtype=complex)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    dim = h_total.shape[0]
    nb = dim // 2
    w, v, pairs = _eigh_blocks(h_total)
    starts = rho.reshape(-1, dim, dim)
    # V is zero outside the blocks: rho V one run of columns at a time,
    # then V^dag (rho V) one run of rows at a time
    rho_v = np.empty_like(starts)
    for rows, cols in pairs:
        rho_v[:, :, cols] = starts[:, :, rows] @ v[rows, cols]
    r0 = np.empty_like(starts)
    for rows, cols in pairs:
        r0[:, cols] = v[rows, cols].conj().T @ rho_v[:, rows]
    del rho_v
    abs_r0 = np.abs(r0) ** 2
    purity0 = np.sum(abs_r0, axis=(1, 2))
    t_blocks = _time_blocks(times.size)
    for blk in t_blocks:
        p2 = np.abs(np.exp(-1j * np.outer(times[blk], w))) ** 2
        purity = np.sum((p2 @ abs_r0) * p2, axis=2)
        if np.any(np.abs(purity - purity0[:, None]) > 1e-10 * np.maximum(purity0[:, None], 1e-30)):
            raise OracleConsistencyError("total-state purity drifted during evolution")

    # block label of every eigenvector column and of every basis state
    col_label = np.repeat(np.arange(len(pairs)), [rows.size for rows, _ in pairs])
    label = np.empty(dim, dtype=int)
    label[np.concatenate([rows for rows, _ in pairs])] = col_label
    red = np.zeros((starts.shape[0], times.size, 2, 2), dtype=complex)
    for rows, cols in pairs:
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            own = rows[rows // nb == a]
            partner = own + (b - a) * nb
            need = np.isin(col_label, label[partner])
            g_ab = v[own, cols].T @ v[partner][:, need].conj()
            # start by start, so that one start alone gives the same bits
            for i, r0_i in enumerate(r0):
                h_ab = g_ab * r0_i[cols][:, need]
                for blk in t_blocks:
                    ph_k = np.exp(-1j * np.outer(times[blk], w[cols]))
                    ph_l = np.exp(-1j * np.outer(times[blk], w[need]))
                    red[i, blk, a, b] += np.sum((ph_k @ h_ab) * ph_l.conj(), axis=1)
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
    """|d1 + d2| / |d1| per time (Frobenius norms), 0 where d1 vanishes."""
    num = np.linalg.norm(d1 + np.asarray(d2), axis=(-2, -1))
    den = np.linalg.norm(d1, axis=(-2, -1))
    return np.divide(num, den, out=np.zeros_like(den), where=den > 0)


def cancellation_test(model, bath, rho_s, lam, sign, times):
    """Residuals of delta_rho1 + delta_rho2 for the kappa = 1 state.

    With the correct sign convention the two corrections cancel
    identically at every time; with the wrong one they add, leaving a
    relative residual of 2.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    times = np.asarray(times, dtype=float)
    kern = truncated_kernel(bath)
    q = _natural_q(model, bath, rho_s, lam, 1.0, sign)
    residuals = _relative_residuals(
        delta_rho1(model, kern, lam, rho_s, times), delta_rho2_direct(model, bath, q, lam, times)
    )
    return {
        "sign": int(sign),
        "times": times.tolist(),
        "residuals": residuals.tolist(),
        "max_residual": float(np.max(residuals)),
    }


def pin_natural_sign(model, bath, rho_s, lam, times, tol=1e-8):
    """Decide the sign convention empirically and fail hard on ambiguity."""
    results = {}
    passing = []
    for sign in (-1, 1):
        res = cancellation_test(model, bath, rho_s, lam, sign, times)
        results[sign] = res
        if res["max_residual"] < tol:
            passing.append(sign)
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
    correlation=None,
):
    """Trace-distance error of the second-order solution against exact
    evolution, per coupling; the log-log slope certifies the order.

    The error of the truncated expansion is O(lam^4) here (odd orders
    vanish for a Gaussian reservoir), so the fitted slope should sit
    near 4 and must exceed 3 for the order-2 claim to hold.
    """
    if correlation is None:
        correlation = Product()
    rho_s = np.asarray(rho_s, dtype=complex)
    t_star = float(t_star)
    check_comparison_time(bath, t_star)
    kern = truncated_kernel(bath)
    errors = []
    for lam in lambdas:
        h = build_total_hamiltonian(model, bath, float(lam))
        rho_t0 = thermal_total_state(model, bath, rho_s, correlation, float(lam))
        exact = evolve_exact(h, rho_t0, [t_star]).states[0]
        gen = build_redfield_generator(model, kern, float(lam))
        d1 = delta_rho1(model, kern, float(lam), rho_s, t_star)
        d2 = delta_rho2(model, kern, float(lam), rho_s, correlation, t_star)
        pred = unvec(gen.liouvillian.expm_action(t_star, vec(rho_s + d1 + d2)))
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
    kern = truncated_kernel(bath)
    gen = build_redfield_generator(model, kern, lam)
    h = build_total_hamiltonian(model, bath, lam)
    # one start per time, so that each state is bit for bit expm_action's
    v0 = np.broadcast_to(vec(rho_s), times.shape + (4,))
    markov = unvec(gen.liouvillian.expm_action_many(times, v0).T)
    starts = {"product": Product(), "natural": NaturalFamily(1.0)}
    rho_t0 = np.stack([thermal_total_state(model, bath, rho_s, c, lam) for c in starts.values()])
    out = {"times": times.tolist()}
    for label, traj in zip(starts, evolve_exact(h, rho_t0, times)):
        out[f"dist_{label}"] = [
            float(trace_distance(e, m)) for e, m in zip(traj.states, markov)
        ]
    return out
