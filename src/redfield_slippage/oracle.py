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
from .operators import SM, SP, SX, matrix_exponential_action, trace_distance

DIM_CAP = 4096
TRUNCATION_TOL = 1e-8


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
    nb = bath.dim_bath
    h = np.kron(model.hamiltonian, np.eye(nb))
    h += np.kron(np.eye(2), np.diag(bath.bath_energies).astype(complex))
    h += lam * np.kron(SX, bath.coupling_operator)
    return h


def correlated_part(bath: TruncatedBath, rho_total) -> np.ndarray:
    """Q = rho_total - (Tr_R rho_total) x rho_R."""
    rho_total = np.asarray(rho_total, dtype=complex)
    reduced = partial_trace_bath(rho_total, bath.dim_bath)
    return rho_total - np.kron(reduced, bath.rho_r)


def partial_trace_bath(rho_total, nb) -> np.ndarray:
    m = np.asarray(rho_total, dtype=complex).reshape(2, nb, 2, nb)
    return np.einsum("anbn->ab", m)


def _natural_q(model, bath, rho_s, lam, kappa, sign) -> np.ndarray:
    """First-order correlated part of the kappa-family total state.

    Sector by sector, each rotating term of the interaction picks up
    its Abel-regularized half-range phase integral i/a; resonant modes
    (a = 0) have no such value and are rejected.
    """
    eps = model.epsilon
    p0 = np.kron(np.asarray(rho_s, dtype=complex), bath.rho_r)
    w_mat = np.zeros_like(p0)
    for r in range(bath.n_modes):
        om = bath.frequencies[r]
        nu = bath.couplings[r]
        bop = bath.lowering[r]
        bdag = bop.conj().T
        sectors = (
            (np.kron(SP, bdag), -(eps + om)),
            (np.kron(SP, bop), om - eps),
            (np.kron(SM, bdag), eps - om),
            (np.kron(SM, bop), eps + om),
        )
        for op, freq in sectors:
            if abs(freq) < 1e-9 * max(eps, om):
                raise KernelNotIntegrableError(
                    "a reservoir mode is resonant with the system splitting; "
                    "the correlated state has no stationary first-order part"
                )
            w_mat += (nu / 2.0) * (1j / freq) * (op @ p0 - p0 @ op)
    return sign * 1j * lam * kappa * w_mat


def thermal_total_state(model, bath, rho_s, correlation, lam) -> np.ndarray:
    if isinstance(correlation, GibbsTotal):
        h = build_total_hamiltonian(model, bath, lam)
        w, v = np.linalg.eigh(h)
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


def evolve_exact(h_total, rho_total0, times):
    """Unitary evolution of the total state, reduced to the system.

    One exact diagonalization; each output time costs an elementwise
    phase twist plus four precontracted partial-trace dot products.
    Purity of the total state is monitored as an integration invariant.
    """
    h_total = np.asarray(h_total, dtype=complex)
    rho_total0 = np.asarray(rho_total0, dtype=complex)
    times = np.asarray(times, dtype=float)
    dim = h_total.shape[0]
    nb = dim // 2
    w, v = np.linalg.eigh(h_total)
    r0 = v.conj().T @ rho_total0 @ v
    purity0 = float(np.sum(np.abs(r0) ** 2))

    v4 = v.reshape(2, nb, dim)
    # G[a, b][k, l] = sum_n V[(a, n), k] conj(V[(b, n), l]); contracting it
    # elementwise with the eigenbasis state gives the reduced matrix element
    gmats = np.empty((2, 2, dim, dim), dtype=complex)
    for a in range(2):
        for b in range(2):
            gmats[a, b] = np.einsum("nk,nl->kl", v4[a], v4[b].conj())

    states = []
    for t in times:
        ph = np.exp(-1j * w * t)
        rt = (ph[:, None] * r0) * ph.conj()[None, :]
        purity = float(np.sum(np.abs(rt) ** 2))
        if abs(purity - purity0) > 1e-10 * max(purity0, 1e-30):
            raise OracleConsistencyError("total-state purity drifted during evolution")
        red = np.empty((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                red[a, b] = np.sum(gmats[a, b] * rt)
        states.append(red)
    return trajectory_from_states(times, states)


def phi(a, t):
    """int_0^t exp(a u) du, elementwise in a.

    Near a t = 0 the closed form loses digits to cancellation, so a
    six-term series takes over below |a t| = 1e-4. t = inf is allowed
    when every Re a < 0 and gives -1/a.
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=complex))
    if np.isinf(t):
        if np.any(a_arr.real >= 0.0):
            raise ValueError("phi(a, inf) requires Re a < 0")
        out = -1.0 / a_arr
        return out if np.ndim(a) else complex(out[0])
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be non-negative")
    x = a_arr * t
    out = np.empty_like(a_arr)
    small = np.abs(x) < 1e-4
    if np.any(small):
        xs = x[small]
        out[small] = t * (
            1.0
            + xs / 2.0
            + xs**2 / 6.0
            + xs**3 / 24.0
            + xs**4 / 120.0
            + xs**5 / 720.0
        )
    big = ~small
    if np.any(big):
        out[big] = np.expm1(x[big]) / a_arr[big]
    return out if np.ndim(a) else complex(out[0])


def delta_rho2_direct(model, bath, q_corr, lam, times):
    """First-order correction integral evaluated directly in the
    system x bath energy basis, one phase factor per matrix element.

    Independent of every closed form in the perturbative modules; used
    to pin the sign convention and certify the cancellation identity.
    """
    eps = model.epsilon
    e_sys = np.array([0.5 * eps, -0.5 * eps])
    e_bath = bath.bath_energies
    nb = bath.dim_bath
    y = bath.coupling_operator
    qt = np.asarray(q_corr, dtype=complex).reshape(2, nb, 2, nb)
    x = SX

    out = []
    for t in times:
        cache: dict = {}

        def pmat(de):
            key = round(float(de), 12)
            if key not in cache:
                warg = de + (e_bath[:, None] - e_bath[None, :])
                cache[key] = phi(1j * warg, float(t))
            return cache[key]

        term1 = np.zeros((2, 2), dtype=complex)
        term2 = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    if x[a, c] != 0.0:
                        p1 = pmat(e_sys[a] - e_sys[c])
                        term1[a, b] += x[a, c] * np.sum(y * p1 * qt[c, :, b, :].T)
                    if x[c, b] != 0.0:
                        p2 = pmat(e_sys[c] - e_sys[b])
                        term2[a, b] += x[c, b] * np.sum(y.T * p2.T * qt[a, :, c, :])
        out.append(-1j * lam * (term1 - term2))
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
    rec = recurrence_estimate(bath.spec)
    if t_star >= 0.5 * rec:
        raise ValueError(
            f"t_star={t_star:g} runs into the discrete-bath recurrence "
            f"({rec:g}); use more modes or an earlier comparison time"
        )
    kern = truncated_kernel(bath)
    errors = []
    for lam in lambdas:
        h = build_total_hamiltonian(model, bath, float(lam))
        rho_t0 = thermal_total_state(model, bath, rho_s, correlation, float(lam))
        exact = evolve_exact(h, rho_t0, [t_star]).states[0]
        gen = build_redfield_generator(model, kern, float(lam))
        d1 = delta_rho1(model, kern, float(lam), rho_s, t_star)
        d2 = delta_rho2(model, kern, float(lam), rho_s, correlation, t_star)
        pred = matrix_exponential_action(gen.liouvillian, t_star, rho_s + d1 + d2)
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
    spends building the missing correlation."""
    rho_s = np.asarray(rho_s, dtype=complex)
    times = np.asarray(times, dtype=float)
    kern = truncated_kernel(bath)
    gen = build_redfield_generator(model, kern, lam)
    h = build_total_hamiltonian(model, bath, lam)
    markov = [
        matrix_exponential_action(gen.liouvillian, t, rho_s) for t in times
    ]
    out = {"times": times.tolist()}
    for label, corr in (("product", Product()), ("natural", NaturalFamily(1.0))):
        rho_t0 = thermal_total_state(model, bath, rho_s, corr, lam)
        traj = evolve_exact(h, rho_t0, times)
        out[f"dist_{label}"] = [
            float(trace_distance(e, m)) for e, m in zip(traj.states, markov)
        ]
    return out


def gibbs_consistency(model, bath, lam, times):
    """Largest cancellation residual when the correlated part is taken
    from the exact Gibbs state of the coupled Hamiltonian.

    The first-order family only reproduces the Gibbs correlation to
    O(lam), so the residual shrinks linearly with the coupling instead
    of vanishing; the caller checks that trend."""
    times = np.asarray(times, dtype=float)
    rho_g = thermal_total_state(model, bath, None, GibbsTotal(), lam)
    rho_s = partial_trace_bath(rho_g, bath.dim_bath)
    q = correlated_part(bath, rho_g)
    kern = truncated_kernel(bath)
    residuals = _relative_residuals(
        delta_rho1(model, kern, lam, rho_s, times), delta_rho2_direct(model, bath, q, lam, times)
    )
    return float(np.max(residuals, initial=0.0))
