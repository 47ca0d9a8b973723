import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from redfield_slippage.bath import DiscreteModes, KernelNotIntegrableError
from redfield_slippage.corrections import NaturalFamily, Product, delta_rho1
from redfield_slippage import oracle
from redfield_slippage.master import SystemModel
from redfield_slippage.operators import SM, SP, SX, bloch_to_density, trace_distance
from redfield_slippage.oracle import (
    OracleConsistencyError,
    TruncatedBath,
    _natural_q,
    build_total_hamiltonian,
    _relative_residuals,
    cancellation_test,
    default_oracle_bath,
    delta_rho2_direct,
    evolve_exact,
    hamiltonian_blocks,
    phi,
    pin_natural_sign,
    short_time_markovianity,
    thermal_total_state,
    truncated_kernel,
    validate_scaling,
)

CANCEL_TIMES = np.linspace(0.2, 2.0, 7)


def partial_trace_bath(rho_total, nb):
    return np.einsum("anbn->ab", np.asarray(rho_total).reshape(2, nb, 2, nb))


def gibbs_total_state(model, bath, lam):
    """Global thermal state of the coupled Hamiltonian."""
    w, v = np.linalg.eigh(build_total_hamiltonian(model, bath, lam))
    p = np.exp(-bath.spec.beta * (w - w.min()))
    return (v * (p / p.sum())) @ v.conj().T


def test_default_bath_layout(oracle_bath):
    assert oracle_bath.n_modes == 3
    assert oracle_bath.frequencies == pytest.approx([0.3, 0.9, 1.5])
    assert oracle_bath.dim_bath == 6 ** 3
    y = oracle_bath.coupling_operator
    assert np.allclose(y, y.conj().T)
    assert oracle_bath.thermal_probs.sum() == pytest.approx(1.0, abs=1e-12)
    # thermal state is diagonal in the number basis
    assert np.allclose(oracle_bath.rho_r, np.diag(np.diag(oracle_bath.rho_r)))


def test_truncation_tail_guard():
    # at beta=1 the softest mode (0.3) keeps exp(-1.8) of its weight
    # above the cutoff, far over the 1e-8 tolerance
    with pytest.raises(ValueError, match="thermal tail"):
        default_oracle_bath(beta=1.0)


def test_dimension_cap_guard():
    # 2 * 8^4 = 8192 states; the tail check passes first (softest mode
    # 0.225 at beta=12 leaves ~4e-10) so the cap is what trips
    with pytest.raises(ValueError, match="exceeds the cap"):
        default_oracle_bath(n_modes=4, fock_cutoff=7)


def test_fock_cutoff_guard():
    with pytest.raises(ValueError, match="fock_cutoff must be at least 1"):
        TruncatedBath(DiscreteModes(((1.0, 0.5),), beta=40.0), 0)


def test_truncated_kernel_matches_trace_formula(oracle_bath):
    # the closed-form kernel must equal Tr[rho_R Y(t) Y(0)] computed
    # from the materialized operators, at the same truncation
    kern = truncated_kernel(oracle_bath)
    p = oracle_bath.thermal_probs
    e = oracle_bath.bath_energies
    y = oracle_bath.coupling_operator
    y2 = np.abs(y) ** 2
    for t in (0.0, 0.45, 1.3, 4.0):
        phase = np.exp(1j * (e[:, None] - e[None, :]) * t)
        exact = complex(np.sum(p[:, None] * y2 * phase))
        assert kern.evaluate(t) == pytest.approx(exact, abs=1e-12)


def test_product_state_is_kron(model, oracle_bath):
    rho_s = bloch_to_density((0.3, -0.2, 0.4))
    st = thermal_total_state(model, oracle_bath, rho_s, Product(), 0.3)
    assert np.allclose(st, np.kron(rho_s, oracle_bath.rho_r), atol=1e-15)
    red = partial_trace_bath(st, oracle_bath.dim_bath)
    assert np.allclose(red, rho_s, atol=1e-14)
    with pytest.raises(TypeError):
        thermal_total_state(model, oracle_bath, rho_s, "correlated", 0.1)


def test_natural_state_correlated_part(model, oracle_bath):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    st = thermal_total_state(model, oracle_bath, rho_s, NaturalFamily(1.0), 0.1)
    assert complex(np.trace(st)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(st, st.conj().T, atol=1e-14)
    # the correlation carries no reduced weight on either side
    red = partial_trace_bath(st, oracle_bath.dim_bath)
    assert np.allclose(red, rho_s, atol=1e-13)
    q = st - np.kron(red, oracle_bath.rho_r)
    assert np.allclose(q, q.conj().T, atol=1e-14)
    assert np.linalg.norm(partial_trace_bath(q, oracle_bath.dim_bath)) < 1e-13
    assert np.linalg.norm(q) > 1e-3


def test_natural_correlation_linear_in_coupling(model, oracle_bath):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    p0 = np.kron(rho_s, oracle_bath.rho_r)
    st1 = thermal_total_state(model, oracle_bath, rho_s, NaturalFamily(1.0), 0.1)
    st2 = thermal_total_state(model, oracle_bath, rho_s, NaturalFamily(1.0), 0.2)
    assert np.allclose(st2 - p0, 2.0 * (st1 - p0), atol=1e-14)
    # kappa and lambda enter only through their product
    half = thermal_total_state(model, oracle_bath, rho_s, NaturalFamily(0.5), 0.2)
    assert np.allclose(half, st1, atol=1e-14)


def test_natural_state_can_leave_positive_cone(model, oracle_bath):
    # for a pure system state the first-order family is not a density
    # matrix; measured min eigenvalue -0.0369 at lambda=0.1
    rho_s = bloch_to_density((1.0, 0.0, 0.0))
    st = thermal_total_state(model, oracle_bath, rho_s, NaturalFamily(1.0), 0.1)
    assert np.linalg.eigvalsh(st).min() < -1e-3
    assert complex(np.trace(st)) == pytest.approx(1.0, abs=1e-12)


def test_gibbs_total_reduces_to_system_gibbs(model, oracle_bath):
    beta = oracle_bath.spec.beta
    w = np.exp(-beta * np.array([0.5, -0.5]) * model.epsilon)
    gibbs_s = np.diag(w / w.sum()).astype(complex)
    dists = []
    for lam in (0.1, 0.05):
        g = gibbs_total_state(model, oracle_bath, lam)
        assert complex(np.trace(g)) == pytest.approx(1.0, abs=1e-12)
        red = partial_trace_bath(g, oracle_bath.dim_bath)
        dists.append(trace_distance(red, gibbs_s))
    # measured 5.9e-4 and 1.5e-4: the deviation is second order
    assert dists[0] < 2e-3
    assert dists[1] < 0.35 * dists[0]


def test_gibbs_consistency_shrinks_with_coupling(model, oracle_bath):
    # the constructed family matches the exact Gibbs correlation only to
    # first order, so the cancellation residual must shrink with lambda;
    # measured 4.27e-3 at 0.1 and 1.06e-3 at 0.05
    kern = truncated_kernel(oracle_bath)

    def gibbs_residual(lam):
        # largest cancellation residual with the correlated part Q taken
        # from the exact Gibbs state of the coupled Hamiltonian
        rho_g = gibbs_total_state(model, oracle_bath, lam)
        rho_s = partial_trace_bath(rho_g, oracle_bath.dim_bath)
        q = rho_g - np.kron(rho_s, oracle_bath.rho_r)
        d1 = delta_rho1(model, kern, lam, rho_s, CANCEL_TIMES)
        d2 = delta_rho2_direct(model, oracle_bath, q, lam, CANCEL_TIMES)
        return float(np.max(_relative_residuals(d1, d2)))

    res1 = gibbs_residual(0.1)
    res2 = gibbs_residual(0.05)
    assert res1 < 0.01
    assert res2 < 0.35 * res1


def test_relative_residuals_refuse_a_degenerate_cancellation():
    # a NaN or an all-zero correction passed as a perfect cancellation
    # of either sign
    d = np.ones((3, 2, 2), dtype=complex)
    assert np.all(_relative_residuals(d, -d) == 0.0)
    for bad in (np.full_like(d, np.nan), np.zeros_like(d)):
        with pytest.raises(ValueError, match="corrections"):
            _relative_residuals(bad, -d)


def test_evolve_exact_free_precession(model, oracle_bath):
    rho_s = bloch_to_density((1.0, 0.0, 0.0))
    h = build_total_hamiltonian(model, oracle_bath, 0.0)
    rho0 = thermal_total_state(model, oracle_bath, rho_s, Product(), 0.0)
    times = np.array([0.0, 0.5 * np.pi, np.pi])
    traj = evolve_exact(h, rho0, times)
    assert np.allclose(traj.states[0], rho_s, atol=1e-12)
    assert np.allclose(
        traj.states[1], bloch_to_density((0.0, 1.0, 0.0)), atol=1e-10
    )
    assert np.allclose(
        traj.states[2], bloch_to_density((-1.0, 0.0, 0.0)), atol=1e-10
    )
    assert np.all(traj.min_eigenvalues >= -1e-10)
    assert np.all(traj.trace_errors < 1e-12)


def test_cancellation_residuals(model, oracle_bath):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    reports = cancellation_test(model, oracle_bath, rho_s, 0.1, CANCEL_TIMES)
    assert list(reports) == [-1, 1]
    good, bad = reports[-1], reports[1]
    assert good["sign"] == -1 and bad["sign"] == 1
    assert good["max_residual"] < 1e-8
    assert len(good["residuals"]) == len(CANCEL_TIMES)
    # the wrong sign doubles the first-order term instead of removing it
    assert bad["max_residual"] == pytest.approx(2.0, abs=0.05)


def test_pin_natural_sign(model, oracle_bath):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    sign, reports = pin_natural_sign(model, oracle_bath, rho_s, 0.1, CANCEL_TIMES)
    assert sign == -1
    assert reports[-1]["max_residual"] < 1e-8
    assert reports[1]["max_residual"] > 1.0


def test_pin_natural_sign_ambiguity_raises(model, oracle_bath, monkeypatch):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    monkeypatch.setattr(oracle, "CANCELLATION_TOL", 1e-20)
    with pytest.raises(OracleConsistencyError, match="no sign"):
        pin_natural_sign(model, oracle_bath, rho_s, 0.1, CANCEL_TIMES)
    monkeypatch.setattr(oracle, "CANCELLATION_TOL", 10.0)
    with pytest.raises(OracleConsistencyError, match="both signs"):
        pin_natural_sign(model, oracle_bath, rho_s, 0.1, CANCEL_TIMES)


def test_validate_scaling_order(model, oracle_bath):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    report = validate_scaling(model, oracle_bath, rho_s)
    # measured slope 3.99 with errors 8.5e-7 / 1.4e-5 / 2.2e-4: the
    # leading deficiency of the slipped propagation is O(lambda^4)
    assert report["slope"] >= 2.7
    errs = report["errors"]
    assert all(b > a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2
    assert report["bath"]["fock_cutoff"] == 5
    assert report["lambdas"] == pytest.approx([0.04, 0.08, 0.16])


def test_validate_scaling_recurrence_guard(model, oracle_bath):
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    with pytest.raises(ValueError, match="recurrence"):
        validate_scaling(model, oracle_bath, rho_s, t_star=20.0)


def test_short_time_markovianity_contrast(model, oracle_bath):
    # measured transients at lambda=0.2: product start strays 3.4e-2
    # from the semigroup, the correlated start only 2.8e-4
    rho_s = bloch_to_density((1.0, 0.0, 0.0))
    out = short_time_markovianity(
        model, oracle_bath, rho_s, 0.2, np.linspace(0.05, 1.5, 8)
    )
    worst_product = max(out["dist_product"])
    worst_natural = max(out["dist_natural"])
    assert worst_product > 0.01
    assert worst_natural < 0.05 * worst_product


def test_resonant_mode_rejected(model):
    # a mode sitting exactly on the system gap makes the correlation
    # construction secular, which the builder must refuse
    spec = DiscreteModes(modes=((1.0, 0.3), (1.6, 0.3)), beta=12.0)
    bath = TruncatedBath(spec, 5)
    rho_s = bloch_to_density((0.6, 0.0, 0.2))
    with pytest.raises(KernelNotIntegrableError):
        thermal_total_state(model, bath, rho_s, NaturalFamily(1.0), 0.1)


# -- batched oracle kernels against dense per-time references ------------

SEEDS = st.integers(0, 2**32 - 1)


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _small_bath(freqs, couplings, fock_cutoff):
    # beta = 40 keeps the Fock tail of every mode with w >= 0.5 below 1e-8
    return TruncatedBath(DiscreteModes(tuple(zip(freqs, couplings)), beta=40.0), fock_cutoff)


small_baths = st.integers(1, 2).flatmap(
    lambda n: st.builds(
        _small_bath,
        st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.integers(1, 2),
    )
)


def _evolve_dense(h, rho0, times):
    """Per-time V e^{-i w t} V^dag rho V e^{i w t} V^dag, partial-traced."""
    w, v = np.linalg.eigh(h)
    nb = h.shape[0] // 2
    out = []
    for t in times:
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        out.append(partial_trace_bath(u @ rho0 @ u.conj().T, nb))
    return np.array(out)


def _hidden_block_hamiltonian(rng, dim, n_sectors):
    """Random Hermitian H that couples only states of equal random sector
    label, under a random permutation of the basis; returns H and its
    sectors as sets of indices."""
    labels = rng.integers(0, n_sectors, size=dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T) * (labels[:, None] == labels[None, :])
    perm = rng.permutation(dim)
    h = h[np.ix_(perm, perm)]
    labels = labels[perm]
    return h, {frozenset(np.flatnonzero(labels == s)) for s in set(labels)}


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS, nb=st.integers(1, 6), n_sectors=st.integers(1, 5), n_times=st.integers(1, 6)
)
def test_evolve_exact_matches_dense_reference(seed, nb, n_sectors, n_times):
    # one sector is a dense H; more give a hidden block pattern
    rng = np.random.default_rng(seed)
    dim = 2 * nb
    h, sectors = _hidden_block_hamiltonian(rng, dim, n_sectors)
    assert {frozenset(b) for b in hamiltonian_blocks(h)} == sectors
    starts = np.stack([_random_density(rng, dim) for _ in range(2)])
    times = rng.uniform(0.0, 5.0, size=n_times)
    trajs = evolve_exact(h, starts, times)
    assert len(trajs) == 2
    for rho0, traj in zip(starts, trajs):
        ref = _evolve_dense(h, rho0, times)
        assert np.max(np.abs(np.array(traj.states) - ref)) < 1e-12
        # one start alone gives the same trajectory as in the stack
        single = evolve_exact(h, rho0, times)
        assert np.array_equal(np.array(single.states), np.array(traj.states))


def test_spin_boson_parity_blocks(model, oracle_bath):
    # H commutes with S^z x (-1)^N: two sectors of dim / 2 at lam != 0,
    # and at lam = 0 every basis state is its own block
    dim = 2 * oracle_bath.dim_bath
    n_total = sum(np.diag(b.conj().T @ b).real for b in oracle_bath.lowering)
    parity = np.kron([1, -1], (-1) ** np.round(n_total).astype(int))
    blocks = hamiltonian_blocks(build_total_hamiltonian(model, oracle_bath, 0.16))
    assert [b.size for b in blocks] == [dim // 2, dim // 2]
    for b in blocks:
        assert np.unique(parity[b]).size == 1
    blocks = hamiltonian_blocks(build_total_hamiltonian(model, oracle_bath, 0.0))
    assert [b.tolist() for b in blocks] == [[i] for i in range(dim)]


def test_real_total_hamiltonian(model, oracle_bath):
    # H is real symmetric, so the oracle's eigensolves are real ones; the
    # same H as a complex Hermitian matrix evolves to the same states
    bath = _small_bath((0.7, 1.9), (0.4, 0.3), 2)
    h = build_total_hamiltonian(model, bath, 0.3)
    assert h.dtype == np.float64 and np.array_equal(h, h.T)
    assert build_total_hamiltonian(model, oracle_bath, 0.16).dtype == np.float64
    rho0 = thermal_total_state(model, bath, bloch_to_density((0.5, 0.2, 0.1)), Product(), 0.3)
    times = np.linspace(0.0, 4.0, 5)
    real = np.array(evolve_exact(h, rho0, times).states)
    cplx = np.array(evolve_exact(h.astype(complex), rho0, times).states)
    assert np.max(np.abs(real - cplx)) < 1e-13


def test_evolve_exact_time_blocks(model, monkeypatch):
    # blocks of output times must not change any time's state
    bath = _small_bath((0.7, 1.9), (0.4, 0.3), 2)
    h = build_total_hamiltonian(model, bath, 0.3)
    rho0 = thermal_total_state(model, bath, bloch_to_density((0.5, 0.2, 0.1)), Product(), 0.3)
    times = np.linspace(0.0, 4.0, 11)
    whole = np.array(evolve_exact(h, rho0, times).states)
    monkeypatch.setattr("redfield_slippage.oracle.TIME_BLOCK", 3)
    blocked = np.array(evolve_exact(h, rho0, times).states)
    assert np.max(np.abs(blocked - whole)) < 1e-14
    ref = _evolve_dense(h, rho0, times)
    assert np.max(np.abs(blocked - ref)) < 1e-12


def test_evolve_exact_refuses_a_broken_reduction(model, monkeypatch):
    # each reduced state keeps the trace and Hermiticity of its start: a
    # NaN time and a wrong block pairing both break its trace
    bath = _small_bath((0.7, 1.9), (0.4, 0.3), 2)
    h = build_total_hamiltonian(model, bath, 0.3)
    rho0 = thermal_total_state(model, bath, bloch_to_density((0.5, 0.2, 0.1)), Product(), 0.3)
    with pytest.raises(OracleConsistencyError, match="trace"):
        evolve_exact(h, rho0, [0.5, np.nan])
    eigh_blocks = oracle._eigh_blocks

    def swapped(h_total):
        # the two parity sectors, each paired with the other's columns
        w, v, pairs = eigh_blocks(h_total)
        (rows_a, cols_a), (rows_b, cols_b) = pairs
        return w, v, [(rows_a, cols_b), (rows_b, cols_a)]

    monkeypatch.setattr(oracle, "_eigh_blocks", swapped)
    with pytest.raises(OracleConsistencyError, match="trace"):
        evolve_exact(h, rho0, [0.5, 1.0])


def test_evolve_exact_refuses_a_non_hermitian_start(model):
    # one off-diagonal entry without its conjugate keeps the start's trace
    # but breaks its Hermiticity, which its reduced states then lose too
    bath = _small_bath((0.7, 1.9), (0.4, 0.3), 2)
    nb = bath.dim_bath
    h = build_total_hamiltonian(model, bath, 0.3)
    rho0 = thermal_total_state(model, bath, bloch_to_density((0.5, 0.2, 0.1)), Product(), 0.3)
    bad = rho0.copy()
    bad[0, nb] += 1e-6
    assert np.trace(bad) == np.trace(rho0)
    evolve_exact(h, rho0, [0.5, 1.0])
    with pytest.raises(OracleConsistencyError, match="Hermiticity"):
        evolve_exact(h, bad, [0.5, 1.0])


def _natural_q_dense(model, bath, rho_s, lam, kappa):
    eps = model.epsilon
    p0 = np.kron(rho_s, bath.rho_r)
    w_mat = np.zeros_like(p0)
    for r in range(bath.n_modes):
        om, nu = bath.frequencies[r], bath.couplings[r]
        bop = bath.lowering[r]
        bdag = bop.conj().T
        for op, freq in (
            (np.kron(SP, bdag), -(eps + om)),
            (np.kron(SP, bop), om - eps),
            (np.kron(SM, bdag), eps - om),
            (np.kron(SM, bop), eps + om),
        ):
            w_mat += (nu / 2.0) * (1j / freq) * (op @ p0 - p0 @ op)
    return 1j * lam * kappa * w_mat


@settings(max_examples=30, deadline=None)
@given(
    bath=small_baths,
    eps=st.floats(0.2, 3.0),
    seed=SEEDS,
    lam=st.floats(0.01, 0.5),
    kappa=st.floats(0.0, 1.0),
)
def test_natural_q_matches_dense_kron(bath, eps, seed, lam, kappa):
    # keep every sector frequency well away from resonance
    assume(np.min(np.abs(bath.frequencies - eps)) > 0.05)
    model = SystemModel(epsilon=eps)
    rho_s = _random_density(np.random.default_rng(seed), 2)
    got = _natural_q(model, bath, rho_s, lam, kappa)
    ref = _natural_q_dense(model, bath, rho_s, lam, kappa)
    assert np.max(np.abs(got - ref)) < 1e-12


def _natural_q_kron_sum(model, bath, rho_s, lam, kappa):
    """The sector sums of `_natural_q`, accumulated through one Kronecker
    product per system operator and side."""
    eps = model.epsilon
    nb = bath.dim_bath
    bath_sum = np.zeros((2, nb, nb), dtype=complex)
    for r in range(bath.n_modes):
        om, nu = bath.frequencies[r], bath.couplings[r]
        bop = bath.lowering[r]
        bdag = bop.conj().T
        for s_idx, b_op, freq in (
            (0, bdag, -(eps + om)),
            (0, bop, om - eps),
            (1, bdag, eps - om),
            (1, bop, eps + om),
        ):
            bath_sum[s_idx] += (nu / 2.0) * (1j / freq) * b_op
    p = bath.thermal_probs
    w_mat = np.zeros((2 * nb, 2 * nb), dtype=complex)
    for s_op, b_sum in zip((SP, SM), bath_sum):
        w_mat += np.kron(s_op @ rho_s, b_sum * p) - np.kron(rho_s @ s_op, p[:, None] * b_sum)
    return 1j * lam * kappa * w_mat


@settings(max_examples=30, deadline=None)
@given(
    bath=small_baths,
    eps=st.floats(0.2, 3.0),
    seed=SEEDS,
    lam=st.floats(0.01, 0.5),
    kappa=st.floats(0.0, 1.0),
)
def test_natural_q_blocks_equal_kron_sum(bath, eps, seed, lam, kappa):
    # the system blocks hold the entries and sums of the Kronecker form
    assume(np.min(np.abs(bath.frequencies - eps)) > 0.05)
    model = SystemModel(epsilon=eps)
    rho_s = _random_density(np.random.default_rng(seed), 2)
    got = _natural_q(model, bath, rho_s, lam, kappa)
    assert np.array_equal(got, _natural_q_kron_sum(model, bath, rho_s, lam, kappa))


@settings(max_examples=30, deadline=None)
@given(bath=small_baths, eps=st.floats(0.2, 3.0), lam=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_total_hamiltonian_blocks_equal_kron(bath, eps, lam):
    # at lam = 0 every basis state is its own block of H
    model = SystemModel(epsilon=eps)
    nb = bath.dim_bath
    ref = (
        np.kron(model.hamiltonian.real, np.eye(nb))
        + np.kron(np.eye(2), np.diag(bath.bath_energies))
        + lam * np.kron(model.coupling.real, bath.coupling_operator.real)
    )
    assert np.array_equal(build_total_hamiltonian(model, bath, lam), ref)


def _delta_rho2_all_entries(model, bath, q_corr, lam, times):
    """Per-time sum over every bath matrix element, one phi matrix per
    system energy difference."""
    eps = model.epsilon
    e_sys = np.array([0.5 * eps, -0.5 * eps])
    e_bath = bath.bath_energies
    nb = bath.dim_bath
    y = bath.coupling_operator
    qt = np.asarray(q_corr, dtype=complex).reshape(2, nb, 2, nb)
    x = SX
    out = []
    for t in times:

        def pmat(de):
            return phi(1j * (de + (e_bath[:, None] - e_bath[None, :])), float(t))

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
    return np.array(out)


@settings(max_examples=30, deadline=None)
@given(
    bath=small_baths,
    eps=st.floats(0.2, 3.0),
    seed=SEEDS,
    lam=st.floats(0.01, 0.5),
    n_times=st.integers(1, 5),
)
def test_delta_rho2_direct_matches_all_entries_loop(bath, eps, seed, lam, n_times):
    rng = np.random.default_rng(seed)
    model = SystemModel(epsilon=eps)
    dim = 2 * bath.dim_bath
    q = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    times = np.concatenate(([0.0], rng.uniform(0.0, 6.0, size=n_times)))
    got = delta_rho2_direct(model, bath, q, lam, times)
    ref = _delta_rho2_all_entries(model, bath, q, lam, times)
    assert got.shape == (times.size, 2, 2)
    assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


finite_complex = st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(finite_complex, min_size=1, max_size=4),
    times=st.lists(
        st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e-5), st.just(0.0)),
        min_size=1,
        max_size=5,
    ),
)
def test_phi_time_array_matches_scalar_calls(a, times):
    a = np.array(a, dtype=complex)
    out = phi(a[None, :], np.array(times)[:, None])
    assert out.shape == (len(times), a.size)
    for i, t in enumerate(times):
        for j, aj in enumerate(a):
            assert out[i, j] == phi(complex(aj), t)
        assert np.array_equal(out[i], phi(a, t))


def test_phi_time_array_infinite_horizon():
    a = np.array([-2.0, -1.0 + 5.0j])
    out = phi(a, np.array([[1.5], [np.inf]]))
    assert np.array_equal(out[1], -1.0 / a)
    assert out[0, 0] == phi(-2.0, 1.5)
    with pytest.raises(ValueError):
        phi(np.array([-1.0, 1j]), np.array([np.inf]))
    with pytest.raises(ValueError):
        phi(-1.0, np.array([1.0, -2.0]))


def test_short_time_markovianity_diagonalizes_once(model, monkeypatch):
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        calls.append(np.shape(m))
        return real_eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    bath = _small_bath((0.7, 1.9), (0.4, 0.3), 2)
    out = short_time_markovianity(
        model, bath, bloch_to_density((1.0, 0.0, 0.0)), 0.2, np.linspace(0.05, 1.5, 4)
    )
    assert len(out["dist_product"]) == len(out["dist_natural"]) == 4
    # one eigensolve per parity sector, shared by both starts
    assert calls == [(bath.dim_bath, bath.dim_bath)] * 2
