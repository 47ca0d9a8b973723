import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from redfield_slippage.bath import (
    DiscreteModes,
    KernelNotIntegrableError,
    LorentzDrudeBath,
    PoleCollisionError,
    discrete_kernel,
    fit_exponential_mixture,
)
from redfield_slippage import master
from redfield_slippage.master import (
    PositivityScanner,
    SystemModel,
    _dissipate,
    _tcl2_drive,
    build_redfield_generator,
    golden_min,
    propagate_markovian,
    propagate_tcl2,
    stationary_state,
    trajectory_from_states,
)
from redfield_slippage.operators import (
    SM,
    SP,
    SX,
    SY,
    SZ,
    BlochVector,
    bloch_xyz,
    bloch_to_density,
    superoperator,
    trace_distance,
    unvec,
    vec,
)

from time_quadrature import half_fourier_quadrature

Z_STATIONARY = -0.46211715726000974  # -tanh(beta eps / 2) at beta = eps = 1


def test_system_model(model):
    assert np.allclose(model.hamiltonian, np.diag([0.5, -0.5]))
    assert np.allclose(model.coupling, [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        SystemModel(epsilon=0.0)
    with pytest.raises(ValueError):
        SystemModel(epsilon=-1.0)


def test_zero_coupling_generator(model, kernel):
    gen = build_redfield_generator(model, kernel, lam=0.0)
    assert np.linalg.norm(gen.lambda0, 2) == pytest.approx(0.0, abs=1e-15)
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    traj = propagate_markovian(gen, rho0, np.array([0.0, math.pi]))
    b = traj.blochs()[-1]
    # free precession takes +x to -x in half a period
    assert b.x == pytest.approx(-1.0, abs=1e-12)
    assert b.y == pytest.approx(0.0, abs=1e-12)
    assert b.z == pytest.approx(0.0, abs=1e-12)


def test_negative_coupling_is_refused(model, kernel):
    with pytest.raises(ValueError, match="lam must be non-negative"):
        build_redfield_generator(model, kernel, lam=-0.1)


def test_dissipator_is_traceless(generator, rng):
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = unvec(generator.lambda0 @ vec(a))
        assert abs(np.trace(out)) < 1e-14


def test_theta_against_quadrature(model, kernel):
    # theta = (S+ Gamma(-eps) + S- Gamma(eps)) / 2 with both transforms
    # recomputed by the independent time-domain route
    gp = half_fourier_quadrature(kernel, model.epsilon)
    gm = half_fourier_quadrature(kernel, -model.epsilon)
    gen = build_redfield_generator(model, kernel, lam=0.5)
    theta_ref = 0.5 * (np.asarray(SP) * gm + np.asarray(SM) * gp)
    assert np.max(np.abs(gen.theta - theta_ref)) < 1e-8


def _superop_from_map(fn, dim=2) -> np.ndarray:
    cols = []
    for j in range(dim * dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j % dim, j // dim] = 1.0
        cols.append(vec(fn(e)))
    return np.stack(cols, axis=1)


def redfield_generator_bruteforce(model, theta, lam) -> np.ndarray:
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


def test_generator_matches_bruteforce(model, kernel, generator):
    ref = redfield_generator_bruteforce(model, generator.theta, 0.5)
    assert np.max(np.abs(ref - generator.liouvillian.matrix)) < 1e-10


def test_lambda_scaling_is_quadratic(model, kernel):
    g1 = build_redfield_generator(model, kernel, lam=0.1)
    g2 = build_redfield_generator(model, kernel, lam=0.2)
    assert np.allclose(4.0 * g1.lambda0, g2.lambda0, atol=1e-15)


def _lambda_t(generator, t):
    """Lambda_t, the dissipator built on Theta_t, as a matrix on vec(rho)."""
    theta = generator.theta_tail(t)
    return superoperator(lambda rho: _dissipate(theta, rho)) * generator.lam**2


def test_lambda_t_limits(generator):
    # Lambda_t starts at Lambda_0 and dies out on the kernel memory scale
    assert np.max(np.abs(_lambda_t(generator, 0.0) - generator.lambda0)) < 1e-12
    tau = generator.kernel.tau_r_estimate
    late = _lambda_t(generator, 40.0 * tau)
    assert np.linalg.norm(late, 2) < 1e-8 * np.linalg.norm(generator.lambda0, 2)


def test_tcl2_drive_is_the_rotated_kron_dissipator(model, generator, rng):
    # R(tau)^dag Lambda_tau R(tau) vec(rho0), R(tau) = e^{-i tau [H_S, .]},
    # with Lambda_tau assembled from kron products on theta_tail(tau)
    h = model.hamiltonian
    x = model.coupling
    l_s = np.kron(np.eye(2), h) - np.kron(h.T, np.eye(2))
    rho0 = bloch_to_density((0.3, -0.4, 0.5))
    taus = rng.uniform(0.0, 6.0, size=7)
    drive = _tcl2_drive(generator, rho0, taus)
    for tau, d in zip(taus, drive):
        theta = generator.theta_tail(tau)
        td = theta.conj().T
        lam_tau = generator.lam**2 * (
            np.kron(np.eye(2), x @ theta)
            - np.kron(x.T, theta)
            - np.kron(td.T, x)
            + np.kron((td @ x).T, np.eye(2))
        )
        r = np.diag(np.exp(-1j * tau * np.diag(l_s)))
        ref = r.conj().T @ lam_tau @ r @ vec(rho0)
        assert np.max(np.abs(d - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_lambda_t_against_quadrature(model, kernel, generator):
    # rebuild theta_tail(t) from a direct tail integral of the kernel
    from scipy.integrate import quad

    t = 0.8
    eps = model.epsilon
    vals = {}
    for sigma in (1, -1):
        re, _ = quad(
            lambda u: (kernel.evaluate(u) * np.exp(1j * sigma * eps * u)).real,
            t, 80.0, limit=2000, epsabs=1e-12,
        )
        im, _ = quad(
            lambda u: (kernel.evaluate(u) * np.exp(1j * sigma * eps * u)).imag,
            t, 80.0, limit=2000, epsabs=1e-12,
        )
        vals[sigma] = re + 1j * im
    theta_ref = 0.5 * (np.asarray(SP) * vals[-1] + np.asarray(SM) * vals[+1])
    assert np.max(np.abs(generator.theta_tail(t) - theta_ref)) < 1e-7


def test_propagation_preserves_trace_and_hermiticity(generator, rng):
    v = rng.normal(size=3)
    v *= 0.9 / np.linalg.norm(v)
    rho0 = bloch_to_density(tuple(v))
    traj = propagate_markovian(generator, rho0, np.linspace(0.0, 30.0, 16))
    assert np.max(traj.trace_errors) < 1e-10
    for rho in traj.states:
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def test_propagation_semigroup(generator):
    rho0 = bloch_to_density((0.3, -0.4, 0.2))
    one = propagate_markovian(generator, rho0, np.array([0.0, 1.3])).states[-1]
    two = propagate_markovian(generator, one, np.array([0.0, 0.9])).states[-1]
    direct = propagate_markovian(generator, rho0, np.array([0.0, 2.2])).states[-1]
    assert trace_distance(two, direct) < 1e-12


def test_long_time_state(generator):
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    traj = propagate_markovian(generator, rho0, np.array([0.0, 200.0]))
    b = traj.blochs()[-1]
    assert abs(b.x) < 1e-8
    assert abs(b.y) < 1e-8
    # the certified kernel puts the fixed point within its rate error
    assert b.z == pytest.approx(Z_STATIONARY, abs=1e-12)


def test_stationary_state(generator):
    rho_ss = stationary_state(generator)
    resid = generator.liouvillian.matrix @ vec(rho_ss)
    assert np.linalg.norm(resid) < 1e-12
    assert abs(np.trace(rho_ss) - 1.0) < 1e-12
    x, y, _ = bloch_xyz(rho_ss)
    assert abs(x) < 1e-12 and abs(y) < 1e-12


def test_stationary_state_detailed_balance(model, kernel):
    gen = build_redfield_generator(model, kernel, lam=0.3)
    rho_ss = stationary_state(gen)
    ratio = (rho_ss[0, 0] / rho_ss[1, 1]).real
    # populations must thermalize to e^{-beta eps}
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-11)
    assert bloch_xyz(rho_ss)[2] == pytest.approx(Z_STATIONARY, abs=1e-11)


def test_stationary_state_degenerate_raises(model, kernel):
    gen = build_redfield_generator(model, kernel, lam=0.0)
    # every diagonal state is stationary at zero coupling
    with pytest.raises(ValueError):
        stationary_state(gen)


def test_stationary_state_takes_the_eigenvalue_set_to_zero(model, kernel):
    # the null eigenvalue is the one eigensystem set to exactly 0; a
    # spectrum without it is refused rather than taking its nearest
    gen = build_redfield_generator(model, kernel, lam=0.5)
    w, v, vinv, ok = gen.liouvillian.eigensystem()
    assert np.count_nonzero(w == 0.0) == 1
    gen.liouvillian._eig = (np.where(w == 0.0, 1e-13, w), v, vinv, ok)
    with pytest.raises(ValueError, match="no zero eigenvalue"):
        stationary_state(gen)


def test_positivity_scanner_diagnostics(model):
    # discrete modes never relax: a kernel diagnostic, not a bad value;
    # a coupling whose square underflows has no relaxation at all
    modes = discrete_kernel(DiscreteModes(((0.3, 0.1), (0.9, 0.1)), beta=1.0))
    with pytest.raises(KernelNotIntegrableError):
        PositivityScanner(build_redfield_generator(model, modes, 0.5))
    ld = fit_exponential_mixture(LorentzDrudeBath(omega_c=1.0, beta=1.0))
    for lam in (0.0, 1e-200):
        with pytest.raises(ValueError):
            PositivityScanner(build_redfield_generator(model, ld, lam))


@pytest.mark.parametrize("omega_c", [200.0, 1000.0])
def test_positivity_scanner_refuses_a_growing_mode(model, omega_c):
    # at lambda = 0.5 the Lamb shift of a large cutoff makes one generator
    # eigenvalue positive (+0.0023 at 200, +0.34 at 1000): the one-period
    # window pi / omega would have omega near 0
    kernel = fit_exponential_mixture(LorentzDrudeBath(omega_c=omega_c, beta=1.0))
    gen = build_redfield_generator(model, kernel, 0.5)
    assert np.max(gen.liouvillian.eigensystem()[0].real) > 0.0
    with pytest.raises(ValueError, match="every mode to decay"):
        PositivityScanner(gen)


def test_tcl2_kappa_one_equals_markovian(model, kernel, generator):
    # kappa = 1 cancels the memory drive exactly, so the two
    # propagators agree to integration tolerance, not just O(lam^3)
    rho0 = bloch_to_density((0.7, 0.1, -0.2))
    times = np.array([0.0, 2.0, 5.0])
    a = propagate_tcl2(generator, rho0, times, kappa=1.0)
    b = propagate_markovian(generator, rho0, times)
    for x, y in zip(a.states, b.states):
        assert trace_distance(x, y) < 1e-13


def test_tcl2_close_to_markovian_at_weak_coupling(model, kernel):
    gen = build_redfield_generator(model, kernel, lam=0.1)
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    times = np.array([0.0, 1.0, 4.0, 12.0])
    a = propagate_tcl2(gen, rho0, times, kappa=0.0)
    b = propagate_markovian(gen, rho0, times)
    worst = max(trace_distance(x, y) for x, y in zip(a.states, b.states))
    # the slippage is an O(lam^2) effect
    assert 1e-5 < worst < 10.0 * 0.1**2


def test_tcl2_trace_and_hermiticity(generator):
    rho0 = bloch_to_density((0.0, 0.8, 0.1))
    traj = propagate_tcl2(generator, rho0, np.linspace(0.0, 6.0, 7), kappa=0.3)
    assert np.max(traj.trace_errors) < 1e-10
    for rho in traj.states:
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.6),
    st.floats(-0.5, 1.5),
    st.floats(0.1, 40.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
)
def test_tcl2_matches_perturbative_solution(model, kernel, v, r, lam, kappa, t_end, fracs):
    # the quadrature and the closed form share no code below the kernel
    # terms, on random states, couplings and non-uniform time grids
    from redfield_slippage.corrections import NaturalFamily, perturbative_solution

    v = np.array(v)
    v *= r / max(math.hypot(*v), 1e-300)  # hypot does not underflow
    rho0 = bloch_to_density(tuple(v))
    times = np.sort(t_end * np.array(fracs))
    gen = build_redfield_generator(model, kernel, lam)
    traj = propagate_tcl2(gen, rho0, times, kappa=kappa)
    closed = perturbative_solution(model, kernel, lam, rho0, NaturalFamily(kappa), times)
    assert traj.err_est < 1e-9
    worst = max(trace_distance(a, b) for a, b in zip(traj.states, closed.states))
    assert worst < 1e-10


def _tcl2_kernel(draw, eps):
    """A Lorentz-Drude kernel, or one of 1-3 discrete modes off resonance."""
    beta = draw(st.floats(0.01, 30.0))
    if draw(st.booleans()):
        try:
            return fit_exponential_mixture(LorentzDrudeBath(draw(st.floats(0.03, 100.0)), beta))
        except PoleCollisionError:
            assume(False)
    modes = draw(st.lists(st.tuples(st.floats(0.03, 30.0), st.floats(0.01, 1.0)), min_size=1, max_size=3))
    assume(all(abs(w - eps) > 1e-3 * eps for w, _ in modes))
    return discrete_kernel(DiscreteModes(tuple(modes), beta=beta))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tcl2_one_refinement_meets_the_tolerance(data):
    # propagate_tcl2 refines its base panels once: the difference of
    # the two passes must certify every drawn bath, coupling and horizon
    eps = data.draw(st.floats(0.03, 30.0))
    kernel = _tcl2_kernel(data.draw, eps)
    lam = data.draw(st.floats(0.01, 3.0))
    kappa = data.draw(st.floats(-0.5, 1.5))
    t_end = data.draw(st.floats(0.1, 100.0))
    v = data.draw(st.tuples(st.floats(-0.57, 0.57), st.floats(-0.57, 0.57), st.floats(-0.57, 0.57)))
    gen = build_redfield_generator(SystemModel(eps), kernel, lam)
    # e^{tG} may overflow where a strongly coupled discrete bath makes
    # the generator grow; err_est is taken before it is applied
    with np.errstate(over="ignore", invalid="ignore"):
        traj = propagate_tcl2(gen, bloch_to_density(v), np.linspace(0.0, t_end, 11), kappa=kappa)
    assert traj.err_est < master.TCL2_TOL


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_state_has_the_bits_of_its_time_alone(data):
    # exp(tG) has one arithmetic: the state at times[k], from one start
    # shared by every time, does not change its last bits with the other
    # times asked for
    eps = data.draw(st.floats(0.03, 30.0))
    kernel = _tcl2_kernel(data.draw, eps)
    gen = build_redfield_generator(SystemModel(eps), kernel, data.draw(st.floats(0.0, 1.0)))
    v = data.draw(st.tuples(st.floats(-0.57, 0.57), st.floats(-0.57, 0.57), st.floats(-0.57, 0.57)))
    rho0 = bloch_to_density(v)
    times = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=2, max_size=12)))
    sop = gen.liouvillian
    # a strongly coupled discrete bath can make exp(tG) grow
    with np.errstate(over="ignore", invalid="ignore"):
        states = propagate_markovian(gen, rho0, times).states
        cols = sop.expm_action_many(times, vec(rho0))
        for k in range(times.size):
            alone = propagate_markovian(gen, rho0, times[k : k + 1]).states[0]
            assert np.array_equal(states[k], alone, equal_nan=True)
            col = sop.expm_action_many(times[k : k + 1], vec(rho0))[:, 0]
            assert np.array_equal(cols[:, k], col, equal_nan=True)


def test_tcl2_does_not_use_the_closed_form_route(model, kernel, monkeypatch):
    # criterion 9 compares the two routes, so the quadrature must not reach
    # the slippage integrals I, the variational D, the corrections built
    # on them or the scalar theta_tail
    import redfield_slippage.bath as bath
    import redfield_slippage.corrections as corrections
    import redfield_slippage.regions as regions
    from redfield_slippage.master import RedfieldGenerator

    def boom(*args, **kwargs):
        raise AssertionError("closed-form route called")

    for name in ("slippage", "i_d"):
        monkeypatch.setattr(bath.KernelIntegrals, name, boom)
    monkeypatch.setattr(regions, "VariationalTables", boom)
    for name in ("delta_rho1", "perturbative_solution"):
        monkeypatch.setattr(corrections, name, boom)
    monkeypatch.setattr(RedfieldGenerator, "theta_tail", boom)
    gen = build_redfield_generator(model, kernel, 0.4)
    traj = propagate_tcl2(gen, bloch_to_density((0.2, 0.5, 0.3)), np.linspace(0.0, 4.0, 5))
    assert traj.err_est < 1e-9


def test_tcl2_err_est_and_input_guards(generator, monkeypatch):
    rho0 = bloch_to_density((0.0, 0.8, 0.1))
    times = np.linspace(0.0, 5.0, 6)
    assert propagate_markovian(generator, rho0, times).err_est == 0.0
    # exactly two passes: the tolerance only judges their difference
    traj = propagate_tcl2(generator, rho0, times)
    with monkeypatch.context() as m:
        m.setattr(master, "TCL2_TOL", 0.0)
        strict = propagate_tcl2(generator, rho0, times)
    assert np.array_equal(strict.states, traj.states)
    assert strict.err_est == traj.err_est
    # kappa = 1 has no drive to integrate
    assert propagate_tcl2(generator, rho0, times, kappa=1.0).err_est == 0.0
    for bad in ([0.0, np.nan], [0.0, np.inf], [1.0, 0.5], [-1.0, 0.0], []):
        with pytest.raises(ValueError):
            propagate_tcl2(generator, rho0, np.array(bad))
    for bad in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="times must be finite"):
            propagate_markovian(generator, rho0, np.array(bad))
    with pytest.raises(ValueError, match="times must be non-negative"):
        propagate_markovian(generator, rho0, np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        propagate_tcl2(generator, rho0, times, kappa=np.nan)


def test_trajectory_csv():
    times = np.array([0.0, 1.0])
    states = [bloch_to_density((1.0, 0.0, 0.0)), bloch_to_density((0.0, 0.5, 0.0))]
    traj = trajectory_from_states(times, states)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x,y,z,min_eig,trace_err"
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[4]) == pytest.approx(0.0, abs=1e-12)
    second = lines[2].split(",")
    assert float(second[2]) == pytest.approx(0.5)
    assert float(second[4]) == pytest.approx(0.25)
    # shortest round-trip floats: the repr of each double
    assert second[0] == "1.0" and second[2] == "0.5"


@pytest.mark.parametrize("mode", ["markov", "tcl2"])
def test_trajectory_csv_matches_row_wise_repr(generator, mode):
    # a real trajectory, whose columns repeat values (the t = 0 row, the
    # zero trace errors): the text of the former row-by-row formatter
    times = np.linspace(0.0, 20.0, 200)
    rho0 = bloch_to_density((0.0, 0.8, 0.1))
    if mode == "markov":
        traj = propagate_markovian(generator, rho0, times)
    else:
        traj = propagate_tcl2(generator, rho0, times, kappa=0.3)
    cols = (traj.times, *bloch_xyz(traj.states), traj.min_eigenvalues, traj.trace_errors)
    rows = [",".join(map(repr, row)) for row in np.column_stack(cols).tolist()]
    assert traj.to_csv() == "\n".join(["t,x,y,z,min_eig,trace_err"] + rows) + "\n"


_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*(_finite,) * 9), min_size=0, max_size=12))
def test_trajectory_from_states_matches_per_state_formulas(rows):
    """The array expressions give, bit for bit, the per-state
    Bloch vector and |tr rho - 1| of a Python complex, and the CSV
    is the per-row repr of each double."""
    times = np.array([r[0] for r in rows])
    states = np.array(
        [[[r[1] + 1j * r[2], r[3] + 1j * r[4]], [r[5] + 1j * r[6], r[7] + 1j * r[8]]]
         for r in rows],
        dtype=complex,
    ).reshape(len(rows), 2, 2)
    traj = trajectory_from_states(times, states)
    assert traj.states.shape == (len(rows), 2, 2)
    lines = ["t,x,y,z,min_eig,trace_err"]
    for k, s in enumerate(states):
        b = BlochVector(*(float(c) for c in bloch_xyz(s)))
        m = 0.5 * (1.0 - b.norm())
        e = abs(complex(np.trace(s)) - 1.0)
        assert traj.blochs()[k] == b
        assert traj.min_eigenvalues[k] == m
        assert traj.trace_errors[k] == e
        lines.append(",".join(repr(float(v)) for v in (times[k], b.x, b.y, b.z, m, e)))
    assert traj.to_csv() == "\n".join(lines) + "\n"


def test_golden_min():
    # the tolerance of the 32 golden-section iterations this search
    # replaced: cubic steps are exact on a quadratic and converge within
    # the steps on a cosh, and on a cosine whose bracket reaches far to
    # one side
    tol = 3.0 * 0.6180339887498949**32
    cases = [
        (lambda u: ((u - 1.3) ** 2 + 0.25, 2.0 * (u - 1.3)), 0.0, 3.0, 1.3, 0.25),
        (lambda u: (np.cosh(u - 1.3) - 0.75, np.sinh(u - 1.3)), 0.0, 3.0, 1.3, 0.25),
        (lambda u: (-np.cos(u), np.sin(u)), -1.0, 2.5, 0.0, -1.0),
    ]
    for f, lo, hi, x_min, f_min in cases:
        x, fx = golden_min(f, lo, hi)
        assert x == pytest.approx(x_min, abs=tol)
        assert fx == pytest.approx(f_min, abs=1e-12)


def golden_min_scalar(f, lo, hi, iters):
    """Reference slope search on one bracket, in numpy scalars: cubic
    steps where the end slopes change sign, golden-section steps toward
    the lower end elsewhere."""
    invphi = 0.6180339887498949

    def cubic(p, fp, dp, q, fq, dq):
        with np.errstate(all="ignore"):
            d1 = dp + dq - 3.0 * ((fq - fp) / (q - p))
            d2 = np.sign(q - p) * np.sqrt(d1 * d1 - dp * dq)
            return q - (q - p) * ((dq + d2 - d1) / (dq - dp + 2.0 * d2))

    a, b = np.float64(lo), np.float64(hi)
    (fa, da), (fb, db) = f(a), f(b)
    best_t, best_f = (b, fb) if fb < fa else (a, fa)
    latest = [(a, fa, da), (b, fb, db)]
    for _ in range(iters):
        if da < 0.0 < db:
            x = cubic(*latest[0], *latest[1])
            if not a < x < b:
                x = cubic(a, fa, da, b, fb, db)
                if not np.isfinite(x):
                    x = 0.5 * (a + b)
        elif fa <= fb:
            x = b - invphi * (b - a)
        else:
            x = a + invphi * (b - a)
        fx, dx = f(x)
        if fx < best_f:
            best_t, best_f = x, fx
        if dx < 0.0:
            a, fa, da = x, fx, dx
        else:
            b, fb, db = x, fx, dx
        latest = [latest[1], (x, fx, dx)]
    return best_t, best_f


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-5.0, 5.0, **_finite),  # bracket start
            st.floats(1e-6, 10.0, **_finite),  # bracket width
            st.floats(-6.0, 16.0, **_finite),  # minimizer, possibly outside
            st.floats(0.0, 3.0, **_finite),  # quadratic weight
            st.floats(0.0, 3.0, **_finite),  # kink weight
            st.floats(-1.0, 1.0, **_finite),  # offset
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 48),
)
def test_golden_min_batch_matches_scalar_loop(cases, iters):
    lo, width, c, a, b, d = (np.array(col) for col in zip(*cases))
    hi = lo + width

    def f(t):
        return a * (t - c) * (t - c) + b * np.abs(t - c) + d, 2.0 * a * (t - c) + b * np.sign(t - c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master, "GOLDEN_ITERS", iters)
        t_b, f_b = golden_min(f, lo, hi)
    for k in range(len(cases)):

        def fk(t, k=k):
            u = t - c[k]
            return a[k] * u * u + b[k] * np.abs(u) + d[k], 2.0 * a[k] * u + b[k] * np.sign(u)

        t_s, f_s = golden_min_scalar(fk, lo[k], hi[k], iters)
        assert t_b[k] == t_s
        assert f_b[k] == f_s


def test_min_eig_slope_matches_central_differences(generator, rng):
    # the slope -(r . r') / (2 |r|) of the scanner's objective against
    # (f(t + h) - f(t - h)) / 2h with h = 1e-6 over the scanned window
    scanner = PositivityScanner(generator)
    t = np.linspace(0.0, scanner.times[-1], 25) + 1e-3
    h = 1e-6
    for _ in range(5):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        y0 = np.repeat(vec(bloch_to_density(tuple(v)))[None] @ scanner._vinv.T, t.size, axis=0)
        _, slope = scanner._min_eig_at(t, y0)
        up, dn = (scanner._min_eig_at(t + s, y0)[0] for s in (h, -h))
        assert np.max(np.abs(slope - (up - dn) / (2.0 * h))) < 1e-9


def test_n_membership_stationary_state_is_out(generator):
    rho_ss = stationary_state(generator)
    res = PositivityScanner(generator).evaluate(rho_ss[None])
    assert not res.in_n[0]
    assert np.isnan(res.witness_time[0])
    assert res.min_eigenvalue_attained[0] > 0.0


def test_n_membership_mixed_state_is_out(generator):
    res = PositivityScanner(generator).evaluate(bloch_to_density((0.2, 0.1, -0.3))[None])
    assert not res.in_n[0]


def test_n_membership_pure_transverse_state_is_in(generator):
    res = PositivityScanner(generator).evaluate(bloch_to_density((1.0, 0.0, 0.0))[None])
    assert res.in_n[0]
    assert res.witness_time[0] > 0.0
    assert res.min_eigenvalue_attained[0] < -1e-6


def test_n_membership_some_pure_state_detected(generator):
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    scanner = PositivityScanner(generator)
    hits = 0
    for a in angles:
        rho = bloch_to_density((math.cos(a), 0.0, math.sin(a)))
        if scanner.evaluate(rho[None]).in_n[0]:
            hits += 1
    assert hits >= 1


def test_positivity_scanner_refines_below_grid(generator):
    # the refined minimum lies strictly below the lowest one sampled on
    # the scan's time grid, which it would equal without the refinement
    scanner = PositivityScanner(generator)
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    res = scanner.evaluate(rho0[None])
    coarse = np.min(propagate_markovian(generator, rho0, scanner.times).min_eigenvalues)
    assert res.min_eigenvalue_attained[0] < coarse
    assert res.in_n[0]
    assert res.min_eigenvalue_attained[0] <= -1e-6


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_positivity_scanner_refines_the_intervals_its_bound_cannot_clear(
    model, kernel, lam, monkeypatch
):
    # every bracket handed to golden_min is a sample interval [t_j, t_j+1]
    # whose bound 0.5 (1 - sqrt(g_j)) lies below the state's lowest
    # sample, and every such interval is one. |r|^2 = sum_jk (b_j . b_k)
    # c_j c_k, so g_j is the larger end value of |r|^2 plus K dt^2 / 8,
    # rebuilt here from the eigensystem; lambda = 3 takes the
    # strong-damping grid
    gen = build_redfield_generator(model, kernel, lam)
    scanner = PositivityScanner(gen)
    t = scanner.times
    w, v, vinv, _ = gen.liouvillian.eigensystem()
    b = np.einsum("jab,kba->jk", unvec(v.T), 2.0 * np.array([SX, SY, SZ]))
    curv = np.abs(b @ b.T) * np.abs(w[:, None] + w) ** 2
    brackets = []

    def recording(f, lo, hi):
        brackets.append((np.array(lo), np.array(hi)))
        return golden_min(f, lo, hi)

    monkeypatch.setattr(master, "golden_min", recording)
    rng = np.random.default_rng(11)
    xyz = rng.normal(size=(12, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    xyz[6:] *= rng.uniform(0.0, 1.0, size=(6, 1))
    rhos = np.concatenate((bloch_to_density(xyz), stationary_state(gen)[None]))
    refined = 0
    for rho in rhos:
        brackets.clear()
        scanner.evaluate(rho[None])
        (lo, hi), = brackets
        j = np.searchsorted(t, lo)
        assert np.array_equal(t[j], lo) and np.array_equal(t[j + 1], hi)
        c = np.exp(np.outer(t, w)) * (vinv @ vec(rho))
        r2 = np.sum(np.abs(c @ b) ** 2, axis=1)
        lowest = np.min(0.5 * (1.0 - np.sqrt(r2)))
        a = np.abs(c[:-1])
        g = np.maximum(r2[:-1], r2[1:]) + np.einsum("ij,jk,ik->i", a, curv, a) * np.diff(t) ** 2 / 8.0
        bound = 0.5 * (1.0 - np.sqrt(g))
        picked = np.zeros(t.size - 1, dtype=bool)
        picked[j] = True
        assert np.all(bound[picked] < lowest + 1e-12)
        assert not np.any(bound[~picked] < lowest - 1e-12)
        refined += j.size
    # the stationary state has K = 0 and hands golden_min no bracket
    assert j.size == 0 and refined > 0


def _bloch_generator(generator):
    """(A, b) of dr/dt = A r + b for the Bloch vector r, where
    rho = I/2 + x S^x + y S^y + z S^z."""
    g = generator.liouvillian.matrix
    a = np.column_stack([np.array(bloch_xyz(unvec(g @ vec(op)))) for op in (SX, SY, SZ)])
    return a, np.array(bloch_xyz(unvec(g @ vec(0.5 * np.eye(2)))))


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(0.1, 10.0),
    omega_c=st.floats(0.1, 10.0),
    beta=st.floats(0.1, 10.0),
    lam=st.floats(0.01, 3.0),
)
def test_generator_separates_z_from_x_y(eps, omega_c, beta, lam):
    # the precondition of PositivityScanner's one-period window: z relaxes
    # on its own at rate g1, nothing drives x or y, and the x-y block has
    # trace -g1, so the x-y pair decays at g1 / 2
    try:
        kern = fit_exponential_mixture(LorentzDrudeBath(omega_c=omega_c, beta=beta))
    except PoleCollisionError:
        assume(False)
    a, b = _bloch_generator(build_redfield_generator(SystemModel(eps), kern, lam))
    coupling = np.abs([a[0, 2], a[1, 2], a[2, 0], a[2, 1], b[0], b[1]])
    assert np.max(coupling) <= 1e-12 * np.max(np.abs(a))
    assert a[0, 0] + a[1, 1] == pytest.approx(a[2, 2], rel=1e-12)


def test_positivity_scanner_nodes_do_not_grow_as_lambda_shrinks(model, kernel):
    # one period of the x-y pair, or 48 nodes in e^{-k t} once the damping
    # is strong: the scan's cost does not depend on the coupling
    for lam in np.geomspace(0.01, 10.0, 31):
        assert PositivityScanner(build_redfield_generator(model, kernel, lam)).times.size <= 48


# a state in the ball as (azimuth, cos polar angle, radius), often pure
_ball_state = st.tuples(
    st.floats(0.0, 2.0 * np.pi), st.floats(-1.0, 1.0), st.just(1.0) | st.floats(0.0, 1.0)
)


@settings(max_examples=30, deadline=None)
@given(
    log_lam=st.floats(math.log(0.02), math.log(3.0)),
    states=st.lists(_ball_state, min_size=1, max_size=6),
)
# a pure state whose dip, -6.4e-5 at t = 0.373, lies between two samples
# that are not local minima
@example(log_lam=-1.5, states=[(0.125, 0.2109375, 1.0)])
def test_positivity_scan_matches_dense_brute_force(model, kernel, log_lam, states):
    # the brute force samples the memoryless trajectory every
    # (2 pi / eps) / 1024, out to 30 times the slowest decay or 64 system
    # periods, whichever is shorter. Its values are attained, so the scan,
    # which also reaches the stationary limit, is never above it; a dip's
    # bottom falls between its samples by up to about 1e-5, so in_N
    # agrees wherever the brute-force minimum is further than 1e-4 from 0.
    # The coupling runs from weak damping across the switch to the
    # strong-damping grid, near lambda = 1.22.
    lam = math.exp(log_lam)
    gen = build_redfield_generator(model, kernel, lam)
    rhos = np.array(
        [
            bloch_to_density((r * s * math.cos(phi), r * s * math.sin(phi), r * c))
            for phi, c, r in states
            for s in [math.sqrt(1.0 - c * c)]
        ]
    )
    scan = PositivityScanner(gen).evaluate(rhos)
    w = np.linalg.eigvals(gen.liouvillian.matrix)
    slowest = np.min(-np.delete(w, np.argmin(np.abs(w))).real)
    period = 2.0 * np.pi / model.epsilon
    times = np.arange(0.0, min(30.0 / slowest, 64.0 * period), period / 1024.0)
    for rho, value, in_n in zip(rhos, scan.min_eigenvalue_attained, scan.in_n):
        brute = np.min(propagate_markovian(gen, rho, times).min_eigenvalues)
        assert value <= brute + 1e-10
        if abs(brute) > 1e-4:
            assert in_n == (brute < -1e-12)
