import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from redfield_slippage.bath import (
    PAIRS,
    DiscreteModes,
    KernelIntegrals,
    KernelNotIntegrableError,
    LorentzDrudeBath,
    discrete_kernel,
    fit_exponential_mixture,
)
from redfield_slippage import corrections
from redfield_slippage.corrections import (
    NATURAL_SIGN,
    CorrectionReport,
    NaturalFamily,
    Product,
    delta_rho1,
    delta_rho2,
    perturbative_solution,
    slipped_initial_condition,
)
from redfield_slippage.master import build_redfield_generator, propagate_tcl2, trajectory_from_states
from redfield_slippage.operators import SM, SP, bloch_to_density, trace_distance
from redfield_slippage.oracle import phi


def test_phi_basic():
    assert phi(0.5, 0.0) == pytest.approx(0.0, abs=1e-15)
    a, t = -0.7 + 0.3j, 2.1
    assert phi(a, t) == pytest.approx((np.exp(a * t) - 1.0) / a, rel=1e-13)
    # series branch agrees with the closed form just above the switch
    for at in (1e-5, 9.9e-5, 1.1e-4):
        a = at / 1.7
        exact = np.expm1(complex(a) * 1.7) / a
        assert phi(a, 1.7) == pytest.approx(exact, rel=1e-12)
    assert phi(0.0, 3.0) == pytest.approx(3.0)


def test_phi_infinite_horizon():
    assert phi(-2.0, np.inf) == pytest.approx(0.5)
    assert phi(-1.0 + 5.0j, np.inf) == pytest.approx(-1.0 / (-1.0 + 5.0j))
    with pytest.raises(ValueError):
        phi(1j, np.inf)
    with pytest.raises(ValueError):
        phi(-1.0, -2.0)


def test_phi_array():
    a = np.array([-1.0, -0.5 + 2.0j, 1e-9])
    out = phi(a, 1.3)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(1.3, rel=1e-9)


def test_i_coefficients_against_quadrature(model):
    # the closed form must equal the double integral
    #   I_{s's''}(t) = int_0^t du e^{i s' eps u} int_0^inf dw C(u+w) e^{-i s'' eps w}
    # for any exponential mixture
    spec = LorentzDrudeBath(omega_c=1.0, beta=1.0)
    kernel = fit_exponential_mixture(spec)
    t = 1.7
    eps = model.epsilon

    x_gl, w_gl = np.polynomial.legendre.leggauss(16)

    def panel_nodes(edges):
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mids[:, None] + halves[:, None] * x_gl).ravel()
        weights = (halves[:, None] * w_gl).ravel()
        return nodes, weights

    u_nodes, u_w = panel_nodes(np.geomspace(1e-12, t, 61))
    w_nodes, w_w = panel_nodes(np.geomspace(1e-12, 80.0, 81))
    # C(u + w) on the tensor grid; building it as a matrix product keeps
    # the memory footprint at one (u, w) panel grid instead of one per term
    e_u = np.exp(-np.multiply.outer(u_nodes, kernel.g))
    e_w = np.exp(-np.multiply.outer(w_nodes, kernel.g))
    c_grid = e_u @ (kernel.c[:, None] * e_w.T)

    ivals = KernelIntegrals(kernel, eps).slippage(t)
    for idx, (sp, sq) in enumerate(PAIRS):
        eu = np.exp(1j * sp * eps * u_nodes) * u_w
        ew = np.exp(-1j * sq * eps * w_nodes) * w_w
        ref = eu @ c_grid @ ew
        assert abs(ivals[idx] - ref) < 1e-7


def _i_phi_series(kernel, eps, t):
    # the term-by-term phi-series form of I, one time at a time
    return np.array(
        [
            np.sum(kernel.c / (kernel.g + 1j * sq * eps) * phi(1j * sp * eps - kernel.g, t))
            for sp, sq in PAIRS
        ]
    )


_CONTINUUM = fit_exponential_mixture(LorentzDrudeBath(omega_c=1.0, beta=1.0))
_DISCRETE = discrete_kernel(DiscreteModes(((0.3, 0.4), (1.5, 0.3), (2.2, 0.1)), beta=2.0))
_times = st.one_of(
    st.just(0.0),
    st.floats(-6.0, math.log10(60.0)).map(lambda e: 10.0**e),
    st.just(math.inf),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_times, min_size=1, max_size=12), st.sampled_from(["continuum", "discrete"]))
def test_i_layer_matches_phi_series(model, times, which):
    kernel = _CONTINUUM if which == "continuum" else _DISCRETE
    t = np.array(times)
    if not kernel.integrable:
        t = t[np.isfinite(t)]
    got = KernelIntegrals(kernel, model.epsilon).slippage(t)
    assert got.shape == t.shape + (4,)
    for tt, row in zip(t, got):
        assert np.max(np.abs(row - _i_phi_series(kernel, model.epsilon, tt))) < 1e-13
        if tt == 0.0:
            assert np.all(row == 0.0)


def test_delta_rho1_time_arrays(model, kernel):
    rho = bloch_to_density((0.3, -0.1, 0.5))
    times = np.array([[0.0, 0.4], [3.0, np.inf]])
    d = delta_rho1(model, kernel, 0.5, rho, times)
    assert d.shape == (2, 2, 2, 2)
    assert np.all(d[0, 0] == 0.0)
    for t, dt in zip(times.ravel(), d.reshape(-1, 2, 2)):
        assert np.max(np.abs(dt - delta_rho1(model, kernel, 0.5, rho, t))) < 1e-16
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match=r"t must be in \[0, inf\]"):
            delta_rho1(model, kernel, 0.5, rho, bad)
    assert delta_rho2(Product(), d).shape == (2, 2, 2, 2)


def test_delta_rho1_zero_at_t_zero(model, kernel):
    rho = bloch_to_density((0.3, -0.1, 0.5))
    d = delta_rho1(model, kernel, 0.5, rho, 0.0)
    assert np.max(np.abs(d)) < 1e-15


def test_delta_rho1_structure(model, kernel, rng):
    for _ in range(4):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        rho = bloch_to_density(tuple(v))
        for t in (0.4, 3.0, np.inf):
            d = delta_rho1(model, kernel, 0.3, rho, t)
            assert np.max(np.abs(d - d.conj().T)) < 1e-14
            assert abs(np.trace(d)) < 1e-14


def test_delta_rho1_quadratic_in_lambda(model, kernel):
    rho = bloch_to_density((0.8, 0.0, 0.0))
    d1 = delta_rho1(model, kernel, 0.1, rho, np.inf)
    d2 = delta_rho1(model, kernel, 0.2, rho, np.inf)
    assert np.allclose(4.0 * d1, d2, atol=1e-18, rtol=1e-13)


def test_delta_rho1_linear_in_state(model, kernel):
    r1 = bloch_to_density((0.5, 0.0, 0.0))
    r2 = bloch_to_density((0.0, 0.0, -0.4))
    mix = 0.3 * r1 + 0.7 * r2
    d_mix = delta_rho1(model, kernel, 0.5, mix, 2.0)
    d_sum = 0.3 * delta_rho1(model, kernel, 0.5, r1, 2.0) + 0.7 * delta_rho1(
        model, kernel, 0.5, r2, 2.0
    )
    assert np.allclose(d_mix, d_sum, atol=1e-15)


def test_delta_rho1_converges_to_slippage(model, kernel):
    rho = bloch_to_density((1.0, 0.0, 0.0))
    d_inf = delta_rho1(model, kernel, 0.5, rho, np.inf)
    gaps = [
        np.max(np.abs(delta_rho1(model, kernel, 0.5, rho, t) - d_inf))
        for t in (5.0, 10.0, 20.0, 40.0)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-10


def test_delta_rho1_discrete_kernel_limits():
    modes = DiscreteModes(((0.3, 0.4), (1.5, 0.3)), beta=2.0)
    k = discrete_kernel(modes)
    model_rho = bloch_to_density((0.6, 0.0, 0.3))
    from redfield_slippage.master import SystemModel

    model = SystemModel(epsilon=1.0)
    # finite t works off resonance
    d = delta_rho1(model, k, 0.1, model_rho, 2.0)
    assert np.max(np.abs(d - d.conj().T)) < 1e-14
    # the infinite-horizon slippage does not exist
    with pytest.raises(KernelNotIntegrableError):
        delta_rho1(model, k, 0.1, model_rho, np.inf)
    # a mode resonant with the splitting breaks even finite t
    res = discrete_kernel(DiscreteModes(((1.0, 0.4),), beta=2.0))
    with pytest.raises(KernelNotIntegrableError):
        delta_rho1(model, res, 0.1, model_rho, 2.0)


def test_delta_rho2_dispatch(model, kernel):
    rho = bloch_to_density((0.7, 0.2, 0.0))
    d1 = delta_rho1(model, kernel, 0.5, rho, 3.0)
    z = delta_rho2(Product(), d1)
    assert np.max(np.abs(z)) == 0.0
    half = delta_rho2(NaturalFamily(kappa=0.5), d1)
    assert np.allclose(half, -0.5 * d1, atol=1e-16)
    full = delta_rho2(NaturalFamily(kappa=1.0), d1)
    assert np.max(np.abs(d1 + full)) < 1e-16
    with pytest.raises(TypeError):
        delta_rho2("product", d1)


def test_natural_family_validation():
    with pytest.raises(ValueError):
        NaturalFamily(kappa=np.nan)
    assert NATURAL_SIGN == -1


def test_slipped_initial_condition(model, kernel):
    rho = bloch_to_density((0.9, 0.0, 0.0))
    rep = slipped_initial_condition(model, kernel, 0.5, rho, Product())
    assert rep.kappa == 0.0
    assert np.allclose(rep.slipped, rho + rep.delta1, atol=1e-16)
    assert abs(np.trace(rep.slipped) - 1.0) < 1e-12
    # full natural correlation cancels the slippage entirely
    rep1 = slipped_initial_condition(model, kernel, 0.5, rho, NaturalFamily(kappa=1.0))
    assert np.allclose(rep1.slipped, rho, atol=1e-15)
    assert rep1.kappa == 1.0
    assert rep.err_est >= 0.0
    with pytest.raises(TypeError):
        slipped_initial_condition(model, kernel, 0.5, rho, "product")


@pytest.mark.parametrize("kappa", [0.0, 0.4, -2.0])
def test_err_est_bounds_the_slippage_of_the_full_series(model, kernel, kappa):
    # the slipped state against delta_rho1[inf] of the untruncated
    # Matsubara series, I(inf) = -S(0) in mpmath: within err_est
    import matsubara_reference

    rho = bloch_to_density((0.3, -0.5, 0.6))
    lam, eps = 0.5, model.epsilon
    rep = slipped_initial_condition(model, kernel, lam, rho, NaturalFamily(kappa=kappa))
    s0 = np.array([matsubara_reference.slippage_s0(1.0, 1.0, eps, sp, sq) for sp, sq in PAIRS])
    psi = 0.25 * np.tensordot(-s0, corrections.pair_commutators(rho), axes=1)
    exact = rho + (1.0 + NATURAL_SIGN * kappa) * lam * lam * (psi + psi.conj().T)
    assert 0.0 < rep.err_est <= 1e-11
    assert np.max(np.abs(rep.slipped - exact)) <= rep.err_est


def test_pair_commutators_of_a_stack_are_the_stack_of_calls(rng):
    rhos = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    stacked = corrections.pair_commutators(rhos)
    assert stacked.shape == (5, 4, 2, 2)
    for rho, ops in zip(rhos, stacked):
        assert np.array_equal(ops, corrections.pair_commutators(rho))
        s_op = {1: SP, -1: SM}
        ref = [s_op[sp] @ (s_op[sq] @ rho) - (s_op[sq] @ rho) @ s_op[sp] for sp, sq in PAIRS]
        assert np.array_equal(ops, np.array(ref))


def test_natural_start_computes_delta_rho1_once(model, kernel, monkeypatch):
    # delta_rho2 of the kappa family is sign * kappa * delta_rho1 at the
    # same times, so a natural start builds the slippage integrals once
    built = []

    class Counted(KernelIntegrals):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(corrections, "KernelIntegrals", Counted)
    rho = bloch_to_density((0.4, -0.3, 0.2))
    family = NaturalFamily(kappa=0.6)
    slipped_initial_condition(model, kernel, 0.5, rho, family)
    assert len(built) == 1
    perturbative_solution(model, kernel, 0.5, rho, family, np.array([0.0, 1.0, 5.0]))
    assert len(built) == 2


def test_trace_error_where_python_abs_raises(model, kernel):
    # Python's abs of a complex raises OverflowError where the modulus of
    # a finite value exceeds the largest double, and on a NaN value when
    # an earlier overflow left errno at ERANGE (CPython 3.11): there the
    # trace error is numpy's abs, inf or NaN, and not a traceback
    with np.errstate(over="ignore", invalid="ignore"):
        big = trajectory_from_states([1.0], np.diag([1.5e308, 1.5e308j])[None])
        # lam^2 Gamma is finite, exp(tG) is not
        rho = bloch_to_density((0.3, 0.0, 0.0))
        traj = perturbative_solution(model, kernel, 1e154, rho, Product(), [1.0])
        ref = np.abs(traj.states[:, 0, 0] + traj.states[:, 1, 1] - 1.0)
    assert big.trace_errors.tolist() == [math.inf]
    assert np.array_equal(traj.trace_errors, ref, equal_nan=True)


def test_perturbative_solution_refuses_non_finite_times(model, kernel):
    # a NaN time is refused as non-finite, as an infinite one is, and
    # not as a negative one
    rho = bloch_to_density((0.4, -0.3, 0.2))
    for bad in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="times must be finite"):
            perturbative_solution(model, kernel, 0.5, rho, NaturalFamily(0.0), np.array(bad))


def test_correction_report_json(model, kernel):
    rho = bloch_to_density((0.2, 0.1, -0.5))
    rep = slipped_initial_condition(model, kernel, 0.4, rho, NaturalFamily(kappa=0.3))
    obj = json.loads(json.dumps(rep.to_dict()))
    assert sorted(obj.keys()) == ["delta1", "delta2", "err_est", "kappa", "rho_s", "slipped"]
    assert obj["kappa"] == 0.3
    m = np.array([[complex(re, im) for re, im in row] for row in obj["slipped"]])
    assert np.allclose(m, rep.slipped)


def test_perturbative_solution_matches_tcl2(model, kernel):
    rho = bloch_to_density((1.0, 0.0, 0.0))
    times = np.linspace(0.0, 20.0, 64)
    gen = build_redfield_generator(model, kernel, lam=0.2)
    for kappa in (0.0, 0.7):
        closed = perturbative_solution(model, kernel, 0.2, rho, NaturalFamily(kappa=kappa), times)
        stepped = propagate_tcl2(gen, rho, times, kappa=kappa)
        worst = max(
            trace_distance(a, b) for a, b in zip(closed.states, stepped.states)
        )
        assert worst < 1e-8


def test_perturbative_solution_kappa_one_is_markovian(model, kernel, generator):
    from redfield_slippage.master import propagate_markovian

    rho = bloch_to_density((0.0, 0.6, 0.2))
    times = np.array([0.0, 1.0, 7.0])
    closed = perturbative_solution(model, kernel, 0.5, rho, NaturalFamily(kappa=1.0), times)
    markov = propagate_markovian(generator, rho, times)
    worst = max(trace_distance(a, b) for a, b in zip(closed.states, markov.states))
    assert worst < 1e-13
