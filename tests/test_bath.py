import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from redfield_slippage import bath
from redfield_slippage.corrections import delta_rho1
from redfield_slippage.bath import (
    DiscreteModes,
    ExponentialSum,
    KernelNotIntegrableError,
    LorentzDrudeBath,
    PoleCollisionError,
    bose_occupation,
    discrete_kernel,
    discretize_spectral_density,
    fit_exponential_mixture,
    recurrence_estimate,
    spectral_density,
)

import matsubara_reference
from time_quadrature import half_fourier_quadrature

# values frozen from two independent evaluation routes (pole expansion
# and shifted-contour quadrature agree to ~1e-15 relative)
C_AT_1 = 1.0596900936272289 - 0.5778636748954609j
NBAR_1 = 0.5819767068693265  # 1 / (e - 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        LorentzDrudeBath(omega_c=-1.0, beta=1.0)
    with pytest.raises(ValueError):
        LorentzDrudeBath(omega_c=1.0, beta=0.0)
    with pytest.raises(ValueError):
        LorentzDrudeBath(omega_c=np.inf, beta=1.0)


def test_cutoff_matsubara_collision_raises():
    # beta * omega_c / 2 = pi puts the cutoff pole on the first
    # Matsubara frequency; the spectral density itself is regular there,
    # so only the pole series refuses it
    spec = LorentzDrudeBath(omega_c=2.0 * math.pi, beta=1.0)
    with pytest.raises(PoleCollisionError):
        fit_exponential_mixture(spec)


def test_small_cutoff_is_no_collision():
    # beta * omega_c / 2 near 0 * pi: no Matsubara frequency is near
    # omega_c, and c_0 tends to pi omega_c / beta
    spec = LorentzDrudeBath(omega_c=1e-6, beta=1.0)
    kern = fit_exponential_mixture(spec)
    assert kern.c[0].real == pytest.approx(math.pi * 1e-6, rel=1e-9)
    assert np.all(np.isfinite(kern.c))


@pytest.mark.parametrize("omega_c", [1e-320, 5e-324])
def test_underflowing_cutoff_keeps_c0_finite(omega_c):
    # omega_c^2 underflows to 0 where cot(beta omega_c / 2) overflows (or
    # beta omega_c / 2 itself underflows); c_0 then goes through x cot x
    kern = fit_exponential_mixture(LorentzDrudeBath(omega_c=omega_c, beta=1.0))
    assert np.all(np.isfinite(kern.c))
    assert kern.c[0] == math.pi * omega_c
    # where the closed form is finite its bits are kept
    kern = fit_exponential_mixture(LorentzDrudeBath(omega_c=1e-6, beta=1.0))
    assert kern.c[0] == 0.5 * math.pi * 1e-12 * (1.0 / math.tan(5e-7) - 1j)


def test_spectral_density_shape():
    spec = LorentzDrudeBath(omega_c=1.0, beta=1.0)
    assert spectral_density(spec, 1.0) == pytest.approx(0.5)
    w = np.linspace(0.1, 5.0, 7)
    assert np.allclose(spectral_density(spec, -w), -spectral_density(spec, w))
    spec2 = LorentzDrudeBath(omega_c=3.0, beta=1.0)
    # peak value J(omega_c) = omega_c / 2 at the cutoff
    assert spectral_density(spec2, 3.0) == pytest.approx(1.5)


def test_bose_occupation_value():
    assert bose_occupation(1.0, 1.0) == pytest.approx(NBAR_1, rel=1e-15)
    assert bose_occupation(2.0, 3.0) == pytest.approx(1.0 / np.expm1(6.0))
    # bit for bit 1 / expm1 wherever expm1 is finite, its limit e^{-x}
    # without an overflow warning beyond x = 709.78
    x = np.array([-800.0, 1e-3, 700.0, 709.78, 709.79, 745.0, 800.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bose_occupation(1.0, x)
    below = x <= 709.78
    assert np.array_equal(got[below], 1.0 / np.expm1(x[below]))
    assert np.array_equal(got[~below], np.exp(-x[~below]))
    assert got[4] > 0.0 and got[-1] == 0.0


def test_correlation_frozen_value(ld_spec, kernel):
    assert complex(kernel.evaluate(1.0)) == pytest.approx(C_AT_1, rel=1e-12)


def test_series_forms_exponentials_in_blocks(kernel):
    # 100000 times x the kernel's terms at once would be over 100 MB of
    # exponentials (bath-correlation at quadrature.n_points=100000 and
    # 4001 terms ran out of memory); blocks of at most EXP_BLOCK
    # exponentials leave memory to the per-time arrays, and every sum as
    # it is for its time alone
    k = kernel
    t = np.geomspace(1e-3, 50.0, 100_000)
    k.evaluate(t[:1])  # builds the kernel's TermSums outside the trace
    tracemalloc.start()
    try:
        series = k.evaluate(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (2 * bath.EXP_BLOCK + 8 * t.size)
    for i in (0, 1, 4097, 50_000, 99_999):
        assert series[i] == k.evaluate(t[i])


def test_imaginary_part_is_exact_at_any_truncation():
    # Im C(t) = -(pi/2) omega_c^2 e^{-omega_c t}: only the cutoff pole
    # carries an imaginary coefficient, so compressing the Matsubara
    # series cannot touch it
    t = np.array([0.05, 0.3, 1.0, 4.0])
    for omega_c, beta in ((1.0, 1.0), (2.0, 0.3), (0.5, 40.0)):
        k = fit_exponential_mixture(LorentzDrudeBath(omega_c=omega_c, beta=beta))
        assert np.all(k.c[1:].imag == 0.0) and np.all(k.g.imag == 0.0)
        expect = -0.5 * math.pi * omega_c**2 * np.exp(-omega_c * t)
        assert np.allclose(k.evaluate(t).imag, expect, rtol=1e-14, atol=0)


def test_series_vs_quadrature(ld_spec, kernel):
    ts = np.geomspace(1e-3, 50.0, 24)
    series = kernel.evaluate(ts)
    quad_vals = bath.correlation_quadrature(ld_spec, ts)[0]
    scale = np.abs(series)
    assert np.all(np.abs(series - quad_vals) <= 1e-8 * np.maximum(scale, 1e-3))


def _far_from_pole_collision(omega_c, beta, rel=1e-2):
    # near 2 pi k / beta = omega_c the two colliding terms of the pole
    # series cancel: 3e-11 relative error at 1.2e-3 away, 3e-15 at 5e-2
    k = max(round(omega_c * beta / (2.0 * math.pi)), 1)
    return abs(2.0 * math.pi * k / beta - omega_c) > rel * omega_c


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.2, 5.0),
    st.floats(0.1, 5.0),
    st.lists(st.floats(-3.0, math.log10(50.0)), min_size=1, max_size=3),
)
# rounding of the sum dominates here: an eps-wide floor fell short by 1.5x
@example(omega_c=5.0, beta=4.75, log_t=[0.0])
def test_quadrature_matches_converged_series(omega_c, beta, log_t):
    # the compressed series is certified to remainder_bound, far below
    # 1e-11 relative at these times
    assume(_far_from_pole_collision(omega_c, beta))
    spec = LorentzDrudeBath(omega_c=omega_c, beta=beta)
    t = 10.0 ** np.array(log_t)
    series = fit_exponential_mixture(spec).evaluate(t)
    values, err = bath.correlation_quadrature(spec, t)
    assert np.all(np.abs(values - series) <= 1e-11 * np.abs(series))
    # the estimate bounds the error actually made, measured against the
    # pole series in extended precision, cut where its terms fall below
    # e^{-60} at the earliest time
    k_max = math.ceil(60.0 * beta / (2.0 * math.pi * t.min()))
    exact = _series_extended(omega_c, beta, t, k_max)
    assert np.all(np.abs(values - exact) <= err + 1e-15 * np.abs(exact))


def _series_extended(omega_c, beta, t, k_max):
    """The pole series of fit_exponential_mixture in long double. In
    double precision the cutoff and first Matsubara terms cancel near a
    pole collision and leave errors of a few 1e-15 relative, as large as
    the quadrature's own."""
    ld = np.longdouble
    w, b = ld(omega_c), ld(beta)
    pi = 4 * np.arctan(ld(1))
    nu = 2 * pi * np.arange(1, k_max + 1, dtype=ld) / b
    ck = (2 * pi * w * w / b) * nu / (nu * nu - w * w)
    c0 = 0.5 * pi * w * w / np.tan(0.5 * b * w)
    out = []
    for ti in t.astype(ld):
        re = c0 * np.exp(-w * ti) + np.sum((ck * np.exp(-nu * ti))[::-1])
        out.append(complex(float(re), float(-0.5 * pi * w * w * np.exp(-w * ti))))
    return np.array(out)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.2, 5.0),
    st.floats(0.1, 5.0),
    st.lists(st.floats(-3.0, math.log10(50.0)), min_size=1, max_size=6),
)
def test_quadrature_array_call_matches_scalar_calls(omega_c, beta, log_t):
    assume(_far_from_pole_collision(omega_c, beta))
    spec = LorentzDrudeBath(omega_c=omega_c, beta=beta)
    t = 10.0 ** np.array(log_t)
    values, err = bath.correlation_quadrature(spec, t)
    for ti, vi, ei in zip(t, values, err):
        v, e = bath.correlation_quadrature(spec, float(ti))
        assert isinstance(v, complex) and isinstance(e, float)
        assert abs(v - vi) <= 1e-15 * abs(vi)
        assert e == pytest.approx(ei, rel=1e-15)


def test_quadrature_near_underflow(ld_spec, kernel):
    # e^{-ct} e^{-ipt} E1 in scaled form: C(t) down to 1e-304 stays
    # exact, and a time whose bound underflows is exactly 0 with error 0
    t = np.array([300.0, 600.0, 700.0])
    values, err = bath.correlation_quadrature(ld_spec, t)
    series = kernel.evaluate(t)
    assert np.all(np.abs(values - series) <= 1e-11 * np.abs(series))
    assert np.all(err < 1e-11 * np.abs(series))
    # above 2^1023 the group power 2^1024 overflowed, the contour shift
    # d = 1 / T became 0 and the panel edges never ended
    far = np.array([800.0, 1e6, 1e308, sys.float_info.max])
    values, err = bath.correlation_quadrature(ld_spec, far)
    assert np.all(values == 0.0) and np.all(err == 0.0)


def test_quadrature_refuses_a_rule_over_its_panel_budget():
    # 2 X T / (2 pi) panels with X = 40 / beta: refused before any is built
    hot = LorentzDrudeBath(omega_c=1.0, beta=1e-4)
    with pytest.raises(ValueError, match="panels"):
        bath.correlation_quadrature(hot, np.array([1e-3, 50.0]))
    # the same bath is fine where the rule stays small
    value, err = bath.correlation_quadrature(hot, 1e-3)
    assert np.isfinite(value) and 0.0 < err < 1e-12 * abs(value)


def test_correlation_input_guards(ld_spec):
    # C(t) diverges logarithmically at t = 0: the quadrature takes t > 0 only
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="t must be positive"):
            bath.correlation_quadrature(ld_spec, np.array([1.0, bad]))


def test_quadrature_refuses_a_subnormal_cutoff(child_env):
    # at omega_c = 5e-324 the contour shift d underflows to 0, for which
    # no panel edges end; run in a child under a time and a memory limit,
    # so that a regression cannot hang or exhaust the suite
    code = (
        "import numpy as np\n"
        "from redfield_slippage.bath import LorentzDrudeBath, correlation_quadrature\n"
        "try:\n"
        "    correlation_quadrature(LorentzDrudeBath(omega_c=5e-324, beta=1.0), np.array([1.0]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True,
        timeout=60, preexec_fn=limit_memory,
    )
    assert out.returncode == 0, out.stderr
    assert "too small to shift the contour" in out.stdout
    # the child has shown that the refusal comes at once: here it runs in
    # this process too
    with pytest.raises(ValueError, match="too small to shift the contour"):
        bath.correlation_quadrature(LorentzDrudeBath(omega_c=5e-324, beta=1.0), [1.0])


def golden_rule_rate(spec, w):
    """Reference Re Gamma(w) = pi J(|w|) (nbar + 1) for w > 0,
    pi J(|w|) nbar for w < 0 and the w -> 0 limit pi / beta."""
    if w == 0.0:
        return math.pi / spec.beta
    j = float(spectral_density(spec, abs(w)))
    n = float(bose_occupation(spec.beta, abs(w)))
    return math.pi * j * (n + 1.0) if w > 0 else math.pi * j * n


def test_golden_rule_rates(ld_spec):
    j1 = 0.5
    assert golden_rule_rate(ld_spec, 1.0) == pytest.approx(math.pi * j1 * (NBAR_1 + 1.0))
    assert golden_rule_rate(ld_spec, -1.0) == pytest.approx(math.pi * j1 * NBAR_1)
    assert golden_rule_rate(ld_spec, 0.0) == pytest.approx(math.pi)


def test_half_fourier_matches_golden_rule(ld_spec, kernel):
    # Re Gamma(w) reproduces the golden-rule rates to the certified error
    # of the compressed series (remainder_bound, 2.8e-13 here)
    for w in (1.0, -1.0, 0.37, -2.2):
        assert abs(kernel.half_fourier(w).real - golden_rule_rate(ld_spec, w)) <= kernel.remainder_bound


def test_detailed_balance_ratio(kernel):
    beta = kernel.meta["beta"]
    # an error delta of each rate shifts the ratio by about
    # delta (G+ + G-) / G-^2: 1e-12 relative at eps = 2
    for eps, rel in ((0.5, 1e-12), (1.0, 1e-12), (2.0, 5e-12)):
        ratio = kernel.half_fourier(eps).real / kernel.half_fourier(-eps).real
        assert ratio == pytest.approx(math.exp(beta * eps), rel=rel)


def test_rate_positivity(kernel):
    for w in np.linspace(-8.0, 8.0, 64):
        assert kernel.half_fourier(float(w)).real > 0.0


def test_half_fourier_vs_time_quadrature(kernel):
    for w in (1.0, -1.0, 0.0):
        closed = kernel.half_fourier(w)
        direct = half_fourier_quadrature(kernel, w)
        assert abs(closed - direct) < 1e-8


def test_tail_kernel(kernel):
    eps = 1.0
    pair = bath.TailKernel(kernel, eps)
    for k, sigma in enumerate((1, -1)):
        def f(tau):
            return complex(pair(tau)[k])

        # tau = 0 recovers the half-range transform
        assert f(0.0) == pytest.approx(kernel.half_fourier(sigma * eps), abs=1e-12)
        # decays on the memory scale
        assert abs(f(40.0 * kernel.tau_r_estimate)) < 1e-8 * abs(f(0.0))
        # matches direct integration of the tail
        tau = 0.7
        ref_re, _ = quad(
            lambda u: (kernel.evaluate(u) * np.exp(1j * sigma * eps * u)).real,
            tau, 80.0, limit=2000, epsabs=1e-12,
        )
        ref_im, _ = quad(
            lambda u: (kernel.evaluate(u) * np.exp(1j * sigma * eps * u)).imag,
            tau, 80.0, limit=2000, epsabs=1e-12,
        )
        assert f(tau) == pytest.approx(ref_re + 1j * ref_im, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(-12.0, 2.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=80,
    ),
)
def test_tail_kernel_blocks_match_full_sum(kernel, taus):
    # the blocked evaluation that drops the terms with Re g * tau > 40
    # reproduces the full sum over every term, here summed exactly (fsum)
    tau = np.array(taus)
    got = bath.TailKernel(kernel, 1.0)(tau)
    for k, s in enumerate((1, -1)):
        den = kernel.g - 1j * s
        for t, value in zip(tau, got[:, k]):
            terms = np.exp(-t * den) * (kernel.c / den)
            full = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(value - full) < 1e-14


_MODES_KERNEL = discrete_kernel(DiscreteModes(((0.3, 0.2), (0.9, 0.1), (1.7, 0.3)), beta=12.0))


@settings(max_examples=40, deadline=None)
@given(
    taus=st.lists(
        st.one_of(st.just(0.0), st.floats(-6.0, 2.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=60,
    ),
    modes=st.booleans(),
    eps=st.sampled_from((0.5, 1.0, 2.3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_kernel_sum_of_a_time_is_independent_of_its_batch(kernel, taus, modes, eps, seed):
    # C, F_sigma, I and any TermSums row give each time of a batch the
    # bits of a call for that time alone
    k = _MODES_KERNEL if modes else kernel
    amp = np.random.default_rng(seed).normal(size=(3, k.g.size, 2)) @ np.array([1.0, 1j])
    t = np.array(taus)
    for f in (bath.TermSums(k, amp), k.evaluate, bath.TailKernel(k, eps), bath.SlippageIntegrals(k, eps)):
        assert np.array_equal(f(t), np.stack([f(x) for x in t]))


def test_tail_kernel_sigma_pairs_and_shapes(kernel):
    # (F_+, F_-) on a trailing axis after the shape of tau
    pair = bath.TailKernel(kernel, 1.0)
    tau = np.array([[0.0, 0.3], [2.0, 7.0]])
    out = pair(tau)
    assert out.shape == (2, 2, 2)
    assert np.max(np.abs(out[1, 0] - pair(2.0))) < 1e-15
    assert pair(0.5).shape == (2,)


def test_tau_r_estimate(kernel):
    # slowest decay rate of the mixture is the cutoff pole at omega_c = 1
    assert kernel.tau_r_estimate == pytest.approx(1.0)


@settings(max_examples=6, deadline=None)
@given(omega_c=st.floats(0.05, 20.0), beta=st.floats(0.02, 400.0))
@example(omega_c=1.0, beta=1.0)
# 48 Matsubara frequencies below the cutoff: c_k changes sign inside the
# compressed series, whose blocks lie on either side of omega_c
@example(omega_c=1.0, beta=300.0)
# beta omega_c / 2 = 5 pi + 3e-6, three times the guard of
# PoleCollisionError: the cutoff and the fifth Matsubara pole nearly
# cancel, and the rounding of their amplitudes dominates the bound
@example(omega_c=1.0, beta=2.0 * (5.0 * math.pi + 3e-6))
def test_fit_within_certified_error_of_full_series(omega_c, beta):
    # against the untruncated Matsubara series in mpmath: C(t) on
    # [T_MIN_FACTOR / omega_c, 50 / omega_c], Gamma(+-eps), F_+-(tau) at
    # tau = 0, below T_MIN and beyond, and the four S(0); each within the
    # reported remainder_bound
    try:
        kernel = fit_exponential_mixture(LorentzDrudeBath(omega_c=omega_c, beta=beta))
    except PoleCollisionError:
        assume(False)
    bound = kernel.remainder_bound
    assert 0.0 < bound < math.inf
    for t in np.geomspace(bath.T_MIN_FACTOR / omega_c, 50.0 / omega_c, 5):
        assert abs(complex(kernel.evaluate(t)) - matsubara_reference.correlation(omega_c, beta, t)) <= bound
    eps = 1.0
    tail = bath.TailKernel(kernel, eps)
    for tau in (0.0, 0.1 * bath.T_MIN_FACTOR / omega_c, 1.0 / omega_c):
        got = tail(tau)
        for k, sigma in enumerate((1, -1)):
            ref = matsubara_reference.tail_kernel(omega_c, beta, sigma * eps, tau)
            assert abs(got[k] - ref) <= bound
            if tau == 0.0:
                assert abs(kernel.half_fourier(sigma * eps) - ref) <= bound
    s0 = bath.SlippageIntegrals(kernel, eps).s0
    for k, (sp, sq) in enumerate(bath.PAIRS):
        assert abs(s0[k] - matsubara_reference.slippage_s0(omega_c, beta, eps, sp, sq)) <= bound


def test_default_fit_is_certified_below_1e_12(kernel):
    # the truncated 4001-pole series was off by 3.98e-5 in Gamma(+-1)
    assert 0.0 < kernel.remainder_bound <= 1e-12
    assert kernel.g.size <= 250 and kernel.real_rates
    # the cutoff pole and the slowest Matsubara poles are kept exactly
    assert np.array_equal(kernel.g.real[:4], [1.0, 2 * math.pi, 4 * math.pi, 6 * math.pi])


def test_scaled_exp1_matches_mpmath():
    # the upper half plane, where the contour tails take their arguments;
    # scipy's exp1 alone lost up to 8e-13 relative near |z| = 4
    import mpmath

    r = np.geomspace(1e-6, 1e4, 31)
    theta = np.concatenate((np.linspace(0.0, 3.1, 16), math.pi - np.geomspace(1e-6, 1e-2, 3)))
    z = np.multiply.outer(r, np.exp(1j * theta)).ravel()
    got = bath._exp1_scaled(z)
    for zi, gi in zip(z, got):
        ref = complex(mpmath.exp(zi) * mpmath.e1(zi))
        assert abs(gi - ref) <= 2e-14 * abs(ref)


def test_fit_meta(kernel):
    assert kernel.meta == {"beta": 1.0, "omega": 1.0}


def test_mixture_rejects_non_decaying_terms(model):
    # a purely oscillatory or growing term has no t -> infinity limit:
    # such kernels exist (discrete modes), but the slippage refuses them
    rho = np.diag([1.0, 0.0]).astype(complex)
    for g in (1j, -0.5):
        kern = ExponentialSum(c=[1.0, 1.0], g=[2.0, g])
        assert not kern.integrable
        with pytest.raises(KernelNotIntegrableError):
            delta_rho1(model, kern, 0.1, rho, np.inf)


def test_kernel_flags_follow_the_rates():
    decaying = ExponentialSum(c=[1.0, 2.0], g=[0.5, 3.0 + 1.0j])
    assert decaying.integrable
    assert decaying.tau_r_estimate == pytest.approx(2.0)
    oscillating = ExponentialSum(c=[1.0, 1.0], g=[0.25j, -4.0j])
    assert not oscillating.integrable
    assert oscillating.tau_r_estimate == pytest.approx(4.0)
    with pytest.raises(ValueError):
        ExponentialSum(c=[1.0], g=[1.0, 2.0])


def test_fit_pole_collision():
    # the cot-pole guard is absolute (1e-6 on beta*omega_c/2 mod pi)
    # while the Matsubara one is relative (1e-9 on |nu_k - omega_c|), so
    # a collision can slip past the first and must be caught by the
    # second once beta*omega_c is large enough
    beta = 2.0 * (637.0 * math.pi + 1.5e-6)
    spec = LorentzDrudeBath(omega_c=1.0, beta=beta)
    with pytest.raises(PoleCollisionError):
        fit_exponential_mixture(spec)


def test_discrete_kernel_single_mode_closed_form():
    w0, nu0, beta = 1.3, 0.4, 2.0
    modes = DiscreteModes(((w0, nu0),), beta=beta)
    k = discrete_kernel(modes)
    nbar = bose_occupation(beta, w0)
    for t in (0.0, 0.7, 3.1):
        expect = nu0**2 * ((nbar + 1.0) * np.exp(-1j * w0 * t) + nbar * np.exp(1j * w0 * t))
        assert complex(k.evaluate(t)) == pytest.approx(expect, rel=1e-14)
    # C(-t) = conj C(t)
    assert complex(k.evaluate(-0.7)) == pytest.approx(np.conj(complex(k.evaluate(0.7))))
    assert not k.integrable


def test_discrete_half_fourier_abel_and_resonance():
    modes = DiscreteModes(((1.0, 0.5),), beta=2.0)
    k = discrete_kernel(modes)
    # Abel regularization: purely imaginary denominators
    nbar = bose_occupation(2.0, 1.0)
    expect = 0.25 * ((nbar + 1.0) / (1j * (1.0 - 0.3)) + nbar / (-1j * (1.0 + 0.3)))
    assert k.half_fourier(0.3) == pytest.approx(complex(expect), rel=1e-12)
    with pytest.raises(KernelNotIntegrableError):
        k.half_fourier(1.0)  # on resonance
    with pytest.raises(KernelNotIntegrableError):
        k.half_fourier(-1.0)


def test_resonance_guard_is_relative_to_each_term():
    # the slow cutoff pole of a small-omega_c continuum kernel sits next
    # to Matsubara rates ~1e4, and is not resonant with a small splitting
    k = fit_exponential_mixture(LorentzDrudeBath(omega_c=3e-6, beta=1.0))
    eps = 1e-6
    assert np.isfinite(k.half_fourier(eps))
    assert np.all(np.isfinite(bath.TailKernel(k, eps)([0.0, 1.0])))
    # a mode within 1e-9 of the splitting, relative to either, is refused
    # even next to a much faster mode
    near = discrete_kernel(DiscreteModes(((1.0 + 5e-10, 0.5), (1e4, 0.1)), beta=2.0))
    with pytest.raises(KernelNotIntegrableError):
        near.half_fourier(1.0)
    assert np.isfinite(near.half_fourier(1.0 + 1e-6))


def test_discretize_spectral_density(ld_spec):
    modes = discretize_spectral_density(ld_spec, n_modes=3, omega_max=1.8)
    assert np.allclose(modes.frequencies, [0.3, 0.9, 1.5])
    dw = 0.6
    assert np.allclose(modes.couplings**2, spectral_density(ld_spec, modes.frequencies) * dw)
    assert modes.beta == 1.0
    assert recurrence_estimate(modes) == pytest.approx(2.0 * math.pi / 0.6)
    with pytest.raises(ValueError):
        discretize_spectral_density(ld_spec, n_modes=0, omega_max=1.8)
    with pytest.raises(ValueError, match="omega_max must be positive"):
        discretize_spectral_density(ld_spec, n_modes=3, omega_max=0.0)


def test_discrete_recurrence_is_real(ld_spec):
    # |C| returns to within a factor ~2 of its initial size after one
    # recurrence period of the discretized kernel
    modes = discretize_spectral_density(ld_spec, n_modes=3, omega_max=1.8)
    k = discrete_kernel(modes)
    t_rec = recurrence_estimate(modes)
    c0 = abs(complex(k.evaluate(0.0)))
    c_rec = abs(complex(k.evaluate(t_rec)))
    assert 0.5 < c_rec / c0 < 2.0
    # while in between it genuinely decays
    mid = abs(complex(k.evaluate(0.5 * t_rec)))
    assert mid < 0.5 * c0


def test_discrete_modes_validation():
    with pytest.raises(ValueError):
        DiscreteModes((), beta=1.0)
    with pytest.raises(ValueError):
        DiscreteModes(((-1.0, 0.5),), beta=1.0)
    with pytest.raises(ValueError):
        DiscreteModes(((1.0, -0.5),), beta=1.0)
    with pytest.raises(ValueError):
        DiscreteModes(((1.0, 0.5),), beta=-1.0)
    with pytest.raises(ValueError):
        DiscreteModes(((1.0, 0.5),), beta=1.0, fock_cutoff=0)
