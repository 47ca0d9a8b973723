"""Reservoir spectral densities and correlation kernels.

The continuum reservoir is ohmic with an algebraic cutoff,

    J(w) = w * Omega^2 / (w^2 + Omega^2),

and its finite-temperature correlation function

    C(t) = int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is carried in two interchangeable representations. The workhorse is a
pole expansion C(t) = sum_k c_k exp(-g_k t) (cutoff pole plus Matsubara
series), which makes every downstream time integral closed form. An
adaptive-quadrature evaluator on a shifted frequency contour provides a
fully independent cross-check. Small discrete mode sets, used by the
exact reference dynamics, share the exponential-sum interface with
purely imaginary decay rates.

C(t) has an integrable logarithmic divergence at t = 0, so evaluation
through the public `correlation` entry point is exposed only for
t >= 1e-6 / Omega.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import exp1

DEFAULT_K_MAX = 4000
T_MIN_FACTOR = 1e-6
# decay rates below this are treated as non-decaying
INTEGRABILITY_FLOOR = 1e-12
# kernel terms with Re g * t above this weigh below e^-40 ~ 4e-18 at t
TERM_CUTOFF = 40.0
# largest (times x terms) block of exponentials evaluated at once
EXP_BLOCK = 2**16


class KernelNotIntegrableError(RuntimeError):
    """The requested quantity needs a t -> infinity limit the kernel lacks."""


class PoleCollisionError(ValueError):
    """A Matsubara frequency collides with the cutoff pole."""


@dataclass(frozen=True)
class LorentzDrudeBath:
    """Continuum ohmic reservoir with cutoff omega_c at inverse temperature beta."""

    omega_c: float
    beta: float

    def __post_init__(self):
        if not (self.omega_c > 0.0 and np.isfinite(self.omega_c)):
            raise ValueError("omega_c must be positive and finite")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        # cot(beta*omega_c/2) pole: beta*omega_c/2 near a multiple of pi also
        # collides the cutoff pole with a Matsubara frequency
        dist = abs(math.remainder(0.5 * self.beta * self.omega_c, math.pi))
        if dist < 1e-6:
            raise PoleCollisionError(
                "beta * omega_c / 2 is within 1e-6 of a multiple of pi; "
                "shift omega_c or beta by a relative 1e-6 or more"
            )


@dataclass(frozen=True)
class DiscreteModes:
    """Finite list of (frequency, coupling) pairs at inverse temperature beta.

    fock_cutoff is the number-state truncation used when the modes are
    materialized as oscillators, and also fixes the occupation moments
    entering the truncated-reservoir kernel.
    """

    modes: tuple
    beta: float
    fock_cutoff: int = 5

    def __post_init__(self):
        if len(self.modes) == 0:
            raise ValueError("at least one mode is required")
        for pair in self.modes:
            w, nu = pair
            if w <= 0.0:
                raise ValueError("mode frequencies must be positive")
            if nu < 0.0:
                raise ValueError("mode couplings must be non-negative")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        if int(self.fock_cutoff) < 1:
            raise ValueError("fock_cutoff must be at least 1")

    @property
    def frequencies(self):
        return np.array([m[0] for m in self.modes], dtype=float)

    @property
    def couplings(self):
        return np.array([m[1] for m in self.modes], dtype=float)


def spectral_density(spec: LorentzDrudeBath, w):
    w = np.asarray(w, dtype=float)
    return w * spec.omega_c**2 / (w * w + spec.omega_c**2)


def bose_occupation(beta, w):
    return 1.0 / np.expm1(beta * np.asarray(w, dtype=float))


def golden_rule_rate(spec: LorentzDrudeBath, w) -> float:
    """Re Gamma(w) = pi J(|w|) (nbar + 1) for w > 0, pi J(|w|) nbar for
    w < 0 and the w -> 0 limit pi / beta."""
    w = float(w)
    if w == 0.0:
        return math.pi / spec.beta
    j = float(spectral_density(spec, abs(w)))
    n = float(bose_occupation(spec.beta, abs(w)))
    return math.pi * j * (n + 1.0) if w > 0 else math.pi * j * n


def term_groups(re_g, t):
    """Group times by the number of leading kernel terms they need.

    re_g holds the real decay rates of the terms in ascending order.
    Each time keeps at least the terms with Re g * t <= TERM_CUTOFF,
    the count rounded up to a power of two (so that times share few
    distinct counts), at least 16 and at most all. A dropped term
    weighs below e^-40 times its amplitude at t. Yields (mask, n_terms)
    pairs that partition t.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        # subnormal t overflows to an infinite limit: every term is kept
        limit = np.divide(TERM_CUTOFF, t, out=np.full(t.shape, np.inf), where=t > 0.0)
    need = np.maximum(np.searchsorted(re_g, limit, side="right"), 16)
    kept = np.minimum(2 ** np.ceil(np.log2(need)).astype(int), re_g.size)
    for n_terms in np.unique(kept):
        yield kept == n_terms, int(n_terms)


class TailKernel:
    """F_sigma(tau) = int_tau^inf exp(i sigma eps u) C(u) du in closed form.

    For an exponential-sum kernel each term integrates to
    c exp((i sigma eps - g) tau) / (g - i sigma eps). Purely oscillatory
    terms (discrete modes) get the Abel-regularized value, which is what
    the perturbative formulas require off resonance.

    sigma is +1, -1 or a tuple of them; a tuple adds a trailing axis
    over its entries to the result, and every entry shares the same
    exponentials exp(-g tau). Evaluation over an array of times keeps
    per time only the terms selected by term_groups and works in blocks
    of at most EXP_BLOCK (time x term) exponentials; kernels with real
    decay rates (the continuum pole expansion) use real exponentials.
    """

    def __init__(self, kernel, eps, sigma):
        sigmas = np.atleast_1d(np.asarray(sigma))
        if sigmas.ndim != 1 or not np.all(np.isin(sigmas, (1, -1))):
            raise ValueError("sigma must be +1, -1 or a tuple of them")
        order = np.argsort(kernel.g.real, kind="stable")
        g = kernel.g[order]
        den = g[:, None] - 1j * float(eps) * sigmas
        scale = max(float(np.max(np.abs(g))), abs(float(eps)), 1.0)
        if np.any(np.abs(den) < 1e-9 * scale):
            raise KernelNotIntegrableError(
                "a kernel term is resonant with the requested frequency; "
                "the half-range integral has no t -> infinity limit there"
            )
        self.eps = float(eps)
        self.sigma = sigma
        self._freq = self.eps * sigmas
        self._re_g = g.real
        # the sums run from the fastest-decaying (smallest) term up, one
        # matrix-vector product per sigma: both keep the rounding error of
        # the 4001-term continuum sums near 1e-15
        rev = slice(None, None, -1)
        self._amp = (kernel.c[order, None] / den)[rev].T.copy()
        self._real_g = bool(np.all(g.imag == 0.0))
        self._gneg = -g[rev].real if self._real_g else -g[rev]
        if self._real_g:
            self._amp_re = self._amp.real.copy()
            self._amp_im = self._amp.imag.copy()

    def _sum(self, tau, n_terms):
        k = slice(self._re_g.size - n_terms, None)
        e = np.exp(np.multiply.outer(tau, self._gneg[k]))
        if self._real_g:
            v = [e @ re[k] + 1j * (e @ im[k]) for re, im in zip(self._amp_re, self._amp_im)]
        else:
            v = [e @ amp[k] for amp in self._amp]
        return np.stack(v, axis=-1) * np.exp(1j * np.multiply.outer(tau, self._freq))

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        flat = tau.ravel()
        out = np.empty(flat.shape + self._freq.shape, dtype=complex)
        for sel, n_terms in term_groups(self._re_g, flat):
            idx = np.flatnonzero(sel)
            step = max(1, EXP_BLOCK // n_terms)
            for lo in range(0, idx.size, step):
                part = idx[lo : lo + step]
                out[part] = self._sum(flat[part], n_terms)
        if np.ndim(self.sigma) == 0:
            return out.reshape(tau.shape)
        return out.reshape(tau.shape + self._freq.shape)


class ExponentialMixture:
    """C(t) = sum_k c_k exp(-g_k t) with every Re g_k > 0."""

    integrable = True

    def __init__(self, c, g, remainder_bound=0.0, meta=None):
        c = np.asarray(c, dtype=complex)
        g = np.asarray(g, dtype=complex)
        if c.shape != g.shape or c.ndim != 1 or c.size == 0:
            raise ValueError("c and g must be matching non-empty 1-d arrays")
        if np.any(g.real <= INTEGRABILITY_FLOOR):
            raise KernelNotIntegrableError(
                "kernel has no t -> infinity limit: a decay rate has "
                "non-positive real part (use a discrete-sum kernel for "
                "purely oscillatory terms)"
            )
        self.c = c
        self.g = g
        self.remainder_bound = float(remainder_bound)
        self.meta = dict(meta or {})

    @property
    def tau_r_estimate(self) -> float:
        return float(1.0 / np.min(self.g.real))

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(t, self.g)) @ self.c

    def half_fourier(self, omega) -> complex:
        """Gamma(omega) = int_0^inf exp(i omega t) C(t) dt."""
        return complex(np.sum(self.c / (self.g - 1j * float(omega))))

    def tail_kernel(self, eps, sigma) -> TailKernel:
        return TailKernel(self, eps, sigma)


class DiscreteSum:
    """Finite-mode kernel, same interface, purely imaginary decay rates.

    Not integrable over the half line: half-range integrals are returned
    as Abel-regularized values (int_0^inf e^{i a s} ds -> i / a), valid
    only away from resonance.
    """

    integrable = False

    def __init__(self, c, g, meta=None):
        c = np.asarray(c, dtype=complex)
        g = np.asarray(g, dtype=complex)
        if c.shape != g.shape or c.ndim != 1 or c.size == 0:
            raise ValueError("c and g must be matching non-empty 1-d arrays")
        self.c = c
        self.g = g
        self.remainder_bound = 0.0
        self.meta = dict(meta or {})

    @property
    def tau_r_estimate(self) -> float:
        return float(1.0 / np.min(np.abs(self.g.imag)))

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(t, self.g)) @ self.c

    def half_fourier(self, omega) -> complex:
        den = self.g - 1j * float(omega)
        scale = max(float(np.max(np.abs(self.g))), abs(float(omega)), 1.0)
        if np.any(np.abs(den) < 1e-9 * scale):
            raise KernelNotIntegrableError(
                "resonant mode: the Abel-regularized half-range integral "
                "is undefined at this frequency"
            )
        return complex(np.sum(self.c / den))

    def tail_kernel(self, eps, sigma) -> TailKernel:
        return TailKernel(self, eps, sigma)


def _matsubara_remainder(omega_c, beta, k_max, t_ref=None, chunk=20000):
    """Bound on the dropped Matsubara tail, evaluated at the reference
    time t_ref = 1e-3 / omega_c where downstream integrands are probed.

    The first `chunk` dropped terms are summed directly; the rest are
    closed off geometrically (|c_k| decreases once nu_k > omega_c while
    exp(-nu_k t_ref) contracts by a fixed factor per term). The bound is
    monotone decreasing in k_max because each increment removes one
    positive term from a nested tail sum.
    """
    if t_ref is None:
        t_ref = 1e-3 / omega_c
    k = np.arange(k_max + 1, k_max + chunk + 1, dtype=float)
    nu = 2.0 * np.pi * k / beta
    coeff = (2.0 * np.pi * omega_c**2 / beta) * nu / np.abs(nu * nu - omega_c**2)
    terms = coeff * np.exp(-nu * t_ref)
    ratio = math.exp(-2.0 * math.pi * t_ref / beta)
    return float(terms.sum() + terms[-1] * ratio / (1.0 - ratio))


@lru_cache(maxsize=32)
def _fit_cached(omega_c, beta, k_max):
    k = np.arange(1, k_max + 1, dtype=float)
    nu = 2.0 * np.pi * k / beta
    if np.min(np.abs(nu - omega_c)) < 1e-9 * omega_c:
        raise PoleCollisionError(
            "a Matsubara frequency 2 pi k / beta coincides with omega_c; "
            "shift omega_c or beta by a relative 1e-6 or more"
        )
    c0 = 0.5 * np.pi * omega_c**2 * (1.0 / math.tan(0.5 * beta * omega_c) - 1j)
    ck = (2.0 * np.pi * omega_c**2 / beta) * nu / (nu * nu - omega_c**2)
    c = np.concatenate(([c0], ck.astype(complex)))
    g = np.concatenate(([omega_c], nu)).astype(complex)
    rb = _matsubara_remainder(omega_c, beta, k_max)
    meta = {"beta": beta, "omega": omega_c, "k_max": int(k_max)}
    return ExponentialMixture(c, g, remainder_bound=rb, meta=meta)


def fit_exponential_mixture(spec: LorentzDrudeBath, k_max=DEFAULT_K_MAX) -> ExponentialMixture:
    """Pole expansion of the continuum kernel.

    One term for the cutoff pole,

        c_0 = (pi omega_c^2 / 2)(cot(beta omega_c / 2) - i),  g_0 = omega_c,

    plus k_max Matsubara terms

        c_k = (2 pi omega_c^2 / beta) nu_k / (nu_k^2 - omega_c^2),
        g_k = nu_k = 2 pi k / beta.

    The imaginary part is carried entirely by the cutoff pole, so
    Im C(t) = -(pi/2) omega_c^2 exp(-omega_c t) holds exactly at every
    truncation order.
    """
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return _fit_cached(float(spec.omega_c), float(spec.beta), k_max)


def discrete_kernel(spec: DiscreteModes) -> DiscreteSum:
    """Exact finite-sum kernel with untruncated thermal occupations,

        C(t) = sum_r nu_r^2 [ (nbar_r + 1) e^{-i w_r t} + nbar_r e^{+i w_r t} ].
    """
    w = spec.frequencies
    nu2 = spec.couplings**2
    nbar = bose_occupation(spec.beta, w)
    c = np.concatenate((nu2 * (nbar + 1.0), nu2 * nbar)).astype(complex)
    g = np.concatenate((1j * w, -1j * w))
    return DiscreteSum(c, g, meta={"beta": spec.beta, "n_modes": len(spec.modes)})


def correlation_quadrature(spec: LorentzDrudeBath, t, rel_tol=1e-12):
    """Continuum kernel by adaptive quadrature on a shifted contour.

    The frequency integrand f(w) = J(w)(coth(beta w / 2) + 1)/2 extended
    to the whole real line is analytic in the strip
    |Im w| < min(omega_c, 2 pi / beta). Moving the contour to
    w = x - i c with c = 0.9 min(omega_c, 2 pi / beta) turns e^{-iwt}
    into the damped factor e^{-ct} e^{-ixt}, and the truncated ends of
    the shifted line are completed in closed form with exponential
    integrals (the integrand decays like omega_c^2 / w there). Agrees
    with the pole expansion to ~1e-12 relative over many decades of t
    and shares no code with it.
    """
    omega_c, beta = spec.omega_c, spec.beta
    c = 0.9 * min(omega_c, 2.0 * np.pi / beta)
    x_cut = max(40.0 / beta, 30.0 * omega_c)

    def f(x):
        z = x - 1j * c
        j = z * omega_c**2 / (z * z + omega_c**2)
        return 0.5 * j * (1.0 / np.tanh(0.5 * beta * z) + 1.0)

    def f_re(x):
        return f(x).real

    def f_im(x):
        return f(x).imag

    def osc_tail(p, tt):
        # int_X^inf e^{-i w tt} / (w - p) dw, |p| << X
        return np.exp(-1j * p * tt) * exp1(1j * tt * (x_cut - p))

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t_arr.shape, dtype=complex)
    quad_opts = dict(limit=2000, epsabs=1e-14, epsrel=rel_tol)
    for i, tt in enumerate(t_arr):
        with warnings.catch_warnings():
            # roundoff warnings near epsabs are expected; accuracy is
            # cross-checked against the pole expansion instead
            warnings.simplefilter("ignore", IntegrationWarning)
            rc, _ = quad(f_re, -x_cut, x_cut, weight="cos", wvar=tt, **quad_opts)
            rs, _ = quad(f_re, -x_cut, x_cut, weight="sin", wvar=tt, **quad_opts)
            ic, _ = quad(f_im, -x_cut, x_cut, weight="cos", wvar=tt, **quad_opts)
            is_, _ = quad(f_im, -x_cut, x_cut, weight="sin", wvar=tt, **quad_opts)
        body = (rc + is_) + 1j * (ic - rs)
        tail = 0.5 * omega_c**2 * (
            osc_tail(1j * (c + omega_c), tt) + osc_tail(-1j * (omega_c - c), tt)
        )
        out[i] = np.exp(-c * tt) * (body + tail)
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def correlation(spec, t, method="series"):
    """Reservoir correlation function C(t) for t > 0.

    method: "series" (pole expansion), "quadrature" (independent contour
    integration) for the continuum bath; "discrete" for mode lists.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(spec, DiscreteModes):
        if method != "discrete":
            raise ValueError("discrete mode sets support only method='discrete'")
        if np.any(t_arr < 0.0):
            raise ValueError("t must be non-negative")
        return discrete_kernel(spec).evaluate(t)
    if isinstance(spec, LorentzDrudeBath):
        if method == "discrete":
            raise ValueError("method='discrete' requires a DiscreteModes spec")
        t_min = T_MIN_FACTOR / spec.omega_c
        if np.any(t_arr < t_min):
            raise ValueError(
                f"C(t) is exposed only for t >= {t_min:g} "
                "(logarithmic divergence at t = 0)"
            )
        if method == "series":
            return fit_exponential_mixture(spec).evaluate(t)
        if method == "quadrature":
            return correlation_quadrature(spec, t)
        raise ValueError(f"unknown method {method!r}")
    raise TypeError(f"unsupported bath spec {type(spec).__name__}")


def half_fourier_quadrature(kernel, omega, t_cut=None, head=1e-10):
    """int_0^inf e^{i omega t} C(t) dt by direct time-domain quadrature.

    Independent of the closed-form pole sum in half_fourier. The
    [0, head] sliver contributes O(head log head) and is dropped. The
    kernel varies over ten decades of t near the origin, which defeats
    a single adaptive pass, so [head, t_mid] is integrated on geometric
    Gauss-Legendre panels and only the smooth remainder [t_mid, t_cut]
    goes to weighted adaptive quadrature. The t > t_cut remainder of
    the exponential sum is bounded and dropped as well. Good to roughly
    1e-9 absolute for the kernels used here.
    """
    omega = float(omega)
    if t_cut is None:
        t_cut = 60.0 * kernel.tau_r_estimate
    t_mid = min(2.0 * kernel.tau_r_estimate, 0.5 * t_cut)

    edges = np.geomspace(head, t_mid, 320)
    x_gl, w_gl = np.polynomial.legendre.leggauss(24)
    body = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * x_gl
        body += half * np.sum(w_gl * kernel.evaluate(t) * np.exp(1j * omega * t))

    def c_re(tt):
        return complex(kernel.evaluate(tt)).real

    def c_im(tt):
        return complex(kernel.evaluate(tt)).imag

    opts = dict(limit=4000, epsabs=1e-12, epsrel=1e-12)
    rc, _ = quad(c_re, t_mid, t_cut, weight="cos", wvar=omega, **opts)
    rs, _ = quad(c_re, t_mid, t_cut, weight="sin", wvar=omega, **opts)
    ic, _ = quad(c_im, t_mid, t_cut, weight="cos", wvar=omega, **opts)
    is_, _ = quad(c_im, t_mid, t_cut, weight="sin", wvar=omega, **opts)
    return complex(body) + complex(rc - is_, rs + ic)


def discretize_spectral_density(spec: LorentzDrudeBath, n_modes, omega_max, fock_cutoff=5) -> DiscreteModes:
    """Uniform-bin midpoint discretization of the continuum reservoir.

    Frequencies sit at the midpoints of n_modes equal bins covering
    (0, omega_max]; squared couplings carry the bin weight J(w) dw.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if omega_max <= 0.0:
        raise ValueError("omega_max must be positive")
    dw = float(omega_max) / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    nu = np.sqrt(spectral_density(spec, w) * dw)
    modes = tuple((float(wi), float(ni)) for wi, ni in zip(w, nu))
    return DiscreteModes(modes, beta=spec.beta, fock_cutoff=int(fock_cutoff))


def recurrence_estimate(spec: DiscreteModes) -> float:
    """2 pi over the smallest frequency spacing (or the lone frequency)."""
    w = np.sort(spec.frequencies)
    gap = float(np.min(np.diff(w))) if len(w) > 1 else float(w[0])
    return 2.0 * np.pi / gap


def kernel_to_json(kernel: ExponentialMixture) -> str:
    if not isinstance(kernel, ExponentialMixture):
        raise TypeError("only exponential-mixture kernels serialize to JSON")
    obj = {
        "type": "exp_mixture",
        "terms": [
            {
                "c_re": term_c.real,
                "c_im": term_c.imag,
                "g_re": term_g.real,
                "g_im": term_g.imag,
            }
            for term_c, term_g in zip(kernel.c, kernel.g)
        ],
        "beta": kernel.meta.get("beta"),
        "omega": kernel.meta.get("omega"),
        "k_max": kernel.meta.get("k_max"),
    }
    return json.dumps(obj, sort_keys=True)


def kernel_from_json(text: str) -> ExponentialMixture:
    obj = json.loads(text)
    if obj.get("type") != "exp_mixture":
        raise ValueError("unsupported kernel JSON type")
    c = np.array([t["c_re"] + 1j * t["c_im"] for t in obj["terms"]], dtype=complex)
    g = np.array([t["g_re"] + 1j * t["g_im"] for t in obj["terms"]], dtype=complex)
    meta = {k: obj.get(k) for k in ("beta", "omega", "k_max")}
    rb = 0.0
    if all(meta.get(k) is not None for k in ("beta", "omega", "k_max")):
        rb = _matsubara_remainder(float(meta["omega"]), float(meta["beta"]), int(meta["k_max"]))
    return ExponentialMixture(c, g, remainder_bound=rb, meta=meta)
