"""Reservoir spectral densities and correlation kernels.

The continuum reservoir is ohmic with an algebraic cutoff,

    J(w) = w * Omega^2 / (w^2 + Omega^2),

and its finite-temperature correlation function

    C(t) = int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is carried in two interchangeable representations. The workhorse is a
pole expansion C(t) = sum_k c_k exp(-g_k t) (cutoff pole plus Matsubara
series) held in ExponentialSum, the one kernel type; small discrete
mode sets, used by the exact reference dynamics, are exponential sums
with purely imaginary decay rates. Every downstream time integral is
closed form and reduces to sums sum_k a_k exp(-g_k t) over rows of
amplitudes a, which TermSums alone evaluates over arrays of times: the
finite-memory rates F_sigma (TailKernel) and the slippage integrals I
(SlippageIntegrals), from which the regions module also assembles its
variational D. Half-range integrals divide by g_k - i omega, and
ExponentialSum.denominators is the one place that refuses a resonant
term. An adaptive-quadrature evaluator on a shifted frequency contour
provides a fully independent cross-check.

C(t) has an integrable logarithmic divergence at t = 0, so evaluation
through the public `correlation` entry point is exposed only for
t >= 1e-6 / Omega.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
# (s', s'') of the four slippage integrals; S^{+1} = S^+, S^{-1} = S^-
PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
PAIR_SP, PAIR_SQ = np.array(PAIRS, dtype=float).T


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
        # cot(beta*omega_c/2) pole: beta*omega_c/2 near k pi (k >= 1) also
        # collides the cutoff pole with the Matsubara frequency 2 pi k / beta.
        # Near k = 0 no Matsubara frequency is close and c_0 tends to the
        # finite pi omega_c / beta.
        half = 0.5 * self.beta * self.omega_c
        if round(half / math.pi) >= 1 and abs(math.remainder(half, math.pi)) < 1e-6:
            raise PoleCollisionError(
                "beta * omega_c / 2 is within 1e-6 of a nonzero multiple of pi; "
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


class ExponentialSum:
    """Reservoir kernel C(t) = sum_k c_k exp(-g_k t).

    Carries the continuum pole expansion (every Re g_k > 0) and finite
    mode sets (purely imaginary g_k) alike. The kernel is integrable
    over the half line when every Re g_k exceeds INTEGRABILITY_FLOOR;
    otherwise half-range integrals are Abel-regularized values
    (int_0^inf e^{i a s} ds -> i / a), valid only away from resonance.
    """

    def __init__(self, c, g, remainder_bound=0.0, meta=None):
        c = np.asarray(c, dtype=complex)
        g = np.asarray(g, dtype=complex)
        if c.shape != g.shape or c.ndim != 1 or c.size == 0:
            raise ValueError("c and g must be matching non-empty 1-d arrays")
        self.c = c
        self.g = g
        self.remainder_bound = float(remainder_bound)
        self.meta = dict(meta or {})
        self.integrable = bool(np.all(g.real > INTEGRABILITY_FLOOR))

    @property
    def tau_r_estimate(self) -> float:
        """Memory time: the slowest decay, or the slowest oscillation of
        a kernel that does not decay."""
        rates = self.g.real if self.integrable else np.abs(self.g.imag)
        return float(1.0 / np.min(rates))

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-np.multiply.outer(t, self.g)) @ self.c

    def denominators(self, omega):
        """g_k - i omega for each frequency in omega, of shape
        omega.shape + (K,). Every half-range integral of the kernel
        divides by these, so this is where resonant terms are refused."""
        omega = np.asarray(omega, dtype=float)
        den = self.g - 1j * omega[..., None]
        # relative to the two rates compared, so that a slowly decaying
        # term is not taken for a resonance next to fast ones
        scale = np.maximum(np.maximum(np.abs(self.g), np.abs(omega)[..., None]), 1.0)
        if np.any(np.abs(den) < 1e-9 * scale):
            raise KernelNotIntegrableError(
                "a kernel term is resonant with the requested frequency; "
                "its half-range integral is undefined there"
            )
        return den

    def half_fourier(self, omega) -> complex:
        """Gamma(omega) = int_0^inf exp(i omega t) C(t) dt."""
        return complex(np.sum(self.c / self.denominators(float(omega))))

    def tail_kernel(self, eps, sigma) -> TailKernel:
        return TailKernel(self, eps, sigma)


class TermSums:
    """t -> sum_k a_rk exp(-g_k t) for amplitude rows a (R, K) of a
    kernel, as an array of shape t.shape + (R,).

    Every time integral of the kernel reduces to such sums. Terms are
    sorted by Re g, and each time keeps only the leading terms that
    term_groups selects for it. Exponentials are formed in blocks of at
    most EXP_BLOCK (time x term) entries, and each block is summed from
    its smallest (fastest-decaying) term up in one matrix product, which
    keeps the rounding error of the 4001-term continuum sums near 1e-16.
    Kernels with real decay rates use real exponentials.
    """

    def __init__(self, kernel, amp):
        amp = np.atleast_2d(np.asarray(amp, dtype=complex))
        order = np.argsort(kernel.g.real, kind="stable")[::-1]
        g = kernel.g[order]
        self._re_g = g.real[::-1]
        self._rows = amp.shape[0]
        self._real_g = bool(np.all(g.imag == 0.0))
        a = amp[:, order].T
        if self._real_g:
            self._gneg = -g.real
            self._amp = np.ascontiguousarray(np.hstack((a.real, a.imag)))
        else:
            self._gneg = -g
            self._amp = np.ascontiguousarray(a)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty((flat.size, self._rows), dtype=complex)
        n_all = self._re_g.size
        for sel, n_terms in term_groups(self._re_g, flat):
            idx = np.flatnonzero(sel)
            k = slice(n_all - n_terms, None)
            step = max(1, EXP_BLOCK // n_terms)
            for lo in range(0, idx.size, step):
                part = idx[lo : lo + step]
                v = np.exp(np.multiply.outer(flat[part], self._gneg[k])) @ self._amp[k]
                out[part] = v[:, : self._rows] + 1j * v[:, self._rows :] if self._real_g else v
        return out.reshape(t.shape + (self._rows,))


class TailKernel:
    """F_sigma(tau) = int_tau^inf exp(i sigma eps u) C(u) du in closed form.

    Each term integrates to c exp((i sigma eps - g) tau) / (g - i sigma eps),
    a TermSums row times the phase exp(i sigma eps tau). Purely
    oscillatory terms (discrete modes) get the Abel-regularized value,
    which is what the perturbative formulas require off resonance.

    sigma is +1, -1 or a tuple of them; a tuple adds a trailing axis
    over its entries to the result, and every entry shares the same
    exponentials exp(-g tau).
    """

    def __init__(self, kernel, eps, sigma):
        sigmas = np.atleast_1d(np.asarray(sigma))
        if sigmas.ndim != 1 or not np.all(np.isin(sigmas, (1, -1))):
            raise ValueError("sigma must be +1, -1 or a tuple of them")
        self.sigma = sigma
        self._freq = float(eps) * sigmas
        self._sums = TermSums(kernel, kernel.c / kernel.denominators(self._freq))

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = self._sums(tau) * np.exp(1j * np.multiply.outer(tau, self._freq))
        return out[..., 0] if np.ndim(self.sigma) == 0 else out


def sign_phases(eps, t, signs):
    """exp(i s eps t) for times t, on a trailing axis over signs s = +-1,
    from one complex exponential per time."""
    z = np.exp(1j * float(eps) * np.asarray(t, dtype=float))[..., None]
    return np.where(np.asarray(signs) > 0, z, np.conj(z))


class SlippageIntegrals:
    """The integrals I_{s' s''}(t) of the slippage correction,

        I_{s' s''}(t) = sum_k c_k / (g_k + i s'' eps) phi(i s' eps - g_k, t),

    phi(a, t) = (e^{a t} - 1) / a, for the four PAIRS on a trailing axis
    over times t. Each is one TermSums row,

        I(t) = e^{i s' eps t} S(t) - S(0),   S(t) = sum_k w_k e^{-g_k t},
        w_k = c_k / ((g_k + i s'' eps)(i s' eps - g_k)).

    I(0) is exactly zero. At t = inf the decaying part S(t) is gone,
    which is the limit for integrable kernels only.
    """

    def __init__(self, kernel, eps):
        self.eps = float(eps)
        self._kernel = kernel
        # g - i s eps for s = +1, -1, so that w = -c / (den[-s''] den[s'])
        den = dict(zip((1, -1), kernel.denominators(self.eps * np.array([1.0, -1.0]))))
        self._w = -kernel.c / np.array([den[-sq] * den[sp] for sp, sq in PAIRS])
        self.s0 = self._w.sum(axis=-1)

    @cached_property
    def sums(self):
        """S(t) for the four pairs, built on first use: t = inf needs
        only S(0)."""
        return TermSums(self._kernel, self._w)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("t must be non-negative")
        out = np.empty(t.shape + (4,), dtype=complex)
        out[...] = -self.s0
        out[t == 0.0] = 0.0
        live = np.isfinite(t) & (t > 0.0)
        if np.any(live):
            out[live] = self.from_sums(t[live], self.sums(t[live]))
        return out

    def from_sums(self, t, sums):
        """I at finite times t from the sums S(t) = self.sums(t)."""
        return sign_phases(self.eps, t, PAIR_SP) * sums - self.s0


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
    return ExponentialSum(c, g, remainder_bound=rb, meta=meta)


def fit_exponential_mixture(spec: LorentzDrudeBath, k_max=DEFAULT_K_MAX) -> ExponentialSum:
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


def discrete_kernel(spec: DiscreteModes) -> ExponentialSum:
    """Exact finite-sum kernel with untruncated thermal occupations,

        C(t) = sum_r nu_r^2 [ (nbar_r + 1) e^{-i w_r t} + nbar_r e^{+i w_r t} ].
    """
    w = spec.frequencies
    nu2 = spec.couplings**2
    nbar = bose_occupation(spec.beta, w)
    c = np.concatenate((nu2 * (nbar + 1.0), nu2 * nbar)).astype(complex)
    g = np.concatenate((1j * w, -1j * w))
    return ExponentialSum(c, g, meta={"beta": spec.beta, "n_modes": len(spec.modes)})


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


def kernel_to_json(kernel: ExponentialSum) -> str:
    if not kernel.integrable:
        raise TypeError("only integrable kernels serialize to JSON")
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


def _json_numbers(values):
    """values as finite floats; ValueError for anything else."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ValueError("kernel JSON values must be numbers")
    try:
        out = np.array(values, dtype=float)
    except OverflowError as exc:
        raise ValueError("kernel JSON value out of range") from exc
    if not np.all(np.isfinite(out)):
        raise ValueError("kernel JSON values must be finite")
    return out


def kernel_from_json(text: str) -> ExponentialSum:
    """Inverse of kernel_to_json. A malformed or non-finite document
    raises ValueError, a decay rate at or below INTEGRABILITY_FLOOR
    raises KernelNotIntegrableError."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("type") != "exp_mixture":
        raise ValueError("unsupported kernel JSON type")
    terms = obj.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ValueError("kernel JSON needs a non-empty list of terms")
    keys = ("c_re", "c_im", "g_re", "g_im")
    if not all(isinstance(t, dict) and all(k in t for k in keys) for t in terms):
        raise ValueError(f"every kernel JSON term needs the keys {', '.join(keys)}")
    vals = _json_numbers([t[k] for t in terms for k in keys]).reshape(-1, 4)
    meta = {k: obj.get(k) for k in ("beta", "omega", "k_max")}
    rb = 0.0
    if all(v is not None for v in meta.values()):
        beta, omega, k_max = _json_numbers(list(meta.values()))
        if min(beta, omega, k_max) <= 0.0 or not isinstance(meta["k_max"], int):
            raise ValueError("kernel JSON needs positive beta and omega and a positive integer k_max")
        rb = _matsubara_remainder(omega, beta, meta["k_max"])
    c = vals[:, 0] + 1j * vals[:, 1]
    g = vals[:, 2] + 1j * vals[:, 3]
    kernel = ExponentialSum(c, g, remainder_bound=rb, meta=meta)
    if not kernel.integrable:
        raise KernelNotIntegrableError(
            "kernel has no t -> infinity limit: a decay rate has "
            "non-positive real part"
        )
    return kernel
