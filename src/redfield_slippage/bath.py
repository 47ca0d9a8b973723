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
term.

correlation_quadrature is the independent check of the pole series: it
integrates the frequency representation of C(t) on a contour shifted
into the lower half plane, with 16-point Gauss-Legendre panels graded
toward the nearest singularity, closed-form exponential-integral ends
and a per-time error estimate from successive panel bisections. It
evaluates every time of a group with the same nodes and shares no code
with the pole sum.

C(t) has an integrable logarithmic divergence at t = 0, so the kernel
table of the command line starts no earlier than T_MIN_FACTOR / Omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_K_MAX = 4000
T_MIN_FACTOR = 1e-6
# decay rates below this are treated as non-decaying
INTEGRABILITY_FLOOR = 1e-12
# kernel terms with Re g * t above this weigh below e^-40 ~ 4e-18 at t
TERM_CUTOFF = 40.0
# largest (times x terms) block of exponentials evaluated at once
EXP_BLOCK = 2**16
SERIES_BLOCK = 2**20  # in ExponentialSum.evaluate (16 MB): 200 x 4001 is one block
# contour quadrature: 16-point Gauss-Legendre panel rule, default
# relative tolerance between passes and the most panel bisections after
# the first
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
QUAD_REL_TOL = 1e-12
QUAD_MAX_PASSES = 6
# most panels of the first pass of one time group: 2 X T / (2 pi) for
# times up to T, with X = max(40 / beta, 30 omega_c)
QUAD_MAX_PANELS = 2**18
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
        # Im C(t) = -(pi/2) omega_c^2 exp(-omega_c t) must be a double
        if not (self.omega_c > 0.0 and math.isfinite(0.5 * math.pi * self.omega_c * self.omega_c)):
            raise ValueError(f"omega_c must be positive, with (pi/2) omega_c^2 finite: {self.omega_c:g}")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        if not math.isfinite(0.5 * self.beta * self.omega_c):
            raise ValueError(f"beta * omega_c overflows: {self.beta:g} * {self.omega_c:g}")


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
    """1 / (e^{beta w} - 1), and its limit e^{-beta w} where expm1
    overflows (beta w > 709.78), without an overflow warning."""
    x = beta * np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        em1 = np.expm1(x)
        over = np.isinf(em1)
        if np.any(over):
            return np.where(over, np.exp(-x), 1.0 / em1)
    return 1.0 / em1


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
        slowest = float(np.min(rates))
        return 1.0 / slowest if slowest > 0.0 else math.inf

    def evaluate(self, t):
        """C(t), from exponentials formed SERIES_BLOCK (time x term) at a time."""
        t = np.asarray(t, dtype=float)
        step = max(1, SERIES_BLOCK // self.g.size)
        parts = np.split(t.ravel(), range(step, t.size, step))
        sums = [np.exp(-np.multiply.outer(u, self.g)) @ self.c for u in parts]
        return np.concatenate(sums).reshape(t.shape)

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
    """F_sigma(tau) = int_tau^inf exp(i sigma eps u) C(u) du in closed form,
    for sigma = +1 and -1 on a trailing axis of length 2.

    Each term integrates to c exp((i sigma eps - g) tau) / (g - i sigma eps),
    a TermSums row times the phase exp(i sigma eps tau); both signs share
    the same exponentials exp(-g tau). Purely oscillatory terms (discrete
    modes) get the Abel-regularized value, which is what the perturbative
    formulas require off resonance.
    """

    def __init__(self, kernel, eps):
        self._freq = float(eps) * np.array([1.0, -1.0])
        self._sums = TermSums(kernel, kernel.c / kernel.denominators(self._freq))

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        return self._sums(tau) * np.exp(1j * np.multiply.outer(tau, self._freq))


def sign_phases(phase, signs):
    """exp(i s eps t) on a trailing axis over signs s = +-1, from the
    one complex exponential per time phase = exp(i eps t)."""
    z = np.asarray(phase)[..., None]
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
            out[live] = self.from_sums(np.exp(1j * self.eps * t[live]), self.sums(t[live]))
        return out

    def from_sums(self, phase, sums):
        """I at finite times t from phase = exp(i eps t) and S(t) = self.sums(t)."""
        return sign_phases(phase, PAIR_SP) * sums - self.s0


def _matsubara_remainder(omega_c, beta, k_max):
    """Bound on the dropped Matsubara tail, evaluated at the reference
    time t_ref = 1e-3 / omega_c where downstream integrands are probed.

    The first 20000 dropped terms are summed directly; the rest are
    closed off geometrically (|c_k| decreases once nu_k > omega_c while
    exp(-nu_k t_ref) contracts by a fixed factor per term). The bound is
    monotone decreasing in k_max because each increment removes one
    positive term from a nested tail sum.
    """
    t_ref = 1e-3 / omega_c
    k = np.arange(k_max + 1, k_max + 20001, dtype=float)
    nu = 2.0 * np.pi * k / beta
    coeff = (2.0 * np.pi * omega_c**2 / beta) * nu / np.abs(nu * nu - omega_c**2)
    terms = coeff * np.exp(-nu * t_ref)
    ratio = math.exp(-2.0 * math.pi * t_ref / beta)
    if ratio == 1.0:  # the geometric tail does not contract: no bound
        return math.inf
    return float(terms.sum() + terms[-1] * ratio / (1.0 - ratio))


# extreme omega_c or beta overflow the poles or the amplitudes: such a fit
# is refused as not finite, and numpy need not warn on the way there
@lru_cache(maxsize=32)
@np.errstate(over="ignore", invalid="ignore")
def _fit_cached(omega_c, beta, k_max):
    # cot(beta*omega_c/2) pole: beta*omega_c/2 near k pi (k >= 1) also
    # collides the cutoff pole with the Matsubara frequency 2 pi k / beta.
    # Near k = 0 no Matsubara frequency is close and c_0 tends to the
    # finite pi omega_c / beta.
    x = 0.5 * beta * omega_c
    if round(x / math.pi) >= 1 and abs(math.remainder(x, math.pi)) < 1e-6:
        raise PoleCollisionError(
            "beta * omega_c / 2 is within 1e-6 of a nonzero multiple of pi; "
            "shift omega_c or beta by a relative 1e-6 or more"
        )
    k = np.arange(1, k_max + 1, dtype=float)
    nu = 2.0 * np.pi * k / beta
    if np.min(np.abs(nu - omega_c)) < 1e-9 * omega_c:
        raise PoleCollisionError(
            "a Matsubara frequency 2 pi k / beta coincides with omega_c; "
            "shift omega_c or beta by a relative 1e-6 or more"
        )
    c0 = 0.5 * np.pi * omega_c**2 * ((1.0 / math.tan(x) if x else math.inf) - 1j)
    if not np.isfinite(c0):
        # omega_c^2 underflows to 0 where cot x overflows: write
        # omega_c^2 cot x = (2 omega_c / beta) x cot x instead
        x_cot_x = x / math.tan(x) if x else 1.0
        c0 = np.pi * omega_c / beta * x_cot_x - 0.5j * np.pi * omega_c**2
    ck = (2.0 * np.pi * omega_c**2 / beta) * nu / (nu * nu - omega_c**2)
    c = np.concatenate(([c0], ck.astype(complex)))
    g = np.concatenate(([omega_c], nu)).astype(complex)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(g))):
        raise ValueError(
            f"the pole expansion is not finite at omega_c = {omega_c:g}, beta = {beta:g}"
        )
    rb = _matsubara_remainder(omega_c, beta, k_max)
    meta = {"beta": beta, "omega": omega_c, "k_max": int(k_max)}
    return ExponentialSum(c, g, remainder_bound=rb, meta=meta)


def fit_exponential_mixture(spec: LorentzDrudeBath, k_max) -> ExponentialSum:
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


def _exp1_scaled(z):
    """e^z E1(z) without overflow: the product of the two factors where
    |Re z| < 500, the asymptotic series (1/z) sum_n (-1)^n n! / z^n
    elsewhere, where |z| >= 500 makes 16 terms exact to double precision."""
    from scipy.special import exp1

    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    near = np.abs(z.real) < 500.0
    out[near] = np.exp(z[near]) * exp1(z[near])
    inv = 1.0 / z[~near]
    series = np.ones_like(inv)
    for n in range(15, 0, -1):
        series = 1.0 - n * inv * series
    out[~near] = inv * series
    return out


def _panel_edges(d, x_cut, width):
    """Edges of Gauss-Legendre panels on [-x_cut, x_cut], symmetric about
    x = 0, where every singularity of the shifted integrand lies (at
    distance d or more). A central panel [-d/2, d/2] is followed by
    panels that grow geometrically to half their distance from 0 and
    then stay at most `width` wide."""
    edges = [0.5 * d]
    while edges[-1] < x_cut and 0.5 * edges[-1] < width:
        edges.append(1.5 * edges[-1])
    right = np.minimum(edges, x_cut)
    if right[-1] < x_cut:
        n = math.ceil((x_cut - right[-1]) / width)
        right = np.concatenate((right, np.linspace(right[-1], x_cut, n + 1)[1:]))
    return np.concatenate((-right[::-1], right))


def _panel_rule(edges, splits):
    """Nodes and weights of 16-point Gauss-Legendre panels on
    edges, each panel cut into `splits` equal parts."""
    frac = np.arange(splits) / splits
    lo = (edges[:-1, None] + np.diff(edges)[:, None] * frac).ravel()
    hi = np.append(lo[1:], edges[-1])
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * GL_NODES).ravel()
    return x, (half[:, None] * GL_WEIGHTS).ravel()


def _shifted_integrand(spec, x, c):
    """f(w) = J(w)(1 + nbar(w)) on w = x - i c, nbar(w) = 1 / (e^{beta w} - 1),
    in a form that neither overflows nor cancels on either side of 0."""
    z = x - 1j * c
    j = z * spec.omega_c**2 / (z * z + spec.omega_c**2)
    occ = np.empty_like(z)
    pos = x >= 0.0
    occ[pos] = -1.0 / np.expm1(-spec.beta * z[pos])
    bz = spec.beta * z[~pos]
    occ[~pos] = np.exp(bz) / np.expm1(bz)
    return j * occ


def _contour_sums(spec, c, edges, splits, t):
    """sum_j f_j w_j e^{-i x_j t} for each time t, over the panels on
    edges cut into `splits` parts each. Nodes are built in chunks and the
    exponentials formed in blocks of at most EXP_BLOCK entries. Each row
    is summed on its own (pairwise, along the nodes), so a time's sum does
    not depend on the block it falls in and an array call agrees bit for
    bit with scalar calls. Also returns sqrt(sum_j |f_j w_j x_j|^2), the
    scale of the rounding noise of the phases x_j t per unit of t."""
    out = np.zeros(t.size, dtype=complex)
    spread = 0.0
    per_chunk = max(1, EXP_BLOCK // (GL_NODES.size * splits))
    for lo in range(0, edges.size - 1, per_chunk):
        x, w = _panel_rule(edges[lo : lo + per_chunk + 1], splits)
        fw = _shifted_integrand(spec, x, c) * w
        spread += np.sum((np.abs(fw) * x) ** 2)
        step = max(1, EXP_BLOCK // x.size)
        for tl in range(0, t.size, step):
            part = slice(tl, tl + step)
            out[part] += np.sum(np.exp(-1j * np.multiply.outer(t[part], x)) * fw, axis=1)
    return out, math.sqrt(spread)


def correlation_quadrature(spec: LorentzDrudeBath, t):
    """Continuum kernel by a Gauss-Legendre rule on a shifted contour,
    with a per-time error estimate.

    The frequency integrand f(w) = J(w)(1 + nbar(w)), extended to the
    whole real line, is analytic in the strip |Im w| < s with
    s = min(omega_c, 2 pi / beta); its singularities lie on the
    imaginary axis. Moving the contour to w = x - i c turns e^{-iwt}
    into e^{-ct} e^{-ixt}. Times are grouped by the power of two T
    above them, at most 2^1023, and each group takes c = s - d with
    d = min(s / 10, 1 / T), so the leftover e^{dt} cancellation costs at
    most about one e-fold (two beyond 2^1023); d is at least 4 eps s, so
    that c does not round to s, where the contour meets a singularity.
    A subnormal s, for which d underflows to 0 or c still rounds to s,
    raises ValueError.
    The line [-X, X] with X = max(40 / beta, 30 omega_c) is covered by
    16-point Gauss-Legendre panels graded geometrically toward x = 0 at
    the distance d of the nearest singularity and no wider than one
    period 2 pi / T; the ends beyond X are completed in closed form with
    scaled exponential integrals. Each pass bisects every panel of the
    one before, and a time stops when two passes agree to QUAD_REL_TOL
    relative, or to the rounding floor
    4 eps (sum |f_j w_j| + |tail| + t sqrt(sum_j |f_j w_j x_j|^2)) that
    more panels cannot lower, or after QUAD_MAX_PASSES bisections. A
    group that would need more than QUAD_MAX_PANELS panels raises
    ValueError. A time whose bound e^{-ct} (sum |f_j w_j| + |tail|)
    underflows is exactly 0 with an error of 0, so the node count stays
    bounded for any t. Shares no code with the pole expansion.

    Returns (values, err_est) shaped like t: the last pass and, per
    time, an absolute error estimate, e^{-ct} times the last
    pass-to-pass change plus the rounding floor, plus eps c t |C| for
    the rounding of the exponent.
    """
    omega_c, beta = spec.omega_c, spec.beta
    s = min(omega_c, 2.0 * np.pi / beta)
    # beyond X, f differs from J (x > X) and from 0 (x < -X) by J nbar,
    # below e^{-40} J. X >= 30 omega_c keeps the E1 arguments near the
    # imaginary axis: scipy's complex exp1 loses up to 3e-13 relative
    # near |z| = 4 close to the positive real axis
    x_cut = max(40.0 / beta, 30.0 * omega_c)
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    if not np.all(flat > 0.0):
        raise ValueError("t must be positive")
    eps = np.finfo(float).eps
    values = np.zeros(flat.size, dtype=complex)
    err = np.zeros(flat.size)
    # 2^1024 overflows to a d of 0, for which no panel edges end
    powers = np.minimum(np.ceil(np.log2(flat)), 1023.0)
    # longest times first, so a group over the panel budget fails early
    for power in np.unique(powers)[::-1]:
        idx = np.flatnonzero(powers == power)
        tt = flat[idx]
        t_group = 2.0**power
        d = max(min(0.1 * s, 1.0 / t_group), 4.0 * eps * s)
        c = s - d
        if not (d > 0.0 and c < s):
            raise ValueError(
                f"the strip half-width s = min(omega_c, 2 pi / beta) = {s:g} is too small "
                "to shift the contour below the real axis"
            )
        # J(w) = (omega_c^2 / 2) sum_p 1 / (w - p) beyond X, integrated
        # exactly; where t X overflows the tail is NaN, and the alive test
        # below counts such a time as underflowed
        with np.errstate(over="ignore", invalid="ignore"):
            z1 = 1j * tt * (x_cut - 1j * (c + omega_c))
            z2 = 1j * tt * (x_cut + 1j * (omega_c - c))
            tail = 0.5 * omega_c**2 * np.exp(-1j * x_cut * tt) * (_exp1_scaled(z1) + _exp1_scaled(z2))
        # sum |f_j w_j| on the panels without the period cap, which
        # depends on the group only through c
        x, w = _panel_rule(_panel_edges(d, x_cut, np.inf), 1)
        size = np.sum(np.abs(_shifted_integrand(spec, x, c) * w)) + np.abs(tail)
        # times whose bound e^{-ct} size underflows stay exactly 0, so
        # no period-wide panels are built for them
        alive = np.flatnonzero(np.exp(np.log(size) - c * tt) > 0.0)
        if alive.size == 0:
            continue
        width = 2.0 * np.pi / t_group
        if 2.0 * x_cut / width > QUAD_MAX_PANELS:
            raise ValueError(
                f"the contour rule for t up to {t_group:g} needs about "
                f"{2.0 * x_cut / width:.3g} panels, over its limit of {QUAD_MAX_PANELS}; "
                "lower quadrature.t_max, or raise bath.beta or lower bath.omega_cutoff"
            )
        edges = _panel_edges(d, x_cut, width)
        total = np.zeros(tt.size, dtype=complex)
        change = np.zeros(tt.size)
        floor = np.zeros(tt.size)
        live = alive
        for k in range(QUAD_MAX_PASSES + 1):
            sums, spread = _contour_sums(spec, c, edges, 2**k, tt[live])
            new = sums + tail[live]
            change[live] = np.abs(new - total[live])
            total[live] = new
            # rounding that no bisection removes: a few eps of each term,
            # and phases x_j t rounded by up to eps |x_j t| / 2, whose
            # errors add up like a random walk
            floor[live] = 4.0 * eps * (size[live] + tt[live] * spread)
            if k > 0:
                live = live[change[live] > np.maximum(QUAD_REL_TOL * np.abs(new), floor[live])]
                if live.size == 0:
                    break
        t_alive = tt[alive]
        value = np.exp(-c * t_alive) * total[alive]
        values[idx[alive]] = value
        # pass-to-pass change plus the rounding of the sum and of e^{-ct}
        err[idx[alive]] = (
            np.exp(-c * t_alive) * (change[alive] + floor[alive])
            + eps * c * t_alive * np.abs(value)
        )
    values = values.reshape(t_arr.shape)
    err = err.reshape(t_arr.shape)
    if t_arr.ndim == 0:
        return complex(values), float(err)
    return values, err


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
