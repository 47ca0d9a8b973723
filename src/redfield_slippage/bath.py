"""Reservoir spectral densities and correlation kernels.

The continuum reservoir is ohmic with an algebraic cutoff,

    J(w) = w * Omega^2 / (w^2 + Omega^2),

and its finite-temperature correlation function

    C(t) = int_0^inf dw J(w) [coth(beta w / 2) cos(w t) - i sin(w t)]

is carried in two interchangeable representations. The workhorse is a
pole expansion C(t) = sum_k c_k exp(-g_k t) held in ExponentialSum, the
one kernel type: the cutoff pole and the infinite Matsubara series,
summed by Gauss rules on blocks of Matsubara indices with a certified
error (fit_exponential_mixture); small discrete
mode sets, used by the exact reference dynamics, are exponential sums
with purely imaginary decay rates. C(t) itself and every downstream
time integral, each closed form, are sums sum_k a_k exp(-g_k t) over
rows of amplitudes a, which TermSums alone evaluates over arrays of
times, each time by a product of its own, so that no value of a time
depends on the other times of its call: C (ExponentialSum.evaluate),
the finite-memory rates F_sigma (TailKernel) and the slippage
integrals I (SlippageIntegrals), from which the regions module also
assembles its variational D. Half-range integrals divide by
g_k - i omega, and ExponentialSum.denominators is the one place that
refuses a resonant term.

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

T_MIN_FACTOR = 1e-6
# the compressed Matsubara series: the error budget of its certificate
# (relative to omega_c^2 for C, to omega_c for Gamma), the most Gauss
# nodes of one block, the growth of the blocks, the times of the sampled
# sup of a block below the cutoff, and the most Matsubara frequencies
# below the cutoff that are summed (about 2 log4 of that blocks; past it
# only the first MAX_BELOW_CUTOFF are, and the error bound is infinite)
FIT_TOL = 3e-13
MAX_NODES = 16
BLOCK_GROWTH = 3.0
SUP_SAMPLES = 256
MAX_BELOW_CUTOFF = 1e8
# decay rates below this are treated as non-decaying
INTEGRABILITY_FLOOR = 1e-12
# kernel terms with Re g * t above this weigh below e^-40 ~ 4e-18 at t
TERM_CUTOFF = 40.0
# largest (times x terms) block of exponentials evaluated at once
EXP_BLOCK = 2**16
# contour quadrature: 16-point Gauss-Legendre panel rule, default
# relative tolerance between passes and the most panel bisections after
# the first
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
QUAD_REL_TOL = 1e-12
QUAD_MAX_PASSES = 6
# most panels of the first pass of one time group: 2 X T / (2 pi) for
# times up to T, with X = 40 / beta
QUAD_MAX_PANELS = 2**18
# the continued fraction of _exp1_scaled takes E1_REACH / min |z| + 8
# levels: 3e-16 relative against mpmath for |z| >= 2, Re z >= 0
E1_REACH = 200.0
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
    """J(w), at real w and on the shifted contour at complex w."""
    w = np.asarray(w)
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
        # real rates (the continuum pole expansion) take real exponentials
        self.real_rates = bool(np.all(g.imag == 0.0))

    @property
    def tau_r_estimate(self) -> float:
        """Memory time: the slowest decay, or the slowest oscillation of
        a kernel that does not decay."""
        rates = self.g.real if self.integrable else np.abs(self.g.imag)
        slowest = float(np.min(rates))
        return 1.0 / slowest if slowest > 0.0 else math.inf

    @cached_property
    def _series(self):
        return TermSums(self, self.c)

    def evaluate(self, t):
        """C(t), shaped like t: the TermSums row of the amplitudes c."""
        return self._series(t)[..., 0]

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
    most EXP_BLOCK (time x term) entries, and each time is summed from
    its smallest (fastest-decaying) term up by a product of its own,
    which keeps the rounding error of the continuum sums near 1e-16.
    Kernels with real decay rates use real exponentials. One matrix
    product for a block would round a time's sums differently with the
    number of times in the block; a product per time makes every sum of
    a time independent of the other times of the call.
    """

    def __init__(self, kernel, amp):
        amp = np.atleast_2d(np.asarray(amp, dtype=complex))
        order = np.argsort(kernel.g.real, kind="stable")[::-1]
        g = kernel.g[order]
        self._re_g = g.real[::-1]
        self._rows = amp.shape[0]
        self._real_g = kernel.real_rates
        a = amp[:, order]
        if self._real_g:
            self._gneg = -g.real
            # rows stacked first, so that only one transpose is strided
            self._amp = np.ascontiguousarray(np.concatenate((a.real, a.imag)).T)
        else:
            self._gneg = -g
            self._amp = np.ascontiguousarray(a.T)

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
                e = np.exp(np.multiply.outer(flat[part], self._gneg[k]))
                v = (e[:, None, :] @ self._amp[k])[:, 0]
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
        self.w = -kernel.c / np.array([den[-sq] * den[sp] for sp, sq in PAIRS])
        self.s0 = self.w.sum(axis=-1)

    @cached_property
    def sums(self):
        """S(t) for the four pairs, built on first use: t = inf needs
        only S(0)."""
        return TermSums(self._kernel, self.w)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("t must be in [0, inf]")
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


def _gram_rules(n_pts, n):
    """The n-node Gauss and the (n + 2)-node Gauss-Lobatto rules of the
    uniform measure on each of B blocks of n_pts points, in the scaled
    variable y_j = (2 j + 1 - n_pts) / n_pts, j = 0 .. n_pts - 1: nodes
    and weights, each (B, max n + 2), with weights 0 past each rule's
    nodes. The discrete Chebyshev (Gram) recurrence has zero diagonal and
    off-diagonals b_j^(1/2), b_j = j^2 (1 - j^2 / n_pts^2) / (4 j^2 - 1).
    The Lobatto rule has nodes at both end points y = +-e,
    e = (n_pts - 1) / n_pts, and by symmetry differs only in its last
    off-diagonal, b = e p_{n+1}(e) / p_n(e) with the monic orthogonal
    polynomials p (Golub, SIAM Rev. 15, 318 (1973)). All 2B Jacobi
    matrices are padded to one order with uncoupled diagonal entries
    above 1 and take one eigh call."""
    size = int(n.max(initial=1)) + 2
    j = np.arange(1.0, size)
    b = j * j * np.maximum(1.0 - (j / n_pts[:, None]) ** 2, 0.0) / (4.0 * j * j - 1.0)
    end = (n_pts - 1.0) / n_pts
    p_prev, p, b_end = np.zeros_like(end), np.ones_like(end), np.zeros_like(end)
    for k in range(size - 1):
        p_prev, p = p, end * p - (b[:, k - 1] if k else 0.0) * p_prev
        b_end = np.where(k == n, end * p / p_prev, b_end)
    b_lob = np.where(j == n[:, None] + 1, b_end[:, None], b)
    order = np.concatenate((n, n + 2))
    off = np.sqrt(np.where(j < order[:, None], np.concatenate((b, b_lob)), 0.0))
    diag = np.where(np.arange(size) >= order[:, None], 4.0 + np.arange(size), 0.0)
    jac = np.zeros((order.size, size, size))
    i = np.arange(size)
    jac[:, i, i] = diag
    jac[:, i[:-1], i[1:]] = jac[:, i[1:], i[:-1]] = off
    y, v = np.linalg.eigh(jac)
    w = np.where(i < order[:, None], np.concatenate((n_pts, n_pts))[:, None] * v[:, 0, :] ** 2, 0.0)
    return (y[: n.size], w[: n.size]), (y[n.size :], w[n.size :])


def _index_blocks(k0, k_end):
    """Blocks (K, N), the Matsubara indices K .. K + N - 1, from 1 until
    k_end is passed, no longer than BLOCK_GROWTH times their distance to
    the singular points 0 and k0 of the summand in k, so that none
    contains k0, and the first index after them; None for that index
    where k_end lies below k0. Python integers, so that no index is lost
    to rounding."""
    blocks = []
    k = 1
    k_below = math.ceil(k0) - 1
    while k <= min(k_below, k_end):
        n = max(1, min(int(BLOCK_GROWTH * k), int(BLOCK_GROWTH * (k_below - k + 1) / (1.0 + BLOCK_GROWTH))))
        blocks.append((k, n))
        k += n
    if k <= k_below:
        return blocks, None
    k = max(k, math.floor(k0) + 1)
    while k <= k_end:
        n = max(1, int(BLOCK_GROWTH * (k - k0)))
        blocks.append((k, n))
        k += n
    return blocks, k


def _tail_bounds(omega_c, h, k_from, t_min):
    """Bounds on the Matsubara terms k >= k_from, nu_k >= 2 omega_c:
    sum c_k e^{-nu_k t_min}, sum c_k / nu_k and sum c_k / nu_k^2, from
    c(nu) <= (4/3) omega_c^2 / k and sum over k <= first term + integral;
    numpy scalars, so that an overflow is inf, not an exception."""
    k = np.float64(k_from)
    nu = h * k
    amp = (4.0 / 3.0) * np.float64(omega_c) ** 2
    c_tail = amp / k * np.exp(-nu * t_min) / -np.expm1(-h * t_min)
    return c_tail, amp * (1.0 / (k * nu) + 1.0 / nu), amp * (1.0 / (k * nu * nu) + 0.5 / (nu * nu))


def _compress_matsubara(omega_c, beta):
    """The Matsubara series compressed to Gauss rules on index blocks:
    rates nu (ascending), amplitudes c and the certified error bounds of
    C(t) on [T_MIN_FACTOR / omega_c, inf), of Gamma(omega) at any real
    omega (and F_sigma(tau) at any tau >= 0), and of S(0).

    The summand of block b, c(nu) f(nu) at nu_k = h k, h = 2 pi / beta, is
    summed by the n-node Gauss rule G_b of the uniform measure on its
    indices. The envelope chat(nu) = (A / 2)(1 / |nu - omega_c| + 1 / (nu + omega_c)),
    A = h omega_c^2, equals |c(nu)| and, times e^{-nu t}, is a positive
    mixture of exponentials e^{lambda nu}, whose even derivatives are all
    positive: on such f, G_b <= exact <= L_b, the (n + 2)-node
    Gauss-Lobatto rule of the block. So |error of C(t)| <= (L_b - G_b)
    [chat e^{-nu t}], and integrating over t bounds Gamma by
    (L_b - G_b)[chat / nu] and S(0) by (L_b - G_b)[chat / nu^2]. Above
    omega_c that C bound does not increase with t, so t_min gives its
    sup; below omega_c its sup is sampled at SUP_SAMPLES geometric times
    and doubled. Each block takes about the fewest nodes that meet
    FIT_TOL omega_c^2 (C) and FIT_TOL omega_c (Gamma) over the number of
    blocks, at most MAX_NODES; a block that is no longer than its rule
    keeps its terms exactly. The terms beyond the last block, from
    nu = 10 omega_c / FIT_TOL up, are bounded in closed form and left out.
    """
    h = 2.0 * math.pi / beta
    amp = h * omega_c**2
    k0 = omega_c / h
    t_min = T_MIN_FACTOR / omega_c
    # past 10 omega_c / FIT_TOL the Gamma tail is below FIT_TOL omega_c / 7
    k_end = max(10.0 * omega_c / (FIT_TOL * h), 2.0 * k0 + 1.0)
    if k0 > MAX_BELOW_CUTOFF:
        k_end = MAX_BELOW_CUTOFF
    blocks, k_next = _index_blocks(k0, k_end)
    start = np.array([b[0] for b in blocks], dtype=float)
    size = np.array([b[1] for b in blocks], dtype=float)
    mid = start + 0.5 * (size - 1.0)
    below = h * start < omega_c

    def chat(nu):
        return 0.5 * amp * (1.0 / np.abs(nu - omega_c) + 1.0 / (nu + omega_c))

    def bracket(sel, lob, gau, f):
        """(L - G)[f] per block of sel, plus the rounding of both sums."""
        out = []
        for y, w in (lob, gau):
            fw = np.where(w > 0.0, w * f(h * (mid[sel, None] + 0.5 * y * size[sel, None])), 0.0)
            out += [np.sum(fw, axis=-1), np.sum(np.abs(fw), axis=-1)]
        return np.maximum(out[0] - out[2], 0.0) + 4.0 * np.finfo(float).eps * (out[1] + out[3])

    # a block takes a rule only where it saves terms: n + 2 < its length
    comp = np.flatnonzero(size > 3.0)
    cap = np.minimum(MAX_NODES, size[comp] - 3.0).astype(int)
    # the smallest normal double keeps a tolerance that underflows from
    # dividing by 0: a bound that underflows with it meets it
    tiny = np.finfo(float).tiny
    tol_c = max(FIT_TOL * omega_c**2 / max(comp.size, 1), tiny)
    tol_g = max(FIT_TOL * omega_c / max(comp.size, 1), tiny)

    def misfit(n, idx=slice(None)):
        """Rules of n nodes on the blocks comp[idx], their C and Gamma
        bounds, and the larger of the two over its tolerance."""
        blk = comp[idx]
        gau, lob = _gram_rules(size[blk], n)
        e_c = bracket(blk, lob, gau, lambda nu: chat(nu) * np.exp(-nu * t_min))
        e_g = bracket(blk, lob, gau, lambda nu: chat(nu) / nu)
        return gau, lob, e_c, e_g, np.maximum(e_c / tol_c, e_g / tol_g)

    # the bounds fall about geometrically with n: extrapolate from 3 and 5
    # nodes, then step up to the first n that meets the tolerance
    both = np.concatenate((np.arange(comp.size),) * 2)
    m35 = misfit(np.minimum(np.repeat([3, 5], comp.size), cap[both]), both)[-1].reshape(2, -1)
    rate = np.clip(np.sqrt(m35[0] / np.maximum(m35[1], 1e-300)), 2.0, 1e3)
    # a bound that is not finite (amplitudes that overflow) takes cap nodes
    n = np.nan_to_num(5 + np.ceil(np.log(np.maximum(m35[1], 1e-300)) / np.log(rate)), nan=MAX_NODES)
    n = np.clip(n, 1, cap).astype(int)
    while True:
        gau, lob, e_c, e_g, m = misfit(n)
        up = (m > 1.0) & (n < cap)
        if not up.any():
            break
        n = n + up
    # a block whose rule misses the tolerance keeps its terms, unless the
    # rule has MAX_NODES nodes already: its bound then counts as it is
    ruled = (m <= 1.0) | (n == MAX_NODES)
    sel, n = comp[ruled], n[ruled]
    gau, lob = ((y[ruled], w[ruled]) for y, w in (gau, lob))
    err = np.array([e_c[ruled], e_g[ruled], bracket(sel, lob, gau, lambda nu: chat(nu) / nu**2)])
    low = below[sel]
    if np.any(low):
        # below omega_c the sup of the C bound over t >= t_min is sampled,
        # up to t = 60 / nu of the block's first index, and doubled
        span = 60.0 / (h * start[sel[low]] * t_min)
        t = t_min * span[:, None] ** np.linspace(0.0, 1.0, SUP_SAMPLES)[:, None, None]
        sub = ((y[low], w[low]) for y, w in (lob, gau))
        err[0, low] = 2.0 * bracket(sel[low], *sub, lambda nu: chat(nu) * np.exp(-nu * t)).max(axis=0)
    nu_parts, c_parts = [], []
    rule_of = dict(zip(sel.tolist(), range(sel.size)))
    for b, (k, n_pts) in enumerate(blocks):
        if b in rule_of:
            i = rule_of[b]
            nu = h * (mid[b] + 0.5 * gau[0][i, : n[i]] * size[b])
            w = gau[1][i, : n[i]]
        else:
            nu = h * np.arange(k, k + n_pts, dtype=float)
            w = np.ones(n_pts)
        nu_parts.append(nu)
        c_parts.append(w * amp * nu / ((nu - omega_c) * (nu + omega_c)))
    tail = (math.inf,) * 3 if k_next is None else _tail_bounds(omega_c, h, k_next, t_min)
    # a bound that overflows to inf - inf is no bound
    bounds = np.nan_to_num(err.sum(axis=1) + np.array(tail), nan=math.inf)
    return np.concatenate(nu_parts), np.concatenate(c_parts), bounds


# extreme omega_c or beta overflow the poles or the amplitudes: such a fit
# is refused as not finite, and numpy need not warn on the way there
@lru_cache(maxsize=32)
@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def _fit_cached(omega_c, beta):
    # cot(beta*omega_c/2) pole: beta*omega_c/2 near k pi (k >= 1) also
    # collides the cutoff pole with the Matsubara frequency 2 pi k / beta.
    # Near k = 0 no Matsubara frequency is close and c_0 tends to the
    # finite pi omega_c / beta.
    x = 0.5 * beta * omega_c
    k0 = x / math.pi
    if round(k0) >= 1 and abs(math.remainder(x, math.pi)) < 1e-6:
        raise PoleCollisionError(
            "beta * omega_c / 2 is within 1e-6 of a nonzero multiple of pi; "
            "shift omega_c or beta by a relative 1e-6 or more"
        )
    if 1 <= round(k0) <= MAX_BELOW_CUTOFF and abs(round(k0) - k0) < 1e-9 * k0:
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
    nu, ck, (err_c, err_gamma, err_s) = _compress_matsubara(omega_c, beta)
    c = np.concatenate(([c0], ck.astype(complex)))
    g = np.concatenate(([omega_c], nu)).astype(complex)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(g))):
        raise ValueError(
            f"the pole expansion is not finite at omega_c = {omega_c:g}, beta = {beta:g}"
        )
    # C on [t_min, inf), Gamma at two frequencies (+-eps) and S(0), and
    # the rounding of x and nu_k carried into the amplitudes, which near a
    # pole collision is most of it (in C and Gamma, whose terms are at
    # most |c_k| and |c_k| / nu_k): d cot x / cot x = -dx / (sin x cos x),
    # and d c_k / c_k = -dnu (nu^2 + omega_c^2) / (nu (nu^2 - omega_c^2))
    eps = np.finfo(float).eps
    cond = 0.5 * x / abs(math.sin(x) * math.cos(x)) if x else 0.5
    d_c0 = eps * (abs(c0.real) * (3.0 + cond) + 3.0 * abs(c0.imag))
    d_ck = eps * np.abs(ck) * (3.0 + (nu * nu + omega_c**2) / np.abs(nu * nu - omega_c**2))
    d_c = np.concatenate(([d_c0], d_ck))
    rb = err_c + 2.0 * err_gamma + err_s + float(np.sum(d_c + 2.0 * d_c / g.real))
    meta = {"beta": beta, "omega": omega_c}
    return ExponentialSum(c, g, remainder_bound=rb, meta=meta)


def fit_exponential_mixture(spec: LorentzDrudeBath) -> ExponentialSum:
    """Pole expansion of the continuum kernel, the full Matsubara series
    in a few hundred terms at most, with a certified error.

    The cutoff pole is kept exactly,

        c_0 = (pi omega_c^2 / 2)(cot(beta omega_c / 2) - i),  g_0 = omega_c,

    and the infinite Matsubara series

        c_k = (2 pi omega_c^2 / beta) nu_k / (nu_k^2 - omega_c^2),
        g_k = nu_k = 2 pi k / beta,  k >= 1,

    is summed by Gauss rules of its discrete measure on blocks of k
    (_compress_matsubara); every rate is real. remainder_bound bounds the
    sum of the errors of C(t) on [T_MIN_FACTOR / omega_c, inf), of
    Gamma(omega) at two real frequencies and of S(0) of
    SlippageIntegrals; the rounding of the amplitudes enters it as it
    reaches C and Gamma, which covers S(0) where eps >= 1 or every rate
    is at least 1. The imaginary part is carried entirely by the cutoff
    pole, so Im C(t) = -(pi/2) omega_c^2 exp(-omega_c t) is exact.
    Matsubara frequencies 2 pi k / beta and omega_c closer than a
    relative 1e-9 raise PoleCollisionError. With more than
    MAX_BELOW_CUTOFF Matsubara frequencies below omega_c only the first
    MAX_BELOW_CUTOFF are summed, and remainder_bound is infinite.
    """
    return _fit_cached(float(spec.omega_c), float(spec.beta))


def mode_kernel(frequencies, couplings, up, down, meta) -> ExponentialSum:
    """Kernel of a finite set of modes with occupations up_r (emission)
    and down_r (absorption),

        C(t) = sum_r nu_r^2 [ up_r e^{-i w_r t} + down_r e^{+i w_r t} ].
    """
    nu2 = couplings**2
    c = np.concatenate((nu2 * up, nu2 * down)).astype(complex)
    g = np.concatenate((1j * frequencies, -1j * frequencies))
    return ExponentialSum(c, g, meta=meta)


def discrete_kernel(spec: DiscreteModes) -> ExponentialSum:
    """Exact finite-sum kernel with untruncated thermal occupations:
    mode_kernel with up = nbar + 1 and down = nbar, the Bose factors."""
    w = spec.frequencies
    nbar = bose_occupation(spec.beta, w)
    meta = {"beta": spec.beta, "n_modes": len(spec.modes)}
    return mode_kernel(w, spec.couplings, nbar + 1.0, nbar, meta)


def _exp1_scaled(z):
    """e^z E1(z) without overflow. Where Re z >= 0 scipy's complex exp1
    loses up to 8e-13 relative (near |z| = 4 close to the positive real
    axis), so there the power series
    -e^z (gamma + log z + sum_n (-z)^n / (n n!)) takes |z| < 2 and the
    continued fraction 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))),
    cut after E1_REACH / min |z| + 8 levels, the rest; both agree with
    mpmath to 4e-15 relative in the upper half plane. Where Re z < 0
    scipy's exp1 times e^z takes |Re z| < 500, and the asymptotic series
    (1/z) sum_n (-1)^n n! / z^n, exact to double precision with 16 terms
    at |z| >= 500, the rest."""
    from scipy.special import exp1

    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    right = z.real >= 0.0
    small = right & (np.abs(z) < 2.0)
    zs = z[small]
    term, acc = np.ones_like(zs), np.zeros_like(zs)
    for n in range(1, 40):
        term *= -zs / n
        acc += term / n
    out[small] = -np.exp(zs) * (np.euler_gamma + np.log(zs) + acc)
    frac = right & ~small
    zf = z[frac]
    depth = math.ceil(E1_REACH / np.min(np.abs(zf), initial=E1_REACH)) + 8
    den = zf + (2 * depth + 1)
    for k in range(depth, 0, -1):
        den = zf + (2 * k - 1) - k * k / den
    out[frac] = 1.0 / den
    near = ~right & (z.real > -500.0)
    out[near] = np.exp(z[near]) * exp1(z[near])
    far = ~right & ~near
    inv = 1.0 / z[far]
    series = np.ones_like(inv)
    for n in range(15, 0, -1):
        series = 1.0 - n * inv * series
    out[far] = inv * series
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
    j = spectral_density(spec, z)
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
    The line [-X, X] with X = 40 / beta is covered by
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
    # below e^{-40} J; J itself is integrated there in closed form, so X
    # does not grow with omega_c
    x_cut = 40.0 / beta
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
            e1 = _exp1_scaled(np.concatenate((z1, z2))).reshape(2, -1)
            tail = 0.5 * omega_c**2 * np.exp(-1j * x_cut * tt) * (e1[0] + e1[1])
        # sum |f_j w_j| on the panels without the period cap, which
        # depends on the group only through c
        x, w = _panel_rule(_panel_edges(d, x_cut, np.inf), 1)
        size = np.sum(np.abs(_shifted_integrand(spec, x, c) * w)) + np.abs(tail)
        # times whose bound e^{-ct} size underflows stay exactly 0, so
        # no period-wide panels are built for them; with X = 40 / beta
        # tiny, size itself can underflow to 0
        with np.errstate(divide="ignore"):
            alive = np.flatnonzero(np.exp(np.log(size) - c * tt) > 0.0)
        if alive.size == 0:
            continue
        width = 2.0 * np.pi / t_group
        if 2.0 * x_cut / width > QUAD_MAX_PANELS:
            raise ValueError(
                f"the contour rule for t up to {t_group:g} needs about "
                f"{2.0 * x_cut / width:.3g} panels, over its limit of {QUAD_MAX_PANELS}; "
                "lower quadrature.t_max or raise bath.beta"
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
