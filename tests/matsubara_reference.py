"""The full Matsubara series of the continuum kernel in mpmath.

Every quantity is a sum over k >= 1 of a rational function of
nu_k = 2 pi k / beta, times q^k with q = e^{-nu_1 t} for the time
dependent ones. In partial fractions sum_j r_j / (nu - p_j) each sum is
closed form: (q / h) Phi(q, 1, 1 - p_j / h) with the Lerch transcendent
Phi for q < 1, and -(1 / h) sum_j r_j psi(1 - p_j / h) with the digamma
function at q = 1, where sum_j r_j = 0 (h = 2 pi / beta). A double pole
adds (r / h^2) psi'(1 - p / h). No term is dropped.
"""

import mpmath as mp

mp.mp.dps = 25


def _matsubara(beta, poles, q=None, double=()):
    """sum_{k >= 1} q^k (sum_j r_j / (nu_k - p_j) + sum_d r_d / (nu_k - p_d)^2)."""
    h = 2 * mp.pi / mp.mpf(beta)
    total = mp.mpf(0)
    for r, p in poles:
        a = 1 - p / h
        total += r / h * q * mp.lerchphi(q, 1, a) if q is not None else -r / h * mp.digamma(a)
    for r, p in double:
        total += r / h**2 * mp.psi(1, 1 - p / h)
    return total


def _cutoff(omega_c, beta):
    """omega_c, c_0 and the partial fractions (r_j, p_j) of the Matsubara
    amplitudes c(nu) = (A / 2)(1 / (nu - omega_c) + 1 / (nu + omega_c)),
    A = 2 pi omega_c^2 / beta."""
    w, b = mp.mpf(omega_c), mp.mpf(beta)
    c0 = mp.pi * w**2 / 2 * (mp.cot(b * w / 2) - 1j)
    half = mp.pi * w**2 / b
    return w, c0, [(half, w), (half, -w)]


def _times_pole(poles, z):
    """sum_j r_j / (nu - p_j) times 1 / (nu - z), in partial fractions."""
    out = [(r / (p - z), p) for r, p in poles]
    return out + [(-sum(r / (p - z) for r, p in poles), z)]


def correlation(omega_c, beta, t):
    """C(t) = c_0 e^{-omega_c t} + sum_k c_k e^{-nu_k t}, t > 0."""
    w, c0, poles = _cutoff(omega_c, beta)
    t = mp.mpf(t)
    return complex(c0 * mp.exp(-w * t) + _matsubara(beta, poles, mp.exp(-2 * mp.pi * t / beta)))


def tail_kernel(omega_c, beta, sigma_eps, tau):
    """F(tau) = e^{i sigma eps tau} sum_k c_k e^{-g_k tau} / (g_k - i sigma eps),
    tau >= 0, with the cutoff term k = 0; F(0) = Gamma(sigma eps)."""
    w, c0, poles = _cutoff(omega_c, beta)
    z, tau = 1j * mp.mpf(sigma_eps), mp.mpf(tau)
    q = None if tau == 0 else mp.exp(-2 * mp.pi * tau / beta)
    total = c0 * mp.exp(-w * tau) / (w - z) + _matsubara(beta, _times_pole(poles, z), q)
    return complex(total * mp.exp(z * tau))


def slippage_s0(omega_c, beta, eps, sp, sq):
    """S(0) = -sum_k c_k / ((g_k + i s'' eps)(g_k - i s' eps)) of bath.SlippageIntegrals."""
    w, c0, poles = _cutoff(omega_c, beta)
    z1, z2 = -1j * sq * mp.mpf(eps), 1j * sp * mp.mpf(eps)
    total = c0 / ((w - z1) * (w - z2))
    if z1 != z2:
        fractions = [f for r, p in _times_pole(poles, z1) for f in _times_pole([(r, p)], z2)]
        total += _matsubara(beta, fractions)
    else:
        # c(nu) / (nu - z)^2 = sum_j r_j [(1 / (nu - p_j) - 1 / (nu - z)) / (p_j - z)^2
        #                                 - 1 / ((p_j - z)(nu - z)^2)]
        fractions = [f for r, p in poles for f in ((r / (p - z1) ** 2, p), (-r / (p - z1) ** 2, z1))]
        double = [(-sum(r / (p - z1) for r, p in poles), z1)]
        total += _matsubara(beta, fractions, double=double)
    return complex(-total)
