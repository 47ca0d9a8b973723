"""Independent time-domain reference for the half-range transform.

Gamma(omega) = int_0^inf e^{i omega t} C(t) dt is closed form in the
library (`ExponentialSum.half_fourier`); the tests check it, and the
rates built on it, against this direct quadrature of C(t), which shares
nothing with the closed form below `ExponentialSum.evaluate`.
"""

import numpy as np
from scipy.integrate import quad


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
