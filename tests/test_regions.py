import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from redfield_slippage import master, regions
from redfield_slippage.bath import PAIRS, LorentzDrudeBath, fit_exponential_mixture
from redfield_slippage.corrections import NATURAL_SIGN, delta_rho1
from redfield_slippage.master import PositivityScanner, build_redfield_generator
from redfield_slippage.operators import bloch_to_density
from redfield_slippage.regions import (
    RegionScanResult,
    VariationalTables,
    _scan_axis,
    _scan_block,
    _u_prime_many,
    default_time_grid,
    max_radial_depth,
    region_scan,
    state_moments,
    u_prime_membership,
)

# scan table columns mirror the CSV header
COL_P0, COL_BOUND, COL_IN_U, COL_IN_N = 3, 4, 5, 6
_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def ground_pair(rho):
    """p0 and phi0 of one state, from eigh as _u_prime_many takes them."""
    w, v = np.linalg.eigh(rho)
    return float(w[0]), v[:, 0]


def b_a_of_state(tables, rho, t):
    """B and A of one state at times t, through VariationalTables.b_a."""
    return tables.b_a(t, *state_moments(rho, ground_pair(rho)[1]))[:2]


def test_a_and_b_vanish_at_zero(model, kernel):
    rho = bloch_to_density((0.5, -0.2, 0.1))
    b, a = b_a_of_state(VariationalTables(model, kernel), rho, 0.0)
    assert a == pytest.approx(0.0, abs=1e-13)
    assert b == pytest.approx(0.0, abs=1e-13)


def test_a_is_nonnegative(model, kernel, rng):
    tables = VariationalTables(model, kernel)
    for _ in range(5):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        rho = bloch_to_density(tuple(v))
        m_vec, n_vec = state_moments(rho, ground_pair(rho)[1])
        i_tab, d_tab = tables.grid_tables
        a_arr = 0.25 * np.real(d_tab @ m_vec)
        assert np.min(a_arr) > -1e-10


def test_a_asymptote_is_golden_rule(model, kernel):
    # A(t)/t approaches the Fermi golden-rule combination
    # (Re Gamma(-eps) M_{+-} + Re Gamma(eps) M_{-+}) / 2
    rho = bloch_to_density((0.6, 0.1, 0.2))
    m_vec, _ = state_moments(rho, ground_pair(rho)[1])
    gp = kernel.half_fourier(model.epsilon).real
    gm = kernel.half_fourier(-model.epsilon).real
    expect = 0.5 * np.real(m_vec[1] * gm + m_vec[2] * gp)
    t_late = 400.0
    _, a = b_a_of_state(VariationalTables(model, kernel), rho, t_late)
    assert a / t_late == pytest.approx(expect, rel=0.02)


def test_d_integrals_against_quadrature(model):
    # closed-form D must equal the convolution
    #   int_0^t ds [C(s) e^{i s'' eps s} + conj C(s) e^{i s' eps s}] Phi(s'+s'', t-s)
    # where Phi is the elementary phase integral over the remaining leg
    spec = LorentzDrudeBath(omega_c=1.0, beta=1.0)
    kernel = fit_exponential_mixture(spec)
    tables = VariationalTables(model, kernel)
    t, eps = 2.3, model.epsilon
    _, d_vals = tables.tables(t)

    x_gl, w_gl = np.polynomial.legendre.leggauss(16)
    edges = np.geomspace(1e-12, t, 81)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    s_nodes = (mids[:, None] + halves[:, None] * x_gl).ravel()
    s_w = (halves[:, None] * w_gl).ravel()
    c_s = kernel.evaluate(s_nodes)
    for idx, (sp, sq) in enumerate(PAIRS):
        ssum = sp + sq
        tau = t - s_nodes
        if ssum == 0:
            phi_fac = tau.astype(complex)
        else:
            phi_fac = np.expm1(1j * ssum * eps * tau) / (1j * ssum * eps)
        integrand = (
            c_s * np.exp(1j * sq * eps * s_nodes)
            + np.conj(c_s) * np.exp(1j * sp * eps * s_nodes)
        ) * phi_fac
        assert abs(d_vals[idx] - np.sum(s_w * integrand)) < 1e-9


def test_b_equals_projected_correction(model, kernel):
    # B(t) is the phi0 expectation of delta_rho1 stripped of lam^2
    lam = 0.37
    tables = VariationalTables(model, kernel)
    for bloch in ((0.6, 0.1, 0.2), (0.0, 0.0, -0.5), (0.9, 0.0, 0.0)):
        rho = bloch_to_density(bloch)
        _, phi0 = ground_pair(rho)
        for t in (0.3, 2.0, 15.0):
            b, _ = b_a_of_state(tables, rho, t)
            d1 = delta_rho1(model, kernel, lam, rho, t)
            proj = float(np.real(phi0.conj() @ d1 @ phi0)) / lam**2
            assert b == pytest.approx(proj, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(_unit, _unit, _unit),
    st.floats(0.0, 1.0),
    st.lists(st.floats(-3.0, 2.0), min_size=1, max_size=50),
)
@example(direction=(0.0, 0.0, -1.0), radius=1.0, log_times=[-3.0, 0.0, 2.0])
def test_b_equals_projected_correction_over_random_states(model, kernel, direction, radius, log_times):
    # the same identity over random states, pure ones included, and a
    # batch of random times: the U' bound and the slippage correction
    # are one kernel sum
    v = np.array(direction)
    assume(np.linalg.norm(v) > 1e-3)
    rho = bloch_to_density(tuple(radius * v / np.linalg.norm(v)))
    lam = 0.37
    t = 10.0 ** np.array(log_times)
    b, _ = b_a_of_state(VariationalTables(model, kernel), rho, t)
    d1 = delta_rho1(model, kernel, lam, rho, t)
    phi0 = ground_pair(rho)[1]
    proj = np.real(np.einsum("i,tij,j->t", phi0.conj(), d1, phi0)) / lam**2
    assert np.max(np.abs(b - proj)) <= 1e-12


def test_variational_form_vertex(model, kernel):
    # the bound is the vertex over xi of the variational form
    # p0 + lam^2 (xi^2 A - xi B) at the sup time t_star
    rho = bloch_to_density((0.7, 0.0, 0.1))
    lam = 0.5
    tables = VariationalTables(model, kernel)
    res = u_prime_membership(model, kernel, lam, rho)
    b, a = b_a_of_state(tables, rho, res.t_star)
    assert a > 0.0
    p0 = ground_pair(rho)[0]

    def form(xi):
        return p0 + lam**2 * (xi * xi * a - xi * b)

    xi_star = b / (2.0 * a)
    assert form(xi_star) == pytest.approx(res.bound, abs=1e-14)
    # any other xi does worse
    for xi in (0.0, xi_star - 0.4, xi_star + 1.0):
        assert form(xi) >= form(xi_star) - 1e-14


def test_u_prime_pure_states_in(model, kernel):
    for ang in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        rho = bloch_to_density((np.cos(ang), 0.0, np.sin(ang)))
        res = u_prime_membership(model, kernel, 0.5, rho)
        assert res.p0 == pytest.approx(0.0, abs=1e-12)
        assert res.in_u_prime
        assert res.bound < 0.0
        assert res.t_star is not None and res.t_star > 0.0


def test_u_prime_mixed_states_out(model, kernel):
    for bloch in ((0.0, 0.0, 0.0), (0.3, 0.1, -0.2), (0.0, 0.0, -0.5)):
        res = u_prime_membership(model, kernel, 0.5, bloch_to_density(bloch))
        assert not res.in_u_prime
        assert res.bound > 0.0
        assert res.bound == pytest.approx(res.p0 - 0.25 * res.sup_value, abs=1e-14)


def test_u_prime_degenerate_flag(model, kernel):
    res = u_prime_membership(model, kernel, 0.5, bloch_to_density((0.0, 0.0, 0.0)))
    assert res.degenerate_p0
    res = u_prime_membership(model, kernel, 0.5, bloch_to_density((0.4, 0.0, 0.0)))
    assert not res.degenerate_p0
    # a degenerate p0 takes the larger sup of the S^z eigenstates, whatever
    # eigenvector eigh returns: for this tilt, far below DEGENERACY_TOL, it
    # returns an equatorial phi0, whose sup is about 4e-33
    mixed = u_prime_membership(model, kernel, 0.5, bloch_to_density((0.0, 0.0, 0.0)))
    tilted = u_prime_membership(model, kernel, 0.5, bloch_to_density((1e-13, 0.0, 0.0)))
    assert tilted.degenerate_p0
    assert abs(np.linalg.eigh(bloch_to_density((1e-13, 0.0, 0.0)))[1][0, 0]) < 0.8
    assert mixed.sup_value > 0.09
    assert tilted.sup_value == pytest.approx(mixed.sup_value, rel=1e-9)


def test_u_prime_sup_stable_under_grid_refinement(model, kernel, monkeypatch):
    rho = bloch_to_density((0.95, 0.0, 0.1))
    base = u_prime_membership(model, kernel, 0.5, rho)
    tables = VariationalTables(model, kernel)
    # the default grid with every interval halved, refined with 48
    # golden-section iterations
    grid = default_time_grid(model, kernel)
    tables.grid = np.sort(np.concatenate((grid, 0.5 * (grid[1:] + grid[:-1]))))
    tables.grid_tables = tables.tables(tables.grid)
    monkeypatch.setattr(master, "GOLDEN_ITERS", 48)
    dense = _u_prime_many(tables, 0.5, rho[None])
    assert dense.sup_value[0] == pytest.approx(base.sup_value, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_unit, _unit, _unit), min_size=1, max_size=8))
def test_scan_block_matches_single_state_calls(model, kernel, generator, points):
    # a scan block is one batch; every entry must equal the batch-of-one
    # public calls on the same state
    xyz = np.array(points)
    xyz /= np.maximum(1.0, np.linalg.norm(xyz, axis=1))[:, None]
    tables, scanner = VariationalTables(model, kernel), PositivityScanner(generator)
    block = _scan_block(tables, scanner, 0.5, xyz)
    assert block.shape == (len(xyz), 6)
    for v, (p0, bound, in_u, in_n, min_eig, witness) in zip(xyz.tolist(), block.tolist()):
        rho = bloch_to_density(v)
        u = _u_prime_many(tables, 0.5, rho[None])
        nm = scanner.evaluate(rho[None])
        assert p0 == pytest.approx(u.p0[0], abs=1e-15)
        assert in_u == (1.0 if u.in_u_prime[0] else 0.0)
        assert bound == pytest.approx(u.bound[0], abs=1e-12)
        assert in_n == (1.0 if nm.in_n[0] else 0.0)
        assert min_eig == pytest.approx(nm.min_eigenvalue_attained[0], abs=1e-12)
        assert math.isnan(witness) == math.isnan(nm.witness_time[0])


@pytest.fixture(scope="module")
def dense_window(model, kernel):
    """VariationalTables and (I, D) at 6001 log-spaced times of its sup window."""
    tables = VariationalTables(model, kernel)
    times = np.geomspace(tables.grid[0], tables.grid[-1], 6001)
    return tables, tables.tables(times)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_unit, _unit, _unit), min_size=1, max_size=16))
def test_sup_is_never_below_a_dense_brute_force(dense_window, points):
    # the refined sup of every state reaches the largest B^2 / (4A) over
    # 6001 log-spaced times of the window, to 1e-9 relative: no peak is
    # lost between grid nodes or to a search that stopped short
    tables, (i_dense, d_dense) = dense_window
    xyz = np.array(points)
    xyz /= np.maximum(1.0, np.linalg.norm(xyz, axis=1))[:, None]
    rhos = np.array([bloch_to_density(v) for v in xyz.tolist()])
    res = _u_prime_many(tables, 0.5, rhos)
    m, n = state_moments(rhos, np.linalg.eigh(rhos)[1][:, :, 0])
    b = 0.5 * np.real(i_dense @ n.T)
    a = 0.25 * np.real(d_dense @ m.T)
    live = a > regions.A_FLOOR
    brute = np.max(np.where(live, b * b / (4.0 * np.where(live, a, 1.0)), 0.0), axis=0)
    assert np.all(res.sup_value >= brute * (1.0 - 1e-9))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_unit, _unit, _unit, _unit), min_size=1, max_size=16))
def test_degenerate_p0_sup_bounds_every_phi0(dense_window, amplitudes):
    # every phi0 is an eigenvector of the degenerate p0 of rho = I / 2, and
    # B^2 / (4A) is convex in n_z = <phi0| sigma_z |phi0>: no phi0 has a
    # sup above the one _u_prime_many reports, that of |up> or |down>
    tables = dense_window[0]
    phis = np.array([[a + 1j * b, c + 1j * d] for a, b, c, d in amplitudes])
    norms = np.linalg.norm(phis, axis=1)
    assume(np.all(norms > 1e-3))
    phis /= norms[:, None]
    mixed = bloch_to_density((0.0, 0.0, 0.0))
    res = _u_prime_many(tables, 0.5, mixed[None])
    assert res.degenerate_p0[0]
    rhos = np.broadcast_to(mixed, (len(phis), 2, 2))
    sups, _ = regions._sup(tables, *state_moments(rhos, phis))
    assert np.all(sups <= res.sup_value[0] * (1.0 + 1e-9))


def test_b_a_slopes_match_central_differences(model, kernel, rng):
    # dB/dt and dA/dt against (f(t + h) - f(t - h)) / 2h with h = 1e-6,
    # relative to max(1, |f|): the difference rounds at about
    # 1e-16 |f| / h
    tables = VariationalTables(model, kernel)
    t = np.geomspace(2e-3, 49.0, 40)
    h = 1e-6
    for _ in range(5):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        rho = bloch_to_density(tuple(v))
        m_vec, n_vec = state_moments(rho, ground_pair(rho)[1])
        b, a, db, da = tables.b_a(t, m_vec, n_vec)
        (b_up, a_up), (b_dn, a_dn) = (tables.b_a(t + s, m_vec, n_vec)[:2] for s in (h, -h))
        assert np.all(np.abs(db - (b_up - b_dn) / (2.0 * h)) < 1e-9 * np.maximum(1.0, np.abs(b)))
        assert np.all(np.abs(da - (a_up - a_dn) / (2.0 * h)) < 1e-9 * np.maximum(1.0, np.abs(a)))


def _fsum(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _full_sum_tables(kernel, eps, t):
    """I and D at one time from all kernel terms and the twelve amplitude
    vectors of the closed forms, each sum rounded once (fsum). The
    coefficient of Phi in D is Gamma(s'' eps) + conj Gamma(-s' eps), the
    rates of the generator, on both sides: D grows like t times it, so
    at t = 50 one rounding of Gamma alone would weigh 1e-14."""
    c, g = kernel.c, kernel.g
    e = np.exp(-g * t)
    i_vals, d_vals = np.empty(4, dtype=complex), np.empty(4, dtype=complex)
    for idx, (sp, sq) in enumerate(PAIRS):
        w = c / ((g + 1j * sq * eps) * (1j * sp * eps - g))
        k_plus = c / (g - 1j * sq * eps)
        b_plus = k_plus / (g + 1j * sp * eps)
        k_minus = np.conj(c) / (np.conj(g) - 1j * sp * eps)
        b_minus = k_minus / (np.conj(g) + 1j * sq * eps)
        esp, esq = np.exp(1j * sp * eps * t), np.exp(1j * sq * eps * t)
        s_sum = sp + sq
        phi2 = t if s_sum == 0 else (esp * esq - 1.0) / (1j * s_sum * eps)
        i_vals[idx] = esp * _fsum(w * e) - _fsum(w)
        d_vals[idx] = (
            phi2 * (kernel.half_fourier(sq * eps) + np.conj(kernel.half_fourier(-sp * eps)))
            - esp * esq * (_fsum(b_plus) + _fsum(b_minus))
            + esq * _fsum(b_plus * e)
            + esp * _fsum(b_minus * np.conj(e))
        )
    return i_vals, d_vals


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), _unit, _unit, _unit)
@example(
    u=0.9537656722540457, r=0.775109314334929, x=0.6797860371607953, y=-0.9581077902703106,
    z=0.775109314334929,
)
def test_b_a_term_cutoff_is_certified(model, kernel, u, r, x, y, z):
    # the kept terms reproduce the sums over every term to 1e-14 relative
    # (absolute below 1) anywhere on the sup search window; at the example
    # |A| is about 34 and the sums differ by 2 ulp
    tables = VariationalTables(model, kernel)
    grid = default_time_grid(model, kernel, 50.0)
    scale = max(kernel.tau_r_estimate, 1.0 / model.epsilon)
    t = grid[0] + u * (50.0 * scale - grid[0])
    v = np.array([x, y, z])
    v *= r / max(math.hypot(*v), 1e-300)  # hypot does not underflow
    rho = bloch_to_density(tuple(v))
    m_vec, n_vec = state_moments(rho, ground_pair(rho)[1])
    b, a = tables.b_a(np.array([t]), m_vec[None], n_vec[None])[:2]
    i_full, d_full = _full_sum_tables(kernel, model.epsilon, t)
    b_full = 0.5 * np.real(np.dot(i_full, n_vec))
    a_full = 0.25 * np.real(np.dot(d_full, m_vec))
    assert abs(b[0] - b_full) < 1e-14 * max(1.0, abs(b_full))
    assert abs(a[0] - a_full) < 1e-14 * max(1.0, abs(a_full))
    i_vals, d_vals = tables.tables(t)
    assert np.max(np.abs(i_vals - i_full)) < 1e-14
    assert np.all(np.abs(d_vals - d_full) < 1e-14 * np.maximum(1.0, np.abs(d_full)))


def test_region_scan_validation(model, kernel):
    with pytest.raises(ValueError):
        region_scan(model, kernel, 0.5, grid_n=20)
    with pytest.raises(ValueError):
        region_scan(model, kernel, 0.5, grid_n=1)
    with pytest.raises(ValueError):
        region_scan(model, kernel, 0.0, grid_n=11)


def test_region_scan_smoke(model, kernel):
    n = 21
    res = region_scan(model, kernel, 0.5, grid_n=n, z=0.0)
    assert isinstance(res, RegionScanResult)
    assert res.table.shape == (n * n, 9)
    meta = res.metadata
    assert meta["n_in_u_prime"] > 0
    assert meta["n_in_n"] > 0
    assert meta["natural_sign"] == NATURAL_SIGN
    assert meta["kernel"] == {"beta": 1.0, "omega": 1.0}
    assert meta["kernel_terms"] == kernel.g.size
    # row-major ordering, y slowest
    assert res.table[0, :3].tolist() == [-1.0, -1.0, 0.0]
    assert res.table[1, 0] == pytest.approx(-0.9)
    assert res.table[n, 1] == pytest.approx(-0.9)
    # out-of-disk points are flagged, not evaluated: every field past z
    # is empty, and only there
    x, y = res.table[:, 0], res.table[:, 1]
    unphysical = x * x + y * y > 1.0 + 1e-12
    assert np.isnan(res.table[0, COL_P0:]).all()
    assert np.array_equal(np.isnan(res.table[:, COL_P0]), unphysical)
    assert meta["n_unphysical"] == int(unphysical.sum())
    # each cell past the centre is the mirror (-x, -y) of cell
    # n^2 - 1 - k and holds its fields bit for bit
    mirror = res.table[::-1]
    assert np.array_equal(mirror[:, :2], -res.table[:, :2])
    assert np.array_equal(mirror[:, 2:].view(np.int64), res.table[:, 2:].view(np.int64))
    # flags are 1 or 0 on the disk
    flags = res.table[~unphysical][:, [COL_IN_U, COL_IN_N]]
    assert np.isin(flags, (0.0, 1.0)).all()
    # the positivity region is contained in the variational region up
    # to one grid cell: every in_N point has an in_U_prime point within
    # a Chebyshev distance of one cell
    in_u = (res.table[:, COL_IN_U] == 1.0).reshape(n, n)
    in_n = (res.table[:, COL_IN_N] == 1.0).reshape(n, n)
    assert meta["n_in_u_prime"] == int(in_u.sum())
    assert meta["n_in_n"] == int(in_n.sum())
    for iy, ix in zip(*np.nonzero(in_n)):
        y0, y1 = max(iy - 1, 0), min(iy + 2, n)
        x0, x1 = max(ix - 1, 0), min(ix + 2, n)
        assert in_u[y0:y1, x0:x1].any()


def test_scan_axis_is_symmetric_bit_for_bit():
    # every node is an exact integer over c, so the mirror (-x, -y) of a
    # grid node is a grid node, bit for bit
    for n in range(3, 2002, 2):
        xs, c = _scan_axis(n), (n - 1) // 2
        assert xs.size == n
        assert np.array_equal(xs[::-1], -xs)
        assert xs[c] == 0.0
        assert xs[0] == -1.0 and xs[-1] == 1.0
        assert np.all(np.diff(xs) > 0.0)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.05, 3.0),
    z=st.floats(-0.9, 0.9),
    grid_n=st.sampled_from([3, 5, 7, 9, 11]),
)
def test_region_scan_mirror_matches_direct_evaluation(model, kernel, lam, z, grid_n):
    # region_scan evaluates half of the cells and mirrors the rest through
    # (x, y) -> (-x, -y); every physical cell evaluated directly, in one
    # batch, must agree with it
    res = region_scan(model, kernel, lam, grid_n=grid_n, z=z)
    cells = np.flatnonzero(~np.isnan(res.table[:, COL_P0]))
    scanner = PositivityScanner(build_redfield_generator(model, kernel, lam))
    direct = _scan_block(VariationalTables(model, kernel), scanner, lam, res.table[cells, :3])
    scanned = res.table[cells, 3:]
    flags = [COL_IN_U - 3, COL_IN_N - 3]
    assert np.array_equal(scanned[:, flags], direct[:, flags])
    # p0, bound and min_eig to rounding, witness_t to the dip search
    np.testing.assert_allclose(scanned[:, [0, 1, 4]], direct[:, [0, 1, 4]], rtol=0.0, atol=1e-12)
    assert np.array_equal(np.isnan(scanned[:, 5]), np.isnan(direct[:, 5]))
    np.testing.assert_allclose(scanned[:, 5], direct[:, 5], rtol=0.0, atol=1e-7)


def test_region_scan_csv_and_determinism(model, kernel):
    res1 = region_scan(model, kernel, 0.5, grid_n=11)
    res2 = region_scan(model, kernel, 0.5, grid_n=11)
    csv1, csv2 = res1.to_csv(), res2.to_csv()
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0] == "x,y,z,p0,bound,in_U_prime,in_N,min_eig,witness_t"
    assert lines[1] == "-1.0,-1.0,0.0,,,,,,"
    # boolean cells are 1/0, never True/False
    assert "True" not in csv1 and "False" not in csv1
    parsed = lines[1 + 5 * 11 + 5].split(",")
    assert parsed[0] == "0.0" and parsed[1] == "0.0"
    assert parsed[5] in ("0", "1")


def _reference_csv(table):
    """The scan CSV formatted one cell at a time: NaN is an empty field,
    the two flag columns are 1 or 0, every other value the repr of
    the double."""
    lines = ["x,y,z,p0,bound,in_U_prime,in_N,min_eig,witness_t"]
    for row in table:
        cells = []
        for j, v in enumerate(row):
            if math.isnan(v):
                cells.append("")
            elif j in (COL_IN_U, COL_IN_N):
                cells.append("1" if v else "0")
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scan_cell = st.one_of(
    # unphysical: empty past z
    st.tuples(_finite, _finite, _finite).map(lambda xyz: xyz + (math.nan,) * 6),
    # physical, with or without a witness time
    st.tuples(
        _finite, _finite, _finite, _finite, _finite, st.booleans(), st.booleans(), _finite,
        st.one_of(st.none(), _finite),
    ).map(lambda r: r[:5] + (float(r[5]), float(r[6]), r[7], math.nan if r[8] is None else r[8])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_scan_cell, max_size=24))
def test_scan_csv_matches_per_cell_formatter(cells):
    table = np.array(cells, dtype=float).reshape(-1, 9)
    res = RegionScanResult(table=table, metadata={})
    assert res.to_csv() == _reference_csv(table)


# a small pool, so bit patterns repeat within a block: both zeros, NaNs
# of three bit patterns, the infinities and the extreme doubles
_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
_pool_value = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, 1.0, -1.0, 0.1, 0.30000000000000004,
     math.inf, -math.inf, 5e-324, -1.7976931348623157e308]
)
_pool_flag = st.sampled_from([0.0, -0.0, 1.0, math.nan])
_pool_row = st.tuples(*(_pool_value,) * 5, _pool_flag, _pool_flag, _pool_value, _pool_value)


@settings(max_examples=200, deadline=None)
@given(st.lists(_pool_row, max_size=40), st.integers(1, 8))
def test_scan_csv_blocks_match_per_cell_formatter(rows, block):
    # blocks of 1 to 8 rows: the tables span up to 40 blocks, and each
    # block formats its own distinct patterns
    table = np.array(rows, dtype=float).reshape(-1, 9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(master, "CSV_BLOCK", block)
        assert RegionScanResult(table=table, metadata={}).to_csv() == _reference_csv(table)


def test_mirrored_scan_csv_matches_per_cell_formatter(model, kernel):
    # a real scan: mirrored cells, axis nodes and unphysical cells repeat
    # bit patterns within the blocks
    res = region_scan(model, kernel, 0.5, grid_n=31, z=0.0123)
    assert np.isnan(res.table[:, COL_P0]).any()
    assert res.to_csv() == _reference_csv(res.table)


def test_region_scan_jobs_identical(model, kernel):
    one = region_scan(model, kernel, 0.5, grid_n=11, jobs=1).to_csv()
    two = region_scan(model, kernel, 0.5, grid_n=11, jobs=2).to_csv()
    assert one == two


def test_region_scan_blocks_jobs_identical(model, kernel, monkeypatch):
    # 81 physical cells in blocks of 16: the workers share out six
    # blocks, and block boundaries cut through grid rows
    whole = region_scan(model, kernel, 0.5, grid_n=11)
    monkeypatch.setattr(regions, "SCAN_BLOCK", 16)
    one = region_scan(model, kernel, 0.5, grid_n=11, jobs=1)
    two = region_scan(model, kernel, 0.5, grid_n=11, jobs=2)
    assert one.to_csv() == two.to_csv()
    assert one.metadata == whole.metadata
    # BLAS sums depend on the batch shape: only bound may move, and only
    # by rounding
    flags = [COL_IN_U, COL_IN_N]
    assert np.array_equal(one.table[:, flags], whole.table[:, flags], equal_nan=True)
    np.testing.assert_allclose(one.table, whole.table, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("block", [regions.SCAN_BLOCK, 100])
def test_region_scan_refines_once_per_block(model, kernel, monkeypatch, block):
    # one golden-section search per block of evaluated cells for U' and
    # one for N, each over a non-empty batch: no per-row searches and
    # none on an empty row
    monkeypatch.setattr(regions, "SCAN_BLOCK", block)
    sizes = {regions: [], master: []}
    for module in sizes:

        def counted(f, lo, hi, raw=module.golden_min, seen=sizes[module]):
            seen.append(np.size(lo))
            return raw(f, lo, hi)

        monkeypatch.setattr(module, "golden_min", counted)
    res = region_scan(model, kernel, 0.5, grid_n=31)
    # only the physical cells up to the centre are evaluated
    evaluated = int(np.sum(~np.isnan(res.table[: 31 * 31 // 2 + 1, COL_P0])))
    assert evaluated == (31 * 31 - res.metadata["n_unphysical"] + 1) // 2
    for seen in sizes.values():
        assert len(seen) == math.ceil(evaluated / block)
        assert min(seen) > 0


@pytest.fixture
def coarse_depth(monkeypatch):
    # 8 directions and a 1e-4 boundary: cheaper than criterion 4's depths
    monkeypatch.setattr(regions, "N_DIRECTIONS", 8)
    monkeypatch.setattr(regions, "R_TOL", 1e-4)


def test_max_radial_depth_scaling(model, kernel, coarse_depth):
    # the region depth shrinks like lam^2: quartering the coupling
    # strength at half lam shrinks the depth by about four
    d_half, th_half = max_radial_depth(model, kernel, 0.5)
    d_quarter, _ = max_radial_depth(model, kernel, 0.25)
    assert d_half > 0.0 and d_quarter > 0.0
    assert 0.0 <= th_half < 2.0 * np.pi
    assert 3.0 < d_half / d_quarter < 5.0


def test_max_radial_depth_brackets_the_boundary(model, kernel, coarse_depth):
    # the deepest direction's boundary r_b = 1 - depth separates members
    # just outside it from non-members just inside, to within R_TOL
    r_tol = regions.R_TOL
    depth, theta = max_radial_depth(model, kernel, 0.5)
    assert 0.0 <= theta < np.pi
    r_b = 1.0 - depth
    for r, inside in ((r_b + r_tol, True), (r_b - r_tol, False)):
        # and so does the direction theta + pi, which is not bisected
        for sign in (1.0, -1.0):
            xy = sign * r * np.cos(theta), sign * r * np.sin(theta)
            rho = bloch_to_density((*xy, 0.0))
            assert u_prime_membership(model, kernel, 0.5, rho).in_u_prime == inside


def _ray_states(theta, r):
    """States at radii r (n,) on the z = 0 directions theta (k,), (k, n, 2, 2)."""
    x = np.cos(theta)[:, None] * r
    y = np.sin(theta)[:, None] * r
    return bloch_to_density(np.stack((x, y, np.zeros_like(x)), axis=-1))


def test_u_prime_threshold_is_monotone_along_each_ray(model, kernel):
    # U' is lam^2 > p0 / S with S = sup_t B^2 / (4A) free of lam; p0 / S
    # does not fall as r falls on any ray, so U' meets each ray in one
    # interval (r_b, 1], the premise of max_radial_depth's bisection
    tables = VariationalTables(model, kernel)
    theta = 2.0 * np.pi * np.arange(regions.N_DIRECTIONS) / regions.N_DIRECTIONS
    r = np.linspace(0.0, 1.0, 401)[1:]
    res = _u_prime_many(tables, 0.5, _ray_states(theta, r).reshape(-1, 2, 2))
    threshold = (res.p0 / res.sup_value).reshape(theta.size, r.size)
    assert np.all(np.diff(threshold, axis=1) <= 0.0)


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_max_radial_depth_is_the_outermost_crossing(model, kernel, coarse_depth, lam):
    # the bisected boundary of the deepest direction is the outermost
    # U' crossing of a dense radial sample, to within its spacing plus
    # R_TOL; at lam = 3 the maximally mixed state reads as a member, so
    # a probe of r = 0 would report depth 1
    depth, theta = max_radial_depth(model, kernel, lam)
    r = np.linspace(0.0, 1.0, 1001)[1:]
    rhos = _ray_states(np.array([theta]), r)[0]
    inside = _u_prime_many(VariationalTables(model, kernel), lam, rhos).in_u_prime
    assert inside[-1]
    r_out = r[np.flatnonzero(~inside)[-1]]
    assert abs((1.0 - depth) - r_out) <= (r[1] - r[0]) + regions.R_TOL
    assert depth < 1.0
