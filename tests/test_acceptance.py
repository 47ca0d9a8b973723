"""Acceptance gate: the nine end-to-end checks the package must pass.

Each test prints one `CRITERION n: PASS/FAIL` line directly to the
terminal (bypassing capture) so the verdicts are visible in any pytest
invocation, then asserts, so a FAIL also fails the suite.
"""

import time

import numpy as np
import pytest

from redfield_slippage.bath import correlation_quadrature
from redfield_slippage.corrections import (
    NaturalFamily,
    Product,
    perturbative_solution,
    slipped_initial_condition,
)
from redfield_slippage.master import (
    build_redfield_generator,
    propagate_markovian,
    propagate_tcl2,
)
from redfield_slippage.operators import bloch_to_density, trace_distance
from redfield_slippage.oracle import (
    default_oracle_bath,
    pin_natural_sign,
    validate_scaling,
)
from redfield_slippage.regions import (
    VariationalTables,
    max_radial_depth,
    region_scan,
    state_moments,
    u_prime_membership,
)

SCAN_BUDGET_S = 600.0
CANCEL_BUDGET_S = 60.0
SCALING_BUDGET_S = 120.0


@pytest.fixture
def announce(capsys):
    def _announce(n, ok, detail=""):
        with capsys.disabled():
            print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
        assert ok, detail

    return _announce


@pytest.fixture(scope="module")
def full_scan(model, kernel):
    """The 201 x 201 disk scan at lambda = 0.5, shared by criteria 1-2."""
    t0 = time.perf_counter()
    result = region_scan(model, kernel, 0.5, grid_n=201)
    return result, time.perf_counter() - t0


def _membership_masks(result):
    n = int(result.metadata["grid_n"])

    def col(i):
        return (result.table[:, i] == 1.0).reshape(n, n)

    return col(5), col(6)


def test_criterion_1_region_geometry(full_scan, announce):
    # both regions populate, U' (no natural partner) hugs the unit circle,
    # and the full scan fits the wall-clock budget
    result, wall = full_scan
    in_u, in_n = _membership_masks(result)
    xs = result.table[:, 0].reshape(in_u.shape)
    ys = result.table[:, 1].reshape(in_u.shape)
    radius = np.hypot(xs, ys)
    ok = (
        wall < SCAN_BUDGET_S
        and int(in_u.sum()) > 0
        and int(in_n.sum()) > 0
        and float(radius[in_u].min()) > 0.85
        and not in_u[in_u.shape[0] // 2, in_u.shape[1] // 2]
    )
    announce(
        1,
        ok,
        f"wall={wall:.1f}s, |U'|={int(in_u.sum())}, |N|={int(in_n.sum())}, "
        f"min radius={float(radius[in_u].min()) if in_u.any() else np.nan}",
    )


def test_criterion_2_inclusion(full_scan, announce):
    # every N cell (the memoryless trajectory loses positivity) lies in U'
    # (no natural partner) up to one grid cell of boundary discretization
    result, _ = full_scan
    in_u, in_n = _membership_masks(result)
    n = in_u.shape[0]
    padded = np.zeros((n + 2, n + 2), dtype=bool)
    padded[1:-1, 1:-1] = in_u
    dilated = np.zeros_like(in_u)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            dilated |= padded[di : di + n, dj : dj + n]
    strict = int(np.sum(in_n & ~in_u))
    loose = int(np.sum(in_n & ~dilated))
    announce(
        2,
        int(in_n.sum()) > 0 and loose == 0,
        f"{strict} strict violations, {loose} beyond one cell "
        f"out of {int(in_n.sum())} cells",
    )


def test_criterion_3_pure_states(model, kernel, announce):
    # every pure state on the equator is in U' at lambda = 0.5: with p0 = 0
    # no correlated partner of the variational family is positive
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    verdicts = []
    for th in angles:
        rho = bloch_to_density((np.cos(th), np.sin(th), 0.0))
        verdicts.append(u_prime_membership(model, kernel, 0.5, rho).in_u_prime)
    announce(3, all(verdicts), f"membership per angle: {verdicts}")


def test_criterion_4_width_scaling(model, kernel, announce):
    # the region depth is quadratic in the coupling: halving lambda
    # shrinks the deepest reach by 4, within 25 percent
    d_half, _ = max_radial_depth(model, kernel, 0.5)
    d_quarter, _ = max_radial_depth(model, kernel, 0.25)
    ratio = d_half / d_quarter
    announce(4, 3.0 <= ratio <= 5.0, f"depth ratio {ratio:.3f} outside [3, 5]")


def test_criterion_5_cancellation(model, oracle_bath, announce):
    # the two first-order corrections cancel against the exact reference
    rho_s = bloch_to_density((0.6, 0.0, 0.3))
    times = np.linspace(0.1, 6.0, 32)
    t0 = time.perf_counter()
    sign, reports = pin_natural_sign(model, oracle_bath, rho_s, 0.08, times)
    wall = time.perf_counter() - t0
    worst = reports[sign]["max_residual"]
    announce(
        5,
        worst < 1e-8 and wall < CANCEL_BUDGET_S,
        f"sign={sign}, max residual={worst:.3e}, wall={wall:.1f}s",
    )


def test_criterion_6_perturbative_accuracy(model, oracle_bath, announce):
    # the slipped propagation deviates from the exact dynamics faster
    # than quadratically in the coupling
    rho_s = bloch_to_density((0.6, 0.0, 0.3))
    t0 = time.perf_counter()
    report = validate_scaling(
        model, oracle_bath, rho_s, lambdas=(0.04, 0.08, 0.16), t_star=2.0
    )
    wall = time.perf_counter() - t0
    announce(
        6,
        report["slope"] >= 2.7 and wall < SCALING_BUDGET_S,
        f"slope={report['slope']:.3f}, errors={report['errors']}, wall={wall:.1f}s",
    )


def test_criterion_7_slippage_consistency(model, kernel, generator, announce):
    # the time-convolutionless transient from a product start equals the
    # memoryless semigroup started from the slipped initial condition
    horizon = 40.0 * kernel.tau_r_estimate
    times = np.linspace(0.0, horizon, 81)
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    tcl = propagate_tcl2(generator, rho0, times, kappa=0.0)
    slipped = slipped_initial_condition(model, kernel, 0.5, rho0, Product()).slipped
    markov = propagate_markovian(generator, slipped, times)
    dist = trace_distance(tcl.states[-1], markov.states[-1])
    announce(7, dist < 1e-6, f"trace distance {dist:.3e} at t={horizon:g}")


def test_criterion_8_kernel_dual_evaluation(ld_spec, kernel, announce):
    # the pole series and direct quadrature agree over the full window,
    # and the odd part matches its closed form
    times = np.geomspace(1e-3, 50.0, 200)
    series = kernel.evaluate(times)
    quadr = correlation_quadrature(ld_spec, times)[0]
    rel = np.abs(series - quadr) / np.abs(series)
    odd_exact = -0.5 * np.pi * np.exp(-times)
    odd_err = np.max(np.abs(series.imag - odd_exact))
    announce(
        8,
        float(rel.max()) < 1e-8 and odd_err < 1e-8,
        f"max rel {rel.max():.3e}, odd part err {odd_err:.3e}",
    )


def test_criterion_9_invariants(model, ld_spec, kernel, kernel_fine, generator, announce):
    failures = []

    # trace and Hermiticity are preserved along both propagation routes
    rho0 = bloch_to_density((0.7, -0.1, 0.2))
    times = np.linspace(0.0, 20.0, 25)
    for traj in (
        propagate_markovian(generator, rho0, times),
        propagate_tcl2(generator, rho0, times, kappa=0.0),
    ):
        if np.max(traj.trace_errors) > 1e-12:
            failures.append("trace drift")
        if max(np.linalg.norm(s - s.conj().T) for s in traj.states) > 1e-12:
            failures.append("hermiticity drift")

    # the variational coefficient is non-negative at every probe time
    tables = VariationalTables(model, kernel)
    for bloch in ((1.0, 0.0, 0.0), (0.3, -0.4, 0.2), (0.0, 1.0, 0.0)):
        rho = bloch_to_density(bloch)
        phi0 = np.linalg.eigh(rho)[1][:, 0]
        _, vals = tables.b_a(tables.grid, *state_moments(rho, phi0))[:2]
        if min(vals) < -1e-10:
            failures.append("negative variational coefficient")
            break

    # the dissipative block scales exactly quadratically in the coupling
    free = build_redfield_generator(model, kernel, 0.0).liouvillian.matrix
    diss_full = build_redfield_generator(model, kernel, 0.4).liouvillian.matrix - free
    diss_half = build_redfield_generator(model, kernel, 0.2).liouvillian.matrix - free
    if not np.allclose(diss_full, 4.0 * diss_half, atol=1e-13):
        failures.append("coupling homogeneity")

    # closed-form perturbative solution equals direct integration
    gen_small = build_redfield_generator(model, kernel, 0.2)
    times_route = np.linspace(0.0, 10.0, 16)
    direct = propagate_tcl2(gen_small, rho0, times_route, kappa=0.7)
    closed = perturbative_solution(
        model, kernel, 0.2, rho0, NaturalFamily(kappa=0.7), times_route
    )
    worst = max(
        trace_distance(a, b) for a, b in zip(direct.states, closed.states)
    )
    if worst > 1e-8:
        failures.append(f"route mismatch {worst:.3e}")

    # absorption and emission rates obey detailed balance
    ratio = kernel_fine.half_fourier(1.0).real / kernel_fine.half_fourier(-1.0).real
    if abs(ratio / np.exp(ld_spec.beta * 1.0) - 1.0) > 1e-6:
        failures.append("detailed balance")

    # identical invocations give byte-identical outputs
    scans = [
        region_scan(model, kernel, 0.5, grid_n=11, jobs=jobs).to_csv()
        for jobs in (1, 1, 2)
    ]
    if not (scans[0] == scans[1] == scans[2]):
        failures.append("scan determinism")
    again = propagate_markovian(generator, rho0, times).to_csv()
    if again != propagate_markovian(generator, rho0, times).to_csv():
        failures.append("trajectory determinism")

    announce(9, not failures, f"failed invariants: {failures}")
