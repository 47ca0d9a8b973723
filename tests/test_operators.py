import numpy as np
import pytest

from redfield_slippage.master import trajectory_from_states
from redfield_slippage.operators import (
    I2,
    SM,
    SP,
    SX,
    SY,
    SZ,
    BlochVector,
    Superoperator,
    bloch_to_density,
    check_density,
    commutator_superoperator,
    density_to_bloch,
    trace_distance,
    unvec,
    vec,
    vectorize_superoperator,
)


def test_spin_algebra():
    for a, b, c in ((SX, SY, SZ), (SY, SZ, SX), (SZ, SX, SY)):
        assert np.allclose(a @ b - b @ a, 1j * c)
    assert np.allclose(SP, SX + 1j * SY)
    assert np.allclose(SM, SX - 1j * SY)
    assert np.allclose(SP @ SM + SM @ SP, I2)


def test_bloch_round_trip(rng):
    for _ in range(20):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        rho = bloch_to_density(tuple(v))
        back = density_to_bloch(rho)
        assert np.allclose([back.x, back.y, back.z], v, atol=1e-14)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.allclose(rho, rho.conj().T)


def test_bloch_vector_p0():
    assert bloch_to_density((0, 0, 0))[0, 0] == pytest.approx(0.5)
    v = BlochVector(0.6, 0.0, 0.8)
    assert v.norm() == pytest.approx(1.0)
    assert v.is_physical()
    assert not BlochVector(1.1, 0.0, 0.0).is_physical()
    # the p0 = (1 - |r|) / 2 that trajectories report really is the
    # smallest eigenvalue
    rho = bloch_to_density((0.3, -0.2, 0.4))
    p0 = trajectory_from_states([0.0], [rho]).min_eigenvalues[0]
    assert p0 == pytest.approx(float(np.linalg.eigvalsh(rho)[0]), abs=1e-14)


def test_check_density_rejects_bad_input():
    with pytest.raises(ValueError):
        check_density(np.array([[1.0, 0.1], [0.3, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        check_density(np.diag([0.7, 0.7]))  # trace != 1
    # negative but unit-trace hermitian passes: positivity loss is data here
    check_density(np.diag([1.2, -0.2]))


def test_vec_unvec_column_stacking():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    v = vec(rho)
    # column-major stacking: first column, then second
    assert np.allclose(v, [1.0, 3.0, 2.0, 4.0])
    assert np.allclose(unvec(v), rho)


def test_vectorize_superoperator_matches_direct(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sop = vectorize_superoperator(a, b)
    assert np.allclose(unvec(sop @ vec(rho)), a @ rho @ b)


def test_commutator_superoperator(rng):
    h = rng.normal(size=(2, 2))
    h = h + h.T
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sop = commutator_superoperator(h)
    assert np.allclose(unvec(sop @ vec(rho)), h @ rho - rho @ h)


def test_expm_action_semigroup(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m - np.max(np.linalg.eigvals(m).real) * np.eye(4)  # keep it bounded
    sop = Superoperator(m)
    v0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    one = sop.expm_action(0.7, sop.expm_action(0.3, v0))
    two = sop.expm_action(1.0, v0)
    assert np.linalg.norm(one - two) < 1e-10 * np.linalg.norm(v0)


def test_expm_action_defective_matrix_falls_back():
    # Jordan block: eigendecomposition is useless, expm must still be exact
    m = np.diag(np.ones(3), k=1).astype(complex)
    sop = Superoperator(m)
    v0 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    out = sop.expm_action(2.0, v0)
    # exp(tN) v = (t^3/6, t^2/2, t, 1) for the nilpotent shift
    assert np.allclose(out, [8.0 / 6.0, 2.0, 2.0, 1.0], atol=1e-12)


def test_expm_action_many_matches_single(rng):
    m = rng.normal(size=(4, 4))
    m = m - 3.0 * np.eye(4)
    sop = Superoperator(m.astype(complex))
    v0 = rng.normal(size=4).astype(complex)
    times = np.array([0.0, 0.5, 1.5])
    cols = sop.expm_action_many(times, v0)
    for i, t in enumerate(times):
        assert np.allclose(cols[:, i], sop.expm_action(float(t), v0), atol=1e-11)


@pytest.mark.parametrize("defective", [False, True])
def test_expm_action_many_per_time_starts_are_bitwise_single(rng, defective):
    if defective:
        # a Jordan block: the eigendecomposition is refused, expm runs
        m = np.diag(np.ones(3), k=1).astype(complex) - 0.3 * np.eye(4)
    else:
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
    sop = Superoperator(m)
    assert bool(sop.eigensystem()[3]) == (not defective)
    times = rng.uniform(0.0, 5.0, 37)
    starts = rng.normal(size=(37, 4)) + 1j * rng.normal(size=(37, 4))
    cols = sop.expm_action_many(times, starts)
    assert cols.shape == (4, 37)
    single = np.stack([sop.expm_action(t, y) for t, y in zip(times, starts)], axis=1)
    assert np.array_equal(cols, single)
    # one start for every time broadcasts
    one = sop.expm_action_many(times, starts[0])
    assert np.allclose(one, sop.expm_action_many(times, np.tile(starts[0], (37, 1))), atol=1e-13)


def test_vec_of_a_stack_is_the_stack_of_vecs(rng):
    rhos = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    stacked = vec(rhos)
    assert stacked.shape == (5, 9)
    assert all(np.array_equal(stacked[k], vec(r)) for k, r in enumerate(rhos))
    assert np.array_equal(unvec(stacked), rhos)
    assert vec(np.zeros((0, 2, 2))).shape == (0, 4)


def test_expm_action_on_states():
    liou = commutator_superoperator(np.asarray(SZ))
    sop = Superoperator(-1j * liou)
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    rho_t = unvec(sop.expm_action(np.pi, vec(rho0)))
    b = density_to_bloch(rho_t)
    assert b.x == pytest.approx(-1.0, abs=1e-12)
    assert b.y == pytest.approx(0.0, abs=1e-12)


def test_trace_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    c = bloch_to_density((0.3, 0.1, -0.2))
    d = bloch_to_density((0.3, 0.1, 0.2))
    # for qubits the trace distance is half the bloch distance
    assert trace_distance(c, d) == pytest.approx(0.2)
