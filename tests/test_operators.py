import subprocess
import sys

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
    bloch_xyz,
    superoperator,
    trace_distance,
    unvec,
    vec,
)


def test_spin_algebra():
    for a, b, c in ((SX, SY, SZ), (SY, SZ, SX), (SZ, SX, SY)):
        assert np.allclose(a @ b - b @ a, 1j * c)
    assert np.allclose(SP, SX + 1j * SY)
    assert np.allclose(SM, SX - 1j * SY)
    assert np.allclose(SP @ SM + SM @ SP, I2)


def test_bloch_round_trip(rng):
    vs = []
    for _ in range(20):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        rho = bloch_to_density(tuple(v))
        assert np.allclose(bloch_xyz(rho), v, atol=1e-14)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.allclose(rho, rho.conj().T)
        vs.append(v)
    # an array (..., 3) gives the stack of the one-vector states, bit for bit
    stack = bloch_to_density(np.reshape(vs, (4, 5, 3)))
    assert np.array_equal(stack.reshape(20, 2, 2), [bloch_to_density(tuple(v)) for v in vs])


def test_bloch_vector_p0():
    assert bloch_to_density((0, 0, 0))[0, 0] == pytest.approx(0.5)
    v = BlochVector(0.6, 0.0, 0.8)
    assert np.array_equal(bloch_to_density(v), bloch_to_density((0.6, 0.0, 0.8)))
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
    # kron is the reference: vec(a rho b) = kron(b.T, a) vec(rho)
    a, b, rho = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    sandwich = superoperator(lambda r: a @ r @ b)
    assert sandwich.shape == (4, 4)
    assert np.allclose(sandwich, np.kron(b.T, a), rtol=0.0, atol=1e-14)
    assert np.allclose(unvec(sandwich @ vec(rho)), a @ rho @ b, rtol=0.0, atol=1e-13)


def test_commutator_superoperator(rng):
    # [h, .] is kron(I, h) - kron(h.T, I)
    h, rho = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    comm = superoperator(lambda r: h @ r - r @ h)
    assert np.allclose(comm, np.kron(I2, h) - np.kron(h.T, I2), rtol=0.0, atol=1e-14)
    assert np.allclose(unvec(comm @ vec(rho)), h @ rho - rho @ h, rtol=0.0, atol=1e-13)


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


_COLD_FALLBACK_PROBE = """
import sys
import numpy as np
from redfield_slippage.operators import Superoperator

sop = Superoperator(np.diag(np.ones(3), k=1).astype(complex))
v0 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
assert not sop.eigensystem()[3]
assert "scipy.linalg" not in sys.modules
times = np.array([0.0, 0.5, 2.0, 3.0])
singles = [sop.expm_action(float(t), v0) for t in times]
assert "scipy.linalg" in sys.modules
cols = sop.expm_action_many(times, v0)
for k, t in enumerate(times):
    assert np.allclose(singles[k], [t**3 / 6, t**2 / 2, t, 1.0], atol=1e-12), t
    assert np.array_equal(cols[:, k], singles[k]), t
"""


def test_expm_fallback_imports_scipy_linalg_on_first_use(child_env):
    # pytest has already imported scipy.linalg (through scipy.integrate), so
    # only a fresh interpreter shows that the fallback loads it by itself
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_FALLBACK_PROBE], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr


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
    # one start for every time is broadcast: the same bits as one per time
    one = sop.expm_action_many(times, starts[0])
    assert np.array_equal(one, sop.expm_action_many(times, np.tile(starts[0], (37, 1))))


def test_non_square_inputs_are_refused():
    with pytest.raises(ValueError, match="density matrix must be square"):
        check_density(np.eye(2, 3))
    with pytest.raises(ValueError, match="not a perfect square"):
        unvec(np.ones(5))
    with pytest.raises(ValueError, match="superoperator matrix must be square"):
        Superoperator(np.ones((4, 3)))


def test_vec_of_a_stack_is_the_stack_of_vecs(rng):
    rhos = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    stacked = vec(rhos)
    assert stacked.shape == (5, 9)
    assert all(np.array_equal(stacked[k], vec(r)) for k, r in enumerate(rhos))
    assert np.array_equal(unvec(stacked), rhos)
    assert vec(np.zeros((0, 2, 2))).shape == (0, 4)


def test_expm_action_on_states():
    liou = superoperator(lambda r: SZ @ r - r @ SZ)
    sop = Superoperator(-1j * liou)
    rho0 = bloch_to_density((1.0, 0.0, 0.0))
    rho_t = unvec(sop.expm_action(np.pi, vec(rho0)))
    x, y, _ = bloch_xyz(rho_t)
    assert x == pytest.approx(-1.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_trace_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    c = bloch_to_density((0.3, 0.1, -0.2))
    d = bloch_to_density((0.3, 0.1, 0.2))
    # for qubits the trace distance is half the bloch distance
    assert trace_distance(c, d) == pytest.approx(0.2)
