"""Dense matrix helpers shared by every other module.

States and operators are plain complex ndarrays. Vectorization is by
column stacking, fixed project wide:

    vec(rho) = rho.flatten(order="F")
    vec(A rho B) = kron(B.T, A) vec(rho)

Spin operators use the spin-1/2 convention (S^z eigenvalues +-1/2), so
S^+- = S^x +- i S^y have unit matrix elements.

Superoperators are matrices on vec(rho), built by superoperator() from
the action of their map. Superoperator wraps only a generator that is
exponentiated: it caches the eigendecomposition of the Liouvillian for
exp(t G). Eigenvectors of states come straight from numpy.linalg.eigh,
with no phase convention: everything built from them (the variational
moments of the regions module) is invariant under their phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
SZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# eigenvalue gap below which the bottom of a spectrum counts as degenerate
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z))

    def is_physical(self) -> bool:
        return self.norm() <= 1.0 + 1e-12


def bloch_to_density(v) -> np.ndarray:
    """States (..., 2, 2) of Bloch vectors v: a BlochVector, an (x, y, z)
    tuple or an array (..., 3)."""
    if isinstance(v, BlochVector):
        v = (v.x, v.y, v.z)
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)[..., None, None]
    return 0.5 * I2 + x * SX + y * SY + z * SZ


def bloch_xyz(rho):
    """Bloch components x, y, z of states rho (..., 2, 2), as arrays."""
    rho10 = rho[..., 1, 0]
    return 2.0 * rho10.real, 2.0 * rho10.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real


def check_density(rho):
    """Enforce Hermiticity and unit trace, both to 1e-12.

    Positivity is deliberately not enforced here; detecting where it
    fails is a measurement, not a precondition.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.linalg.norm(rho - rho.conj().T) > 1e-12 * max(1.0, float(np.linalg.norm(rho))):
        raise ValueError("density matrix is not Hermitian")
    if abs(complex(np.trace(rho)) - 1.0) > 1e-12:
        raise ValueError("density matrix trace differs from one")
    return rho


def trace_distance(a, b) -> float:
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def vec(rho) -> np.ndarray:
    """Column-stacked rho (d, d) -> (d^2,), also over a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    return np.swapaxes(rho, -1, -2).reshape(rho.shape[:-2] + (rho.shape[-1] ** 2,))


def unvec(v) -> np.ndarray:
    """Inverse of vec, also over a stack (..., d^2) -> (..., d, d)."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.shape[-1])))
    if d * d != v.shape[-1]:
        raise ValueError("vector length is not a perfect square")
    return np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


class Superoperator:
    """Linear map on column-stacked density matrices.

    Wraps a d^2 x d^2 complex matrix and caches its eigendecomposition
    so that exp(t S) can be applied repeatedly at different times for
    the cost of a couple of small matrix products. The eigenvalue
    nearest 0 is set to exactly 0 within 16 eps ||S||, about eig's own
    rounding, and is the null eigenvalue that stationary_state and
    PositivityScanner select: a trace-preserving generator has an exact
    zero eigenvalue, and the sign it would round to would decide whether
    exp(t S) at a long time t overflows or loses the stationary part.
    Defective or badly conditioned generators fall back to scipy's expm
    on each call; scipy.linalg is imported on the first such fallback,
    so the diagonalizable path never loads it. expm_action_many is the
    one evaluation path; expm_action is its column for one time.
    """

    # diagonalization is trusted only below this eigenvector condition number
    _COND_CAP = 1e8

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("superoperator matrix must be square")
        self.matrix = matrix
        self._eig = None

    def eigensystem(self):
        """(eigenvalues, V, V^-1, diagonalizable) with a one-time residual check."""
        if self._eig is None:
            w, v = np.linalg.eig(self.matrix)
            norm = float(np.linalg.norm(self.matrix))
            near = int(np.argmin(np.abs(w)))
            if abs(w[near]) <= 16.0 * np.finfo(float).eps * norm:
                w[near] = 0.0
            ok = False
            vinv = None
            try:
                cond = np.linalg.cond(v)
                if np.isfinite(cond) and cond < self._COND_CAP:
                    vinv = np.linalg.inv(v)
                    recon = (v * w) @ vinv
                    ok = np.linalg.norm(recon - self.matrix) < 1e-9 * max(1.0, norm)
            except np.linalg.LinAlgError:
                ok = False
            self._eig = (w, v, vinv, ok)
        return self._eig

    def expm_action(self, t, v_in):
        """Apply exp(t * self) to a vectorized state: the one-start,
        one-time column of expm_action_many."""
        return self.expm_action_many([t], v_in)[:, 0]

    def expm_action_many(self, times, v_in):
        """Column k of the result is exp(times[k] * self) applied to v_in[k],
        one start per time (n, d^2), or to v_in, one start (d^2,) shared by
        every time. A shared start is broadcast to every time, and every
        time takes its own stacked mat-vecs, so that each column has the
        bits of a call for its time alone."""
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        v_in = np.broadcast_to(v_in, times.shape + np.shape(v_in)[-1:])
        w, v, vinv, ok = self.eigensystem()
        if not ok:
            from scipy.linalg import expm

            return np.stack([expm(self.matrix * t) @ y for t, y in zip(times, v_in)], axis=1)
        y0 = np.matmul(vinv, v_in[:, :, None])[:, :, 0]
        return np.matmul(v, (np.exp(np.outer(times, w)) * y0)[:, :, None])[:, :, 0].T


def superoperator(action) -> np.ndarray:
    """Matrix on vec(rho) of the linear map `action` on 2 x 2 matrices,
    which takes a stack (n, 2, 2): column k is vec(action(E_k)), for the
    matrix units E_k = unvec(e_k) passed as one (4, 2, 2) stack."""
    return vec(action(unvec(np.eye(4)))).T
