"""Dense matrix helpers shared by every other module.

States and operators are plain complex ndarrays. Vectorization is by
column stacking, fixed project wide:

    vec(rho) = rho.flatten(order="F")
    vec(A rho B) = kron(B.T, A) vec(rho)

Spin operators use the spin-1/2 convention (S^z eigenvalues +-1/2), so
S^+- = S^x +- i S^y have unit matrix elements.

Superoperators are plain d^2 x d^2 matrices on vec(rho). Superoperator
wraps only a generator that is exponentiated: it caches the
eigendecomposition of the Liouvillian for exp(t G). Eigenvectors of
states come straight from numpy.linalg.eigh, with no phase convention:
everything built from them (the variational moments of the regions
module) is invariant under their phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

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

    def is_physical(self, tol=1e-12) -> bool:
        return self.norm() <= 1.0 + tol


def bloch_to_density(v) -> np.ndarray:
    if not isinstance(v, BlochVector):
        v = BlochVector(*v)
    return 0.5 * I2 + v.x * SX + v.y * SY + v.z * SZ


def density_to_bloch(rho) -> BlochVector:
    rho = np.asarray(rho, dtype=complex)
    return BlochVector(
        x=float(2.0 * rho[1, 0].real),
        y=float(2.0 * rho[1, 0].imag),
        z=float((rho[0, 0] - rho[1, 1]).real),
    )


def check_density(rho, tol=1e-12):
    """Enforce Hermiticity and unit trace.

    Positivity is deliberately not enforced here; detecting where it
    fails is a measurement, not a precondition.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.linalg.norm(rho - rho.conj().T) > tol * max(1.0, float(np.linalg.norm(rho))):
        raise ValueError("density matrix is not Hermitian")
    if abs(complex(np.trace(rho)) - 1.0) > max(tol, 1e-12):
        raise ValueError("density matrix trace differs from one")
    return rho


def trace_distance(a, b) -> float:
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def vec(rho) -> np.ndarray:
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v, dim=None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    d = int(dim) if dim else int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape((d, d), order="F")


class Superoperator:
    """Linear map on column-stacked density matrices.

    Wraps a d^2 x d^2 complex matrix and caches its eigendecomposition
    so that exp(t S) can be applied repeatedly at different times for
    the cost of a couple of small matrix products. Defective or badly
    conditioned generators fall back to scipy's expm on each call.
    """

    # diagonalization is trusted only below this eigenvector condition number
    _COND_CAP = 1e8

    def __init__(self, matrix, dim=None):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("superoperator matrix must be square")
        d = int(dim) if dim else int(round(np.sqrt(matrix.shape[0])))
        if d * d != matrix.shape[0]:
            raise ValueError("superoperator size is not a perfect square")
        self.matrix = matrix
        self.dim = d
        self._eig = None

    def eigensystem(self):
        """(eigenvalues, V, V^-1, diagonalizable) with a one-time residual check."""
        if self._eig is None:
            w, v = np.linalg.eig(self.matrix)
            ok = False
            vinv = None
            try:
                cond = np.linalg.cond(v)
                if np.isfinite(cond) and cond < self._COND_CAP:
                    vinv = np.linalg.inv(v)
                    recon = (v * w) @ vinv
                    scale = max(1.0, float(np.linalg.norm(self.matrix)))
                    ok = np.linalg.norm(recon - self.matrix) < 1e-9 * scale
            except np.linalg.LinAlgError:
                ok = False
            self._eig = (w, v, vinv, ok)
        return self._eig

    def expm_action(self, t, v_in):
        """Apply exp(t * self) to a vectorized state."""
        if not np.isfinite(t):
            raise ValueError("time must be finite")
        w, v, vinv, ok = self.eigensystem()
        if ok:
            return v @ (np.exp(w * t) * (vinv @ v_in))
        return expm(self.matrix * t) @ v_in

    def expm_action_many(self, times, v_in):
        """Column k of the result is exp(times[k] * self) applied to v_in."""
        times = np.asarray(times, dtype=float)
        w, v, vinv, ok = self.eigensystem()
        if ok:
            y0 = vinv @ v_in
            return v @ (np.exp(np.outer(w, times)) * y0[:, None])
        cols = [self.expm_action(t, v_in) for t in times]
        return np.stack(cols, axis=1)


def vectorize_superoperator(left, right) -> np.ndarray:
    """Matrix of rho -> left @ rho @ right on vec(rho)."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.shape != right.shape or left.shape[0] != left.shape[1]:
        raise ValueError("left and right factors must be square and same size")
    return np.kron(right.T, left)


def commutator_superoperator(h) -> np.ndarray:
    """Matrix of rho -> [h, rho] on vec(rho)."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return np.kron(eye, h) - np.kron(h.T, eye)


def matrix_exponential_action(superop: Superoperator, t, rho):
    """exp(t S) applied to a density matrix, returned as a matrix."""
    return unvec(superop.expm_action(t, vec(rho)), superop.dim)
