"""Dense matrix helpers shared by every other module.

States and operators are plain complex ndarrays. Vectorization is by
column stacking, fixed project wide:

    vec(rho) = rho.flatten(order="F")
    vec(A rho B) = kron(B.T, A) vec(rho)

Spin operators use the spin-1/2 convention (S^z eigenvalues +-1/2), so
S^+- = S^x +- i S^y have unit matrix elements.
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

HERMITICITY_TOL = 1e-10
# eigenvalue gap below which the bottom of a spectrum counts as degenerate
DEGENERACY_TOL = 1e-10


def commutator(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def hermitian_eigendecomposition(m, tol=HERMITICITY_TOL):
    """Eigenvalues in ascending order with deterministically phased vectors.

    Each eigenvector is rotated so that its largest-magnitude component
    is real and positive. Away from degeneracies this makes the output
    reproducible across runs and LAPACK builds, which the region scans
    rely on for bit-identical reruns.
    """
    m = np.asarray(m, dtype=complex)
    scale = max(float(np.linalg.norm(m)), 1.0)
    if np.linalg.norm(m - m.conj().T) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    for k in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, k])))
        pivot = v[idx, k]
        if abs(pivot) > 0.0:
            v[:, k] *= np.conj(pivot) / abs(pivot)
    return w, v


def ground_eigenpair(rho, degeneracy_tol=DEGENERACY_TOL):
    """Smallest eigenvalue of a Hermitian matrix, its eigenvector and a
    flag marking near-degeneracy of the bottom of the spectrum."""
    w, v = hermitian_eigendecomposition(rho)
    degenerate = bool(len(w) > 1 and w[1] - w[0] < degeneracy_tol)
    return float(w[0]), v[:, 0].copy(), degenerate


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x * self.x + self.y * self.y + self.z * self.z))

    def p0(self) -> float:
        """Smallest eigenvalue (1 - |r|)/2 of the corresponding state."""
        return 0.5 * (1.0 - self.norm())

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

    def apply(self, rho):
        return unvec(self.matrix @ vec(rho), self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def __add__(self, other):
        return Superoperator(self.matrix + other.matrix, self.dim)

    def __sub__(self, other):
        return Superoperator(self.matrix - other.matrix, self.dim)

    def __mul__(self, scalar):
        return Superoperator(self.matrix * scalar, self.dim)

    __rmul__ = __mul__

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


def vectorize_superoperator(left, right) -> Superoperator:
    """Superoperator for rho -> left @ rho @ right."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    if left.shape != right.shape or left.shape[0] != left.shape[1]:
        raise ValueError("left and right factors must be square and same size")
    return Superoperator(np.kron(right.T, left), dim=left.shape[0])


def commutator_superoperator(h) -> Superoperator:
    """Superoperator for rho -> [h, rho]."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d)
    return Superoperator(np.kron(eye, h) - np.kron(h.T, eye), dim=d)


def matrix_exponential_action(superop: Superoperator, t, rho):
    """exp(t S) applied to a density matrix, returned as a matrix."""
    return unvec(superop.expm_action(t, vec(rho)), superop.dim)
