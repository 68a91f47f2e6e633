"""Dense Hermitian eigen-machinery shared by the whole package.

Everything downstream (time evolution, parity splitting, tomography)
goes through :func:`eig_hermitian`, which enforces a deterministic
eigenvector phase convention so that regression files are stable.
:func:`evolution_cache` memoizes it by matrix content, so the analyses
of one Hamiltonian share a single decomposition.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

# largest dimension we allow a dense Kronecker product to reach (3^8)
MAX_DENSE_DIM = 6561

PHASE_FIX_THRESHOLD = 1e-12


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity tolerance."""


def hermiticity_deviation(mat):
    if sp.issparse(mat):
        return abs(mat - mat.conj().T).max() if mat.nnz else 0.0
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


def fix_eigenvector_phases(vectors, threshold=PHASE_FIX_THRESHOLD):
    """Rotate each column so its first significant component is real positive."""
    fixed = np.array(vectors, dtype=complex, copy=True)
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        sig = np.nonzero(np.abs(col) > threshold)[0]
        if sig.size:
            lead = col[sig[0]]
            fixed[:, k] = col * (abs(lead) / lead)
    return fixed


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Spectral decomposition H = V diag(w) V^dagger, ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def reconstruction_residual(self, mat):
        rebuilt = (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T
        return float(np.max(np.abs(rebuilt - mat)))

    def unitarity_deviation(self):
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


def eig_hermitian(mat, check_tol=1e-12):
    """Full spectral decomposition of a Hermitian matrix.

    Raises :class:`NonHermitianError` when the Hermiticity deviation exceeds
    ``check_tol`` relative to the matrix norm.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(float(np.max(np.abs(mat))), 1.0)
    dev = hermiticity_deviation(mat)
    if dev > check_tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: deviation {dev:.3e} exceeds {check_tol:.1e} * {scale:.3e}"
        )
    w, v = np.linalg.eigh(mat)
    return HermitianEigenSystem(eigenvalues=w, eigenvectors=fix_eigenvector_phases(v))


class EvolutionCache:
    """Eigendecomposition of one Hamiltonian, reusable across time points."""

    def __init__(self, eigensystem, fingerprint):
        self.eigensystem = eigensystem
        self.fingerprint = fingerprint

    @property
    def eigenvalues(self):
        return self.eigensystem.eigenvalues

    @property
    def eigenvectors(self):
        return self.eigensystem.eigenvectors

    def unitary(self, t, sign=1):
        """exp(i*sign*H*t) as a dense matrix."""
        es = self.eigensystem
        return (es.eigenvectors * np.exp(1j * sign * es.eigenvalues * t)) @ es.eigenvectors.conj().T


_CACHE_LIMIT = 8
_cache_by_fingerprint = {}


def as_matrix(op):
    """Dense matrix of an operator: a ChainOperator or an array.

    A ChainOperator is recognized by its ``dense()`` method, since
    spin_ops imports this module and cannot be imported here.
    """
    if isinstance(op, (HermitianEigenSystem, EvolutionCache)):
        raise TypeError("pass the eigensystem through evolution_cache-aware APIs")
    return op.dense() if hasattr(op, "dense") else np.asarray(op)


def evolution_cache(op):
    """Memoized eigendecomposition keyed by matrix content."""
    mat = as_matrix(op)
    digest = hashlib.sha256(np.ascontiguousarray(mat).tobytes()).hexdigest()
    cached = _cache_by_fingerprint.get(digest)
    if cached is None:
        cached = EvolutionCache(eig_hermitian(mat), digest)
        if len(_cache_by_fingerprint) >= _CACHE_LIMIT:
            _cache_by_fingerprint.pop(next(iter(_cache_by_fingerprint)))
        _cache_by_fingerprint[digest] = cached
    return cached


def apply_exp(es, psi, t, sign=1):
    """Apply exp(i * sign * H * t) to a vector via a precomputed eigensystem."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[0] != es.dim:
        raise ValueError(f"dimension mismatch: state {psi.shape[0]}, operator {es.dim}")
    phases = np.exp(1j * sign * es.eigenvalues * t)
    return es.eigenvectors @ (phases * (es.eigenvectors.conj().T @ psi))


def apply_exp_sparse(mat, psi, t, sign=1):
    """Krylov application of exp(i*sign*H*t) for sparse Hamiltonians."""
    return expm_multiply(1j * sign * t * mat.tocsc(), np.asarray(psi, dtype=complex))


def kron(a, b, max_dim=MAX_DENSE_DIM):
    """Kronecker product with a guard against runaway dense dimensions."""
    out_dim = a.shape[0] * b.shape[0]
    if not (sp.issparse(a) or sp.issparse(b)) and out_dim > max_dim:
        raise ValueError(
            f"dense Kronecker product of dimension {out_dim} exceeds cap {max_dim}; "
            "use the sparse representation"
        )
    if sp.issparse(a) or sp.issparse(b):
        return sp.kron(a, b, format="csr")
    return np.kron(a, b)


def kron_all(factors, sparse=False, max_dim=MAX_DENSE_DIM):
    """Associative n-fold Kronecker product of 2-d factors."""
    if sparse:
        out = sp.csr_matrix(factors[0])
        for f in factors[1:]:
            out = sp.kron(out, f, format="csr")
        return out
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = kron(out, np.asarray(f), max_dim=max_dim)
    return out
