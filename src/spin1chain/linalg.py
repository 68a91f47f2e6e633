"""Dense Hermitian eigen-machinery shared by the whole package.

Everything downstream (time evolution, parity splitting, tomography)
goes through :func:`eig_hermitian`, which enforces a deterministic
eigenvector phase convention so that regression files are stable.  It
diagonalizes each connected block of the matrix's nonzero pattern on its
own, so a Hamiltonian that conserves something costs what its sectors
cost.  :func:`evolution_cache` memoizes it by matrix content, so the
analyses of one Hamiltonian share a single decomposition.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# largest dimension a dense chain-space matrix may reach (3^8, eight sites):
# a dense complex 3^9 matrix needs 5.8 GiB
MAX_DENSE_DIM = 6561

PHASE_FIX_THRESHOLD = 1e-12


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity tolerance."""


def hermiticity_deviation(mat):
    """Largest entry of |A - A^dagger|; a stack is taken matrix by matrix."""
    return float(np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)))) if mat.size else 0.0


def fix_eigenvector_phases(vectors, threshold=PHASE_FIX_THRESHOLD):
    """Rotate each column so its first significant component is real positive.

    Columns without a component above ``threshold`` are left untouched.
    The modulus is taken with ``np.hypot``, which rounds like the scalar
    ``abs`` of one complex number, so the result does not depend on how
    many columns are fixed at once.
    """
    fixed = np.array(vectors, dtype=complex, copy=True)
    significant = np.abs(fixed) > threshold
    cols = np.flatnonzero(significant.any(axis=0))
    lead = fixed[np.argmax(significant[:, cols], axis=0), cols]
    fixed[:, cols] *= np.hypot(lead.real, lead.imag) / lead
    return fixed


def connected_blocks(mat):
    """Connected components of the nonzero pattern of a square matrix.

    Indices i and j are linked when ``mat[i, j]`` or ``mat[j, i]`` is
    nonzero, so no entry couples two blocks: each block is a sector of a
    conserved quantity, found without naming the quantity.  Returns index
    arrays, ascending within a block, ordered by their smallest index.

    Every index repeatedly takes the smallest label among its neighbours
    and then its label's label (pointer jumping), until no label changes;
    each component ends labelled by its smallest index.
    """
    mat = np.asarray(mat)
    rows, cols = np.nonzero(mat != 0)
    labels = np.arange(mat.shape[0])
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, rows, labels[cols])
        np.minimum.at(hooked, cols, labels[rows])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, starts)


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Spectral decomposition H = V diag(w) V^dagger, ascending eigenvalues.

    ``blocks`` records the connected blocks of H as (rows, columns) pairs
    of index arrays, one pair per block size: ``rows[k]`` are the basis
    states of one block and ``columns[k]`` its eigenvectors, which vanish
    outside those rows.  Left empty, the whole space is one block.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple = ()

    def __post_init__(self):
        if not self.blocks:
            whole = np.arange(self.dim)[None, :]
            object.__setattr__(self, "blocks", ((whole, whole),))

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
    """Full spectral decomposition of a Hermitian matrix, block by block.

    Each connected block of the nonzero pattern (:func:`connected_blocks`)
    is diagonalized on its own, the blocks of one size in one stacked
    ``eigh`` call; the eigenpairs are then sorted ascending (stably, so
    equal eigenvalues keep the order of the solves: smaller blocks first,
    then by smallest index).  A matrix that is one block goes to ``eigh``
    whole.

    Raises :class:`NonHermitianError` when the Hermiticity deviation exceeds
    ``check_tol`` relative to the matrix norm.  No entry links two blocks,
    so the deviation and the norm are those of the blocks.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    blocks = connected_blocks(mat)
    if len(blocks) == 1:
        stacks = [mat]
    else:
        by_size = {}
        for block in blocks:
            by_size.setdefault(block.size, []).append(block)
        groups = [np.stack(by_size[size]) for size in sorted(by_size)]
        stacks = [mat[rows[:, :, None], rows[:, None, :]] for rows in groups]
    scale = max(max(float(np.max(np.abs(s))) for s in stacks), 1.0)
    dev = max(hermiticity_deviation(s) for s in stacks)
    if dev > check_tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: deviation {dev:.3e} exceeds {check_tol:.1e} * {scale:.3e}"
        )
    if len(blocks) == 1:
        w, v = np.linalg.eigh(mat)
        return HermitianEigenSystem(eigenvalues=w, eigenvectors=fix_eigenvector_phases(v))
    solved = [np.linalg.eigh(stack) for stack in stacks]
    values = np.concatenate([w.ravel() for w, _ in solved])
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vectors = np.zeros(mat.shape, dtype=complex)
    partition, offset = [], 0
    for rows, (_, v) in zip(groups, solved):
        count, size = rows.shape
        # the columns of every block of the stack side by side, phase-fixed at once
        v = fix_eigenvector_phases(v.transpose(1, 0, 2).reshape(size, -1))
        cols = column[offset:offset + rows.size].reshape(rows.shape)
        v = v.reshape(size, count, size).transpose(1, 0, 2)
        vectors[rows[:, :, None], cols[:, None, :]] = v
        partition.append((rows, cols))
        offset += rows.size
    return HermitianEigenSystem(eigenvalues=values[order], eigenvectors=vectors,
                                blocks=tuple(partition))


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
        """exp(i*sign*H*t) as a dense matrix, built block by block.

        Each block contributes V_b diag(exp(i*sign*E_b*t)) V_b^dagger on its
        own rows and columns; entries between blocks are exact zeros.
        """
        es = self.eigensystem
        phases = np.exp(1j * sign * es.eigenvalues * t)
        out = np.zeros((es.dim, es.dim), dtype=complex)
        for rows, cols in es.blocks:
            v = es.eigenvectors[rows[:, :, None], cols[:, None, :]]
            out[rows[:, :, None], rows[:, None, :]] = (
                (v * phases[cols][:, None, :]) @ v.conj().transpose(0, 2, 1))
        return out


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


def check_dense_dim(dim):
    """Refuse to create a dense matrix of dimension above MAX_DENSE_DIM."""
    if dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dense matrix of dimension {dim} exceeds cap {MAX_DENSE_DIM}: "
            "full-space dense work stops at 3^8 (eight sites)"
        )


def kron_all(factors):
    """Associative n-fold Kronecker product of 2-d factors, held to MAX_DENSE_DIM."""
    factors = [np.asarray(f) for f in factors]
    # the whole product is checked first, so no prefix of an oversized one is built
    check_dense_dim(math.prod(f.shape[0] for f in factors))
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out
