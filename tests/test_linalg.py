import numpy as np
import pytest
import scipy.sparse as sp

from spin1chain.hamiltonians import heisenberg_two_site
from spin1chain.linalg import (
    NonHermitianError,
    apply_exp,
    eig_hermitian,
    fix_eigenvector_phases,
    kron,
    kron_all,
)
from spin1chain.spin_ops import SX


def random_hermitian(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) / 2


class TestEigHermitian:
    def test_diagonal(self):
        es = eig_hermitian(np.diag([1.0, 0.0, -1.0]))
        assert np.allclose(es.eigenvalues, [-1, 0, 1])

    def test_spin1_sx(self):
        es = eig_hermitian(SX)
        assert np.allclose(es.eigenvalues, [-1, 0, 1])

    def test_two_site_heisenberg_spectrum(self):
        es = eig_hermitian(heisenberg_two_site())
        expected = [-2] + [-1] * 3 + [1] * 5
        assert np.allclose(es.eigenvalues, expected, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_and_unitarity_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 40))
            mat = random_hermitian(rng, dim)
            es = eig_hermitian(mat)
            scale = max(np.max(np.abs(mat)), 1.0)
            assert es.reconstruction_residual(mat) <= 1e-11 * scale
            assert es.unitarity_deviation() <= 1e-12

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(4)
        mat = random_hermitian(rng, 12)
        v1 = eig_hermitian(mat).eigenvectors
        v2 = eig_hermitian(mat.copy()).eigenvectors
        assert np.array_equal(v1, v2)
        for k in range(v1.shape[1]):
            lead = v1[np.abs(v1[:, k]) > 1e-12, k][0]
            assert abs(lead.imag) <= 1e-13
            assert lead.real > 0

    def test_phase_fix_idempotent(self):
        rng = np.random.default_rng(5)
        mat = random_hermitian(rng, 6)
        v = eig_hermitian(mat).eigenvectors
        assert np.allclose(fix_eigenvector_phases(v), v)


class TestApplyExp:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(6)
        mat = random_hermitian(rng, 9)
        es = eig_hermitian(mat)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(apply_exp(es, psi, 0.0) - psi)) <= 1e-13

    def test_eigenvector_picks_up_phase(self):
        es = eig_hermitian(np.diag([2.0, -1.0]))
        vec = np.array([0.0, 1.0], dtype=complex)
        out = apply_exp(es, vec, 0.7, sign=1)
        assert np.allclose(out, np.exp(-1j * 0.7) * vec)
        out = apply_exp(es, vec, 0.7, sign=-1)
        assert np.allclose(out, np.exp(1j * 0.7) * vec)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        mat = random_hermitian(rng, 15)
        es = eig_hermitian(mat)
        psi = rng.normal(size=15) + 1j * rng.normal(size=15)
        psi /= np.linalg.norm(psi)
        out = apply_exp(es, psi, 3.3)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        es = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_exp(es, np.ones(4), 1.0)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(3), np.eye(3)), np.eye(9))

    def test_diagonal_products(self):
        d = np.diag([1.0, 0.0, -1.0])
        expected = [1, 0, -1, 0, 0, 0, -1, 0, 1]
        assert np.allclose(np.diag(kron(d, d)), expected)

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))

    def test_overflow_guard(self):
        big = np.eye(100)
        with pytest.raises(ValueError, match="exceeds cap"):
            kron(big, big)

    def test_kron_all_sparse(self):
        factors = [np.diag([1.0, 2.0, 3.0])] * 3
        dense = kron_all(factors)
        sparse = kron_all(factors, sparse=True)
        assert sp.issparse(sparse)
        assert np.max(np.abs(sparse.toarray() - dense)) == 0.0
