import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from spin1chain.hamiltonians import (
    KINDS,
    ChainSpec,
    PRESET_VARIANTS,
    chain_hamiltonian,
    engineered_sigma_block,
    heisenberg_two_site,
    pst_preset,
)
from spin1chain.linalg import (
    EvolutionCache,
    NonHermitianError,
    PHASE_FIX_THRESHOLD,
    apply_exp,
    connected_blocks,
    eig_hermitian,
    fix_eigenvector_phases,
    kron_all,
)
from spin1chain.spin_ops import SX


def random_hermitian(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) / 2


def chain_spec(kind, n, seed=0):
    """Every kind at length n; engineered chains get seeded couplings and fields."""
    if kind != "engineered":
        return ChainSpec(n=n, kind=kind)
    rng = np.random.default_rng(seed)
    return ChainSpec(n=n, kind=kind, a=tuple(rng.uniform(0.5, 1.5, n - 1)),
                     b=tuple(rng.uniform(0.5, 1.5, n - 1)), B=tuple(rng.uniform(-1, 1, n)),
                     C=tuple(rng.uniform(0.5, 2.0, n)))


def random_sparse_hermitian(rng, dim, density):
    mat = np.where(rng.random((dim, dim)) < density,
                   rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 0)
    return mat + mat.conj().T


def permuted_block_diagonal(rng, sizes):
    """Random Hermitian blocks of the given sizes on a random permutation of the indices."""
    dim = sum(sizes)
    mat = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        mat[start:start + size, start:start + size] = random_hermitian(rng, size)
        start += size
    perm = rng.permutation(dim)
    return mat[np.ix_(perm, perm)]


def loop_phase_fix(vectors, threshold=PHASE_FIX_THRESHOLD):
    """Column-by-column phase convention: the reference for fix_eigenvector_phases."""
    fixed = np.array(vectors, dtype=complex, copy=True)
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        sig = np.nonzero(np.abs(col) > threshold)[0]
        if sig.size:
            lead = col[sig[0]]
            fixed[:, k] = col * (abs(lead) / lead)
    return fixed


def partition_labels(blocks, dim):
    """Block number of every index, blocks numbered in the order given."""
    labels = np.full(dim, -1)
    for k, block in enumerate(blocks):
        assert np.all(labels[block] == -1)  # each index in one block only
        labels[block] = k
    assert np.all(labels >= 0)
    return labels


def csgraph_labels(mat):
    """Components from scipy's csgraph, renumbered by smallest index."""
    _, raw = connected_components(sp.csr_matrix(np.asarray(mat) != 0), directed=True,
                                  connection="weak")
    _, first = np.unique(raw, return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[raw]


class TestConnectedBlocks:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_kinds_match_csgraph(self, kind, n):
        mat = chain_hamiltonian(chain_spec(kind, n, seed=n)).dense()
        blocks = connected_blocks(mat)
        assert np.array_equal(partition_labels(blocks, mat.shape[0]), csgraph_labels(mat))
        assert all(np.array_equal(b, np.sort(b)) for b in blocks)

    @pytest.mark.parametrize("variant", PRESET_VARIANTS)
    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_preset_sigma_blocks(self, variant, n):
        block = engineered_sigma_block(pst_preset(n, variant))
        blocks = connected_blocks(block)
        assert np.array_equal(partition_labels(blocks, block.shape[0]), csgraph_labels(block))
        # up band, vacuum, down band
        assert [b.tolist() for b in blocks] == [list(range(n)), [n], list(range(n + 1, 2 * n + 1))]

    def test_random_sparse_hermitian(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            dim = int(rng.integers(1, 80))
            mat = random_sparse_hermitian(rng, dim, float(rng.uniform(0.0, 0.08)))
            blocks = connected_blocks(mat)
            assert np.array_equal(partition_labels(blocks, dim), csgraph_labels(mat))

    def test_one_sided_entry_links(self):
        mat = np.zeros((4, 4))
        mat[3, 0] = 1e-300
        assert [b.tolist() for b in connected_blocks(mat)] == [[0, 3], [1], [2]]

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(22)
        sizes = [5, 1, 3, 7, 1, 2, 5]
        mat = permuted_block_diagonal(rng, sizes)
        blocks = connected_blocks(mat)
        assert np.array_equal(partition_labels(blocks, mat.shape[0]), csgraph_labels(mat))
        assert sorted(b.size for b in blocks) == sorted(sizes)


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

    @pytest.mark.parametrize("kind", ["heisenberg", "O2", "O3", "engineered"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_multi_block_accuracy(self, kind, n):
        mat = chain_hamiltonian(chain_spec(kind, n, seed=7)).dense()
        es = eig_hermitian(mat)
        assert len(connected_blocks(mat)) > 1
        scale = max(np.max(np.abs(mat)), 1.0)
        assert es.reconstruction_residual(mat) <= 1e-12 * scale
        assert es.unitarity_deviation() <= 1e-12
        assert np.max(np.abs(es.eigenvalues - np.linalg.eigvalsh(mat))) <= 1e-12
        assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_permuted_blocks_accuracy_and_partition(self):
        rng = np.random.default_rng(23)
        mat = permuted_block_diagonal(rng, [4, 1, 6, 4, 2, 1, 6])
        es = eig_hermitian(mat)
        assert es.reconstruction_residual(mat) <= 1e-12 * max(np.max(np.abs(mat)), 1.0)
        assert es.unitarity_deviation() <= 1e-12
        assert np.max(np.abs(es.eigenvalues - np.linalg.eigvalsh(mat))) <= 1e-12
        rows = np.concatenate([r.ravel() for r, _ in es.blocks])
        cols = np.concatenate([c.ravel() for _, c in es.blocks])
        assert np.array_equal(np.sort(rows), np.arange(24))
        assert np.array_equal(np.sort(cols), np.arange(24))
        for r, c in es.blocks:
            for block_rows, block_cols in zip(r, c):
                outside = np.delete(es.eigenvectors[:, block_cols], block_rows, axis=0)
                assert not np.any(outside)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_one_block_is_bit_identical_to_eigh(self, seed):
        rng = np.random.default_rng(seed)
        mat = random_hermitian(rng, int(rng.integers(2, 60)))
        es = eig_hermitian(mat)
        w, v = np.linalg.eigh(mat)
        assert len(es.blocks) == 1
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()

    def test_tridiagonal_band_is_one_block(self):
        mat = np.diag(np.arange(6.0)) + np.diag(np.full(5, 0.3), 1) + np.diag(np.full(5, 0.3), -1)
        es = eig_hermitian(mat)
        w, v = np.linalg.eigh(mat)
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()

    def test_rejects_non_hermitian_block(self):
        mat = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        mat[2, 3] = 1j
        mat[3, 2] = 1j
        with pytest.raises(NonHermitianError):
            eig_hermitian(mat)

    def test_phase_fix_idempotent(self):
        rng = np.random.default_rng(5)
        mat = random_hermitian(rng, 6)
        v = eig_hermitian(mat).eigenvectors
        assert np.allclose(fix_eigenvector_phases(v), v)


class TestPhaseFix:
    def test_matches_column_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rows, cols = (int(x) for x in rng.integers(1, 40, size=2))
            v = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            v *= 10.0 ** rng.integers(-15, 2, size=(rows, cols))
            v[rng.random((rows, cols)) < 0.3] = 0.0
            assert fix_eigenvector_phases(v).tobytes() == loop_phase_fix(v).tobytes()

    def test_leading_entries_below_threshold(self):
        col = np.array([1e-13 + 1e-13j, -5e-13j, 0.6 - 0.8j, 0.1j])
        fixed = fix_eigenvector_phases(col[:, None])
        assert fixed.tobytes() == loop_phase_fix(col[:, None]).tobytes()
        assert abs(fixed[2, 0].imag) <= 1e-15 and fixed[2, 0].real > 0

    def test_negative_zero_entries(self):
        v = np.array([[-0.0 - 0.0j, -0.0 + 0.0j],
                      [complex(-0.0, -1.0), complex(0.0, -0.0)],
                      [complex(0.5, -0.0), complex(-0.0, 0.0)]])
        assert fix_eigenvector_phases(v).tobytes() == loop_phase_fix(v).tobytes()

    def test_columns_without_significant_entry_untouched(self):
        v = np.array([[1e-13, complex(-0.0, -0.0), 0.3j],
                      [complex(-1e-14, 1e-14), complex(-0.0, 0.0), 0.4]])
        fixed = fix_eigenvector_phases(v)
        assert fixed[:, :2].tobytes() == v[:, :2].tobytes()
        assert fixed.tobytes() == loop_phase_fix(v).tobytes()


class TestBlockUnitary:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_dense_product_with_exact_zeros(self, sign):
        rng = np.random.default_rng(51)
        mat = permuted_block_diagonal(rng, [3, 1, 5, 3, 2])
        es = eig_hermitian(mat)
        t = 0.83
        unitary = EvolutionCache(es, "").unitary(t, sign)
        v = es.eigenvectors
        dense = (v * np.exp(1j * sign * es.eigenvalues * t)) @ v.conj().T
        assert np.max(np.abs(unitary - dense)) <= 1e-14
        linked = connected_blocks(mat)
        labels = partition_labels(linked, mat.shape[0])
        between = labels[:, None] != labels[None, :]
        assert not np.any(unitary[between])


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
        assert np.allclose(kron_all([np.eye(3), np.eye(3)]), np.eye(9))

    def test_diagonal_products(self):
        d = np.diag([1.0, 0.0, -1.0])
        expected = [1, 0, -1, 0, 0, 0, -1, 0, 1]
        assert np.allclose(np.diag(kron_all([d, d])), expected)

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert np.isclose(np.trace(kron_all([a, b])), np.trace(a) * np.trace(b))

    def test_overflow_guard(self):
        big = np.eye(100)
        with pytest.raises(ValueError, match="exceeds cap"):
            kron_all([big, big])
