import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from spin1chain import linalg
from spin1chain.dynamics import mirror_check
from spin1chain.hamiltonians import (
    CHANNELS,
    KINDS,
    ChainSpec,
    PRESET_VARIANTS,
    _local_terms,
    band_eigensystem,
    candidate_two_site,
    chain_hamiltonian,
    engineered_sigma_block,
    heisenberg_two_site,
    pst_preset,
)
from spin1chain.linalg import (
    MAX_DENSE_DIM,
    ChainOperator,
    EvolutionCache,
    NonHermitianError,
    PHASE_FIX_THRESHOLD,
    chain_mirror_index,
    check_dense_dim,
    check_dense_sites,
    connected_blocks,
    content_key,
    eig_hermitian,
    evolution_cache,
    fix_eigenvector_phases,
)
from spin1chain.parity import clustered_parities, parity_spectrum
from spin1chain.spin_ops import SX, SZ

from band_reference import dense_band


def random_hermitian(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (mat + mat.conj().T) / 2


def chain_spec(kind, n, seed=0, symmetric=False):
    """Every kind at length n; engineered chains get seeded couplings and fields,
    with ``symmetric`` ones that read the same from either end."""
    if kind != "engineered":
        return ChainSpec(n=n, kind=kind)
    rng = np.random.default_rng(seed)
    values = dict(a=rng.uniform(0.5, 1.5, n - 1), b=rng.uniform(0.5, 1.5, n - 1),
                  B=rng.uniform(-1, 1, n), C=rng.uniform(0.5, 2.0, n))
    if symmetric:
        values = {name: (v + v[::-1]) / 2.0 for name, v in values.items()}
    return ChainSpec(n=n, kind=kind, **{name: tuple(v) for name, v in values.items()})


def nudged_chain(spec):
    """The chain with its last bond's term scaled by one ulp above 1: it misses
    M H M == H by about one ulp of its largest entry, so it takes no sector solve."""
    terms = _local_terms(spec)
    site, local = terms[spec.n - 2]
    terms[spec.n - 2] = (site, local * np.nextafter(1.0, 2.0))
    return linalg.ChainOperator.from_terms(terms, spec.n)


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


def blocks_of(mat):
    """The connected blocks of ``mat``, each an ascending index array, ordered by
    smallest index: the rows of every group of :func:`connected_blocks`."""
    blocks = [block for rows in connected_blocks(np.flatnonzero(mat), mat.shape[0])
              for block in rows]
    return sorted(blocks, key=lambda block: block[0])


def reference_groups(nonzero, dim):
    """The blocks grouped by size as first written, the reference for connected_blocks:
    every index takes the smallest label among its neighbours and then its label's
    label until no label changes, the indices sorted by label are split into one
    array per block, the blocks collected by size in a dict, and each size stacked."""
    rows, cols = np.divmod(nonzero, dim)
    labels = np.arange(dim)
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
    by_size = {}
    for block in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1):
        by_size.setdefault(block.size, []).append(block)
    return [np.stack(by_size[size]) for size in sorted(by_size)]


def solved_blocks(es):
    """(rows, columns) of each connected block, read from the solves, both ascending
    and blocks ordered by first row.  A block solved whole is one matrix of a solve;
    a split block has its even sector's rows and their mirror images, and the
    columns of both sectors, which meet at the block's first pair row."""
    found = {}
    for solve in es.solves:
        for k, (rows, columns) in enumerate(zip(solve.rows, solve.columns)):
            pairs = rows
            if solve.mirrored is not None:
                pairs = rows[rows != solve.mirrored[k]]
                rows = np.union1d(rows, solve.mirrored[k])
            block = found.setdefault(int(pairs[0]), ([], []))
            block[0].append(rows)
            block[1].append(columns)
    blocks = [(np.unique(np.concatenate(rows)), np.sort(np.concatenate(columns)))
              for rows, columns in found.values()]
    return sorted(blocks, key=lambda block: block[0][0])


class TestChainOperatorTerms:
    @pytest.mark.parametrize("site, local, n", [
        (0, np.kron(SZ, SZ), 2),  # site 0 would give float flat indices
        (-1, SZ, 3),
        (3, np.eye(9), 3),  # a two-site term past the last site: no entries at all
        (2, np.eye(27), 3),
        (1, np.eye(2), 2),  # not 3^k states wide
    ])
    def test_term_off_the_chain_refused(self, site, local, n):
        with pytest.raises(ValueError, match=rf"width {local.shape[0]} at site {site} does "
                                             rf"not fit on a chain of {n} sites"):
            linalg.ChainOperator.from_terms([(1, np.eye(3 ** n)), (site, local)], n)

    def test_entries_refuse_in_place_writes(self):
        # an operator's content key is hashed once and kept, so its entries, made
        # by from_terms or handed to the constructor, cannot be written
        ham = chain_hamiltonian(ChainSpec(n=3, kind="heisenberg"))
        built = linalg.ChainOperator(ham.flat.copy(), ham.values.copy(), 3)
        for op in (ham, built):
            for entries in (op.flat, op.values):
                with pytest.raises(ValueError, match="read-only"):
                    entries[0] = entries[1]
                with pytest.raises(ValueError, match="read-only"):
                    entries *= 2

    def test_empty_term_list_refused(self):
        # an empty list, or an exhausted generator of terms, names the missing
        # terms rather than failing to unpack them
        for terms in ([], (term for term in [])):
            with pytest.raises(ValueError, match="on 3 sites needs at least one term, got none"):
                linalg.ChainOperator.from_terms(terms, 3)


class TestConnectedBlocks:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_kinds_match_csgraph(self, kind, n):
        mat = chain_hamiltonian(chain_spec(kind, n, seed=n)).dense()
        blocks = blocks_of(mat)
        assert np.array_equal(partition_labels(blocks, mat.shape[0]), csgraph_labels(mat))
        assert all(np.array_equal(b, np.sort(b)) for b in blocks)

    @pytest.mark.parametrize("variant", PRESET_VARIANTS)
    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_preset_sigma_blocks(self, variant, n):
        block = engineered_sigma_block(pst_preset(n, variant))
        blocks = blocks_of(block)
        assert np.array_equal(partition_labels(blocks, block.shape[0]), csgraph_labels(block))
        # up band, vacuum, down band
        assert [b.tolist() for b in blocks] == [list(range(n)), [n], list(range(n + 1, 2 * n + 1))]

    def test_random_sparse_hermitian(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            dim = int(rng.integers(1, 80))
            mat = random_sparse_hermitian(rng, dim, float(rng.uniform(0.0, 0.08)))
            blocks = blocks_of(mat)
            assert np.array_equal(partition_labels(blocks, dim), csgraph_labels(mat))

    def test_one_sided_entry_links(self):
        mat = np.zeros((4, 4))
        mat[3, 0] = 1e-300
        assert [b.tolist() for b in blocks_of(mat)] == [[0, 3], [1], [2]]

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(22)
        sizes = [5, 1, 3, 7, 1, 2, 5]
        mat = permuted_block_diagonal(rng, sizes)
        blocks = blocks_of(mat)
        assert np.array_equal(partition_labels(blocks, mat.shape[0]), csgraph_labels(mat))
        assert sorted(b.size for b in blocks) == sorted(sizes)


def assert_reference_groups(nonzero, dim):
    groups, want = connected_blocks(nonzero, dim), reference_groups(nonzero, dim)
    assert [rows.shape for rows in groups] == [rows.shape for rows in want]
    for rows, expected in zip(groups, want):
        assert rows.dtype == expected.dtype
        assert np.array_equal(rows, expected)


class TestBlockGroups:
    """connected_blocks groups the blocks by size as the dict of split blocks did: the
    same (count, size) index arrays, sizes ascending, blocks by smallest index."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_kinds(self, kind, n):
        ham = chain_hamiltonian(chain_spec(kind, n, seed=n))
        assert_reference_groups(ham.flat, ham.dim)

    @pytest.mark.parametrize("variant", PRESET_VARIANTS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_presets(self, variant, n):
        ham = chain_hamiltonian(pst_preset(n, variant))
        assert_reference_groups(ham.flat, ham.dim)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_mirror_chains(self, seed):
        ham = chain_hamiltonian(chain_spec("engineered", 3 + seed % 4, seed=seed, symmetric=True))
        assert_reference_groups(ham.flat, ham.dim)

    def test_random_many_block_array(self):
        # many blocks of many sizes on a random permutation, and a random sparse
        # pattern with one-sided links
        rng = np.random.default_rng(24)
        sizes = [int(size) for size in rng.integers(1, 9, size=60)]
        mat = permuted_block_diagonal(rng, sizes)
        assert len(blocks_of(mat)) == len(sizes)
        assert_reference_groups(np.flatnonzero(mat), mat.shape[0])
        mat = np.triu(random_sparse_hermitian(rng, 200, 0.004))
        assert_reference_groups(np.flatnonzero(mat), mat.shape[0])


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

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rejects_empty_matrix(self, dtype):
        # refused up front, naming the shape, rather than failing inside numpy
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            eig_hermitian(np.zeros((0, 0), dtype=dtype))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            eig_hermitian(np.zeros((2, 3)))

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
        assert len(blocks_of(mat)) > 1
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
        blocks = solved_blocks(es)
        assert [rows.tolist() for rows, _ in blocks] == [rows.tolist() for rows in blocks_of(mat)]
        cols = np.concatenate([c for _, c in blocks])
        assert np.array_equal(np.sort(cols), np.arange(24))
        for block_rows, block_cols in blocks:
            outside = np.delete(es.eigenvectors[:, block_cols], block_rows, axis=0)
            assert not np.any(outside)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_one_block_is_bit_identical_to_eigh(self, seed):
        rng = np.random.default_rng(seed)
        mat = random_hermitian(rng, int(rng.integers(2, 60)))
        es = eig_hermitian(mat)
        w, v = np.linalg.eigh(mat)
        (solve,) = es.solves
        assert solve.rows.shape[0] == 1
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()

    def test_tridiagonal_band_is_one_block(self):
        # a hand-made band, and the up and down bands of both presets and of
        # seeded engineered chains: each is one block, solved as one bare eigh,
        # and the band solve gives the same bits without the dense band
        bands = [(None, np.diag(np.arange(6.0)) + np.diag(np.full(5, 0.3), 1)
                  + np.diag(np.full(5, 0.3), -1))]
        for n in range(2, 41):
            specs = [pst_preset(n, variant) for variant in PRESET_VARIANTS]
            specs.append(chain_spec("engineered", n, seed=1000 + n))
            bands += [((spec, channel), dense_band(spec, channel))
                      for spec in specs for channel in CHANNELS]
        for source, mat in bands:
            es = eig_hermitian(mat)
            w, v = np.linalg.eigh(mat)
            assert es.eigenvalues.tobytes() == w.tobytes()
            assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()
            if source is not None:
                energies, vectors = band_eigensystem(*source)
                assert energies.tobytes() == es.eigenvalues.tobytes()
                assert vectors.tobytes() == es.eigenvectors.tobytes()

    def test_rejects_non_hermitian_block(self):
        mat = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        mat[2, 3] = 1j
        mat[3, 2] = 1j
        with pytest.raises(NonHermitianError):
            eig_hermitian(mat)

    def test_chain_operator_hermiticity_read_from_entries(self):
        # the deviation and the scale come from the entries, which the operator and
        # its dense matrix share: the same message, naming the dense maxima
        ham = chain_hamiltonian(ChainSpec(n=3, kind="O5"))
        skewed = linalg.ChainOperator(ham.flat, ham.values * (1 + 1e-9j), ham.n_sites)
        mat = skewed.dense()
        with pytest.raises(NonHermitianError) as dense_error:
            eig_hermitian(mat)
        with pytest.raises(NonHermitianError) as entry_error:
            eig_hermitian(skewed)
        assert str(entry_error.value) == str(dense_error.value)
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        scale = max(float(np.max(np.abs(mat))), 1.0)
        assert f"deviation {dev:.3e} exceeds" in str(entry_error.value)
        assert str(entry_error.value).endswith(f"* {scale:.3e}")
        eig_hermitian(ham)

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


def real_where_real_eigh(mats):
    """np.linalg.eigh of a matrix or a stack, which is solved as its real part
    when it has no nonzero imaginary part."""
    return np.linalg.eigh(mats if mats.imag.any() else mats.real)


def stacked_block_reference(mat):
    """The block path without parity sectors, as a reference: every connected
    block solved whole (a one-block matrix by one eigh), blocks of one size in
    one stacked eigh (real when the stack is real), eigenpairs sorted stably,
    each stack's columns phase-fixed side by side and scattered into one matrix."""
    dim = mat.shape[0]
    blocks = blocks_of(mat)
    if len(blocks) == 1:
        w, v = real_where_real_eigh(mat)
        return w, fix_eigenvector_phases(v)
    by_size = {}
    for block in blocks:
        by_size.setdefault(block.size, []).append(block)
    groups = [np.stack(by_size[size]) for size in sorted(by_size)]
    solved = [real_where_real_eigh(mat[rows[:, :, None], rows[:, None, :]]) for rows in groups]
    values = np.concatenate([w.ravel() for w, _ in solved])
    order = np.argsort(values, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    vectors = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for rows, (_, v) in zip(groups, solved):
        count, size = rows.shape
        v = fix_eigenvector_phases(v.transpose(1, 0, 2).reshape(size, -1))
        cols = column[offset:offset + rows.size].reshape(rows.shape)
        vectors[rows[:, :, None], cols[:, None, :]] = v.reshape(size, count, size).transpose(1, 0, 2)
        offset += rows.size
    return values[order], vectors


def mirror_symmetrized(mat, index):
    """(A + M A M) / 2: its entries equal those of M H M exactly, and it is
    exactly Hermitian when A is."""
    return (mat + mat[np.ix_(index, index)]) / 2


def random_on_pattern(rng, mat):
    """A random complex Hermitian matrix on the nonzero pattern of ``mat``."""
    values = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
    values = np.where(mat != 0, values, 0)
    return (values + values.conj().T) / 2


def sector_solve_sizes(mat, index):
    """Sizes of the eigensolves of an exactly mirror-symmetric matrix: a block
    that the mirror maps onto itself and that holds a pair gives its even
    sector (one state per orbit) and its odd one (one per pair); any other
    block is solved whole."""
    sizes = []
    for block in blocks_of(mat):
        fixed = int(np.count_nonzero(index[block] == block))
        if np.array_equal(np.sort(index[block]), block) and fixed < block.size:
            sizes += [(block.size + fixed) // 2, (block.size - fixed) // 2]
        else:
            sizes.append(block.size)
    return sorted(size for size in sizes if size)


def is_split(index, block_rows):
    """Whether a block of an exact mirror commuter is solved as two parity
    sectors: the mirror maps it onto itself and it holds a pair i != M i."""
    return (np.array_equal(np.sort(index[block_rows]), block_rows)
            and np.any(index[block_rows] != block_rows))


def assert_sector_eigensystem(es, mat, index):
    """Accuracy bounds, definite parity on blocks the mirror maps onto
    themselves, and eigenvectors that vanish outside their block's rows."""
    scale = max(np.max(np.abs(mat)), 1.0)
    assert es.mirror_residual == 0
    assert es.reconstruction_residual(mat) <= 1e-12 * scale
    assert es.unitarity_deviation() <= 1e-12
    assert np.max(np.abs(es.eigenvalues - np.linalg.eigvalsh(mat))) <= 1e-12
    assert np.all(np.diff(es.eigenvalues) >= 0)
    v = es.eigenvectors
    blocks = solved_blocks(es)
    assert [rows.tolist() for rows, _ in blocks] == [rows.tolist() for rows in blocks_of(mat)]
    for block_rows, block_cols in blocks:
        outside = np.delete(v[:, block_cols], block_rows, axis=0)
        assert not np.any(outside)
        if np.array_equal(np.sort(index[block_rows]), block_rows):
            cols_v = v[:, block_cols]
            mirrored = cols_v[index]
            parity_gap = np.minimum(np.max(np.abs(mirrored - cols_v), axis=0),
                                    np.max(np.abs(mirrored + cols_v), axis=0))
            assert np.max(parity_gap) <= 1e-12


class TestParitySectors:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("pattern", [None, "heisenberg", "O3", "heisenberg_squared_mix"])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_symmetrized_random_matrices(self, n, pattern, dtype, monkeypatch):
        # dense, Sz-sector (every block maps onto itself) and O3 patterns
        # (blocks the mirror pairs stay whole, in stacks with the sectors),
        # complex and real
        rng = np.random.default_rng(100 + n)
        index = chain_mirror_index(n)
        if pattern is None:
            mat = random_hermitian(rng, 3 ** n)
        else:
            mat = random_on_pattern(rng, chain_hamiltonian(ChainSpec(n=n, kind=pattern)).dense())
        mat = mirror_symmetrized(mat.real if dtype is float else mat, index)
        shapes, eigh = [], np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            shapes.extend([a.shape[-1]] * (a.shape[0] if a.ndim == 3 else 1))
            return eigh(a, *args, **kwargs)

        op = linalg.ChainOperator.from_terms([(1, mat)], n)  # the chain mirror needs n
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        es = eig_hermitian(op)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert sorted(shapes) == sector_solve_sizes(mat, index)
        assert_sector_eigensystem(es, mat, index)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_paper_kinds(self, kind, n):
        # every kind, and engineered chains symmetric under site reversal,
        # equals its mirror image entry for entry, and every column has a parity
        mat = chain_hamiltonian(chain_spec(kind, n, seed=n, symmetric=True)).dense()
        index = chain_mirror_index(n)
        assert np.array_equal(mat[np.ix_(index, index)], mat)
        es = eig_hermitian(linalg.ChainOperator.from_terms([(1, mat)], n))
        assert_sector_eigensystem(es, mat, index)
        assert np.all(es.parities != 0)

    def test_o5_six_sites_solves_its_two_sectors(self, monkeypatch):
        ham = chain_hamiltonian(ChainSpec(n=6, kind="O5"))
        shapes, eigh = [], np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            shapes.append(np.asarray(a).shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        eig_hermitian(ham)
        assert sorted(shape[-2:] for shape in shapes) == [(351, 351), (378, 378)]

    @pytest.mark.parametrize("spec, nudge", [
        (ChainSpec(n=6, kind="heisenberg_squared_mix"), True),
        (ChainSpec(n=6, kind="heisenberg_squared_sum"), True),
        (ChainSpec(n=6, kind="O3"), True),
        (chain_spec("engineered", 6, seed=9), False),
        (ChainSpec(n=6, kind="engineered", a=(0.7, 1.1, 0.9, 1.1, 0.7), b=(1.2, 0.8, 1.3, 0.8, 1.2),
                   B=(0.1, -0.3, 0.6, 0.6, -0.3, 0.1), C=(1.5, 0.9, 1.1, 1.1, 0.9, 1.5)), True),
        (ChainSpec(n=6, kind="O2"), False)],
        ids=["mix", "sum", "O3", "engineered", "engineered-symmetric", "O2-paired-blocks"])
    def test_other_operators_keep_the_block_path(self, spec, nudge):
        # operators that differ from their mirror image in the last bits (a
        # symmetric chain with one bond nudged by an ulp), and an exact one
        # whose blocks the mirror only pairs, are solved block by block
        # exactly as without parity sectors
        ham = nudged_chain(spec) if nudge else chain_hamiltonian(spec)
        es = eig_hermitian(ham)
        assert (es.mirror_residual == 0) == (spec.kind == "O2")
        assert not es.parities.any() or spec.kind == "O2"
        if nudge:
            assert es.mirror_residual <= 1e-12 * np.max(np.abs(ham.values))
        w, v = stacked_block_reference(ham.dense())
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == v.tobytes()

    @pytest.mark.parametrize("dim", [8, 10, 24])
    def test_non_chain_dimensions_keep_the_block_path(self, dim):
        # a 3^n mirror exists only on 3^n dimensions; the index reversal
        # symmetry of these matrices does not split them
        rng = np.random.default_rng(dim)
        mat = permuted_block_diagonal(rng, [dim // 2, dim - dim // 2])
        mat = (mat + mat[::-1, ::-1]) / 2
        for case in (mat, mat[:dim // 2, :dim // 2]):
            es = eig_hermitian(case)
            w, v = stacked_block_reference(case)
            assert es.mirror_residual is None
            assert not es.parities.any()
            assert es.eigenvalues.tobytes() == w.tobytes()
            assert es.eigenvectors.tobytes() == v.tobytes()

    @pytest.mark.parametrize("mat", [
        *(dense_band(pst_preset(n, "standard"), channel) for n in (9, 27) for channel in CHANNELS),
        *(engineered_sigma_block(pst_preset(n, "standard")) for n in (4, 13, 40)),
        np.diag([0.5, 1.0, 2.0, 1.0, 4.0, 5.0, 2.0, 5.0, 8.0])],
        ids=["up-9", "down-9", "up-27", "down-27", "sigma-4", "sigma-13", "sigma-40",
             "diagonal-9"])
    def test_arrays_of_3n_states_have_no_chain_mirror(self, mat, monkeypatch):
        # bands and sigma blocks of 3^k states, and a diagonal that commutes
        # with the two-site exchange, are arrays, not chain operators: no
        # commutator is formed, no block is split and no column has a parity
        def refused(*args):
            raise AssertionError("an array got a chain mirror")

        monkeypatch.setattr(linalg, "chain_mirror_index", refused)
        es = eig_hermitian(mat)
        assert es.mirror_residual is None
        assert not es.parities.any()
        w, v = stacked_block_reference(mat)
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == v.tobytes()

    def test_two_site_operator_of_a_diagonal_has_parities(self):
        # the same diagonal as a two-site operator: the exchange keeps states
        # 0, 4 and 8 and swaps the others, each swapped pair of 1x1 blocks
        # reading +1 on its smaller state and -1 on the other
        mat = np.diag([0.5, 1.0, 2.0, 1.0, 4.0, 5.0, 2.0, 5.0, 8.0])
        es = eig_hermitian(linalg.ChainOperator.from_terms([(1, mat)], 2))
        assert es.mirror_residual == 0
        assert es.parities.tolist() == [1, 1, -1, 1, -1, 1, 1, -1, 1]

    @pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "engineered"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unsplit_blocks_are_written_as_eigh_returns_them(self, kind, n):
        # a block the mirror does not map onto itself, or one without a pair,
        # is solved whole and written without any arithmetic on its vectors
        ham = chain_hamiltonian(ChainSpec(n=n, kind=kind))
        mat, index = ham.dense(), chain_mirror_index(n)
        es = eig_hermitian(ham)
        unsplit = 0
        for solve in es.solves:
            if solve.mirrored is not None:
                continue
            for block_rows, block_cols in zip(solve.rows, solve.columns):
                assert not (es.mirror_residual == 0 and is_split(index, block_rows))
                unsplit += 1
                assert np.array_equal(block_cols, np.sort(block_cols))
                _, v = real_where_real_eigh(mat[np.ix_(block_rows, block_rows)])
                got = es.eigenvectors[np.ix_(block_rows, block_cols)]
                assert got.tobytes() == fix_eigenvector_phases(v).tobytes()
        assert unsplit > 0 or kind == "O5"  # an O5 chain is one block, split

    @pytest.mark.parametrize("mat, n", [
        (chain_hamiltonian(ChainSpec(n=4, kind="heisenberg")).dense(), 4),
        (candidate_two_site("O5"), 2)], ids=["heisenberg-4", "O5-two-site"])
    def test_split_blocks_have_one_sector_per_parity(self, mat, n):
        index = chain_mirror_index(n)
        es = eig_hermitian(linalg.ChainOperator.from_terms([(1, mat)], n))
        assert es.mirror_residual == 0
        split = 0
        for block_rows, block_cols in solved_blocks(es):
            if not is_split(index, block_rows):
                continue
            split += 1
            fixed = np.count_nonzero(index[block_rows] == block_rows)
            v = es.eigenvectors[:, block_cols]
            even = np.all(v[index] == v, axis=0)
            assert np.all(even | np.all(v[index] == -v, axis=0))
            # one even column per orbit of M, one odd column per pair
            assert np.count_nonzero(even) == (block_rows.size + fixed) // 2
        assert split > 0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_parities_are_exact_where_known(self, kind, n):
        # on a block that M maps onto itself a column of parity p has
        # v[M] == p v bit for bit; two blocks that M swaps share their levels
        # and read +1 on the block with the smaller first row and -1 on its image
        es = eig_hermitian(chain_hamiltonian(chain_spec(kind, n, seed=n, symmetric=True)))
        index, v, parities = chain_mirror_index(n), es.eigenvectors, es.parities
        assert es.mirror_residual == 0
        assert np.all(parities != 0)
        blocks = solved_blocks(es)
        columns_of = {int(block_rows[0]): block_cols for block_rows, block_cols in blocks}
        for block_rows, block_cols in blocks:
            image = np.sort(index[block_rows])
            if np.array_equal(image, block_rows):
                assert np.array_equal(v[index][:, block_cols],
                                      parities[block_cols] * v[:, block_cols])
                if not is_split(index, block_rows):
                    assert np.all(parities[block_cols] == 1)
                continue
            assert np.all(parities[block_cols] == (1 if block_rows[0] < image[0] else -1))
            gap = np.abs(es.eigenvalues[block_cols] - es.eigenvalues[columns_of[int(image[0])]])
            assert np.max(gap) <= 1e-12 * max(np.max(np.abs(es.eigenvalues)), 1.0)

    def test_fixed_point_blocks_are_even(self):
        # O2 is diagonal: a palindromic basis state is its own block, kept by
        # M and even; any other state's block is M's image of another block,
        # +1 when it is the smaller index of the two and -1 otherwise
        n = 3
        es = eig_hermitian(chain_hamiltonian(ChainSpec(n=n, kind="O2")))
        index = chain_mirror_index(n)
        rows, cols = (np.concatenate(part) for part in zip(*solved_blocks(es)))
        assert rows.size == cols.size == 27  # every block is one state
        image = index[rows]
        assert np.array_equal(es.parities[cols], np.where(image < rows, -1, 1))
        assert np.count_nonzero(image == rows) == 9
        assert np.count_nonzero(es.parities < 0) == 9

    def test_rerun_is_byte_identical(self):
        ham = chain_hamiltonian(ChainSpec(n=5, kind="heisenberg"))
        first, second = eig_hermitian(ham), eig_hermitian(ham)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


def storage_inputs():
    """(id, operator, mirror index or None) of the eigensystem storage tests: every
    kind at n = 2-6 (engineered chains mirror-symmetric), both transfer presets at
    n = 2-6, an engineered chain that is not mirror-symmetric, a 9 x 9 coupling array,
    a sigma block, the two-site operator of a complex sigma block, a tomography band
    and a random Hermitian array of several blocks."""
    inputs = [(f"{kind}-{n}", chain_hamiltonian(chain_spec(kind, n, seed=n, symmetric=True)),
               chain_mirror_index(n)) for kind in KINDS for n in (2, 3, 4, 5, 6)]
    inputs += [(f"{variant}-{n}", chain_hamiltonian(pst_preset(n, variant)), chain_mirror_index(n))
               for variant in PRESET_VARIANTS for n in (2, 3, 4, 5, 6)]
    inputs += [("engineered-asymmetric-4", chain_hamiltonian(chain_spec("engineered", 4, seed=4)),
                chain_mirror_index(4)),
               ("O5-coupling", candidate_two_site("O5"), None),
               ("sigma-5", engineered_sigma_block(pst_preset(5, "standard")), None),
               # a complex sigma block of 3^2 states shares its cache entry with this operator
               ("sigma-4-chain", linalg.ChainOperator.from_terms(
                   [(1, engineered_sigma_block(pst_preset(4, "standard")).astype(complex))], 2),
                chain_mirror_index(2)),
               ("band-9", dense_band(pst_preset(9, "standard"), "up"), None),
               ("random-blocks", permuted_block_diagonal(np.random.default_rng(71),
                                                         [7, 1, 4, 7, 2, 4, 1]), None)]
    return inputs


STORAGE_INPUTS = storage_inputs()


@pytest.mark.parametrize("name, op, index", STORAGE_INPUTS,
                         ids=[name for name, _, _ in STORAGE_INPUTS])
class TestBlockLocalStorage:
    """An eigensystem holds its stacked solves; the dense matrix is assembled on request."""

    @staticmethod
    def dense(op):
        return op.dense() if isinstance(op, linalg.ChainOperator) else np.asarray(op)

    def test_assembled_vectors_reconstruct_and_are_unitary(self, name, op, index):
        es = eig_hermitian(op)
        mat = self.dense(op)
        scale = max(np.max(np.abs(mat)), 1.0)
        assert es.reconstruction_residual(mat) <= 1e-12 * scale
        assert es.unitarity_deviation() <= 1e-12
        # the self-checks run solve by solve and agree with the dense formulas, the
        # largest entries of |V diag(w) V^dagger - H| and of |V^dagger V - I|
        v = es.eigenvectors
        rebuilt = (v * es.eigenvalues) @ v.conj().T
        assert abs(es.reconstruction_residual(mat) - np.max(np.abs(rebuilt - mat))) <= 1e-14 * scale
        gram = v.conj().T @ v
        assert abs(es.unitarity_deviation() - np.max(np.abs(gram - np.eye(len(v))))) <= 1e-14
        # the operator that was solved reads as its dense matrix does
        assert es.reconstruction_residual(op) == es.reconstruction_residual(mat)

    def test_split_blocks_have_exact_parity(self, name, op, index):
        es = eig_hermitian(op)
        v = es.eigenvectors
        sectors = [solve for solve in es.solves if solve.mirrored is not None]
        if es.mirror_residual != 0:
            # no exact chain mirror: no sector, no parity
            assert not sectors and not es.parities.any()
            return
        # the diagonal O2 and O4 have no block that M maps onto itself with a pair
        assert bool(sectors) != name.startswith(("O2", "O4"))
        for solve in sectors:
            cols = solve.columns.ravel()
            assert np.all(es.parities[cols] == solve.sign)
            assert np.array_equal(v[index][:, cols], es.parities[cols] * v[:, cols])
            assert np.array_equal(index[solve.rows], solve.mirrored)

    def test_readers_equal_the_assembled_matrix(self, name, op, index):
        es = eig_hermitian(op)
        v = es.eigenvectors
        everything = np.arange(es.dim)
        assert es.eigenvector_rows(everything).tobytes() == v.tobytes()
        rng = np.random.default_rng(es.dim)
        some = rng.choice(es.dim, size=min(es.dim, 5), replace=False)
        assert es.eigenvector_rows(some).tobytes() == v[some].tobytes()

    def test_unitary_tiles_cover_the_dense_product_once(self, name, op, index):
        es = eig_hermitian(op)
        v = es.eigenvectors
        phases = np.exp(1j * np.random.default_rng(es.dim).uniform(-np.pi, np.pi, es.dim))
        dense = (v * phases) @ v.conj().T
        tiles = list(es.unitary_blocks(phases))
        scattered = np.zeros_like(dense)
        for rows, cols, tile in tiles:
            assert tile.shape == rows.shape + cols.shape[1:]
            scattered[rows[:, :, None], cols[:, None, :]] = tile
        assert np.max(np.abs(scattered - dense)) <= 1e-15
        # each entry of every block once: the tiles hold sum (block size)^2 entries
        assert sum(tile.size for _, _, tile in tiles) == sum(
            block.size ** 2 for block in blocks_of(self.dense(op)))
        # a block solved whole is one tile, the product of its own vectors
        for solve in es.solves:
            if solve.mirrored is not None:
                continue
            rows, cols = solve.rows, solve.columns
            block = v[rows[:, :, None], cols[:, None, :]]
            want = (block * phases[cols][:, None, :]) @ block.conj().transpose(0, 2, 1)
            (tile,) = [tile for tile_rows, tile_cols, tile in tiles
                       if tile_rows.shape == rows.shape and np.array_equal(tile_rows, rows)
                       and np.array_equal(tile_cols, rows)]
            assert tile.tobytes() == want.tobytes()


def deferred_inputs():
    """(id, operator) of the deferred-vector tests: every kind at n = 2-5 (engineered
    chains mirror-symmetric), both transfer presets at n = 2-5, ten seeded
    mirror-symmetric engineered chains at n = 3-6 and one array of several blocks."""
    inputs = [(f"{kind}-{n}", chain_hamiltonian(chain_spec(kind, n, seed=n, symmetric=True)))
              for kind in KINDS for n in (2, 3, 4, 5)]
    inputs += [(f"{variant}-{n}", chain_hamiltonian(pst_preset(n, variant)))
               for variant in PRESET_VARIANTS for n in (2, 3, 4, 5)]
    inputs += [(f"mirror-chain-{seed}", chain_hamiltonian(
        chain_spec("engineered", 3 + seed % 4, seed=100 + seed, symmetric=True)))
        for seed in range(10)]
    inputs += [("random-blocks", permuted_block_diagonal(np.random.default_rng(73),
                                                         [5, 1, 3, 5, 2, 3]))]
    return inputs


DEFERRED_INPUTS = deferred_inputs()


def vector_reads(es):
    """Bytes of all that an eigensystem's vector readers give: V, all its rows in
    reverse order, and every tile of V diag(phases) V^dagger."""
    phases = np.exp(0.7j * es.eigenvalues)
    reads = [es.eigenvectors.tobytes(), es.eigenvector_rows(np.arange(es.dim)[::-1]).tobytes()]
    for rows, cols, tile in es.unitary_blocks(phases):
        reads += [rows.tobytes(), cols.tobytes(), tile.tobytes()]
    return reads


class TestDeferredVectors:
    """The mirror analyses read the eigenvalues and parities only; the phase-fixed
    vectors are finished on the first read of the solves, to the same bytes."""

    @pytest.mark.parametrize("spec", [chain_spec("engineered", 6, seed=6, symmetric=True),
                                      ChainSpec(n=5, kind="O5")], ids=["engineered-6", "O5-5"])
    def test_mirror_analyses_finish_no_vector(self, spec, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        fixed = []
        rotate = linalg._rotate_columns

        def counted(stack):
            fixed.append(stack.shape)
            return rotate(stack)

        monkeypatch.setattr(linalg, "_rotate_columns", counted)
        ham = chain_hamiltonian(spec)
        assert mirror_check(ham, np.pi).commutator_residual == 0
        parity_spectrum(ham)
        assert fixed == []
        es = evolution_cache(ham).eigensystem
        solves = es.solves  # the first read finishes every stack, once
        assert len(fixed) == len(solves) and es.solves is solves
        assert es._build_solves is None  # and drops the raw eigh output

    @pytest.mark.parametrize("spec", [chain_spec("engineered", 6, seed=6, symmetric=True),
                                      ChainSpec(n=5, kind="O5")], ids=["engineered-6", "O5-5"])
    def test_a_build_cut_short_goes_on_at_the_next_read(self, spec, monkeypatch):
        # the second stack's phase fixing raises once, after the first stack is
        # finished: the next read finishes the rest, to the bytes of a fresh build
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(spec)
        first = vector_reads(evolution_cache(ham).eigensystem)
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        calls, rotate = [], linalg._rotate_columns

        def failing_once(stack):
            calls.append(stack.shape)
            if len(calls) == 2:
                raise MemoryError("cut short")
            return rotate(stack)

        monkeypatch.setattr(linalg, "_rotate_columns", failing_once)
        es = evolution_cache(ham).eigensystem
        with pytest.raises(MemoryError, match="cut short"):
            es.solves
        assert es._build_solves is not None
        assert vector_reads(evolution_cache(ham).eigensystem) == first
        assert len(calls) == len(es.solves) + 1  # the first stack was not finished twice

    @pytest.mark.parametrize("name, op", DEFERRED_INPUTS, ids=[name for name, _ in DEFERRED_INPUTS])
    def test_vectors_read_after_the_analyses_are_those_read_first(self, name, op, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        first = vector_reads(evolution_cache(op).eigensystem)
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        if isinstance(op, ChainOperator):
            assert mirror_check(op, np.pi).commutator_residual == 0
            parity_spectrum(op)
        else:
            # an array has no chain mirror: the analyses' reads without them
            clustered_parities(evolution_cache(op).eigensystem)
        assert vector_reads(evolution_cache(op).eigensystem) == first


def recorded_eigh(monkeypatch):
    """Patch np.linalg.eigh to record the dtype of every matrix it is given."""
    dtypes, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return dtypes


def random_centrohermitian(rng, dim):
    """A random Hermitian H with H[R i, R j] == conj(H[i, j]) exactly, R: i -> dim-1-i."""
    mat = random_hermitian(rng, dim)
    return (mat + mat[::-1, ::-1].conj()) / 2


def assert_accurate(es, mat):
    """Eigenvalues against scipy, the residual ||H psi - psi E|| and the unitarity of psi."""
    scale = max(np.max(np.abs(mat)), 1.0)
    v = es.eigenvectors
    assert np.max(np.abs(es.eigenvalues - scipy.linalg.eigvalsh(mat))) <= 1e-13 * scale
    assert np.max(np.abs(mat @ v - v * es.eigenvalues)) <= 1e-13 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(v)))) <= 1e-13 * scale


class TestRealForms:
    def test_real_valued_complex_array_is_solved_as_real(self, monkeypatch):
        rng = np.random.default_rng(61)
        mat = random_hermitian(rng, 17).real.astype(complex)
        dtypes = recorded_eigh(monkeypatch)
        es = eig_hermitian(mat)
        assert dtypes == [np.float64]
        w, v = np.linalg.eigh(mat.real)
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()

    def test_real_chain_operator_is_solved_as_real(self, monkeypatch):
        # a random real two-site operator: not a mirror commuter, so one block solved whole
        rng = np.random.default_rng(62)
        op = linalg.ChainOperator.from_terms([(1, random_hermitian(rng, 9).real)], 2)
        dtypes = recorded_eigh(monkeypatch)
        es = eig_hermitian(op)
        assert es.mirror_residual > 0 and dtypes == [np.float64]
        w, v = np.linalg.eigh(op.dense().real)
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()

    @pytest.mark.parametrize("n, counts", [(2, (6, 3)), (3, (18, 9)), (4, (45, 36)),
                                           (5, (135, 108)), (6, (378, 351))])
    def test_o5_is_solved_through_its_real_form(self, n, counts, monkeypatch):
        # O5 is complex and centrohermitian: its even and odd sectors are solved
        # as real symmetric matrices, and its eigenvectors keep their parities
        ham = chain_hamiltonian(ChainSpec(n=n, kind="O5"))
        dtypes = recorded_eigh(monkeypatch)
        es = eig_hermitian(ham)
        monkeypatch.undo()
        assert dtypes == [np.float64, np.float64]
        mat, index = ham.dense(), chain_mirror_index(n)
        assert_accurate(es, mat)
        assert (np.count_nonzero(es.parities > 0), np.count_nonzero(es.parities < 0)) == counts
        assert np.array_equal(es.eigenvectors[index], es.parities * es.eigenvectors)
        for t in (np.pi, 0.5 * np.pi, 1.3):
            assert not mirror_check(ham, t).is_mirror

    def test_centrohermitian_array_is_solved_as_real(self, monkeypatch):
        mat = random_centrohermitian(np.random.default_rng(63), 12)
        dtypes = recorded_eigh(monkeypatch)
        es = eig_hermitian(mat)
        assert dtypes == [np.float64]
        assert_accurate(es, mat)

    def test_nudged_centrohermitian_array_is_solved_complex(self, monkeypatch):
        # one entry (and its transpose) an ulp off: no longer centrohermitian
        mat = random_centrohermitian(np.random.default_rng(63), 12)
        mat[0, 1] = complex(np.nextafter(mat[0, 1].real, 2.0), mat[0, 1].imag)
        mat[1, 0] = mat[0, 1].conjugate()
        dtypes = recorded_eigh(monkeypatch)
        es = eig_hermitian(mat)
        monkeypatch.undo()
        assert dtypes == [np.complex128]
        w, v = np.linalg.eigh(mat)
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == fix_eigenvector_phases(v).tobytes()

    def test_blocks_that_the_reversal_moves_are_solved_complex(self, monkeypatch):
        # two centrohermitian 6 x 6 blocks, each the other's image under the
        # reversal of all 12 indices: neither is mapped onto itself
        rng = np.random.default_rng(64)
        mat = np.zeros((12, 12), dtype=complex)
        mat[:6, :6], mat[6:, 6:] = random_centrohermitian(rng, 6), random_centrohermitian(rng, 6)
        dtypes = recorded_eigh(monkeypatch)
        es = eig_hermitian(mat)
        monkeypatch.undo()
        assert dtypes == [np.complex128]
        w, v = stacked_block_reference(mat)
        assert es.eigenvalues.tobytes() == w.tobytes()
        assert es.eigenvectors.tobytes() == v.tobytes()


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_array_is_refused(self, bad):
        refusal = r"1 non-finite entries .* \(row, column\) \(0, 0\)"
        with pytest.raises(ValueError, match=refusal) as error:
            eig_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))
        assert not isinstance(error.value, NonHermitianError)

    def test_chain_operator_is_refused_by_every_analysis(self):
        ham = chain_hamiltonian(ChainSpec(n=3, kind="heisenberg"))
        values = ham.values.copy()
        values[4] = np.nan
        bad = linalg.ChainOperator(ham.flat, values, ham.n_sites)
        where = tuple(int(k) for k in divmod(ham.flat[4], 27))
        for analysis in (eig_hermitian, lambda op: mirror_check(op, np.pi),
                         lambda op: parity_spectrum(op, kind="chain_mirror")):
            with pytest.raises(ValueError, match=r"non-finite entries") as error:
                analysis(bad)
            assert not isinstance(error.value, NonHermitianError)
            assert f"(row, column) {where}" in str(error.value)


class TestBlockUnitary:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_dense_product_with_exact_zeros(self, sign):
        rng = np.random.default_rng(51)
        mat = permuted_block_diagonal(rng, [3, 1, 5, 3, 2])
        es = eig_hermitian(mat)
        t = 0.83
        unitary = EvolutionCache(es, "").unitary(sign * t)
        v = es.eigenvectors
        dense = (v * np.exp(1j * sign * es.eigenvalues * t)) @ v.conj().T
        assert np.max(np.abs(unitary - dense)) <= 1e-14
        linked = blocks_of(mat)
        labels = partition_labels(linked, mat.shape[0])
        between = labels[:, None] != labels[None, :]
        assert not np.any(unitary[between])


class TestContentKey:
    def test_one_entry_changes_the_key(self):
        mat = chain_hamiltonian(ChainSpec(n=3, kind="heisenberg")).dense()
        other = mat.copy()
        other[4, 10] += 1e-15
        assert content_key(mat) != content_key(other)

    @staticmethod
    def assert_one_entry(mat, twin):
        """``mat`` and ``twin`` share one key, one cache entry and one eigensystem."""
        assert content_key(mat) == content_key(twin)
        first = evolution_cache(mat)
        assert evolution_cache(twin) is first
        es, twin_es = first.eigensystem, eig_hermitian(twin)
        assert es.eigenvalues.tobytes() == twin_es.eigenvalues.tobytes()
        assert es.eigenvectors.tobytes() == twin_es.eigenvectors.tobytes()
        assert es.parities.tobytes() == twin_es.parities.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_signed_zero_shares_the_key(self, dtype, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        plus = engineered_sigma_block(chain_spec("engineered", 6, seed=3)).astype(dtype)
        minus = plus.copy()
        minus[plus == 0] = -0.0
        assert plus.tobytes() != minus.tobytes()
        self.assert_one_entry(minus, plus)

    @pytest.mark.parametrize("mat", [
        engineered_sigma_block(pst_preset(7)),
        dense_band(chain_spec("engineered", 9, seed=4), "up"),
        chain_hamiltonian(ChainSpec(n=3, kind="heisenberg")).dense().real.copy(),
        permuted_block_diagonal(np.random.default_rng(5), [3, 1, 5, 3, 2]).real.copy(),
    ], ids=["preset-sigma-block", "band", "heisenberg", "blocks"])
    def test_float_array_shares_the_key_of_its_complex_copy(self, mat, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        mat = (mat + mat.T) / 2
        self.assert_one_entry(mat, mat.astype(complex))
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        self.assert_one_entry(mat.astype(complex), mat)

    def test_other_values_change_the_key(self):
        real = np.array([[1.0, 2.0], [2.0, 0.0]])
        # equal bytes and shape, other values
        assert content_key(real) != content_key(real.view(np.int64))
        assert content_key(real) != content_key(real * 1j)

    @pytest.mark.parametrize("mat", [np.zeros((3, 4)), np.zeros((1, 4)), np.zeros(4),
                                     np.zeros((0, 0))], ids=["3x4", "1x4", "vector", "empty"])
    def test_non_square_is_refused(self, mat):
        # the key reads what the solve reads, so it refuses what the solve refuses
        with pytest.raises(ValueError, match="square matrix"):
            content_key(mat)

    @pytest.mark.parametrize("dim", [7, 300])
    @pytest.mark.parametrize("dtype", [float, complex, np.float32, np.int8, bool])
    def test_read_entries_match_flatnonzero(self, dtype, dim):
        # 300 rows are scanned in two runs
        rng = np.random.default_rng(31)
        mat = (rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.3)).astype(dtype)
        if dtype is complex:
            mat[2, 3] = 1j  # a zero real part
            mat[5, 1] = complex(-0.0, 0.0)
            mat[4, 4] = complex(0.0, -0.0)
        entries = linalg._read_entries(mat)
        assert entries.dim == dim
        assert np.array_equal(entries.flat, np.flatnonzero(mat))
        assert entries.values.dtype == complex
        assert np.array_equal(entries.values, mat.reshape(-1)[np.flatnonzero(mat)])
        # a transposed view has other bytes in memory but the same key as its copy
        assert content_key(mat.T) == content_key(mat.T.copy())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_operator_shares_the_key_of_its_dense_matrix(self, kind, n, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(chain_spec(kind, n, seed=n))
        dense = ham.dense()
        assert content_key(ham) == content_key(dense)
        assert np.array_equal(linalg._read_entries(dense).flat, ham.flat)
        assert evolution_cache(ham) is evolution_cache(dense)
        # and the same eigensystem, parity sectors included, bit for bit, as
        # the dense matrix taken as an n-site operator
        es = evolution_cache(ham).eigensystem
        dense_es = eig_hermitian(linalg.ChainOperator.from_terms([(1, dense)], n))
        assert es.eigenvalues.tobytes() == dense_es.eigenvalues.tobytes()
        assert es.eigenvectors.tobytes() == dense_es.eigenvectors.tobytes()
        assert es.mirror_residual == dense_es.mirror_residual

    def test_operator_key_is_hashed_once(self, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(chain_spec("engineered", 4, seed=4, symmetric=True))
        hashed, entries_key = [], linalg._entries_key

        def counted(op):
            hashed.append(type(op).__name__)
            return entries_key(op)

        monkeypatch.setattr(linalg, "_entries_key", counted)
        key = content_key(ham)
        assert content_key(ham) == key and hashed == ["ChainOperator"]
        # its dense matrix is hashed from its own entries, to the same key and entry
        dense = ham.dense()
        assert content_key(dense) == key and hashed == ["ChainOperator", "_Entries"]
        assert evolution_cache(ham) is evolution_cache(dense)

    def test_equal_content_hits_the_cache(self):
        mat = chain_hamiltonian(ChainSpec(n=3, kind="O3")).dense()
        first = evolution_cache(mat)
        assert evolution_cache(mat.copy()) is first
        assert evolution_cache(np.asfortranarray(mat)) is first


class TestUnitaryFromEigensystem:
    @staticmethod
    def evolved(es, psi, t):
        return EvolutionCache(es, "").unitary(t) @ psi

    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(6)
        mat = random_hermitian(rng, 9)
        es = eig_hermitian(mat)
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(self.evolved(es, psi, 0.0) - psi)) <= 1e-13

    def test_eigenvector_picks_up_phase(self):
        es = eig_hermitian(np.diag([2.0, -1.0]))
        vec = np.array([0.0, 1.0], dtype=complex)
        out = self.evolved(es, vec, 0.7)
        assert np.allclose(out, np.exp(-1j * 0.7) * vec)
        out = self.evolved(es, vec, -0.7)
        assert np.allclose(out, np.exp(1j * 0.7) * vec)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        mat = random_hermitian(rng, 15)
        es = eig_hermitian(mat)
        psi = rng.normal(size=15) + 1j * rng.normal(size=15)
        psi /= np.linalg.norm(psi)
        out = self.evolved(es, psi, 3.3)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


class TestKron:
    """Terms placed on distinct sites multiply out to the Kronecker product of
    their local matrices, site 1 the left factor."""

    @staticmethod
    def kron_pair(a, b):
        return (ChainOperator.from_terms([(1, a)], 2).dense()
                @ ChainOperator.from_terms([(2, b)], 2).dense())

    def test_identity(self):
        assert np.array_equal(self.kron_pair(np.eye(3), np.eye(3)), np.eye(9))

    def test_diagonal_products(self):
        d = np.diag([1.0, 0.0, -1.0])
        expected = [1, 0, -1, 0, 0, 0, -1, 0, 1]
        assert np.allclose(np.diag(self.kron_pair(d, d)), expected)

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            product = self.kron_pair(a, b)
            assert np.max(np.abs(product - np.kron(a, b))) <= 1e-14
            assert np.isclose(np.trace(product), np.trace(a) * np.trace(b))


class TestDenseCap:
    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="dimension 10000 exceeds cap 6561"):
            check_dense_dim(100 * 100)
        check_dense_dim(MAX_DENSE_DIM)

    def test_sites_decide_without_forming_the_dimension(self):
        # eight sites fit; past forty the dimension is named, not written out
        check_dense_sites(8)
        for n, named in ((9, "19683"), (40, str(3 ** 40)), (41, "3^41"), (10 ** 9, "3^1000000000")):
            with pytest.raises(ValueError, match=rf"dimension {re.escape(named)} exceeds cap 6561"):
                check_dense_sites(n)


class TestReconstructionInput:
    """What :meth:`HermitianEigenSystem.reconstruction_residual` takes besides the
    matrix that was solved."""

    def test_other_matrix_is_measured_entry_by_entry(self):
        # a matrix with entries between the solved blocks, and other entries in them
        ham = chain_hamiltonian(ChainSpec(n=3, kind="heisenberg"))
        es = eig_hermitian(ham)
        rng = np.random.default_rng(72)
        other = ham.dense() + random_hermitian(rng, 27) * (rng.random((27, 27)) < 0.1)
        other = (other + other.conj().T) / 2
        assert len(blocks_of(other)) < len(blocks_of(ham.dense()))
        v = es.eigenvectors
        residual = np.max(np.abs((v * es.eigenvalues) @ v.conj().T - other))
        assert abs(es.reconstruction_residual(other) - residual) <= 1e-14 * np.max(np.abs(other))

    @pytest.mark.parametrize("mat", [np.zeros((26, 26)), np.zeros((27, 9)), np.zeros(27),
                                     chain_hamiltonian(ChainSpec(n=2, kind="heisenberg"))],
                             ids=["smaller", "not-square", "vector", "other-chain"])
    def test_other_shapes_are_refused(self, mat):
        es = eig_hermitian(chain_hamiltonian(ChainSpec(n=3, kind="heisenberg")))
        shape = (9, 9) if isinstance(mat, linalg.ChainOperator) else mat.shape
        with pytest.raises(ValueError, match=re.escape(f"shape {shape} cannot be compared with "
                                                       "an eigensystem of shape (27, 27)")):
            es.reconstruction_residual(mat)


def entry_forms(monkeypatch):
    """Patch linalg._entry_form to record (rows, stack, centro) of every group it forms."""
    forms, entry_form = [], linalg._entry_form

    def recording(*args):
        stack, centro = entry_form(*args)
        forms.append((args[1], stack.copy(), centro))
        return stack, centro

    monkeypatch.setattr(linalg, "_entry_form", recording)
    return forms


class TestEntryForms:
    """A ChainOperator's blocks are scattered from its entries in the form they are solved
    in, equal byte for byte to the form the dense matrix gives."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_forms_equal_the_dense_forms(self, kind, n, monkeypatch):
        ham = chain_hamiltonian(chain_spec(kind, n, seed=n))
        forms = entry_forms(monkeypatch)
        eig_hermitian(ham)
        mat = ham.dense()
        assert sum(rows.size for rows, _, _ in forms) == mat.shape[0]
        for rows, stack, centro in forms:
            dense = mat[rows[:, :, None], rows[:, None, :]]
            real = not dense.imag.any()
            assert centro == (not real and np.array_equal(rows[:, ::-1], 3 ** n - 1 - rows)
                              and np.array_equal(dense[:, ::-1, ::-1], dense.conj()))
            want = dense.real - dense.imag[..., ::-1] if centro else dense.real if real else dense
            assert stack.dtype == want.dtype
            assert stack.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_o5_real_form_is_scattered_from_the_entries(self, n, monkeypatch):
        # O5 is one centrohermitian block: its G = Re H - Im H J is one float array
        ham = chain_hamiltonian(ChainSpec(n=n, kind="O5"))
        forms = entry_forms(monkeypatch)
        monkeypatch.setattr(linalg.ChainOperator, "dense", None)  # never built
        eig_hermitian(ham)
        monkeypatch.undo()
        ((rows, stack, centro),) = forms
        mat = ham.dense()
        assert centro and np.array_equal(rows, np.arange(3 ** n)[None])
        assert stack.tobytes() == (mat.real - mat.imag[:, ::-1])[None].tobytes()


def traced_peak(call):
    """Peak bytes that tracemalloc sees ``call()`` allocate."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 2 ** 20


class TestSectorSizedMemory:
    # tracemalloc peaks at n = 6 (dim 729, a dense complex matrix 8.1 MiB).  Where
    # the eigensystem formed the dense V and its products, and O5 was solved from
    # its dense complex matrix and a conjugate copy, the peaks were: evolution_cache
    # 17.3 (O5) and 2.7 MiB (Heisenberg), mirror_check 8.8 and 0.8,
    # reconstruction_residual 32.4 and 32.4, unitarity_deviation 24.3 and 24.3.
    # Solve by solve they read 8.4 and 0.8, 9.4 and 0.8, 5.9 and 0.4 (numpy 2.4);
    # mirror_check, from the eigenvalues and parities alone, reads 0.56 and 0.2.
    # The bounds leave at least a third more.
    BOUNDS = {"O5": (11, 2, 12.5, 8), "heisenberg": (1.5, 1, 1.5, 1)}

    @pytest.mark.parametrize("kind", ["O5", "heisenberg"])
    def test_analyses_stay_within_their_sectors(self, kind, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(ChainSpec(n=6, kind=kind))
        mat = ham.dense()
        # the solve step reads the solves, whose vectors are finished on that read
        solve_peak = traced_peak(lambda: evolution_cache(ham).eigensystem.solves)
        es = evolution_cache(ham).eigensystem
        peaks = (solve_peak, traced_peak(lambda: mirror_check(ham, np.pi)),
                 traced_peak(lambda: es.reconstruction_residual(mat)),
                 traced_peak(es.unitarity_deviation))
        steps = "evolution_cache", "mirror_check", "reconstruction_residual", "unitarity_deviation"
        for step, peak, bound in zip(steps, peaks, self.BOUNDS[kind]):
            assert peak < bound * MiB, f"{step} peaked at {peak / MiB:.1f} MiB"
