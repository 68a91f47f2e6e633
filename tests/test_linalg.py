import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from spin1chain import linalg
from spin1chain.dynamics import mirror_check
from spin1chain.hamiltonians import (
    KINDS,
    ChainSpec,
    PRESET_VARIANTS,
    _local_terms,
    candidate_two_site,
    chain_hamiltonian,
    down_block,
    engineered_sigma_block,
    heisenberg_two_site,
    pst_preset,
    up_block,
)
from spin1chain.linalg import (
    EvolutionCache,
    NonHermitianError,
    PHASE_FIX_THRESHOLD,
    chain_mirror_index,
    connected_blocks,
    content_key,
    eig_hermitian,
    evolution_cache,
    fix_eigenvector_phases,
    kron_all,
)
from spin1chain.parity import parity_spectrum
from spin1chain.spin_ops import SX


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
    return connected_blocks(np.flatnonzero(mat), mat.shape[0])


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

    def test_chain_operator_hermiticity_read_from_entries(self, monkeypatch):
        # an operator's deviation and scale come from its entries: the same
        # floats, so the same message, as the dense matrix's stack check
        ham = chain_hamiltonian(ChainSpec(n=3, kind="O5"))
        skewed = linalg.ChainOperator(ham.flat, ham.values * (1 + 1e-9j), ham.n_sites)
        with pytest.raises(NonHermitianError) as dense_error:
            eig_hermitian(skewed.dense())

        def no_stack_check(mat):
            raise AssertionError("a ChainOperator's blocks were checked as a stack")

        monkeypatch.setattr(linalg, "hermiticity_deviation", no_stack_check)
        with pytest.raises(NonHermitianError) as entry_error:
            eig_hermitian(skewed)
        assert str(entry_error.value) == str(dense_error.value)
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
        *(band(pst_preset(n, "standard")) for n in (9, 27) for band in (up_block, down_block)),
        *(engineered_sigma_block(pst_preset(n, "standard")) for n in (4, 13, 40)),
        np.diag([0.5, 1.0, 2.0, 1.0, 4.0, 5.0, 2.0, 5.0, 8.0])],
        ids=["up-9", "down-9", "up-27", "down-27", "sigma-4", "sigma-13", "sigma-40",
             "diagonal-9"])
    def test_arrays_of_3n_states_have_no_chain_mirror(self, mat, monkeypatch):
        # bands and sigma blocks of 3^k states, and a diagonal that commutes
        # with the two-site exchange, are arrays, not chain operators: no
        # commutator is formed, no block is split and no column has a parity
        def refused(*args):
            raise AssertionError("an array got a chain-mirror commutator")

        monkeypatch.setattr(linalg, "commutator_residual", refused)
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
    kind at n = 2-6 (engineered chains mirror-symmetric), an engineered chain that is
    not, a 9 x 9 coupling array, a sigma block, the two-site operator of a complex
    sigma block and a tomography band."""
    inputs = [(f"{kind}-{n}", chain_hamiltonian(chain_spec(kind, n, seed=n, symmetric=True)),
               chain_mirror_index(n)) for kind in KINDS for n in (2, 3, 4, 5, 6)]
    inputs += [("engineered-asymmetric-4", chain_hamiltonian(chain_spec("engineered", 4, seed=4)),
                chain_mirror_index(4)),
               ("O5-coupling", candidate_two_site("O5"), None),
               ("sigma-5", engineered_sigma_block(pst_preset(5, "standard")), None),
               # a complex sigma block of 3^2 states shares its cache entry with this operator
               ("sigma-4-chain", linalg.ChainOperator.from_terms(
                   [(1, engineered_sigma_block(pst_preset(4, "standard")).astype(complex))], 2),
                chain_mirror_index(2)),
               ("band-9", up_block(pst_preset(9, "standard")), None)]
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
        assert es.reconstruction_residual(mat) <= 1e-12 * max(np.max(np.abs(mat)), 1.0)
        assert es.unitarity_deviation() <= 1e-12

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
        assert es.eigenvector_columns(everything).tobytes() == v.tobytes()
        rng = np.random.default_rng(es.dim)
        some = rng.choice(es.dim, size=min(es.dim, 5), replace=False)
        assert es.eigenvector_rows(some).tobytes() == v[some].tobytes()
        assert es.eigenvector_columns(some).tobytes() == v[:, some].tobytes()

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
        unitary = EvolutionCache(es, "", np.flatnonzero(mat)).unitary(t, sign)
        v = es.eigenvectors
        dense = (v * np.exp(1j * sign * es.eigenvalues * t)) @ v.conj().T
        assert np.max(np.abs(unitary - dense)) <= 1e-14
        linked = blocks_of(mat)
        labels = partition_labels(linked, mat.shape[0])
        between = labels[:, None] != labels[None, :]
        assert not np.any(unitary[between])


class TestContentKey:
    @staticmethod
    def key(mat):
        return content_key(mat)[0]

    def test_one_entry_changes_the_key(self):
        mat = chain_hamiltonian(ChainSpec(n=3, kind="heisenberg")).dense()
        other = mat.copy()
        other[4, 10] += 1e-15
        assert self.key(mat) != self.key(other)

    def test_signed_zero_changes_the_key(self):
        plus, minus = np.zeros((3, 3)), np.zeros((3, 3))
        minus[1, 2] = -0.0
        assert plus.tobytes() != minus.tobytes()
        assert self.key(plus) != self.key(minus)
        # neither entry is a nonzero of the pattern
        assert content_key(minus)[1].size == 0

    def test_shape_changes_the_key(self):
        flat = np.arange(1.0, 5.0).reshape(1, 4)
        square = flat.reshape(2, 2)
        assert flat.tobytes() == square.tobytes()
        assert self.key(flat) != self.key(square)

    def test_dtype_changes_the_key(self):
        real = np.array([[1.0, 2.0], [2.0, 0.0]])
        assert self.key(real) != self.key(real.astype(complex))
        # equal bytes and shape, another dtype
        assert self.key(real) != self.key(real.view(np.int64))
        pair = np.array([[0.5, 0.25]])
        assert pair.tobytes() == pair.view(complex).tobytes()
        assert self.key(pair) != self.key(pair.view(complex))

    @pytest.mark.parametrize("dtype", [float, complex, np.float32, np.int8, bool])
    def test_nonzero_entries_match_flatnonzero(self, dtype):
        rng = np.random.default_rng(31)
        mat = (rng.normal(size=(7, 7)) * (rng.random((7, 7)) < 0.3)).astype(dtype)
        if dtype is complex:
            mat[2, 3] = 1j  # a zero real part
            mat[5, 1] = complex(-0.0, 0.0)
        assert np.array_equal(content_key(mat)[1], np.flatnonzero(mat))
        # a transposed view has other bytes in memory but the same key as its copy
        assert self.key(mat.T) == self.key(mat.T.copy())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_operator_shares_the_key_of_its_dense_matrix(self, kind, n, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(chain_spec(kind, n, seed=n))
        dense = ham.dense()
        digest, nonzero = content_key(ham)
        assert digest == self.key(dense)
        assert np.array_equal(nonzero, np.flatnonzero(dense))
        assert evolution_cache(ham) is evolution_cache(dense)
        # and the same eigensystem, parity sectors included, bit for bit, as
        # the dense matrix taken as an n-site operator
        es = evolution_cache(ham).eigensystem
        dense_es = eig_hermitian(linalg.ChainOperator.from_terms([(1, dense)], n))
        assert es.eigenvalues.tobytes() == dense_es.eigenvalues.tobytes()
        assert es.eigenvectors.tobytes() == dense_es.eigenvectors.tobytes()
        assert es.mirror_residual == dense_es.mirror_residual

    def test_equal_content_hits_the_cache(self):
        mat = chain_hamiltonian(ChainSpec(n=3, kind="O3")).dense()
        first = evolution_cache(mat)
        assert evolution_cache(mat.copy()) is first
        assert evolution_cache(np.asfortranarray(mat)) is first
        assert np.array_equal(first.nonzero, np.flatnonzero(mat))


class TestUnitaryFromEigensystem:
    @staticmethod
    def evolved(es, psi, t, sign=1):
        return EvolutionCache(es, "", None).unitary(t, sign) @ psi

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
        out = self.evolved(es, vec, 0.7, sign=1)
        assert np.allclose(out, np.exp(-1j * 0.7) * vec)
        out = self.evolved(es, vec, 0.7, sign=-1)
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
