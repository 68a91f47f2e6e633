import re

import numpy as np
import pytest

from spin1chain import dynamics, linalg
from spin1chain.hamiltonians import (
    ChainSpec,
    candidate_two_site,
    chain_hamiltonian,
    h12,
    heisenberg_two_site,
    mix_two_site,
)
from spin1chain.parity import (
    ADJUDICATED_SPECTRA,
    LITERATURE_SPECTRA,
    ParityCommutationError,
    ParitySplit,
    chain_mirror_index,
    chain_mirror_permutation,
    clustered_parities,
    mirror_index,
    mirroring_feasibility_report,
    parity_spectrum,
    reference_comparison,
    sigma_mirror_index,
)
from spin1chain.spin_ops import SX, SY, basis_index, basis_label

PAPER_KINDS = ("heisenberg", "heisenberg_squared_mix", "heisenberg_squared_sum",
               "O1", "O2", "O3", "O4", "O5")


def _mirror_symmetric(values):
    return tuple((values + values[::-1]) / 2.0)


def mirror_symmetric_chain(n, seed):
    """Engineered chain with couplings and fields symmetric under site reversal."""
    rng = np.random.default_rng(seed)
    return ChainSpec(n=n, kind="engineered",
                     a=_mirror_symmetric(rng.uniform(0.5, 1.5, n - 1)),
                     b=_mirror_symmetric(rng.uniform(0.5, 1.5, n - 1)),
                     B=_mirror_symmetric(rng.uniform(-1.0, 1.0, n)),
                     C=_mirror_symmetric(rng.uniform(0.5, 2.0, n)))


def reference_permutation(dim, image):
    """Dense permutation matrix sending basis state j to image(j), entry by entry."""
    perm = np.zeros((dim, dim))
    for j in range(dim):
        perm[image(j), j] = 1.0
    return perm


def mirror_matrix(index):
    """Dense permutation matrix of an index mirror: M x = x[index]."""
    return np.eye(index.size)[index]


def parity_projector_pair(index):
    """(P_even, P_odd) = ((I + M)/2, (I - M)/2) for an index mirror M."""
    eye, mirror = np.eye(index.size), mirror_matrix(index)
    return (eye + mirror) / 2.0, (eye - mirror) / 2.0


def assert_index_matches(index, dense):
    dim = dense.shape[0]
    assert np.array_equal(dense[index, np.arange(dim)], np.ones(dim))
    assert np.array_equal(index[index], np.arange(dim))  # an involution
    x = np.random.default_rng(dim).normal(size=dim)
    assert np.array_equal(dense @ x, x[index])


class TestIndexMirrors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_mirror_matches_reversed_labels(self, n):
        reference = reference_permutation(
            3 ** n, lambda j: basis_index(basis_label(j, n)[::-1]))
        assert np.array_equal(chain_mirror_permutation(n), reference)
        assert_index_matches(chain_mirror_index(n), reference)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sigma_mirror_reverses_both_runs(self, n):
        def image(j):
            if j < n:
                return n - 1 - j
            if j == n:
                return n
            return 3 * n + 1 - j  # down run n+1..2n reversed
        reference = reference_permutation(2 * n + 1, image)
        assert_index_matches(sigma_mirror_index(n), reference)

    def test_two_site_exchange(self):
        reference = reference_permutation(9, lambda j: 3 * (j % 3) + j // 3)
        assert_index_matches(mirror_index("two_site_exchange", 9), reference)

    @pytest.mark.parametrize("kind, dim, needed", [
        ("chain_mirror", 10, "3^n"),
        ("chain_mirror", 1, "3^n"),
        ("two_site_exchange", 27, "9-dimensional"),
        ("sigma", 10, "2n+1"),
    ])
    def test_wrong_dimension_rejected(self, kind, dim, needed):
        with pytest.raises(ValueError, match=rf"{re.escape(needed)}.*dimension {dim}\b"):
            mirror_index(kind, dim)


class TestProjectors:
    def test_two_site_dimensions(self):
        p_even, p_odd = parity_projector_pair(mirror_index("two_site_exchange", 9))
        assert np.isclose(np.trace(p_even).real, 6.0)
        assert np.isclose(np.trace(p_odd).real, 3.0)

    def test_mirror_squares_to_identity(self):
        for n in (2, 3, 4):
            mirror = chain_mirror_permutation(n)
            assert np.allclose(mirror @ mirror, np.eye(3 ** n))
        exchange = mirror_matrix(mirror_index("two_site_exchange", 9))
        assert np.allclose(exchange @ exchange, np.eye(9))

    def test_projectors_sum_to_identity(self):
        p_even, p_odd = parity_projector_pair(chain_mirror_index(3))
        assert np.allclose(p_even + p_odd, np.eye(27))
        assert np.allclose(p_even @ p_even, p_even)
        assert np.allclose(p_even @ p_odd, 0.0)

    def test_chain_mirror_maps_states(self):
        mirror = chain_mirror_permutation(3)
        src = np.zeros(27)
        src[basis_index("001")] = 1.0
        out = mirror @ src
        assert out[basis_index("100")] == 1.0

    def test_sigma_mirror_involution(self):
        for n in (2, 5):
            m = mirror_matrix(sigma_mirror_index(n))
            assert np.allclose(m @ m, np.eye(2 * n + 1))
            assert m[n, n] == 1.0


class TestParitySpectrum:
    @pytest.mark.parametrize("name", ["O1", "O2", "O3", "O4", "O5"])
    def test_matches_adjudicated_values(self, name):
        split = parity_spectrum(candidate_two_site(name))
        ref_even, ref_odd = ADJUDICATED_SPECTRA[name]
        assert np.allclose(split.even, ref_even, atol=1e-10)
        assert np.allclose(split.odd, ref_odd, atol=1e-10)

    @pytest.mark.parametrize("name", ["O1", "O4", "O5"])
    def test_consistent_rows_match_literature(self, name):
        split = parity_spectrum(candidate_two_site(name))
        cmp = reference_comparison(name, split)
        assert cmp["matches_literature"]
        assert cmp["matches_adjudicated"]

    @pytest.mark.parametrize("name", ["O2", "O3"])
    def test_trace_inconsistent_rows_are_flagged(self, name):
        split = parity_spectrum(candidate_two_site(name))
        cmp = reference_comparison(name, split)
        assert not cmp["matches_literature"]
        assert cmp["matches_adjudicated"]
        assert cmp["note"]  # the discrepancy is reported, never silent

    @pytest.mark.parametrize("name", ["O1", "O2", "O3", "O4", "O5"])
    def test_union_is_full_spectrum(self, name):
        op = candidate_two_site(name)
        split = parity_spectrum(op)
        combined = sorted(list(split.even) + list(split.odd))
        assert np.allclose(combined, np.linalg.eigvalsh(op), atol=1e-10)

    @pytest.mark.parametrize("name", ["O1", "O2", "O3", "O4", "O5"])
    def test_parity_labels_are_eigenvectors_of_mirror(self, name):
        # each label belongs to an eigenvector of H and the mirror: the one
        # that diagonalizing the mirror inside its eigenvalue cluster gives
        op = candidate_two_site(name)
        es = linalg.eig_hermitian(op)
        index = mirror_index("two_site_exchange", 9)
        vals, pars = clustered_parities(es, index)
        _, _, vecs = loop_clustered_parities(es.eigenvalues, es.eigenvectors, index)
        mirror = mirror_matrix(index)
        for k in range(9):
            assert np.max(np.abs(mirror @ vecs[:, k] - pars[k] * vecs[:, k])) <= 1e-10
            assert np.max(np.abs(op @ vecs[:, k] - vals[k] * vecs[:, k])) <= 1e-9

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"3\^n, got dimension 10"):
            parity_spectrum(np.eye(10), kind="chain_mirror")
        with pytest.raises(ValueError, match="9-dimensional two-site operator, got dimension 27"):
            parity_spectrum(np.eye(27))

    def test_heisenberg_parities(self):
        split = parity_spectrum(heisenberg_two_site())
        assert np.allclose(split.even, [1, 1, 1, 1, 1, -2], atol=1e-12)
        assert np.allclose(split.odd, [-1, -1, -1], atol=1e-12)

    def test_non_commuting_operator_rejected(self):
        sx2, sy2 = SX @ SX, SY @ SY
        # asymmetric quartic-cubic coupling: not exchange symmetric
        op = np.kron(sx2, SX) + np.kron(sy2, SY) + np.kron(SX, sx2) + np.kron(sy2, SY)
        with pytest.raises(ParityCommutationError, match="residual"):
            parity_spectrum(op)


def sector_spectrum(mat, projector):
    """Eigenvalues of H restricted to an orthonormal basis of range(P), descending."""
    weights, vectors = np.linalg.eigh(projector)
    basis = vectors[:, weights > 0.5]
    return np.sort(np.linalg.eigvalsh(basis.conj().T @ mat @ basis))[::-1]


def loop_clustered_parities(evals, vecs, index, cluster_tol=1e-9):
    """(eigenvalue, parity, vector) per eigenvector, one cluster at a time.

    A cluster holds the values within cluster_tol of its first; its
    eigenvalue is the cluster mean and the mirror is diagonalized in it.
    """
    vals, pars, out_vecs = [], [], []
    i = 0
    while i < len(evals):
        j = i
        while j + 1 < len(evals) and evals[j + 1] - evals[i] < cluster_tol:
            j += 1
        cluster = vecs[:, i:j + 1]
        pvals, pvecs = np.linalg.eigh(cluster.conj().T @ cluster[index])
        vals += [float(np.mean(evals[i:j + 1]))] * len(pvals)
        pars += [1 if p > 0 else -1 for p in pvals]
        out_vecs.append(cluster @ pvecs)
        i = j + 1
    return np.array(vals), np.array(pars), np.hstack(out_vecs)


def dense_split_reference(mat, index, cluster_tol=1e-9):
    """Parity split from one dense eigh of the whole matrix and a cluster-by-cluster loop."""
    evals, vecs = np.linalg.eigh(mat)
    vals, pars, _ = loop_clustered_parities(evals, vecs, index, cluster_tol)
    return (np.sort(vals[pars > 0])[::-1], np.sort(vals[pars < 0])[::-1])


class TestClusteredParities:
    def test_clusters_and_means_match_loop(self):
        # tight clusters, a chain of 0.4e-9 steps that must be split from its
        # first value, and singletons; the mirror pairs states 2k and 2k+1
        evals = np.sort(np.concatenate([
            [-3.0, -1.0, 0.0], 1.0 + np.array([0.0, 1e-15, 3e-10, 7e-10]),
            2.0 + 0.4e-9 * np.arange(9), [4.0, 4.0 + 2e-16], [7.5]]))
        dim = evals.size  # 19: nine swapped pairs and a fixed last state
        rng = np.random.default_rng(71)
        vecs = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        index = np.append(np.arange(dim - 1) ^ 1, dim - 1)
        es = linalg.HermitianEigenSystem(evals, vecs)
        want_vals, want_pars, _ = loop_clustered_parities(evals, vecs, index)
        vals, pars = clustered_parities(es, index)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(pars, want_pars)

    def test_one_block_chain_matches_loop_bitwise(self):
        ham = chain_hamiltonian(ChainSpec(n=4, kind="O5")).dense()
        es = linalg.eig_hermitian(ham)
        index = chain_mirror_index(4)
        want_vals, want_pars, _ = loop_clustered_parities(es.eigenvalues, es.eigenvectors, index)
        vals, pars = clustered_parities(es, index)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(pars, want_pars)


class TestChainParitySpectrum:
    @pytest.mark.parametrize("spec", [ChainSpec(n=n, kind=kind) for n in (5, 6)
                                      for kind in PAPER_KINDS]
                             + [mirror_symmetric_chain(n, seed=s) for n in (5, 6) for s in (8, 9)],
                             ids=[f"{kind}-n{n}" for n in (5, 6) for kind in PAPER_KINDS]
                             + [f"engineered-n{n}-{s}" for n in (5, 6) for s in (8, 9)])
    def test_block_split_matches_dense_eigh(self, spec, monkeypatch):
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(spec)
        mat = ham.dense()
        split = parity_spectrum(ham, kind="chain_mirror")
        even, odd = dense_split_reference(mat, chain_mirror_index(spec.n))
        assert len(split.even) == len(even) and len(split.odd) == len(odd)
        assert np.max(np.abs(np.array(split.even) - even)) <= 1e-12
        assert np.max(np.abs(np.array(split.odd) - odd)) <= 1e-12

    @pytest.mark.parametrize("spec", [ChainSpec(n=n, kind=kind) for n in (4, 5)
                                      for kind in PAPER_KINDS]
                             + [mirror_symmetric_chain(5, seed=17)],
                             ids=[f"{kind}-n{n}" for n in (4, 5) for kind in PAPER_KINDS]
                             + ["engineered-n5"])
    def test_split_equals_projector_sectors(self, spec):
        ham = chain_hamiltonian(spec)
        mat = ham.dense()
        split = parity_spectrum(ham, kind="chain_mirror")
        p_even, p_odd = parity_projector_pair(chain_mirror_index(spec.n))
        even, odd = sector_spectrum(mat, p_even), sector_spectrum(mat, p_odd)
        assert len(split.even) == len(even) and len(split.odd) == len(odd)
        assert np.max(np.abs(np.array(split.even) - even)) <= 1e-10
        assert np.max(np.abs(np.array(split.odd) - odd)) <= 1e-10

    def test_mirror_check_and_spectrum_share_one_eigh(self, monkeypatch):
        # one decomposition serves both analyses: a single eig_hermitian
        # call, whose eigh calls cover every connected block exactly once
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        decompositions, solved = [], []
        eig_hermitian, eigh = linalg.eig_hermitian, np.linalg.eigh

        def counted_eig(mat, *args, **kwargs):
            decompositions.append(np.asarray(mat).shape)
            return eig_hermitian(mat, *args, **kwargs)

        def counted_eigh(mat, *args, **kwargs):
            solved.append(np.asarray(mat).shape)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(linalg, "eig_hermitian", counted_eig)
        ham = chain_hamiltonian(mirror_symmetric_chain(4, seed=3))
        blocks = linalg.connected_blocks(ham.dense())
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        dynamics.mirror_check(ham, np.pi)
        parity_spectrum(ham, kind="chain_mirror")
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert decompositions == [(81, 81)]
        block_sizes = sorted(b.size for b in blocks)
        # each call solves a stack of blocks of one size: (count, size, size)
        covered = sorted(size for count, size, _ in solved for _ in range(count))
        assert covered == block_sizes
        assert sum(covered) == 81


class TestFeasibility:
    def test_o1_irrational(self):
        report = mirroring_feasibility_report(parity_spectrum(candidate_two_site("O1")))
        assert not report.feasible
        assert not report.ratios_rational

    def test_o2_parity_overlap(self):
        report = mirroring_feasibility_report(parity_spectrum(candidate_two_site("O2")))
        assert not report.feasible
        assert report.parity_overlap

    def test_swap_generator_feasible(self):
        report = mirroring_feasibility_report(parity_spectrum(h12().dense()))
        assert report.feasible
        assert not report.parity_overlap
        assert report.ratios_rational
        assert report.parity_consistent

    def test_heisenberg_two_site_infeasible(self):
        # even sector spans {1, -2}: the gap 3 is an odd multiple of the
        # cross-sector gap unit, so parities cannot be matched
        report = mirroring_feasibility_report(parity_spectrum(heisenberg_two_site()))
        assert not report.feasible
        assert report.ratios_rational
        assert report.parity_consistent is False

    def test_single_value_split(self):
        report = mirroring_feasibility_report(
            ParitySplit(even=(2.0, 2.0), odd=(), parity_operator="two_site_exchange"))
        assert report.feasible

    def test_mix_generator_alternative_route(self):
        # the SWAP generator shifted by a constant stays feasible
        split = parity_spectrum(mix_two_site() + 2.0 * np.eye(9))
        assert mirroring_feasibility_report(split).feasible
