import math
import re
from fractions import Fraction

import numpy as np
import pytest

import spin1chain
from spin1chain import dynamics, linalg, parity
from spin1chain.hamiltonians import (
    ChainSpec,
    candidate_two_site,
    chain_hamiltonian,
    heisenberg_two_site,
    mix_two_site,
    pst_preset,
)
from spin1chain.parity import (
    ADJUDICATED_SPECTRA,
    LITERATURE_SPECTRA,
    ParityCommutationError,
    ParitySplit,
    chain_mirror_index,
    chain_mirror_permutation,
    clustered_parities,
    mirror_check,
    parity_spectrum,
    reference_comparison,
)
from spin1chain.linalg import ChainOperator, commutator_residual
from spin1chain.spin_ops import SX, SY, basis_index

from band_reference import sigma_labels
from mirror_reference import (loop_cluster_bounds, loop_clustered_parities,
                              loop_feasibility_report)

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


def nudged_chain(spec):
    """An engineered chain with its last coupling one ulp above its mirror
    partner's: it misses M H M == H by about an ulp, far below 1e-12."""
    return ChainSpec(n=spec.n, kind=spec.kind, a=spec.a[:-1] + (np.nextafter(spec.a[-1], 2.0),),
                     b=spec.b, B=spec.B, C=spec.C)


def two_site_chain(name):
    """The two-site ChainOperator of a candidate coupling, as ``spectra`` builds it."""
    return chain_hamiltonian(ChainSpec(n=2, kind=name))


def two_site(mat):
    """The two-site ChainOperator of a 9 x 9 array."""
    return ChainOperator.from_terms([(1, mat)], 2)


def index_of(kind, dim):
    """The ``kind`` mirror index on dimension ``dim``: the chain mirror reads its
    site count from a ChainOperator, here the identity on 3^n states; ``sigma``
    reverses the up and the down run of a (2n+1)-dimensional sigma basis."""
    if kind == "chain_mirror":
        return chain_mirror_index({9: 2, 27: 3, 81: 4}[dim])
    up = np.arange((dim - 1) // 2)[::-1]
    return np.concatenate([up, [up.size], up.size + 1 + up])


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
        # site 1 is the most significant base-3 digit, so the mirror reverses the digits
        reference = reference_permutation(
            3 ** n, lambda j: int(np.base_repr(j, 3).zfill(n)[::-1], 3))
        assert np.array_equal(chain_mirror_permutation(n), reference)
        assert_index_matches(chain_mirror_index(n), reference)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_chain_mirror_reverses_both_sigma_runs(self, n):
        # the chain mirror maps the sigma states (up runs on sites 1..n, the
        # vacuum, down runs on sites 1..n) onto sigma states, reversing the up
        # and the down run and keeping the vacuum: it is the site inversion of
        # the sigma subspace, with no mirror of its own
        labels = sigma_labels(n)
        sigma = np.array([basis_index(label) for label in labels])
        run = np.arange(n)[::-1]
        reversed_runs = np.concatenate([run, [n], n + 1 + run])
        assert np.array_equal(chain_mirror_index(n)[sigma], sigma[reversed_runs])
        assert chain_mirror_index(n)[sigma].tolist() == [
            basis_index(label[::-1]) for label in labels]

    def test_two_site_chain_mirror_is_the_exchange(self):
        reference = reference_permutation(9, lambda j: 3 * (j % 3) + j // 3)
        assert_index_matches(chain_mirror_index(2), reference)

    def test_unknown_kind_rejected(self):
        # the two-site exchange is the chain mirror of a two-site ChainOperator,
        # and no kind of its own; the chain mirror is the only kind
        with pytest.raises(ValueError, match="unknown parity kind 'two_site_exchange'"):
            parity_spectrum(np.eye(9), kind="two_site_exchange")
        for op in (np.eye(9), two_site(np.eye(9))):
            with pytest.raises(ValueError, match="unknown parity kind 'sigma'"):
                parity_spectrum(op, kind="sigma")

    @pytest.mark.parametrize("kind, dim", [("chain_mirror", 10), ("chain_mirror", 1),
                                           ("chain_mirror", 8)])
    def test_wrong_dimension_rejected(self, kind, dim):
        # an array of other than 3^n states, n >= 1, names no site count
        for analysis in (lambda op: parity_spectrum(op, kind=kind),
                         lambda op: mirror_check(op, np.pi)):
            with pytest.raises(ValueError, match=re.escape(f"dimension 3^n (n >= 1), got shape "
                                                           f"({dim}, {dim})")):
                analysis(np.eye(dim))

    def test_chain_mirror_reads_the_site_count(self):
        # the operator's site count names the mirror, never its dimension: the
        # identity on three sites has an even level for each fixed state and
        # each swapped pair of the three-site mirror, and an odd one per pair
        op = ChainOperator.from_terms([(1, np.eye(27))], 3)
        index = chain_mirror_index(3)
        fixed = int(np.count_nonzero(index == np.arange(27)))
        split = parity_spectrum(op)
        assert split.even == (1.0,) * (fixed + (27 - fixed) // 2)
        assert split.odd == (1.0,) * ((27 - fixed) // 2)
        # an array of 3^3 states is read as the three-site operator it holds
        assert parity_spectrum(np.eye(27)) == split

    def test_one_mirror_check_under_every_name(self):
        # the package, dynamics and parity bind one function
        assert spin1chain.mirror_check is dynamics.mirror_check is parity.mirror_check


class TestProjectors:
    def test_two_site_dimensions(self):
        p_even, p_odd = parity_projector_pair(chain_mirror_index(2))
        assert np.isclose(np.trace(p_even).real, 6.0)
        assert np.isclose(np.trace(p_odd).real, 3.0)

    def test_mirror_squares_to_identity(self):
        for n in (2, 3, 4):
            mirror = chain_mirror_permutation(n)
            assert np.allclose(mirror @ mirror, np.eye(3 ** n))
        exchange = mirror_matrix(chain_mirror_index(2))
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


class TestParitySpectrum:
    @pytest.mark.parametrize("name", ["O1", "O2", "O3", "O4", "O5"])
    def test_matches_adjudicated_values(self, name):
        split = parity_spectrum(two_site_chain(name))
        ref_even, ref_odd = ADJUDICATED_SPECTRA[name]
        assert np.allclose(split.even, ref_even, atol=1e-10)
        assert np.allclose(split.odd, ref_odd, atol=1e-10)

    @pytest.mark.parametrize("name", ["O1", "O4", "O5"])
    def test_consistent_rows_match_literature(self, name):
        split = parity_spectrum(two_site_chain(name))
        cmp = reference_comparison(name, split)
        assert cmp["matches_literature"]
        assert cmp["matches_adjudicated"]

    @pytest.mark.parametrize("name", ["O2", "O3"])
    def test_trace_inconsistent_rows_are_flagged(self, name):
        split = parity_spectrum(two_site_chain(name))
        cmp = reference_comparison(name, split)
        assert not cmp["matches_literature"]
        assert cmp["matches_adjudicated"]
        assert cmp["note"]  # the discrepancy is reported, never silent

    @pytest.mark.parametrize("name", ["O1", "O2", "O3", "O4", "O5"])
    def test_union_is_full_spectrum(self, name):
        op = candidate_two_site(name)
        split = parity_spectrum(two_site_chain(name))
        combined = sorted(list(split.even) + list(split.odd))
        assert np.allclose(combined, np.linalg.eigvalsh(op), atol=1e-10)

    @pytest.mark.parametrize("name", ["O1", "O2", "O3", "O4", "O5"])
    def test_parity_labels_are_eigenvectors_of_mirror(self, name):
        # each label, read from the parity sectors, belongs to an eigenvector of
        # H and the mirror: the one that diagonalizing the mirror inside its
        # eigenvalue cluster gives
        op = candidate_two_site(name)
        es = linalg.eig_hermitian(two_site_chain(name))
        index = chain_mirror_index(2)
        vals, pars = clustered_parities(es)
        _, _, vecs = loop_clustered_parities(es.eigenvalues, es.eigenvectors, index)
        mirror = mirror_matrix(index)
        for k in range(9):
            assert np.max(np.abs(mirror @ vecs[:, k] - pars[k] * vecs[:, k])) <= 1e-10
            assert np.max(np.abs(op @ vecs[:, k] - vals[k] * vecs[:, k])) <= 1e-9

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"dimension 3\^n .*shape \(10, 10\)"):
            parity_spectrum(np.eye(10), kind="chain_mirror")
        # the chain mirror is the only kind
        with pytest.raises(ValueError, match="unknown parity kind 'sigma'"):
            parity_spectrum(two_site_chain("heisenberg_squared_mix"), kind="sigma")
        # a 9 x 9 array is read as the two-site operator it holds, under the
        # default kind too
        assert parity_spectrum(candidate_two_site("O3")) == parity_spectrum(two_site_chain("O3"))

    def test_heisenberg_parities(self):
        split = parity_spectrum(two_site(heisenberg_two_site()))
        assert np.allclose(split.even, [1, 1, 1, 1, 1, -2], atol=1e-12)
        assert np.allclose(split.odd, [-1, -1, -1], atol=1e-12)

    def test_non_commuting_operator_rejected(self):
        sx2, sy2 = SX @ SX, SY @ SY
        # asymmetric quartic-cubic coupling: not exchange symmetric
        op = np.kron(sx2, SX) + np.kron(sy2, SY) + np.kron(SX, sx2) + np.kron(sy2, SY)
        with pytest.raises(ParityCommutationError, match="residual"):
            parity_spectrum(two_site(op))

    def test_one_site_operator_is_all_even(self):
        # the chain mirror of one site is the identity: every level is even
        op = ChainOperator.from_terms([(1, np.diag([1.0, -2.0, 0.5]) + 0.25 * SX)], 1)
        split = parity_spectrum(op)
        es = linalg.evolution_cache(op).eigensystem
        assert es.mirror_residual == 0 and es.parities.tolist() == [1, 1, 1]
        assert split.even == tuple(es.eigenvalues[::-1].tolist()) and split.odd == ()
        assert np.allclose(split.even, np.linalg.eigvalsh(op.dense())[::-1], atol=1e-14)
        assert dynamics.mirror_check(op, np.pi).commutator_residual == 0


def sector_spectrum(mat, projector):
    """Eigenvalues of H restricted to an orthonormal basis of range(P), descending."""
    weights, vectors = np.linalg.eigh(projector)
    basis = vectors[:, weights > 0.5]
    return np.sort(np.linalg.eigvalsh(basis.conj().T @ mat @ basis))[::-1]


def dense_split_reference(mat, index, cluster_tol=1e-9):
    """Parity split from one dense eigh of the whole matrix and a cluster-by-cluster loop."""
    evals, vecs = np.linalg.eigh(mat)
    vals, pars, _ = loop_clustered_parities(evals, vecs, index, cluster_tol)
    return (np.sort(vals[pars > 0])[::-1], np.sort(vals[pars < 0])[::-1])


class TestClusteredParities:
    def test_clusters_and_means_match_loop(self):
        # tight clusters, a chain of 0.4e-9 steps that must be split from its
        # first value, and singletons; the mirror pairs states 2k and 2k+1.
        # The eigensystem's own parities are listed ascending in each cluster
        evals = np.sort(np.concatenate([
            [-3.0, -1.0, 0.0], 1.0 + np.array([0.0, 1e-15, 3e-10, 7e-10]),
            2.0 + 0.4e-9 * np.arange(9), [4.0, 4.0 + 2e-16], [7.5]]))
        dim = evals.size  # 19: nine swapped pairs and a fixed last state
        rng = np.random.default_rng(71)
        vecs = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        index = np.append(np.arange(dim - 1) ^ 1, dim - 1)
        whole = np.arange(dim)[None, :]
        parities = rng.choice(np.array([-1, 1], dtype=np.int8), size=dim)
        es = linalg.HermitianEigenSystem(
            evals, (linalg.EigenSolve(whole, None, 1.0, whole, vecs[None]),),
            mirror_residual=0.0, parities=parities)
        want_vals, _, _ = loop_clustered_parities(evals, vecs, index)
        vals, pars = clustered_parities(es)
        assert vals.tobytes() == want_vals.tobytes()
        clusters = np.split(parities, np.flatnonzero(np.diff(want_vals)) + 1)
        assert len(clusters) == 9
        assert np.array_equal(pars, np.concatenate([np.sort(c) for c in clusters]))

    def test_one_block_chain_matches_loop_bitwise(self):
        ham = chain_hamiltonian(ChainSpec(n=4, kind="O5"))
        assert [rows.shape for rows in linalg.connected_blocks(ham.flat, ham.dim)] == [(1, 81)]
        es = linalg.eig_hermitian(ham)
        index = chain_mirror_index(4)
        want_vals, want_pars, _ = loop_clustered_parities(es.eigenvalues, es.eigenvectors, index)
        vals, pars = clustered_parities(es)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(pars, want_pars)


    @pytest.mark.parametrize("spec", [ChainSpec(n=6, kind=kind) for kind in PAPER_KINDS]
                             + [mirror_symmetric_chain(6, seed=12)],
                             ids=list(PAPER_KINDS) + ["engineered"])
    def test_block_local_matches_loop_on_chains(self, spec):
        # every eigenvector vanishes outside its connected block, so the
        # sector parities give the loop's counts and means exactly
        es = linalg.eig_hermitian(chain_hamiltonian(spec))
        index = chain_mirror_index(6)
        want_vals, want_pars, _ = loop_clustered_parities(es.eigenvalues, es.eigenvectors, index)
        vals, pars = clustered_parities(es)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(pars, want_pars)


    @pytest.mark.parametrize("kind", PAPER_KINDS + ("engineered",))
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_known_parities_copied_and_the_rest_resolved(self, kind, n, monkeypatch):
        # every exact commuter has a known parity on every column, sector
        # solved or +-1 on two blocks that the mirror swaps, so no mirror
        # matrix is formed and the counts equal the loop's
        spec = mirror_symmetric_chain(n, seed=n) if kind == "engineered" else ChainSpec(n=n, kind=kind)
        es = linalg.eig_hermitian(chain_hamiltonian(spec))
        index = chain_mirror_index(n)
        resolved, eigvalsh = [], np.linalg.eigvalsh

        def counted_eigvalsh(a, *args, **kwargs):
            resolved.append(a.shape[0] * a.shape[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        vals, pars = clustered_parities(es)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        want_vals, want_pars, _ = loop_clustered_parities(es.eigenvalues, es.eigenvectors, index)
        assert vals.tobytes() == want_vals.tobytes()
        assert np.array_equal(pars, want_pars)
        assert es.mirror_residual == 0
        assert np.all(es.parities != 0)
        assert resolved == []

    def test_unknown_parities_are_refused(self, monkeypatch):
        # a chain an ulp off symmetric has no known parity, and none is
        # guessed: parity_spectrum refuses it, naming the residual, and
        # mirror_check reports the residual and no mirror (U = e^{i phi} M
        # would make [H, M] = 0), an infinite residual and a NaN phase; both
        # analyses read the one eigh of each connected block
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        ham = chain_hamiltonian(nudged_chain(mirror_symmetric_chain(4, 5)))
        solved, eigh = [], np.linalg.eigh

        def counted_eigh(mat, *args, **kwargs):
            count, size, _ = np.asarray(mat).shape
            solved.extend([size] * count)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        result = dynamics.mirror_check(ham, np.pi)
        with pytest.raises(ParityCommutationError,
                           match=r"residual \d\.\d{3}e-\d+, and a parity split needs exact"):
            parity_spectrum(ham)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        es = linalg.evolution_cache(ham).eigensystem
        assert 0 < es.mirror_residual <= 1e-15
        assert not es.parities.any()
        assert result.commutator_residual == es.mirror_residual
        assert result.is_mirror is False
        assert result.residual == np.inf
        assert np.isnan(result.phase)
        assert sum(solved) == 81

    def test_known_parities_need_the_chain_mirror(self):
        # the two-site exchange keeps states 0, 4 and 8 and swaps the others:
        # each swapped pair of 1x1 blocks reads +1 on its smaller state and -1
        # on the other (columns by eigenvalue: states 0, 1, 3, 2, 6, 4, 5, 7, 8)
        mat = np.diag([0.5, 1.0, 2.0, 1.0, 4.0, 5.0, 2.0, 5.0, 8.0])
        es = linalg.eig_hermitian(ChainOperator.from_terms([(1, mat)], 2))
        assert es.parities.tolist() == [1, 1, -1, 1, -1, 1, 1, -1, 1]
        vals, pars = clustered_parities(es)
        assert np.array_equal(pars, loop_clustered_parities(es.eigenvalues, es.eigenvectors,
                                                            chain_mirror_index(2))[1])
        # the array is read as the two-site operator it holds: the same parities
        plain = linalg.eig_hermitian(mat)
        assert plain.mirror_residual == 0 and plain.parities.tolist() == es.parities.tolist()


def cluster_bound_inputs():
    """(id, ascending values) of the cluster scan tests: chains of steps below 1e-9
    whose runs span more, exact ties, one value, none, and the eigenvalues of every
    kind at n = 2-6 (engineered chains mirror-symmetric)."""
    inputs = [("chained", [0.0, 0.6e-9, 1.2e-9, 1.8e-9]),
              ("long-chain", 2.0 + 0.4e-9 * np.arange(9)),
              ("chain-after-a-gap", [-1.0, 0.0, 0.9e-9, 1.8e-9, 2.7e-9, 5.0]),
              ("step-at-the-bound", [0.0, 0.5e-9, 1e-9, 1.5e-9, 2e-9]),
              ("ties", [1.0, 1.0, 1.0, 2.0, 2.0, 3.0 - 1e-16, 3.0]),
              ("one", [0.25]), ("empty", [])]
    specs = [(kind, ChainSpec(n=n, kind=kind)) for kind in PAPER_KINDS for n in (2, 3, 4, 5, 6)]
    specs += [("engineered", mirror_symmetric_chain(n, seed=n)) for n in (2, 3, 4, 5, 6)]
    return inputs + [(f"{kind}-n{spec.n}", linalg.eig_hermitian(chain_hamiltonian(spec)).eigenvalues)
                     for kind, spec in specs]


CLUSTER_BOUND_INPUTS = cluster_bound_inputs()


class TestClusterBounds:
    @pytest.mark.parametrize("values", [values for _, values in CLUSTER_BOUND_INPUTS],
                             ids=[name for name, _ in CLUSTER_BOUND_INPUTS])
    def test_scan_matches_the_loop(self, values):
        evals = np.array(values, dtype=float)
        starts, stops = parity._cluster_bounds(evals)
        want_starts, want_stops = loop_cluster_bounds(evals)
        assert starts.tolist() == want_starts.tolist()
        assert stops.tolist() == want_stops.tolist()

    def test_chained_steps_split_where_they_reach_the_tolerance(self):
        # every step is below 1e-9, but 1.2e-9 is 1e-9 past the first value
        starts, stops = parity._cluster_bounds(np.array([0, 0.6e-9, 1.2e-9, 1.8e-9]))
        assert starts.tolist() == [0, 2] and stops.tolist() == [2, 4]


class TestCommutatorResidual:
    @pytest.mark.parametrize("kind, dim", [("chain_mirror", 9), ("chain_mirror", 27),
                                           ("chain_mirror", 81), ("sigma", 9)])
    def test_nonzero_pattern_equals_dense(self, kind, dim):
        rng = np.random.default_rng(dim)
        index = index_of(kind, dim)
        for density in (0.02, 0.1, 0.5, 1.0):
            for _ in range(10):
                mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                mat[rng.random((dim, dim)) >= density] = 0.0
                mat[rng.random((dim, dim)) < 0.02] = -0.0
                dense = float(np.max(np.abs(mat[np.ix_(index, index)] - mat)))
                assert commutator_residual(mat, index) == dense
                real = mat.real.copy()
                dense = float(np.max(np.abs(real[np.ix_(index, index)] - real)))
                assert commutator_residual(real, index) == dense

    def test_zero_matrix(self):
        mat = np.zeros((9, 9))
        assert commutator_residual(mat, chain_mirror_index(2)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_operator_maxima_equal_dense(self, n):
        # read from the entries, the [H, M] residual and the Hermiticity
        # deviation equal the dense maxima bit for bit: on operators with
        # one-sided entries, on perturbed (non-Hermitian) chains and on
        # chains that are not mirror symmetric
        rng = np.random.default_rng(60 + n)
        dim = 3 ** n
        index = index_of("chain_mirror", dim)
        ops = []
        for density in (0.02, 0.2, 1.0):
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mat[rng.random((dim, dim)) >= density] = 0.0
            ops.append(ChainOperator.from_terms([(1, mat)], n))
        lopsided = ChainSpec(n=n, kind="engineered", a=tuple(rng.uniform(0.5, 1.5, n - 1)),
                             b=tuple(rng.uniform(0.5, 1.5, n - 1)),
                             B=tuple(rng.uniform(-1, 1, n)), C=tuple(rng.uniform(0.5, 2, n)))
        for spec in (mirror_symmetric_chain(n, seed=n), lopsided):
            ham = chain_hamiltonian(spec)
            noise = 1 + 1e-9 * rng.normal(size=ham.values.size)
            ops += [ham, ChainOperator(ham.flat, ham.values * noise, n)]
        for op in ops:
            mat = op.dense()
            dense = float(np.max(np.abs(mat[np.ix_(index, index)] - mat)))
            assert commutator_residual(op, index) == dense
            assert op.hermiticity_deviation() == float(np.max(np.abs(mat - mat.conj().T)))


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

    @pytest.mark.parametrize("spec", [ChainSpec(n=n, kind=kind) for n in (4, 5, 6)
                                      for kind in PAPER_KINDS]
                             + [mirror_symmetric_chain(5, seed=17),
                                mirror_symmetric_chain(6, seed=18)],
                             ids=[f"{kind}-n{n}" for n in (4, 5, 6) for kind in PAPER_KINDS]
                             + ["engineered-n5", "engineered-n6"])
    def test_split_equals_projector_sectors(self, spec):
        ham = chain_hamiltonian(spec)
        mat = ham.dense()
        split = parity_spectrum(ham, kind="chain_mirror")
        p_even, p_odd = parity_projector_pair(chain_mirror_index(spec.n))
        even, odd = sector_spectrum(mat, p_even), sector_spectrum(mat, p_odd)
        assert len(split.even) == len(even) and len(split.odd) == len(odd)
        assert np.max(np.abs(np.array(split.even) - even)) <= 1e-12
        assert np.max(np.abs(np.array(split.odd) - odd)) <= 1e-12

    def _analyses_share_one_eigh(self, monkeypatch, spec):
        """Run mirror_check and parity_spectrum of ``spec`` twice, counting calls;
        a parity split that is refused is refused both times.

        Returns the dimension of each eig_hermitian call, the sizes of the
        matrices each eigh call solved (one entry per matrix of a stack),
        the names of the shared computations called in both runs, in order, and
        H.
        """
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        decompositions, solved, shared = [], [], []
        eig_hermitian, eigh = linalg.eig_hermitian, np.linalg.eigh

        def counted_eig(op, *args, **kwargs):
            decompositions.append(len(op))
            return eig_hermitian(op, *args, **kwargs)

        def counted_eigh(mat, *args, **kwargs):
            # each call solves a stack of matrices of one size: (count, size, size)
            count, size, _ = np.asarray(mat).shape
            solved.extend([size] * count)
            return eigh(mat, *args, **kwargs)

        def counted(name, fn):
            def call(*args, **kwargs):
                shared.append(name)
                return fn(*args, **kwargs)
            return call

        def split_or_refusal(ham):
            try:
                return parity_spectrum(ham, kind="chain_mirror")
            except ParityCommutationError as refusal:
                return str(refusal)

        monkeypatch.setattr(linalg, "eig_hermitian", counted_eig)
        for module, name in ((linalg, "_entry_checks"), (parity, "clustered_parities")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        ham = chain_hamiltonian(spec)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        mirror = dynamics.mirror_check(ham, np.pi)
        split = split_or_refusal(ham)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        counts = (list(decompositions), sorted(solved))
        # a second analysis of the same H solves nothing again; the reprs
        # compare every field, the NaN phase of an inexact commuter included
        assert repr(dynamics.mirror_check(ham, np.pi)) == repr(mirror)
        assert split_or_refusal(ham) == split
        assert (decompositions, sorted(solved)) == counts
        return (*counts, shared, ham)

    def test_mirror_check_and_spectrum_share_one_eigh(self, monkeypatch):
        # one decomposition serves both analyses: a single eig_hermitian
        # call, whose eigh calls cover every connected block exactly once;
        # the commutator is computed once as well (in the one lookup of the
        # entries that checks Hermiticity too), and an operator that misses
        # exact commutation is refused a parity split, so no parities are
        # clustered
        spec = nudged_chain(mirror_symmetric_chain(4, seed=3))
        decompositions, solved, shared, ham = self._analyses_share_one_eigh(monkeypatch, spec)
        assert linalg.evolution_cache(ham).eigensystem.mirror_residual > 0
        blocks = [block for rows in linalg.connected_blocks(np.flatnonzero(ham.dense()), 81)
                  for block in rows]
        assert decompositions == [81]
        assert shared == ["_entry_checks"]
        assert solved == sorted(b.size for b in blocks)
        assert sum(solved) == 81

    def test_exact_commuter_shares_one_sector_decomposition(self, monkeypatch):
        # the exactly commuting twin: the one decomposition solves each
        # parity sector of every block that the mirror maps onto itself
        # once, and every other block whole
        spec = ChainSpec(n=4, kind="heisenberg")
        decompositions, solved, shared, ham = self._analyses_share_one_eigh(monkeypatch, spec)
        assert linalg.evolution_cache(ham).eigensystem.mirror_residual == 0
        index = chain_mirror_index(4)
        sectors = []
        for block in (block for rows in linalg.connected_blocks(np.flatnonzero(ham.dense()), 81)
                      for block in rows):
            fixed = int(np.count_nonzero(index[block] == block))
            assert np.array_equal(np.sort(index[block]), block)  # Sz sectors map onto themselves
            sectors += [(block.size + fixed) // 2, (block.size - fixed) // 2]
        assert decompositions == [81]
        # one clustering of the parities per parity_spectrum call
        assert shared == ["_entry_checks", "clustered_parities", "clustered_parities"]
        assert solved == sorted(size for size in sectors if size)
        assert sum(solved) == 81


def analyses(op, t=np.pi):
    """mirror_check and parity_spectrum of ``op`` under its chain mirror."""
    return dynamics.mirror_check(op, t), parity_spectrum(op)


class TestCacheFilledByTheOtherForm:
    @pytest.mark.parametrize("kind", ["heisenberg", "O5"])
    def test_dense_matrix_first_gives_the_same_bits(self, kind, monkeypatch):
        # a ChainOperator and its dense matrix share one cache entry, whichever
        # fills it: the operator's analyses read the entry the array filled
        ham = chain_hamiltonian(ChainSpec(n=4, kind=kind))
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        operator_first = analyses(ham)
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        cache = linalg.evolution_cache(ham.dense())
        assert cache.eigensystem.mirror_residual == 0
        dense_first = analyses(ham)
        assert dense_first == operator_first
        assert linalg.evolution_cache(ham) is cache
        assert len(linalg._cache_by_fingerprint) == 1


class TestFeasibility:
    """The paper's mirroring verdicts, from the exact feasibility reference."""

    def test_o1_irrational(self):
        report = loop_feasibility_report(parity_spectrum(two_site_chain("O1")))
        assert not report.feasible
        assert not report.ratios_rational

    def test_o2_parity_overlap(self):
        report = loop_feasibility_report(parity_spectrum(two_site_chain("O2")))
        assert not report.feasible
        assert report.parity_overlap

    def test_swap_generator_feasible(self):
        report = loop_feasibility_report(parity_spectrum(two_site_chain("heisenberg_squared_mix")))
        assert report.feasible
        assert not report.parity_overlap
        assert report.ratios_rational
        assert report.parity_consistent

    def test_heisenberg_two_site_infeasible(self):
        # even sector spans {1, -2}: the gap 3 is an odd multiple of the
        # cross-sector gap unit, so parities cannot be matched
        report = loop_feasibility_report(parity_spectrum(two_site(heisenberg_two_site())))
        assert not report.feasible
        assert report.ratios_rational
        assert report.parity_consistent is False

    def test_single_value_split(self):
        # one level in one sector is feasible, one level in both sectors is not
        for even, odd, feasible in [((2.0, 2.0), (), True), ((), (1.0, 1.0), True),
                                    ((1.0,), (1.0 + 1e-10,), False)]:
            report = loop_feasibility_report(
                ParitySplit(even=even, odd=odd, parity_operator="chain_mirror"))
            assert report.feasible is feasible
            assert report.parity_overlap is not feasible
            assert report.rational_unit is None

    @pytest.mark.parametrize("shift", [-5e-10, 5e-10, -2e-9, 2e-9])
    def test_overlap_within_tolerance_on_either_side(self, shift):
        # an odd level just below or just above an even one, with even levels on
        # both sides, overlaps when it lies within FEASIBILITY_TOL
        split = ParitySplit(even=(3.0, 1.0, -1.0), odd=(1.0 + shift, 0.5),
                            parity_operator="chain_mirror")
        report = loop_feasibility_report(split)
        assert report.parity_overlap == (abs(shift) <= 1e-9)

    def test_mix_generator_alternative_route(self):
        # the SWAP generator shifted by a constant stays feasible
        split = parity_spectrum(two_site(mix_two_site() + 2.0 * np.eye(9)))
        assert loop_feasibility_report(split).feasible

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chain_split_verdicts(self, n):
        # of every kind and preset only the two-site SWAP generators are
        # feasible, and each mirrors at t = pi / rational_unit
        ops = {kind: chain_hamiltonian(ChainSpec(n=n, kind=kind)) for kind in PAPER_KINDS}
        ops.update((variant, chain_hamiltonian(pst_preset(n, variant)))
                   for variant in ("standard", "phase_exact"))
        feasible = set()
        for name, op in ops.items():
            report = loop_feasibility_report(parity_spectrum(op))
            if report.feasible:
                feasible.add(name)
                assert dynamics.mirror_check(op, np.pi / report.rational_unit).is_mirror
        assert feasible == ({"heisenberg_squared_mix", "heisenberg_squared_sum"} if n == 2
                            else set())

    @pytest.mark.parametrize("consistent", [False, True])
    def test_unit_past_int64_is_exact(self, consistent):
        # gap ratios 1 + 1/q whose denominators' lcm passes 2^63: with 64 among them
        # the cross-sector gap 1 is an even multiple of the unit, so the pattern
        # breaks; with odd denominators only and the levels 1 + 1/q in the even
        # sector, every multiple matches its sector
        qs = (64, 63, 61, 59, 53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11)
        if consistent:
            split = ParitySplit(even=(0.0,) + tuple(1 + 1 / q for q in qs[1:]), odd=(1.0,),
                                parity_operator="chain_mirror")
        else:
            split = ParitySplit(even=(0.0,), odd=(1.0,) + tuple(1 + 1 / q for q in qs),
                                parity_operator="chain_mirror")
        report = loop_feasibility_report(split)
        # the same verdict in exact fractions
        levels = [(Fraction(v), 0) for v in split.even] + [(Fraction(v), 1) for v in split.odd]
        (first, sector), rest = levels[0], levels[1:]
        base = min((v - first for v, _ in rest if v != first), key=abs)
        fracs = [((v - first) / base).limit_denominator(64) for v, _ in rest]
        lcm = math.lcm(*(frac.denominator for frac in fracs))
        multiples = [frac * lcm for frac in fracs]
        assert lcm > 2 ** 63 and all(m.denominator == 1 for m in multiples)
        matches = all((m.numerator % 2 == 1) == (s != sector) for m, (_, s) in zip(multiples, rest))
        assert matches is consistent
        assert report.ratios_rational and not report.parity_overlap
        assert report.parity_consistent is consistent and report.feasible is consistent
        assert report.rational_unit == pytest.approx(float(abs(base) / lcm), rel=1e-15, abs=0)

    @pytest.mark.parametrize("build,feasible", [
        (lambda: two_site_chain("O1"), False), (lambda: two_site_chain("O2"), False),
        (lambda: two_site_chain("heisenberg_squared_mix"), True),
        (lambda: two_site(heisenberg_two_site()), False),
        (lambda: two_site(mix_two_site() + 2.0 * np.eye(9)), True),
    ], ids=["O1", "O2", "swap-generator", "heisenberg", "shifted-swap-generator"])
    def test_hand_made_split_verdicts(self, build, feasible):
        op = build()
        report = loop_feasibility_report(parity_spectrum(op))
        assert report.feasible is feasible
        if feasible:
            assert dynamics.mirror_check(op, np.pi / report.rational_unit).is_mirror
