import numpy as np
import pytest

from spin1chain.linalg import ChainOperator
from spin1chain.spin_ops import A1, A2, SX, SY, SZ, SZ2, basis_index

SQRT2 = np.sqrt(2.0)

# the anticommutators Su = {Sz, Sx} and Sv = {Sz, Sy}, which with Sx and Sy
# span the transition operators
SU = SZ @ SX + SX @ SZ
SV = SZ @ SY + SY @ SZ
SITE_MATRICES = {"Sx": SX, "Sy": SY, "Sz": SZ, "Su": SU, "Sv": SV, "Sz2": SZ2,
                 "A1": A1, "A2": A2}


def basis_label(index, n):
    """The label over {1, 0, m} of basis state ``index`` of an n-site chain."""
    return "".join("10m"[(index // 3 ** (n - 1 - k)) % 3] for k in range(n))


def placed(mat, site, n):
    """A one-site matrix at ``site`` (1-based) of an n-site chain, as a dense matrix."""
    return ChainOperator.from_terms([(site, mat)], n).dense()


class TestSiteOperators:
    def test_sz_is_diagonal(self):
        assert np.allclose(SZ, np.diag([1, 0, -1]))

    def test_sx_matrix(self):
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2
        assert np.allclose(SX, expected)

    def test_su_matrix(self):
        # oracle: multiply out Sz Sx + Sx Sz by hand
        expected = np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]]) / SQRT2
        assert np.max(np.abs(SU - expected)) <= 1e-14

    @pytest.mark.parametrize("name", ["Sx", "Sy", "Sz", "Su", "Sv", "Sz2"])
    def test_hermitian(self, name):
        mat = SITE_MATRICES[name]
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14

    def test_sv_matrix(self):
        # oracle: multiply out Sz Sy + Sy Sz by hand
        expected = np.array([[0, -1j, 0], [1j, 0, 1j], [0, -1j, 0]]) / SQRT2
        assert np.max(np.abs(SV - expected)) <= 1e-14

    def test_commutation_relations(self):
        for a, b, c in ((SX, SY, SZ), (SY, SZ, SX), (SZ, SX, SY)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) <= 1e-14

    def test_spin_one_casimir(self):
        # S^2 = s(s + 1) = 2 on every state of a spin 1
        assert np.max(np.abs(SX @ SX + SY @ SY + SZ @ SZ - 2 * np.eye(3))) <= 1e-14

    def test_sz_squared(self):
        assert np.allclose(SZ2, np.diag([1, 0, 1]))

    def test_projectors(self):
        # the projectors on |1>, |0> and |-1> are polynomials in Sz
        for mat, idx in (((SZ2 + SZ) / 2, 0), (np.eye(3) - SZ2, 1), ((SZ2 - SZ) / 2, 2)):
            expected = np.zeros((3, 3))
            expected[idx, idx] = 1.0
            assert np.array_equal(mat, expected)


class TestLadderOperators:
    def test_a1_is_up_transition(self):
        assert A1[0, 1] == 1.0
        assert np.count_nonzero(A1) == 1

    def test_a2_is_down_transition(self):
        assert A2[2, 1] == 1.0
        assert np.count_nonzero(A2) == 1

    def test_a1_dagger(self):
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0  # |0><1|
        assert np.allclose(A1.conj().T, expected)

    def test_identity_check_passes(self):
        # A1 and A2 over the Hermitian basis {Su, Sv, Sx, Sy}:
        #   A1        = (Su + i Sv + Sx + i Sy) / (2 sqrt 2)
        #   A2        = (-Su + i Sv + Sx - i Sy) / (2 sqrt 2)
        #   A2^dagger = (-Su - i Sv + Sx + i Sy) / (2 sqrt 2)
        # the last is the conjugate companion of the A2 decomposition: with the
        # standard spin-1 matrices it is that combination, not A2 itself, which
        # carries the plus signs on Sv and Sy
        comb_a1 = (SU + 1j * SV + SX + 1j * SY) / (2 * SQRT2)
        comb_a2 = (-SU + 1j * SV + SX - 1j * SY) / (2 * SQRT2)
        comb_a2_dagger = (-SU - 1j * SV + SX + 1j * SY) / (2 * SQRT2)
        assert np.max(np.abs(comb_a1 - A1)) <= 1e-14
        assert np.max(np.abs(comb_a2 - A2)) <= 1e-14
        assert np.max(np.abs(comb_a2_dagger - A2.conj().T)) <= 1e-14


class TestEmbedding:
    def test_embed_sz_site1(self):
        state = np.zeros(9)
        state[basis_index("10")] = 1.0
        assert np.allclose(placed(SZ, 1, 2) @ state, 1.0 * state)

    def test_embed_sz_site2(self):
        state = np.zeros(9)
        state[basis_index("10")] = 1.0
        assert np.allclose(placed(SZ, 2, 2) @ state, 0.0 * state)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4)])
    def test_embed_sz2_trace(self, n, k):
        assert np.isclose(np.trace(placed(SZ2, k, n)).real, 2 * 3 ** (n - 1))

    def test_embed_out_of_range(self):
        with pytest.raises(ValueError, match="does not fit on a chain of 2 sites"):
            ChainOperator.from_terms([(3, SZ)], 2)
        with pytest.raises(ValueError, match="does not fit"):
            ChainOperator.from_terms([(0, SZ)], 2)

    def test_embed_locality(self):
        rng = np.random.default_rng(11)
        names = ["Sx", "Sy", "Sz", "Su", "Sv", "A1", "A2"]
        for _ in range(20):
            n = rng.integers(2, 5)
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            a = placed(SITE_MATRICES[rng.choice(names)], int(i), int(n))
            b = placed(SITE_MATRICES[rng.choice(names)], int(j), int(n))
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-13


class TestTwoSite:
    """A product of one-site operators on sites i < j is one term of width
    j - i + 1 at site i, identities padding the sites between."""

    @staticmethod
    def product_term(mat_a, mat_b, i, j, n):
        if i > j:
            (i, mat_a), (j, mat_b) = (j, mat_b), (i, mat_a)
        local = mat_a
        for _ in range(j - i - 1):
            local = np.kron(local, np.eye(3))
        return ChainOperator.from_terms([(i, np.kron(local, mat_b))], n)

    def test_zz_eigenvalues(self):
        op = self.product_term(SZ, SZ, 1, 2, 2).dense()
        state = np.zeros(9)
        state[basis_index("1m")] = 1.0
        assert np.allclose(op @ state, -1.0 * state)
        state = np.zeros(9)
        state[basis_index("01")] = 1.0
        assert np.allclose(op @ state, 0.0 * state)

    def test_xx_hermitian_traceless(self):
        op = self.product_term(SX, SX, 1, 2, 2)
        assert op.hermiticity_deviation() <= 1e-14
        assert abs(np.trace(op.dense())) <= 1e-14

    def test_equals_product_of_embeddings(self):
        for i, j in ((1, 3), (3, 1), (2, 3), (2, 1)):
            direct = self.product_term(SU, SV, i, j, 3).dense()
            product = placed(SU, i, 3) @ placed(SV, j, 3)
            assert np.max(np.abs(direct - product)) <= 1e-14

    def test_term_past_chain_end_rejected(self):
        # a product starting on the last site has no second site to act on
        with pytest.raises(ValueError, match="width 9 at site 3 does not fit"):
            ChainOperator.from_terms([(3, np.kron(SX, SX))], 3)


class TestBasisLabels:
    def test_known_indices(self):
        # tokens map 1 -> trit 0, 0 -> trit 1, m -> trit 2; site 1 most significant
        assert basis_index("10") == 0 * 3 + 1
        assert basis_index("001") == 1 * 9 + 1 * 3 + 0
        assert basis_index("0m") == 1 * 3 + 2

    def test_roundtrip(self):
        for idx in range(27):
            assert basis_index(basis_label(idx, 3)) == idx

    def test_invalid_token(self):
        with pytest.raises(ValueError, match="invalid site token"):
            basis_index("102")

    def test_length_check(self):
        with pytest.raises(ValueError, match="sites, expected"):
            basis_index("10", n=3)
