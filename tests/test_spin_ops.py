import numpy as np
import pytest

from spin1chain import spin_ops
from spin1chain.spin_ops import (
    basis_index,
    basis_label,
    embed,
    ladder_identity_check,
    site_operator,
    two_site,
)

SQRT2 = np.sqrt(2.0)


class TestSiteOperators:
    def test_sz_is_diagonal(self):
        assert np.allclose(site_operator("Sz").mat, np.diag([1, 0, -1]))

    def test_sx_matrix(self):
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQRT2
        assert np.allclose(site_operator("Sx").mat, expected)

    def test_su_matrix(self):
        # oracle: multiply out Sz Sx + Sx Sz by hand
        expected = np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]]) / SQRT2
        assert np.max(np.abs(site_operator("Su").mat - expected)) <= 1e-14

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown site operator"):
            site_operator("Sq")

    @pytest.mark.parametrize("name", ["Sx", "Sy", "Sz", "Su", "Sv", "Sz2"])
    def test_hermitian(self, name):
        mat = site_operator(name).mat
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14

    def test_commutation_relations(self):
        sx, sy, sz = (site_operator(k).mat for k in ("Sx", "Sy", "Sz"))
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) <= 1e-14

    def test_sz_squared(self):
        assert np.allclose(site_operator("Sz2").mat, np.diag([1, 0, 1]))

    def test_su_sv_are_anticommutators(self):
        sx, sy, sz = (site_operator(k).mat for k in ("Sx", "Sy", "Sz"))
        assert np.max(np.abs(site_operator("Su").mat - (sz @ sx + sx @ sz))) <= 1e-14
        assert np.max(np.abs(site_operator("Sv").mat - (sz @ sy + sy @ sz))) <= 1e-14

    def test_projectors(self):
        for name, idx in (("P1", 0), ("P0", 1), ("Pm", 2)):
            mat = site_operator(name).mat
            expected = np.zeros((3, 3))
            expected[idx, idx] = 1.0
            assert np.allclose(mat, expected)


class TestLadderOperators:
    def test_a1_is_up_transition(self):
        a1 = site_operator("A1").mat
        assert a1[0, 1] == 1.0
        assert np.count_nonzero(a1) == 1

    def test_a2_is_down_transition(self):
        a2 = site_operator("A2").mat
        assert a2[2, 1] == 1.0
        assert np.count_nonzero(a2) == 1

    def test_a1_dagger(self):
        a1 = site_operator("A1").mat
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0  # |0><1|
        assert np.allclose(a1.conj().T, expected)

    def test_identity_check_passes(self):
        report = ladder_identity_check()
        assert report["passed"]
        assert report["A1"] <= 1e-14
        assert report["A2"] <= 1e-14
        assert report["A2_dagger"] <= 1e-14


class TestEmbedding:
    def test_embed_sz_site1(self):
        op = embed(site_operator("Sz"), 1, 2)
        state = np.zeros(9)
        state[basis_index("10")] = 1.0
        assert np.allclose(op.dense() @ state, 1.0 * state)

    def test_embed_sz_site2(self):
        op = embed(site_operator("Sz"), 2, 2)
        state = np.zeros(9)
        state[basis_index("10")] = 1.0
        assert np.allclose(op.dense() @ state, 0.0 * state)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 4)])
    def test_embed_sz2_trace(self, n, k):
        op = embed(site_operator("Sz2"), k, n)
        assert np.isclose(np.trace(op.dense()).real, 2 * 3 ** (n - 1))

    def test_embed_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed(site_operator("Sz"), 3, 2)

    def test_embed_locality(self):
        rng = np.random.default_rng(11)
        names = ["Sx", "Sy", "Sz", "Su", "Sv", "A1", "A2"]
        for _ in range(20):
            n = rng.integers(2, 5)
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            a = embed(site_operator(rng.choice(names)), int(i), int(n)).dense()
            b = embed(site_operator(rng.choice(names)), int(j), int(n)).dense()
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-13


class TestTwoSite:
    def test_zz_eigenvalues(self):
        op = two_site(site_operator("Sz"), site_operator("Sz"), 1, 2, 2).dense()
        state = np.zeros(9)
        state[basis_index("1m")] = 1.0
        assert np.allclose(op @ state, -1.0 * state)
        state = np.zeros(9)
        state[basis_index("01")] = 1.0
        assert np.allclose(op @ state, 0.0 * state)

    def test_xx_hermitian_traceless(self):
        op = two_site(site_operator("Sx"), site_operator("Sx"), 1, 2, 2)
        assert op.hermiticity_deviation() <= 1e-14
        assert abs(np.trace(op.dense())) <= 1e-14

    def test_equals_product_of_embeddings(self):
        a, b = site_operator("Su"), site_operator("Sv")
        for i, j in ((1, 3), (3, 1), (2, 3), (2, 1)):
            direct = two_site(a, b, i, j, 3).dense()
            product = embed(a, i, 3).dense() @ embed(b, j, 3).dense()
            assert np.max(np.abs(direct - product)) <= 1e-14

    def test_same_site_rejected(self):
        with pytest.raises(ValueError, match="distinct sites"):
            two_site(site_operator("Sx"), site_operator("Sx"), 2, 2, 3)


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
