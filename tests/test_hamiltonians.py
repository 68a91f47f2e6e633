import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from spin1chain.hamiltonians import (
    KINDS,
    PRESET_VARIANTS,
    ChainSpec,
    SpecError,
    SubspaceLeakageError,
    SWAP2,
    band,
    band_eigensystem,
    candidate_two_site,
    chain_hamiltonian,
    engineered_sigma_block,
    heisenberg_two_site,
    mix_two_site,
    project_to_sigma,
    pst_preset,
    sigma_leakage,
    squared_sum_two_site,
    swap_check,
    transfer_couplings,
)
from spin1chain.linalg import (MAX_DENSE_DIM, ChainOperator, chain_mirror_index, eig_hermitian,
                               evolution_cache)
from spin1chain.spin_ops import A1, A2, SZ, SZ2, basis_index

from mirror_reference import loop_clustered_parities


def random_engineered(rng, n, low=-2.0, high=2.0):
    return ChainSpec(
        n=n,
        kind="engineered",
        a=tuple(rng.uniform(low, high, n - 1)),
        b=tuple(rng.uniform(low, high, n - 1)),
        B=tuple(rng.uniform(low, high, n)),
        C=tuple(rng.uniform(low, high, n)),
    )


def dense_reference(spec):
    """An engineered or O1..O5 chain Hamiltonian as a plain sum of np.kron terms."""
    n = spec.n

    def placed(op, site, width):
        return np.kron(np.kron(np.eye(3 ** (site - 1)), op), np.eye(3 ** (n - site - width + 1)))

    if spec.kind != "engineered":
        term9 = candidate_two_site(spec.kind)
        return sum(placed(term9, i, 2) for i in range(1, n))
    hop_up = np.kron(A1, A1.conj().T) + np.kron(A1.conj().T, A1)
    hop_dn = np.kron(A2, A2.conj().T) + np.kron(A2.conj().T, A2)
    bonds = [placed(spec.a[i - 1] * hop_up + spec.b[i - 1] * hop_dn, i, 2) for i in range(1, n)]
    sites = [placed(spec.B[i - 1] * SZ + spec.C[i - 1] * SZ2, i, 1) for i in range(1, n + 1)]
    return sum(bonds + sites)


TWO_SITE_TERMS = {
    "heisenberg": heisenberg_two_site,
    "heisenberg_squared_mix": mix_two_site,
    "heisenberg_squared_sum": squared_sum_two_site,
    **{name: (lambda nm=name: candidate_two_site(nm)) for name in ("O1", "O2", "O3", "O4", "O5")},
}


def kron_sum_reference(spec, sparse=False):
    """H as a sum of Kronecker products, term by term into a complex zero matrix.

    Bond terms first (sites 1..n-1), then the engineered site fields, each
    padded with 3x3 complex identities: the accumulation order of the build.
    ``sparse`` uses CSR Kronecker products for the longer chains.
    """
    n = spec.n
    kron = (lambda a, b: sp.kron(a, b, format="csr")) if sparse else np.kron

    def placed(op, site, width):
        eye = np.eye(3, dtype=complex)
        factors = [eye] * (site - 1) + [op] + [eye] * (n - site - width + 1)
        out = factors[0]
        for f in factors[1:]:
            out = kron(out, f)
        return out

    if spec.kind == "engineered":
        hop_up = np.kron(A1, A1.conj().T)
        hop_up = hop_up + hop_up.conj().T
        hop_dn = np.kron(A2, A2.conj().T)
        hop_dn = hop_dn + hop_dn.conj().T
        terms = [placed(spec.a[i - 1] * hop_up + spec.b[i - 1] * hop_dn, i, 2) for i in range(1, n)]
        terms += [placed(spec.B[i - 1] * SZ + spec.C[i - 1] * SZ2, i, 1) for i in range(1, n + 1)]
    else:
        terms = [placed(TWO_SITE_TERMS[spec.kind](), i, 2) for i in range(1, n)]
    total = sp.csr_matrix((3 ** n, 3 ** n), dtype=complex) if sparse else np.zeros(
        (3 ** n, 3 ** n), dtype=complex)
    for term in terms:
        total = total + term
    return total


def every_kind(n, seed):
    rng = np.random.default_rng(seed)
    return [random_engineered(rng, n) if kind == "engineered" else ChainSpec(n=n, kind=kind)
            for kind in KINDS]


def mirror_symmetrized(spec):
    """An engineered spec with each coupling and field averaged with its reversal."""
    return ChainSpec(n=spec.n, kind=spec.kind, **{
        name: tuple((np.array(getattr(spec, name)) + getattr(spec, name)[::-1]) / 2)
        for name in "abBC"})


# n = 9 is past the dense cap: the build from entries works, and every path
# that would densify it must refuse with the dimension and the cap
DENSE_CAP_CHILD = """
import numpy as np
from spin1chain.dynamics import evolution_cache, mirror_check
from spin1chain.hamiltonians import ChainSpec, chain_hamiltonian
from spin1chain.linalg import ChainOperator
from spin1chain.spin_ops import SZ

rng = np.random.default_rng(16)
spec = ChainSpec(n=9, kind="engineered", a=tuple(rng.uniform(-2, 2, 8)),
                 b=tuple(rng.uniform(-2, 2, 8)), B=tuple(rng.uniform(-2, 2, 9)),
                 C=tuple(rng.uniform(-2, 2, 9)))
ham = chain_hamiltonian(spec)
# 8 bonds of 4 hopping entries on 3^7 states each, and at most 3^9 diagonal entries
assert ham.dim == 3 ** 9 and ham.flat.size <= 8 * 4 * 3 ** 7 + 3 ** 9, (ham.dim, ham.flat.size)
calls = {"dense": ham.dense, "evolution_cache": lambda: evolution_cache(ham),
         "mirror_check": lambda: mirror_check(ham, np.pi),
         "one_site_term": lambda: ChainOperator.from_terms([(1, SZ)], 9).dense()}
for name, call in calls.items():
    try:
        call()
    except ValueError as exc:
        msg = str(exc)
        assert "19683" in msg and "6561" in msg, (name, msg)
        assert "sparse" not in msg, (name, msg)
    else:
        raise AssertionError(f"{name} built a dense 3^9 matrix")
"""


class TestTwoSiteBuilders:
    def test_heisenberg_spectrum(self):
        evals = np.linalg.eigvalsh(heisenberg_two_site())
        assert np.allclose(evals, [-2] + [-1] * 3 + [1] * 5, atol=1e-12)

    def test_h12_spectrum_and_trace(self):
        mat = chain_hamiltonian(ChainSpec(n=2, kind="heisenberg_squared_mix")).dense()
        evals = np.linalg.eigvalsh(mat)
        assert np.allclose(evals, [0] * 3 + [1] * 6, atol=1e-12)
        assert np.isclose(np.trace(mat).real, 6.0)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14

    def test_squared_sum_is_twice_mix(self):
        assert np.allclose(squared_sum_two_site(), 2 * mix_two_site())

    def test_candidate_o2_diagonal(self):
        expected = [1, 0, -1, 0, 0, 0, -1, 0, 1]
        assert np.allclose(np.diag(candidate_two_site("O2")), expected)

    def test_candidate_o4_spectrum(self):
        evals = np.linalg.eigvalsh(candidate_two_site("O4"))
        assert np.allclose(sorted(evals), [0] * 5 + [1] * 4, atol=1e-12)

    def test_candidate_o1_contains_sqrt2(self):
        evals = np.linalg.eigvalsh(candidate_two_site("O1"))
        assert np.min(np.abs(evals - np.sqrt(2))) <= 1e-10
        assert np.min(np.abs(evals + np.sqrt(2))) <= 1e-10

    def test_unknown_candidate(self):
        with pytest.raises(ValueError, match="O1..O5"):
            candidate_two_site("O6")


SWAP_CASES = {"mix": mix_two_site, "squared_sum": squared_sum_two_site,
              "heisenberg": heisenberg_two_site,
              **{name: (lambda nm=name: candidate_two_site(nm))
                 for name in ("O1", "O2", "O3", "O4", "O5")}}
SWAP_TIMES = (np.pi, np.pi / 2, 2 * np.pi / 3)
SWAP_PASSES = {("mix", np.pi), ("squared_sum", np.pi / 2)}


class TestSwapCheck:
    @staticmethod
    def _unitary(ham, t):
        es = eig_hermitian(ham)
        return (es.eigenvectors * np.exp(1j * es.eigenvalues * t)) @ es.eigenvectors.conj().T

    def test_mix_at_pi_is_swap_with_phase_minus_one(self):
        result = swap_check(self._unitary(mix_two_site(), np.pi))
        assert result.is_swap_up_to_phase
        assert abs(result.phase - (-1.0)) <= 1e-10
        assert result.residual <= 1e-12

    def test_identity_is_not_swap(self):
        result = swap_check(np.eye(9, dtype=complex))
        assert not result.is_swap_up_to_phase

    def test_phased_swap_recovered(self):
        alpha = 0.7
        result = swap_check(np.exp(1j * alpha) * SWAP2)
        assert result.is_swap_up_to_phase
        assert abs(result.phase - np.exp(1j * alpha)) <= 1e-10

    def test_heisenberg_at_pi_fails(self):
        result = swap_check(self._unitary(heisenberg_two_site(), np.pi))
        assert not result.is_swap_up_to_phase
        # even quintuplet and even singlet pick up opposite signs
        assert result.residual > 1.0

    def test_mix_at_half_pi_fails(self):
        result = swap_check(self._unitary(mix_two_site(), np.pi / 2))
        assert not result.is_swap_up_to_phase

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            swap_check(np.ones((9, 9)))

    def test_nan_matrix_rejected(self):
        # a NaN deviation fails every comparison, so the gate must not pass it
        unitary = np.eye(9, dtype=complex)
        unitary[4, 4] = np.nan
        for bad in (unitary, np.full((9, 9), np.nan)):
            with pytest.raises(ValueError, match="not unitary"):
                swap_check(bad)

    @pytest.mark.parametrize("name", sorted(SWAP_CASES))
    def test_residual_is_the_minimum_over_all_phases(self, name):
        # the exact minimax lies at or below a scan of 2^16 phases, for both signs
        phis = 2 * np.pi * np.arange(1 << 16) / (1 << 16)
        for t in SWAP_TIMES:
            for sign in (1, -1):
                u = evolution_cache(SWAP_CASES[name]()).unitary(sign * t)
                scan = min(
                    float(np.min(np.max(np.abs(u - np.exp(1j * chunk)[:, None, None] * SWAP2),
                                        axis=(1, 2))))
                    for chunk in np.split(phis, 16))
                result = swap_check(u)
                assert result.residual <= scan + 1e-12, (name, t, sign)
                phase_dev = float(np.max(np.abs(u - result.phase * SWAP2)))
                assert abs(phase_dev - result.residual) <= 1e-15

    @pytest.mark.parametrize("name", sorted(SWAP_CASES))
    def test_verdict_and_residual_agree_for_both_signs(self, name):
        for t in SWAP_TIMES:
            plus, minus = (swap_check(evolution_cache(SWAP_CASES[name]()).unitary(sign * t))
                           for sign in (1, -1))
            assert plus.is_swap_up_to_phase == minus.is_swap_up_to_phase
            assert plus.is_swap_up_to_phase == ((name, t) in SWAP_PASSES)
            assert abs(plus.residual - minus.residual) <= 1e-15

    # failing unitaries where distinct phases reach the minimax residual to
    # the last bits (a conjugate pair, or 1 against 0.5 -+ 0.866i)
    @pytest.mark.parametrize("name, t, sign", [
        ("O1", np.pi, 1), ("O5", np.pi, 1), ("O5", np.pi, -1), ("O5", 2 * np.pi / 3, 1),
        ("O5", 2 * np.pi / 3, -1), ("squared_sum", np.pi, 1), ("squared_sum", np.pi, -1)])
    def test_tied_phase_does_not_follow_last_bits(self, name, t, sign):
        u = evolution_cache(SWAP_CASES[name]()).unitary(sign * t)
        rng = np.random.default_rng(13)
        kick = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        kick = kick + kick.conj().T
        evals, evecs = np.linalg.eigh(kick / np.max(np.abs(np.linalg.eigvalsh(kick))))
        result = swap_check(u)
        for eps in (1e-15, -1e-15, 2e-15):
            moved = swap_check(u @ ((evecs * np.exp(1j * eps * evals)) @ evecs.conj().T))
            assert abs(moved.phase - result.phase) <= 1e-12, eps
            assert abs(moved.residual - result.residual) <= 1e-13, eps
        # of a conjugate pair, the positive angle
        if name != "squared_sum":
            assert result.phase.imag > 0.5
        else:
            assert abs(result.phase - 1) <= 1e-12

    @pytest.mark.parametrize("name, want", [("heisenberg", np.sqrt(5 / 3)),
                                            ("O2", np.sqrt(2)), ("O3", np.sqrt(2)),
                                            ("O4", np.sqrt(2))])
    def test_failing_residuals_at_pi(self, name, want):
        result = swap_check(evolution_cache(SWAP_CASES[name]()).unitary(np.pi))
        assert abs(result.residual - want) <= 1e-12


class TestChainSpec:
    def test_requires_min_length(self):
        with pytest.raises(SpecError, match="n"):
            ChainSpec(n=1, kind="heisenberg")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            ChainSpec(n=3, kind="xy")

    def test_engineered_length_checks(self):
        with pytest.raises(SpecError, match="a"):
            ChainSpec(n=3, kind="engineered", a=(1.0,), b=(1.0, 1.0), B=(0,) * 3, C=(0,) * 3)

    def test_time_sign(self):
        with pytest.raises(SpecError, match="time_sign"):
            ChainSpec(n=2, kind="heisenberg", time_sign=2)

    def test_json_roundtrip(self):
        spec = pst_preset(4, "standard")
        again = ChainSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec

    def test_unknown_json_field_rejected(self):
        data = {"n": 2, "kind": "heisenberg", "coupling": 3}
        with pytest.raises(SpecError, match="unknown fields"):
            ChainSpec.from_json_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True])
    def test_non_finite_or_boolean_coupling_rejected(self, value):
        couplings = dict(a=(value, 1.0), b=(1.0, 1.0), B=(0,) * 3, C=(1,) * 3)
        with pytest.raises(SpecError, match=r"^a: entry 0 .*finite numbers"):
            ChainSpec(n=3, kind="engineered", **couplings)
        data = json.dumps({"n": 3, "kind": "engineered",
                           **{k: list(v) for k, v in couplings.items()}})
        with pytest.raises(SpecError, match=r"^a: entry 0 .*finite numbers"):
            ChainSpec.from_json_dict(json.loads(data))

    def test_non_numeric_coupling_rejected(self):
        data = {"n": 2, "kind": "engineered", "a": ["x"], "b": [1], "B": [0, 0], "C": [1, 1]}
        with pytest.raises(SpecError, match="array of numbers"):
            ChainSpec.from_json_dict(data)


class TestChainHamiltonian:
    def test_mix_chain_matches_embedded_sum(self):
        spec = ChainSpec(n=3, kind="heisenberg_squared_mix")
        ham = chain_hamiltonian(spec)
        assert ham.dim == 27
        term = mix_two_site()
        expected = np.kron(term, np.eye(3)) + np.kron(np.eye(3), term)
        assert np.max(np.abs(ham.dense() - expected)) <= 1e-14
        assert ham.hermiticity_deviation() <= 1e-14

    def test_engineered_two_site_example(self):
        spec = ChainSpec(n=2, kind="engineered", a=(0.5,), b=(0.5,), B=(0, 0), C=(1, 1))
        ham = chain_hamiltonian(spec).dense()
        vac = np.zeros(9)
        vac[basis_index("00")] = 1.0
        assert np.linalg.norm(ham @ vac) <= 1e-14
        assert np.isclose(ham[basis_index("10"), basis_index("01")], 0.5)

    def test_vacuum_always_stationary(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            spec = random_engineered(rng, n)
            ham = chain_hamiltonian(spec)
            vac = np.zeros(ham.dim)
            vac[basis_index("0" * n)] = 1.0
            assert np.linalg.norm(ham.dense() @ vac) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_build_has_the_kron_sum_pattern(self, n):
        for spec in every_kind(n, seed=40 + n) + [pst_preset(n, "standard")]:
            ham, reference = chain_hamiltonian(spec), kron_sum_reference(spec)
            assert np.array_equal(ham.flat, np.flatnonzero(reference))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_build_matches_the_kron_sum(self, n):
        # entries sum their terms in a mirror-invariant order, not in term
        # order, so they may differ from the term-order sum in the last bit
        for spec in every_kind(n, seed=40 + n) + [pst_preset(n, "standard")]:
            ham, reference = chain_hamiltonian(spec), kron_sum_reference(spec)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(ham.dense() - reference)) <= 2.3e-16 * scale

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mirror_symmetric_chains_equal_their_mirror_image(self, n):
        index = chain_mirror_index(n)
        presets = [pst_preset(n, variant) for variant in PRESET_VARIANTS]
        kinds = [mirror_symmetrized(spec) if spec.kind == "engineered" else spec
                 for spec in every_kind(n, seed=40 + n)]
        for spec in kinds + presets:
            mat = chain_hamiltonian(spec).dense()
            assert np.array_equal(mat[np.ix_(index, index)], mat)

    def test_sparse_build_matches_kron_sum(self):
        for spec in every_kind(7, seed=47):
            ham = chain_hamiltonian(spec)
            built = sp.csr_matrix((ham.values, np.divmod(ham.flat, ham.dim)),
                                  shape=(ham.dim, ham.dim))
            assert abs(built - kron_sum_reference(spec, sparse=True)).max() <= 1e-14

    def test_sparse_matches_dense(self):
        n = 7
        for spec in (random_engineered(np.random.default_rng(14), n), ChainSpec(n=n, kind="O5")):
            ham = chain_hamiltonian(spec)
            assert np.max(np.abs(ham.dense() - dense_reference(spec))) <= 1e-14

    def test_dense_cap_enforced(self, run_limited):
        proc = run_limited(DENSE_CAP_CHILD)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared_mix",
                                      "heisenberg_squared_sum", "O1", "O2", "O3",
                                      "O4", "O5"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_every_kind_is_hermitian(self, kind, n):
        ham = chain_hamiltonian(ChainSpec(n=n, kind=kind))
        assert ham.dim == 3 ** n
        assert ham.hermiticity_deviation() <= 1e-14

    def test_candidate_chain_sum_structure(self):
        # O-couplings extend to uniform nearest-neighbor chain sums
        ham = chain_hamiltonian(ChainSpec(n=3, kind="O2")).dense()
        term = candidate_two_site("O2")
        expected = np.kron(term, np.eye(3)) + np.kron(np.eye(3), term)
        assert np.max(np.abs(ham - expected)) <= 1e-14


class TestSigmaSubspace:
    def test_sigma_states_n2(self):
        # up excitations, the vacuum, then down excitations, each run by site
        block = project_to_sigma(chain_hamiltonian(
            ChainSpec(n=2, kind="engineered", a=(0.5,), b=(0.25,), B=(0.0, 0.0), C=(1.0, 2.0))))
        labels = ["10", "01", "00", "m0", "0m"]
        assert block.shape == (5, 5)
        assert block[labels.index("10"), labels.index("01")] == 0.5
        assert block[labels.index("m0"), labels.index("0m")] == 0.25
        assert np.diag(block).tolist() == [1.0, 2.0, 0.0, 1.0, 2.0]

    def test_projector_is_isometry(self):
        # P P^dagger = 1 on the 2n + 1 sigma states: the identity restricts to
        # the identity and leaves nothing outside sigma
        for n in (2, 3, 4):
            identity = ChainOperator.from_terms([(1, np.eye(3))], n)
            assert np.array_equal(project_to_sigma(identity), np.eye(2 * n + 1))
            assert sigma_leakage(identity) == 0.0

    def test_projection_reproduces_couplings(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            spec = random_engineered(rng, n)
            block = project_to_sigma(chain_hamiltonian(spec))
            assert np.max(np.abs(np.diag(block[:n, :n]) - (np.array(spec.C) + spec.B))) <= 1e-14
            assert np.max(np.abs(np.diag(block[:n, :n], 1) - np.array(spec.a))) <= 1e-14
            assert np.max(np.abs(np.diag(block[n + 1:, n + 1:]) - (np.array(spec.C) - np.array(spec.B)))) <= 1e-14
            assert np.max(np.abs(np.diag(block[n + 1:, n + 1:], 1) - np.array(spec.b))) <= 1e-14
            assert np.max(np.abs(block[n, :])) == 0.0
            assert np.max(np.abs(block[:, n])) == 0.0

    def test_down_block_uniform_fields(self):
        spec = ChainSpec(n=2, kind="engineered", a=(0.3,), b=(0.4,), B=(0.2, 0.2), C=(0.9, 0.9))
        diag, off = band(spec, "down")
        assert np.allclose(diag, [0.7, 0.7])
        assert np.allclose(off, [0.4])

    def test_band_refuses_unknown_channels_and_other_kinds(self):
        spec = pst_preset(3)
        with pytest.raises(ValueError, match="unknown channel 'vacuum'"):
            band(spec, "vacuum")
        with pytest.raises(ValueError, match="requires kind='engineered'"):
            band(ChainSpec(n=3, kind="heisenberg"), "up")

    def test_band_solve_refuses_bands_past_the_dense_cap(self):
        spec = pst_preset(MAX_DENSE_DIM + 1)
        with pytest.raises(ValueError, match=f"band of {MAX_DENSE_DIM + 1} sites exceeds "
                                             f"the dense cap of {MAX_DENSE_DIM} sites"):
            band_eigensystem(spec, "up")

    def test_sigma_block_holds_the_bands(self):
        # the sigma block is the up band, the vacuum's zero and the down band
        rng = np.random.default_rng(17)
        for n in (2, 3, 7):
            spec = random_engineered(rng, n)
            block = engineered_sigma_block(spec)
            for channel, part in (("up", block[:n, :n]), ("down", block[n + 1:, n + 1:])):
                diag, off = band(spec, channel)
                assert np.diag(part).tobytes() == diag.tobytes()
                assert np.diag(part, 1).tobytes() == np.diag(part, -1).tobytes() == off.tobytes()
                assert not np.any(np.triu(part, 2))

    def test_direct_block_matches_projection(self):
        rng = np.random.default_rng(18)
        for n in (2, 3, 5):
            spec = random_engineered(rng, n)
            via_projection = project_to_sigma(chain_hamiltonian(spec))
            direct = engineered_sigma_block(spec)
            assert np.max(np.abs(via_projection - direct)) <= 1e-14

    def test_leakage_for_non_engineered_chain(self):
        spec = ChainSpec(n=2, kind="heisenberg")
        ham = chain_hamiltonian(spec)
        assert sigma_leakage(ham) > 0.1
        with pytest.raises(SubspaceLeakageError):
            project_to_sigma(ham)

    def test_engineered_leakage_is_zero(self):
        rng = np.random.default_rng(19)
        spec = random_engineered(rng, 5)
        assert sigma_leakage(chain_hamiltonian(spec)) <= 1e-12

    def test_eight_sites_read_only_the_entries(self):
        spec = random_engineered(np.random.default_rng(20), 8)
        tracemalloc.start()
        try:
            ham = chain_hamiltonian(spec)
            leakage, block = sigma_leakage(ham), project_to_sigma(ham)
            leaky = sigma_leakage(chain_hamiltonian(ChainSpec(n=8, kind="heisenberg")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leakage <= 1e-12 and leaky > 0.1
        assert np.max(np.abs(block - engineered_sigma_block(spec))) <= 1e-14
        # a dense complex 3^8 matrix alone is 689 MB
        assert peak < 64 << 20, peak

    def test_example_up_block(self):
        spec = ChainSpec(n=2, kind="engineered", a=(0.5,), b=(0.5,), B=(0, 0), C=(1, 1))
        diag, off = band(spec, "up")
        assert np.allclose(diag, [1.0, 1.0]) and np.allclose(off, [0.5])
        assert np.allclose(band_eigensystem(spec, "up")[0], [0.5, 1.5])


def reversal_parities(spec):
    """Eigenvalues of the up band and their parities under index reversal."""
    energies, vectors = band_eigensystem(spec, "up")
    vals, pars, _ = loop_clustered_parities(energies, vectors, np.arange(spec.n)[::-1])
    return vals, pars


def searched_phase_exact_field(n):
    """The phase_exact field found by search: the first c = 0, 1/2, 1, ... up to 2n
    that makes every up-block eigenvalue an integer, even exactly on the
    reversal-even eigenvectors."""
    couplings = tuple(transfer_couplings(n))
    c = 0.0
    while c <= 2.0 * n + 1e-12:
        evals, pars = reversal_parities(ChainSpec(
            n=n, kind="engineered", a=couplings, b=couplings, B=(0.0,) * n, C=(c,) * n))
        rounded = np.round(evals)
        if np.all(np.abs(evals - rounded) <= 1e-9) and np.all(
                pars == np.where(rounded % 2 == 0, 1, -1)):
            return c
        c += 0.5
    raise AssertionError(f"no integer parity-matched field for n={n}")


class TestPresets:
    def test_transfer_couplings_n4(self):
        assert np.allclose(transfer_couplings(4), [np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])

    def test_standard_preset_n4(self):
        spec = pst_preset(4, "standard")
        assert np.allclose(spec.a, [np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])
        assert spec.a == spec.b
        assert np.allclose(spec.C, [2.0] * 4)
        assert np.allclose(spec.B, [0.0] * 4)

    def test_standard_preset_n2_block(self):
        spec = pst_preset(2, "standard")
        assert np.allclose(band_eigensystem(spec, "up")[0], [0.5, 1.5])

    def test_phase_exact_n2(self):
        spec = pst_preset(2, "phase_exact")
        assert np.isclose(spec.C[0], 1.5)
        evals, parities = reversal_parities(spec)
        assert np.allclose(evals, [1.0, 2.0])
        assert np.allclose(parities, [-1.0, 1.0])  # odd eigenvalue odd vector, even even

    def test_phase_exact_fields_follow_length_pattern(self):
        # first parity-matched field repeats with period 4 in the chain length
        expected = {2: 1.5, 3: 1.0, 4: 0.5, 5: 0.0, 6: 1.5, 7: 1.0, 8: 0.5}
        for n, want in expected.items():
            assert np.isclose(pst_preset(n, "phase_exact").C[0], want)

    def test_phase_exact_field_equals_search(self):
        # the closed form matches the search bit for bit, the sign of zero included
        for n in range(2, 41):
            field = searched_phase_exact_field(n)
            assert json.dumps(pst_preset(n, "phase_exact").C) == json.dumps((field,) * n)

    def test_unit_gap_spectrum(self):
        for n in range(2, 9):
            evals = band_eigensystem(pst_preset(n, "standard"), "up")[0]
            assert np.max(np.abs(np.diff(evals) - 1.0)) <= 1e-10

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            pst_preset(4, "exotic")

    def test_eigenvalue_parity_match_for_phase_exact(self):
        for n in (3, 6):
            evals, parities = reversal_parities(pst_preset(n, "phase_exact"))
            for ev, par in zip(evals, parities):
                assert abs(ev - round(ev)) <= 1e-9
                assert par == (1.0 if round(ev) % 2 == 0 else -1.0)
