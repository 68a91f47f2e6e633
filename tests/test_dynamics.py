import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from spin1chain import linalg
from spin1chain.dynamics import (
    QUTRIT_TEST_STATES,
    _band_series,
    _distinct_phases,
    amplitude_scan,
    evolution_cache,
    mirror_check,
    qutrit_fidelity_series,
    qutrit_transfer_fidelity,
)
from spin1chain.hamiltonians import (
    ChainSpec,
    candidate_two_site,
    chain_hamiltonian,
    engineered_sigma_block,
    pst_preset,
    sigma_projector,
)
from spin1chain.linalg import ChainOperator
from spin1chain.parity import (
    chain_mirror_index,
    clustered_parities,
    mirror_commutator,
    sigma_mirror_index,
)
from spin1chain.spin_ops import basis_index

PAPER_KINDS = ("heisenberg", "heisenberg_squared_mix", "heisenberg_squared_sum",
               "O1", "O2", "O3", "O4", "O5")


def basis_state(label):
    """The product state of ``label`` as a vector over the full space."""
    state = np.zeros(3 ** len(label), dtype=complex)
    state[basis_index(label)] = 1.0
    return state


def evolved(op, state, t, sign=1):
    """exp(i*sign*H*t) applied to ``state``, from the block-built unitary."""
    return evolution_cache(op).unitary(t, sign) @ state


def amplitude(op, source, target, t, sign=1):
    """<target| exp(i*sign*H*t) |source> from a one-point amplitude scan."""
    scan = amplitude_scan(op, source, target, [t], sign)
    return complex(scan.abs_values[0] * np.exp(1j * scan.arg_values[0]))


def three_site_formula(t):
    """End-to-end amplitude of the three-site combined-interaction chain."""
    return (np.exp(1j * t) - 3 * np.exp(3j * t) + 2 * np.exp(4j * t)) / 6.0


@pytest.fixture(scope="module")
def chain3():
    return chain_hamiltonian(ChainSpec(n=3, kind="heisenberg_squared_sum"))


@pytest.fixture(scope="module")
def chain3_mix():
    return chain_hamiltonian(ChainSpec(n=3, kind="heisenberg_squared_mix"))


class TestEvolve:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_cache_unitary_is_exponential(self, chain3, sign):
        t = 0.83
        expected = expm(1j * sign * t * chain3.dense())
        assert np.max(np.abs(evolution_cache(chain3).unitary(t, sign) - expected)) <= 1e-12

    def test_time_zero_identity(self, chain3):
        psi = basis_state("001")
        out = evolved(chain3, psi, 0.0)
        assert np.max(np.abs(out - psi)) <= 1e-13

    def test_unitarity(self, chain3):
        rng = np.random.default_rng(21)
        psi = rng.normal(size=27) + 1j * rng.normal(size=27)
        psi /= np.linalg.norm(psi)
        out = evolved(chain3, psi, 2.37)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_vacuum_stationary_under_engineered(self):
        spec = pst_preset(3, "standard")
        ham = chain_hamiltonian(spec)
        vac = basis_state("000")
        out = evolved(ham, vac, 1.9)
        # eigenvalue 0 exactly: not even a global phase
        assert np.max(np.abs(out - vac)) <= 1e-12

    def test_group_law(self, chain3):
        rng = np.random.default_rng(22)
        for _ in range(5):
            psi = rng.normal(size=27) + 1j * rng.normal(size=27)
            psi /= np.linalg.norm(psi)
            t1, t2 = rng.uniform(0, 5, 2)
            once = evolved(chain3, evolved(chain3, psi, t1), t2)
            both = evolved(chain3, psi, t1 + t2)
            assert np.max(np.abs(once - both)) <= 1e-10

    def test_time_sign_conjugation(self, chain3):
        psi = basis_state("001")
        fwd = evolved(chain3, psi, 1.3, sign=1)
        bwd = evolved(chain3, psi, 1.3, sign=-1)
        # real Hamiltonian, real initial state: reversed evolution is the conjugate
        assert np.max(np.abs(np.conj(fwd) - bwd)) <= 1e-12

    def test_cache_reuse(self, chain3):
        c1 = evolution_cache(chain3)
        c2 = evolution_cache(chain3)
        assert c1 is c2
        assert c1.fingerprint == c2.fingerprint


class TestTransferAmplitude:
    def test_formula_regression(self, chain3):
        cache = evolution_cache(chain3)
        for t in np.linspace(0, 4 * np.pi, 257):
            amp = amplitude(cache, "001", "100", t)
            assert abs(amp - three_site_formula(t)) <= 1e-10

    def test_value_at_two_thirds_pi(self, chain3):
        amp = amplitude(chain3, "001", "100", 2 * np.pi / 3)
        assert abs(amp - (-0.75 + 0.25j * np.sqrt(3))) <= 1e-12
        assert abs(abs(amp) - np.sqrt(3) / 2) <= 1e-12
        assert abs(np.angle(amp) - 5 * np.pi / 6) <= 1e-12

    def test_half_normalized_chain_needs_doubled_time(self, chain3_mix):
        # the 1/2-normalized interaction halves every frequency: the same
        # amplitude appears at twice the time
        cache = evolution_cache(chain3_mix)
        for t in (0.7, 2 * np.pi / 3, 3.1):
            amp = amplitude(cache, "001", "100", 2 * t)
            assert abs(amp - three_site_formula(t)) <= 1e-10

    def test_t_zero_orthogonal(self, chain3):
        assert abs(amplitude(chain3, "001", "100", 0.0)) <= 1e-14

    @pytest.mark.parametrize("source, target", [("001", "1000"), ("0001", "10000")])
    def test_label_length_must_match_sites(self, source, target):
        ham = chain_hamiltonian(ChainSpec(n=4, kind="heisenberg"))
        wrong = source if len(source) != 4 else target
        message = (f"state label '{wrong}' has {len(wrong)} sites, so it addresses "
                   rf"3\^{len(wrong)} product states, but the operator has dimension 81")
        with pytest.raises(ValueError, match=message):
            amplitude_scan(ham, source, target, [0.0, 1.0])

    def test_label_needs_a_product_space(self):
        block = engineered_sigma_block(pst_preset(3, "standard"))
        with pytest.raises(ValueError, match="dimension 7"):
            amplitude_scan(block, "001", "100", [1.0])

    def test_probability_conserved_in_sigma(self):
        spec = pst_preset(4, "standard")
        ham = chain_hamiltonian(spec)
        cache = evolution_cache(ham)
        proj = sigma_projector(4)
        psi = basis_state("1000")
        for t in (0.3, 1.7, np.pi):
            out = cache.unitary(t) @ psi
            inside = np.linalg.norm(proj @ out) ** 2
            assert abs(inside - 1.0) <= 1e-12


class TestAmplitudeScan:
    def test_two_site_swap_peak(self):
        ham = chain_hamiltonian(ChainSpec(n=2, kind="heisenberg_squared_mix"))
        times = np.arange(0.0, 4 * np.pi, 1e-3)
        scan = amplitude_scan(ham, "01", "10", times)
        assert scan.max_abs >= 1 - 1e-6
        # first-peak localization is sqrt(2*tol/curvature) ~ a few grid steps
        assert abs(scan.first_peak_time - np.pi) <= 5e-3

    def test_three_site_peak_at_two_thirds_pi(self, chain3):
        times = np.arange(0.0, 4 * np.pi, 1e-3)
        scan = amplitude_scan(chain3, "001", "100", times)
        assert abs(scan.max_abs - np.sqrt(3) / 2) <= 1e-6
        assert abs(scan.first_peak_time - 2 * np.pi / 3) <= 2e-3

    def test_four_site_long_window_regression(self):
        # near-recurrences push the four-site maximum above 0.999 within
        # t <= 40*pi even though no time achieves perfect transfer
        ham = chain_hamiltonian(ChainSpec(n=4, kind="heisenberg_squared_sum"))
        times = np.arange(0.0, 40 * np.pi, 1e-3)
        scan = amplitude_scan(ham, "0001", "1000", times)
        assert 0.9990 < scan.max_abs < 1 - 5e-5
        assert abs(scan.max_abs - 0.9998165) <= 1e-4
        assert abs(scan.argmax_time - 91.093) <= 1e-2

    @pytest.mark.parametrize("kind", ["O2", "O3", "engineered"])
    @pytest.mark.parametrize("source, target", [("1m00", "00m1"), ("10m0", "0m01")])
    def test_mirror_paired_blocks_read_exact_zero(self, kind, source, target):
        # the target is the source's mirror image in another block, which M
        # maps onto the source's: every weight is an exact zero
        spec = symmetric_engineered(4, seed=4) if kind == "engineered" else ChainSpec(n=4, kind=kind)
        ham = chain_hamiltonian(spec)
        src, tgt = basis_index(source), basis_index(target)
        assert chain_mirror_index(4)[src] == tgt
        assert not any(src in block and tgt in block
                       for solve in evolution_cache(ham).eigensystem.solves
                       for block in np.hstack([held for held, _ in solve.held()]))
        scan = amplitude_scan(ham, source, target, np.linspace(0.0, 20.0, 401))
        assert scan.max_abs == 0.0
        assert scan.argmax_time == 0.0

    def test_grid_validation(self, chain3):
        with pytest.raises(ValueError, match="strictly increasing"):
            amplitude_scan(chain3, "001", "100", np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="non-empty"):
            amplitude_scan(chain3, "001", "100", np.array([]))


class TestQutritFidelity:
    def test_vacuum_input_any_time(self):
        spec = pst_preset(3, "standard")
        for t in (0.0, 1.1, np.pi):
            assert qutrit_transfer_fidelity(spec, (1, 0, 0), t) >= 1 - 1e-12

    def test_standard_preset_needs_phase_correction(self):
        spec = pst_preset(2, "standard")
        state = (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        raw = qutrit_transfer_fidelity(spec, state, np.pi, phase_correct=False)
        corrected = qutrit_transfer_fidelity(spec, state, np.pi, phase_correct=True)
        assert abs(raw - 0.5) <= 1e-10  # vacuum and band pick up relative phase -i
        assert corrected >= 1 - 1e-10

    def test_band_phases_standard(self):
        # both bands mirror with the same phase +-i at t = pi
        for n in (2, 3, 5):
            (f_up,), (f_down,) = _band_series(pst_preset(n, "standard"), [np.pi])
            assert abs(abs(f_up) - 1) <= 1e-10
            assert abs(f_up - f_down) <= 1e-10
            assert abs(f_up.real) <= 1e-10

    def test_phase_exact_preset_raw(self):
        for n in (2, 4, 7):
            spec = pst_preset(n, "phase_exact")
            for state in QUTRIT_TEST_STATES[:5]:
                assert qutrit_transfer_fidelity(spec, state, np.pi) >= 1 - 1e-8

    @pytest.mark.parametrize("variant", ["standard", "phase_exact"])
    @pytest.mark.parametrize("n", [2, 5, 11])
    @pytest.mark.parametrize("phase_correct", [False, True])
    def test_series_matches_per_point_reference(self, variant, n, phase_correct):
        def reference(spec, qutrit, t):
            block = engineered_sigma_block(spec)
            f_up = amplitude(block, 0, n - 1, t, sign=spec.time_sign)
            f_down = amplitude(block, n + 1, 2 * n, t, sign=spec.time_sign)
            if phase_correct:
                f_up, f_down = abs(f_up), abs(f_down)
            wa, wb, wg = (abs(complex(x)) ** 2 for x in qutrit)
            return abs(wa + wb * f_up + wg * f_down) ** 2

        spec = pst_preset(n, variant)
        grid = np.arange(0.0, 2 * np.pi, 1e-2)
        for qutrit in (QUTRIT_TEST_STATES[3], QUTRIT_TEST_STATES[8]):
            series = qutrit_fidelity_series(spec, qutrit, grid, phase_correct=phase_correct)
            expected = np.array([reference(spec, qutrit, t) for t in grid])
            assert series.shape == grid.shape
            assert np.max(np.abs(series - expected)) <= 1e-14
            for k in (0, 314, grid.size - 1):
                point = qutrit_transfer_fidelity(spec, qutrit, grid[k], phase_correct)
                assert abs(point - expected[k]) <= 1e-14

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            qutrit_transfer_fidelity(pst_preset(2, "standard"), (1.0, 1.0, 0.0), np.pi)

    def test_requires_engineered(self):
        spec = ChainSpec(n=3, kind="heisenberg")
        with pytest.raises(ValueError, match="engineered"):
            qutrit_transfer_fidelity(spec, (1, 0, 0), 1.0)


class TestMirrorCheck:
    def test_two_site_swap_generator(self):
        ham = chain_hamiltonian(ChainSpec(n=2, kind="heisenberg_squared_mix"))
        result = mirror_check(ham, np.pi)
        assert result.is_mirror
        assert abs(abs(result.phase) - np.pi) <= 1e-9
        assert result.residual <= 1e-12
        # even states evolve with phase -1, odd states with +1
        assert len(result.even_phases) == 1 and abs(result.even_phases[0] + 1) <= 1e-9
        assert len(result.odd_phases) == 1 and abs(result.odd_phases[0] - 1) <= 1e-9

    def test_three_site_fails(self, chain3):
        result = mirror_check(chain3, 2 * np.pi / 3)
        assert not result.is_mirror
        assert result.residual > 0.1

    def test_sigma_block_phase_exact(self):
        spec = pst_preset(5, "phase_exact")
        block = engineered_sigma_block(spec)
        result = mirror_check(block, np.pi, space="sigma")
        assert result.is_mirror
        assert abs(result.phase) <= 1e-9
        assert result.residual <= 1e-10

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"needs a ChainOperator.*dimension 10"):
            mirror_check(np.eye(10), np.pi)
        with pytest.raises(ValueError, match="2n\\+1, got dimension 10"):
            mirror_check(np.eye(10), np.pi, space="sigma")

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_rejected(self, t):
        # at t = inf every phase is NaN, which max() would drop from the residual
        with pytest.raises(ValueError, match="finite time"):
            mirror_check(chain_hamiltonian(ChainSpec(n=3, kind="heisenberg")), t)
        with pytest.raises(ValueError, match="finite time"):
            mirror_check(engineered_sigma_block(pst_preset(3, "standard")), t, space="sigma")

    def test_unknown_space_rejected(self):
        # a misspelt space would otherwise take the two-site exchange of a 9-state block
        block = engineered_sigma_block(pst_preset(4, "standard"))
        with pytest.raises(ValueError, match="'full' or 'sigma', got 'Sigma'"):
            mirror_check(block, np.pi, space="Sigma")
        assert mirror_check(block, np.pi, space="sigma").commutator_residual <= 1e-13

    def test_sigma_space_rejects_chain_operator(self, chain3):
        with pytest.raises(ValueError, match="sigma block"):
            mirror_check(chain3, np.pi, space="sigma")

    def test_sigma_block_commutes_with_mirror(self):
        for n in (2, 4, 6):
            block = engineered_sigma_block(pst_preset(n, "standard"))
            mirror = np.eye(2 * n + 1)[sigma_mirror_index(n)]
            assert np.max(np.abs(block @ mirror - mirror @ block)) <= 1e-13


def symmetric_engineered(n, seed):
    """Engineered chain whose couplings and fields read the same from either end."""
    rng = np.random.default_rng(seed)

    def symmetric(values):
        return tuple((values + values[::-1]) / 2.0)

    return ChainSpec(n=n, kind="engineered", a=symmetric(rng.uniform(0.5, 1.5, n - 1)),
                     b=symmetric(rng.uniform(0.5, 1.5, n - 1)),
                     B=symmetric(rng.uniform(-1.0, 1.0, n)),
                     C=symmetric(rng.uniform(0.5, 2.0, n)))


def dense_mirror_reference(op, t, sign, space="full"):
    """(phase, residual, even phases, odd phases, split) of the mirror test from
    the dense unitary, with parities from the cluster-wise mirror eigensolve
    alone; ``split`` says whether the eigensystem holds parity-sector solves."""
    kind = "sigma" if space == "sigma" else "chain_mirror"
    cache, index, comm, scale = mirror_commutator(op, kind)
    unitary = cache.unitary(t, sign)
    columns = np.arange(index.size)
    phi = float(np.angle(np.sum(unitary[index, columns])))
    unitary[index, columns] -= np.exp(1j * phi)
    es = cache.eigensystem
    even = odd = ()
    if comm <= 1e-10 * scale:
        plain = replace(es, parities=None)
        vals, pars = clustered_parities(plain, index)
        phases = np.exp(1j * sign * vals * t)
        even, odd = _distinct_phases(phases[pars > 0]), _distinct_phases(phases[pars < 0])
    split = any(solve.mirrored is not None for solve in es.solves)
    return phi, float(np.max(np.abs(unitary))), even, odd, split


def assert_matches_dense(op, t, sign, space="full"):
    """Same verdict, phase groups, residual and phase as the dense test, bit for bit:
    the dense unitary is scattered from the tiles that the mirror test reads."""
    result = mirror_check(op, t, sign, space)
    phi, residual, even, odd, split = dense_mirror_reference(op, t, sign, space)
    assert result.is_mirror == (residual <= 1e-8)
    assert (result.even_phases, result.odd_phases) == (even, odd)
    assert result.residual == residual
    assert result.phase == phi
    return split


class TestMirrorCheckByBlock:
    @pytest.mark.parametrize("kind", PAPER_KINDS + ("engineered",))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_unitary(self, kind, n):
        spec = symmetric_engineered(n, seed=n) if kind == "engineered" else ChainSpec(n=n, kind=kind)
        ham = chain_hamiltonian(spec)
        splits = {assert_matches_dense(ham, t, sign)
                  for t in (np.pi, 2 * np.pi / 3, 0.77) for sign in (1, -1)}
        # the sector route is taken where the solve split a block: for every
        # kind but the diagonal O2 and O4, whose blocks M keeps whole or swaps
        assert splits == {kind not in ("O2", "O4")}

    @pytest.mark.parametrize("variant", ["standard", "phase_exact"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13])
    def test_sigma_space_matches_dense_unitary(self, variant, n):
        block = engineered_sigma_block(pst_preset(n, variant))
        for t in (np.pi, 0.77):
            for sign in (1, -1):
                assert not assert_matches_dense(block, t, sign, space="sigma")

    def test_sigma_space_of_a_symmetric_engineered_chain(self):
        block = engineered_sigma_block(symmetric_engineered(5, seed=21))
        assert not assert_matches_dense(block, np.pi, 1, space="sigma")

    def test_sigma_space_reads_the_sectors_of_a_shared_cache_entry(self, monkeypatch):
        # the complex O5 coupling taken as a sigma block of four sites shares its
        # cache entry with its two-site operator, solved by exchange parity sector:
        # the sigma mirror reads the sector tiles like any others
        monkeypatch.setattr(linalg, "_cache_by_fingerprint", {})
        block = candidate_two_site("O5")
        evolution_cache(ChainOperator.from_terms([(1, block)], 2))
        for t in (np.pi, 0.77):
            for sign in (1, -1):
                assert assert_matches_dense(block, t, sign, space="sigma")

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared_mix", "O2",
                                      "engineered", "O5"])
    def test_peak_memory_with_a_warm_cache(self, kind):
        # no dense 3^6 unitary is formed: below one dense complex 729 x 729
        # matrix, and for the one-block O5 below half the dense route's 40.6 MiB
        spec = symmetric_engineered(6, seed=6) if kind == "engineered" else ChainSpec(n=6, kind=kind)
        ham = chain_hamiltonian(spec)
        mirror_check(ham, 0.5)
        tracemalloc.start()
        try:
            mirror_check(ham, np.pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (20 * 2 ** 20 if kind == "O5" else 729 ** 2 * 16)


def greedy_phases(phases, tol=1e-9):
    """Keep each phase unless it lies within tol of a phase kept before it."""
    kept = []
    for phase in phases:
        if not any(abs(phase - q) < tol for q in kept):
            kept.append(complex(phase))
    return tuple(kept)


def assert_same_phases(phases):
    got = _distinct_phases(phases)
    want = greedy_phases(phases)
    assert len(got) == len(want)
    assert all(complex(a) == complex(b) for a, b in zip(got, want))


class TestDistinctPhases:
    def test_near_duplicates(self):
        rng = np.random.default_rng(61)
        base = np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
        near = base * np.exp(0.5e-9j * rng.choice([-1, 1], size=40))
        phases = rng.permutation(np.concatenate([base, near, base]))
        assert_same_phases(phases)
        assert len(_distinct_phases(phases)) == 40

    def test_chains_keep_every_other_link(self):
        # links 0.6e-9 apart: each is within tol of its neighbours only, so
        # the greedy rule keeps the first, drops the second, keeps the third...
        steps = np.exp(1j * (0.3 + 0.6e-9 * np.arange(7)))
        for order in (np.arange(7), np.arange(7)[::-1], np.array([3, 0, 6, 1, 5, 2, 4])):
            assert_same_phases(steps[order])
        assert len(_distinct_phases(steps)) == 4

    def test_wraps_at_pi(self):
        rng = np.random.default_rng(62)
        angles = np.pi - np.array([0.0, 0.3e-9, -0.4e-9, 0.9e-9, 1.7e-9, -1.2e-9])
        angles = np.concatenate([angles, angles - 2 * np.pi, rng.uniform(-3, 3, 20)])
        for _ in range(20):
            phases = np.exp(1j * rng.permutation(angles))
            assert_same_phases(phases)
        assert_same_phases(np.array([-1.0 + 0.0j, complex(-1.0, -0.0), complex(-1.0, 1e-10)]))

    def test_random_clusters(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            centres = rng.uniform(-np.pi, np.pi, int(rng.integers(1, 12)))
            angles = rng.choice(centres, size=int(rng.integers(1, 200)))
            angles = angles + rng.normal(scale=1e-9, size=angles.size)
            assert_same_phases(np.exp(1j * angles))

    def test_small_inputs(self):
        assert _distinct_phases(np.array([], dtype=complex)) == ()
        assert _distinct_phases(np.array([1j])) == (1j,)

    def test_memory_stays_linear(self):
        rng = np.random.default_rng(64)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 6561))
        phases[::3] = phases[1::3]  # many exact duplicates, as at t = pi
        tracemalloc.start()
        try:
            _distinct_phases(phases)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared_mix", "O3", "O5"])
    def test_mirror_check_phases_follow_greedy_rule(self, kind):
        ham = chain_hamiltonian(ChainSpec(n=4, kind=kind))
        result = mirror_check(ham, np.pi)
        vals, pars = clustered_parities(evolution_cache(ham).eigensystem, chain_mirror_index(4))
        phases = np.exp(1j * vals * np.pi)
        assert result.even_phases == greedy_phases(phases[pars > 0])
        assert result.odd_phases == greedy_phases(phases[pars < 0])
