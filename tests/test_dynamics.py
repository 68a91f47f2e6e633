import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from spin1chain import dynamics, kernels
from spin1chain.dynamics import (
    QUTRIT_TEST_STATES,
    _band_series,
    _fidelity,
    _qutrit_weights,
    _scan,
    amplitude_scan,
    band_scan,
    evolution_cache,
    mirror_check,
    qutrit_fidelity_series,
    qutrit_transfer_fidelities,
    qutrit_transfer_fidelity,
)
from spin1chain.hamiltonians import (
    ChainSpec,
    chain_hamiltonian,
    engineered_sigma_block,
    pst_preset,
)
from spin1chain.linalg import fix_eigenvector_phases
from spin1chain.parity import chain_mirror_index, parity_spectrum
from spin1chain.spin_ops import basis_index

from band_reference import sigma_labels
from mirror_reference import loop_clustered_parities

PAPER_KINDS = ("heisenberg", "heisenberg_squared_mix", "heisenberg_squared_sum",
               "O1", "O2", "O3", "O4", "O5")


def basis_state(label):
    """The product state of ``label`` as a vector over the full space."""
    state = np.zeros(3 ** len(label), dtype=complex)
    state[basis_index(label)] = 1.0
    return state


def evolved(op, state, t):
    """exp(i*H*t) applied to ``state``, from the block-built unitary."""
    return evolution_cache(op).unitary(t) @ state


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
        assert np.max(np.abs(evolution_cache(chain3).unitary(sign * t) - expected)) <= 1e-12

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
        fwd = evolved(chain3, psi, 1.3)
        bwd = evolved(chain3, psi, -1.3)
        # real Hamiltonian, real initial state: reversed evolution is the conjugate
        assert np.max(np.abs(np.conj(fwd) - bwd)) <= 1e-12

    def test_cache_reuse(self, chain3):
        c1 = evolution_cache(chain3)
        c2 = evolution_cache(chain3)
        assert c1 is c2


class TestTransferAmplitude:
    def test_formula_regression(self, chain3):
        for t in np.linspace(0, 4 * np.pi, 257):
            amp = amplitude(chain3, "001", "100", t)
            assert abs(amp - three_site_formula(t)) <= 1e-10

    def test_value_at_two_thirds_pi(self, chain3):
        amp = amplitude(chain3, "001", "100", 2 * np.pi / 3)
        assert abs(amp - (-0.75 + 0.25j * np.sqrt(3))) <= 1e-12
        assert abs(abs(amp) - np.sqrt(3) / 2) <= 1e-12
        assert abs(np.angle(amp) - 5 * np.pi / 6) <= 1e-12

    def test_half_normalized_chain_needs_doubled_time(self, chain3_mix):
        # the 1/2-normalized interaction halves every frequency: the same
        # amplitude appears at twice the time
        for t in (0.7, 2 * np.pi / 3, 3.1):
            amp = amplitude(chain3_mix, "001", "100", 2 * t)
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
        # a sigma block's 7 states are no product space: it is no chain operator
        block = engineered_sigma_block(pst_preset(3, "standard"))
        with pytest.raises(ValueError, match=r"dimension 3\^n .*shape \(7, 7\)"):
            amplitude_scan(block, "001", "100", [1.0])

    def test_probability_conserved_in_sigma(self):
        spec = pst_preset(4, "standard")
        ham = chain_hamiltonian(spec)
        cache = evolution_cache(ham)
        sigma = [basis_index(label) for label in sigma_labels(4)]
        psi = basis_state("1000")
        for t in (0.3, 1.7, np.pi):
            out = cache.unitary(t) @ psi
            inside = np.linalg.norm(out[sigma]) ** 2
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

    @pytest.mark.parametrize("scan", ["amplitude", "band"])
    def test_non_uniform_grid_refused_before_any_eigensolve(self, chain3, monkeypatch, scan):
        def no_solve(*args):
            raise AssertionError("a refused grid costs no eigensolve")

        monkeypatch.setattr(dynamics, "evolution_cache", no_solve)
        monkeypatch.setattr(dynamics, "band_eigensystem", no_solve)
        times = 0.1 * np.arange(10)
        times[5] += 1e-12
        with pytest.raises(ValueError, match=r"^times must be a uniform grid: "
                                             r"times\[k\] == times\[0\] \+ k\*dt bit for bit$"):
            if scan == "amplitude":
                amplitude_scan(chain3, "001", "100", times)
            else:
                band_scan(pst_preset(3, "standard"), "up", 0, 2, times)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                       [-np.inf, 0.0, 1.0]])
    def test_non_finite_times_rejected(self, chain3, times):
        # a NaN passes the increasing-grid test and an inf makes every phase
        # NaN; either would come back as a NaN maximum
        with pytest.raises(ValueError, match="times must be finite"):
            amplitude_scan(chain3, "1m0", "0m1", times)


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
            f_up, f_down = (complex(kernels.phase_series(*terms, [t], spec.time_sign)[0])
                            for terms in ends)
            if phase_correct:
                f_up, f_down = abs(f_up), abs(f_down)
            wa, wb, wg = (abs(complex(x)) ** 2 for x in qutrit)
            return abs(wa + wb * f_up + wg * f_down) ** 2

        spec = pst_preset(n, variant)
        block = engineered_sigma_block(spec)
        ends = fixed_sigma_terms(block, 0, n - 1), fixed_sigma_terms(block, n + 1, 2 * n)
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


def fixed_sigma_eigensystem(block):
    """Eigenvalues and eigenvectors of a (2n+1) sigma block, its vacuum n, up band
    0..n-1 and down band n+1..2n each solved by its own ``eigh``, the levels sorted
    ascending (equal ones vacuum, up, down) and the vectors phase-fixed as a band's
    are (:func:`fix_eigenvector_phases`)."""
    n = block.shape[0] // 2
    parts = np.arange(n, n + 1), np.arange(n), np.arange(n + 1, 2 * n + 1)
    solved = [np.linalg.eigh(block[np.ix_(rows, rows)]) for rows in parts]
    energies = np.concatenate([w for w, _ in solved])
    order = np.lexsort((np.repeat(np.arange(3), [1, n, n]), energies))
    vectors = np.zeros(block.shape)
    start = 0
    for rows, (w, v) in zip(parts, solved):
        vectors[rows[:, None], start + np.arange(w.size)] = v
        start += w.size
    return energies[order], fix_eigenvector_phases(vectors[:, order])


def fixed_sigma_terms(block, source, target):
    """The amplitude terms of :func:`amplitude_scan` on a sigma block, read from
    :func:`fixed_sigma_eigensystem`."""
    energies, vectors = fixed_sigma_eigensystem(block)
    return energies, vectors[target] * np.conj(vectors[source])


def sigma_block_series(spec, times):
    """(f_up, f_down) as the two end-to-end amplitudes of the (2n+1) sigma block's
    phase-fixed eigensystem, each summed over every one of its 2n+1 levels."""
    n = spec.n
    energies, vectors = fixed_sigma_eigensystem(engineered_sigma_block(spec))
    first_up, last_up, first_down, last_down = vectors[[0, n - 1, n + 1, 2 * n]]
    return tuple(kernels.phase_series(energies, target * np.conj(source), times,
                                      spec.time_sign)
                 for source, target in ((first_up, last_up), (first_down, last_down)))


def band_route_specs():
    """Both presets and a seeded engineered chain at n = 2..40, each in both time signs."""
    specs = []
    for n in range(2, 41):
        rng = np.random.default_rng(3800 + n)
        specs += [pst_preset(n, "standard"), pst_preset(n, "phase_exact"), ChainSpec(
            n=n, kind="engineered",
            a=tuple(rng.uniform(0.3, 2.0, n - 1) * rng.choice([-1, 1], n - 1)),
            b=tuple(rng.uniform(0.3, 2.0, n - 1)), B=tuple(rng.uniform(-1.5, 1.5, n)),
            C=tuple(rng.uniform(0.5, 2.5, n)))]
    return specs + [dataclasses.replace(spec, time_sign=-1) for spec in specs]


class TestBandRouteMatchesSigmaBlock:
    """Each band solved on its own gives what the sigma block's eigensystem gives with
    its vectors phase-fixed as the band's are."""

    def test_channel_scans_are_bit_identical(self):
        # the CLI's default channel grid, between the end sites and two inner ones
        times = np.arange(0.0, 4 * np.pi, 1e-3)
        for spec in band_route_specs():
            n = spec.n
            block = engineered_sigma_block(spec)
            for offset, channel in ((0, "up"), (n + 1, "down")):
                for source, target in ((0, n - 1), (n // 2, n // 3)):
                    got = band_scan(spec, channel, source, target, times)
                    want = _scan(times, spec.time_sign, fixed_sigma_terms, block,
                                 offset + source, offset + target)
                    assert got.rows().tobytes() == want.rows().tobytes(), (spec, channel)
                    assert (got.max_abs, got.argmax_time, got.first_peak_time) == (
                        want.max_abs, want.argmax_time, want.first_peak_time)

    def test_fidelity_series_are_bit_identical(self):
        # the pst-check --scan grid, raw and phase-corrected
        times = np.arange(0.0, 2 * np.pi, 1e-2)
        for spec in band_route_specs():
            want = sigma_block_series(spec, times)
            for got, expected in zip(_band_series(spec, times), want):
                assert got.tobytes() == expected.tobytes(), spec
            for phase_correct in (False, True):
                series = qutrit_fidelity_series(spec, QUTRIT_TEST_STATES[3], times, phase_correct)
                expected = _fidelity(_qutrit_weights(QUTRIT_TEST_STATES[3]), *want, phase_correct)
                assert series.tobytes() == expected.tobytes(), spec

    def test_single_time_fidelities_agree(self):
        # a single-time sum adds the band's levels without the other band's
        # zero-weight ones, so its last bit may differ
        for spec in band_route_specs():
            for t in (np.pi, 0.77):
                want = sigma_block_series(spec, [t])
                for qutrit, pair in zip(QUTRIT_TEST_STATES,
                                        qutrit_transfer_fidelities(spec, QUTRIT_TEST_STATES, t)):
                    weights = _qutrit_weights(qutrit)
                    expected = [float(_fidelity(weights, *want, corrected)[0])
                                for corrected in (False, True)]
                    assert np.max(np.abs(np.subtract(pair, expected))) <= 1e-15, spec


class TestMirrorCheck:
    def test_two_site_swap_generator(self):
        ham = chain_hamiltonian(ChainSpec(n=2, kind="heisenberg_squared_mix"))
        result = mirror_check(ham, np.pi)
        assert result.is_mirror
        assert abs(abs(result.phase) - np.pi) <= 1e-9
        assert result.residual <= 1e-12
        # even states evolve with phase -1, odd states with +1
        split = parity_spectrum(ham)
        assert np.max(np.abs(np.exp(1j * np.pi * np.array(split.even)) + 1)) <= 1e-9
        assert np.max(np.abs(np.exp(1j * np.pi * np.array(split.odd)) - 1)) <= 1e-9

    def test_three_site_fails(self, chain3):
        result = mirror_check(chain3, 2 * np.pi / 3)
        assert not result.is_mirror
        assert result.residual > 0.1

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared_mix", "O3", "O5"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_verdict_follows_the_loop_parities(self, kind, n):
        # U(pi) = e^{i phi} M needs p_k e^{i pi E_k} to take one value over the
        # spectrum, p_k the parity that the loop reference finds cluster by
        # cluster; only the two-site SWAP generator mirrors, and no kind does
        # at four sites
        ham = chain_hamiltonian(ChainSpec(n=n, kind=kind))
        result = mirror_check(ham, np.pi)
        es = evolution_cache(ham).eigensystem
        vals, pars, _ = loop_clustered_parities(es.eigenvalues, es.eigenvectors,
                                                chain_mirror_index(n))
        signed = pars * np.exp(1j * np.pi * vals)
        phi = np.angle(np.sum(signed))
        assert result.is_mirror == (n == 2 and kind == "heisenberg_squared_mix")
        assert abs(result.residual - np.max(np.abs(signed - np.exp(1j * phi)))) <= 1e-12
        assert abs(np.exp(1j * result.phase) - np.exp(1j * phi)) <= 1e-12

    def test_wrong_dimension_rejected(self):
        # 10 states name no site count, so there is no chain mirror to test
        with pytest.raises(ValueError, match=r"dimension 3\^n .*shape \(10, 10\)"):
            mirror_check(np.eye(10), np.pi)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_rejected(self, t):
        # at t = inf every phase is NaN, which max() would drop from the residual
        with pytest.raises(ValueError, match="finite time"):
            mirror_check(chain_hamiltonian(ChainSpec(n=3, kind="heisenberg")), t)

    def test_sigma_block_commutes_with_mirror(self):
        for n in (2, 4, 6):
            block = engineered_sigma_block(pst_preset(n, "standard"))
            # the site inversion reverses the up run 0..n-1 and the down run n+1..2n
            up = np.arange(n)[::-1]
            mirror = np.eye(2 * n + 1)[np.concatenate([up, [n], n + 1 + up])]
            assert np.max(np.abs(block @ mirror - mirror @ block)) <= 1e-13

    @pytest.mark.parametrize("variant", ["standard", "phase_exact"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_preset_unitary_mirrors_the_sigma_states(self, variant, n):
        # U(pi) = exp(i pi H) of the whole chain sends each sigma state to its
        # chain-mirror image: the vacuum (eigenvalue 0) with phase 1 and every
        # excitation with the phase exp(i pi (c + J)), J = (n - 1)/2, of the top
        # up level c + J, which is -i (-1)^n for the standard field c = n/2 and
        # 1 for the phase-exact field c = -J mod 2
        sigma = np.array([basis_index(label) for label in sigma_labels(n)])
        columns = evolution_cache(chain_hamiltonian(pst_preset(n, variant))).unitary(np.pi)[:, sigma]
        images = chain_mirror_index(n)[sigma]
        excitation = -1j * (-1) ** n if variant == "standard" else 1.0
        want = np.full(sigma.size, excitation, dtype=complex)
        want[n] = 1.0
        assert np.max(np.abs(columns[images, np.arange(sigma.size)] - want)) <= 1e-12
        columns[images, np.arange(sigma.size)] = 0
        assert np.max(np.abs(columns)) <= 1e-12


def symmetric_engineered(n, seed):
    """Engineered chain whose couplings and fields read the same from either end."""
    rng = np.random.default_rng(seed)

    def symmetric(values):
        return tuple((values + values[::-1]) / 2.0)

    return ChainSpec(n=n, kind="engineered", a=symmetric(rng.uniform(0.5, 1.5, n - 1)),
                     b=symmetric(rng.uniform(0.5, 1.5, n - 1)),
                     B=symmetric(rng.uniform(-1.0, 1.0, n)),
                     C=symmetric(rng.uniform(0.5, 2.0, n)))


def dense_mirror_reference(op, t):
    """(phase, residual, split) of the mirror test from the dense unitary U: the
    phase of tr(M^T U) and the spectral norm of U - e^{i phase} M; ``split`` says
    whether the eigensystem holds parity-sector solves."""
    cache = evolution_cache(op)
    es = cache.eigensystem
    assert es.mirror_residual == 0
    index = chain_mirror_index(op.n_sites)
    unitary = cache.unitary(t)
    columns = np.arange(index.size)
    phi = float(np.angle(np.sum(unitary[index, columns])))
    unitary[index, columns] -= np.exp(1j * phi)
    split = any(solve.mirrored is not None for solve in es.solves)
    return phi, float(np.linalg.norm(unitary, 2)), split


def assert_matches_dense(op, t):
    """Same verdict as the dense test, and the phase and the residual within
    1e-12: the mirror test reads the spectrum, where U and M share their
    eigenbasis, and the dense test the unitary."""
    result = mirror_check(op, t)
    phi, residual, split = dense_mirror_reference(op, t)
    assert result.is_mirror == (residual <= 1e-8)
    assert abs(result.residual - residual) <= 1e-12
    assert abs(np.exp(1j * result.phase) - np.exp(1j * phi)) <= 1e-12
    return split


# the dense residual's SVD of a 729 x 729 unitary takes about 0.2 s, so six sites
# are tested at t = pi only
MIRROR_TIMES = {n: [sign * t for t in (np.pi, 2 * np.pi / 3, 0.77) for sign in (1, -1)]
                for n in (2, 3, 4, 5)} | {6: [np.pi]}


class TestMirrorCheckByBlock:
    @pytest.mark.parametrize("kind", PAPER_KINDS + ("engineered",))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_unitary(self, kind, n):
        spec = symmetric_engineered(n, seed=n) if kind == "engineered" else ChainSpec(n=n, kind=kind)
        ham = chain_hamiltonian(spec)
        splits = {assert_matches_dense(ham, t) for t in MIRROR_TIMES[n]}
        # the sector route is taken where the solve split a block: for every
        # kind but the diagonal O2 and O4, whose blocks M keeps whole or swaps
        assert splits == {kind not in ("O2", "O4")}

    @pytest.mark.parametrize("variant", ["standard", "phase_exact"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_preset_matches_dense_unitary(self, variant, n):
        # the transfer presets have whole- or half-integer levels, so the chain
        # has wide degenerate clusters (up to 120 levels at n = 6) that hold
        # both parities
        ham = chain_hamiltonian(pst_preset(n, variant))
        splits = {assert_matches_dense(ham, t) for t in MIRROR_TIMES[n]}
        assert splits == {True}

    @pytest.mark.parametrize("kind", ["heisenberg", "heisenberg_squared_mix", "O2",
                                      "engineered", "O5"])
    def test_peak_memory_with_a_warm_cache(self, kind):
        # no product of eigenvectors is formed: far below one dense complex
        # 729 x 729 matrix (8.1 MiB), for the one-block O5 too
        spec = symmetric_engineered(6, seed=6) if kind == "engineered" else ChainSpec(n=6, kind=kind)
        ham = chain_hamiltonian(spec)
        mirror_check(ham, 0.5)
        tracemalloc.start()
        try:
            mirror_check(ham, np.pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
