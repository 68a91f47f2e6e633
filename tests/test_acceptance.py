"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.  Criterion 6 checks the four-site amplitude against its closed
form and asserts that the stated 0.99 bound on [0, 40pi] is exceeded: near
recurrences of the aperiodic transfer come arbitrarily close to 1, so the
bound is kept as a reported discrepancy, the way criterion 4 keeps the known
tabulation errors.  See the README for the analysis.
"""

import time

import numpy as np
import pytest

from spin1chain.dynamics import (
    QUTRIT_TEST_STATES,
    amplitude_scan,
    evolution_cache,
    qutrit_transfer_fidelity,
)
from spin1chain.hamiltonians import (
    ChainSpec,
    SWAP2,
    chain_hamiltonian,
    mix_two_site,
    pst_preset,
    sigma_leakage,
)
from spin1chain.linalg import eig_hermitian
from spin1chain.parity import (
    ADJUDICATED_SPECTRA,
    LITERATURE_SPECTRA,
    parity_spectrum,
    reference_comparison,
)
from spin1chain.spin_ops import basis_index
from spin1chain.tomography import (
    band_matrix,
    band_spectral_data,
    extract_spectrum,
    full_tomography,
    synthesize_record,
)


def report(num, ok, message):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {message}")


def amplitude(op, source, target, t):
    """<target| exp(iHt) |source> from a one-point amplitude scan."""
    scan = amplitude_scan(op, source, target, [t])
    return complex(scan.abs_values[0] * np.exp(1j * scan.arg_values[0]))


def evolved(es, psi, t):
    """exp(iHt) psi from the eigensystem's assembled eigenvectors."""
    v = es.eigenvectors
    return v @ (np.exp(1j * es.eigenvalues * t) * (v.conj().T @ psi))


def formula3(t):
    return (np.exp(1j * t) - 3 * np.exp(3j * t) + 2 * np.exp(4j * t)) / 6.0


# Four-site chain, sector of one 1 among 0s: each bond term (S.S + (S.S)^2)/2
# acts there as (P_swap + 1)/2, so H = 3 - L/2 with L the path-graph
# Laplacian.  Its levels are 2 + cos(pi k/4), and the end-to-end weights
# <1000|k><k|0001> are 1/4 for k = 0 and (-1)^k cos^2(pi k/8)/2 otherwise,
# with sum_k |c_k| = 1.
FOUR_SITE_SECTOR = ("1000", "0100", "0010", "0001")
FOUR_SITE_LEVELS = 2 + np.cos(np.pi * np.arange(4) / 4)
FOUR_SITE_WEIGHTS = np.array([0.25, -np.cos(np.pi / 8) ** 2 / 2,
                              0.25, -np.cos(3 * np.pi / 8) ** 2 / 2])


def formula4(t):
    return np.exp(1j * np.outer(t, FOUR_SITE_LEVELS)) @ FOUR_SITE_WEIGHTS


def formula4_peak(times, scale):
    """Maximum of |formula4(scale*t)| over the grid, refined to 1e-7 near it."""
    k = int(np.argmax(np.abs(formula4(scale * times))))
    fine = times[k] + np.linspace(-1e-3, 1e-3, 20001)
    fine_abs = np.abs(formula4(scale * fine))
    j = int(np.argmax(fine_abs))
    return float(fine_abs[j]), float(fine[j])


def test_criterion_1_swap_construction():
    start = time.perf_counter()
    es = eig_hermitian(mix_two_site())
    unitary = (es.eigenvectors * np.exp(1j * np.pi * es.eigenvalues)) @ es.eigenvectors.conj().T
    deviation = float(np.max(np.abs(unitary - (-1.0) * SWAP2)))
    elapsed = time.perf_counter() - start
    ok = deviation <= 1e-10 and elapsed < 1.0
    report(1, ok, f"||exp(i pi h) - (-1) SWAP||_max = {deviation:.2e} "
                  f"(global phase -1 is derived, not assumed) in {elapsed:.2f}s")
    assert deviation <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_heisenberg_parity_spectrum():
    split = parity_spectrum(chain_hamiltonian(ChainSpec(n=2, kind="heisenberg")))
    even_ok = np.allclose(split.even, [1, 1, 1, 1, 1, -2], atol=1e-10)
    odd_ok = np.allclose(split.odd, [-1, -1, -1], atol=1e-10)
    report(2, even_ok and odd_ok,
           f"even sector {{1 x5, -2}}, odd sector {{-1 x3}}: "
           f"even={np.round(split.even, 10).tolist()} odd={np.round(split.odd, 10).tolist()}")
    assert even_ok
    assert odd_ok


def test_criterion_3_three_site_amplitude_regression():
    start = time.perf_counter()
    chain = chain_hamiltonian(ChainSpec(n=3, kind="heisenberg_squared_sum"))
    cache = evolution_cache(chain)
    times = np.arange(0.0, 4 * np.pi, 1e-3)
    scan = amplitude_scan(cache, basis_index("001"), basis_index("100"), times)
    series = scan.abs_values * np.exp(1j * scan.arg_values)
    max_dev = float(np.max(np.abs(series - formula3(times))))

    t_star = 2 * np.pi / 3
    amp = amplitude(cache, basis_index("001"), basis_index("100"), t_star)
    phase_dev = abs(np.angle(amp) - 5 * np.pi / 6)
    simulated_modulus = abs(amp)
    modulus_dev = abs(simulated_modulus - np.sqrt(3) / 2)

    # the same amplitude under the 1/2-normalized interaction of the SWAP
    # construction appears at doubled time (frequencies halve)
    half = evolution_cache(chain_hamiltonian(ChainSpec(n=3, kind="heisenberg_squared_mix")))
    amp_half = amplitude(half, basis_index("001"), basis_index("100"), 2 * t_star)
    normalization_dev = abs(amp_half - amp)

    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-10 and phase_dev <= 1e-10 and modulus_dev <= 1e-10
    report(3, ok,
           f"closed form matched to {max_dev:.2e} on [0,4pi]; at t=2pi/3 phase "
           f"e^(i 5pi/6) (dev {phase_dev:.1e}) and modulus {simulated_modulus:.12f} "
           f"= sqrt(3)/2; ADJUDICATION: simulation supports sqrt(3)/2 ~ 0.866, not the "
           f"narrative sqrt(3)/4 ~ 0.433; the closed form corresponds to the unscaled "
           f"interaction (1/2-normalized chain reproduces it at 2t, dev "
           f"{normalization_dev:.1e}); {elapsed:.1f}s")
    assert max_dev <= 1e-10
    assert phase_dev <= 1e-10
    assert modulus_dev <= 1e-10
    assert normalization_dev <= 1e-10


def test_criterion_4_candidate_interaction_table():
    lines = []
    all_adjudicated = True
    mismatches_reported = True
    for name in ("O1", "O2", "O3", "O4", "O5"):
        split = parity_spectrum(chain_hamiltonian(ChainSpec(n=2, kind=name)))
        cmp = reference_comparison(name, split)
        all_adjudicated &= cmp["matches_adjudicated"]
        if not cmp["matches_literature"]:
            mismatches_reported &= cmp["note"] is not None
            lines.append(f"{name}: deviates from tabulated values "
                         f"({cmp['deviation_from_literature']:.2e}) - {cmp['note']}")
        else:
            lines.append(f"{name}: matches tabulated values to "
                         f"{cmp['deviation_from_literature']:.1e}")
    ok = all_adjudicated and mismatches_reported
    report(4, ok, "parity spectra verified against the tabulated values; "
                  "discrepancies reported explicitly, not silently fixed: " + " | ".join(lines))
    assert all_adjudicated, "computed spectra must match the trace-consistent references"
    assert mismatches_reported, "every deviation from the tabulated values must carry a report"
    # the two known tabulation errors stay visible
    assert not reference_comparison(
        "O2", parity_spectrum(chain_hamiltonian(ChainSpec(n=2, kind="O2"))))["matches_literature"]
    assert not reference_comparison(
        "O3", parity_spectrum(chain_hamiltonian(ChainSpec(n=2, kind="O3"))))["matches_literature"]


def test_criterion_5_perfect_transfer_presets():
    start = time.perf_counter()
    worst_corrected = 1.0
    worst_raw_exact = 1.0
    worst_vacuum = 0.0
    worst_leakage = 0.0
    for n in range(2, 9):
        for variant in ("standard", "phase_exact"):
            spec = pst_preset(n, variant)
            for state in QUTRIT_TEST_STATES:
                if variant == "standard":
                    fid = qutrit_transfer_fidelity(spec, state, np.pi, phase_correct=True)
                    worst_corrected = min(worst_corrected, fid)
                else:
                    fid = qutrit_transfer_fidelity(spec, state, np.pi, phase_correct=False)
                    worst_raw_exact = min(worst_raw_exact, fid)
            ham = chain_hamiltonian(spec)
            vac = np.zeros(ham.dim)
            vac[basis_index("0" * n)] = 1.0
            # a product from H's entries: no 3^n matrix is formed
            worst_vacuum = max(worst_vacuum, float(np.linalg.norm(ham @ vac)))
            worst_leakage = max(worst_leakage, sigma_leakage(ham))
    elapsed = time.perf_counter() - start
    ok = (worst_corrected >= 1 - 1e-8 and worst_raw_exact >= 1 - 1e-8
          and worst_vacuum <= 1e-13 and worst_leakage <= 1e-12 and elapsed < 60)
    report(5, ok,
           f"n=2..8, 10-state set at t=pi: corrected fidelity >= {worst_corrected:.12f} "
           f"(standard), raw fidelity >= {worst_raw_exact:.12f} (phase_exact); "
           f"vacuum ||H|0...0>|| <= {worst_vacuum:.1e}; sigma leakage <= {worst_leakage:.1e}; "
           f"{elapsed:.1f}s")
    assert worst_corrected >= 1 - 1e-8
    assert worst_raw_exact >= 1 - 1e-8
    assert worst_vacuum <= 1e-13
    assert worst_leakage <= 1e-12
    assert elapsed < 60


def test_criterion_6_four_site_irregularity():
    start = time.perf_counter()
    stated_bound = 0.99
    times = np.arange(0.0, 40 * np.pi, 1e-3)
    sector = [basis_index(label) for label in FOUR_SITE_SECTOR]
    # the unscaled interaction is twice the 1/2-normalized one, so its
    # amplitude is the closed form at doubled time
    scales = {"heisenberg_squared_mix": 1.0, "heisenberg_squared_sum": 2.0}
    grid, closed, levels = {}, {}, {}
    closed_dev = 0.0
    leakage = 0.0
    for kind, scale in scales.items():
        chain = chain_hamiltonian(ChainSpec(n=4, kind=kind))
        scan = amplitude_scan(chain, basis_index("0001"), basis_index("1000"), times)
        series = scan.abs_values * np.exp(1j * scan.arg_values)
        closed_dev = max(closed_dev, float(np.max(np.abs(series - formula4(scale * times)))))
        grid[kind] = (scan.max_abs, scan.argmax_time)
        closed[kind] = formula4_peak(times, scale)
        ham = chain.dense()
        levels[kind] = np.linalg.eigvalsh(ham[np.ix_(sector, sector)]) / scale
        leakage = max(leakage, float(np.max(np.abs(np.delete(ham[:, sector], sector, axis=0)))))
    elapsed = time.perf_counter() - start

    level_dev = max(float(np.max(np.abs(lv - np.sort(FOUR_SITE_LEVELS))))
                    for lv in levels.values())
    # ascending order: 2 - 1/sqrt2 (k=3), 2 (k=2), 2 + 1/sqrt2 (k=1), 3 (k=0)
    lv = levels["heisenberg_squared_mix"]
    gap_ratio = (lv[3] - lv[1]) / (lv[2] - lv[1])
    # |f(t)| = 1 needs every phase aligned with the sign of its weight
    # (sum |c_k| = 1 makes the triangle inequality tight), i.e.
    # (lambda_0 - lambda_2) t in 2pi Z and (lambda_1 - lambda_2) t in pi + 2pi Z
    # (the k = 3 phase then follows, as lambda_3 - lambda_2 = lambda_2 - lambda_1).
    # That is t = 2pi m with sqrt(2) m odd, impossible for irrational sqrt(2);
    # m = 0 gives f(0) = sum c_k = 0.  So no time reaches 1, but the two
    # frequencies are rationally independent and by Kronecker's theorem
    # sup |f| = 1: every bound below 1 is crossed on a long enough window.
    ratio_dev = abs(gap_ratio - np.sqrt(2))

    mix_max, mix_at = grid["heisenberg_squared_mix"]
    sum_max, sum_at = grid["heisenberg_squared_sum"]
    cf_mix_max, cf_mix_at = closed["heisenberg_squared_mix"]
    cf_sum_max, cf_sum_at = closed["heisenberg_squared_sum"]
    # between grid points a peak rises O(dt^2) above its sampled neighbours:
    # under 1e-7 at dt = 1e-3 for both normalizations
    peak_dev = max(abs(cf_mix_max - mix_max), abs(cf_sum_max - sum_max))
    mix_abs = np.abs(formula4(times))
    first_cross = float(times[np.argmax(mix_abs > stated_bound)])
    max_8pi = float(np.max(mix_abs[times <= 8 * np.pi]))
    stated_bound_met = cf_mix_max < stated_bound

    ok = (closed_dev <= 1e-10 and level_dev <= 1e-12 and leakage <= 1e-12
          and ratio_dev <= 1e-12 and mix_max < 1 - 5e-5 and peak_dev <= 1e-6
          and not stated_bound_met and elapsed < 60)
    report(6, ok,
           f"four-site end-to-end amplitude on [0, 40pi], step 1e-3, matches the closed "
           f"form to {closed_dev:.1e}; sector levels 2 + cos(pi k/4) (dev {level_dev:.1e}, "
           f"leakage {leakage:.1e}), gap ratio sqrt(2) (dev {ratio_dev:.1e}): aperiodic, "
           f"no time reaches 1; REPORTED DISCREPANCY with the stated bound "
           f"{stated_bound}: closed-form max {cf_mix_max:.6f} at t={cf_mix_at:.3f} "
           f"(interaction as normalized for the SWAP construction; grid {mix_max:.6f} "
           f"at t={mix_at:.3f}) and {cf_sum_max:.6f} at t={cf_sum_at:.3f} (unscaled; "
           f"grid {sum_max:.6f} at t={sum_at:.3f}); first above {stated_bound} at "
           f"t={first_cross:.3f} ({first_cross / np.pi:.2f}pi); max on [0, 8pi] "
           f"{max_8pi:.3f}; {elapsed:.1f}s")
    assert elapsed < 60
    assert closed_dev <= 1e-10, "simulated amplitude must follow the closed form"
    assert level_dev <= 1e-12
    assert leakage <= 1e-12, "the one-excitation sector must be closed"
    assert ratio_dev <= 1e-12
    assert mix_max < 1 - 5e-5, "no perfect transfer: the qualitative claim itself holds"
    assert peak_dev <= 1e-6, "the program's grid maxima must agree with the closed form"
    # the stated 0.99 bound on [0, 40pi] stays visible: the closed form
    # exceeds it, as the irrationality argument above says it must
    assert not stated_bound_met, (
        f"closed-form maximum {cf_mix_max:.6f} on [0, 40pi] no longer exceeds the "
        f"stated {stated_bound} bound")


def test_criterion_7_tomography_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst_rel = 0.0
    lengths = [3, 4, 5, 6, 7, 8]
    for trial in range(20):
        n = lengths[trial % len(lengths)]
        spec = ChainSpec(
            n=n,
            kind="engineered",
            a=tuple(rng.uniform(0.3, 2.0, n - 1) * rng.choice([-1, 1], n - 1)),
            b=tuple(rng.uniform(0.3, 2.0, n - 1)),
            B=tuple(rng.uniform(0.3, 1.5, n) * rng.choice([-1, 1], n)),
            C=tuple(rng.uniform(0.5, 2.5, n)),
        )
        bound = max(float(np.max(np.sum(np.abs(band_matrix(spec, ch)), axis=1)))
                    for ch in ("up", "down"))
        dt = np.pi / (1.3 * bound)
        times = dt * np.arange(16 * n)
        result = full_tomography(spec, times)
        for est, true in ((result.a_abs, np.abs(spec.a)), (result.b_abs, np.abs(spec.b)),
                          (result.B, np.array(spec.B)), (result.C, np.array(spec.C))):
            worst_rel = max(worst_rel, float(np.max(np.abs(est - true) / np.abs(true))))

    worst_noisy = 0.0
    for n in (2, 3, 4):
        spec = pst_preset(n, "standard")
        bound = float(np.max(np.sum(np.abs(band_matrix(spec, "up")), axis=1)))
        dt = np.pi / (1.3 * bound)
        times = dt * np.arange(max(64 * n, 128))
        record = synthesize_record(spec, "up", "amplitude", times, shots=10 ** 6,
                                   seed=1000 + n)
        sd, _ = extract_spectrum(record, order=n)
        truth = band_spectral_data(spec, "up")
        worst_noisy = max(worst_noisy, float(np.max(np.abs(sd.eigenvalues - truth.eigenvalues))))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and worst_noisy <= 1e-2 and elapsed < 120
    report(7, ok,
           f"20 seeded random chains (n=3..8), exact records: worst relative error "
           f"{worst_rel:.2e} over |a|,|b|,B,C; shot-sampled records (10^6 shots, n<=4): "
           f"worst eigenvalue error {worst_noisy:.2e}; {elapsed:.1f}s")
    assert worst_rel <= 1e-6
    assert worst_noisy <= 1e-2
    assert elapsed < 120


def test_criterion_8_numerical_backbone():
    rng = np.random.default_rng(88)
    worst_residual = 0.0
    worst_vunit = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 40))
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = (mat + mat.conj().T) / 2
        es = eig_hermitian(mat)
        scale = max(float(np.max(np.abs(mat))), 1.0)
        worst_residual = max(worst_residual, es.reconstruction_residual(mat) / scale)
        worst_vunit = max(worst_vunit, es.unitarity_deviation())

    worst_unitarity = 0.0
    worst_group = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 25))
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = (mat + mat.conj().T) / 2
        es = eig_hermitian(mat)
        t1, t2 = rng.uniform(0, 4, 2)
        phases = np.exp(1j * es.eigenvalues * t1)
        unitary = (es.eigenvectors * phases) @ es.eigenvectors.conj().T
        worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
            unitary.conj().T @ unitary - np.eye(dim)))))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        stepwise = evolved(es, evolved(es, psi, t1), t2)
        direct = evolved(es, psi, t1 + t2)
        worst_group = max(worst_group, float(np.max(np.abs(stepwise - direct))))

    ok = (worst_residual <= 1e-11 and worst_vunit <= 1e-12
          and worst_unitarity <= 1e-11 and worst_group <= 1e-10)
    report(8, ok,
           f"100 seeded trials each: eigen-residual <= {worst_residual:.2e} (bound 1e-11), "
           f"eigenvector unitarity <= {worst_vunit:.2e} (1e-12), evolution unitarity <= "
           f"{worst_unitarity:.2e} (1e-11), group law <= {worst_group:.2e} (1e-10)")
    assert worst_residual <= 1e-11
    assert worst_vunit <= 1e-12
    assert worst_unitarity <= 1e-11
    assert worst_group <= 1e-10
