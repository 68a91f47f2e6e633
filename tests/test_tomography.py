import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin1chain.hamiltonians import ChainSpec, pst_preset
from spin1chain.linalg import eig_hermitian
from spin1chain.tomography import (
    MeasurementRecord,
    SpectralData,
    band_matrix,
    band_spectral_data,
    extract_spectrum,
    full_tomography,
    jacobi_reconstruct,
    matrix_pencil,
    probability_mode_analysis,
    read_record_csv,
    synthesize_record,
    tomography_from_records,
    write_record_csv,
)


def random_engineered(rng, n, with_fields=True):
    sign = rng.choice([-1.0, 1.0], size=n - 1)
    return ChainSpec(
        n=n,
        kind="engineered",
        a=tuple(sign * rng.uniform(0.3, 2.0, n - 1)),
        b=tuple(rng.uniform(0.3, 2.0, n - 1)),
        B=tuple(rng.uniform(0.3, 1.5, n) * rng.choice([-1, 1], size=n)) if with_fields
        else (0.0,) * n,
        C=tuple(rng.uniform(0.5, 2.5, n)),
    )


def safe_grid(spec, samples_per_dim=16):
    """Uniform grid below the sampling bound of both excitation bands."""
    bound = 0.0
    for channel in ("up", "down"):
        mat = band_matrix(spec, channel)
        bound = max(bound, float(np.max(np.sum(np.abs(mat), axis=1))))
    dt = np.pi / (1.3 * max(bound, 1e-6))
    return dt * np.arange(max(samples_per_dim * spec.n, 48))


class TestMeasurementRecord:
    def test_probability_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MeasurementRecord(np.array([0.0, 1.0]), np.array([0.5, 1.5]),
                              "up", "probability")

    def test_amplitude_modulus_checked(self):
        with pytest.raises(ValueError, match="amplitudes"):
            MeasurementRecord(np.array([0.0, 1.0]), np.array([1.0, 2.0 + 0j]),
                              "up", "amplitude")

    def test_monotone_times(self):
        with pytest.raises(ValueError, match="increasing"):
            MeasurementRecord(np.array([1.0, 0.5]), np.array([1.0, 1.0 + 0j]),
                              "up", "amplitude")

    def test_channel_and_mode_enums(self):
        with pytest.raises(ValueError, match="channel"):
            MeasurementRecord(np.array([0.0, 1.0]), np.ones(2, complex), "middle", "amplitude")
        with pytest.raises(ValueError, match="mode"):
            MeasurementRecord(np.array([0.0, 1.0]), np.ones(2, complex), "up", "complex")

    def test_grid_step_uniformity(self):
        rec = MeasurementRecord(np.array([0.0, 0.5, 1.7]), np.ones(3) * 0.5, "up", "probability")
        with pytest.raises(ValueError, match="uniform"):
            rec.grid_step()


class TestSynthesizeRecord:
    def test_time_zero(self):
        spec = pst_preset(3, "standard")
        grid = np.array([0.0, 0.1, 0.2])
        amp = synthesize_record(spec, "up", "amplitude", grid)
        prob = synthesize_record(spec, "down", "probability", grid)
        assert abs(amp.values[0] - 1.0) <= 1e-13
        assert abs(prob.values[0] - 1.0) <= 1e-13

    def test_two_site_closed_form(self):
        # equal-weight two-level band: f(t) = exp(it) cos(t/2)
        spec = pst_preset(2, "standard")
        grid = np.linspace(0.0, 6.0, 101)
        rec = synthesize_record(spec, "up", "amplitude", grid)
        expected = np.exp(1j * grid) * np.cos(grid / 2)
        assert np.max(np.abs(rec.values - expected)) <= 1e-12

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(31)
        spec = random_engineered(rng, 4)
        rec = synthesize_record(spec, "up", "probability", safe_grid(spec))
        assert np.all(rec.values >= 0.0) and np.all(rec.values <= 1.0)

    def test_time_sign_conjugates(self):
        spec = pst_preset(3, "standard")
        flipped = ChainSpec(**{**spec.to_json_dict(), "time_sign": -1})
        grid = np.linspace(0.0, 4.0, 33)
        fwd = synthesize_record(spec, "up", "amplitude", grid)
        bwd = synthesize_record(flipped, "up", "amplitude", grid)
        assert np.max(np.abs(np.conj(fwd.values) - bwd.values)) <= 1e-13

    def test_sampling_reproducible(self):
        spec = pst_preset(3, "standard")
        grid = np.linspace(0.0, 4.0, 33)
        one = synthesize_record(spec, "up", "probability", grid, shots=1000, seed=5)
        two = synthesize_record(spec, "up", "probability", grid, shots=1000, seed=5)
        assert np.array_equal(one.values, two.values)
        assert one.seed == 5


class TestExtractSpectrum:
    def test_two_site_standard(self):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "up", "amplitude", safe_grid(spec))
        sd, diag = extract_spectrum(rec, order=2)
        assert np.allclose(sd.eigenvalues, [0.5, 1.5], atol=1e-8)
        assert np.allclose(sd.weights, [0.5, 0.5], atol=1e-8)
        assert not diag["ill_conditioned"]

    def test_single_frequency(self):
        d = 1.3
        grid = 0.4 * np.arange(8)
        rec = MeasurementRecord(grid, np.exp(1j * d * grid), "up", "amplitude")
        sd, _ = extract_spectrum(rec, order=1)
        assert abs(sd.eigenvalues[0] - d) <= 1e-10
        assert abs(sd.weights[0] - 1.0) <= 1e-10

    def test_matches_direct_diagonalization(self):
        rng = np.random.default_rng(32)
        spec = random_engineered(rng, 5)
        rec = synthesize_record(spec, "up", "amplitude", safe_grid(spec))
        sd, _ = extract_spectrum(rec, order=5)
        truth = band_spectral_data(spec, "up")
        assert np.max(np.abs(sd.eigenvalues - truth.eigenvalues)) <= 1e-8
        assert np.max(np.abs(sd.weights - truth.weights)) <= 1e-8

    def test_weight_sum_normalized(self):
        rng = np.random.default_rng(33)
        spec = random_engineered(rng, 4)
        rec = synthesize_record(spec, "down", "amplitude", safe_grid(spec))
        sd, diag = extract_spectrum(rec, order=4)
        assert abs(np.sum(sd.weights) - 1.0) <= 1e-12
        assert abs(diag["weight_sum"] - 1.0) <= 1e-8

    def test_needs_amplitude_mode(self):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "up", "probability", safe_grid(spec))
        with pytest.raises(ValueError, match="amplitude"):
            extract_spectrum(rec, order=2)

    def test_needs_enough_samples(self):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "up", "amplitude", 0.3 * np.arange(6))
        with pytest.raises(ValueError, match="samples"):
            extract_spectrum(rec, order=2)

    def test_near_nyquist_frequency_flagged(self):
        freq = 3.135  # within half a percent of pi / dt
        grid = 1.0 * np.arange(16)
        rec = MeasurementRecord(grid, np.exp(1j * freq * grid), "up", "amplitude")
        _, diag = extract_spectrum(rec, order=1)
        assert diag["aliasing_risk"]

    def test_undersampling_aliases_the_spectrum(self):
        # deep violations of the sampling bound fold the eigenvalues and are
        # invisible post hoc: the bound is a genuine precondition
        spec = ChainSpec(n=2, kind="engineered", a=(0.5,), b=(0.5,),
                         B=(0.0, 0.0), C=(5.0, 5.0))
        rec = synthesize_record(spec, "up", "amplitude", 1.0 * np.arange(24))
        sd, _ = extract_spectrum(rec, order=2)
        truth = band_spectral_data(spec, "up")
        assert np.max(np.abs(sd.eigenvalues - truth.eigenvalues)) > 1.0

    def test_overfit_order_flagged(self):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "up", "amplitude", safe_grid(spec))
        _, diag = extract_spectrum(rec, order=4)
        assert diag["ill_conditioned"]


class TestJacobiReconstruct:
    def test_two_level_example(self):
        sd = SpectralData(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
        diag, off = jacobi_reconstruct(sd)
        assert np.allclose(diag, [1.0, 1.0], atol=1e-12)
        assert np.allclose(off, [0.5], atol=1e-12)

    def test_single_level(self):
        sd = SpectralData(np.array([2.2]), np.array([1.0]))
        diag, off = jacobi_reconstruct(sd)
        assert np.allclose(diag, [2.2])
        assert off.size == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31))
    def test_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        diag_true = rng.uniform(-2, 2, n)
        off_true = rng.uniform(0.2, 2, n - 1)
        mat = np.diag(diag_true) + np.diag(off_true, 1) + np.diag(off_true, -1)
        es = eig_hermitian(mat)
        weights = np.abs(es.eigenvectors[0, :]) ** 2
        diag, off = jacobi_reconstruct(SpectralData(es.eigenvalues, weights))
        assert np.max(np.abs(diag - diag_true)) <= 1e-8
        assert np.max(np.abs(off - off_true)) <= 1e-8

    def test_repeated_eigenvalues_rejected(self):
        sd = SpectralData(np.array([1.0, 1.0 + 1e-12]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="not unique"):
            jacobi_reconstruct(sd)

    def test_zero_weight_rejected(self):
        sd = SpectralData(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="decouples"):
            jacobi_reconstruct(sd)

    def test_weight_below_floor_named(self):
        # the preset's first-site weights are C(n-1, j) / 2^(n-1); at n = 36 the
        # end levels carry 2.9e-11, below the 1e-10 floor, though nothing decouples
        sd = band_spectral_data(pst_preset(36, "standard"), "up")
        k = int(np.argmin(sd.weights))
        assert np.isclose(sd.weights[k], 1 / 2 ** 35, rtol=1e-6)
        with pytest.raises(ValueError) as info:
            jacobi_reconstruct(sd)
        message = str(info.value)
        assert "2.91e-11" in message
        assert f"eigenvalue index {k}" in message
        assert "1e-10" in message
        assert "decouples" not in message


class TestSpectralData:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            SpectralData(np.array([0.0, 1.0]), np.array([0.3, 0.3]))

    def test_sorted_ascending(self):
        sd = SpectralData(np.array([2.0, -1.0]), np.array([0.25, 0.75]))
        assert np.allclose(sd.eigenvalues, [-1.0, 2.0])
        assert np.allclose(sd.weights, [0.75, 0.25])


class TestFullTomography:
    def test_standard_preset_exact(self):
        spec = pst_preset(4, "standard")
        result = full_tomography(spec, safe_grid(spec))
        assert np.max(np.abs(result.a_abs - np.abs(spec.a))) <= 1e-8
        assert np.max(np.abs(result.b_abs - np.abs(spec.b))) <= 1e-8
        assert np.max(np.abs(result.B - np.array(spec.B))) <= 1e-8
        assert np.max(np.abs(result.C - np.array(spec.C))) <= 1e-8

    def test_random_chain_with_fields(self):
        rng = np.random.default_rng(34)
        spec = random_engineered(rng, 5)
        result = full_tomography(spec, safe_grid(spec))
        for est, true in ((result.a_abs, np.abs(spec.a)), (result.b_abs, np.abs(spec.b)),
                          (result.B, np.array(spec.B)), (result.C, np.array(spec.C))):
            assert np.max(np.abs(est - true) / np.abs(true)) <= 1e-6

    def test_signs_not_recovered(self):
        spec = ChainSpec(n=3, kind="engineered", a=(-0.8, 0.9), b=(0.7, -1.1),
                         B=(0.1, -0.2, 0.3), C=(1.0, 1.2, 0.9))
        result = full_tomography(spec, safe_grid(spec))
        assert np.allclose(result.a_abs, [0.8, 0.9], atol=1e-8)
        assert np.allclose(result.b_abs, [0.7, 1.1], atol=1e-8)

    def test_field_disentanglement_identity(self):
        rng = np.random.default_rng(35)
        spec = random_engineered(rng, 4)
        result = full_tomography(spec, safe_grid(spec))
        d_up = result.C + result.B
        d_down = result.C - result.B
        assert np.allclose((d_up - d_down) / 2, result.B)
        assert np.allclose((d_up + d_down) / 2, result.C)

    def test_reversed_time_sign(self):
        spec = pst_preset(3, "standard")
        flipped = ChainSpec(**{**spec.to_json_dict(), "time_sign": -1})
        result = full_tomography(flipped, safe_grid(flipped))
        assert np.max(np.abs(result.C - np.array(spec.C))) <= 1e-8

    def test_probability_mode_refused(self):
        spec = pst_preset(2, "standard")
        with pytest.raises(ValueError, match="amplitude"):
            full_tomography(spec, safe_grid(spec), mode="probability")

    def test_shot_noise_eigenvalues(self):
        spec = pst_preset(3, "standard")
        times = safe_grid(spec, samples_per_dim=64)
        rec = synthesize_record(spec, "up", "amplitude", times, shots=10 ** 6, seed=99)
        sd, _ = extract_spectrum(rec, order=3)
        truth = band_spectral_data(spec, "up")
        assert np.max(np.abs(sd.eigenvalues - truth.eigenvalues)) <= 1e-2

    def test_result_json_serializable(self):
        import json

        spec = pst_preset(2, "standard")
        result = full_tomography(spec, safe_grid(spec))
        text = json.dumps(result.to_json_dict())
        assert "a_abs" in text


class TestProbabilityMode:
    def test_two_site_gap_structure(self):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "up", "probability", safe_grid(spec, 32))
        report = probability_mode_analysis(rec)
        assert len(report.gaps) == 1
        assert abs(report.gaps[0] - 1.0) <= 1e-8
        # the lone pair weight is w1 * w2 = 1/4
        assert abs(report.pair_weights[0] - 0.25) <= 1e-8
        assert abs(report.dc - 0.5) <= 1e-8

    def test_three_site_equispaced_gaps(self):
        spec = pst_preset(3, "standard")
        rec = synthesize_record(spec, "up", "probability", safe_grid(spec, 48))
        report = probability_mode_analysis(rec)
        assert np.allclose(report.gaps, [1.0, 2.0], atol=1e-7)
        # weights (1/4, 1/2, 1/4): gap 1 carries w1w2 + w2w3, gap 2 carries w1w3
        assert abs(report.pair_weights[0] - 0.25) <= 1e-7
        assert abs(report.pair_weights[1] - 0.0625) <= 1e-7
        assert abs(report.dc - 0.375) <= 1e-7

    def test_constant_record(self):
        grid = 0.3 * np.arange(16)
        rec = MeasurementRecord(grid, np.ones_like(grid), "up", "probability")
        report = probability_mode_analysis(rec)
        assert report.gaps == ()
        assert abs(report.dc - 1.0) <= 1e-10

    def test_requires_probability_mode(self):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "up", "amplitude", safe_grid(spec))
        with pytest.raises(ValueError, match="probability"):
            probability_mode_analysis(rec)


class TestRecordFiles:
    def test_amplitude_round_trip(self, tmp_path):
        spec = pst_preset(3, "standard")
        rec = synthesize_record(spec, "up", "amplitude", safe_grid(spec))
        path = write_record_csv(rec, tmp_path / "up.csv")
        again = read_record_csv(path, "up")
        assert again.mode == "amplitude"
        assert np.array_equal(again.times, rec.times)
        assert np.array_equal(again.values, rec.values)

    def test_probability_round_trip(self, tmp_path):
        spec = pst_preset(2, "standard")
        rec = synthesize_record(spec, "down", "probability", safe_grid(spec))
        path = write_record_csv(rec, tmp_path / "down.csv")
        again = read_record_csv(path, "down")
        assert again.mode == "probability"
        assert np.array_equal(again.values, rec.values)

    def test_header_detection(self, tmp_path):
        path = tmp_path / "weird.csv"
        path.write_text("time,value\n0,1\n")
        with pytest.raises(ValueError, match="record header"):
            read_record_csv(path, "up")

    def test_tomography_from_record_files(self, tmp_path):
        rng = np.random.default_rng(55)
        spec = random_engineered(rng, 4)
        grid = safe_grid(spec)
        paths = {}
        for ch in ("up", "down"):
            rec = synthesize_record(spec, ch, "amplitude", grid)
            paths[ch] = write_record_csv(rec, tmp_path / f"{ch}.csv")
        result = tomography_from_records(
            read_record_csv(paths["up"], "up"),
            read_record_csv(paths["down"], "down"), order=4)
        assert np.max(np.abs(result.a_abs - np.abs(spec.a))) <= 1e-7
        assert np.max(np.abs(result.C - np.array(spec.C))) <= 1e-7

    def test_channel_mismatch_rejected(self):
        spec = pst_preset(2, "standard")
        grid = safe_grid(spec)
        up = synthesize_record(spec, "up", "amplitude", grid)
        with pytest.raises(ValueError, match="down-channel"):
            tomography_from_records(up, up, order=2)


class TestMatrixPencil:
    def test_exact_recovery(self):
        rng = np.random.default_rng(36)
        energies = np.sort(rng.uniform(-3, 3, 6))
        weights = rng.uniform(0.1, 1.0, 6)
        weights /= weights.sum()
        dt = np.pi / (1.3 * 3.0)
        grid = dt * np.arange(64)
        signal = np.array([np.sum(weights * np.exp(1j * energies * t)) for t in grid])
        est_e, est_w, _ = matrix_pencil(signal, dt, order=6)
        assert np.max(np.abs(est_e - energies)) <= 1e-9
        assert np.max(np.abs(est_w.real - weights)) <= 1e-9

    def test_adaptive_order(self):
        dt = 0.25
        grid = dt * np.arange(40)
        signal = 0.6 * np.exp(1j * 1.1 * grid) + 0.4 * np.exp(-1j * 0.7 * grid)
        est_e, _, diag = matrix_pencil(signal, dt, order=None)
        assert diag["order"] == 2
        assert np.allclose(np.sort(est_e), [-0.7, 1.1], atol=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            matrix_pencil(np.ones(3, dtype=complex), 0.1)
