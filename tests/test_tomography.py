import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from spin1chain import tomography
from spin1chain.hamiltonians import ChainSpec, pst_preset
from spin1chain.linalg import eig_hermitian
from spin1chain.tomography import (
    MeasurementRecord,
    SpectralData,
    _hankel_product,
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

    @pytest.mark.parametrize("mode", ["amplitude", "probability"])
    def test_file_bytes_match_per_value_format(self, tmp_path, mode):
        def per_value(record):
            if record.mode == "amplitude":
                lines = ["t,re,im"] + [f"{t:.17g},{v.real:.17g},{v.imag:.17g}"
                                       for t, v in zip(record.times, record.values)]
            else:
                lines = ["t,p"] + [f"{t:.17g},{v:.17g}"
                                   for t, v in zip(record.times, record.values)]
            return "".join(line + "\n" for line in lines).encode()

        spec = pst_preset(4, "standard")
        grid = safe_grid(spec)
        records = [synthesize_record(spec, "up", mode, grid),
                   synthesize_record(spec, "down", mode, grid, shots=1000, seed=9)]
        special = np.array([-0.0, 5e-324, 0.0, 1.0, 0.1])
        values = special + 1j * special[::-1] if mode == "amplitude" else special
        records.append(MeasurementRecord(times=np.arange(5.0) - 2.0, values=values,
                                         channel="up", mode=mode, shots=10))
        for k, rec in enumerate(records):
            path = write_record_csv(rec, tmp_path / f"{k}.csv")
            assert path.read_bytes() == per_value(rec)

    @pytest.mark.parametrize("row", ["0.1,nan,0", "nan,0.5,0", "0.1,0.5,inf"])
    def test_non_finite_field_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,re,im\n0,1,0\n{row}\n0.2,0.5,0.5\n")
        with pytest.raises(ValueError, match="must be finite"):
            read_record_csv(path, "up", shots=1000)

    def test_non_finite_probability_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,p\n0,1\n0.1,nan\n")
        with pytest.raises(ValueError, match="record values must be finite"):
            read_record_csv(path, "up")

    @pytest.mark.parametrize("header", ["t,re,im", "t,p"])
    def test_columns_parse_as_float_does(self, tmp_path, header):
        rng = np.random.default_rng(17)
        specials = ["-0.0", "5e-324", "0.1", "0.30000000000000004", "2.2250738585072014e-308"]
        randoms = [f"{x:.17g}" for x in rng.uniform(0.0, 1.0, 20)]
        times = ["-0.0"] + [f"{x:.17g}" for x in np.cumsum(rng.uniform(0.1, 1.0, 24))]
        columns = [specials + randoms] if header == "t,p" else [
            specials + randoms, randoms[::-1] + [v[1:] if v[0] == "-" else "-" + v
                                                 for v in specials]]
        lines = [",".join(row) for row in zip(times, *columns)]
        path = tmp_path / "record.csv"
        path.write_text(header + "\n" + "\n".join(lines) + "\n")
        record = read_record_csv(path, "up", shots=1000)
        # the per-row parse the reader replaced
        rows = [line.split(",") for line in lines]
        times_ref = np.array([float(r[0]) for r in rows])
        if header == "t,re,im":
            values_ref = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
        else:
            values_ref = np.array([float(r[1]) for r in rows])
        assert record.times.tobytes() == times_ref.tobytes()
        assert record.values.tobytes() == values_ref.tobytes()
        assert np.signbit(record.times[0])

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


def parent_matrix_pencil(values, dt, order, t_start=0.0):
    """The pencil before the bounded parameter: row-loop Hankel, L = K // 2, full SVD."""
    y = np.asarray(values, dtype=complex)
    K = y.shape[0]
    L = K // 2
    hank = np.empty((K - L, L + 1), dtype=complex)
    for m in range(K - L):
        hank[m, :] = y[m:m + L + 1]
    _, svals, vh = np.linalg.svd(hank)
    diagnostics = {
        "singular_values": svals,
        "sv_ratio": float(svals[order - 1] / svals[0]),
        "ill_conditioned": bool(svals[order - 1] / svals[0] < 1e-8),
        "order": int(order),
    }
    w = vh[:order, :]
    poles = np.linalg.eigvals(np.linalg.pinv(w[:, :-1].T) @ w[:, 1:].T)
    angles = np.angle(poles)
    diagnostics["nyquist_margin"] = float(np.pi - np.max(np.abs(angles)))
    diagnostics["aliasing_risk"] = bool(np.max(np.abs(angles)) > 0.995 * np.pi)
    energies = angles / dt
    tgrid = t_start + dt * np.arange(K)
    vand = np.exp(1j * np.outer(tgrid, energies))
    weights, *_ = np.linalg.lstsq(vand, y, rcond=None)
    order_idx = np.argsort(energies)
    return energies[order_idx], weights[order_idx], diagnostics


def unitary_matrix(size):
    """The sparse unitary Q of Unitary ESPRIT, whose rows are fixed by the exchange
    matrix up to conjugation (P Q = conj(Q))."""
    half, odd = divmod(size, 2)
    eye, exchange = np.eye(half), np.eye(half)[::-1]
    q = np.zeros((size, size), dtype=complex)
    q[:half, :half], q[:half, half + odd:] = eye, 1j * eye
    q[half + odd:, :half], q[half + odd:, half + odd:] = exchange, -1j * exchange
    if odd:
        q[half, half] = np.sqrt(2.0)
    return q / np.sqrt(2.0)


def unitary_reference_svd(values):
    """Q_p, and the left singular vectors and singular values of the real form
    Q_p^H Z Q_2N of Z = [X, P conj(X) P] for X = H^T at L = K // 2, from
    explicit matrices and a complex SVD (the real form's imaginary part is
    rounding)."""
    y = np.asarray(values, dtype=complex)
    K = y.shape[0]
    L = K // 2
    x = np.empty((L + 1, K - L), dtype=complex)
    for i in range(L + 1):
        x[i, :] = y[i:i + K - L]
    z = np.hstack((x, x.conj()[::-1, ::-1]))
    q_p, q_2n = unitary_matrix(L + 1), unitary_matrix(2 * (K - L))
    real_form = q_p.conj().T @ z @ q_2n
    assert np.max(np.abs(real_form.imag)) <= 1e-13 * np.max(np.abs(real_form))
    u, svals, _ = np.linalg.svd(real_form, full_matrices=False)
    return q_p, u, svals


def parent_unitary_pencil(values, dt, order, t_start=0.0):
    """The forward-backward pencil from explicit matrices: L = K // 2, and the
    signal subspace from :func:`unitary_reference_svd`."""
    y = np.asarray(values, dtype=complex)
    K = y.shape[0]
    q_p, u, svals = unitary_reference_svd(y)
    diagnostics = {
        "singular_values": svals,
        "sv_ratio": float(svals[order - 1] / svals[0]),
        "ill_conditioned": bool(svals[order - 1] / svals[0] < 1e-8),
        "order": int(order),
    }
    w = (q_p @ u[:, :order]).T
    poles = np.linalg.eigvals(np.linalg.pinv(w[:, :-1].T) @ w[:, 1:].T)
    angles = np.angle(poles)
    diagnostics["nyquist_margin"] = float(np.pi - np.max(np.abs(angles)))
    diagnostics["aliasing_risk"] = bool(np.max(np.abs(angles)) > 0.995 * np.pi)
    energies = angles / dt
    tgrid = t_start + dt * np.arange(K)
    vand = np.exp(1j * np.outer(tgrid, energies))
    weights, *_ = np.linalg.lstsq(vand, y, rcond=None)
    order_idx = np.argsort(energies)
    return energies[order_idx], weights[order_idx], diagnostics


def assert_pencils_identical(new, old):
    for a, b in zip(new[:2], old[:2]):
        assert np.array_equal(a, b)
    assert new[2].keys() == old[2].keys()
    for key, value in old[2].items():
        assert np.array_equal(new[2][key], value), key


def assert_pencils_match(new, ref):
    """A dense pencil against :func:`parent_unitary_pencil`: the same diagnostics and
    every one of the L + 1 singular values within 1e-13 of the largest; the
    estimates within 1e-9, which the rounding of the two SVDs, carried through the
    eigenvalues and the least squares, stays far below on these records."""
    assert new[2].keys() == ref[2].keys()
    svals, ref_svals = new[2]["singular_values"], ref[2]["singular_values"]
    assert svals.size == ref_svals.size
    assert np.max(np.abs(svals - ref_svals)) <= 1e-13 * ref_svals[0]
    for key in ("order", "ill_conditioned", "aliasing_risk"):
        assert new[2][key] == ref[2][key], key
    for key in ("sv_ratio", "nyquist_margin"):
        assert abs(new[2][key] - ref[2][key]) <= 1e-9, key
    assert np.max(np.abs(new[0] - ref[0])) <= 1e-9
    assert np.max(np.abs(new[1] - ref[1])) <= 1e-9


def pencil_record(n, samples, shots, seed):
    """The up-channel amplitude record of a seeded random chain, at the safe step."""
    spec = random_engineered(np.random.default_rng(seed), n)
    dt = safe_grid(spec)[1]
    return spec, synthesize_record(spec, "up", "amplitude", dt * np.arange(samples),
                                   shots=shots, seed=seed)


@pytest.fixture
def pencil_calls(monkeypatch):
    """The record length and the ``noisy`` flag of each ``_pencil_svd`` call and
    the shape of each ``np.linalg.svd`` input, as lists that a test may clear
    between calls."""
    calls = {"K": [], "noisy": [], "svd": []}
    pencil_svd, svd = tomography._pencil_svd, np.linalg.svd

    def counted_pencil(y, noisy):
        calls["K"].append(y.shape[0])
        calls["noisy"].append(noisy)
        return pencil_svd(y, noisy)

    def counted_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(tomography, "_pencil_svd", counted_pencil)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def force_svd_branch(patch):
    """Put every dense pencil on the QR and SVD branch, whatever the probe
    found: the dense pencil from before the Gram branch."""
    pencil_svd = tomography._pencil_svd
    patch.setattr(tomography, "_pencil_svd", lambda y, noisy: pencil_svd(y, False))


@pytest.fixture
def svd_branch(monkeypatch):
    """The SVD branch for every record, so that it stays covered on shot records."""
    force_svd_branch(monkeypatch)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The input shape of each ``np.linalg`` QR, SVD and ``eigh`` call, as lists
    that a test may clear between calls."""
    calls = {}
    for name in ("qr", "svd", "eigh"):
        calls[name] = []

        def counted(a, *args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            calls[_name].append(np.shape(a))
            return _func(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def route_events(monkeypatch):
    """The pencil's steps in the order they run, as one list that a test may clear
    between calls: ``probe`` for each ``_shows_noise``, ``iterate`` for each
    ``_subspace_svd``, ``product`` for each FFT Hankel product, ``gram`` or
    ``qr + svd`` for each dense pencil by the ``noisy`` flag it was given, and
    ``qr``, ``svd`` and ``eigh`` for each such ``np.linalg`` call."""
    events = []

    def spy(name, func):
        def counted(*args, **kwargs):
            events.append(name)
            return func(*args, **kwargs)
        return counted

    for name in ("qr", "svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    for name, func in (("probe", "_shows_noise"), ("iterate", "_subspace_svd"),
                       ("product", "_hankel_product")):
        monkeypatch.setattr(tomography, func, spy(name, getattr(tomography, func)))
    pencil_svd = tomography._pencil_svd

    def counted_pencil(y, noisy):
        events.append("gram" if noisy else "qr + svd")
        return pencil_svd(y, noisy)

    monkeypatch.setattr(tomography, "_pencil_svd", counted_pencil)
    return events


def clear(calls):
    for shapes in calls.values():
        shapes.clear()


class TestBoundedPencil:
    @pytest.mark.parametrize("shots", [None, 10 ** 6])
    def test_default_length_matches_full_pencil(self, shots, svd_branch):
        # K = 16 * order: 8 * order == K // 2, so L = K // 2.  Shot records
        # and records of at most DENSE_PENCIL_COLS Hankel columns take the
        # dense pencil, with all L + 1 singular values, here on its SVD
        # branch (shot records take the Gram branch otherwise, see
        # test_gram_route_matches_unitary_reference); noise-free ones past
        # that iterate, with the block's order + OVERSAMPLING
        for n in range(3, 41):
            spec, rec = pencil_record(n, 16 * n, shots, 700 + n)
            dt = rec.grid_step()
            new = matrix_pencil(rec.values, dt, order=n)
            ref = parent_unitary_pencil(rec.values, dt, n)
            dense = shots is not None or n < 16
            svals = new[2]["singular_values"]
            assert svals.size == (8 * n + 1 if dense else n + 10) and new[2]["order"] == n
            top = svals.size if dense else n
            assert np.max(np.abs(svals[:top] - ref[2]["singular_values"][:top])) <= 1e-13 * svals[0]
            # a level below the weight floor is not determined by either route:
            # an iterated record with one is not compared, and a dense one
            # compares the energies of the levels the reference weighs above the
            # floor, and every weight within 1e-11 (a near-degenerate pair of
            # noise levels splits its weight up to 2.1e-12 apart, n = 39 with shots)
            if np.min(band_spectral_data(spec, "up").weights) >= tomography.WEIGHT_FLOOR:
                assert np.max(np.abs(new[0] - ref[0])) <= 1e-7
                assert np.max(np.abs(new[1] - ref[1])) <= 1e-12
            elif dense:
                kept = np.abs(ref[1]) >= tomography.WEIGHT_FLOOR
                assert np.max(np.abs(new[0] - ref[0])[kept]) <= 1e-7
                assert np.max(np.abs(new[1] - ref[1])) <= 1e-11

    def test_default_length_route_guards(self, linalg_calls, monkeypatch):
        products = []
        product = tomography._hankel_product

        def counted_product(*args):
            products.append(args[2])
            return product(*args)

        monkeypatch.setattr(tomography, "_hankel_product", counted_product)
        for n in (4, 7, 16, 23, 31, 40):
            K = 16 * n
            L = K // 2
            probe = (K - n, n + 1)
            # the dense pencil's SVD branch: QR of the real T^T, then the SVD of
            # its R; its Gram branch: the eigh of T T^T
            qr, svd, gram = (2 * (K - L), L + 1), (L + 1, L + 1), (L + 1, L + 1)
            _, exact = pencil_record(n, K, None, 700 + n)
            _, noisy = pencil_record(n, K, 10 ** 6, 700 + n)
            # noise-free: the thin rank test, then past DENSE_PENCIL_COLS the
            # iteration and no dense pencil, else the SVD branch
            clear(linalg_calls)
            matrix_pencil(exact.values, exact.grid_step(), order=n)
            assert linalg_calls["svd"].count(probe) == 1 and gram not in linalg_calls["eigh"]
            if L + 1 > tomography.DENSE_PENCIL_COLS:
                assert qr not in linalg_calls["qr"] and svd not in linalg_calls["svd"]
            else:
                assert linalg_calls["qr"] == [qr] and svd in linalg_calls["svd"]
            # shot-sampled: the thin test finds the noise floor, so no product
            # pair is spent, and the dense pencil takes no QR and no SVD of
            # the pencil, and one eigh of its Gram matrix
            products.clear()
            clear(linalg_calls)
            matrix_pencil(noisy.values, noisy.grid_step(), order=n)
            assert products == [] and linalg_calls["qr"] == []
            assert linalg_calls["svd"] == [probe] and linalg_calls["eigh"] == [gram]

    def test_probe_alone_picks_the_dense_branch(self, linalg_calls, monkeypatch):
        # the probe's answer, and nothing else, picks the branch: told the record
        # is noisy, a noise-free one takes the Gram branch, with no QR and no
        # SVD; told it has rank order, a shot record takes the QR and the SVD
        for n in (3, 8, 15):
            K = 16 * n
            L = K // 2
            for shots in (None, 10 ** 6):
                _, rec = pencil_record(n, K, shots, 700 + n)
                told = shots is None
                probes = []

                def probe(y, order, sv_tol, _told=told):
                    probes.append(order)
                    return _told

                monkeypatch.setattr(tomography, "_shows_noise", probe)
                clear(linalg_calls)
                matrix_pencil(rec.values, rec.grid_step(), order=n)
                assert probes == [n]
                if told:
                    assert linalg_calls["qr"] == [] and linalg_calls["svd"] == []
                    assert linalg_calls["eigh"] == [(L + 1, L + 1)]
                else:
                    assert linalg_calls["qr"] == [(2 * (K - L), L + 1)]
                    assert linalg_calls["svd"] == [(L + 1, L + 1)]
                    assert linalg_calls["eigh"] == []

    def test_noise_free_records_keep_the_svd_bits(self, monkeypatch):
        # noise-free records and probability mode never take the Gram branch:
        # every output equals, bit for bit, the pencil whose dense branch is
        # always the QR and SVD, the route from before the Gram branch
        records = []
        for n in (3, 5, 8, 12, 16, 24, 40):
            _, rec = pencil_record(n, 16 * n, None, 700 + n)
            records.append((rec.values, rec.grid_step(), n))
        for n in (3, 7, 12):
            _, rec = pencil_record(n, 768, None, 900 + n)
            records.append((rec.values, rec.grid_step(), n))
        for n in (3, 4):
            spec = random_engineered(np.random.default_rng(5), n)
            rec = synthesize_record(spec, "up", "probability", safe_grid(spec))
            records.append((rec.values.astype(complex), rec.grid_step(), None))
        new = [matrix_pencil(values, dt, order=order, sv_tol=1e-7 if order is None else 1e-8)
               for values, dt, order in records]
        force_svd_branch(monkeypatch)
        for got, (values, dt, order) in zip(new, records):
            old = matrix_pencil(values, dt, order=order, sv_tol=1e-7 if order is None else 1e-8)
            assert_pencils_identical(got, old)

    @pytest.mark.parametrize("n, samples", [(3, 768), (7, 768), (12, 768), (5, 1024)])
    def test_noisy_long_record_matches_full_pencil(self, n, samples):
        _, rec = pencil_record(n, samples, 10 ** 6, 800 + n)
        dt = rec.grid_step()
        new = matrix_pencil(rec.values, dt, order=n)
        ref = parent_unitary_pencil(rec.values, dt, n)
        if (n, samples) in DENSE_AT_NOISE_FLOOR:
            assert_pencils_match(new, ref)
            return
        # subspace iteration: the block's singular values, and the full
        # pencil's parameters within the iteration's tolerance
        svals = new[2]["singular_values"]
        assert svals.size == n + 10
        assert np.max(np.abs(svals[:n] - ref[2]["singular_values"][:n])) <= 1e-12 * svals[0]
        assert np.max(np.abs(new[0] - ref[0])) <= 1e-6
        assert np.max(np.abs(new[1] - ref[1])) <= 1e-6
        assert new[2]["order"] == n and not new[2]["aliasing_risk"]

    @pytest.mark.parametrize("samples", [768, 2048])
    def test_noise_free_long_record_iterates(self, samples):
        for n in range(3, 13):
            spec, up = pencil_record(n, samples, None, 900 + n)
            down = synthesize_record(spec, "down", "amplitude", up.times)
            result = tomography_from_records(up, down, order=n)
            for channel in ("up", "down"):
                assert result.diagnostics[channel]["singular_values"].size == n + 10
            assert np.max(np.abs(result.a_abs - np.abs(spec.a))) <= 1e-6
            assert np.max(np.abs(result.b_abs - np.abs(spec.b))) <= 1e-6
            assert np.max(np.abs(result.B - np.array(spec.B))) <= 1e-6
            assert np.max(np.abs(result.C - np.array(spec.C))) <= 1e-6

    @pytest.mark.parametrize("long_record", [False, True])
    def test_dense_pencil_r_factor_matches_plain_svd(self, long_record, monkeypatch):
        # the dense pencil takes the SVD of the R factor of its real
        # (2 (K - L)) x (L + 1) matrix T^T at L = K // 2; with the QR step
        # left out it is the plain SVD of T^T.  Noise-free records of
        # 16 * order samples, or of 254 (longer than 16 * order), have at most
        # DENSE_PENCIL_COLS Hankel columns
        for n in range(3, 13):
            samples = 254 if long_record else 16 * n
            _, rec = pencil_record(n, samples, None, 900 + n)
            dt = rec.grid_step()
            new = matrix_pencil(rec.values, dt, order=n)
            views = []

            def no_qr(a, mode):
                views.append(np.shape(a))
                return a

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "qr", no_qr)
                old = matrix_pencil(rec.values, dt, order=n)
            L = samples // 2
            assert views == [(2 * (samples - L), L + 1)]
            for got, want in zip(new[:2] + (new[2]["singular_values"],),
                                 old[:2] + (old[2]["singular_values"],)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # against the explicit-matrix reference: its complex SVD rounds
            # differently, and the pencil's eigenvalues and the least squares of
            # K rows carry that into the last digits of the estimates
            ref = parent_unitary_pencil(rec.values, dt, n)
            svals, ref_svals = new[2]["singular_values"], ref[2]["singular_values"]
            assert svals.size == L + 1
            assert np.max(np.abs(svals - ref_svals)) <= 1e-13 * ref_svals[0]
            for got, want in zip(new[:2], ref[:2]):
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("samples", [768, 2048])
    def test_long_record_probed_once_before_any_product(self, samples, route_events,
                                                         pencil_calls):
        # a record with 8 * order < K // 2 is probed first, like every record
        # with an order: the thin (K - order) x (order + 1) probe runs once,
        # before the first product pair, whether the iteration stops on the
        # record or hands it to the dense pencil, whose parameter is K // 2
        # too and whose branch the probe's verdict picks
        handed = 0
        for n in range(3, 13):
            for shots in (None, 10 ** 6):
                _, rec = pencil_record(n, samples, shots, 900 + n)
                route_events.clear()
                pencil_calls["K"].clear()
                _, _, diagnostics = matrix_pencil(rec.values, rec.grid_step(), order=n)
                assert route_events[:3] == ["probe", "svd", "iterate"]
                assert route_events.count("probe") == 1 and route_events[3] == "product"
                dense = [e for e in route_events if e in ("gram", "qr + svd")]
                assert pencil_calls["K"] == [samples] * len(dense)
                handed += len(dense)
                if shots is None:
                    svals = diagnostics["singular_values"]
                    assert dense == []
                    assert svals.size == n + 10 and svals[n] <= 1e-8 * svals[0]
                else:
                    assert dense in ([], ["gram"])
        assert handed > 0

    # one record per cell of matrix_pencil's route table, as (n, samples, shots,
    # the probe's verdict where a test sets it, the solvers that run): at most
    # DENSE_PENCIL_COLS Hankel columns, past them at the default length 16 n,
    # and longer; a verdict of rank order on a shot record makes the iteration
    # hand it back to the QR and SVD
    ROUTE_CASES = [
        (4, 64, None, None, ["qr + svd"]),
        (4, 64, 10 ** 6, None, ["gram"]),
        (20, 320, None, None, ["iterate"]),
        (20, 320, 10 ** 6, False, ["iterate", "qr + svd"]),
        (20, 320, 10 ** 6, None, ["gram"]),
        (3, 768, None, None, ["iterate"]),
        (12, 768, 10 ** 6, False, ["iterate", "qr + svd"]),
        (3, 768, 10 ** 6, None, ["iterate"]),
        (12, 768, 10 ** 6, None, ["iterate", "gram"]),
    ]

    @pytest.mark.parametrize("n, samples, shots, told, route", ROUTE_CASES, ids=[
        "64-rank", "64-floor", "320-rank", "320-rank-hand-back", "320-floor", "768-rank",
        "768-rank-hand-back", "768-floor", "768-floor-hand-back"])
    def test_probe_runs_once_before_any_factorization(self, n, samples, shots, told, route,
                                                      route_events, monkeypatch):
        # with an order, the probe is the first step of every route and runs
        # once; its verdict, K and the order pick the solvers that follow
        _, rec = pencil_record(n, samples, shots, 900 + n)
        if told is not None:
            def probe(y, order, sv_tol):
                route_events.append("probe")
                return told

            monkeypatch.setattr(tomography, "_shows_noise", probe)
        route_events.clear()
        matrix_pencil(rec.values, rec.grid_step(), order=n)
        assert route_events[0] == "probe" and route_events.count("probe") == 1
        assert [e for e in route_events if e in ("iterate", "gram", "qr + svd")] == route

    def test_noise_free_preset_long_records_at_larger_n(self):
        # records of 32 * n samples at n = 14-30 iterate; every energy and
        # weight of both bands is recovered (2.4e-9 at most on these records)
        for n in range(14, 31):
            spec = pst_preset(n, "standard")
            times = safe_grid(spec, samples_per_dim=32)
            for channel in ("up", "down"):
                record = synthesize_record(spec, channel, "amplitude", times)
                sd, diagnostics = extract_spectrum(record, order=n)
                truth = band_spectral_data(spec, channel)
                assert diagnostics["singular_values"].size == n + 10
                assert np.max(np.abs(sd.eigenvalues - truth.eigenvalues)) <= 1e-8
                assert np.max(np.abs(sd.weights - truth.weights)) <= 1e-8

    def test_dense_bound_records_are_probed_once(self, pencil_calls):
        # every default-length record with an order is bound for the dense
        # pencil unless the probe shows rank order past DENSE_PENCIL_COLS
        # columns, so each is probed exactly once, and the dense pencil takes
        # the Gram branch exactly when the probe found noise
        for n in range(3, 41):
            for shots in (None, 10 ** 6):
                _, rec = pencil_record(n, 16 * n, shots, 700 + n)
                pencil_calls["svd"].clear()
                pencil_calls["noisy"].clear()
                matrix_pencil(rec.values, rec.grid_step(), order=n)
                assert pencil_calls["svd"].count((15 * n, n + 1)) == 1
                dense = shots is not None or 8 * n + 1 <= tomography.DENSE_PENCIL_COLS
                assert pencil_calls["noisy"] == ([shots is not None] if dense else [])
        # without an order nothing is probed, and the SVD branch runs
        _, rec = pencil_record(40, 640, None, 740)
        pencil_calls["svd"].clear()
        pencil_calls["noisy"].clear()
        matrix_pencil(rec.values, rec.grid_step())
        assert pencil_calls["noisy"] == [False]
        assert pencil_calls["svd"] == [(321, 321)]

    def test_oversized_full_pencil_fails_early(self):
        samples = 2 * 6561 + 4
        # probability mode picks its order from every singular value, so it
        # keeps the dense SVD and its cap
        spec = random_engineered(np.random.default_rng(5), 3)
        dt = safe_grid(spec)[1]
        probability = synthesize_record(spec, "up", "probability", dt * np.arange(samples))
        with pytest.raises(ValueError) as info:
            probability_mode_analysis(probability)
        message = str(info.value)
        assert "13126 samples" in message and "6563x6564 Hankel" in message
        assert "dense cap 6561" in message and "eight sites" not in message
        # a shot-sampled amplitude record of that length runs on subspace iteration
        spec, noisy = pencil_record(3, samples, 10 ** 6, 5)
        sd, diagnostics = extract_spectrum(noisy, order=3)
        assert diagnostics["singular_values"].size == 13
        truth = band_spectral_data(spec, "up")
        assert np.max(np.abs(sd.eigenvalues - truth.eigenvalues)) <= 20 / np.sqrt(10 ** 6)
        # and so does a noise-free one
        spec, exact = pencil_record(3, samples, None, 5)
        sd, diagnostics = extract_spectrum(exact, order=3)
        assert diagnostics["singular_values"].size == 13
        truth = band_spectral_data(spec, "up")
        assert np.max(np.abs(sd.eigenvalues - truth.eigenvalues)) <= 1e-8


# a record at the shot-noise floor: its first sketch projects more
# iterations than the dense SVD costs, so it takes the dense route
DENSE_AT_NOISE_FLOOR = {(12, 768)}

# shot records whose dense pencil takes the Gram branch, as (n, samples,
# seed): every default length at n = 3-40, the records of
# test_dense_route_matches_unitary_reference and the long record that the
# iteration hands back
GRAM_CASES = ([(n, 16 * n, 700 + n) for n in range(3, 41)]
              + [(30, 512, 830), (3, 64, 803), (3, 254, 803), (12, 768, 812)])


def random_mirror_chain(rng, n):
    """Engineered chain with couplings and fields symmetric under site reversal."""
    def mirrored(values):
        return tuple((values + values[::-1]) / 2.0)

    return ChainSpec(n=n, kind="engineered",
                     a=mirrored(rng.uniform(0.5, 1.5, n - 1)),
                     b=mirrored(rng.uniform(0.5, 1.5, n - 1)),
                     B=mirrored(rng.uniform(-1.0, 1.0, n)),
                     C=mirrored(rng.uniform(0.5, 2.0, n)))


def tomography_passes(spec, shots, seed):
    """Whether tomography of ``spec`` from records at the CLI's default length
    and step recovers |a|, |b|, B and C within 1e-6 (noise-free) or 20 shot-noise
    units (shots)."""
    times = safe_grid(spec)[1] * np.arange(max(16 * spec.n, 64))
    records = tomography.synthesize_records(spec, "amplitude", times, shots, seed)
    try:
        result = tomography.synthesized_tomography(spec, records)
    except ValueError:
        return False
    error = max(np.max(np.abs(np.asarray(got) - np.asarray(truth)))
                for got, truth in ((result.a_abs, np.abs(spec.a)), (result.b_abs, np.abs(spec.b)),
                                   (result.B, spec.B), (result.C, spec.C)))
    return error <= (1e-6 if shots is None else 20 / np.sqrt(shots))


# seeded random mirror chains: four per chain length noise-free at n = 3-15,
# and twelve per chain length with 1e6 shots at n = 3-14
ACCURACY_CASES = [(n, shots, 1000 * n + k) for shots, top, per in ((None, 15, 4), (10 ** 6, 14, 12))
                  for n in range(3, top + 1) for k in range(per)]


def test_unitary_pencil_accuracy_against_forward(monkeypatch):
    # every noise-free record is recovered by both pencils.  With shots the
    # two pencils' estimates differ at the noise scale, so a record near the
    # tolerance can pass with one and fail with the other, either way: the
    # unitary pencil must pass at least as many
    def forward(values, dt, order=None, t_start=0.0):
        return parent_matrix_pencil(values, dt, order, t_start)

    cases = [(random_mirror_chain(np.random.default_rng(seed), n), shots, seed)
             for n, shots, seed in ACCURACY_CASES]
    unitary = [tomography_passes(*case) for case in cases]
    monkeypatch.setattr(tomography, "matrix_pencil", forward)
    forward_passes = [tomography_passes(*case) for case in cases]
    noise_free = [k for k, (_, shots, _) in enumerate(ACCURACY_CASES) if shots is None]
    assert all(unitary[k] and forward_passes[k] for k in noise_free)
    shot = [k for k, (_, shots, _) in enumerate(ACCURACY_CASES) if shots is not None]
    assert sum(unitary[k] for k in shot) >= sum(forward_passes[k] for k in shot)


class TestSubspacePencil:
    @pytest.mark.parametrize("samples", [4, 5, 8, 9, 64, 65, 257])
    def test_fft_products_match_hankel(self, samples):
        rng = np.random.default_rng(samples)
        y = rng.standard_normal(samples) + 1j * rng.standard_normal(samples)
        L = samples // 2
        hank = sliding_window_view(y, L + 1)
        rows, cols = hank.shape
        v = rng.standard_normal((cols, 3)) + 1j * rng.standard_normal((cols, 3))
        u = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        y_hat = np.fft.fft(y)
        assert np.max(np.abs(_hankel_product(y_hat, v, rows) - hank @ v)) <= 1e-12
        assert np.max(np.abs(_hankel_product(y_hat, u.conj(), cols).conj()
                             - hank.conj().T @ u)) <= 1e-12

    def test_rerun_is_bit_identical(self):
        _, rec = pencil_record(5, 1024, 10 ** 6, 805)
        dt = rec.grid_step()
        first = matrix_pencil(rec.values, dt, order=5)
        assert first[2]["singular_values"].size == 15
        assert_pencils_identical(matrix_pencil(rec.values.copy(), dt, order=5), first)

    # at the noise floor, the first sketch projects more work than the
    # dense SVD; below DENSE_PENCIL_COLS columns the dense SVD is cheaper
    @pytest.mark.parametrize("n, samples", [(30, 512), (3, 64), (3, 254)])
    def test_dense_route_matches_unitary_reference(self, n, samples, svd_branch):
        # on the SVD branch; the Gram branch that these shot records take is
        # held to the reference by test_gram_route_matches_unitary_reference
        _, rec = pencil_record(n, samples, 10 ** 6, 800 + n)
        dt = rec.grid_step()
        new = matrix_pencil(rec.values, dt, order=n)
        assert new[2]["singular_values"].size == samples // 2 + 1
        assert_pencils_match(new, parent_unitary_pencil(rec.values, dt, n))

    @pytest.mark.parametrize("n, samples, seed", GRAM_CASES)
    def test_gram_route_matches_unitary_reference(self, n, samples, seed, pencil_calls):
        # a shot record's dense pencil takes the Gram branch: every singular
        # value within 1e-13 of the largest from the reference's SVD, the top
        # order subspace within (L + 1) times the Davis-Kahan scale
        # eps s[0]^2 / (s[order-1]^2 - s[order]^2), and estimates within 20
        # shot-noise units of the truth wherever the reference's are
        spec, rec = pencil_record(n, samples, 10 ** 6, seed)
        dt = rec.grid_step()
        new = matrix_pencil(rec.values, dt, order=n)
        assert pencil_calls["noisy"] == [True]
        ref = parent_unitary_pencil(rec.values, dt, n)
        _, u, ref_svals = unitary_reference_svd(rec.values)
        svals, vt = tomography._pencil_svd(np.ascontiguousarray(rec.values), True)
        assert np.array_equal(svals, new[2]["singular_values"])
        assert svals.size == samples // 2 + 1 and new[2]["order"] == n
        assert np.max(np.abs(svals - ref_svals)) <= 1e-13 * ref_svals[0]
        scale = np.finfo(float).eps * ref_svals[0] ** 2 / (ref_svals[n - 1] ** 2 - ref_svals[n] ** 2)
        top, ref_top = vt[:n], u[:, :n]
        distance = np.linalg.norm(top.T @ top - ref_top @ ref_top.conj().T, 2)
        assert distance <= (samples // 2 + 1) * scale
        truth = band_spectral_data(spec, "up")
        tol = 20 / np.sqrt(10 ** 6)
        for got, want, exact in zip(new[:2], ref[:2], (truth.eigenvalues, truth.weights)):
            if np.max(np.abs(want - exact)) <= tol:
                assert np.max(np.abs(got - exact)) <= tol

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match=f"model order must be at least 1, got {order}"):
            matrix_pencil(np.ones(64, dtype=complex), 0.1, order=order)

    @pytest.mark.parametrize("samples, order", [(256, 128), (256, 200), (2048, 1024)])
    def test_order_above_pencil_rejected(self, samples, order, route_events):
        # refused before the probe and every factorization
        y = np.random.default_rng(order).standard_normal(samples) + 0j
        message = f"model order {order} too large for {samples} samples"
        with pytest.raises(ValueError, match=message):
            matrix_pencil(y, 0.1, order=order)
        assert route_events == []

    def test_order_above_pencil_past_the_cap_names_the_cap(self, route_events):
        # past the dense cap, a too large order gets the cap's message, also
        # before any step
        samples = 2 * 6561 + 4
        with pytest.raises(ValueError, match="6563x6564 Hankel matrix, above the dense cap 6561"):
            matrix_pencil(np.ones(samples, dtype=complex), 0.1, order=samples // 2)
        assert route_events == []

    def test_stalled_iteration_names_the_ratio(self, monkeypatch):
        # a tolerance no change can meet: without a dense route the
        # iteration must stop once the change no longer falls
        monkeypatch.setattr(tomography, "SUBSPACE_TOL", -1.0)
        _, rec = pencil_record(3, 256, 10 ** 6, 803)
        with pytest.raises(ValueError, match=r"stopped improving .* \(ratio \d"):
            tomography._subspace_svd(rec.values, 3, dense_allowed=False)

    def test_long_record_memory(self, run_limited):
        # the dense pencil of 65536 samples would need a 32768x32769 Hankel
        # matrix (17 GB) and its SVD; subspace iteration stays at O(K order)
        code = (
            "import tracemalloc, numpy as np\n"
            "from spin1chain.hamiltonians import pst_preset\n"
            "from spin1chain.tomography import synthesize_record, extract_spectrum\n"
            "spec = pst_preset(3, 'standard')\n"
            "rec = synthesize_record(spec, 'up', 'amplitude', 0.5 * np.arange(65536),\n"
            "                        shots=10**6, seed=3)\n"
            "tracemalloc.start()\n"
            "sd, diagnostics = extract_spectrum(rec, 3)\n"
            "print(tracemalloc.get_traced_memory()[1], diagnostics['singular_values'].size)\n")
        done = run_limited(code)
        assert done.returncode == 0, done.stderr
        peak, size = map(int, done.stdout.split())
        assert size == 13
        assert peak < 256 << 20
