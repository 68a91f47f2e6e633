import numpy as np

from spin1chain import kernels


def reference_series(energies, coeffs, times, sign):
    return np.array([np.sum(coeffs * np.exp(1j * sign * energies * t)) for t in times])


def test_phase_series_matches_reference():
    rng = np.random.default_rng(0)
    energies = rng.uniform(-5, 5, 17)
    coeffs = rng.normal(size=17) + 1j * rng.normal(size=17)
    times = np.linspace(0, 7, 301)
    for sign in (1.0, -1.0):
        out = kernels.phase_series(energies, coeffs, times, sign)
        assert np.max(np.abs(out - reference_series(energies, coeffs, times, sign))) <= 1e-12


def test_phase_series_crosses_chunk_seam():
    rng = np.random.default_rng(1)
    energies = rng.uniform(-3, 3, 33)
    coeffs = rng.normal(size=33) + 1j * rng.normal(size=33)
    times = np.linspace(0, 20, kernels._CHUNK + 4001)
    for sign in (1.0, -1.0):
        direct = (coeffs * np.exp(1j * sign * np.outer(times, energies))).sum(axis=1)
        out = kernels.phase_series(energies, coeffs, times, sign)
        assert np.max(np.abs(out - direct)) <= 1e-12


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"


def test_shape_validation():
    times = np.linspace(0, 1, 10)
    try:
        kernels.phase_series(np.ones(3), np.ones(4, dtype=complex), times)
    except ValueError:
        pass
    else:
        raise AssertionError("mismatched shapes must be rejected")
