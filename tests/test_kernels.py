import re
import tracemalloc

import numpy as np
import pytest

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


# block size B = 50 for the grids of B^2 - 1 .. B^2 + 1 points; 125664 is
# the [0, 40pi) grid at dt = 1e-3
@pytest.mark.parametrize("points", [1, 2, 3, 2499, 2500, 2501, 125664])
@pytest.mark.parametrize("energies", ["random", "zero", "empty"])
def test_uniform_grid_matches_direct_exp(points, energies):
    rng = np.random.default_rng(points)
    m = {"random": 12, "zero": 5, "empty": 0}[energies]
    e = rng.uniform(-5, 5, m) if energies == "random" else np.zeros(m)
    coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
    coeffs /= max(1.0, np.abs(coeffs).sum())  # transfer weights have sum |c| <= 1
    t0, dt = 1.5, 1e-3
    times = np.arange(t0, t0 + (points - 0.5) * dt, dt)
    assert times.size == points
    assert kernels.uniform_step(times) == (times[1] - times[0] if points > 1 else 0.0)
    for sign in (1.0, -1.0):
        direct = np.exp(1j * sign * np.outer(times, e)) @ coeffs
        out = kernels.phase_series(e, coeffs, times, sign)
        assert out.shape == (points,)
        assert np.max(np.abs(out - direct)) <= 1e-12


def _peak_bytes(energies, coeffs, times):
    tracemalloc.start()
    try:
        kernels.phase_series(energies, coeffs, times)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phase_series_memory_bounded():
    # numpy reports its array allocations to tracemalloc
    rng = np.random.default_rng(2)
    m = 600
    energies = rng.uniform(-5, 5, m)
    coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
    uniform = np.arange(0.25, 100.0, 1e-3)
    n = uniform.size
    # the table path never materializes the N x m phase matrix
    assert _peak_bytes(energies, coeffs, uniform) < n * m * 16 / 8


def _jittered():
    times = 0.1 * np.arange(10)
    times[5] += 1e-12
    return times


@pytest.mark.parametrize("times, message", [
    (_jittered(), "a uniform grid: times[k] == times[0] + k*dt bit for bit"),
    ([0.0, 1.0, 3.0], "a uniform grid: times[k] == times[0] + k*dt bit for bit"),
    ([0.0, 0.0, 1.0], "strictly increasing"),
    ([0.0, 0.0], "strictly increasing"),
    ([1.0, 0.5, 0.0], "strictly increasing"),
    ([0.0, np.inf], "finite (a NaN or inf is present)"),
    ([np.nan, 1.0], "finite (a NaN or inf is present)"),
    ([np.nan], "finite (a NaN or inf is present)"),
    ([], "a non-empty 1-d grid"),
    ([[0.0, 1.0]], "a non-empty 1-d grid")],
    ids=["jittered", "uneven", "repeated", "constant", "decreasing", "infinite", "nan",
         "one-nan", "empty", "2-d"])
def test_bad_grid_refused(times, message):
    # the one grid check names the grid's first fault
    with pytest.raises(ValueError, match=f"^times must be {re.escape(message)}$"):
        kernels.uniform_step(times)
    with pytest.raises(ValueError, match=f"^times must be {re.escape(message)}$"):
        kernels.phase_series(np.ones(3), np.ones(3, dtype=complex), times)


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
