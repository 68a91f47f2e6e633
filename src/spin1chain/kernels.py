"""The phase-sum kernel behind amplitude scans and record synthesis.

The dominant inner loop of this package is the evaluation of phase sums

    f(t_k) = sum_j c_j * exp(i * sign * E_j * t_k)

over long time grids (amplitude scans, fidelity traces, synthetic
measurement records).  Every grid is uniform, t_k = t_0 + k*dt bit for bit
(:func:`uniform_step`; a grid of one time has dt = 0).  On such a grid the
phase factors split into a per-block base phase and a small shared table,

    exp(i s E (t_{bB} + j dt)) = exp(i s E t_{bB}) * exp(i s E j dt),

with blocks of B = ceil(sqrt(N)) points, so the series is one GEMM of an
(N/B) x m weight matrix with a B x m table: about 2*sqrt(N)*m complex
exponentials instead of N*m.  Each base phase is taken from the grid time
t_{bB} itself, so no error builds up along the grid (:func:`block_phases`,
which the matrix pencil's Vandermonde reads too).
"""

import math

import numpy as np


def backend_name():
    """Name of the kernel implementation, recorded in benchmark environments."""
    return "numpy"


def uniform_step(times):
    """The step dt = times[1] - times[0] of a phase-sum grid, 0.0 for a grid of
    one time.  Every grid is finite, strictly increasing and uniform bit for
    bit; any other is refused with a ValueError that names its first fault."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite (a NaN or inf is present)")
    dt = times[1] - times[0] if times.size > 1 else 0.0
    grid = np.arange(times.size, dtype=np.float64)  # scaled in place: one N-point array
    grid *= dt
    grid += times[0]
    if np.array_equal(times, grid) and (dt > 0 or times.size == 1):
        return dt
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    raise ValueError("times must be a uniform grid: times[k] == times[0] + k*dt bit for bit")


def _phases(times, energies, sign):
    """exp(i*sign*t*E) for every (t, E) pair."""
    z = np.outer(times, energies) * (1j * sign)
    return np.exp(z, out=z)


def block_phases(times, dt, energies, sign):
    """exp(i*sign*E*t) on the uniform grid ``times`` of step ``dt``, split
    into blocks of B = isqrt(N - 1) + 1 points: (base, table), with
    base[b] = exp(i s E times[b*B]) at each block's start and
    table[j] = exp(i s E j dt), so the factor at times[b*B + j] is
    base[b] * table[j]."""
    block = math.isqrt(times.shape[0] - 1) + 1
    return _phases(times[::block], energies, sign), _phases(dt * np.arange(block), energies, sign)


def phase_series(energies, coeffs, times, sign=1.0):
    """Evaluate sum_j coeffs[j] * exp(i*sign*energies[j]*t) on a uniform time grid."""
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    times = np.ascontiguousarray(times, dtype=np.float64)
    if energies.shape != coeffs.shape:
        raise ValueError("energies and coeffs must have matching shapes")
    base, table = block_phases(times, uniform_step(times), energies, float(sign))
    return ((base * coeffs) @ table.T).ravel()[:times.shape[0]]
