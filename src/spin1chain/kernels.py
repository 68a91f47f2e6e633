"""The phase-sum kernel behind amplitude scans and record synthesis.

The dominant inner loop of this package is the evaluation of phase sums

    f(t_k) = sum_j c_j * exp(i * sign * E_j * t_k)

over long time grids (amplitude scans, fidelity traces, synthetic
measurement records).  Every grid the package builds is uniform,
t_k = t_0 + k*dt.  On such a grid the phase factors split into a per-block
base phase and a small shared table,

    exp(i s E (t_{bB} + j dt)) = exp(i s E t_{bB}) * exp(i s E j dt),

with blocks of B = ceil(sqrt(N)) points, so the series is one GEMM of an
(N/B) x m weight matrix with a B x m table: about 2*sqrt(N)*m complex
exponentials instead of N*m.  Each base phase is taken from the grid time
t_{bB} itself, so no error builds up along the grid (:func:`block_phases`,
which the matrix pencil's Vandermonde reads too).  Any other grid is
evaluated directly, one chunk of time points at a time.
"""

import math

import numpy as np

# bytes of exp(i t E) materialized per chunk on grids that are not uniform;
# the chunk's transient peak is 1.5x this (the float phases live alongside)
_CHUNK_BYTES = 64 << 20


def backend_name():
    """Name of the kernel implementation, recorded in benchmark environments."""
    return "numpy"


def _uniform_step(times):
    """dt when times == times[0] + dt*arange(N) bit for bit, else None."""
    if times.shape[0] < 2:
        return None
    dt = times[1] - times[0]
    if np.array_equal(times, times[0] + dt * np.arange(times.shape[0])):
        return dt
    return None


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
    """Evaluate sum_j coeffs[j] * exp(i*sign*energies[j]*t) on a time grid."""
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    times = np.ascontiguousarray(times, dtype=np.float64)
    if energies.shape != coeffs.shape:
        raise ValueError("energies and coeffs must have matching shapes")
    sign = float(sign)
    n = times.shape[0]
    dt = _uniform_step(times)
    if dt is not None:
        base, table = block_phases(times, dt, energies, sign)
        return ((base * coeffs) @ table.T).ravel()[:n]
    out = np.empty(n, dtype=np.complex128)
    rows = max(1, _CHUNK_BYTES // (16 * max(energies.shape[0], 1)))
    for s in range(0, n, rows):
        out[s:s + rows] = _phases(times[s:s + rows], energies, sign) @ coeffs
    return out
