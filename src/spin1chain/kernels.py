"""The phase-sum kernel behind amplitude scans and record synthesis.

The dominant inner loop of this package is the evaluation of phase sums

    f(t_k) = sum_j c_j * exp(i * sign * E_j * t_k)

over long time grids (amplitude scans, fidelity traces, synthetic
measurement records).  It is evaluated in numpy, one chunk of the time
grid at a time.
"""

import numpy as np

# exp(i t E) is materialized in chunks; 2^16 rows keeps the temporary
# under ~100 MB for blocks up to dim ~100
_CHUNK = 1 << 16


def backend_name():
    """Name of the kernel implementation, recorded in benchmark environments."""
    return "numpy"


def phase_series(energies, coeffs, times, sign=1.0):
    """Evaluate sum_j coeffs[j] * exp(i*sign*energies[j]*t) on a time grid."""
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    times = np.ascontiguousarray(times, dtype=np.float64)
    if energies.shape != coeffs.shape:
        raise ValueError("energies and coeffs must have matching shapes")
    sign = float(sign)
    out = np.empty(times.shape[0], dtype=np.complex128)
    for s in range(0, times.shape[0], _CHUNK):
        tt = times[s:s + _CHUNK]
        out[s:s + _CHUNK] = np.exp(1j * sign * np.outer(tt, energies)) @ coeffs
    return out
