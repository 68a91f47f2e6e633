"""Transfer amplitudes, scans and qutrit fidelities.

Evolution is computed from a cached Hermitian eigendecomposition, or from
the solve of one band of an engineered chain, with the exponent convention
exp(+iHt) by default (``sign=-1`` for the physical convention).  Scans over
dense time grids are evaluated through the kernels module, the hot path.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .hamiltonians import CHANNELS, band_eigensystem
from .linalg import evolution_cache
from .parity import mirror_check  # noqa: F401  (the benchmark traces dynamics.mirror_check)
from .spin_ops import basis_index


def _state_index(state, dim):
    if isinstance(state, str):
        n = len(state)
        if 3 ** n != dim:
            raise ValueError(f"state label {state!r} has {n} sites, so it addresses 3^{n} "
                             f"product states, but the operator has dimension {dim}")
        return basis_index(state)
    idx = int(state)
    if not 0 <= idx < dim:
        raise ValueError(f"basis index {idx} out of range for dimension {dim}")
    return idx


def _transfer_terms(op, source, target):
    """Eigenvalues E_k and weights <target|v_k><v_k|source> of an amplitude."""
    es = evolution_cache(op).eigensystem
    src, tgt = (_state_index(state, es.dim) for state in (source, target))
    target_row, source_row = es.eigenvector_rows([tgt, src])
    return es.eigenvalues, target_row * np.conj(source_row)


def _band_terms(spec, channel, source, target):
    """:func:`_transfer_terms` between two sites (0..n-1) of one band of an engineered chain."""
    energies, vectors = band_eigensystem(spec, channel)
    src, tgt = (_state_index(site, spec.n) for site in (source, target))
    return energies, vectors[tgt] * np.conj(vectors[src])


@dataclass(frozen=True)
class AmplitudeScan:
    """Time series of |amplitude| and arg(amplitude) over a grid."""

    times: np.ndarray
    abs_values: np.ndarray
    arg_values: np.ndarray
    max_abs: float
    argmax_time: float
    first_peak_time: float

    def rows(self):
        """(N, 3) table of t, |amplitude|, arg(amplitude)."""
        return np.column_stack((self.times, self.abs_values, self.arg_values))


def amplitude_scan(op, source, target, times, sign=1):
    """Scan the transfer amplitude over a uniform time grid.

    The grid must pass :func:`~spin1chain.kernels.uniform_step`.  Reports the
    grid maximum of |amplitude|, the time achieving it, and the earliest
    grid time coming within 1e-6 of the maximum (ties from near-degenerate
    recurrences resolve to the first peak).
    """
    return _scan(times, sign, _transfer_terms, op, source, target)


def band_scan(spec, channel, source, target, times):
    """:func:`amplitude_scan` from site ``source`` to site ``target`` (0..n-1) of one
    band (:func:`~spin1chain.hamiltonians.band`), in the chain's time sign."""
    return _scan(times, spec.time_sign, _band_terms, spec, channel, source, target)


def _scan(times, sign, terms, *args):
    """Check the grid, then scan the amplitude of the terms ``terms(*args)`` gives,
    so a bad grid costs no eigensolve."""
    times = np.asarray(times, dtype=float)
    kernels.uniform_step(times)
    energies, coeffs = terms(*args)
    keep = np.abs(coeffs) > 1e-16
    series = kernels.phase_series(energies[keep], coeffs[keep], times, float(sign))
    abs_vals = np.abs(series)
    k = int(np.argmax(abs_vals))
    max_abs = float(abs_vals[k])
    first = int(np.argmax(abs_vals >= max_abs - 1e-6))
    return AmplitudeScan(
        times=times,
        abs_values=abs_vals,
        arg_values=np.angle(series),
        max_abs=max_abs,
        argmax_time=float(times[k]),
        first_peak_time=float(times[first]),
    )


# ---------------------------------------------------------------------------
# qutrit transfer through the engineered chain
# ---------------------------------------------------------------------------

# fixed qutrit test set: basis states, balanced and lopsided superpositions,
# including complex relative phases
QUTRIT_TEST_STATES = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)),
    (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0),
    (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)),
    (0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)),
    (1 / np.sqrt(3), 1j / np.sqrt(3), -1 / np.sqrt(3)),
    (np.sqrt(0.5), np.sqrt(0.3), np.sqrt(0.2) * np.exp(1j * np.pi / 4)),
    (0.0, 0.6, 0.8j),
)


def _band_series(spec, times):
    """(f_up, f_down): end-to-end amplitudes of the two excitation bands on a grid."""
    return tuple(kernels.phase_series(*_band_terms(spec, channel, 0, spec.n - 1), times,
                                      spec.time_sign) for channel in CHANNELS)


def _qutrit_weights(qutrit):
    """|alpha|^2, |beta|^2, |gamma|^2 of a normalized qutrit (alpha, beta, gamma)."""
    alpha, beta, gamma = (complex(x) for x in qutrit)
    norm = abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"qutrit amplitudes must be normalized, got |.|^2 = {norm}")
    return abs(alpha) ** 2, abs(beta) ** 2, abs(gamma) ** 2


def _fidelity(weights, f_up, f_down, phase_correct):
    """Fidelity from the qutrit's weights and the band amplitudes on a grid."""
    wa, wb, wg = weights
    if phase_correct:
        f_up, f_down = np.abs(f_up), np.abs(f_down)
    return np.abs(wa + wb * f_up + wg * f_down) ** 2


def qutrit_fidelity_series(spec, qutrit, times, phase_correct=False):
    """Fidelity of sending the qutrit (alpha, beta, gamma) through the chain.

    The chain starts in alpha|0..0> + beta|10..0> + gamma|m0..0> and the
    fidelity is taken against the same encoding on the last site after
    evolving for each time of the grid ``times``.  With ``phase_correct``
    the fidelity is maximized over diagonal corrections
    diag(1, e^{i th1}, e^{i th2}) on the (vacuum, up, down) components; the
    optimum is closed-form (each theta cancels the corresponding band's
    transfer phase).  One solve of each band serves the grid.
    """
    weights = _qutrit_weights(qutrit)
    return _fidelity(weights, *_band_series(spec, times), phase_correct)


def qutrit_transfer_fidelity(spec, qutrit, t, phase_correct=False):
    """Qutrit transfer fidelity at one time t (see ``qutrit_fidelity_series``)."""
    return float(qutrit_fidelity_series(spec, qutrit, [t], phase_correct)[0])


def qutrit_transfer_fidelities(spec, qutrits, t):
    """(raw, phase-corrected) transfer fidelity of each qutrit at one time t.

    One pair of band amplitudes serves every qutrit; each value equals
    ``qutrit_transfer_fidelity`` of that qutrit, bit for bit.
    """
    weights = [_qutrit_weights(qutrit) for qutrit in qutrits]
    bands = _band_series(spec, [t])
    return [tuple(float(_fidelity(w, *bands, corrected)[0]) for corrected in (False, True))
            for w in weights]
