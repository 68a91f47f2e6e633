"""Transfer amplitudes, scans, qutrit fidelities and mirroring tests.

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
from .parity import mirror_commutator, mirror_parities
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
    """Scan the transfer amplitude over a monotone time grid.

    The grid is finite.  Reports the grid maximum of |amplitude|, the time
    achieving it, and the earliest grid time coming within 1e-6 of the
    maximum (ties from near-degenerate recurrences resolve to the first
    peak).
    """
    return _scan(times, sign, _transfer_terms, op, source, target)


def band_scan(spec, channel, source, target, times):
    """:func:`amplitude_scan` from site ``source`` to site ``target`` (0..n-1) of one
    band (:func:`~spin1chain.hamiltonians.band`), in the chain's time sign."""
    return _scan(times, spec.time_sign, _band_terms, spec, channel, source, target)


def _scan(times, sign, terms, *args):
    """Check the grid, then scan the amplitude of the terms ``terms(*args)`` gives."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite (a NaN or inf is present)")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
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


# ---------------------------------------------------------------------------
# mirroring test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MirrorCheckResult:
    is_mirror: bool
    phase: float  # global phase phi with U(t) ~ e^{i phi} M
    residual: float
    commutator_residual: float
    even_phases: tuple
    odd_phases: tuple


def _distance(z, w):
    """|z - w| rounded like the scalar ``abs`` of one complex number."""
    diff = z - w
    return np.hypot(diff.real, diff.imag)


def _distinct_phases(phases):
    """The unit-modulus phases in order, dropping each within 1e-9 of a kept earlier one.

    Equals the greedy loop that keeps a phase unless ``abs(phase - q) < 1e-9``
    for some kept ``q``, without comparing every pair: phases are sorted by
    angle and split into runs wherever neighbours lie more than 2e-9 apart
    (wrapping at +-pi).  On the unit circle such neighbours are more than
    1e-9 apart, so phases in different runs are never merged; off the
    circle angles say nothing about distance, hence the unit modulus.  A
    run whose members all lie within 1e-9 of its earliest member keeps only
    that one; any other run is decided by the greedy rule, one kept phase
    at a time.  Memory stays linear in the count.
    """
    tol = 1e-9
    phases = np.asarray(phases, dtype=complex)
    if not phases.size:
        return ()
    angle = np.angle(phases)
    order = np.argsort(angle, kind="stable")
    gap = np.diff(angle[order], append=angle[order[0]] + 2 * np.pi) > 2 * tol
    if gap.any():
        # start the circle just after a gap, so no run wraps around the ends
        shift = int(np.argmax(gap)) + 1
        order, gap = np.roll(order, -shift), np.roll(gap, -shift)
    else:
        gap[-1] = True
    starts = np.concatenate(([0], np.flatnonzero(gap[:-1]) + 1))
    run = np.cumsum(np.concatenate(([0], gap[:-1])))
    earliest = np.minimum.reduceat(order, starts)[run]
    covered = _distance(phases[order], phases[earliest]) < tol
    keep = np.zeros(phases.size, dtype=bool)
    keep[earliest] = True
    for r in np.unique(run[~covered]):
        members = np.sort(order[run == r])
        undecided = np.ones(members.size, dtype=bool)
        while undecided.any():
            first = members[np.argmax(undecided)]
            keep[first] = True
            undecided &= ~(_distance(phases[members], phases[first]) < tol)
            undecided[members == first] = False
    return tuple(complex(p) for p in phases[keep])


def mirror_check(op, t):
    """Test whether exp(i*H*t) equals the site inversion up to a phase.

    ``op`` is a :class:`~spin1chain.linalg.ChainOperator` and M its chain
    mirror.  Reports the optimal global phase, the residual ||U - e^{i phi}
    M||_2 (a mirror when it is at most 1e-8), the [H, M] commutator residual,
    and the distinct eigenphases exp(i E t) grouped by the mirror parity of
    their eigenvectors (mirroring requires each group to collapse to one
    value, the two groups differing by a factor -1).  ``t`` is finite, and the
    time sign folds into it (-t for the physical exp(-iHt)).

    U = e^{i phi} M makes M a function of H, so only an exact commuter ([H, M]
    residual 0) can mirror.  Its eigensystem holds each column's parity p_k,
    U and M share the eigenbasis, and so the phase is the angle of
    tr(M^T U) = sum_k p_k e^{i E_k t} and the residual is
    max_k |e^{i E_k t} - e^{i phi} p_k|, read from the eigenvalues and
    parities alone: no eigenvector and no unitary is formed.  An inexact
    commuter has no parities and never mirrors: it reports ``is_mirror``
    False, an infinite residual, a NaN phase and empty groups.
    """
    if not np.isfinite(t):
        raise ValueError(f"mirror_check needs a finite time, got {t!r}")
    cache, comm = mirror_commutator(op, "chain_mirror")
    if comm != 0:
        return MirrorCheckResult(is_mirror=False, phase=float("nan"), residual=float("inf"),
                                 commutator_residual=comm, even_phases=(), odd_phases=())
    es = cache.eigensystem
    signed = es.parities * np.exp(1j * es.eigenvalues * t)  # p_k e^{i E_k t}
    phi = float(np.angle(np.sum(signed)))
    # |e^{i E_k t} - e^{i phi} p_k| == |p_k e^{i E_k t} - e^{i phi}|, as p_k = +-1
    residual = float(np.max(np.abs(signed - np.exp(1j * phi))))
    vals, pars = mirror_parities(cache)
    phases = np.exp(1j * vals * t)
    return MirrorCheckResult(
        is_mirror=residual <= 1e-8,
        phase=phi,
        residual=residual,
        commutator_residual=comm,
        even_phases=_distinct_phases(phases[pars > 0]),
        odd_phases=_distinct_phases(phases[pars < 0]),
    )
