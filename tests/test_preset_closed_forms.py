"""The band route of both transfer presets against their closed forms
(tests/preset_reference.py), for both variants and both time signs, at lengths
that no dense band reference reaches."""

import dataclasses

import numpy as np
import pytest

from spin1chain.dynamics import (QUTRIT_TEST_STATES, band_scan, qutrit_fidelity_series,
                                 qutrit_transfer_fidelities)
from spin1chain.hamiltonians import CHANNELS, PRESET_VARIANTS, pst_preset
from spin1chain.tomography import band_spectral_data

from preset_reference import preset_amplitude, preset_eigenvalues, preset_weights

# the transfer CLI's default span, 4 pi, at pst-check's scan step, so that each
# band's two transfers (t = pi and 3 pi) and its returns are read
TIMES = np.arange(0.0, 4 * np.pi, 1e-2)

# the largest deviation from the closed forms over both variants, both time signs
# and both bands (numpy 2.4, OpenBLAS, one thread): eigenvalues, first-site
# weights (absolute), the amplitude read back from a scan's |f| and arg f on TIMES,
# and the fidelities (the ten test qutrits at t = pi and 1.3 and the balanced one on
# TIMES, raw and phase-corrected).  Each bound is 4 times its measurement, and
# 1e-15 where that read 0.  The error grows with n as eigh's does: its
# eigenvalues err by about |E| n eps, and the vectors are accurate in absolute
# terms only, so the weights are compared absolutely (the relative error of the
# smallest weight, 2^-(n-1), is 2e-10 at n = 40 and meaningless past it).
MEASURED = {
    2: (0.0, 1.1e-16, 3.1e-15, 2.0e-15),
    3: (8.9e-16, 3.3e-16, 4.8e-15, 3.4e-15),
    12: (1.8e-15, 3.6e-16, 1.0e-14, 3.9e-15),
    40: (2.8e-14, 1.4e-15, 5.7e-14, 2.0e-14),
    400: (1.7e-13, 1.6e-15, 5.5e-13, 2.1e-13),
    2000: (None, None, 2.4e-12, None),  # the standard preset's up band, time sign +1
}


def bounds(n):
    return [None if m is None else 4 * max(m, 2.5e-16) for m in MEASURED[n]]


def signed_presets():
    """(n, variant, time sign) of every case below n = 2000."""
    return [(n, variant, sign) for n in (2, 3, 12, 40, 400)
            for variant in PRESET_VARIANTS for sign in (1, -1)]


CASES = signed_presets()
IDS = [f"{variant}-{n}-{'plus' if sign > 0 else 'minus'}" for n, variant, sign in CASES]


def preset(n, variant, sign):
    return dataclasses.replace(pst_preset(n, variant), time_sign=sign)


def fidelity(qutrit, f, phase_correct):
    """|alpha|^2 + (|beta|^2 + |gamma|^2) f, squared in modulus, the two bands sharing
    f; with the phase correction, f is replaced by |f|."""
    wa, wb, wg = (abs(complex(x)) ** 2 for x in qutrit)
    return np.abs(wa + (wb + wg) * (np.abs(f) if phase_correct else f)) ** 2


def assert_spectral_data(spec, channel):
    eigenvalue_bound, weight_bound, _, _ = bounds(spec.n)
    data = band_spectral_data(spec, channel)
    assert np.max(np.abs(data.eigenvalues - preset_eigenvalues(spec))) <= eigenvalue_bound
    assert np.max(np.abs(data.weights - preset_weights(spec))) <= weight_bound


def assert_scan(spec, channel):
    _, _, amplitude_bound, _ = bounds(spec.n)
    scan = band_scan(spec, channel, 0, spec.n - 1, TIMES)
    got = scan.abs_values * np.exp(1j * scan.arg_values)
    assert np.max(np.abs(got - preset_amplitude(spec, TIMES))) <= amplitude_bound


@pytest.mark.parametrize("n, variant, sign", CASES, ids=IDS)
def test_band_spectral_data(n, variant, sign):
    for channel in CHANNELS:
        assert_spectral_data(preset(n, variant, sign), channel)


@pytest.mark.parametrize("n, variant, sign", CASES, ids=IDS)
def test_band_scan(n, variant, sign):
    for channel in CHANNELS:
        assert_scan(preset(n, variant, sign), channel)


@pytest.mark.parametrize("n, variant, sign", CASES, ids=IDS)
def test_pst_check_fidelities(n, variant, sign):
    spec = preset(n, variant, sign)
    bound = bounds(n)[3]
    for t in (np.pi, 1.3):
        f = preset_amplitude(spec, [t])[0]
        for qutrit, (raw, corrected) in zip(QUTRIT_TEST_STATES,
                                            qutrit_transfer_fidelities(spec, QUTRIT_TEST_STATES, t)):
            assert abs(raw - fidelity(qutrit, f, False)) <= bound
            assert abs(corrected - fidelity(qutrit, f, True)) <= bound
    f = preset_amplitude(spec, TIMES)
    qutrit = QUTRIT_TEST_STATES[3]  # the pst-check --scan state
    for phase_correct in (False, True):
        series = qutrit_fidelity_series(spec, qutrit, TIMES, phase_correct)
        assert np.max(np.abs(series - fidelity(qutrit, f, phase_correct))) <= bound


def test_standard_preset_scan_at_2000_sites():
    # one band of 2000 sites, past every dense band test: its end-to-end scan,
    # which reads every eigenvalue and the products of the phase-fixed vectors'
    # end entries (one eigh of about 1 s; the band memory smoke runs pst-check here)
    assert_scan(pst_preset(2000, "standard"), "up")
