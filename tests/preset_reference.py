"""Closed forms of the perfect-transfer presets, as references for the tests.

A preset band (:func:`~spin1chain.hamiltonians.pst_preset`) is c + J_x for spin
J = (n - 1)/2: the Krawtchouk chain of Christandl, Datta, Ekert & Landahl (PRL 92,
187902 (2004)).  Its up and down bands are the same matrix (B = 0 and a = b), so
for both bands of both variants, with c the field and sigma the time sign:

- the eigenvalues are exactly c + m, m = -J, ..., J;
- the first-site weights are C(n - 1, k) / 2^(n - 1), k = 0, ..., n - 1, the
  same in either order;
- the end-to-end amplitude is f(t) = e^(i sigma c t) (i sigma sin(t/2))^(n - 1).

They are computed here without any eigensolve, so they check the band route
at every length; they are no second route of the package.
"""

import math

import numpy as np


def preset_eigenvalues(spec):
    """c + m for m = -J..J, ascending; every value is exact in float64."""
    return spec.C[0] + (np.arange(spec.n) - (spec.n - 1) / 2)


def preset_weights(spec):
    """C(n - 1, k) / 2^(n - 1) for k = 0..n-1, each an exact integer ratio rounded
    once (Python's int true division), so none is lost below 2^-1022 early."""
    return np.array([math.comb(spec.n - 1, k) / 2 ** (spec.n - 1) for k in range(spec.n)])


def preset_amplitude(spec, times):
    """f(t) = e^(i sigma c t) (i sigma sin(t/2))^(n - 1) on the grid ``times``."""
    times = np.asarray(times, dtype=float)
    sigma = spec.time_sign
    phase = np.exp(1j * sigma * spec.C[0] * times)
    return phase * (1j * sigma * np.sin(times / 2)) ** (spec.n - 1)
