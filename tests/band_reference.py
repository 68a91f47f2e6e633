"""Dense band matrices for the tests.

The package holds an excitation band as its Jacobi data ``(diag, off)``
(:func:`spin1chain.hamiltonians.band`).  :func:`dense_band` is the band as a
full tridiagonal matrix, the form its solve and its Gershgorin bound are
checked against.  :func:`sigma_labels` names the sigma states, the vacuum and
the one-excitation states, whose block of H holds the two bands.
"""

import numpy as np

from spin1chain.hamiltonians import band


def dense_band(spec, channel):
    """The n x n tridiagonal matrix of one band of an engineered chain."""
    diag, off = band(spec, channel)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def sigma_labels(n):
    """Basis labels of the sigma states of an n-site chain in sigma order: an up
    excitation on sites 1..n, the vacuum, then a down excitation on sites 1..n."""
    vac = "0" * n
    return ([vac[:i] + "1" + vac[i + 1:] for i in range(n)] + [vac]
            + [vac[:i] + "m" + vac[i + 1:] for i in range(n)])
