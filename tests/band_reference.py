"""Dense band matrices for the tests.

The package holds an excitation band as its Jacobi data ``(diag, off)``
(:func:`spin1chain.hamiltonians.band`).  :func:`dense_band` is the band as a
full tridiagonal matrix, the form its solve and its Gershgorin bound are
checked against.
"""

import numpy as np

from spin1chain.hamiltonians import band


def dense_band(spec, channel):
    """The n x n tridiagonal matrix of one band of an engineered chain."""
    diag, off = band(spec, channel)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
