"""Single-site spin-1 operators and the labels of chain basis states.

The 3x3 matrices here are the local terms that :mod:`~spin1chain.hamiltonians`
builds every chain from.  Local basis order is (|1>, |0>, |-1>) mapped to
indices (0, 1, 2), so Sz = diag(1, 0, -1).  Chain basis states are big-endian
base-3 integers with site 1 the most significant trit; the product state
|m_1 m_2 ... m_n> therefore has index sum_k trit(m_k) * 3^(n-k).
"""

import numpy as np

SQRT2 = np.sqrt(2.0)

SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
SZ2 = SZ @ SZ

# transition operators between the m=0 level and the two excited levels:
# A1 = |1><0| moves an up excitation in, A2 = |-1><0| a down excitation.
A1 = np.zeros((3, 3), dtype=complex)
A1[0, 1] = 1.0
A2 = np.zeros((3, 3), dtype=complex)
A2[2, 1] = 1.0

_TRIT_BY_TOKEN = {"1": 0, "0": 1, "m": 2}


def basis_index(label, n=None):
    """Index of a product basis state given per-site tokens.

    ``label`` is a string over {1, 0, m} (m denotes the m=-1 level), site 1
    first, e.g. "100" for an up excitation on site 1 of a 3-site chain.
    """
    if n is not None and len(label) != n:
        raise ValueError(f"state label {label!r} has {len(label)} sites, expected {n}")
    idx = 0
    for ch in label:
        try:
            idx = idx * 3 + _TRIT_BY_TOKEN[ch]
        except KeyError:
            raise ValueError(f"invalid site token {ch!r} in {label!r}; use 1, 0 or m") from None
    return idx

