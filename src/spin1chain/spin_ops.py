"""Single-site spin-1 operators and their embedding into chain operators.

Local basis order is (|1>, |0>, |-1>) mapped to indices (0, 1, 2), so
Sz = diag(1, 0, -1).  Chain basis states are big-endian base-3 integers
with site 1 the most significant trit; the product state |m_1 m_2 ... m_n>
therefore has index sum_k trit(m_k) * 3^(n-k).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import check_dense_dim, hermiticity_deviation, kron_all

SQRT2 = np.sqrt(2.0)

SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
SZ2 = SZ @ SZ
SU = SZ @ SX + SX @ SZ
SV = SZ @ SY + SY @ SZ
IDENTITY3 = np.eye(3, dtype=complex)

# transition operators between the m=0 level and the two excited levels:
# A1 = |1><0| moves an up excitation in, A2 = |-1><0| a down excitation.
A1 = np.zeros((3, 3), dtype=complex)
A1[0, 1] = 1.0
A2 = np.zeros((3, 3), dtype=complex)
A2[2, 1] = 1.0

_PROJECTORS = {f"P{lbl}": np.diag([1.0 if i == k else 0.0 for i in range(3)]).astype(complex)
               for k, lbl in enumerate(("1", "0", "m"))}

_OPERATORS = {
    "Sx": SX,
    "Sy": SY,
    "Sz": SZ,
    "Su": SU,
    "Sv": SV,
    "Sz2": SZ2,
    "A1": A1,
    "A2": A2,
    "I": IDENTITY3,
    **_PROJECTORS,
}


@dataclass(frozen=True)
class SiteOperator:
    """A labeled 3x3 operator acting on one spin-1 site."""

    label: str
    mat: np.ndarray


@dataclass(frozen=True)
class ChainOperator:
    """An operator on the full 3^n product space.

    ``mat`` is a dense ndarray, or the scipy CSR matrix that
    ``chain_hamiltonian`` builds for long chains.  The CSR matrix is
    recognized by its ``toarray`` method, so scipy is not imported here.
    """

    mat: object
    n_sites: int

    @property
    def dim(self):
        return 3 ** self.n_sites

    @property
    def is_sparse(self):
        return hasattr(self.mat, "toarray")

    def dense(self):
        if self.is_sparse:
            check_dense_dim(self.dim)
            return self.mat.toarray()
        return np.asarray(self.mat)

    def hermiticity_deviation(self):
        if self.is_sparse:
            return abs(self.mat - self.mat.conj().T).max() if self.mat.nnz else 0.0
        return hermiticity_deviation(self.mat)

    def __matmul__(self, other):
        if isinstance(other, ChainOperator):
            if other.n_sites != self.n_sites:
                raise ValueError("chain length mismatch")
            return ChainOperator(self.mat @ other.mat, self.n_sites)
        return self.mat @ other


def site_operator(name):
    """Look up a single-site operator by label (Sx, Sy, Sz, Su, Sv, Sz2, A1, A2, I, P1, P0, Pm)."""
    try:
        return SiteOperator(label=name, mat=_OPERATORS[name])
    except KeyError:
        raise ValueError(
            f"unknown site operator {name!r}; valid labels: {sorted(_OPERATORS)}"
        ) from None


def ladder_identity_check():
    """Verify the decomposition of A1, A2 over the Hermitian basis {Su, Sv, Sx, Sy}.

    Checks, entrywise:

        A1        = (Su + i Sv + Sx + i Sy) / (2 sqrt 2)
        A2        = (-Su + i Sv + Sx - i Sy) / (2 sqrt 2)
        A2^dagger = (-Su - i Sv + Sx + i Sy) / (2 sqrt 2)

    The last line is the conjugate companion of the A2 decomposition; with
    the standard spin-1 matrices it is that combination (not A2 itself)
    which carries the plus signs on Sv and Sy.  Returns the max absolute
    deviation for each identity; all should be at machine precision.
    """
    comb_a1 = (SU + 1j * SV + SX + 1j * SY) / (2 * SQRT2)
    comb_a2 = (-SU + 1j * SV + SX - 1j * SY) / (2 * SQRT2)
    comb_a2_conj = (-SU - 1j * SV + SX + 1j * SY) / (2 * SQRT2)
    devs = {
        "A1": float(np.max(np.abs(comb_a1 - A1))),
        "A2": float(np.max(np.abs(comb_a2 - A2))),
        "A2_dagger": float(np.max(np.abs(comb_a2_conj - A2.conj().T))),
    }
    devs["passed"] = all(v <= 1e-14 for k, v in devs.items() if k != "passed")
    return devs


def _factors(n, placed):
    """Per-site factor list with 3x3 identities except at the placed sites."""
    return [placed.get(s, IDENTITY3) for s in range(1, n + 1)]


def embed(op, site, n):
    """Embed a single-site operator at ``site`` (1-based) into an n-site chain."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    mat = op.mat if isinstance(op, SiteOperator) else np.asarray(op)
    return ChainOperator(kron_all(_factors(n, {site: mat})), n)


def two_site(op_a, op_b, i, j, n):
    """Product embed(op_a, i) @ embed(op_b, j) for distinct sites i != j."""
    if i == j:
        raise ValueError("two_site requires distinct sites")
    for s in (i, j):
        if not 1 <= s <= n:
            raise ValueError(f"site {s} out of range 1..{n}")
    mat_a = op_a.mat if isinstance(op_a, SiteOperator) else np.asarray(op_a)
    mat_b = op_b.mat if isinstance(op_b, SiteOperator) else np.asarray(op_b)
    return ChainOperator(kron_all(_factors(n, {i: mat_a, j: mat_b})), n)


_TRIT_BY_TOKEN = {"1": 0, "0": 1, "m": 2}
_TOKEN_BY_TRIT = {v: k for k, v in _TRIT_BY_TOKEN.items()}


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


def basis_label(index, n):
    """Inverse of :func:`basis_index`."""
    tokens = []
    for k in range(n):
        tokens.append(_TOKEN_BY_TRIT[(index // 3 ** (n - 1 - k)) % 3])
    return "".join(tokens)
