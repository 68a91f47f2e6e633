"""Chain Hamiltonians, the single-excitation subspace, and transfer presets.

A :class:`ChainSpec` is the declarative source of truth for every
Hamiltonian.  Supported interaction kinds:

* ``heisenberg`` - sum of nearest-neighbor S.S terms;
* ``heisenberg_squared_mix`` - sum of (S.S + (S.S)^2)/2 terms, the
  normalization for which exp(i*pi*h) is a two-site SWAP;
* ``heisenberg_squared_sum`` - the same interaction without the 1/2,
  which is the normalization behind the three-site transfer amplitude
  (e^it - 3e^{3it} + 2e^{4it})/6 and its t = 2*pi/3 optimum;
* ``O1`` .. ``O5`` - candidate two-site couplings (uniform chain sums
  for n > 2);
* ``engineered`` - the two-band hopping model built from the A1/A2
  transition operators plus local Sz and Sz^2 fields.  This is the only
  kind whose dynamics is confined to the single-excitation subspace.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import MAX_DENSE_DIM, ChainOperator, entries_at, fix_eigenvector_phases
from .spin_ops import A1, A2, SX, SY, SZ, SZ2

SWAP2 = np.zeros((9, 9), dtype=complex)
for _a in range(3):
    for _b in range(3):
        SWAP2[_b * 3 + _a, _a * 3 + _b] = 1.0


def heisenberg_two_site():
    """S1.S2 on two sites (9x9)."""
    return np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)


def mix_two_site():
    """(S1.S2 + (S1.S2)^2) / 2; exp(i*pi* this) is a SWAP up to phase -1."""
    h = heisenberg_two_site()
    return 0.5 * (h + h @ h)


def squared_sum_two_site():
    """S1.S2 + (S1.S2)^2 without the 1/2 normalization."""
    h = heisenberg_two_site()
    return h + h @ h


def candidate_two_site(name):
    """Candidate couplings O1..O5 studied for their parity-resolved spectra.

    O5's quartic-cubic cross coupling is used in its site-symmetrized form
    Sx^2 x Sx + Sy^2 x Sy + Sx x Sx^2 + Sy x Sy^2 (the asymmetric variant
    does not commute with the two-site exchange and has no parity split).
    """
    sx2, sy2 = SX @ SX, SY @ SY
    forms = {
        "O1": lambda: np.kron(SX, SX) + np.kron(SY, SY),
        "O2": lambda: np.kron(SZ, SZ),
        "O3": lambda: np.kron(sx2, sx2) + np.kron(sy2, sy2),
        "O4": lambda: np.kron(SZ2, SZ2),
        "O5": lambda: np.kron(sx2, SX) + np.kron(sy2, SY) + np.kron(SX, sx2) + np.kron(SY, sy2),
    }
    try:
        return forms[name]()
    except KeyError:
        raise ValueError(f"unknown candidate interaction {name!r}; valid: O1..O5") from None


def h12():
    """The SWAP-generating two-site Hamiltonian as a ChainOperator."""
    return ChainOperator.from_terms([(1, mix_two_site())], 2)


CANDIDATE_NAMES = ("O1", "O2", "O3", "O4", "O5")

_TWO_SITE_BUILDERS = {
    "heisenberg": heisenberg_two_site,
    "heisenberg_squared_mix": mix_two_site,
    "heisenberg_squared_sum": squared_sum_two_site,
    **{name: (lambda nm=name: candidate_two_site(nm)) for name in CANDIDATE_NAMES},
}

KINDS = tuple(_TWO_SITE_BUILDERS) + ("engineered",)


class SpecError(ValueError):
    """A ChainSpec (or its JSON form) violates the schema."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ChainSpec:
    """Declarative chain description: length, interaction kind, couplings, fields.

    For ``kind="engineered"``, ``a``/``b`` are the up/down hopping strengths
    on the n-1 bonds and ``B``/``C`` the linear/quadratic field strengths on
    the n sites.  Other kinds ignore the coupling arrays (uniform unit
    couplings).  Every coupling must be a finite number (booleans, NaN and
    infinities are rejected).  ``time_sign``, the integer 1 or -1, selects
    the exponent sign in exp(+-iHt).
    """

    n: int
    kind: str
    a: tuple = field(default=())
    b: tuple = field(default=())
    B: tuple = field(default=())
    C: tuple = field(default=())
    time_sign: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise SpecError("chain length n must be an integer >= 2", "n")
        if self.kind not in KINDS:
            raise SpecError(f"unknown kind {self.kind!r}; valid: {KINDS}", "kind")
        if type(self.time_sign) is not int or self.time_sign not in (1, -1):
            raise SpecError(f"time_sign is {self.time_sign!r}; it must be the integer 1 or -1",
                            "time_sign")
        for name in ("a", "b", "B", "C"):
            raw = getattr(self, name)
            values = tuple(float(x) for x in raw)
            for k, (x, value) in enumerate(zip(raw, values)):
                if isinstance(x, (bool, np.bool_)) or not math.isfinite(value):
                    raise SpecError(f"entry {k} is {x!r}: couplings must be finite numbers",
                                    name)
            object.__setattr__(self, name, values)
        if self.kind == "engineered":
            for name, want in (("a", self.n - 1), ("b", self.n - 1), ("B", self.n), ("C", self.n)):
                if len(getattr(self, name)) != want:
                    raise SpecError(
                        f"kind=engineered requires {want} entries, got {len(getattr(self, name))}",
                        name,
                    )
        else:
            for name in ("a", "b", "B", "C"):
                got = len(getattr(self, name))
                if got not in (0,):
                    raise SpecError(f"kind={self.kind} takes no couplings, got {got}", name)

    _JSON_FIELDS = ("n", "kind", "a", "b", "B", "C", "time_sign")

    def to_json_dict(self):
        return {
            "n": self.n,
            "kind": self.kind,
            "a": list(self.a),
            "b": list(self.b),
            "B": list(self.B),
            "C": list(self.C),
            "time_sign": self.time_sign,
        }

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise SpecError("chain spec must be a JSON object")
        unknown = set(data) - set(cls._JSON_FIELDS)
        if unknown:
            raise SpecError(f"unknown fields {sorted(unknown)}", ".".join(sorted(unknown)))
        for key in ("n", "kind"):
            if key not in data:
                raise SpecError("required field missing", key)
        kwargs = {"n": data["n"], "kind": data["kind"], "time_sign": data.get("time_sign", 1)}
        for key in ("a", "b", "B", "C"):
            val = data.get(key, [])
            if not isinstance(val, list) or not all(isinstance(x, (int, float)) for x in val):
                raise SpecError("must be an array of numbers", key)
            kwargs[key] = tuple(val)
        if not isinstance(kwargs["n"], int):
            raise SpecError("must be an integer", "n")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _local_terms(spec):
    """(first site, 3x3 or 9x9 matrix) of each term of H, bonds first."""
    n = spec.n
    if spec.kind != "engineered":
        term9 = _TWO_SITE_BUILDERS[spec.kind]()
        return [(i, term9) for i in range(1, n)]
    hop_up = np.kron(A1, A1.conj().T)
    hop_up = hop_up + hop_up.conj().T
    hop_dn = np.kron(A2, A2.conj().T)
    hop_dn = hop_dn + hop_dn.conj().T
    return ([(i, spec.a[i - 1] * hop_up + spec.b[i - 1] * hop_dn) for i in range(1, n)]
            + [(i, spec.B[i - 1] * SZ + spec.C[i - 1] * SZ2) for i in range(1, n + 1)])


def chain_hamiltonian(spec):
    """Build the full-space 3^n Hamiltonian described by ``spec``.

    It is the sum of its local terms (:meth:`ChainOperator.from_terms`):
    no 3^n matrix is formed, so a chain of any length can be built.
    """
    return ChainOperator.from_terms(_local_terms(spec), spec.n)


# ---------------------------------------------------------------------------
# SWAP verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapCheckResult:
    is_swap_up_to_phase: bool
    phase: complex
    residual: float


def swap_check(unitary, tol=1e-10):
    """Decide whether a 9x9 unitary equals exp(i*phi) * SWAP for some phi.

    The phase minimizes the entrywise max deviation exactly.  Entries off
    the SWAP pattern do not depend on phi, and each of the nine on it,
    u_k, deviates by |u_k - e^{i phi}|, smallest at phi = arg u_k.  The max
    of the nine is therefore smallest at one of those nine phases or where
    two of the deviations are equal (at most 72 crossings).  These
    candidates follow the trace-aligned phase, which is exact whenever U
    really is a phased SWAP; all are scored at once.  Candidates within a
    relative 1e-13 of the best score tie: the trace-aligned phase is kept
    if it ties, otherwise the tied phase nearest 1 (a conjugate pair
    resolves to the positive angle), so the choice does not follow the
    last bits of U.  Non-unitary input is rejected.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (9, 9):
        raise ValueError(f"expected a 9x9 matrix, got {u.shape}")
    unit_dev = float(np.max(np.abs(u.conj().T @ u - np.eye(9))))
    if not unit_dev <= 1e-10:  # a NaN deviation is refused too
        raise ValueError(f"input is not unitary: ||U^dag U - I||_max = {unit_dev:.3e}")

    on = u[SWAP2 != 0]
    # |u_k - e^{i phi}| = |u_l - e^{i phi}| exactly where
    # |u_k - u_l| cos(phi - arg(u_k - u_l)) = (|u_k|^2 - |u_l|^2) / 2
    k, l = np.triu_indices(on.size, 1)
    diff = on[k] - on[l]
    reach = np.abs(diff)
    half_gap = (np.abs(on[k]) ** 2 - np.abs(on[l]) ** 2) / 2
    meet = (reach > 0) & (np.abs(half_gap) <= reach)
    centre = np.angle(diff[meet])
    spread = np.arccos(half_gap[meet] / reach[meet])
    trace_phase = np.angle(np.trace(SWAP2.conj().T @ u))
    phis = np.concatenate(([trace_phase], np.angle(on), centre - spread, centre + spread))
    deviations = np.max(np.abs(u - np.exp(1j * phis)[:, None, None] * SWAP2), axis=(1, 2))
    # phases within 1e-13 of the smallest deviation tie: which of them is
    # first follows the last bits of U, so pick by a rule on the phases
    low = np.min(deviations)
    tied = np.flatnonzero(deviations <= low * (1 + 1e-13))
    if tied[0] == 0:
        best = 0
    else:
        angles = np.angle(np.exp(1j * phis[tied]))
        keep = np.abs(angles) <= np.min(np.abs(angles)) + 1e-9
        if np.any(keep & (angles > 1e-9)):
            keep &= angles > 1e-9
        best = int(tied[keep][np.argmin(deviations[tied][keep])])
    # tied phases reach the minimax residual only to rounding, so the
    # residual is the mean of the best score and the reported phase's own
    residual = float((low + deviations[best]) / 2)
    return SwapCheckResult(
        is_swap_up_to_phase=residual <= tol,
        phase=complex(np.exp(1j * float(phis[best]))),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# single-excitation (sigma) subspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaBasis:
    """Ordered basis of the vacuum plus all one-excitation states.

    Ordering: up excitation on sites 1..n, then the vacuum, then down
    excitation on sites 1..n; dimension 2n + 1 with the vacuum at index n.
    """

    n: int

    @property
    def dim(self):
        return 2 * self.n + 1

    @property
    def vacuum_position(self):
        return self.n

    def labels(self):
        vac = "0" * self.n
        ups = [vac[:i] + "1" + vac[i + 1:] for i in range(self.n)]
        downs = [vac[:i] + "m" + vac[i + 1:] for i in range(self.n)]
        return ups + [vac] + downs

    def full_space_indices(self):
        vac_index = (3 ** self.n - 1) // 2  # all trits equal 1
        ups = [vac_index - 3 ** (self.n - 1 - i) for i in range(self.n)]
        downs = [vac_index + 3 ** (self.n - 1 - i) for i in range(self.n)]
        return np.array(ups + [vac_index] + downs, dtype=np.intp)


def sigma_projector(n):
    """The (2n+1) x 3^n isometry selecting the sigma states in basis order."""
    basis = SigmaBasis(n)
    idx = basis.full_space_indices()
    proj = np.zeros((basis.dim, 3 ** n), dtype=complex)
    proj[np.arange(basis.dim), idx] = 1.0
    return proj


LEAKAGE_TOL = 1e-12


class SubspaceLeakageError(RuntimeError):
    """The sigma subspace is not invariant under the given Hamiltonian."""


def _sigma_columns(chain_op):
    """H's columns at the sigma states, read from H's entries: the sigma block
    in sigma ordering and the spectral norm of the part outside sigma."""
    idx = SigmaBasis(chain_op.n_sites).full_space_indices()
    cols = entries_at(chain_op, np.arange(chain_op.dim)[:, None] * chain_op.dim + idx)
    outside = np.delete(cols, idx, axis=0)
    return cols[idx, :], float(np.linalg.norm(outside, 2)) if outside.size else 0.0


def sigma_leakage(chain_op):
    """Spectral norm of (I - P_sigma) H P_sigma: how much H leaks out of sigma."""
    return _sigma_columns(chain_op)[1]


def project_to_sigma(chain_op):
    """Restrict a Hamiltonian to the sigma subspace, verifying invariance.

    Returns the (2n+1) x (2n+1) block in sigma ordering.  Raises
    :class:`SubspaceLeakageError` when H maps sigma states outside sigma
    with spectral norm above LEAKAGE_TOL.
    """
    block, leakage = _sigma_columns(chain_op)
    if leakage > LEAKAGE_TOL:
        raise SubspaceLeakageError(
            f"sigma subspace is not invariant: leakage norm {leakage:.3e} > {LEAKAGE_TOL:.1e}"
        )
    return block


CHANNELS = ("up", "down")


def band(spec, channel):
    """One excitation band of an engineered chain as its Jacobi data ``(diag, off)``,
    the diagonal and the couplings of a tridiagonal matrix: C_i + B_i and a_i for
    the ``up`` channel, C_i - B_i and b_i for ``down``."""
    if spec.kind != "engineered":
        raise ValueError(f"operation requires kind='engineered', got {spec.kind!r}")
    if channel == "up":
        return np.array(spec.C) + np.array(spec.B), np.array(spec.a)
    if channel == "down":
        return np.array(spec.C) - np.array(spec.B), np.array(spec.b)
    raise ValueError(f"unknown channel {channel!r}; valid: {CHANNELS}")


def band_eigensystem(spec, channel):
    """Ascending eigenvalues and eigenvectors of one band (:func:`band`): ``eigh`` of
    its tridiagonal matrix and the phase convention of
    :func:`~spin1chain.linalg.fix_eigenvector_phases`, bit for bit what
    :func:`~spin1chain.linalg.eig_hermitian` gives a band with no zero coupling.  A
    band of more than MAX_DENSE_DIM sites is refused before its matrix is built."""
    diag, off = band(spec, channel)
    if diag.size > MAX_DENSE_DIM:
        raise ValueError(f"a band of {diag.size} sites exceeds the dense cap of "
                         f"{MAX_DENSE_DIM} sites: shorten the chain")
    energies, vectors = np.linalg.eigh(_tridiag(diag, off))
    return energies, fix_eigenvector_phases(vectors)


def engineered_sigma_block(spec):
    """The (2n+1) sigma-space matrix assembled directly from the couplings.

    Equals project_to_sigma(chain_hamiltonian(spec)) without touching the
    3^n space: the up band, the vacuum's zero and the down band.
    """
    n = spec.n
    block = np.zeros((2 * n + 1, 2 * n + 1))
    block[:n, :n], block[n + 1:, n + 1:] = (_tridiag(*band(spec, c)) for c in CHANNELS)
    return block


def _tridiag(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# ---------------------------------------------------------------------------
# perfect-transfer presets
# ---------------------------------------------------------------------------

def transfer_couplings(n):
    """Bond strengths sqrt(i(n-i))/2 producing a unit-gap block spectrum."""
    i = np.arange(1, n)
    return np.sqrt(i * (n - i)) / 2.0


PRESET_VARIANTS = ("standard", "phase_exact")


def pst_preset(n, variant="standard"):
    """Perfect-transfer ChainSpec with sqrt(i(n-i))/2 couplings.

    ``standard`` uses the uniform quadratic field C_i = n/2, which yields a
    half-integer block spectrum: transfer at t = pi is perfect only up to a
    correctable phase between the vacuum and the excited components.
    ``phase_exact`` instead takes the smallest field c >= 0 making the
    spectrum integer with parity-matched eigenvectors, so transfer at
    t = pi is exact with no phase correction.  The up block is c + J_x for
    spin J = (n-1)/2: eigenvalues c + m (m = -J..J) whose eigenvectors
    have reversal parity (-1)^(J-m), alternating from even at the top.
    Each c + m is an integer, even exactly on the even vectors, when
    c = -J mod 2.
    """
    if n < 2:
        raise ValueError("presets require n >= 2")
    if variant not in PRESET_VARIANTS:
        raise ValueError(f"unknown preset variant {variant!r}; valid: {PRESET_VARIANTS}")
    couplings = tuple(transfer_couplings(n))
    c = n / 2.0 if variant == "standard" else ((1 - n) / 2) % 2
    return ChainSpec(
        n=n,
        kind="engineered",
        a=couplings,
        b=couplings,
        B=(0.0,) * n,
        C=(c,) * n,
    )
