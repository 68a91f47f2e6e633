"""Parity-resolved spectra and the mirroring feasibility diagnosis.

Parity refers to the eigenvalue (+1 even, -1 odd) under the site-inversion
permutation: the two-site exchange for n = 2, or reversal of the whole
chain for general n.  An interaction can only generate perfect mirroring
when, up to an affine rescaling, even-parity eigenstates carry even
integer eigenvalues and odd-parity states odd integers.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import as_matrix, evolution_cache

_SQRT2 = float(np.sqrt(2.0))
_SQRT6 = float(np.sqrt(6.0))

# parity-resolved spectra of the candidate couplings as tabulated in the
# literature, sorted descending (even sector: 6 states, odd sector: 3)
LITERATURE_SPECTRA = {
    "O1": ([_SQRT2, 1.0, 1.0, 0.0, 0.0, -_SQRT2], [0.0, -1.0, -1.0]),
    "O2": ([1.0, 0.0, 0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0]),
    "O3": ([2.0, 1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0]),
    "O4": ([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    "O5": ([_SQRT6, _SQRT2, 0.0, 0.0, -_SQRT2, -_SQRT6], [0.0, 0.0, 0.0]),
}

# two tabulated rows violate the trace of their own operator and are
# corrected here; the comparison report keeps both so the discrepancy is
# always surfaced, never silently patched over
ADJUDICATED_SPECTRA = {
    **LITERATURE_SPECTRA,
    # tr(Sz x Sz) = 0 forces a second +1 in the even sector
    "O2": ([1.0, 1.0, 0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0]),
    # tr(O3) = 8 while the tabulated sectors sum to 7; the odd sector
    # carries a doubly degenerate +1
    "O3": ([2.0, 1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0]),
}

ADJUDICATION_NOTES = {
    "O2": "tabulated even sector {1,0,0,0,0,-1} sums to 0 while the odd sums to -1, "
          "violating tr(Sz.Sz) = 0; the even sector must contain 1 twice",
    "O3": "tabulated sectors sum to 7 while tr(O3) = 8; the odd sector must "
          "contain 1 twice",
    "O5": "the asymmetric quartic-cubic form does not commute with the exchange; "
          "the site-symmetrized form reproduces the tabulated spectra exactly",
}

CANDIDATE_FORMS = {
    "O1": "Sx.Sx + Sy.Sy",
    "O2": "Sz.Sz",
    "O3": "Sx2.Sx2 + Sy2.Sy2",
    "O4": "Sz2.Sz2",
    "O5": "Sx2.Sx + Sy2.Sy + Sx.Sx2 + Sy.Sy2",
}


def chain_mirror_index(n):
    """Site inversion (site i <-> n+1-i) on 3^n as an index array p.

    The mirror M is a permutation and an involution, so ``M x = x[p]``,
    ``M H M = H[p][:, p]`` and ``tr(M^T U) = sum_j U[p[j], j]``.
    """
    return np.arange(3 ** n).reshape((3,) * n).transpose().ravel()


def sigma_mirror_index(n):
    """Site inversion on the sigma basis (up and down runs reversed) as an index array."""
    up = np.arange(n)[::-1]
    return np.concatenate([up, [n], n + 1 + up])


def chain_mirror_permutation(n):
    """Permutation matrix inverting site order (site i <-> n+1-i) on 3^n.

    The analyses use :func:`chain_mirror_index`; this dense form stays
    because ``perfbench/tracing.py`` looks it up by name.
    """
    index = chain_mirror_index(n)
    perm = np.zeros((index.size, index.size))
    perm[index, np.arange(index.size)] = 1.0
    return perm


def mirror_index(kind, dim):
    """Index array of the ``kind`` inversion on a space of dimension ``dim``.

    ``two_site_exchange`` needs dim 9, ``chain_mirror`` dim 3^n and
    ``sigma`` (the sigma basis of n sites) dim 2n+1; any other dimension
    raises ValueError.
    """
    if kind == "two_site_exchange":
        if dim != 9:
            raise ValueError(f"two_site_exchange parity needs a 9-dimensional two-site "
                             f"operator, got dimension {dim}")
        return chain_mirror_index(2)
    if kind == "chain_mirror":
        n = round(np.log(dim) / np.log(3)) if dim > 1 else 0
        if n < 1 or 3 ** n != dim:
            raise ValueError(f"chain_mirror parity needs dimension 3^n, got dimension {dim}")
        return chain_mirror_index(n)
    if kind == "sigma":
        if dim < 3 or dim % 2 == 0:
            raise ValueError(f"the sigma mirror needs dimension 2n+1, got dimension {dim}")
        return sigma_mirror_index((dim - 1) // 2)
    raise ValueError(f"unknown parity kind {kind!r}")


# complex entries per gathered block of eigenvector columns (32 MB)
_GATHER_ELEMENTS = 1 << 21


def commutator_residual(mat, index):
    """max |[H, M]| for the index mirror: M H M - H entrywise."""
    return float(np.max(np.abs(mat[np.ix_(index, index)] - mat)))


def _cluster_bounds(evals, cluster_tol):
    """(start, stop) of each cluster of the ascending ``evals``: a cluster
    holds the values within ``cluster_tol`` of its first."""
    values = evals.tolist()
    bounds, start = [], 0
    for k, value in enumerate(values):
        if value - values[start] >= cluster_tol:
            bounds.append((start, k))
            start = k
    if values:
        bounds.append((start, len(values)))
    starts, stops = np.array(bounds, dtype=int).reshape(-1, 2).T
    return starts, stops


def clustered_parities(eigensystem, index, cluster_tol=1e-9):
    """(eigenvalue, parity) per eigenvector, parities from the index mirror.

    Eigenvalues are clustered to ``cluster_tol`` and the mirror is
    diagonalized inside each cluster, so degenerate subspaces that mix
    parities under a plain eigensolver are resolved correctly.  Each
    eigenvalue is its cluster's mean.  Clusters of one size are handled
    together: one stacked product gives their mirror matrices and one
    stacked eigensolve their parities.
    """
    evals, vecs = eigensystem.eigenvalues, eigensystem.eigenvectors
    starts, stops = _cluster_bounds(evals, cluster_tol)
    sizes = stops - starts
    out_vals = np.empty(len(evals))
    out_pars = np.empty(len(evals), dtype=int)
    for size in np.unique(sizes):
        first = starts[sizes == size]
        # at most _GATHER_ELEMENTS entries of eigenvectors are copied at a time
        step = max(1, _GATHER_ELEMENTS // (vecs.shape[0] * size))
        for chunk in range(0, first.size, step):
            cols = first[chunk:chunk + step, None] + np.arange(size)
            # a row sum rounds like np.mean of the cluster alone
            out_vals[cols] = (evals[cols].sum(axis=1) / size)[:, None]
            members = vecs[:, cols].transpose(1, 0, 2)  # (cluster, row, member)
            msub = members.conj().transpose(0, 2, 1) @ members[:, index]
            pvals = np.linalg.eigvalsh(msub)
            out_pars[cols] = np.where(pvals > 0, 1, -1)
    return out_vals, out_pars


@dataclass(frozen=True)
class ParitySplit:
    """Eigenvalues of an operator resolved by mirror parity, sorted descending."""

    even: tuple
    odd: tuple
    parity_operator: str

    @property
    def dim(self):
        return len(self.even) + len(self.odd)


class ParityCommutationError(ValueError):
    """Operator does not commute with the inversion, no parity split exists."""


def operator_with_mirror(op, kind):
    """Dense square matrix of ``op`` and the index mirror of ``kind`` on its space."""
    mat = as_matrix(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat, mirror_index(kind, mat.shape[0])


def parity_spectrum(op, kind="two_site_exchange", commute_tol=1e-12, cluster_tol=1e-9):
    """Split an operator's spectrum by mirror parity.

    The eigensystem comes from :func:`evolution_cache`, so it is shared
    with the other analyses of the same operator; see
    :func:`clustered_parities` for how degenerate levels are resolved.
    """
    mat, index = operator_with_mirror(op, kind)
    comm = commutator_residual(mat, index)
    if comm > commute_tol * max(1.0, float(np.max(np.abs(mat)))):
        raise ParityCommutationError(
            f"operator does not commute with the {kind} inversion: residual {comm:.3e}"
        )
    vals, pars = clustered_parities(evolution_cache(mat).eigensystem, index, cluster_tol)
    return ParitySplit(
        even=tuple(sorted(vals[pars > 0].tolist(), reverse=True)),
        odd=tuple(sorted(vals[pars < 0].tolist(), reverse=True)),
        parity_operator=kind,
    )


# ---------------------------------------------------------------------------
# mirroring feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityReport:
    """Diagnosis of whether a parity split admits mirror dynamics.

    ``parity_overlap`` flags an eigenvalue shared by both parity sectors
    (no affine map can then give it both an even and an odd integer).
    ``ratios_rational`` reports whether all eigenvalue gaps are rational
    multiples of a common unit (bounded-denominator detection, heuristic).
    When a unit exists, ``parity_consistent`` says whether the integer
    pattern matches the even/odd sector assignment.
    """

    feasible: bool
    parity_overlap: bool
    ratios_rational: bool
    parity_consistent: bool | None
    rational_unit: float | None
    notes: tuple = field(default=())


def _rational_multiple(x, tol=1e-9, max_den=64):
    frac = Fraction(x).limit_denominator(max_den)
    if abs(x - float(frac)) <= tol:
        return frac
    return None


def mirroring_feasibility_report(split, tol=1e-9, max_den=64):
    """Decide whether the split can support mirroring after affine rescaling.

    Mirroring needs an affine map sending every eigenvalue to an integer
    whose parity matches its sector.  Equivalently: all pairwise gaps are
    integer multiples of a unit, with cross-sector gaps odd multiples and
    same-sector gaps even multiples.
    """
    values = [(v, 0) for v in split.even] + [(v, 1) for v in split.odd]
    notes = []

    overlap = False
    for v, s in values:
        for w, sw in values:
            if s != sw and abs(v - w) <= tol:
                overlap = True
    if overlap:
        notes.append("an eigenvalue occurs in both parity sectors")

    # cross-sector 0-gaps already decide infeasibility; gap rationality is
    # assessed on the remaining structure
    ref_val, ref_sec = values[0]
    gaps = [(v - ref_val, s) for v, s in values[1:]]
    nonzero = [g for g, _ in gaps if abs(g) > tol]
    if not nonzero:
        notes.append("single distinct eigenvalue; trivially rational")
        return FeasibilityReport(
            feasible=not overlap and len({s for _, s in values}) == 1,
            parity_overlap=overlap,
            ratios_rational=True,
            parity_consistent=None,
            rational_unit=None,
            notes=tuple(notes),
        )

    base = min(nonzero, key=abs)
    fracs = []
    rational = True
    for g, _ in gaps:
        frac = _rational_multiple(g / base, tol=tol, max_den=max_den)
        if frac is None:
            rational = False
            notes.append(f"gap ratio {g / base:.9f} is not rational within denominator {max_den}")
            break
        fracs.append(frac)

    unit = None
    consistent = None
    if rational:
        denom = 1
        for frac in fracs:
            denom = denom * frac.denominator // np.gcd(denom, frac.denominator)
        unit = abs(base) / denom
        multiples = [round(g / unit) for g, _ in gaps]
        consistent = True
        for m, (_, s) in zip(multiples, gaps):
            want_odd = s != ref_sec
            if (m % 2 == 1) != want_odd:
                consistent = False
        if not consistent:
            notes.append("integer pattern does not alternate with parity sectors")

    feasible = (not overlap) and rational and bool(consistent)
    return FeasibilityReport(
        feasible=feasible,
        parity_overlap=overlap,
        ratios_rational=rational,
        parity_consistent=consistent,
        rational_unit=unit,
        notes=tuple(notes),
    )


def _split_deviation(split, reference):
    ref_even, ref_odd = reference
    if len(split.even) != len(ref_even) or len(split.odd) != len(ref_odd):
        return float("inf")
    dev_e = max((abs(a - b) for a, b in zip(split.even, ref_even)), default=0.0)
    dev_o = max((abs(a - b) for a, b in zip(split.odd, ref_odd)), default=0.0)
    return max(dev_e, dev_o)


def reference_comparison(name, split, tol=1e-10):
    """Compare a computed split against tabulated and adjudicated references.

    Returns a dict with both deviations, match flags, and (for the rows
    whose tabulated values fail their own consistency checks) the
    adjudication note.  A deviation from the tabulated values is reported
    explicitly, never hidden behind the corrected numbers.
    """
    dev_lit = _split_deviation(split, LITERATURE_SPECTRA[name])
    dev_adj = _split_deviation(split, ADJUDICATED_SPECTRA[name])
    return {
        "deviation_from_literature": dev_lit,
        "deviation_from_adjudicated": dev_adj,
        "matches_literature": dev_lit <= tol,
        "matches_adjudicated": dev_adj <= tol,
        "note": ADJUDICATION_NOTES.get(name),
    }
