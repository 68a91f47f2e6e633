"""Parity-resolved spectra and their comparison with the tabulated values.

Parity refers to the eigenvalue (+1 even, -1 odd) under the site-inversion
permutation: reversal of the whole chain, the two-site exchange for n = 2.
Parities are assigned one way: :func:`~spin1chain.linalg.eig_hermitian`
solves a :class:`~spin1chain.linalg.ChainOperator` that commutes exactly
with its chain mirror by parity sector and keeps each eigenvector's parity,
and the analyses here read those; an operator that misses exact
commutation has no parity split.  An interaction can only generate perfect
mirroring when, up to an affine rescaling, even-parity eigenstates carry
even integer eigenvalues and odd-parity states odd integers;
:func:`~spin1chain.dynamics.mirror_check` tests one evolution time.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ChainOperator, chain_mirror_index, evolution_cache

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


def chain_mirror_permutation(n):
    """Permutation matrix inverting site order (site i <-> n+1-i) on 3^n.

    The analyses use :func:`chain_mirror_index`; this dense form stays
    because ``perfbench/tracing.py`` looks it up by name.
    """
    index = chain_mirror_index(n)
    perm = np.zeros((index.size, index.size))
    perm[index, np.arange(index.size)] = 1.0
    return perm


def _check_kind(kind, op):
    """Refuse, with ValueError, a ``kind`` other than ``chain_mirror`` and an ``op``
    that is no :class:`ChainOperator` (an array's dimension names no sites)."""
    if kind != "chain_mirror":
        raise ValueError(f"unknown parity kind {kind!r}")
    if not isinstance(op, ChainOperator):
        raise ValueError(f"chain_mirror parity needs a ChainOperator, which carries its "
                         f"site count, got an array of dimension {len(op)}")


def mirror_index(kind, op):
    """Index array of the ``kind`` inversion on the space of the operator ``op``.

    The one kind, ``chain_mirror``, reads n from a :class:`ChainOperator` and
    refuses an array, whose dimension names no sites.  Any other input raises
    ValueError.
    """
    _check_kind(kind, op)
    return chain_mirror_index(op.n_sites)


def _cluster_bounds(evals):
    """(starts, stops) of the clusters of the ascending ``evals``, taken greedily: a
    cluster holds the values within 1e-9 of its first, and the next value starts
    the next one.

    A step of 1e-9 or more starts a cluster, as the value is at least that far
    from every earlier one, so the clusters start at those steps and inside the
    runs of smaller steps between them.  A run spanning less than 1e-9 is one
    cluster.  Each value is compared with its cluster's first, and the first
    value of a cluster that reaches 1e-9 past its first starts a new one; this
    is repeated, once for each cluster that a run of small steps holds, until
    no value reaches that far.  Without such a run it is done once.
    """
    starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) >= 1e-9)
    while True:
        bounds = np.append(starts, evals.size)
        first = np.repeat(starts, np.diff(bounds))  # each value's cluster's first
        reach = np.flatnonzero(evals - evals[first] >= 1e-9)
        if not reach.size:
            return starts, bounds[1:]
        # the first such value of each cluster that has one starts a cluster
        split = reach[np.diff(first[reach], prepend=-1) != 0]
        starts = np.sort(np.concatenate((starts, split)))


def clustered_parities(eigensystem):
    """(eigenvalue, parity) per eigenvector, the parities the eigensystem's own.

    Eigenvalues are clustered to 1e-9, each eigenvalue being its cluster's
    mean, and a cluster lists its parities ascending.  The parities are
    those that :func:`~spin1chain.linalg.eig_hermitian` read from the parity
    sectors of an exact commuter, so degenerate levels never mix parities.
    """
    evals = eigensystem.eigenvalues
    starts, stops = _cluster_bounds(evals)
    sizes = stops - starts
    out_vals = evals.copy()  # a one-value cluster is its own mean
    pars = eigensystem.parities.astype(int)
    for size in np.unique(sizes[sizes > 1]):
        cols = starts[sizes == size, None] + np.arange(size)
        # a row sum rounds like np.mean of the cluster alone
        out_vals[cols] = (evals[cols].sum(axis=1) / size)[:, None]
    # each cluster's parities ascending, by one sort of 3 * cluster + parity + 1
    ranked = np.sort(3 * np.repeat(np.arange(starts.size), sizes) + pars + 1)
    return out_vals, ranked % 3 - 1


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


def mirror_commutator(op, kind):
    """The evolution cache of ``op`` and the [H, M] residual that
    :func:`~spin1chain.linalg.eig_hermitian` kept on its eigensystem, once ``kind``
    and ``op`` pass the checks of :func:`mirror_index` (no mirror index is built)."""
    _check_kind(kind, op)
    cache = evolution_cache(op)
    return cache, cache.eigensystem.mirror_residual


def parity_spectrum(op, kind="chain_mirror"):
    """Split an operator's spectrum by mirror parity.

    The operator must commute exactly with the inversion (a residual of 0):
    only then are its eigenvectors solved by parity sector.  The eigensystem,
    the commutator and the parities (:func:`clustered_parities`, computed
    once per Hamiltonian) come from :func:`evolution_cache`'s entry, so they
    are shared with the other analyses of the same operator.
    """
    cache, comm = mirror_commutator(op, kind)
    if comm != 0:
        raise ParityCommutationError(
            f"operator does not commute with the {kind} inversion: residual {comm:.3e}, "
            f"and a parity split needs exact commutation"
        )
    vals, pars = cache.memoized("parities", lambda: clustered_parities(cache.eigensystem))
    return ParitySplit(
        even=tuple(sorted(vals[pars > 0].tolist(), reverse=True)),
        odd=tuple(sorted(vals[pars < 0].tolist(), reverse=True)),
        parity_operator=kind,
    )


def _split_deviation(split, reference):
    ref_even, ref_odd = reference
    if len(split.even) != len(ref_even) or len(split.odd) != len(ref_odd):
        return float("inf")
    dev_e = max((abs(a - b) for a, b in zip(split.even, ref_even)), default=0.0)
    dev_o = max((abs(a - b) for a, b in zip(split.odd, ref_odd)), default=0.0)
    return max(dev_e, dev_o)


def reference_comparison(name, split):
    """Compare a computed split against tabulated and adjudicated references.

    Returns a dict with both deviations, match flags (a deviation of at
    most 1e-10 matches), and (for the rows whose tabulated values fail
    their own consistency checks) the adjudication note.  A deviation from
    the tabulated values is reported explicitly, never hidden behind the
    corrected numbers.
    """
    dev_lit = _split_deviation(split, LITERATURE_SPECTRA[name])
    dev_adj = _split_deviation(split, ADJUDICATED_SPECTRA[name])
    return {
        "deviation_from_literature": dev_lit,
        "deviation_from_adjudicated": dev_adj,
        "matches_literature": dev_lit <= 1e-10,
        "matches_adjudicated": dev_adj <= 1e-10,
        "note": ADJUDICATION_NOTES.get(name),
    }
