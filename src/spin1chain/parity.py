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
:func:`mirror_check` tests one evolution time.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import chain_mirror_index, evolution_cache

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


def _mirror_eigensystem(op, kind):
    """The cached eigensystem of ``op`` (:func:`evolution_cache`), once ``kind`` is
    ``chain_mirror``, the one kind; any other kind raises ValueError."""
    if kind != "chain_mirror":
        raise ValueError(f"unknown parity kind {kind!r}")
    return evolution_cache(op).eigensystem


def _cluster_bounds(evals):
    """(starts, stops) of the clusters of the ascending ``evals``, taken greedily: a
    cluster holds the values within 1e-9 of its first, and the next value starts
    the next one."""
    values = evals.tolist()
    starts = [0] if values else []
    for k, value in enumerate(values):
        if value - values[starts[-1]] >= 1e-9:
            starts.append(k)
    bounds = np.array(starts + [len(values)])
    return bounds[:-1], bounds[1:]


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


def parity_spectrum(op, kind="chain_mirror"):
    """Split an operator's spectrum by mirror parity.

    The operator must commute exactly with the inversion (a residual of 0):
    only then are its eigenvectors solved by parity sector.  The eigensystem,
    with its commutator residual and parities, comes from
    :func:`evolution_cache`'s entry, so it is shared with the other analyses
    of the same operator; the parities are clustered
    (:func:`clustered_parities`) on each call.
    """
    es = _mirror_eigensystem(op, kind)
    comm = es.mirror_residual
    if comm != 0:
        raise ParityCommutationError(
            f"operator does not commute with the {kind} inversion: residual {comm:.3e}, "
            f"and a parity split needs exact commutation"
        )
    vals, pars = clustered_parities(es)
    return ParitySplit(
        even=tuple(sorted(vals[pars > 0].tolist(), reverse=True)),
        odd=tuple(sorted(vals[pars < 0].tolist(), reverse=True)),
        parity_operator=kind,
    )


@dataclass(frozen=True)
class MirrorCheckResult:
    is_mirror: bool
    phase: float  # global phase phi with U(t) ~ e^{i phi} M
    residual: float
    commutator_residual: float


def mirror_check(op, t):
    """Test whether exp(i*H*t) equals the site inversion up to a phase.

    ``op`` is a :class:`~spin1chain.linalg.ChainOperator` and M its chain
    mirror.  Reports the optimal global phase, the residual ||U - e^{i phi}
    M||_2 (a mirror when it is at most 1e-8) and the [H, M] commutator
    residual.  ``t`` is finite, and the time sign folds into it (-t for the
    physical exp(-iHt)).

    U = e^{i phi} M makes M a function of H, so only an exact commuter ([H, M]
    residual 0) can mirror.  Its eigensystem holds each column's parity p_k,
    U and M share the eigenbasis, and so the phase is the angle of
    tr(M^T U) = sum_k p_k e^{i E_k t} and the residual is
    max_k |e^{i E_k t} - e^{i phi} p_k|, read from the eigenvalues and
    parities alone: no eigenvector and no unitary is formed.  An inexact
    commuter has no parities and never mirrors: it reports ``is_mirror``
    False, an infinite residual and a NaN phase.
    """
    if not np.isfinite(t):
        raise ValueError(f"mirror_check needs a finite time, got {t!r}")
    es = _mirror_eigensystem(op, "chain_mirror")
    comm = es.mirror_residual
    if comm != 0:
        return MirrorCheckResult(is_mirror=False, phase=float("nan"), residual=float("inf"),
                                 commutator_residual=comm)
    signed = es.parities * np.exp(1j * es.eigenvalues * t)  # p_k e^{i E_k t}
    phi = float(np.angle(np.sum(signed)))
    # |e^{i E_k t} - e^{i phi} p_k| == |p_k e^{i E_k t} - e^{i phi}|, as p_k = +-1
    residual = float(np.max(np.abs(signed - np.exp(1j * phi))))
    return MirrorCheckResult(is_mirror=residual <= 1e-8, phase=phi, residual=residual,
                             commutator_residual=comm)


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
