"""Reference mirror analyses for the tests, written as plain loops.

The package reads each eigenvector's parity from the parity sector that
solved it.  :func:`loop_cluster_bounds` walks the eigenvalues one by one
into their greedy clusters, which the package finds without a loop.
:func:`loop_clustered_parities` knows nothing of sectors: it diagonalizes
the mirror inside each eigenvalue cluster of any eigenvector matrix, so
degenerate levels that a plain eigensolver mixes are resolved too.
:func:`loop_feasibility_report` decides mirroring feasibility pair by pair and
gap by gap, with exact fractions and an exact integer lcm: mirroring needs an
affine map sending every eigenvalue to an integer whose parity matches its
sector.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# values within FEASIBILITY_TOL are equal; a gap ratio is rational when it
# lies that close to a fraction with denominator at most MAX_DENOMINATOR
FEASIBILITY_TOL = 1e-9
MAX_DENOMINATOR = 64


@dataclass(frozen=True)
class FeasibilityReport:
    """Diagnosis of whether a parity split admits mirror dynamics.

    ``parity_overlap`` flags an eigenvalue shared by both parity sectors
    (no affine map can then give it both an even and an odd integer).
    ``ratios_rational`` reports whether all eigenvalue gaps are rational
    multiples of a common unit (bounded-denominator detection, heuristic).
    When a unit exists, ``parity_consistent`` says whether the integer
    pattern matches the even/odd sector assignment, and a feasible split
    mirrors first at t = pi / ``rational_unit``.
    """

    feasible: bool
    parity_overlap: bool
    ratios_rational: bool
    parity_consistent: bool | None
    rational_unit: float | None
    notes: tuple = field(default=())


def loop_cluster_bounds(evals):
    """(starts, stops) of the clusters of the ascending ``evals``, walked value by
    value: a cluster holds the values within 1e-9 of its first, and the next value
    starts the next one."""
    values = evals.tolist()
    bounds, start = [], 0
    for k, value in enumerate(values):
        if value - values[start] >= 1e-9:
            bounds.append((start, k))
            start = k
    if values:
        bounds.append((start, len(values)))
    starts, stops = np.array(bounds, dtype=int).reshape(-1, 2).T
    return starts, stops


def loop_clustered_parities(evals, vecs, index, cluster_tol=1e-9):
    """(eigenvalue, parity, vector) per eigenvector, one cluster at a time.

    A cluster holds the values within cluster_tol of its first; its
    eigenvalue is the cluster mean and the index mirror is diagonalized in it.
    """
    vals, pars, out_vecs = [], [], []
    i = 0
    while i < len(evals):
        j = i
        while j + 1 < len(evals) and evals[j + 1] - evals[i] < cluster_tol:
            j += 1
        cluster = vecs[:, i:j + 1]
        pvals, pvecs = np.linalg.eigh(cluster.conj().T @ cluster[index])
        vals += [float(np.mean(evals[i:j + 1]))] * len(pvals)
        pars += [1 if p > 0 else -1 for p in pvals]
        out_vecs.append(cluster @ pvecs)
        i = j + 1
    return np.array(vals), np.array(pars), np.hstack(out_vecs)


def _rational_multiple(x):
    frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    if abs(x - float(frac)) <= FEASIBILITY_TOL:
        return frac
    return None


def loop_feasibility_report(split):
    """The feasibility report of ``split``: every pair of levels tested for a
    cross-sector overlap, and each gap ratio from the first level rounded to the
    closest fraction of denominator at most MAX_DENOMINATOR."""
    values = [(v, 0) for v in split.even] + [(v, 1) for v in split.odd]
    notes = []

    overlap = False
    for v, s in values:
        for w, sw in values:
            if s != sw and abs(v - w) <= FEASIBILITY_TOL:
                overlap = True
    if overlap:
        notes.append("an eigenvalue occurs in both parity sectors")

    ref_val, ref_sec = values[0]
    gaps = [(v - ref_val, s) for v, s in values[1:]]
    nonzero = [g for g, _ in gaps if abs(g) > FEASIBILITY_TOL]
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
        frac = _rational_multiple(g / base)
        if frac is None:
            rational = False
            notes.append(f"gap ratio {g / base:.9f} is not rational within denominator "
                         f"{MAX_DENOMINATOR}")
            break
        fracs.append(frac)

    unit = None
    consistent = None
    if rational:
        denom = math.lcm(*(frac.denominator for frac in fracs))
        unit = abs(base) / denom
        multiples = [frac.numerator * (denom // frac.denominator) for frac in fracs]
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
