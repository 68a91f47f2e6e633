"""Chain operators as summed nonzero entries, and the shared Hermitian eigen-machinery.

Every chain-space analysis (time evolution, parity splitting, mirroring)
goes through :func:`eig_hermitian`, which enforces a deterministic
eigenvector phase convention so that regression files are stable.  It
diagonalizes each connected block of the matrix's nonzero pattern on its
own, so a Hamiltonian that conserves something costs what its sectors
cost, and splits a block of a :class:`ChainOperator` that commutes exactly
with its site inversion into its two parity sectors.  The eigensystem keeps
those solves, and its readers give rows of the eigenvector matrix, or the
unitary V diag(phases) V^dagger tile by tile, without forming either.
:func:`evolution_cache` memoizes it by matrix content, so the analyses of
one Hamiltonian share a single decomposition.
"""

import bisect
import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# largest dimension a dense chain-space matrix may reach (3^8, eight sites):
# a dense complex 3^9 matrix needs 5.8 GiB
MAX_DENSE_DIM = 6561

PHASE_FIX_THRESHOLD = 1e-12
HERMITIAN_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)


class NonHermitianError(ValueError):
    """Input matrix fails the Hermiticity tolerance."""


def _global_entries(local, site, n):
    """Rows, columns and values of the nonzeros of I (x) local (x) I on n sites.

    With L = 3^(site-1) states to the left, d = local.shape[0] and R states
    to the right, local entry (a, b) lands at ((l*d + a)*R + r,
    (l*d + b)*R + r) for every l < L and r < R.  A term that does not fit
    on the chain (site below 1, or L * d not dividing 3^n) raises ValueError.
    """
    width = local.shape[0]
    if site < 1 or 3 ** n % (3 ** (site - 1) * width):
        raise ValueError(f"a term of width {width} at site {site} does not fit "
                         f"on a chain of {n} sites")
    left = 3 ** (site - 1)
    right = 3 ** n // (left * width)
    offsets = (np.arange(left)[:, None] * (width * right) + np.arange(right)).ravel()
    a, b = np.nonzero(local)
    rows = (a[:, None] * right + offsets).ravel()
    cols = (b[:, None] * right + offsets).ravel()
    return rows, cols, np.repeat(local[a, b], offsets.size)


@dataclass(frozen=True)
class ChainOperator:
    """An operator on the full 3^n product space, held as its summed nonzero entries:
    ``flat``, their ascending flat (row-major) indices, and ``values``.  ``len()``
    is the dimension, as for a square array."""

    flat: np.ndarray
    values: np.ndarray
    n_sites: int

    @classmethod
    def from_terms(cls, terms, n):
        """The sum of I (x) local (x) I over ``terms``, (first site, local matrix) pairs.

        Each entry sums its contributions into zero in ascending order (real
        part, then imaginary), so with mirror-symmetric terms an entry and its
        mirror image add the same values in the same order and H equals M H M
        exactly.  Entries that sum to exactly 0 are dropped.  An empty ``terms``
        raises ValueError.
        """
        entries = [_global_entries(local, site, n) for site, local in terms]
        if not entries:
            raise ValueError(f"a ChainOperator on {n} sites needs at least one term, got none")
        rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
        flat, where = np.unique(rows * 3 ** n + cols, return_inverse=True)
        order = np.lexsort((vals.imag, vals.real, where))
        values = np.zeros(flat.size, dtype=complex)
        np.add.at(values, where[order], vals[order])
        keep = values != 0
        return cls(flat[keep], values[keep], n)

    @property
    def dim(self):
        return 3 ** self.n_sites

    def __len__(self):
        return self.dim

    def dense(self):
        check_dense_dim(self.dim)
        out = np.zeros(self.dim ** 2, dtype=complex)
        out[self.flat] = self.values
        return out.reshape(self.dim, self.dim)

    def hermiticity_deviation(self):
        """Largest entry of |A - A^dagger| (see :func:`_hermiticity_deviation`)."""
        return _hermiticity_deviation(self)

    def __matmul__(self, vector):
        rows, cols = np.divmod(self.flat, self.dim)
        out = np.zeros(self.dim, dtype=complex)
        np.add.at(out, rows, self.values * np.asarray(vector)[cols])
        return out


@dataclass(frozen=True)
class _Entries:
    """A square array as a ChainOperator holds its operator: ``flat``, the ascending flat
    indices of its nonzero entries, their ``values`` as complex128, and ``dim``; no site
    count, so no chain mirror."""

    flat: np.ndarray
    values: np.ndarray
    dim: int


def _read_entries(op):
    """``op`` in entry form: a ChainOperator as it is, a non-empty square array as
    :class:`_Entries`; any other shape raises ValueError.  An entry is nonzero when
    it compares unequal to 0 (a ``-0.0`` is not), a complex one when either part does."""
    if isinstance(op, ChainOperator):
        return op
    mat = np.asarray(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not mat.shape[0]:
        raise ValueError(f"expected a non-empty square matrix, got shape {mat.shape}")
    flat = np.flatnonzero(mat)
    return _Entries(flat, np.asarray(mat.reshape(-1)[flat], dtype=complex), mat.shape[0])


def entries_at(op, flat):
    """Entries of a ChainOperator, :class:`_Entries` or a square array (which only
    callers of :func:`commutator_residual` pass) at the flat (row-major) indices
    ``flat``; an index that the entry form does not hold reads 0."""
    if not isinstance(op, (ChainOperator, _Entries)):
        return np.asarray(op).reshape(-1)[flat]
    pos = np.searchsorted(op.flat, flat)
    out = np.append(op.values, 0)[pos]
    out[np.append(op.flat, -1)[pos] != flat] = 0
    return out


def _hermiticity_deviation(op):
    """Largest entry of |A - A^dagger| of an operator in entry form, read at its nonzero
    entries only: where A[i, j] is 0, entry (j, i) has the same modulus, so this is
    the dense maximum."""
    rows, cols = np.divmod(op.flat, op.dim)
    transposed = entries_at(op, cols * op.dim + rows)
    return float(np.max(np.abs(op.values - transposed.conj()), initial=0.0))


def fix_eigenvector_phases(vectors):
    """Rotate each column so its first significant component is real positive.

    Columns without a component above PHASE_FIX_THRESHOLD are left untouched.
    The modulus is taken with ``np.hypot``, which rounds like the scalar
    ``abs`` of one complex number, so the result does not depend on how
    many columns are fixed at once.  ``vectors`` is not changed: the fixed
    columns are a new complex array.
    """
    return _rotate_columns(np.array(vectors, dtype=complex, copy=True)[None])[0]


def _rotate_columns(fixed):
    """:func:`fix_eigenvector_phases` in place on a complex stack of matrices, which is
    returned; :func:`eig_hermitian` hands it the arrays it has just built."""
    significant = np.abs(fixed) > PHASE_FIX_THRESHOLD
    found = significant.any(axis=1)
    lead = fixed[np.arange(len(fixed))[:, None], np.argmax(significant, axis=1),
                 np.arange(fixed.shape[2])]
    lead = np.where(found, lead, 1)
    np.multiply(fixed, (np.hypot(lead.real, lead.imag) / lead)[:, None, :], out=fixed,
                where=found[:, None, :])
    return fixed


def connected_blocks(nonzero, dim):
    """Connected components of the nonzero pattern of a square matrix.

    ``nonzero`` holds the flat (row-major) indices of the nonzero entries
    of a ``dim`` x ``dim`` matrix, as ``np.flatnonzero`` gives them.
    Indices i and j are linked when entry (i, j) or (j, i) is nonzero, so
    no entry couples two blocks: each block is a sector of a conserved
    quantity, found without naming the quantity.  Returns index arrays,
    ascending within a block, ordered by their smallest index.

    Every index repeatedly takes the smallest label among its neighbours
    and then its label's label (pointer jumping), until no label changes;
    each component ends labelled by its smallest index.
    """
    rows, cols = np.divmod(np.asarray(nonzero), dim)
    labels = np.arange(dim)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, rows, labels[cols])
        np.minimum.at(hooked, cols, labels[rows])
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, starts)


def chain_mirror_index(n):
    """Site inversion (site i <-> n+1-i) on 3^n as an index array p.

    The mirror M is a permutation and an involution, so ``M x = x[p]``,
    ``M H M = H[p][:, p]`` and ``tr(M^T U) = sum_j U[p[j], j]``.
    """
    return np.arange(3 ** n).reshape((3,) * n).transpose().ravel()


def commutator_residual(op, index, nonzero):
    """max |[H, M]| for the index mirror, read at the nonzero entries of H.

    ``op`` is H in entry form or as a square array and ``nonzero`` holds
    the flat indices of its nonzero entries.  Entry (i, j) of M H M - H is
    H[p i, p j] - H[i, j].  When H[i, j] is zero and H[p i, p j] is not,
    (p i, p j) is a nonzero of H, and since every mirror is an involution
    its entry is H[i, j] - H[p i, p j], of the same modulus.  So the
    maximum over the nonzeros is the dense maximum, bit for bit.
    """
    dim = len(op)
    rows, cols = np.divmod(nonzero, dim)
    diff = entries_at(op, index[rows] * dim + index[cols]) - entries_at(op, nonzero)
    return float(np.max(np.abs(diff), initial=0.0))


@dataclass(frozen=True)
class EigenSolve:
    """One stacked eigensolve: ``count`` matrices of one size, each a connected block
    or one parity sector of a block.

    Eigenvector ``columns[k, c]`` is ``vectors[k, :, c]`` on the basis states
    ``rows[k]``.  For a parity sector it is also ``sign * vectors[k, :, c]`` on
    ``mirrored[k]``, the chain-mirror images of those rows (a fixed row is its own
    image); ``mirrored`` is None for a block solved whole.  It is zero elsewhere.
    """

    rows: np.ndarray
    mirrored: np.ndarray | None
    sign: float
    columns: np.ndarray
    vectors: np.ndarray

    def held(self):
        """(rows, sign) of each place the vectors are written, in the order that the
        dense matrix is written: ``rows`` (sign None), then ``mirrored`` times
        ``sign``; a fixed row is in both and keeps the second value."""
        yield self.rows, None
        if self.mirrored is not None:
            yield self.mirrored, self.sign


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Spectral decomposition H = V diag(w) V^dagger, ascending eigenvalues, held as
    its stacked solves (:class:`EigenSolve`): V is never stored.  The reader
    :meth:`eigenvector_rows` gives rows of V, :meth:`unitary_blocks` gives
    V diag(phases) V^dagger tile by tile, the self-checks
    :meth:`reconstruction_residual` and :meth:`unitarity_deviation` run solve by
    solve, and :attr:`eigenvectors` assembles the whole dense matrix on request;
    V is complex whether a block was solved in real or in complex arithmetic.

    Each solve holds connected blocks of H solved whole, or one parity
    sector of blocks split in two, the odd sector's solve right after the
    even one's.  :func:`eig_hermitian` sets ``mirror_residual`` to the
    chain-mirror :func:`commutator_residual` of a :class:`ChainOperator`,
    else None (an array has no chain mirror).  ``parities``
    holds each column's parity under that mirror M when the residual is 0,
    else 0: on a block that M maps onto itself ``v[M] == parity * v``
    exactly (a block of fixed rows only is even); two blocks that M swaps
    share their levels, each level's pair of columns spanning one even and
    one odd combination, so the block with the smaller first row reads +1
    and its image -1.  Left empty, all 0.  The eigenvalues and these parities
    alone decide the mirror test (:func:`~spin1chain.dynamics.mirror_check`),
    which reads no eigenvector.
    """

    eigenvalues: np.ndarray
    solves: tuple
    mirror_residual: float | None = field(default=None, compare=False)
    parities: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.parities is None:
            object.__setattr__(self, "parities", np.zeros(self.dim, dtype=np.int8))

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self):
        """The dense dim x dim eigenvector matrix V, assembled from the solves on every
        call and not kept."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for solve in self.solves:
            for rows, sign in solve.held():
                out[rows[:, :, None], solve.columns[:, None, :]] = (
                    solve.vectors if sign is None else sign * solve.vectors)
        return out

    @cached_property
    def _written_rows(self):
        """The rows that the solves write, listed in the order the dense matrix is
        written and sorted stably, as (runs, firsts, sorted rows, order): ``runs``
        holds (first place, solve, sign) of each place list and ``firsts`` its
        first places.  Sorted once per eigensystem, on the first row read."""
        runs, written, first = [], [], 0
        for solve in self.solves:
            for held, sign in solve.held():
                runs.append((first, solve, sign))
                written.append(held.ravel())
                first += held.size
        written = np.concatenate(written)
        order = np.argsort(written, kind="stable")
        return runs, [first for first, _, _ in runs], written[order], order

    def eigenvector_rows(self, rows):
        """V[rows, :], read from the solves that hold those rows, bit for bit: each
        wanted row finds its places, in the order the dense matrix is written,
        by one search of the sorted written rows."""
        rows = np.asarray(rows)
        runs, firsts, written, order = self._written_rows
        starts, stops = np.searchsorted(written, rows), np.searchsorted(written, rows, "right")
        out = np.zeros((rows.size, self.dim), dtype=complex)
        for i, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
            for place in order[start:stop].tolist():
                base, solve, sign = runs[bisect.bisect_right(firsts, place) - 1]
                k, r = divmod(place - base, solve.rows.shape[1])
                v = solve.vectors[k, r]
                out[i, solve.columns[k]] = v if sign is None else sign * v
        return out

    def unitary_blocks(self, phases):
        """(rows, columns, tile) stacks of U = V diag(phases) V^dagger, tile[k] being
        U[rows[k]][:, columns[k]]; every entry of U that may be nonzero lies in
        exactly one tile, and no block of U is assembled.

        A solve of whole blocks gives one tile per block, the product of its own
        vectors.  Each eigenvector of a split block has v[M i] = p v[i], p its
        parity, so on the block's orbit-first rows F (fixed rows first, then the
        pairs' first rows P) the even sector gives G_e and the odd one G_o, nonzero
        on P x P only, and U[i, j] = U[M i, M j] = (G_e + G_o)[i, j] and U[i, M j]
        = U[M i, j] = (G_e - G_o)[i, j].  Its sums G_e + G_o are formed on F x F and
        its diffs G_e - G_o on P x P only, off which they equal the sums.  It gives
        six views of them: F x F and MP x MP (MP the mirror images of P) read the
        sums, and so do the entries U[i, M j] = U[M i, j] with i or j fixed; those
        with both in P, in P x MP and MP x P, read the diffs.
        """
        for solve in self.solves:
            rows, images, v = solve.rows, solve.mirrored, solve.vectors
            if images is not None and solve.sign > 0:
                # the even sector's orbit-first rows with the fixed rows first
                order = np.argsort(rows != images, axis=1, kind="stable")
                rows, images = (np.take_along_axis(r, order, axis=1) for r in (rows, images))
                v = np.take_along_axis(v, order[:, :, None], axis=1)
            # v diag(phases) v^dagger is the conjugate of conj(v diag(phases)) v^T, bit
            # for bit (conj(a) conj(b) == conj(a b) in each product and sum), which reads
            # v itself and needs one weighted copy only
            product = np.conj(v)
            product *= np.conj(phases[solve.columns])[:, None, :]
            product = product @ v.transpose(0, 2, 1)
            np.conj(product, out=product)
            if images is None:
                yield rows, rows, product
            elif solve.sign > 0:
                even = rows, images, product  # its odd sector's solve comes next
                del v  # the reordered copy
            else:
                first, images, sums = even
                nfixed = first.shape[1] - product.shape[1]
                diffs = sums[:, nfixed:, nfixed:] - product
                sums[:, nfixed:, nfixed:] += product
                del product
                fixed, paired, pairs = first[:, :nfixed], first[:, nfixed:], images[:, nfixed:]
                yield first, first, sums
                yield pairs, pairs, sums[:, nfixed:, nfixed:]
                yield fixed, pairs, sums[:, :nfixed, nfixed:]
                yield pairs, fixed, sums[:, nfixed:, :nfixed]
                yield paired, pairs, diffs
                yield pairs, paired, diffs

    def reconstruction_residual(self, mat):
        """Largest entry of |V diag(w) V^dagger - mat|, ``mat`` a square array or a
        :class:`ChainOperator` of this dimension, computed solve by solve.

        Each tile of :meth:`unitary_blocks` with the eigenvalues as phases is compared
        with the entries of ``mat`` it covers.  V diag(w) V^dagger is exactly zero
        between two blocks, so there the entries of ``mat`` count by their modulus.
        Neither V nor any product of dense matrices is formed; the result agrees with
        the dense formula to a few ulps.
        """
        shape = (len(mat), len(mat)) if isinstance(mat, ChainOperator) else np.shape(mat)
        if shape != (self.dim, self.dim):
            raise ValueError(f"a matrix of shape {shape} cannot be compared with an "
                             f"eigensystem of shape {(self.dim, self.dim)}")
        mat = _read_entries(mat)
        flat, values = mat.flat, mat.values
        # each row's block: whole blocks and even sectors hold every row of theirs
        block, numbered = np.empty(self.dim, dtype=int), 0
        for solve in self.solves:
            if solve.sign > 0:
                for rows, _ in solve.held():
                    block[rows] = numbered + np.arange(rows.shape[0])[:, None]
                numbered += solve.rows.shape[0]
        rows, cols = np.divmod(flat, self.dim)
        largest = np.max(np.abs(values[block[rows] != block[cols]]), initial=0.0)
        for rows, cols, tile in self.unitary_blocks(self.eigenvalues):
            gap = entries_at(mat, rows[:, :, None] * self.dim + cols[:, None, :])
            gap = np.subtract(tile, gap, out=gap if gap.dtype == tile.dtype else None)
            largest = np.max(np.abs(gap), initial=largest)
        return float(largest)

    def unitarity_deviation(self):
        """Largest entry of |V^dagger V - I|, computed solve by solve as the Gram matrix
        v^dagger D v of each stacked solve, D each row's multiplicity in V: 2 for the
        rows a parity sector also holds on their mirror images, else 1.

        Columns of different blocks have disjoint rows, and an even and an odd sector
        of one block cancel (v^dagger on F meets +v and -v on P and MP), so their entries
        of V^dagger V are 0.  Neither V nor any product of dense matrices is formed;
        the result agrees with the dense formula to a few ulps.
        """
        largest = 0.0
        for solve in self.solves:
            v = solve.vectors
            weighted = np.conj(v)
            if solve.mirrored is not None:
                weighted *= np.where(solve.rows == solve.mirrored, 1.0, 2.0)[:, :, None]
            gram = weighted.transpose(0, 2, 1) @ v
            del weighted
            diagonal = np.arange(gram.shape[1])
            gram[:, diagonal, diagonal] -= 1
            largest = np.max(np.abs(gram), initial=largest)
        return float(largest)


def _parity_sectors(stack, rows, image, numbers):
    """The matrices to solve for blocks of one size with the same number of fixed rows.

    ``stack`` holds the blocks' matrices, ``rows`` their rows (ascending in
    each block) and ``image`` the position of each row's mirror image in
    its block.  Yields (matrices, rows, mirrored, weights, sign, numbers):
    an eigenvector y of matrix k has w y on ``rows[k]`` and sign w y on
    ``mirrored[k]``, w being ``weights[k]``; blocks with no pair (every row
    fixed) are their own even sector and are yielded as given, with
    ``weights`` None.  Otherwise an orbit of the mirror M is a fixed row i
    or a pair (i, M i), i < M i.  The even sector has one basis vector per
    orbit, e_i or (e_i + e_Mi)/sqrt2, and the odd sector one per pair,
    (e_i - e_Mi)/sqrt2, both in order of i.  As H[M i, M j] == H[i, j],
    an entry needs row i of its orbit only: the even entry of two pairs is
    H[i, j] + H[i, M j], of a fixed row and a pair sqrt2 H[i, j] and of two
    fixed rows H[i, j]; the odd entry is H[i, j] - H[i, M j].  Both sectors
    are exactly Hermitian when H is.  The even sector is yielded first.
    """
    count, size = rows.shape
    if np.array_equal(image[0], np.arange(size)):
        yield stack, rows, rows, None, 1.0, numbers
        return
    first = np.nonzero(np.arange(size) <= image)[1].reshape(count, -1)
    second = np.take_along_axis(image, first, axis=1)
    pair = first != second
    at = np.arange(count)[:, None, None]
    even = stack[at, first[:, :, None], first[:, None, :]]
    mirrored = stack[at, first[:, :, None], second[:, None, :]]
    mirrored[~(pair[:, :, None] & pair[:, None, :])] = 0
    even += mirrored
    del mirrored
    even[pair[:, :, None] != pair[:, None, :]] *= _SQRT2
    odd_first, odd_second = first[pair].reshape(count, -1), second[pair].reshape(count, -1)
    odd = stack[at, odd_first[:, :, None], odd_first[:, None, :]]
    odd -= stack[at, odd_first[:, :, None], odd_second[:, None, :]]
    first, second, odd_first, odd_second = (np.take_along_axis(rows, local, axis=1)
                                            for local in (first, second, odd_first, odd_second))
    yield even, first, second, np.where(pair, _SQRT_HALF, 1.0), 1.0, numbers
    yield odd, odd_first, odd_second, np.full(odd_first.shape, _SQRT_HALF), -1.0, numbers


def _entry_form(op, rows, first, entries, block_of, position):
    """The matrices of the blocks ``rows`` of an operator in entry form (numbered from
    ``first``), scattered from its ``entries`` (their indices in ``op.flat``, ascending)
    in the form they are solved in, and whether they are centrohermitian.

    Entry (i, j) lands at [block_of[i] - first, position[i], position[j]].  The blocks
    are real when no entry has a nonzero imaginary part.  Complex blocks that R: i ->
    dim-1-i maps onto themselves are centrohermitian when R, which maps flat index f to
    dim^2-1-f and so reverses their order, maps the entries onto themselves with
    conjugate values; their G = Re H - Im H J then takes each entry's real part at (i, j)
    and subtracts its imaginary part at (i, R j), so every place is re - im once, as in
    the dense form.  A real or centrohermitian stack is one float array: neither the
    dense matrix nor a complex copy of the blocks is built.
    """
    count, size = rows.shape
    dim = op.dim
    flat, values = op.flat[entries], op.values[entries]
    i, j = np.divmod(flat, dim)
    at = block_of[i] - first, position[i], position[j]
    real = not (np.iscomplexobj(values) and values.imag.any())
    centro = (not real and np.array_equal(rows[:, ::-1], dim - 1 - rows)
              and np.array_equal(dim * dim - 1 - flat[::-1], flat)
              and np.array_equal(values[::-1], values.conj()))
    stack = np.zeros((count, size, size), dtype=float if real or centro else values.dtype)
    stack[at] = values.real if real or centro else values
    if centro:
        stack[at[0], at[1], size - 1 - at[2]] -= values.imag
    return stack, centro


def eig_hermitian(op):
    """Full spectral decomposition of a Hermitian matrix, block by block.

    ``op`` is a non-empty square array or a :class:`ChainOperator`, which is
    refused above MAX_DENSE_DIM.  No package path passes an array (a band is
    solved on its own, :func:`~spin1chain.hamiltonians.band_eigensystem`); the
    benchmark checker and the tests do.  An array is read once as its nonzero
    entries (:func:`_read_entries`), the form a ChainOperator holds, and from there
    both take one route.  Each connected block of the nonzero pattern
    (:func:`connected_blocks`) is scattered from the entries, one group of blocks
    of one size at a time (:func:`_entry_form`), and diagonalized on its own; no
    dense matrix is built, and the blocks stay in memory only until their sectors
    are formed.  A ChainOperator whose entries equal those of M H M exactly (M its
    chain mirror, site i <-> n+1-i; the residual is kept as ``mirror_residual``)
    has each block that M maps onto itself and that holds a pair i != M i solved
    as its even and odd parity sectors instead (:func:`_parity_sectors`), and each
    column's parity kept as ``parities`` (:class:`HermitianEigenSystem`); every
    other block, and every block of an array, is its own even sector, solved
    whole.  Blocks of one size and one fixed-row count go through one stacked
    ``eigh`` per sector, in real arithmetic where the stack has no nonzero
    imaginary part or is centrohermitian (H[R i, R j] == conj(H[i, j]) exactly, R:
    i -> dim-1-i, as O5): then it is solved as G = Re H - Im H J, J the block's
    reversal, and H's eigenvectors are (y + i J y)/sqrt2; R commutes with M, so G
    splits into the same sectors.  The eigenpairs are sorted ascending; equal
    eigenvalues are ordered by block (smaller blocks first, then by smallest
    index), the even sector before the odd, then as ``eigh`` returns them.  Each
    stack's vectors are phase-fixed in place and kept as one :class:`EigenSolve`
    with their rows and global columns; no dense eigenvector matrix is built.

    Raises ValueError, naming their count and the first, on NaN or infinite
    entries, and :class:`NonHermitianError` when the Hermiticity deviation, read
    from the entries, exceeds HERMITIAN_TOL relative to the largest entry.
    """
    mirror = None
    if isinstance(op, ChainOperator):
        check_dense_dim(op.dim)
        mirror = chain_mirror_index(op.n_sites)
    op = _read_entries(op)
    dim, nonzero = op.dim, op.flat
    largest = float(np.max(np.abs(op.values), initial=0.0))
    if not math.isfinite(largest):
        bad = nonzero[~np.isfinite(op.values)]
        raise ValueError(f"matrix has {bad.size} non-finite entries (NaN or inf), the first at "
                         f"(row, column) {tuple(int(k) for k in divmod(bad[0], dim))}")
    scale = max(largest, 1.0)
    dev = _hermiticity_deviation(op)
    if not dev <= HERMITIAN_TOL * scale:
        raise NonHermitianError(f"matrix is not Hermitian: deviation {dev:.3e} exceeds "
                                f"{HERMITIAN_TOL:.1e} * {scale:.3e}")
    residual = None if mirror is None else commutator_residual(op, mirror, nonzero)
    by_size = {}
    for block in connected_blocks(nonzero, dim):
        by_size.setdefault(block.size, []).append(block)
    groups = [np.stack(by_size[size]) for size in sorted(by_size)]
    # block k is numbered numbers[g] + k within group g
    numbers = np.cumsum([0] + [rows.shape[0] for rows in groups])
    # each row's block number and its position in its block's rows
    block_of, position = np.empty((2, dim), dtype=int)
    for rows, first in zip(groups, numbers):
        block_of[rows] = first + np.arange(rows.shape[0])[:, None]
        position[rows] = np.arange(rows.shape[1])
    # the entries of each group, in ascending flat order
    group = np.searchsorted(numbers, block_of[nonzero // dim], side="right") - 1
    by_group = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[by_group], np.arange(len(groups) + 1)).tolist()
    entries = [by_group[a:b] for a, b in zip(bounds, bounds[1:])]
    # each block's parity factor: 0 when H is no exact commuter, else -1 on the
    # second of two blocks that M swaps and 1 on every other block
    known = np.zeros(numbers[-1], dtype=np.int8)
    solved = []
    for rows, first, part in zip(groups, numbers, entries):
        count, size = rows.shape
        stack, centro = _entry_form(op, rows, first, part, block_of, position)
        ids = first + np.arange(count)
        # without an exact mirror every block is its own even sector
        sectors = [(stack, rows, rows, None, 1.0, ids)]
        if residual == 0:
            # the position of each row's mirror image in its block, or the row's
            # own where M does not map the block onto itself
            images = mirror[rows]
            partner = block_of[images[:, 0]]  # M maps blocks onto blocks
            known[ids] = np.where(partner < ids, -1, 1)
            image = np.where((partner == ids)[:, None], position[images], np.arange(size))
            fixed = np.count_nonzero(image == np.arange(size), axis=1)
            sectors = []
            for count_fixed in np.unique(fixed):
                same = fixed == count_fixed
                pick = slice(None) if same.all() else same
                sectors += _parity_sectors(stack[pick], rows[pick], image[pick], ids[pick])
        del stack  # the sectors are built: free the blocks before they are solved
        for mats, *scatter in sectors:
            solved.append((*np.linalg.eigh(mats), *scatter, centro))
        del sectors, mats
    values = np.concatenate([w.ravel() for w, *_ in solved])
    block_keys = np.concatenate([np.repeat(ids, rows.shape[1])
                                 for _, _, rows, _, _, _, ids, _ in solved])
    signs = np.concatenate([np.full(rows.size, sign, dtype=np.int8)
                            for _, _, rows, _, _, sign, _, _ in solved])
    order = np.lexsort((signs < 0, block_keys, values))
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    solves, offset = [], 0
    solved.reverse()  # taken in order, so each solve's real vectors go once converted
    while solved:
        _, v, rows, mirrored, weights, sign, _, centro = solved.pop()
        size = rows.shape[1]
        if weights is not None:
            v *= weights[:, :, None]
        if centro:
            # H's eigenvectors (y + i J y)/sqrt2: J y on row i is y on R i, which is
            # held on its orbit's first row, signed as the mirrored rows are
            place, held = np.empty(dim, dtype=int), np.zeros(dim, dtype=bool)
            place[mirrored] = place[rows] = np.arange(size)
            held[rows], reflected = True, dim - 1 - rows
            v = v * complex(_SQRT_HALF)
            np.multiply(np.take_along_axis(v.real, place[reflected][:, :, None], axis=1),
                        np.where(held[reflected], 1.0, sign)[:, :, None], out=v.imag)
        # every column of the stack phase-fixed at once, in place
        solves.append(EigenSolve(
            rows, None if weights is None else mirrored, sign,
            column[offset:offset + rows.size].reshape(rows.shape),
            _rotate_columns(np.asarray(v, dtype=complex))))
        offset += rows.size
    return HermitianEigenSystem(eigenvalues=values[order], solves=tuple(solves),
                                mirror_residual=residual,
                                parities=(signs * known[block_keys])[order])


class EvolutionCache:
    """Eigendecomposition of one Hamiltonian, reusable across time points.

    :meth:`memoized` keeps other results derived from the Hamiltonian (its
    mirror analyses), so they too are computed once.
    """

    def __init__(self, eigensystem, fingerprint):
        self.eigensystem = eigensystem
        self.fingerprint = fingerprint
        self._memo = {}

    def memoized(self, key, compute):
        """``compute()`` the first time ``key`` is asked for; its stored result after."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def unitary(self, t):
        """exp(i*H*t) as a dense matrix, the tiles of
        :meth:`HermitianEigenSystem.unitary_blocks` scattered into zeros.

        Only ``swap-check`` needs the whole two-site 9 x 9 unitary; the mirror
        test reads the eigenvalues and parities instead of any unitary.
        """
        es = self.eigensystem
        out = np.zeros((es.dim, es.dim), dtype=complex)
        for rows, cols, tile in es.unitary_blocks(np.exp(1j * es.eigenvalues * t)):
            out[rows[:, :, None], cols[:, None, :]] = tile
        return out


_CACHE_LIMIT = 8
_cache_by_fingerprint = {}


def content_key(op):
    """sha256 key of an operator's content, read as its entries (:func:`_read_entries`).

    The key hashes the dimension, the flat indices of the nonzero entries and their
    values as complex128: exactly what :func:`eig_hermitian` reads.  So a
    ChainOperator and its dense matrix share one key, and so do a float array and
    its complex copy, or arrays that differ only in a ``-0.0`` zero; each pair also
    has one eigensystem, bit for bit.  A non-square or empty array raises ValueError.
    """
    op = _read_entries(op)
    digest = hashlib.sha256(str(op.dim).encode())
    digest.update(np.asarray(op.flat, dtype=np.int64).tobytes())
    digest.update(np.asarray(op.values, dtype=complex).tobytes())
    return digest.hexdigest()


def evolution_cache(op):
    """Memoized eigendecomposition keyed by matrix content (:func:`content_key`).

    A ChainOperator and its dense matrix share one key; arrays are still taken
    because the benchmark checker keys the cache with ``ham.dense()``.  An entry
    that the array filled has no chain-mirror residual or parities, so a
    ChainOperator that finds one solves itself and replaces it: this is the only
    way its mirror analyses get their parities, and they then do not depend on
    which form was solved first.
    """
    digest = content_key(op)
    cached = _cache_by_fingerprint.get(digest)
    if cached is None or (isinstance(op, ChainOperator)
                          and cached.eigensystem.mirror_residual is None):
        cached = EvolutionCache(eig_hermitian(op), digest)
        if digest not in _cache_by_fingerprint and len(_cache_by_fingerprint) >= _CACHE_LIMIT:
            _cache_by_fingerprint.pop(next(iter(_cache_by_fingerprint)))
        _cache_by_fingerprint[digest] = cached
    return cached


def check_dense_dim(dim):
    """Refuse to create a dense matrix of dimension above MAX_DENSE_DIM."""
    if dim > MAX_DENSE_DIM:
        raise ValueError(
            f"dense matrix of dimension {dim} exceeds cap {MAX_DENSE_DIM}: "
            "full-space dense work stops at 3^8 (eight sites)"
        )


def kron_all(factors):
    """Associative n-fold Kronecker product of 2-d factors, held to MAX_DENSE_DIM."""
    factors = [np.asarray(f) for f in factors]
    # the whole product is checked first, so no prefix of an oversized one is built
    check_dense_dim(math.prod(f.shape[0] for f in factors))
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out
