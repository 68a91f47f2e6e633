"""Chain operators as summed nonzero entries, and the shared Hermitian eigen-machinery.

Everything downstream (time evolution, parity splitting, tomography)
goes through :func:`eig_hermitian`, which enforces a deterministic
eigenvector phase convention so that regression files are stable.  It
diagonalizes each connected block of the matrix's nonzero pattern on its
own, so a Hamiltonian that conserves something costs what its sectors
cost, and splits a block of a :class:`ChainOperator` that commutes exactly
with its site inversion into its two parity sectors.  The eigensystem keeps
those solves, and its readers give rows or columns of the eigenvector
matrix, or the unitary V diag(phases) V^dagger tile by tile, without forming
either.  :func:`evolution_cache` memoizes it by matrix content, so the
analyses of one Hamiltonian share a single decomposition.
"""

import bisect
import hashlib
import math
from dataclasses import dataclass, field

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


def hermiticity_deviation(mat):
    """Largest entry of |A - A^dagger|; a stack is taken matrix by matrix."""
    return float(np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)))) if mat.size else 0.0


def _global_entries(local, site, n):
    """Rows, columns and values of the nonzeros of I (x) local (x) I on n sites.

    With L = 3^(site-1) states to the left, d = local.shape[0] and R states
    to the right, local entry (a, b) lands at ((l*d + a)*R + r,
    (l*d + b)*R + r) for every l < L and r < R.
    """
    width = local.shape[0]
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
        exactly.  Entries that sum to exactly 0 are dropped.
        """
        rows, cols, vals = (np.concatenate(part) for part in zip(
            *(_global_entries(local, site, n) for site, local in terms)))
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
        """Largest entry of |A - A^dagger|, read at the nonzero entries only: where
        A[i, j] is 0, entry (j, i) has the same modulus, so this is the dense maximum."""
        rows, cols = np.divmod(self.flat, self.dim)
        transposed = entries_at(self, cols * self.dim + rows)
        return float(np.max(np.abs(self.values - transposed.conj()), initial=0.0))

    def __matmul__(self, vector):
        rows, cols = np.divmod(self.flat, self.dim)
        out = np.zeros(self.dim, dtype=complex)
        np.add.at(out, rows, self.values * np.asarray(vector)[cols])
        return out


def entries_at(op, flat):
    """Entries of a ChainOperator or a square array at the flat (row-major) indices
    ``flat``; an index that a ChainOperator does not hold reads 0."""
    if not isinstance(op, ChainOperator):
        return np.asarray(op).reshape(-1)[flat]
    pos = np.searchsorted(op.flat, flat)
    found = np.append(op.flat, -1)[pos] == flat
    return np.where(found, np.append(op.values, 0)[pos], 0)


def fix_eigenvector_phases(vectors):
    """Rotate each column so its first significant component is real positive.

    Columns without a component above PHASE_FIX_THRESHOLD are left untouched.
    The modulus is taken with ``np.hypot``, which rounds like the scalar
    ``abs`` of one complex number, so the result does not depend on how
    many columns are fixed at once.
    """
    fixed = np.array(vectors, dtype=complex, copy=True)
    significant = np.abs(fixed) > PHASE_FIX_THRESHOLD
    cols = np.flatnonzero(significant.any(axis=0))
    lead = fixed[np.argmax(significant[:, cols], axis=0), cols]
    fixed[:, cols] *= np.hypot(lead.real, lead.imag) / lead
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

    ``op`` is H as a square array or a ChainOperator and ``nonzero`` holds
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
    its stacked solves (:class:`EigenSolve`): V is never stored.  The readers
    :meth:`eigenvector_rows` and :meth:`eigenvector_columns` give parts of V,
    :meth:`unitary_blocks` gives V diag(phases) V^dagger tile by tile, and
    :attr:`eigenvectors` assembles the whole dense matrix on request; V is complex
    whether a block was solved in real or in complex arithmetic.

    Each solve holds connected blocks of H solved whole, or one parity
    sector of blocks split in two, the odd sector's solve right after the
    even one's.  :func:`eig_hermitian` sets ``mirror_residual`` to the
    chain-mirror :func:`commutator_residual` of a :class:`ChainOperator` of
    n >= 2 sites, else None (an array has no chain mirror).  ``parities``
    holds each column's parity under that mirror M when the residual is 0,
    else 0: on a block that M maps onto itself ``v[M] == parity * v``
    exactly (a block of fixed rows only is even); two blocks that M swaps
    share their levels, each level's pair of columns spanning one even and
    one odd combination, so the block with the smaller first row reads +1
    and its image -1.  Left empty, all 0.
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

    def eigenvector_rows(self, rows):
        """V[rows, :], read from the solves that hold those rows, bit for bit.

        The rows that the solves write are listed in the order the dense matrix
        is written and sorted stably, so each wanted row finds its places, in
        that order, by one search."""
        rows = np.asarray(rows)
        runs, written, first = [], [], 0
        for solve in self.solves:
            for held, sign in solve.held():
                runs.append((first, solve, sign))
                written.append(held.ravel())
                first += held.size
        written = np.concatenate(written)
        order = np.argsort(written, kind="stable")
        written, firsts = written[order], [first for first, _, _ in runs]
        starts, stops = np.searchsorted(written, rows), np.searchsorted(written, rows, "right")
        out = np.zeros((rows.size, self.dim), dtype=complex)
        for i, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
            for place in order[start:stop].tolist():
                base, solve, sign = runs[bisect.bisect_right(firsts, place) - 1]
                k, r = divmod(place - base, solve.rows.shape[1])
                v = solve.vectors[k, r]
                out[i, solve.columns[k]] = v if sign is None else sign * v
        return out

    def eigenvector_columns(self, columns):
        """V[:, columns], read from the solves that hold those columns, bit for bit."""
        columns = np.asarray(columns)
        out = np.zeros((self.dim, columns.size), dtype=complex)
        for solve in self.solves:
            which, k, c = np.nonzero(solve.columns == columns[:, None, None])
            v = solve.vectors[k, :, c]
            for held, sign in solve.held():
                out[held[k], which[:, None]] = v if sign is None else sign * v
        return out

    def unitary_blocks(self, phases):
        """(rows, columns, tile) stacks of U = V diag(phases) V^dagger, tile[k] being
        U[rows[k]][:, columns[k]]; every entry of U that may be nonzero lies in
        exactly one tile, and no block of U is assembled.

        A solve of whole blocks gives one tile per block.  An even and an odd
        parity sector of the same blocks give four: each eigenvector has v[M i]
        = p v[i], p its parity, so on a block's orbit-first rows F (fixed rows
        first, then the pairs' first rows P) the even sector gives G_e and the
        odd one G_o, nonzero on P x P only, and U[i, j] = U[M i, M j] = (G_e +
        G_o)[i, j] and U[i, M j] = U[M i, j] = (G_e - G_o)[i, j].  The tiles
        F x F, MP x MP, F x MP and MP x F (MP the mirror images of P) are views
        of those two products; the last two share the entries of P x P.
        """
        for solve in self.solves:
            rows, images, v = solve.rows, solve.mirrored, solve.vectors
            if images is not None and solve.sign > 0:
                # the even sector's orbit-first rows with the fixed rows first
                order = np.argsort(rows != images, axis=1, kind="stable")
                rows, images = (np.take_along_axis(r, order, axis=1) for r in (rows, images))
                v = np.take_along_axis(v, order[:, :, None], axis=1)
            product = (v * phases[solve.columns][:, None, :]) @ v.conj().transpose(0, 2, 1)
            if images is None:
                yield rows, rows, product
            elif solve.sign > 0:
                even = rows, images, product  # its odd sector's solve comes next
            else:
                (first, images, sums), odd = even, product
                nfixed = first.shape[1] - odd.shape[1]
                diffs = sums.copy()
                sums[:, nfixed:, nfixed:] += odd
                diffs[:, nfixed:, nfixed:] -= odd
                pairs = images[:, nfixed:]
                yield first, first, sums
                yield pairs, pairs, sums[:, nfixed:, nfixed:]
                yield first, pairs, diffs[:, :, nfixed:]
                yield pairs, first, diffs[:, nfixed:, :]

    def reconstruction_residual(self, mat):
        v = self.eigenvectors
        rebuilt = (v * self.eigenvalues) @ v.conj().T
        return float(np.max(np.abs(rebuilt - mat)))

    def unitarity_deviation(self):
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


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
    even += np.where(pair[:, :, None] & pair[:, None, :],
                     stack[at, first[:, :, None], second[:, None, :]], 0)
    even *= np.where(pair[:, :, None] == pair[:, None, :], 1.0, _SQRT2)
    odd_first, odd_second = first[pair].reshape(count, -1), second[pair].reshape(count, -1)
    odd = (stack[at, odd_first[:, :, None], odd_first[:, None, :]]
           - stack[at, odd_first[:, :, None], odd_second[:, None, :]])
    first, second, odd_first, odd_second = (np.take_along_axis(rows, local, axis=1)
                                            for local in (first, second, odd_first, odd_second))
    yield even, first, second, np.where(pair, _SQRT_HALF, 1.0), 1.0, numbers
    yield odd, odd_first, odd_second, np.full(odd_first.shape, _SQRT_HALF), -1.0, numbers


def eig_hermitian(op):
    """Full spectral decomposition of a Hermitian matrix, block by block.

    ``op`` is a square array or a :class:`ChainOperator`, which is refused
    above MAX_DENSE_DIM.  Each connected block of the nonzero pattern
    (:func:`connected_blocks`) is diagonalized on its own, its matrix read
    from the entries.  A ChainOperator of n >= 2 sites whose entries equal
    those of M H M exactly (M its chain mirror, site i <-> n+1-i; the
    residual is kept as ``mirror_residual``) has each block that M maps
    onto itself and that holds a pair i != M i solved as its even and odd
    parity sectors instead (:func:`_parity_sectors`); its eigenvectors
    then have definite parity, recorded as ``parities``; so does a block
    of fixed rows only that M maps onto itself (it is even).  Every other
    block is its own even sector and is solved whole; two blocks that M
    swaps get the parities +1 and -1 (:class:`HermitianEigenSystem`).  An
    array has no chain mirror, whatever its dimension: its blocks are solved
    whole.  Blocks of one size and one fixed-row count go through one stacked
    ``eigh`` call per sector, a real one where the stack has no nonzero
    imaginary part.  Complex blocks that R: i -> dim-1-i maps onto themselves
    with H[R i, R j] == conj(H[i, j]) exactly (centrohermitian, as O5) are
    solved as the real symmetric G = Re H - Im H J, J the block's reversal;
    H's eigenvectors are (y + i J y)/sqrt2, and as R commutes with M, G splits
    into the same sectors and they keep y's parity.  The eigenpairs are
    sorted ascending; equal eigenvalues are ordered by block (smaller blocks
    first, then by smallest index), the even sector before the odd, then as
    ``eigh`` returns them.  Each stack's phase-fixed vectors are kept as one
    :class:`EigenSolve` with their rows and global columns; no dense eigenvector
    matrix is built.

    Raises ValueError, naming their count and the first, on NaN or infinite
    entries, and :class:`NonHermitianError` when the Hermiticity deviation
    exceeds HERMITIAN_TOL relative to the largest entry.  No entry links two
    blocks, so the deviation and the largest entry are those of the blocks;
    a ChainOperator's are read from its entries.
    """
    if isinstance(op, ChainOperator):
        check_dense_dim(op.dim)
        dim, nonzero = op.dim, op.flat
        mirror = chain_mirror_index(op.n_sites) if op.n_sites >= 2 else None
    else:
        op = np.asarray(op)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {op.shape}")
        dim, nonzero, mirror = op.shape[0], np.flatnonzero(op), None
    residual = None if mirror is None else commutator_residual(op, mirror, nonzero)
    blocks = connected_blocks(nonzero, dim)
    if len(blocks) == 1:
        groups = [blocks[0][None, :]]
        stacks = [(op.dense() if isinstance(op, ChainOperator) else op)[None]]
    else:
        by_size = {}
        for block in blocks:
            by_size.setdefault(block.size, []).append(block)
        groups = [np.stack(by_size[size]) for size in sorted(by_size)]
        stacks = [entries_at(op, rows[:, :, None] * dim + rows[:, None, :]) for rows in groups]
    chain = isinstance(op, ChainOperator)
    largest = [float(np.max(np.abs(s), initial=0.0)) for s in ([op.values] if chain else stacks)]
    if not all(map(math.isfinite, largest)):
        bad = nonzero[~np.isfinite(entries_at(op, nonzero))]
        raise ValueError(f"matrix has {bad.size} non-finite entries (NaN or inf), the first at "
                         f"(row, column) {tuple(int(k) for k in divmod(bad[0], dim))}")
    scale = max(*largest, 1.0)
    dev = op.hermiticity_deviation() if chain else max(hermiticity_deviation(s) for s in stacks)
    if not dev <= HERMITIAN_TOL * scale:
        raise NonHermitianError(f"matrix is not Hermitian: deviation {dev:.3e} exceeds "
                                f"{HERMITIAN_TOL:.1e} * {scale:.3e}")
    # block k is numbered numbers[g] + k within group g
    numbers = np.cumsum([0] + [rows.shape[0] for rows in groups])
    # each block's parity factor: 0 when H is no exact commuter, else -1 on the
    # second of two blocks that M swaps and 1 on every other block
    known = np.zeros(numbers[-1], dtype=np.int8)
    if residual == 0:
        # each row's block number and its position in its block's rows
        block_of, position = np.empty((2, dim), dtype=int)
        for rows, first in zip(groups, numbers):
            block_of[rows] = first + np.arange(rows.shape[0])[:, None]
            position[rows] = np.arange(rows.shape[1])
    solved = []
    for rows, stack, first in zip(groups, stacks, numbers):
        count, size = rows.shape
        # a real stack is solved as its real part, and complex blocks that R (i -> dim-1-i)
        # maps onto themselves with H[R i, R j] == conj(H[i, j]) as G = Re H - Im H J
        real = not (np.iscomplexobj(stack) and stack.imag.any())
        centro = (not real and np.array_equal(rows[:, ::-1], dim - 1 - rows)
                  and np.array_equal(stack[:, ::-1, ::-1], stack.conj()))
        if real or centro:
            stack = stack.real - stack.imag[..., ::-1] if centro else stack.real
        ids = first + np.arange(count)
        # the position of each row's mirror image in its block, or the row's
        # own where M does not map the block onto itself or nothing can split
        image, fixed = np.tile(np.arange(size), (count, 1)), np.full(count, size)
        if residual == 0:
            images = mirror[rows]
            partner = block_of[images[:, 0]]  # M maps blocks onto blocks
            kept = partner == ids
            known[ids] = np.where(partner < ids, -1, 1)
            image = np.where(kept[:, None], position[images], image)
            fixed = np.count_nonzero(image == np.arange(size), axis=1)
        for count_fixed in np.unique(fixed):
            same = fixed == count_fixed
            pick = slice(None) if same.all() else same
            for mats, *scatter in _parity_sectors(stack[pick], rows[pick], image[pick], ids[pick]):
                solved.append((*np.linalg.eigh(mats), *scatter, centro))
    del stacks, stack, mats  # every matrix is solved: free them before the phase fix
    values = np.concatenate([w.ravel() for w, *_ in solved])
    block_keys = np.concatenate([np.repeat(ids, rows.shape[1])
                                 for _, _, rows, _, _, _, ids, _ in solved])
    signs = np.concatenate([np.full(rows.size, sign, dtype=np.int8)
                            for _, _, rows, _, _, sign, _, _ in solved])
    order = np.lexsort((signs < 0, block_keys, values))
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    solves, offset = [], 0
    for _, v, rows, mirrored, weights, sign, _, centro in solved:
        count, size = rows.shape
        if weights is not None:
            v = v * weights[:, :, None]
        if centro:
            # H's eigenvectors (y + i J y)/sqrt2: J y on row i is y on R i, which is
            # held on its orbit's first row, signed as the mirrored rows are
            position, held = np.empty(dim, dtype=int), np.zeros(dim, dtype=bool)
            position[mirrored] = position[rows] = np.arange(size)
            held[rows], reflected = True, dim - 1 - rows
            v = v * complex(_SQRT_HALF)
            v.imag = (np.take_along_axis(v.real, position[reflected][:, :, None], axis=1)
                      * np.where(held[reflected], 1.0, sign)[:, :, None])
        # the columns of every matrix of the stack side by side, phase-fixed at once
        v = fix_eigenvector_phases(v.transpose(1, 0, 2).reshape(size, -1))
        solves.append(EigenSolve(
            rows, None if weights is None else mirrored, sign,
            column[offset:offset + rows.size].reshape(rows.shape),
            np.ascontiguousarray(v.reshape(size, count, size).transpose(1, 0, 2))))
        offset += rows.size
    return HermitianEigenSystem(eigenvalues=values[order], solves=tuple(solves),
                                mirror_residual=residual,
                                parities=(signs * known[block_keys])[order])


class EvolutionCache:
    """Eigendecomposition of one Hamiltonian, reusable across time points.

    ``nonzero`` holds the flat indices of the Hamiltonian's nonzero
    entries.  :meth:`memoized` keeps other results derived from the
    Hamiltonian (its mirror analyses), so they too are computed once.
    """

    def __init__(self, eigensystem, fingerprint, nonzero):
        self.eigensystem = eigensystem
        self.fingerprint = fingerprint
        self.nonzero = nonzero
        self._memo = {}

    def memoized(self, key, compute):
        """``compute()`` the first time ``key`` is asked for; its stored result after."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def unitary(self, t, sign=1):
        """exp(i*sign*H*t) as a dense matrix, the tiles of
        :meth:`HermitianEigenSystem.unitary_blocks` scattered into zeros.

        Only ``swap-check`` needs the whole two-site 9 x 9 unitary; the mirror
        test reads the tiles without forming it.
        """
        es = self.eigensystem
        out = np.zeros((es.dim, es.dim), dtype=complex)
        for rows, cols, tile in es.unitary_blocks(np.exp(1j * sign * es.eigenvalues * t)):
            out[rows[:, :, None], cols[:, None, :]] = tile
        return out


_CACHE_LIMIT = 8
_cache_by_fingerprint = {}


def content_key(op):
    """sha256 key of a matrix's content, and the flat indices of its nonzero entries.

    The matrix is read as words of gcd(item size, 8) bytes: 64-bit words
    for float64 and complex128.  The key hashes the dtype, the shape, the
    positions of the nonzero words and those words, so it is as injective
    on the matrix bytes as a hash of all of them: ``-0.0`` and ``0.0``
    differ, and so do equal bytes under another shape or dtype.  Only the
    nonzero words are hashed, which for a sparse Hamiltonian is a small
    part of its dense bytes.  The nonzero entries are those that compare
    unequal to zero (a ``-0.0`` entry is not one), ascending.  A
    ChainOperator's key, from its entries, is that of its dense matrix.
    """
    if isinstance(op, ChainOperator):
        dtype, shape, entries = op.values.dtype, (op.dim, op.dim), op.flat
        words = op.values.view("u8")
        # the real and the imaginary word of entry k sit at 2k and 2k + 1
        where = (2 * entries[:, None] + np.arange(2)).ravel()[words != 0]
        words = words[words != 0]
    else:
        mat = np.ascontiguousarray(op)
        dtype, shape, flat = mat.dtype, mat.shape, mat.reshape(-1)
        word = math.gcd(mat.itemsize, 8)
        words = flat.view(f"u{word}")
        where = (words != 0).nonzero()[0]
        words = words[where]
        entries = where // (mat.itemsize // word)
        # an entry of several nonzero words is listed once
        keep = flat[entries] != 0
        keep[1:] &= entries[1:] != entries[:-1]
        entries = entries[keep]
    digest = hashlib.sha256(repr((dtype.str, shape)).encode())
    digest.update(where.tobytes())
    digest.update(words.tobytes())
    return digest.hexdigest(), entries


def evolution_cache(op):
    """Memoized eigendecomposition keyed by matrix content (:func:`content_key`).

    A ChainOperator and its dense matrix share one key.  An entry that the array
    filled has no chain-mirror residual or parities, so a ChainOperator of n >= 2
    sites that finds one solves itself and replaces it: its analyses then do not
    depend on which form was solved first.
    """
    digest, nonzero = content_key(op)
    cached = _cache_by_fingerprint.get(digest)
    if cached is None or (isinstance(op, ChainOperator) and op.n_sites >= 2
                          and cached.eigensystem.mirror_residual is None):
        cached = EvolutionCache(eig_hermitian(op), digest, nonzero)
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
