"""Reference parities for the tests: the mirror diagonalized cluster by cluster.

The package reads each eigenvector's parity from the parity sector that
solved it.  This reference knows nothing of sectors: it diagonalizes the
mirror inside each eigenvalue cluster of any eigenvector matrix, so degenerate
levels that a plain eigensolver mixes are resolved too.
"""

import numpy as np


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
