"""Invariant subspaces of a commuting tuple from one reordered Schur form.

Both the joint spectra (``spectra``) and the block-jet integrands of
``calculus`` split the space the same way: one complex Schur form of a
generic combination C = sum_j theta_j A_j, its diagonal clustered, and each
cluster moved to the front with ``ztrsen`` so that the leading Schur vectors
span its invariant subspace.  Every A_j commutes with C and so leaves that
subspace invariant (Corless, Gianni & Trager, ISSAC 1997).
"""

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import ztrsen

# weights of the combination C = sum_j theta_j A_j: 1 and fractional parts of
# square roots of primes, linearly independent over the rationals, so that
# distinct points of a lattice spectrum such as i Z^n keep distinct
# combinations (past eight generators the weights repeat; coincidences only
# enlarge a cluster, which the block solve separates)
_THETA = np.concatenate(([1.0], np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0]) % 1.0))


def _clusters(vals, radius):
    """Single-linkage groups of ``vals`` at ``radius``: one index array per
    group, in the order of each group's first member."""
    vals = np.asarray(vals)
    near = np.abs(vals[:, None] - vals[None, :]) <= radius
    # every index takes the smallest label among its neighbours until none
    # changes; each group then carries the index of its first member
    labels = np.arange(len(vals))
    while True:
        low = np.min(np.where(near, labels, len(vals)), axis=1)
        if np.array_equal(low, labels):
            break
        labels = low
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


def invariant_bases(mats):
    """One orthonormal d x m basis Q per eigenvalue cluster of C, in the
    order of the clusters' first Schur positions.

    The clusters are the single-linkage groups of the Schur diagonal at
    radius 1e-6 max(1, ||C||_2).  Cost: one d x d Schur form and norm, then
    O(d^2) reordering per cluster.  Raises LinAlgError when ``ztrsen``
    cannot reorder a cluster.
    """
    d = mats[0].shape[0]
    C = sum(t * G for t, G in zip(np.resize(_THETA, len(mats)), mats))
    T, Z = schur(C, output="complex")
    radius = 1e-6 * max(1.0, float(np.linalg.norm(C, 2)))
    out = []
    for member in _clusters(np.diag(T), radius):
        m = len(member)
        if member[-1] == m - 1:
            out.append(Z[:, :m])
            continue
        select = np.zeros(d, dtype=np.int32)
        select[member] = 1
        _, Q, _, _, _, _, info = ztrsen(select, T, Z, job="N")
        if info != 0:
            raise np.linalg.LinAlgError(
                "Schur reordering failed for an eigenvalue cluster")
        out.append(Q[:, :m])
    return out
