"""The block split of a commuting tuple, from one reordered Schur form.

Both the joint spectra (``spectra``) and the block-jet integrands of
``calculus`` split the space the same way: one complex Schur form of a
generic combination C = sum_j theta_j A_j, its diagonal clustered, and each
cluster moved to the front with ``ztrsen`` so that the leading Schur vectors
span its invariant subspace.  Every A_j commutes with C and so leaves that
subspace invariant (Corless, Gianni & Trager, ISSAC 1997).  ``Blocks`` is
that split, computed once per tuple as ``OperatorTuple.blocks``, and once
for the reversed adjoint tuple as ``OperatorTuple.adjoint_blocks``, from
which ``spectra`` reads the residual spectrum by the same route.  It keeps
the matrices it split, on which ``spectra`` checks each joint eigenvector.
"""

from functools import cached_property

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


class Blocks:
    """The split of commuting ``mats`` (kept as ``mats``): X = ``basis`` =
    [Q_1 ... Q_k], Q_i = ``bases[i]`` an orthonormal basis of the invariant
    subspace of the i-th eigenvalue cluster of C (single-linkage groups of
    the Schur diagonal at radius 1e-6 max(1, ||C||_2), in order of first
    Schur position), and ``compressions[i][j]`` = Q_i^* A_j Q_i.  ``theta``
    holds the weights of C and ``scale`` is max(1, ||C||_2).  ``inverse``
    and ``cond`` of X are formed on first use.  Cost: one d x d Schur form and
    norm, then O(d^2) reordering and O(n d^2 m_i) products per cluster of
    size m_i.  Raises LinAlgError when ``ztrsen`` cannot reorder a cluster.
    """

    def __init__(self, mats):
        self.mats = mats
        d = mats[0].shape[0]
        self.theta = np.resize(_THETA, len(mats))
        C = sum(t * G for t, G in zip(self.theta, mats))
        T, Z = schur(C, output="complex")
        self.scale = max(1.0, float(np.linalg.norm(C, 2)))
        leading = []
        for member in _clusters(np.diag(T), 1e-6 * self.scale):
            select = np.zeros(d, dtype=np.int32)
            select[member] = 1
            _, Q, _, _, _, _, info = ztrsen(select, T, Z, job="N")
            if info != 0:
                raise np.linalg.LinAlgError(
                    "Schur reordering failed for an eigenvalue cluster")
            leading.append(Q[:, :len(member)])
        # one d x d basis: the d x d reorderings are dropped once copied in
        self.basis = np.hstack(leading)
        edges = np.cumsum([0] + [Q.shape[1] for Q in leading])
        self.bases = [self.basis[:, lo:hi] for lo, hi in zip(edges, edges[1:])]
        self.compressions = [[Q.conj().T @ G @ Q for G in mats]
                             for Q in self.bases]

    @cached_property
    def inverse(self):
        return np.linalg.inv(self.basis)

    @cached_property
    def cond(self):
        return float(np.linalg.cond(self.basis))
