"""Joint spectra of commuting tuples and the spectral mapping checks.

Four notions are computed, each with an explicit certificate: the point
spectrum (common right eigenvectors), the residual spectrum (common left
eigenvectors, equivalently the point spectrum of the adjoint tuple), the
approximate spectrum (smallest singular value of the stacked shifts, which
collapses onto the point spectrum in finite dimension), and their union.

Both sides of the duality take one route.  The point and approximate
spectra read the tuple's block split ``A.blocks`` (``_schur``: one
reordered Schur form per tuple, shared with ``calculus``); the residual
spectrum reads the split of the reversed adjoint tuple, ``A.adjoint_blocks``,
also formed once per tuple, and conjugates its points.  In a split, the
joint eigenvalues are read inside each eigenvalue cluster's invariant
subspace, directly for a simple eigenvalue and by a kernel solve on the
m x m compressions for a cluster of size m, O(d^3) in all for d distinct
joint eigenvalues.  Each certificate (the stacked singular value per
approximate point, the corank per residual point) is the stacked residual
of the unit eigenvector that admitted the point, an upper bound on the
smallest singular value of the stack (Trefethen & Embree 2005); only where
it misses the scaled tolerance does an SVD of the nd x d stack
(``stacked_residual``) give the exact value.  Eigenvector tests and
certificates are scaled by max(1, ||C||_2), so that a tuple of large norm
keeps its points.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._schur import Blocks, _clusters
from .bernstein import BernsteinFunction, eval_psi
from .calculus import apply_psi
from .semigroup import OperatorTuple

__all__ = [
    "SpectrumPoint", "JointSpectrumResult", "MappingRow", "MappingReport",
    "joint_point_spectrum", "joint_residual_spectrum",
    "joint_approximate_spectrum", "joint_spectrum", "stacked_residual",
    "mapping_check",
]


@dataclass(frozen=True)
class SpectrumPoint:
    """One joint spectrum point with whichever certificates were computed.

    ``right_vector``: the unit common eigenvector x that admitted the
    point, max_j ||A_j x - lam_j x|| <= tol s, s = max(1, ||C||_2) the
    scale of the tuple's split; ``residual`` is read from it.
    ``left_vector``: the unit common left eigenvector f that admitted the
    point, max_j ||A_j^* f - conj(lam_j) f|| <= tol s' (s' the scale of the
    adjoint split); ``corank`` is read from it.
    ``residual``: sqrt(sum_j ||(A_j - lam_j) x||^2) for the returned x, an
    upper bound on the smallest singular value of the vertical stack of
    (A_j - lam_j I), the approximate-spectrum certificate; where it exceeds
    tol s, that singular value itself, from an SVD, with x its minimizer.
    ``corank``: sqrt(sum_j ||(A_j^* - conj(lam_j)) f||^2) for the returned
    f, an upper bound on the smallest singular value of the horizontal
    stack of (lam_j I - A_j), evidence that the joint range is not dense;
    where it exceeds tol s', that singular value, with f its minimizer.
    """

    value: np.ndarray
    right_vector: Optional[np.ndarray] = None
    left_vector: Optional[np.ndarray] = None
    residual: Optional[float] = None
    corank: Optional[float] = None
    multiplicity: int = 1


@dataclass(frozen=True)
class JointSpectrumResult:
    points: tuple
    tol: float

    def values(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 0), dtype=complex)
        return np.array([p.value for p in self.points])


def _block_eigvecs(blocks, tol):
    """All (lam, K) with K an orthonormal basis of the joint eigenspace of
    small commuting ``blocks``.

    Numerical kernels of (B_0 - lam) are invariant under the remaining
    blocks, so each level restricts and descends, one SVD per eigenvalue
    cluster.  A cluster is collapsed to its mean before the kernel solve,
    which keeps exactly-triangular nilpotent blocks (the non-diagonalizable
    inputs this library constructs) from splitting.
    """
    out = []

    def recurse(idx, Q, prefix):
        if idx == len(blocks):
            out.append((np.array(prefix, dtype=complex), Q))
            return
        B = Q.conj().T @ blocks[idx] @ Q
        k = B.shape[0]
        scale = max(1.0, float(np.linalg.norm(B, 2)))
        ev = np.linalg.eigvals(B)
        for member in _clusters(ev, 1e-6 * scale):
            lam = complex(np.mean(ev[member]))
            spread = float(np.max(np.abs(ev[member] - lam)))
            s_vals, Vh = np.linalg.svd(B - lam * np.eye(k))[1:]
            ktol = max(tol, 2.0 * spread / scale) * scale
            dim = int(np.sum(s_vals <= ktol))
            if dim == 0:
                continue
            K = Vh[k - dim:].conj().T
            recurse(idx + 1, Q @ K, prefix + [lam])

    recurse(0, np.eye(blocks[0].shape[0], dtype=complex), [])
    return out


def _joint_points(split: Blocks, tol):
    """(lam, x, r, m) for each joint eigenvalue lam of ``split.mats`` whose
    unit common eigenvector x passes max_j ||(mats_j - lam_j) x|| <= tol
    max(1, ||C||_2); r = sqrt(sum_j ||(mats_j - lam_j) x||^2) is the stacked
    residual of x and m the dimension of its joint eigenspace.

    A cluster of one eigenvalue gives lam_j = x^* A_j x, its 1 x 1
    compression; a larger one (a Jordan block, a repeated eigenvalue, or
    distinct joint eigenvalues whose theta-combinations coincide) is solved
    by ``_block_eigvecs`` on its m x m compressions, in O(m^3).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    found = []
    for Q, blocks in zip(split.bases, split.compressions):
        pairs = ([(np.array([B[0, 0] for B in blocks]), Q)] if Q.shape[1] == 1
                 else [(lam, Q @ K) for lam, K in _block_eigvecs(blocks, tol)])
        found += [(lam, V[:, 0] / np.linalg.norm(V[:, 0]), V.shape[1])
                  for lam, V in pairs]
    lams = np.reshape([lam for lam, _, _ in found], (-1, len(split.mats)))
    X = np.reshape([x for _, x, _ in found], (-1, split.mats[0].shape[0])).T
    norms = np.array([np.linalg.norm(G @ X - X * lams[:, j], axis=0)
                      for j, G in enumerate(split.mats)])
    stacked = np.sqrt(np.sum(norms ** 2, axis=0))
    return [(lam, x, float(r), m)
            for (lam, x, m), worst, r in zip(found, np.max(norms, axis=0), stacked)
            if worst <= tol * split.scale]


def _certified(split: Blocks, tol):
    """``_joint_points``, each stacked residual r that exceeds tol max(1,
    ||C||_2) replaced by the smallest singular value of the stack and x by
    its minimizer, from an SVD."""
    out = []
    for lam, x, r, m in _joint_points(split, tol):
        if r > tol * split.scale:
            r, x = _smallest_singular(split.mats, lam)
        out.append((lam, x, r, m))
    return out


def _smallest_singular(mats, lam):
    """min over unit x of sqrt(sum_j ||(mats_j - lam_j)x||^2), the smallest
    singular value of the vertical stack, with minimizer."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    eye = np.eye(mats[0].shape[0])
    stack = np.vstack([G - l * eye for G, l in zip(mats, lam)])
    _, s_vals, Vh = np.linalg.svd(stack)
    return float(s_vals[-1]), Vh[-1].conj()


def stacked_residual(A: OperatorTuple, lam):
    """min over unit x of sqrt(sum_j ||(A_j - lam_j)x||^2), with minimizer."""
    return _smallest_singular(A.generators, lam)


def joint_point_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Tuples lam admitting a common eigenvector, certificates attached."""
    pts = tuple(SpectrumPoint(value=lam, right_vector=x, multiplicity=m)
                for lam, x, _, m in _joint_points(A.blocks, tol))
    return JointSpectrumResult(points=pts, tol=tol)


def joint_approximate_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Point spectrum re-certified through the stacked singular value.

    In finite dimension the approximate spectrum equals the point spectrum
    (unit-sphere compactness turns approximate eigenvectors into exact
    ones), so the value set is shared and only the certificate differs.
    """
    pts = tuple(SpectrumPoint(value=lam, right_vector=x, residual=r,
                              multiplicity=m)
                for lam, x, r, m in _certified(A.blocks, tol))
    return JointSpectrumResult(points=pts, tol=tol)


def joint_residual_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Adjoint duality: the conjugated approximate spectrum of the adjoint
    tuple, read from its split ``A.adjoint_blocks`` of the rev A_j^* rev;
    each vector, reversed back, is a left vector of the A_j."""
    pts = tuple(SpectrumPoint(value=np.conj(mu), left_vector=f[::-1],
                              corank=r, multiplicity=m)
                for mu, f, r, m in _certified(A.adjoint_blocks, tol))
    return JointSpectrumResult(points=pts, tol=tol)


def _merged(p: SpectrumPoint, q: SpectrumPoint) -> SpectrumPoint:
    """Point p with the left vector and corank of residual point q."""
    return SpectrumPoint(value=p.value, right_vector=p.right_vector,
                         left_vector=q.left_vector, residual=p.residual,
                         corank=q.corank,
                         multiplicity=max(p.multiplicity, q.multiplicity))


def _near(values, q, tol):
    """Rows of ``values`` within tol (1 + max|p|) of each row of ``q``, as a
    len(q) x len(values) mask."""
    gap = np.max(np.abs(values[None, :, :] - q[:, None, :]), axis=2)
    return gap <= tol * (1.0 + np.max(np.abs(values), axis=1))


def _union(approx: JointSpectrumResult,
           resid: JointSpectrumResult) -> JointSpectrumResult:
    """Residual-spectrum points merged into the approximate spectrum.

    Each residual point merges into the first approximate point near it;
    one with none is compared with the residual points appended before it,
    and is appended itself when none of those is near either.
    """
    tol = approx.tol
    pts = list(approx.points)
    m = len(pts)
    near = (_near(approx.values(), resid.values(), tol) if m and resid.points
            else np.zeros((len(resid.points), m), dtype=bool))
    for q, row in zip(resid.points, near):
        hits = np.flatnonzero(row)
        if not hits.size and len(pts) > m:
            extra = np.array([p.value for p in pts[m:]])
            hits = m + np.flatnonzero(_near(extra, q.value[None], tol)[0])
        if hits.size:
            pts[hits[0]] = _merged(pts[hits[0]], q)
        else:
            pts.append(q)
    return JointSpectrumResult(points=tuple(pts), tol=tol)


def joint_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Union of the approximate and residual spectra, certificates merged."""
    return _union(joint_approximate_spectrum(A, tol),
                  joint_residual_spectrum(A, tol))


# ---------------------------------------------------------------------------
# spectral mapping


@dataclass(frozen=True)
class MappingRow:
    """One joint point of a mapping check, or one (eigenvalue, point) pair
    in part 3.  ``distance`` and ``threshold`` decide ``verdict``;
    ``evidence`` is never judged, it records why the row is there:

    - parts 1 and 4: ||f^* (F - psi(lam))|| for the left vector f of a
      residual point (part 1), ||(F - psi(lam)) x|| for the right vector x
      of an approximate point (part 4), F = psi(A), an upper bound on
      sigma_min(F - psi(lam) I); where it exceeds ``threshold``, that
      singular value itself, from an SVD;
    - part 2: ||F x - psi(lam) x|| for the common eigenvector x of lam;
    - part 3: |<f, x>|, the pairing of the left vector f of lam with the
      eigenvector x of F (rows with pairing <= tol are dropped);
    - part 5: 0.0, the union is judged by distance alone.
    """

    part: int
    source: tuple
    mapped: complex
    matched: Optional[complex]
    distance: float
    threshold: float
    evidence: float
    verdict: str


@dataclass(frozen=True)
class MappingReport:
    part: int
    applicable: bool
    reason: str
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.rows)


def _partial_hypothesis(psi: BernsteinFunction):
    """(all partials finite at -0, how that was decided)."""
    if psi.partials_finite is not None:
        return all(psi.partials_finite), "catalog"
    # heuristic slope-growth probe toward the origin: a finite one-sided
    # derivative gives difference quotients that stop growing
    finite = []
    for j in range(psi.n):
        e = np.zeros(psi.n)
        e[j] = 1.0
        d1 = (eval_psi(psi, -1e-6 * e) - eval_psi(psi, -2e-6 * e)) / 1e-6
        d2 = (eval_psi(psi, -1e-8 * e) - eval_psi(psi, -2e-8 * e)) / 1e-8
        finite.append(abs(d2) <= 3.0 * (abs(d1) + 1e-12))
    return all(finite), "heuristic"


def _targets(psi: BernsteinFunction, points):
    """psi at each joint spectral point (Python complex), in one call on the
    point set."""
    S = np.reshape([p.value for p in points], (-1, psi.n))
    return eval_psi(psi, S).tolist()


def _nearest(values, target):
    if len(values) == 0:
        return None, np.inf
    idx = int(np.argmin(np.abs(values - target)))
    return complex(values[idx]), float(abs(values[idx] - target))


def mapping_check(psi: BernsteinFunction, A: OperatorTuple, part: int,
                  tol: float = 1e-6, operator=None) -> MappingReport:
    """One inclusion of the mapping theorem, as a per-point report.

    ``operator`` lets callers reuse a precomputed psi(A); by default it is
    ``apply_psi``.  On a generator-only tuple both sides read the tuple's
    block split (``A.blocks``): psi(A) is assembled in its basis and the
    joint spectrum is read from its clusters.  The values stay independent:
    psi(A) comes from quadrature of the Levy integral and psi(lambda) from
    the closed form at each joint point, and the eigenvalues of psi(A) are
    taken by LAPACK (``eig``) from the assembled matrix, not from the split.
    """
    if part not in (1, 2, 3, 4, 5):
        raise ValueError("part must be 1..5")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    F = apply_psi(psi, A) if operator is None else operator
    evals, evecs = np.linalg.eig(F)
    rows = []
    applicable = True
    reason = "unconditional"

    if part in (4, 5):
        approx = joint_approximate_spectrum(A)
        if all(np.all(p.value.real < 0) for p in approx.points) and approx.points:
            reason = "all approximate-spectrum points in the open left half-plane"
        else:
            finite, how = _partial_hypothesis(psi)
            if finite:
                reason = "finite one-sided partial derivatives (%s)" % how
            else:
                return MappingReport(part=part, applicable=False,
                                     reason="boundary spectrum and infinite "
                                            "partial derivative at -0",
                                     rows=())

    def sigma_min(vectors, targets, left):
        """sigma_min(F - t I) for each target t, bounded from above by the
        residual of its point's unit vector, ||f^* (F - t)|| for a left
        vector f and ||(F - t) x|| for a right one; the SVD of F - t I only
        where that bound exceeds the row's threshold."""
        # one row w per point: w = f^* against F, or w = x^T against F^T
        W = np.reshape(vectors, (-1, A.d))
        W, M = (W.conj(), F) if left else (W, F.T)
        shifts = np.asarray(targets, dtype=complex)[:, None]
        bounds = np.linalg.norm(W @ M - shifts * W, axis=1)
        return [float(b) if b <= tol * (1.0 + abs(t)) else
                float(np.linalg.svd(F - t * np.eye(A.d), compute_uv=False)[-1])
                for t, b in zip(targets, bounds)]

    def judge(lam_tuple, target, evidence):
        matched, dist = _nearest(evals, target)
        thr = tol * (1.0 + abs(target))
        return MappingRow(part=part, source=tuple(lam_tuple), mapped=target,
                          matched=matched, distance=dist, threshold=thr,
                          evidence=evidence,
                          verdict="pass" if dist <= thr else "fail")

    if part == 1:
        points = joint_residual_spectrum(A).points
        targets = _targets(psi, points)
        sigmas = sigma_min([p.left_vector for p in points], targets, True)
        for p, target, sigma in zip(points, targets, sigmas):
            rows.append(judge(p.value, target, sigma))
    elif part == 2:
        points = joint_point_spectrum(A).points
        for p, target in zip(points, _targets(psi, points)):
            x = p.right_vector
            res = float(np.linalg.norm(F @ x - target * x))
            rows.append(judge(p.value, target, res))
    elif part == 3:
        resid = joint_residual_spectrum(A).points
        targets = _targets(psi, resid)
        # |L^* V|: row p pairs the left vector of point p with each
        # eigenvector of F
        L = np.reshape([p.left_vector for p in resid], (-1, A.d))
        pairings = np.abs(L.conj() @ evecs)
        for i in range(len(evals)):
            alpha = complex(evals[i])
            for p, target, pairing in zip(resid, targets, pairings[:, i].tolist()):
                if pairing <= tol:
                    continue
                dist = abs(alpha - target)
                thr = tol * (1.0 + abs(alpha))
                rows.append(MappingRow(
                    part=3, source=tuple(p.value), mapped=alpha,
                    matched=target, distance=dist, threshold=thr,
                    evidence=pairing,
                    verdict="pass" if dist <= thr else "fail"))
    elif part == 4:
        targets = _targets(psi, approx.points)
        sigmas = sigma_min([p.right_vector for p in approx.points], targets,
                           False)
        for p, target, sigma in zip(approx.points, targets, sigmas):
            rows.append(judge(p.value, target, sigma))
    else:
        points = _union(approx, joint_residual_spectrum(A)).points
        for p, target in zip(points, _targets(psi, points)):
            rows.append(judge(p.value, target, 0.0))

    return MappingReport(part=part, applicable=applicable, reason=reason,
                         rows=tuple(rows))
