"""Joint spectra of commuting tuples and the spectral mapping checks.

Four notions are computed, each with an explicit certificate: the point
spectrum (common right eigenvectors), the residual spectrum (common left
eigenvectors, equivalently the point spectrum of the adjoint tuple), the
approximate spectrum (smallest singular value of the stacked shifts, which
collapses onto the point spectrum in finite dimension), and their union.

Common eigenvectors come from the tuple's block split ``A.blocks``
(``_schur``: one reordered Schur form per tuple, shared with ``calculus``):
the joint eigenvalues are read inside each eigenvalue cluster's invariant
subspace, directly for a simple eigenvalue and by a kernel solve on the
m x m compressions of the A_j for a cluster of size m, O(d^3) in all for d
distinct joint eigenvalues.  The residual spectrum splits the adjoint
tuple; the certificates (the stacked singular value per approximate point,
the corank per residual point) cost one SVD of a d x nd or nd x d stack each.
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

    ``right_vector``: unit x with max_j ||A_j x - lam_j x|| <= tol.
    ``left_vector``: unit f with max_j ||A_j^* f - conj(lam_j) f|| <= tol.
    ``residual``: smallest singular value of the vertical stack of
    (A_j - lam_j I), the approximate-spectrum certificate.
    ``corank``: smallest singular value of the horizontal stack of
    (lam_j I - A_j), evidence that the joint range is not dense.
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


def _common_eigvecs(split: Blocks, tol):
    """All (lam, Q) with Q an orthonormal basis of the joint eigenspace,
    from the block split ``split`` (``_schur.Blocks``).

    A cluster of one eigenvalue gives lam_j = x^* A_j x, its 1 x 1
    compression; a larger one (a Jordan block, a repeated eigenvalue, or
    distinct joint eigenvalues whose theta-combinations coincide) is solved
    by ``_block_eigvecs`` on its m x m compressions, in O(m^3).
    """
    out = []
    for Q, blocks in zip(split.bases, split.compressions):
        if Q.shape[1] == 1:
            out.append((np.array([B[0, 0] for B in blocks]), Q))
        else:
            out.extend((lam, Q @ K) for lam, K in _block_eigvecs(blocks, tol))
    return out


def _max_residual(mats, lam, x):
    return max(float(np.linalg.norm(mats[j] @ x - lam[j] * x))
               for j in range(len(mats)))


def joint_point_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Tuples lam admitting a common eigenvector, certificates attached."""
    pts = []
    for lam, Q in _common_eigvecs(A.blocks, tol):
        x = Q[:, 0]
        x = x / np.linalg.norm(x)
        if _max_residual(A.generators, lam, x) > tol:
            continue
        pts.append(SpectrumPoint(value=lam, right_vector=x,
                                 multiplicity=Q.shape[1]))
    return JointSpectrumResult(points=tuple(pts), tol=tol)


def joint_residual_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Adjoint duality: conjugated point spectrum of the adjoint tuple."""
    star = [G.conj().T for G in A.generators]
    # reversal similarity: the adjoint of an upper-triangular generator is
    # lower triangular, where the eigensolver splits defective eigenvalues;
    # flipping restores triangular form and costs nothing for other inputs
    rev = np.eye(A.d)[::-1]
    flipped = [rev @ G @ rev for G in star]
    eye = np.eye(A.d)
    pts = []
    for mu, Q in _common_eigvecs(Blocks(flipped), tol):
        f = rev @ Q[:, 0]
        f = f / np.linalg.norm(f)
        if _max_residual(star, mu, f) > tol:
            continue
        lam = np.conj(mu)
        stack = np.hstack([lam[j] * eye - A.generators[j] for j in range(A.n)])
        corank = float(np.linalg.svd(stack, compute_uv=False)[-1])
        pts.append(SpectrumPoint(value=lam, left_vector=f, corank=corank,
                                 multiplicity=Q.shape[1]))
    return JointSpectrumResult(points=tuple(pts), tol=tol)


def stacked_residual(A: OperatorTuple, lam):
    """min over unit x of sqrt(sum_j ||(A_j - lam_j)x||^2), with minimizer."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    eye = np.eye(A.d)
    stack = np.vstack([A.generators[j] - lam[j] * eye for j in range(A.n)])
    _, s_vals, Vh = np.linalg.svd(stack)
    return float(s_vals[-1]), Vh[-1].conj()


def joint_approximate_spectrum(A: OperatorTuple, tol: float = 1e-8) -> JointSpectrumResult:
    """Point spectrum re-certified through the stacked singular value.

    In finite dimension the approximate spectrum equals the point spectrum
    (unit-sphere compactness turns approximate eigenvectors into exact
    ones), so the value set is shared and only the certificate differs.
    """
    base = joint_point_spectrum(A, tol)
    pts = []
    for p in base.points:
        res, x = stacked_residual(A, p.value)
        pts.append(SpectrumPoint(value=p.value, right_vector=x,
                                 residual=res, multiplicity=p.multiplicity))
    return JointSpectrumResult(points=tuple(pts), tol=tol)


def _union(approx: JointSpectrumResult,
           resid: JointSpectrumResult) -> JointSpectrumResult:
    """Residual-spectrum points merged into the approximate spectrum."""
    tol = approx.tol
    pts = list(approx.points)
    for q in resid.points:
        merged = False
        for i, p in enumerate(pts):
            if np.max(np.abs(p.value - q.value)) <= tol * (1.0 + np.max(np.abs(p.value))):
                pts[i] = SpectrumPoint(
                    value=p.value, right_vector=p.right_vector,
                    left_vector=q.left_vector, residual=p.residual,
                    corank=q.corank,
                    multiplicity=max(p.multiplicity, q.multiplicity))
                merged = True
                break
        if not merged:
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

    def judge(lam_tuple, target, evidence):
        matched, dist = _nearest(evals, target)
        thr = tol * (1.0 + abs(target))
        return MappingRow(part=part, source=tuple(lam_tuple), mapped=target,
                          matched=matched, distance=dist, threshold=thr,
                          evidence=evidence,
                          verdict="pass" if dist <= thr else "fail")

    if part == 1:
        points = joint_residual_spectrum(A).points
        for p, target in zip(points, _targets(psi, points)):
            sigma = float(np.linalg.svd(target * np.eye(A.d) - F,
                                        compute_uv=False)[-1])
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
        for i in range(len(evals)):
            alpha = complex(evals[i])
            x = evecs[:, i]
            for p, target in zip(resid, targets):
                pairing = float(abs(p.left_vector.conj() @ x))
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
        for p, target in zip(approx.points, _targets(psi, approx.points)):
            sigma = float(np.linalg.svd(F - target * np.eye(A.d),
                                        compute_uv=False)[-1])
            rows.append(judge(p.value, target, sigma))
    else:
        points = _union(approx, joint_residual_spectrum(A)).points
        for p, target in zip(points, _targets(psi, points)):
            rows.append(judge(p.value, target, 0.0))

    return MappingReport(part=part, applicable=applicable, reason=reason,
                         rows=tuple(rows))
