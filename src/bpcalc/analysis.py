"""Holomorphy criterion, moment inequality, boundedness and convergence runs.

The holomorphy side weighs per-generator defects b_j = limsup ||I - T_j(t)||
against the threshold 2; the moment side checks the K_M-weighted bound on
||psi(A)x|| pointwise.  Both are verification harnesses: they measure, they
do not assume.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernstein import BernsteinFunction, eval_psi
from .calculus import _psi_matrix
from .semigroup import (OperatorTuple, _ray_direction, fourier_modes,
                        holomorphy_defect_ray, semigroup_apply)

__all__ = [
    "HolomorphyReport", "MomentReport", "k_constant", "moment_check",
    "moment_checks",
    "step_bound_check", "holomorphy_criterion", "boundedness_experiment",
    "convergence_experiment",
]


@dataclass(frozen=True)
class HolomorphyReport:
    defects: tuple
    weights: tuple
    weighted_sum: float
    satisfied: bool
    measured_limsup: Optional[float] = None
    samples: tuple = ()


@dataclass(frozen=True)
class MomentReport:
    M: float
    k_m: float
    n: int
    lhs: float
    rhs: float
    slack: float
    ratio: float
    zero_face: bool


def k_constant(M: float) -> float:
    """(M+1)/(1 - e^{-(M+1)/M}), the moment-inequality constant."""
    if not 1.0 <= M < np.inf:
        raise ValueError("K_M is defined for M finite and >= 1")
    return float((M + 1.0) / -np.expm1(-(M + 1.0) / M))


def moment_check(psi: BernsteinFunction, A: OperatorTuple, x) -> MomentReport:
    """Pointwise bound ||psi(A)x|| <= -n K_M M^{n-1} psi(-||A_j x||/(n||x||)) ||x||.

    The one-vector case of moment_checks.
    """
    return moment_checks(psi, A, [np.ravel(x)])[0]


def moment_checks(psi: BernsteinFunction, A, xs) -> tuple:
    """moment_check at every row x_t of ``xs``, as stacked arithmetic.

    ``A`` is one OperatorTuple, whose psi(A) is formed once for all rows,
    or a TupleStack (make_commuting_random_stack) whose tuple t goes with
    row t.  A stack's psi(A) comes from one eval_psi over all its joint
    spectra, and all arguments -||A_j x_t||/(n||x_t||) go through one
    eval_psi as well.  The products A_j x_t and psi(A) x_t run as
    (T, d, d) @ (T, d, 1) stacks; the norms are taken per row, as
    moment_check takes them, so each report equals moment_check's bit for
    bit.  ``xs`` that is not a nonempty, finite (T, d) array raises
    ValueError.
    """
    X = np.asarray(xs, dtype=complex)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != A.d:
        raise ValueError("xs must be a nonempty (T, d) array, d = %d" % A.d)
    if not np.isfinite(X).all():
        raise ValueError("xs must be finite")
    nxs = [float(np.linalg.norm(x)) for x in X]
    if 0.0 in nxs:
        raise ValueError("x must be nonzero")
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    n = psi.n
    if isinstance(A, OperatorTuple):
        F = _psi_matrix(psi, A)
        Ms = [float(max(A.bounds))] * len(X)
    else:
        if len(A) != len(X):
            raise ValueError("give one vector per tuple of the stack")
        vals = eval_psi(psi, A.joint.reshape(-1, n)).reshape(A.joint.shape[:2])
        F = (A.basis * vals[:, None, :]) @ A.inverse
        Ms = [A.bound(t) for t in range(len(X))]
    V = X[:, :, None]
    AV = [g @ V for g in A.generators]
    norms = np.array([[float(np.linalg.norm(Ax[t, :, 0])) for Ax in AV]
                      for t in range(len(X))])
    # A_j x = 0 pins the argument to the face s_j = 0; catalog functions are
    # continuous up to that face, so direct evaluation is the extension
    zero_face = (norms == 0.0).any(axis=1)
    arg = -norms / (n * np.array(nxs)[:, None])
    psi_vals = np.real(eval_psi(psi, arg))
    FV = F @ V
    reports = []
    for t, (M, nx) in enumerate(zip(Ms, nxs)):
        K = k_constant(M)
        lhs = float(np.linalg.norm(FV[t, :, 0]))
        rhs = -n * K * M ** (n - 1) * float(psi_vals[t]) * nx
        if rhs > 0.0:
            ratio = lhs / rhs
        else:
            ratio = 0.0 if lhs == 0.0 else float("inf")
        reports.append(MomentReport(
            M=M, k_m=K, n=n, lhs=lhs, rhs=rhs, slack=rhs - lhs, ratio=ratio,
            zero_face=bool(zero_face[t])))
    return tuple(reports)


def step_bound_check(A: OperatorTuple, x, u) -> float:
    """RHS - LHS of ||(T(u)-I)x|| <= n K_M M^{n-1} (1 - e^{-sum_j ||A_j x|| u_j / n})."""
    x = np.asarray(x, dtype=complex)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("x must be a unit vector")
    u = np.asarray(u, dtype=float)
    M = float(max(A.bounds))
    K = k_constant(M)
    lhs = float(np.linalg.norm(semigroup_apply(A, u) @ x - x))
    dot = sum(float(np.linalg.norm(A.generators[j] @ x)) * u[j]
              for j in range(A.n))
    rhs = A.n * K * M ** (A.n - 1) * float(-np.expm1(-dot / A.n))
    return rhs - lhs


# ---------------------------------------------------------------------------
# holomorphy criterion


def _resolve_source(m):
    """(b_j, M_j, ray direction or None, spectrum points or None) of a
    holomorphy model: a ray angle or a one-generator tuple."""
    if isinstance(m, (float, int)) and not isinstance(m, bool):
        return holomorphy_defect_ray(m), 1.0, _ray_direction(m), None
    if isinstance(m, OperatorTuple) and m.n == 1:
        points = (m.spectral.joint[:, 0] if m.spectral is not None
                  else np.linalg.eigvals(m.generators[0]))
        return 0.0, m.bounds[0], None, points
    raise TypeError("a holomorphy model is a ray angle or a one-generator "
                    "tuple, not %r" % type(m))


def _modulus(z):
    # |z| by libm hypot, the rounding of Python's abs(complex); np.abs on a
    # complex array takes a SIMD path that can differ in the last bit
    return np.hypot(z.real, z.imag)


def _reach(psi: BernsteinFunction, j: int, direction: complex,
           t: float) -> float:
    # extend the ray until the subordination exponent saturates, so the
    # sampled sup actually sees the far end where the defect lives: the
    # first of R = 4^k, k < 50, with |t psi(R e^{i theta})| >= 20, else 4^50
    radii = 4.0 ** np.arange(50)
    probes = np.zeros((len(radii), psi.n), dtype=complex)
    probes[:, j] = radii * direction
    hit = _modulus(t * eval_psi(psi, probes)) >= 20.0
    return float(radii[hit.argmax()]) if hit.any() else 4.0 ** 50


def holomorphy_criterion(models,
                         psi: Optional[BernsteinFunction] = None) -> HolomorphyReport:
    """Weighted-defect test sum_j C_j b_j < 2, C_j = prod_{k<j} M_k.

    Each model is one generator's b_j and M_j.  A ray angle theta is the
    diagonal model with spectrum on e^{i theta}[0, inf): b_j is
    holomorphy_defect_ray(theta) and M_j = 1.  A one-generator
    OperatorTuple has b_j = 0 and M_j = its own bounds[0].

    When the criterion holds and ``psi`` is given, ||I - g_t(A)|| is also
    measured on the dyadic grid t = 2^{-k}, k = 0..40, over the joint
    diagonal model, and the limsup estimate (max of the last 10 grid points)
    is reported: a ray is sampled at 160 radii out to _reach, a tuple at its
    eigenvalues.
    """
    n = len(models)
    resolved = [_resolve_source(m) for m in models]
    defects = tuple(r[0] for r in resolved)
    if any(not 0.0 <= b <= 2.0 for b in defects):
        raise ValueError("defects must lie in [0, 2]")
    weights = tuple(float(np.prod([1.0] + [r[1] for r in resolved[:j]]))
                    for j in range(n))
    total = float(sum(C * b for C, b in zip(weights, defects)))
    satisfied = total < 2.0
    if psi is None or not satisfied:
        return HolomorphyReport(defects=defects, weights=weights,
                                weighted_sum=total, satisfied=satisfied)
    if psi.n != n:
        raise ValueError("function arity and model count differ")

    per_model = 160 if n == 1 else (40 if n == 2 else 12)
    samples = []
    for k in range(41):
        t = 2.0 ** -k
        axes = []
        for j, (_, _, direction, pts) in enumerate(resolved):
            if direction is not None:
                pts = (np.geomspace(1e-6, _reach(psi, j, direction, t), 160)
                       * direction)
            if len(pts) > per_model:
                idx = np.unique(np.linspace(0, len(pts) - 1, per_model).astype(int))
                pts = pts[idx]
            axes.append(pts)
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=-1)
        g = np.exp(t * eval_psi(psi, grid))
        samples.append((t, float(_modulus(1.0 - g).max())))
    tail = [v for _, v in samples[-10:]]
    return HolomorphyReport(defects=defects, weights=weights,
                            weighted_sum=total, satisfied=satisfied,
                            measured_limsup=float(max(tail)),
                            samples=tuple(samples))


# ---------------------------------------------------------------------------
# corollary experiments


def boundedness_experiment(psi: BernsteinFunction, K_list) -> np.ndarray:
    """||psi(A_K)|| for Fourier translation models of increasing cutoff.

    Evaluated on the diagonal: the model's joint spectrum sits on the
    imaginary axes, where the generators are simultaneously diagonal and
    psi(A) is exactly diag(psi(ik)), so only the modes are formed, never
    the (2K+1)^n square generators.  Bounded psi keeps the sequence flat;
    unbounded psi diverges with K.
    """
    return np.array([_modulus(eval_psi(psi, fourier_modes(int(K), psi.n))).max()
                     for K in K_list])


def convergence_experiment(psi_sequence, A: OperatorTuple, x) -> np.ndarray:
    """||psi_k(A)x|| along a sequence of functions decaying pointwise to 0."""
    x = np.asarray(x, dtype=complex)
    first, last = psi_sequence[0], psi_sequence[-1]
    for v in (-5.0, -1.0, -0.1):
        s = np.full(first.n, v)
        v0 = abs(complex(eval_psi(first, s)))
        v1 = abs(complex(eval_psi(last, s)))
        if v1 > 0.05 * v0 + 1e-6:
            raise ValueError("sequence is not pointwise decaying on the spot grid")
    out = []
    for psi in psi_sequence:
        out.append(float(np.linalg.norm(_psi_matrix(psi, A) @ x)))
    return np.array(out)
