"""Operator calculus: psi(A), subordinated semigroups, proof operators.

psi(A) follows the measure-structured integral c0 I + c1.A + int (T(u)-I) dmu
with the same certified-error quadrature used for scalar evaluation; the
subordinated family g_t(A) integrates T(u) against the closed-form measures
nu_t where the catalog has them.

Each builder picks its integrand representation once.  On a tuple with
spectral data, T(u) = P diag(e^{<u, lambda^(k)>}) P^{-1} and the similarity
commutes with the integral: the quadrature runs on length-d eigenvalue
profiles in the max-norm, to the budget tol / cond(P), and P is applied once
to the result.  On a generator-only tuple every node is a d x d matrix
exponential.  The two routes share no code that sees P, which is what the
cross-route tests compare.
"""

import numpy as np
from scipy.linalg import expm, schur
from scipy.special import gammaln, xlogy

from ._integrate import expm1c, integrate_measure
from .bernstein import (BernsteinFunction, LevyMeasure, SubordinatorFamily,
                        eval_psi)
from .semigroup import OperatorTuple, make_tuple, semigroup_apply

__all__ = [
    "CatalogGapError", "apply_psi", "apply_psi_spectral", "subordinated",
    "laplace_identity_error", "generator_limit_check",
    "v_operator", "w_operator", "w_operator_bound", "factorization_check",
]

_TINY_R = 1e-250


class CatalogGapError(LookupError):
    """No closed-form subordination measure is known for this function."""


# ---------------------------------------------------------------------------
# semigroup evaluation along a ray, with certified envelopes


def _direction_evaluators(A: OperatorTuple, w):
    """Return (T, delta, ratio, nrm) with T(r) = exp(r B) for
    B = sum_j w_j A_j, delta(r) = T(r) - I computed without cancellation,
    ratio(r) = delta(r)/r and nrm = ||B||_2.
    """
    w = np.asarray(w, dtype=float)
    B = sum(w[j] * A.generators[j] for j in range(A.n))
    nrm = float(np.linalg.norm(B, 2))
    eye = np.eye(A.d, dtype=complex)

    def T(r):
        return expm(r * B)

    def series_ratio(r):
        # (e^{rB} - I)/r = B (I + rB/2 + (rB)^2/6 + ...), truncated once the
        # a-priori bound (r ||B||)^k / (k+1)! on the k-th term is below 1e-18
        acc = eye.copy()
        term = eye
        bound = 1.0
        k = 1
        while True:
            term = (r / (k + 1.0)) * (term @ B)
            bound *= r * nrm / (k + 1.0)
            acc = acc + term
            k += 1
            if bound < 1e-18 or k > 30:
                break
        return B @ acc

    def ratio(r):
        if r < _TINY_R:
            return B.copy()
        if r * nrm < 0.25:
            return series_ratio(r)
        return (expm(r * B) - eye) / r

    def delta(r):
        if r * nrm < 0.25:
            return r * series_ratio(r)
        return expm(r * B) - eye

    return T, delta, ratio, nrm


def _envelope(A: OperatorTuple, w):
    """Certified (rho, far) with ||T(rw)|| <= far * e^{rho r} for all r >= 0,
    rho <= 0.  Falls back to (0, prod M_j) when no strict decay is certified.
    """
    w = np.asarray(w, dtype=float)
    m_prod = float(np.prod(A.bounds))
    B = sum(w[j] * A.generators[j] for j in range(A.n))
    Tmat, _ = schur(B, output="complex")
    rho0 = float(np.max(np.diag(Tmat).real))
    if rho0 >= -1e-12:
        return 0.0, m_prod
    N = np.triu(Tmat, 1)
    nrmN = float(np.linalg.norm(N, 2))
    if nrmN < 1e-14:
        return rho0, 1.0
    # ||e^{r(D+N)}|| <= e^{rho0 r} sum_{k<d} (r ||N||)^k / k!; absorb the
    # polynomial factor into half the decay rate (its peaks sit below
    # (d-1)/half, so the grid covers the sup).  The series is summed in log
    # space, since its terms leave the float range from d ~ 120 on; xlogy
    # makes the k = 0 term 0 * log 0 = 0 at r = 0.
    half = -0.5 * rho0
    grid = np.linspace(0.0, 4.0 * (A.d + 1) / half, 4096)
    k = np.arange(A.d)[:, None]
    log_terms = xlogy(k, grid * nrmN) - gammaln(k + 1.0)
    log_vals = np.logaddexp.reduce(log_terms, axis=0) - half * grid
    far = float(np.exp(np.max(log_vals))) * 1.05
    return rho0 * 0.5, far


# ---------------------------------------------------------------------------
# integrand representations, chosen once per operator built


def _over_r(F, limit):
    """F(r)/r, returning the r -> 0 limit once r is subnormal-small."""
    def F_over_r(r):
        if r < _TINY_R:
            return limit
        return F(r) / r
    return F_over_r


class _Matrices:
    """Generator-only tuples: every integrand value is a d x d matrix,
    bounded through ||B||_2, prod M_j and the Schur envelope."""

    cond = 1.0
    compose = np.matmul

    def __init__(self, A: OperatorTuple):
        self.A = A
        self.n = A.n
        self.one = np.eye(A.d, dtype=complex)
        self.m = float(np.prod(A.bounds))   # sup_u ||T(u)||

    def gen(self, j):
        return self.A.generators[j]

    def ray(self, w):
        return _direction_evaluators(self.A, w)

    def envelope(self, w):
        return _envelope(self.A, w)

    def semigroup(self, u):
        return semigroup_apply(self.A, u)

    def restrict(self, lo, hi):
        A = self.A
        return _Matrices(make_tuple(A.generators[lo:hi], bounds=A.bounds[lo:hi],
                                    bound_kinds=A.bound_kinds[lo:hi]))

    def w_integrand(self, lam, j):
        return _w_integrand(self.A, lam, j)

    def finish(self, value):
        return value


class _Profiles:
    """Tuples with spectral data, where T(u) = P diag(e^{<u, lambda^(k)>}) P^{-1},
    or the diagonal tuple diag(s) of an (m, n) point set, where P = I.

    The similarity commutes with every integral, so each integrand is the
    length-m profile of its eigenvalue factors and P is applied once, to the
    integrated profile.  ||P diag(v) P^{-1}||_2 <= cond(P) ||v||_inf, so the
    profiles are integrated in the max-norm to tol / cond(P); on Re <= 0
    every factor |e^{rz}| is at most 1, so the bounds need neither ||B||_2
    nor prod M_j.
    """

    m = 1.0
    compose = np.multiply

    def __init__(self, joint, spec=None):
        self.joint, self.spec = joint, spec
        self.n = joint.shape[1]
        self.one = np.ones(len(joint), dtype=complex)
        self.cond = 1.0 if spec is None else max(1.0, float(spec.cond))

    def gen(self, j):
        return self.joint[:, j]

    def ray(self, w):
        """(T, delta, ratio, max|z|) for the profile z of sum_j w_j A_j."""
        z = self.joint @ np.asarray(w, dtype=float)

        def T(r):
            return np.exp(r * z)

        def delta(r):
            return expm1c(r * z)

        return T, delta, _over_r(delta, z), float(np.max(np.abs(z)))

    def envelope(self, w):
        rho = float(np.max((self.joint @ np.asarray(w, dtype=float)).real))
        return (rho if rho < -1e-12 else 0.0), 1.0

    def semigroup(self, u):
        return np.exp(self.joint @ np.asarray(u, dtype=float))

    def restrict(self, lo, hi):
        return _Profiles(self.joint[:, lo:hi], self.spec)

    def w_integrand(self, lam, j):
        """make(w) -> (F, F/r) for the profile of V_j(r w_j) U_j(r w)."""
        zj = self.joint[:, j]

        def make(w):
            w = np.asarray(w, dtype=float)
            pre = self.joint[:, :j] @ w[:j] if j > 0 else 0.0
            post = complex(np.dot(w[j + 1:], lam[j + 1:]))

            def F(r):
                return _v_diag(r * w[j], lam[j], zj) * np.exp(r * (pre + post))

            return F, _over_r(F, w[j] * self.one)

        return make

    def finish(self, value):
        return value if self.spec is None else self.spec.apply(value)


def _representation(A: OperatorTuple):
    spec = A.spectral
    return _Matrices(A) if spec is None else _Profiles(spec.joint, spec)


# ---------------------------------------------------------------------------
# psi(A)


def apply_psi(psi: BernsteinFunction, A: OperatorTuple, tol: float = 1e-9):
    """c0 I + sum_j c1^j A_j + int (T(u) - I) dmu(u)."""
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    return _psi_integral(psi, _representation(A), tol)


def _psi_integral(psi: BernsteinFunction, rep, tol: float):
    """psi on the representation ``rep``: the operator for a tuple, the
    vector of psi(s_k) for the profile of a point set."""
    base = complex(psi.c0) * rep.one
    for j in range(rep.n):
        if psi.c1[j] != 0.0:
            base = base + psi.c1[j] * rep.gen(j)

    def part_setup(p):
        w = p.direction
        _, delta, ratio, nrm = rep.ray(w)
        if nrm == 0.0:
            return None
        rho, far = rep.envelope(w)
        kw = dict(f_zero=np.zeros_like(rep.one), f_lipschitz=nrm * rep.m,
                  f_sup=rep.m + 1.0, f_over_r=ratio)
        if rho < 0.0:
            kw.update(f_settle=-rep.one, f_decay=-rho, f_far_coeff=far)
        return delta, kw

    return rep.finish(integrate_measure(
        base, psi.measure, lambda loc: rep.ray(loc)[1](1.0), part_setup,
        tol / rep.cond))


def apply_psi_spectral(psi: BernsteinFunction, A: OperatorTuple):
    """P diag(psi(lambda^(k))) P^{-1}: each eigenvector maps by the scalar value."""
    if A.spectral is None:
        raise ValueError("tuple carries no spectral data")
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    return A.spectral.apply(eval_psi(psi, A.spectral.joint))


def _psi_matrix(psi: BernsteinFunction, A: OperatorTuple):
    """psi(A) by the spectral route when A carries spectral data, else by
    quadrature (apply_psi at its default tolerance)."""
    if A.spectral is not None:
        return apply_psi_spectral(psi, A)
    return apply_psi(psi, A)


# ---------------------------------------------------------------------------
# subordination


def _subordinated_family(fam: SubordinatorFamily, rep, t: float, tol: float):
    if fam.kind == "atoms":
        out = np.zeros_like(rep.one)
        for loc, mass in fam.atoms_at(t):
            out = out + mass * rep.semigroup(loc)
        return out
    if fam.kind == "density":
        def part_setup(p):
            T, _, _, nrm = rep.ray(p.direction)
            rho, far = rep.envelope(p.direction)
            kw = dict(f_zero=rep.one, f_lipschitz=max(nrm, 1e-300) * rep.m,
                      f_sup=rep.m)
            if rho < 0.0:
                kw.update(f_settle=np.zeros_like(rep.one), f_decay=-rho,
                          f_far_coeff=far)
            return T, kw

        nu_t = LevyMeasure(rep.n, parts=[fam.density_at(t)])
        return integrate_measure(0.0, nu_t, None, part_setup, tol)
    if fam.kind == "product":
        m = fam.split
        left = _subordinated_family(fam.children[0], rep.restrict(0, m),
                                    t, tol / 2.0)
        right = _subordinated_family(fam.children[1], rep.restrict(m, rep.n),
                                     t, tol / 2.0)
        return rep.compose(left, right)
    # convolution
    out = rep.one
    for a, child in zip(fam.weights, fam.children):
        out = rep.compose(out, _subordinated_family(child, rep, a * t,
                                                    tol / len(fam.weights)))
    return out


def _family(psi: BernsteinFunction) -> SubordinatorFamily:
    if psi.subordinator is None:
        raise CatalogGapError(
            "no closed-form subordination measure is known for this function")
    return psi.subordinator


def subordinated(psi: BernsteinFunction, A: OperatorTuple, t: float,
                 tol: float = 1e-9):
    """g_t(A) = int T(u) dnu_t(u).

    Raises CatalogGapError for a function without a closed-form nu_t.
    """
    if t < 0:
        raise ValueError("subordination time must be nonnegative")
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    if t == 0:
        return np.eye(A.d, dtype=complex)
    rep = _representation(A)
    return rep.finish(_subordinated_family(_family(psi), rep, t,
                                           tol / rep.cond))


def laplace_identity_error(psi: BernsteinFunction, t: float, s_grid,
                           tol: float = 1e-9) -> float:
    """max_s |int e^{s.u} dnu_t - e^{t psi(s)}| over the grid.

    The measure side is g_t on the diagonal tuple diag(s) of the whole grid,
    one profile on the route subordinated takes for a spectral tuple.
    """
    if t < 0:
        raise ValueError("subordination time must be nonnegative")
    fam = _family(psi)
    S = np.asarray(s_grid, dtype=float).reshape(len(s_grid), -1)
    target = np.exp(t * eval_psi(psi, S))
    g = 1.0 if t == 0 else _subordinated_family(
        fam, _Profiles(S.astype(complex)), t, tol)
    return float(np.max(np.abs(g - target)))


def generator_limit_check(psi: BernsteinFunction, A: OperatorTuple, x,
                          t_sequence, tol: float = 1e-11) -> np.ndarray:
    """Residuals ||(g_t(A)x - x)/t - psi(A)x|| along a sequence t -> 0."""
    x = np.asarray(x, dtype=complex)
    psi_x = _psi_matrix(psi, A) @ x
    out = []
    for t in t_sequence:
        if t <= 0:
            raise ValueError("t sequence must be positive")
        g = subordinated(psi, A, t, tol=tol)
        out.append(float(np.linalg.norm((g @ x - x) / t - psi_x, 2)))
    return np.array(out)


# ---------------------------------------------------------------------------
# proof operators


def _phi1(x):
    """(e^x - 1)/x with the removable singularity filled in."""
    x = np.asarray(x, dtype=complex)
    out = np.ones_like(x)
    big = np.abs(x) > _TINY_R
    out[big] = expm1c(x[big]) / x[big]
    return out


def _v_diag(t, lam, z):
    """Eigenvalue profile t e^{t lam} phi1(t (z - lam)) of V(t).

    Large separations switch to (e^{tz} - e^{t lam})/(z - lam): both
    exponentials stay bounded on the left half-plane while the phi1 factor
    would overflow, and cancellation only matters when t(z - lam) is small.
    """
    z = np.asarray(z, dtype=complex)
    x = t * (z - lam)
    out = np.empty_like(x)
    small = np.abs(x) <= 20.0
    out[small] = t * np.exp(t * lam) * _phi1(x[small])
    big = ~small
    out[big] = (np.exp(t * z[big]) - np.exp(t * lam)) / (z[big] - lam)
    return out


def v_operator(lam: complex, A: OperatorTuple, j: int, u: float):
    """V_j^lambda(u) = int_0^u e^{(u-s) lambda} T_j(s) ds.

    It is the upper-right block of exp(u [[A_j, I], [0, lambda I]]) (Van
    Loan, "Computing integrals involving the matrix exponential", 1978).
    """
    if u < 0:
        raise ValueError("upper limit must be nonnegative")
    d = A.d
    if u == 0:
        return np.zeros((d, d), dtype=complex)
    M = np.zeros((2 * d, 2 * d), dtype=complex)
    M[:d, :d] = A.generators[j]
    M[:d, d:] = np.eye(d)
    M[d:, d:] = lam * np.eye(d)
    return expm(u * M)[:d, d:]


def _w_integrand(A: OperatorTuple, lam, j: int):
    """make(w) -> (F, F/r) with F(r) = V_j(r w_j) U_j(r w) along a ray
    direction w."""
    def make(w):
        w = np.asarray(w, dtype=float)

        def U(r):
            out = np.eye(A.d, dtype=complex)
            for l in range(j):
                if w[l] > 0:
                    out = out @ expm(r * w[l] * A.generators[l])
            return complex(np.exp(r * np.dot(w[j + 1:], lam[j + 1:]))) * out

        def F(r):
            return v_operator(lam[j], A, j, r * w[j]) @ U(r)

        return F, _over_r(F, w[j] * np.eye(A.d, dtype=complex))

    return make


def w_operator(psi: BernsteinFunction, A: OperatorTuple, lam, j: int,
               tol: float = 1e-9):
    """W_j^lambda = c1^j I + int V_j(u_j) U_j(u) dmu(u), Re lambda_j < 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if len(lam) != A.n or psi.n != A.n:
        raise ValueError("lambda must have one component per generator")
    if np.any(lam.real >= 0):
        raise ValueError("w_operator requires Re lambda_j < 0")
    rep = _representation(A)
    zero = np.zeros_like(rep.one)
    make = rep.w_integrand(lam, j)
    envs = [rep.envelope(np.eye(A.n)[l]) for l in range(A.n)]

    def tail_rate(w):
        parts = [w[j] * max(lam[j].real, envs[j][0])]
        parts += [w[l] * envs[l][0] for l in range(j)]
        parts += [w[k] * lam[k].real for k in range(j + 1, A.n)]
        return -sum(parts)

    def part_setup(p):
        w = p.direction
        if w[j] == 0.0:
            return None
        F, F_over_r = make(w)
        gamma = tail_rate(w)
        kw = dict(f_zero=zero, f_lipschitz=w[j] * rep.m,
                  f_sup=rep.m / (-lam[j].real), f_over_r=F_over_r)
        if gamma > 1e-12:
            far = w[j] * float(np.prod([envs[l][1] for l in range(j + 1)])) \
                * 2.0 / (np.e * gamma)
            kw.update(f_settle=zero, f_decay=0.5 * gamma, f_far_coeff=far)
        return F, kw

    return rep.finish(integrate_measure(
        psi.c1[j] * rep.one, psi.measure, lambda loc: make(loc)[0](1.0),
        part_setup, tol / rep.cond))


def w_operator_bound(psi: BernsteinFunction, A: OperatorTuple, lam, j: int) -> float:
    """Analytic norm bound c1^j + (M^n / Re lambda_j) (psi(Re lambda_j e_j)
    - c1^j Re lambda_j - psi(-0))."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    rj = float(lam[j].real)
    if rj >= 0:
        raise ValueError("bound requires Re lambda_j < 0")
    M = max(A.bounds)
    s = np.zeros(A.n)
    s[j] = rj
    psi_at = float(np.real(eval_psi(psi, s)))
    return float(psi.c1[j] + (M ** A.n / rj)
                 * (psi_at - psi.c1[j] * rj - psi.c0))


def factorization_check(psi: BernsteinFunction, A: OperatorTuple, lam,
                        tol: float = 1e-9, operator=None) -> float:
    """Relative residual of (psi(lam) I - psi(A)) = sum_j W_j (lam_j I - A_j).

    ``operator`` lets callers reuse a precomputed psi(A), as in
    ``mapping_check``; by default it is apply_psi at ``tol``.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if np.any(lam.real >= 0):
        raise ValueError("factorization requires Re lambda_j < 0")
    eye = np.eye(A.d, dtype=complex)
    F = apply_psi(psi, A, tol) if operator is None else operator
    lhs = complex(eval_psi(psi, lam)) * eye - F
    rhs = np.zeros_like(lhs)
    scale = max(1.0, float(np.linalg.norm(lhs, 2)))
    for j in range(A.n):
        term = w_operator(psi, A, lam, j, tol) @ (lam[j] * eye - A.generators[j])
        rhs = rhs + term
        scale = max(scale, float(np.linalg.norm(term, 2)))
    return float(np.linalg.norm(lhs - rhs, 2)) / scale
