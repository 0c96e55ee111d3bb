"""Operator calculus: psi(A), subordinated semigroups, proof operators.

psi(A) follows the measure-structured integral c0 I + c1.A + int (T(u)-I) dmu
with the same certified-error quadrature used for scalar evaluation; the
subordinated family g_t(A) integrates T(u) against the closed-form measures
nu_t where the catalog has them.

Each builder picks its integrand representation once.  The profile route
(``_Profiles``) works in one block basis X, where every A_j is z I +
nilpotent on each block: the quadrature runs on the profile of the scalar
jets e^{r <w, z>} (rw)^a / a! of every block, in the max-norm, and X is
applied once to the result.  A generator-only tuple takes X from its block
split (``OperatorTuple.blocks``: one reordered Schur form per tuple, which
the joint spectra read too).  A tuple with spectral data, T(u) =
P diag(e^{<u, lambda^(k)>}) P^{-1}, is the jet-free case X = P, with 1 x 1
blocks and only the index a = 0, and the (m, n) point set of a scalar
integral is the jet-free case without a basis: the same code serves all
three.  Only a tuple whose basis is ill-conditioned, or whose blocks are not
z I + nilpotent, takes one d x d matrix exponential per node (``_Matrices``);
the cross-route tests force that route as the reference that shares neither
basis nor integrand code with the profiles.

Either representation makes one set-up per ray direction w: ``ray(w)``
returns the evaluators of T(rw) together with their quadrature bounds
(Lipschitz constant, sup and decay envelope), and the ``make(w)`` of
``w_integrand`` returns the W_j integrand with its bounds.
"""

import copy

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
# integrand representations, chosen once per operator built

_COND_MAX = 1e4                     # largest cond(X) of a block basis
_ROUND = 64 * np.finfo(float).eps   # relative round-off of a computed block
_NIL = 1e-12                        # largest jet term of a zero power N^a


def _over_r(F, limit):
    """F(r)/r, returning the r -> 0 limit once r is subnormal-small."""
    def F_over_r(r):
        if r < _TINY_R:
            return limit
        return F(r) / r
    return F_over_r


def _peak(log_c, k, rho):
    """max_e c_e sup_r r^k_e e^{-rho_e r} = c_e (k_e/rho_e)^k_e e^{-k_e},
    from log c_e, in log space; 0 for no entry."""
    if len(k) == 0:
        return 0.0
    return float(np.max(np.exp(log_c + xlogy(k, k / rho) - k)))


def _nilpotent_powers(N, rho, m):
    """[(a, N^a, ||N^a||_F)] for a = 0 and every multi-index |a| < m with
    N^a = prod_j N_j^{a_j} nonzero, or None when a product of m of the N_j
    is not zero to round-off.

    ``N`` holds the m x m nilpotent parts of one block (None for a zero
    part) and ``rho`` the decay rates -Re z_j.  Each index is reached once:
    a grows by e_j only for j at or past its last nonzero component.  A
    product counts as zero when its largest jet term over all rays,
    ||N^a||_F e^{-|a|} prod_j (a_j / rho_j)^{a_j} / a_j!, is below _NIL.
    """
    zero = (0,) * len(N)
    out = [(zero, np.eye(m, dtype=complex), 1.0)]
    frontier = [(zero, out[0][1], 0)]
    while frontier:
        grown = []
        for a, P, first in frontier:
            for j in range(first, len(N)):
                if N[j] is None:
                    continue
                b = a[:j] + (a[j] + 1,) + a[j + 1:]
                Pb = P @ N[j]
                nu = float(np.linalg.norm(Pb))
                if nu == 0.0:
                    continue
                if sum(b) < m:
                    out.append((b, Pb, nu))
                    grown.append((b, Pb, j))
                    continue
                term = np.log(nu) - sum(b) + sum(
                    xlogy(c, c / rho[i]) - gammaln(c + 1.0)
                    for i, c in enumerate(b) if c)
                if term > np.log(_NIL):
                    return None
        frontier = grown
    return out


class _Matrices:
    """Every integrand value is a d x d matrix, one matrix exponential per
    node.  One set-up per ray direction w forms B = sum_j w_j A_j and
    returns its evaluators with their bounds: the Lipschitz constant
    ||B||_2 prod M_j, the sup prod M_j and the Schur envelope of B.

    It is the fallback of generator-only tuples that ``_Profiles`` cannot
    take, and the expm-only reference that the cross-route tests force
    through the private builders.
    """

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
        """(T, delta, delta/r, Lipschitz constant, sup, rho, far, settled)
        of T(rw) = exp(rB): delta(r) = T(r) - I without cancellation, and
        ||T(rw)|| <= far e^{rho r} for all r >= 0 with rho <= 0, certified
        by the Schur form of B, or (0, prod M_j) when no strict decay is.
        Nothing is settled.
        """
        w = np.asarray(w, dtype=float)
        B = sum(w[j] * self.A.generators[j] for j in range(self.n))
        nrm = float(np.linalg.norm(B, 2))

        def T(r):
            return expm(r * B)

        def ratio(r):
            if r * nrm < 0.25:
                # B phi1(rB), phi1(rB) = int_0^1 e^{s rB} ds: no cancellation,
                # and exactly B at r = 0
                return B @ _van_loan(r * B, 0.0, 1.0)
            return (expm(r * B) - self.one) / r

        def delta(r):
            if r * nrm < 0.25:
                return r * ratio(r)
            return expm(r * B) - self.one

        Tmat, _ = schur(B, output="complex")
        rho = float(np.max(np.diag(Tmat).real))
        nrmN = float(np.linalg.norm(np.triu(Tmat, 1), 2))
        if rho >= -1e-12:
            rho, far = 0.0, self.m
        elif nrmN < 1e-14:
            far = 1.0
        else:
            # ||e^{r(D+N)}|| <= e^{rho r} sum_{k<d} (r ||N||)^k / k!; absorb
            # the polynomial factor into half the decay rate (its peaks sit
            # below (d-1)/half, so the grid covers the sup).  The series is
            # summed in log space, since its terms leave the float range from
            # d ~ 120 on; xlogy makes the k = 0 term 0 * log 0 = 0 at r = 0.
            half = -0.5 * rho
            grid = np.linspace(0.0, 4.0 * (len(B) + 1) / half, 4096)
            k = np.arange(len(B))[:, None]
            log_terms = xlogy(k, grid * nrmN) - gammaln(k + 1.0)
            log_vals = np.logaddexp.reduce(log_terms, axis=0) - half * grid
            rho, far = rho * 0.5, float(np.exp(np.max(log_vals))) * 1.05
        return T, delta, ratio, nrm * self.m, self.m, rho, far, False

    def semigroup(self, u):
        return semigroup_apply(self.A, u)

    def restrict(self, lo, hi):
        A = self.A
        return _Matrices(make_tuple(A.generators[lo:hi], bounds=A.bounds[lo:hi],
                                    bound_kinds=A.bound_kinds[lo:hi]))

    def w_integrand(self, lam, j):
        """make(w) -> (F, F/r, bounds) for F(r) = V_j(r w_j) U_j(r w), bounds
        the integrate_radial keywords from the envelope (rho_l, far_l) of
        each generator: ||V_j(t)|| <= t e^{t max(Re lam_j, rho_j)} times
        prod M, and ||U_j(rw)|| <= e^{r sum_l w_l rho_l} times prod M."""
        A = self.A
        envs = [self.ray(e)[5:7] for e in np.eye(self.n)]
        zero = np.zeros_like(self.one)

        def make(w):
            w = np.asarray(w, dtype=float)

            def U(r):
                out = self.one
                for l in range(j):
                    if w[l] > 0:
                        out = out @ expm(r * w[l] * A.generators[l])
                return complex(np.exp(r * np.dot(w[j + 1:], lam[j + 1:]))) * out

            def F(r):
                return v_operator(lam[j], A, j, r * w[j]) @ U(r)

            parts = [w[j] * max(lam[j].real, envs[j][0])]
            parts += [w[l] * envs[l][0] for l in range(j)]
            parts += [w[k] * lam[k].real for k in range(j + 1, self.n)]
            gamma = -sum(parts)
            kw = dict(f_lipschitz=w[j] * self.m, f_sup=self.m / (-lam[j].real))
            if gamma > 1e-12:
                far = w[j] * float(np.prod([envs[l][1] for l in range(j + 1)])) \
                    * 2.0 / (np.e * gamma)
                kw.update(f_settle=zero, f_decay=0.5 * gamma, f_far_coeff=far)
            return F, _over_r(F, w[j] * self.one), kw

        return make

    def finish(self, value):
        return value


class _Profiles:
    """Integrands as profiles of scalar jets in one block basis X, Y = X^-1.

    On block i every A_j acts as z_ij I + N_ij with N_ij nilpotent, so

        T(rw) = sum_i X_i e^{r <w, z_i>} sum_a (rw)^a / a! N_i^a Y_i,

    with a over the multi-indices whose N_i^a = prod_j N_ij^{a_j} is nonzero
    (the atomic-block Taylor step of Schur-Parlett, Davies & Higham, SIMAX
    2003).  Each integrand is the profile of the entries
    nu_ia e^{r <w, z_i>} (rw)^a / a!, nu_ia = ||N_i^a||_F (1 at a = 0), and
    ``finish`` applies sum_ia e_ia X_i (N_i^a / nu_ia) Y_i once, to the
    integrated profile e.  Its 2-norm is at most cond(X) K max|e|, K the
    largest index count of a block, so profiles are integrated in the
    max-norm to tol / (cond(X) K); that product is ``cond``.

    The entries with a = 0 are the heads; the others are jets.  A tuple
    with spectral data is the jet-free case X = P, with 1 x 1 blocks, the
    one index a = 0 and nu = 1 on each; the (m, n) point set of a scalar
    integral is its own diagonal tuple, with no basis and ``finish``
    returning the profile.  ``of_generators`` reads X from the block split
    of a generator-only tuple and builds its jets.  Every formula serves all
    three; the per-node evaluators compute the head formula on every entry
    and overwrite the jet entries only where there are any.  One set-up per
    ray forms z = joint @ w, the log coefficients and the live-jet mask once
    and derives the evaluators and their bounds from them.
    """

    def __init__(self, joint, spec=None, powers=None):
        """``joint`` holds one row z_i per block and ``spec`` the basis
        (``basis``, ``inverse``, ``cond``: the ``SpectralData`` or the
        ``_schur.Blocks`` of the tuple), None for a point set.  ``powers``
        lists the (a, N_i^a, nu_ia) of each block (``_nilpotent_powers``);
        without it every block is 1 x 1 with the one index a = 0."""
        count, self.n = joint.shape
        if powers is None:
            counts = self.sizes = np.ones(count, dtype=int)
            self.a, self.lognu = np.zeros(joint.shape, dtype=int), np.zeros(count)
            self.jets = None      # finish needs no stacks without jets
        else:
            counts = np.array([len(p) for p in powers])
            self.sizes = np.array([len(p[0][1]) for p in powers])
            self.a = np.array([a for p in powers for a, _, _ in p])
            self.lognu = np.log([nu for p in powers for _, _, nu in p])
            self.jets = [np.array([P / nu for _, P, nu in p]) for p in powers]
        self.block = np.repeat(np.arange(count), counts)
        self.joint = joint[self.block]
        self.k = self.a.sum(axis=1)
        self.head = self.k == 0
        # log of nu_a / a!, the constant part of each entry's coefficient
        self.logw = self.lognu - gammaln(self.a + 1.0).sum(axis=1)
        self.one = self.head.astype(complex)
        self.first, self._table = 0, None
        self.basis = self.inverse = None
        self.cond = 1.0
        if spec is not None:
            self.basis, self.inverse = spec.basis, spec.inverse
            self.cond = max(1.0, float(spec.cond)) * int(counts.max())

    @classmethod
    def of_generators(cls, A: OperatorTuple):
        """The block profile of a generator-only tuple, or None when it must
        fall back to _Matrices: cond(X) above _COND_MAX, a block that is not
        z I + nilpotent to round-off, or a jet on a block with Re z_ij = 0,
        where r^k e^{rz} does not decay.

        X and the blocks B_ij = Q_i^* A_j Q_i of A_j on its column slices
        Q_i come from the tuple's split ``A.blocks``; each B_ij splits as
        z_ij I + N_ij, z_ij = tr(B_ij) / m_i.
        """
        try:
            split = A.blocks
        except np.linalg.LinAlgError:
            return None
        if not split.cond <= _COND_MAX:
            return None
        # parts of a computed block below these sizes are round-off
        tiny = [_ROUND * split.cond * max(1.0, float(np.linalg.norm(G)))
                for G in A.generators]
        rows, blocks = [], []
        for compressed in split.compressions:
            m = len(compressed[0])
            z, N = np.zeros(A.n, dtype=complex), []
            for j, B in enumerate(compressed):
                t = np.trace(B) / m
                z[j] = complex(t.real if abs(t.real) > tiny[j] else 0.0,
                               t.imag if abs(t.imag) > tiny[j] else 0.0)
                Nj = B - z[j] * np.eye(m)
                N.append(Nj if np.linalg.norm(Nj) > tiny[j] else None)
            nilpotent = [Nj is not None for Nj in N]
            if any(nilpotent) and (np.any(z.real > 0.0)
                                   or np.any(z.real[nilpotent] == 0.0)):
                return None
            powers = _nilpotent_powers(N, -z.real, m)
            if powers is None:
                return None
            rows.append(z)
            blocks.append(powers)
        return cls(np.array(rows), split, blocks)

    def _log_coeffs(self, w):
        """log(nu_a w^a / a!) per entry; -inf where w^a = 0."""
        cols = self.a[:, self.first:self.first + self.n]
        return self.logw + xlogy(cols, w).sum(axis=1)

    def gen(self, j):
        unit = (self.k == 1) & (self.a[:, j] == 1)
        return np.where(self.head, self.joint[:, j],
                        np.where(unit, np.exp(self.logw), 0.0))

    def ray(self, w):
        """(T, delta, delta/r, Lipschitz constant, sup, rho, far, settled) of
        the profile of T(rw), the bounds in the max-norm, with
        |T(rw) - settle| <= far e^{rho r} on every entry, rho <= 0 (0 when
        no decay is certified).

        A jet c r^k e^{rz} has sup c (k/rho)^k e^{-k} with rho = -Re z, and
        its quotient by r peaks at c ((k-1)/rho)^{k-1} e^{-(k-1)}; in the
        envelope a jet keeps half its rate, c r^k e^{-rho r} <=
        c (2k/rho)^k e^{-k} e^{-rho r/2}.  ``settled`` marks the a = 0
        entries with <w, z_i> = 0: there T is 1 and T - 1 is 0 at every r,
        so each builder gives them their own settle value and they are left
        out of the rate.
        """
        w = np.asarray(w, dtype=float)
        z = self.joint @ w
        head, k = self.head, self.k
        log_c = self._log_coeffs(w)
        jet = np.flatnonzero(~head)
        has_jet = len(jet) > 0
        z_jet, k_jet, c_jet = z[jet], k[jet], log_c[jet]

        def with_jets(out, r):
            if has_jet:
                out[jet] = np.exp(r * z_jet + (xlogy(k_jet, r) + c_jet))
            return out

        def T(r):
            return with_jets(np.exp(r * z), r)

        def delta(r):
            return with_jets(expm1c(r * z), r)

        limit = np.where(head, z, np.where(k == 1, np.exp(log_c), 0.0))
        live = ~head & np.isfinite(log_c)
        kl, cl, rho = k[live], log_c[live], -z.real[live]
        lip = max(float(np.max(np.abs(z[head]))), _peak(cl, kl - 1, rho))
        sup = max(1.0, _peak(cl, kl, rho))
        still = (z == 0) & head
        heads = head & ~still
        rates = np.concatenate((-z.real[heads], 0.5 * rho))
        rate = float(np.min(rates, initial=np.inf))
        if rates.size == 0:
            decay, far = -1.0, 0.0
        elif rate <= 1e-12:
            decay, far = 0.0, 1.0
        else:
            decay = -rate
            far = max(_peak(cl, kl, 0.5 * rho), 1.0 if np.any(heads) else 0.0)
        return T, delta, _over_r(delta, limit), lip, sup, decay, far, still

    def semigroup(self, u):
        u = np.asarray(u, dtype=float)
        return np.exp(self.joint @ u + self._log_coeffs(u))

    def restrict(self, lo, hi):
        """The profile for generators lo..hi-1, on the same entries: those
        indexed outside lo..hi-1 are zero."""
        out = copy.copy(self)
        out.joint = self.joint[:, lo:hi]
        out.n = hi - lo
        out.first = self.first + lo
        inside = self.a[:, out.first:out.first + out.n].sum(axis=1)
        out.logw = np.where(inside < self.k, -np.inf, self.logw)
        return out

    def compose(self, left, right):
        """The profile of the product of two operators given as profiles:
        on each block the truncated Cauchy product over multi-indices (the
        entrywise product on 1 x 1 blocks)."""
        if self._table is None:
            # a + b by integer codes in base 2 max(a) + 2, so no component
            # carries; pairs whose sum is no index have N^{a+b} = 0
            base = 2 * int(self.a.max()) + 2
            code = self.a @ base ** np.arange(self.a.shape[1]) \
                + self.block * base ** self.a.shape[1]
            order = np.argsort(code)
            lhs, rhs = np.nonzero(self.block[:, None] == self.block[None, :])
            total = code[lhs] + code[rhs] - self.block[lhs] * base ** self.a.shape[1]
            pos = np.minimum(np.searchsorted(code[order], total), len(code) - 1)
            hit = code[order][pos] == total
            lhs, rhs, to = lhs[hit], rhs[hit], order[pos[hit]]
            nu = self.lognu
            self._table = (lhs, rhs, to, np.exp(nu[to] - nu[lhs] - nu[rhs]))
        lhs, rhs, to, fac = self._table
        out = np.zeros(np.broadcast(left, right).shape, dtype=complex)
        np.add.at(out, to, left[lhs] * right[rhs] * fac)
        return out

    def w_integrand(self, lam, j):
        """make(w) -> (F, F/r, bounds) for the profile of V_j(r w_j) U_j(r w),
        bounds the integrate_radial keywords.

        On block i the coefficient of N_ij^k in V_j(t) is c_k(t) =
        int_0^t e^{(t-s) lam_j} e^{s z_ij} s^k / k! ds (``_v_jets``; c_0 is
        ``_v_diag``), and U_j contributes the jets of the generators before
        j and e^{r <w, lam>} after it: entries indexed past j are zero.
        Every entry of a block that carries a jet takes c_k from ``_v_jets``.

        |c_k(t)| <= t^{k+1} / (k+1)! e^{-t mu}, mu = -max(Re lam_j, Re z_ij),
        so entry a is at most C r^{|a|+1} e^{-gamma r}, gamma the rate of
        e^{-r w_j mu} U_j; the a = 0 entries keep |c_0| <= 1 / -Re lam_j.
        A head with z_ij = 0, sum_{l<j} w_l z_il = 0 and w_l = 0 past j
        does not decay: there c_0(t) = (e^{t lam_j} - 1) / lam_j and U_j = 1,
        so it settles at -1 / lam_j, within e^{t Re lam_j} / |lam_j|.
        """
        zj, re = self.joint[:, j], self.joint.real
        a, aj, head = self.a, self.a[:, j], self.head
        mu = -np.maximum(lam[j].real, re[:, j])
        log_w = np.where(np.any(a[:, j + 1:] > 0, axis=1), -np.inf,
                         self.logw + gammaln(aj + 1.0))
        log_b = log_w - gammaln(aj + 2.0)
        zero_j = head & (zj == 0)
        jet_blocks = np.unique(self.block[~head])
        in_jet = np.flatnonzero(np.isin(self.block, jet_blocks))
        has_jet = len(in_jet) > 0
        if has_jet:
            row = np.searchsorted(jet_blocks, self.block[in_jet])
            z_jet = zj[head][jet_blocks]
            a_jet = aj[in_jet]
            order = int(a_jet[np.isfinite(log_w[in_jet])].max()) + 1
            lift = self.k[in_jet] - a_jet     # powers of r from the U_j jets

        def make(w):
            w = np.asarray(w, dtype=float)
            pre = self.joint[:, :j] @ w[:j]
            post = complex(np.dot(w[j + 1:], lam[j + 1:]))
            log_u = xlogy(a[:, :j], w[:j]).sum(axis=1)
            if has_jet:
                pre_jet = pre[in_jet] + post
                c_jet = (log_w + log_u)[in_jet]

            def F(r):
                t = r * w[j]
                out = _v_diag(t, lam[j], zj) * np.exp(r * (pre + post))
                if has_jet:
                    out[in_jet] = _v_jets(t, lam[j], z_jet, order)[row, a_jet] \
                        * np.exp(r * pre_jet + (xlogy(lift, r) + c_jet))
                return out

            gamma = w[j] * mu - re[:, :j] @ w[:j] \
                - float(np.dot(w[j + 1:], lam[j + 1:].real))
            still = zero_j & (pre == 0) & (not np.any(w[j + 1:]))
            log_c = log_b + log_u + xlogy(aj + 1.0, w[j])
            jet = ~head & np.isfinite(log_c)
            moving = head & ~still
            log_c_head = log_c[moving]    # log w_j: c_0(t) <= t e^{-t mu}
            k, log_c, g = self.k[jet] + 1, log_c[jet], gamma[jet]
            kw = dict(f_lipschitz=max(w[j], _peak(log_c, k - 1, g)),
                      f_sup=max(-1.0 / lam[j].real, _peak(log_c, k, g)))
            settles = bool(np.any(still))
            rate = min(np.min(gamma[moving], initial=np.inf),
                       np.min(g, initial=np.inf),
                       -w[j] * lam[j].real if settles else np.inf)
            if rate > 1e-12:
                far = max(_peak(log_c_head, np.ones(len(log_c_head)),
                                0.5 * gamma[moving]),
                          _peak(log_c, k, 0.5 * g),
                          1.0 / abs(lam[j]) if settles else 0.0)
                kw.update(f_settle=np.where(still, -1.0 / lam[j], 0.0),
                          f_decay=0.5 * rate, f_far_coeff=far)
            return F, _over_r(F, w[j] * self.one), kw

        return make

    def finish(self, value):
        if self.basis is None:
            return value
        if np.all(self.head):
            # no jets: X diag(e) Y in O(d^2)
            return (self.basis * np.repeat(value, self.sizes)) @ self.inverse
        D = np.zeros(self.basis.shape, dtype=complex)
        start = 0
        for i, stack in enumerate(self.jets):
            m = stack.shape[1]
            D[start:start + m, start:start + m] = np.tensordot(
                value[self.block == i], stack, axes=1)
            start += m
        return self.basis @ D @ self.inverse


def _representation(A: OperatorTuple):
    spec = A.spectral
    if spec is not None:
        return _Profiles(spec.joint, spec)
    rep = _Profiles.of_generators(A)
    return _Matrices(A) if rep is None else rep


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
        _, delta, ratio, lip, sup, rho, far, settled = rep.ray(p.direction)
        if lip == 0.0:
            return None
        kw = dict(f_zero=np.zeros_like(rep.one), f_lipschitz=lip,
                  f_sup=sup + 1.0, f_over_r=ratio)
        if rho < 0.0:
            # T - I tends to -I, except where T stays at 1
            kw.update(f_settle=np.where(settled, 0.0, -rep.one),
                      f_decay=-rho, f_far_coeff=far)
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
            T, _, _, lip, sup, rho, far, settled = rep.ray(p.direction)
            kw = dict(f_zero=rep.one, f_lipschitz=max(lip, 1e-300), f_sup=sup)
            if rho < 0.0:
                # T tends to 0, except where it stays at 1
                kw.update(f_settle=np.where(settled, rep.one, 0.0),
                          f_decay=-rho, f_far_coeff=far)
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


def _van_loan(G, lam, u):
    """int_0^u e^{(u-s) lam} e^{sG} ds, the upper-right block of
    exp(u [[G, I], [0, lam I]]) (Van Loan, "Computing integrals involving
    the matrix exponential", 1978)."""
    d = len(G)
    M = np.zeros((2 * d, 2 * d), dtype=complex)
    M[:d, :d] = G
    M[:d, d:] = np.eye(d)
    M[d:, d:] = lam * np.eye(d)
    return expm(u * M)[:d, d:]


def v_operator(lam: complex, A: OperatorTuple, j: int, u: float):
    """V_j^lambda(u) = int_0^u e^{(u-s) lambda} T_j(s) ds, by ``_van_loan``."""
    if u < 0:
        raise ValueError("upper limit must be nonnegative")
    if u == 0:
        return np.zeros((A.d, A.d), dtype=complex)
    return _van_loan(A.generators[j], lam, u)


def _v_jets(t, lam, z, order):
    """c_k(t) = int_0^t e^{(t-s) lam} e^{sz} s^k / k! ds for k < ``order``,
    one row per entry of z.

    c_k = d_{k+1} with d_p = t^p e^{tz} phi_p(x), x = t (lam - z), and
    d_0 = e^{t lam}.  Order p comes from the upward recurrence
    d_p = (d_{p-1} - e^{tz} t^{p-1}/(p-1)!) / (lam - z) while p <= |x|, and
    otherwise from the Taylor series of phi_order followed by the downward
    recurrence d_{p-1} = (lam - z) d_p + e^{tz} t^{p-1}/(p-1)!: each is
    stable on its side of |x|, and the scaling by t^p e^{tz} keeps every
    term finite for Re z, Re lam <= 0.
    """
    z = np.asarray(z, dtype=complex)
    gap = lam - z
    size = np.abs(t * gap)
    q = np.arange(order)
    g = np.exp(t * z[:, None] + (xlogy(q, t) - gammaln(q + 1.0)))
    out = np.empty((len(z), order), dtype=complex)
    up = np.flatnonzero(size >= 1.0)
    if len(up):
        d = np.full(len(up), np.exp(t * lam), dtype=complex)
        for p in range(1, order + 1):
            d = (d - g[up, p - 1]) / gap[up]
            out[up, p - 1] = d
    down = np.flatnonzero(size < order)
    if len(down):
        x = t * gap[down]
        term = np.ones(len(down), dtype=complex)
        series = term.copy()
        for m in range(1, 4 * order + 60):
            term = term * x / (order + m)
            series = series + term
            if np.all(np.abs(term) <= 1e-17 * np.abs(series)):
                break
        d = series * np.exp(t * z[down] + xlogy(order, t) - gammaln(order + 1.0))
        vals = np.empty((len(down), order), dtype=complex)
        vals[:, -1] = d
        for p in range(order, 1, -1):
            d = gap[down] * d + g[down, p - 1]
            vals[:, p - 2] = d
        take = np.arange(1, order + 1) > size[down, None]
        rows = out[down]
        rows[take] = vals[take]
        out[down] = rows
    return out


def w_operator(psi: BernsteinFunction, A: OperatorTuple, lam, j: int,
               tol: float = 1e-9):
    """W_j^lambda = c1^j I + int V_j(u_j) U_j(u) dmu(u), Re lambda_j < 0."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if len(lam) != A.n or psi.n != A.n:
        raise ValueError("lambda must have one component per generator")
    if np.any(lam.real >= 0):
        raise ValueError("w_operator requires Re lambda_j < 0")
    return _w_integral(psi, _representation(A), lam, j, tol)


def _w_integral(psi: BernsteinFunction, rep, lam, j: int, tol: float):
    """W_j on the representation ``rep``."""
    zero = np.zeros_like(rep.one)
    make = rep.w_integrand(lam, j)

    def part_setup(p):
        if p.direction[j] == 0.0:
            return None
        F, F_over_r, kw = make(p.direction)
        return F, dict(kw, f_zero=zero, f_over_r=F_over_r)

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
