"""Operator calculus: psi(A), subordinated semigroups, proof operators.

psi(A) follows the measure-structured integral c0 I + c1.A + int (T(u)-I) dmu
with the same certified-error quadrature used for scalar evaluation; the
subordinated family g_t(A) integrates T(u) against the closed-form measures
nu_t where the catalog has them.  mu and nu_t are both ``LevyMeasure``s, so
psi(A), the cofactors W_j and g_t(A) walk them with the one
``integrate_measure``; where nu_t is the convolution of several factors (a
cone combination or a direct sum), g_t is the product of their integrals.

Each tuple holds one integrand representation, a ``_Profiles`` in one block
basis X (``OperatorTuple.representation``).  Along a ray w the quadrature
runs, in the max-norm, on one profile: the scalar jets e^{r z_w} r^k / k! of
each block that is z I + nilpotent, and the entries of e^{r B_w} of each
other, dense, block.  Each ray's integral is lifted to block-diagonal
coefficients, which the builders sum and compose block by block, and X is
applied once to the result.  A generator-only tuple takes X from its block
split (``OperatorTuple.blocks``, which the joint spectra read too), or X = I
and one dense block when that basis is ill-conditioned; a tuple with
spectral data is the jet-free case X = P, and the point set of a scalar
integral the jet-free case without a basis.  The cross-route tests force
that one dense block (``_Profiles.one_block``) as the expm-only reference.

One set-up per ray direction w: ``ray(w)`` returns the evaluators of T(rw)
with their quadrature bounds and lift, and the ``make(w)`` of
``w_integrand`` the W_j integrand with its own.
"""

from collections import namedtuple
from functools import reduce

import numpy as np
from scipy.linalg import block_diag, expm, schur
from scipy.special import gammaln, xlogy

from ._integrate import integrate_measure
from .bernstein import BernsteinFunction, SubordinatorFamily, eval_psi
from .semigroup import OperatorTuple, _frobenius

__all__ = [
    "CatalogGapError", "apply_psi", "apply_psi_spectral", "subordinated",
    "laplace_identity_error", "generator_limit_check",
    "v_operator", "w_operator", "w_operator_bound", "factorization_check",
    "factorization_checks",
]

_TINY_R = 1e-250


class CatalogGapError(LookupError):
    """No closed-form subordination measure is known for this function."""


# ---------------------------------------------------------------------------
# integrand representations, chosen once per tuple

_COND_MAX = 1e4                     # largest cond(X) of a block basis
_ROUND = 64 * np.finfo(float).eps   # relative round-off of a computed block
_NIL = 1e-12                        # largest jet term of a zero power N^m


def _over_r(F, limit):
    """F(r)/r, returning the r -> 0 limit once r is subnormal-small."""
    def F_over_r(r):
        if r < _TINY_R:
            return limit
        return F(r) / r
    return F_over_r


def _peak(log_c, k, rho):
    """max_e c_e sup_r r^k_e e^{-rho_e r} = c_e (k_e/rho_e)^k_e e^{-k_e},
    from log c_e, in log space; 0 for no entry.  rho may hold one row of
    rates per lam of a stack, along which log c and k broadcast."""
    if len(k) == 0:
        return 0.0
    return float(np.max(np.exp(log_c + xlogy(k, k / rho) - k)))


def _powers(N, m):
    """(N^k / nu_k for k < m while N^k is nonzero, log nu_k), nu_k =
    ||N^k||_F (I, 0 at k = 0), from normalized powers past the float range."""
    stack, log_nu = [np.eye(m, dtype=complex)], [0.0]
    for _ in range(1, m):
        P = stack[-1] @ N
        size = float(np.linalg.norm(P))
        if size == 0.0:
            break
        stack.append(P / size)
        log_nu.append(log_nu[-1] + np.log(size))
    return np.array(stack), np.array(log_nu)


# one set-up per ray direction w: evaluators of T(rw), T(rw) - I and their
# quotient by r, the Lipschitz constant at 0, the sup, the envelope ||T(rw) -
# settle|| <= far e^{rho r} (rho <= 0; T stays 1 where ``settled``), T(0),
# and the lift of a value of the ray to a value of the representation
_Ray = namedtuple("_Ray", "T delta ratio lip sup rho far settled one lift")


def _pad(head, size):
    """A profile with ``head`` on the heads and 0 on every jet."""
    return np.concatenate((head, np.zeros(size - len(head), dtype=head.dtype)))


def _schur_envelope(B, bound):
    """(rho, far) with ||e^{rB}||_2 <= far e^{rho r} for r >= 0, rho <= 0,
    from the Schur form D + N of B; (0, ``bound``) without strict decay.

    ||e^{r(D+N)}|| <= e^{alpha r} sum_{k<m} (r ||N||)^k / k!, alpha = max Re
    D, and half the rate absorbs that factor.  Its sup is read on a grid past
    its peaks (below (m-1) / half); between nodes h apart its log moves at
    rate at most max(||N||, half), so the grid max times e^{max(||N||, half)
    h} is certified.  The series is summed in log space, since its terms
    leave the float range from m ~ 120 on; xlogy makes 0 * log 0 = 0 at r = 0.
    """
    T, _ = schur(B, output="complex")
    rho = float(np.max(np.diag(T).real))
    nrm = float(np.linalg.norm(np.triu(T, 1), 2))
    if rho >= -1e-12:
        return 0.0, bound
    if nrm < 1e-14:
        return rho, 1.0
    half = -0.5 * rho
    grid, h = np.linspace(0.0, 4.0 * (len(B) + 1) / half, 4096, retstep=True)
    k = np.arange(len(B))[:, None]
    log_terms = xlogy(k, grid * nrm) - gammaln(k + 1.0)
    log_vals = np.logaddexp.reduce(log_terms, axis=0) - half * grid
    return 0.5 * rho, float(np.exp(np.max(log_vals) + max(nrm, half) * h))


# the basis of a representation: X, X^-1 and cond(X)
_Basis = namedtuple("_Basis", "basis inverse cond")


class _Profiles:
    """Integrands as profiles in one block basis X, Y = X^-1.

    On block i every A_j acts as B_ij = z_ij I + N_ij, so T(rw) acts there
    as e^{r B_iw}, B_iw = z_iw I + N_iw, z_iw = <w, z_i>, N_iw = sum_j w_j
    N_ij.  The route is chosen per block, as in Schur-Parlett (Davies &
    Higham, SIMAX 2003).  A jet block, whose N_ij are nilpotent, integrates
    the heads e^{r z_iw} and the jets nu_ik e^{r z_iw} r^k / k!, nu_ik =
    ||N_iw^k||_F, of the nonzero powers: at most K_i = min(m_i, 1 + sum_j
    (nu_ij - 1)) entries, nu_ij the number of nonzero powers of N_ij.  A
    dense block integrates the m_i^2 entries of e^{r B_iw}, K_i = m_i.

    A ray's ``lift`` turns the integrated profile e into the coefficients
    of each block (sum_k e_ik N_iw^k / nu_ik on a jet block), which the
    builders add and ``compose`` multiplies; ``finish`` applies X D Y once.
    A lifted part has 2-norm at most cond(X) K_i max|e|, so profiles are
    integrated in the max-norm to tol / (cond(X) max K_i), ``cond``.

    A tuple with spectral data is the jet-free case X = P with 1 x 1 blocks,
    and the (m, n) point set of a scalar integral its own diagonal tuple
    with no basis; ``of_generators`` reads X and the blocks from the split
    of a generator-only tuple.  One code serves all three.
    """

    def __init__(self, joint, spec=None, jets=(), dense=(), bound=1.0):
        """``joint`` holds one row z_i per block, ``spec`` the basis (the
        ``SpectralData`` or ``_schur.Blocks`` of the tuple, a ``_Basis``, or
        None for a point set), ``jets`` and ``dense`` the (i, N_i) of each
        block of size m_i > 1, N_i the n x m_i x m_i stack of its parts, and
        ``bound`` prod_j M_j, which bounds every ||e^{B_iu}||_2: a block of
        T(u) is a compression of T(u)."""
        count, self.n = joint.shape
        self.joint, self.jets, self.dense = joint, list(jets), list(dense)
        self.stacks = self.jets + self.dense
        # the stack B_i = z_i I + N_i of each dense block; with none, every
        # entry is bounded as a head is, by 1
        self.mats = [joint[i][:, None, None] * np.eye(len(N[0])) + N
                     for i, N in self.dense]
        self.bound = bound if self.dense else 1.0
        self.sizes = np.ones(count, dtype=int)
        for i, N in self.stacks:
            self.sizes[i] = len(N[0])
        # block i holds the m_i x m_i coefficients ending at ends[i]
        self.ends = np.cumsum(self.sizes ** 2)
        self.one = self._scalar(np.ones(count, dtype=complex))
        self.basis = self.inverse = None
        self.scale = 1.0
        if spec is not None:
            self.basis, self.inverse = spec.basis, spec.inverse
            self.scale = max(1.0, float(spec.cond))
        most = [1] + [len(N[0]) for _, N in self.dense]
        for _, N in self.jets:
            m = len(N[0])
            # all m powers are nonzero once one N_ij^(m-1) is
            if not any(np.any(np.linalg.matrix_power(G, m - 1)) for G in N):
                m = min(m, 1 + sum(len(_powers(G, m)[0]) - 1 for G in N))
            most.append(m)
        self.cond = self.scale * max(most)

    @classmethod
    def of_generators(cls, A: OperatorTuple):
        """The block profile of a generator-only tuple.

        X and the blocks B_ij = Q_i^* A_j Q_i come from the tuple's split
        ``A.blocks``; B_ij = z_ij I + N_ij, z_ij = tr(B_ij) / m_i.  N_ij is
        nilpotent when the largest jet term of N_ij^m, ||N_ij^m||_F (m /
        rho_j)^m e^{-m} / m!, rho_j = -Re z_ij, is below _NIL; the N_ij
        commute, so every N_iw is then nilpotent too.  A block z_i I with
        no nilpotent part is m_i blocks of size 1.  A block that is not z I
        + nilpotent, or whose jet r^k e^{rz} would not decay (Re z_ij = 0),
        is dense.  A split that fails, or whose cond(X) passes _COND_MAX,
        gives way to ``one_block``.
        """
        try:
            split = A.blocks
        except np.linalg.LinAlgError:
            return cls.one_block(A)
        if not split.cond <= _COND_MAX:
            return cls.one_block(A)
        # parts of a computed block below these sizes are round-off
        tiny = _ROUND * split.cond * np.maximum(1.0, _frobenius(
            np.array(A.generators)))
        rows, jets, dense = [], [], []
        for compressed in split.compressions:
            m = len(compressed[0])
            z, N = np.zeros(A.n, dtype=complex), np.zeros((A.n, m, m), dtype=complex)
            nilpotent = np.zeros(A.n, dtype=bool)
            for j, B in enumerate(compressed):
                t = np.trace(B) / m
                z[j] = complex(t.real if abs(t.real) > tiny[j] else 0.0,
                               t.imag if abs(t.imag) > tiny[j] else 0.0)
                N[j] = B - z[j] * np.eye(m)
                nilpotent[j] = np.linalg.norm(N[j]) > tiny[j]
            N[~nilpotent] = 0.0
            if not np.any(nilpotent):
                rows += [z] * m
                continue
            rho = -z.real[nilpotent]
            jet = not (np.any(z.real > 0.0) or np.any(rho == 0.0))
            if jet:
                nu = np.linalg.norm(np.linalg.matrix_power(N[nilpotent], m), axis=(1, 2))
                jet = not np.any(xlogy(1.0, nu) - m + xlogy(m, m / rho)
                                 - gammaln(m + 1.0) > np.log(_NIL))
            (jets if jet else dense).append((len(rows), N))
            rows.append(z)
        return cls(np.array(rows), split, jets, dense, float(np.prod(A.bounds)))

    @classmethod
    def one_block(cls, A: OperatorTuple):
        """One dense block over the whole space in the basis I: B_j = A_j,
        z_j = tr(A_j) / d.  Every value is a d x d matrix exponential; the
        cross-route tests take it as the reference that shares no basis and
        no jet code with the other profiles."""
        z = np.array([np.trace(G) / A.d for G in A.generators])
        N = np.array([G - zj * np.eye(A.d) for G, zj in zip(A.generators, z)])
        eye = np.eye(A.d, dtype=complex)
        return cls(z[None, :], _Basis(eye, eye, 1.0), dense=[(0, N)],
                   bound=float(np.prod(A.bounds)))

    def _span(self, i):
        return slice(self.ends[i] - self.sizes[i] ** 2, self.ends[i])

    def _scalar(self, v):
        """The coefficients v_i I of every block."""
        out = np.repeat(v, self.sizes ** 2)
        for i, N in self.stacks:
            out[self._span(i)] *= np.eye(len(N[0])).ravel()
        return out

    def _products(self, count, stacks):
        """(size, full, columns, lift) of a profile with an entry per product
        V_k U_p, k + p < m_i, on each block i of ``stacks`` = [(i, V, log
        nu_V, U, log nu_U)], V_0 = U_0 = I: the head (0, 0) at i, the others
        from ``count`` on, and then, up to ``full``, the m_i^2 entries of
        each dense block.  The columns are (position, block, k, p, log nu_k
        + log nu_p) of the products; ``lift`` maps a profile e to the
        coefficients sum_kp e_kp V_k U_p there, the entries on a dense block
        (its head is integrated along, but not read) and e_i I elsewhere."""
        blocks, cols, size = [], [], count
        for i, V, log_v, U, log_u in stacks:
            k, p = np.nonzero(np.add.outer(np.arange(len(V)), np.arange(len(U)))
                              < self.sizes[i])
            pos = np.r_[i, size:size + len(k) - 1]
            size += len(k) - 1
            blocks.append((i, pos, k, p, V, U))
            cols.append((pos, np.full(len(k), i), k, p, log_v[k] + log_u[p]))
        spans, full = [], size
        for i, N in self.dense:
            spans.append((self._span(i), slice(full, full + len(N[0]) ** 2)))
            full = spans[-1][1].stop

        def lift(e):
            out = self._scalar(e[:count])
            for i, pos, k, p, V, U in blocks:
                E = np.zeros((len(U), len(V)), dtype=complex)
                E[p, k] = e[pos]
                D = np.tensordot(E, V, axes=1)
                D = D[0] if len(U) == 1 else (D @ U).sum(axis=0)
                out[self._span(i)] = D.ravel()
            for span, at in spans:
                out[span] = e[at]
            return out

        empty = [np.zeros(0, dtype=int)] * 4 + [np.zeros(0)]
        return size, full, [np.concatenate(c) for c in zip(*cols)] or empty, lift

    def _eye(self, size):
        """The profile of I: 1 on the heads, 0 on the ``size`` - count jets,
        then the entries of I on each dense block."""
        return np.concatenate([_pad(np.ones(len(self.joint), dtype=complex), size)]
                              + [np.eye(len(B[0])).ravel() for B in self.mats])

    def gen(self, j):
        out = self._scalar(self.joint[:, j])
        for i, N in self.stacks:
            out[self._span(i)] += N[j].ravel()
        return out

    def ray(self, w):
        """The ``_Ray`` of the profile of T(rw), bounds in the max-norm; rho
        is 0 when no decay is certified.  A jet c r^k e^{rz} has sup c
        (k/rho)^k e^{-k} with rho = -Re z, and its quotient by r peaks at c
        ((k-1)/rho)^{k-1} e^{-(k-1)}; in the envelope a jet keeps half its
        rate, c r^k e^{-rho r} <= c (2k/rho)^k e^{-k} e^{-rho r/2}.  The
        entries of a dense block B are bounded by ||e^{rB}||_2: by prod M_j,
        by r ||B||_2 prod M_j away from I, and by its Schur envelope.
        ``settled`` marks the heads with z_iw = 0: there T is 1 and T - 1 is
        0 at every r, so each builder gives them their own settle value and
        they are left out of the rate."""
        w = np.asarray(w, dtype=float)
        z = self.joint @ w
        count = len(z)
        stacks = [(i,) + _powers(np.tensordot(w, N, axes=1), len(N[0]))
                  + (np.eye(len(N[0]))[None], np.zeros(1)) for i, N in self.jets]
        size, full, (pos, block, k, _, log_nu), lift = self._products(count, stacks)
        jet = pos >= count
        k, z_jet = k[jet], z[block[jet]]
        c_jet = log_nu[jet] - gammaln(k + 1.0)     # log nu_k / k!
        # each dense block B_iw with ||B_iw||_2 and its Schur envelope
        dense = [(B, float(np.linalg.norm(B, 2))) + _schur_envelope(B, self.bound)
                 for B in (np.tensordot(w, G, axes=1) for G in self.mats)]

        def extend(head, r, block_value):
            jets = [np.exp(r * z_jet + (xlogy(k, r) + c_jet))] if size > count else []
            return np.concatenate(
                [head] + jets + [block_value(B, nrm, r).ravel() for B, nrm, _, _ in dense])

        def T(r):
            if full == count:
                return np.exp(r * z)
            return extend(np.exp(r * z), r, lambda B, nrm, r: expm(r * B))

        def dense_delta(B, nrm, r):
            # below r ||B|| = 0.25, r B phi1(rB) with phi1(rB) = int_0^1
            # e^{s rB} ds: no cancellation
            if r * nrm < 0.25:
                return r * (B @ _van_loan(r * B, 0.0, 1.0))
            return expm(r * B) - np.eye(len(B))

        def delta(r):
            # numpy's complex expm1 is cancellation-free: expm1(x) cos y -
            # 2 sin^2(y/2) + i e^x sin y
            if full == count:
                return np.expm1(r * z)
            return extend(np.expm1(r * z), r, dense_delta)

        limit = np.concatenate([z, np.where(k == 1, np.exp(c_jet), 0.0)]
                               + [B.ravel() for B, _, _, _ in dense])
        rho = -z_jet.real
        lip = max([float(np.max(np.abs(z))), _peak(c_jet, k - 1, rho)]
                  + [nrm * self.bound for _, nrm, _, _ in dense])
        sup = max(self.bound, _peak(c_jet, k, rho))
        still = z == 0
        rates = np.concatenate((-z.real[~still], 0.5 * rho,
                                [-rho_d for _, _, rho_d, _ in dense]))
        rate = float(np.min(rates, initial=np.inf))
        if rates.size == 0:
            decay, far = -1.0, 0.0
        elif rate <= 1e-12:
            decay, far = 0.0, 1.0
        else:
            decay = -rate
            far = max([_peak(c_jet, k, 0.5 * rho), 1.0 if np.any(~still) else 0.0]
                      + [far_d for _, _, _, far_d in dense])
        return _Ray(T, delta, _over_r(delta, limit), lip, sup, decay, far,
                    _pad(still, full), self._eye(size), lift)

    def compose(self, left, right):
        """The coefficients of the product of two operators: block by block,
        entrywise on 1 x 1 blocks."""
        out = left * right
        for i, N in self.stacks:
            m, span = len(N[0]), self._span(i)
            out[span] = (left[span].reshape(m, m)
                         @ right[span].reshape(m, m)).ravel()
        return out

    def w_integrand(self, lams, j):
        """(make, budget divisor): make(w) -> (F, bounds, lift) for the
        profiles of V_j(r w_j) U_j(r w) at every row lam of the (K, n) stack
        ``lams`` (one row for a single (n,) lam), bounds the
        integrate_radial keywords.

        The profile holds K copies of one lam's entries, lam-major, so the
        quadrature shares its panels among the whole stack while the
        max-norm keeps each copy to the budget of a single lam.  Every node
        makes one ``_v_diag`` call over all heads, one ``_v_jets`` call with
        lam_j given per row, and per dense block one ``_van_loan`` per lam
        after the lam-free U_j factor; the bounds are the largest sup,
        Lipschitz and envelope coefficients and the smallest rate over the
        stack, and ``lift`` returns one row of coefficients per lam.

        On a jet block i, V_j(t) = sum_k c_k(t) N_ij^k, c_k(t) = int_0^t
        e^{(t-s) lam_j} e^{s z_ij} s^k / k! ds (``_v_jets``, c_0 also
        ``_v_diag``), and U_j(rw) = e^{r (<w, z_i>_{<j} + <w, lam>_{>j})}
        sum_p r^p / p! N_U^p.  Entry (k, p) is nu_k nu_p c_k(r w_j) e^{...}
        r^p / p!, nu the Frobenius norms of N_ij^k and N_U^p, so ||N_ij^k
        N_U^p||_2 <= nu_k nu_p; the divisor is cond(X) times the largest
        pair count, or m_i of a dense block if that is larger.

        |c_k(t)| <= t^{k+1} / (k+1)! e^{-t mu}, mu = -max(Re lam_j, Re z_ij),
        so entry (k, p) is at most C r^{k+p+1} e^{-gamma r}, gamma the rate
        of e^{-r w_j mu} U_j; the heads keep |c_0| <= 1 / -Re lam_j.  A head
        with z_ij = 0, sum_{l<j} w_l z_il = 0 and w_l = 0 past j does not
        decay: there c_0(t) = (e^{t lam_j} - 1) / lam_j and U_j = 1, so it
        settles at -1 / lam_j, within e^{t Re lam_j} / |lam_j|.

        A dense block takes V_j from ``_van_loan`` and U_j = prod_{l<j} e^{r
        w_l B_il} e^{r <w, lam>_{>j}}; with the Schur envelopes (rho_l, far_l)
        of its B_il, ||V_j(t)|| <= far_j t e^{t max(Re lam_j, rho_j)}.
        """
        lams = np.atleast_2d(lams)
        stack = len(lams)
        lam = lams[:, j]
        zj, re = self.joint[:, j], self.joint.real
        # lam_j against every head: a (K, 1) column, or for one lam the
        # scalar itself, which numpy broadcasts at less cost per node
        lam_h = lam[:, None] if stack > 1 else lam[0]
        gap = zj - lam_h
        count = len(zj)
        mu = -np.maximum(lam.real[:, None], re[:, j])
        # the largest Re lam_j and the smallest |lam_j| of the stack
        top, low = float(lam.real.max()), float(np.abs(lam).min())
        blocks = [(i, N) + _powers(N[j], len(N[0])) for i, N in self.jets]
        # the most pairs of a block: k < len(V), and p < m_i if N_U can be
        # nonzero, else p = 0
        pairs = max([1] + [sum(min(len(N[0]) if np.any(N[:j]) else 1, len(N[0]) - k)
                               for k in range(len(V))) for _, N, V, _ in blocks]
                    + [len(N[0]) for _, N in self.dense])
        rows = np.array([i for i, _ in self.jets], dtype=int)
        # z_ij and lam_j of every jet row of the stack, lam-major
        z_jet, lam_jet = np.tile(zj[rows], stack), lam.repeat(len(rows))
        order = max((len(V) for _, _, V, _ in blocks), default=1)
        # each dense block, the rates rho_l of its envelopes and prod far_l
        envs = [np.array([_schur_envelope(G, self.bound) for G in B[:j + 1]])
                for B in self.mats]
        dense = [(B, e[:, 0], float(np.prod(e[:, 1]))) for B, e in zip(self.mats, envs)]

        def make(w):
            w = np.asarray(w, dtype=float)
            pre = self.joint[:, :j] @ w[:j]
            post = lams[:, j + 1:] @ w[j + 1:]
            post_re = post.real
            gamma = w[j] * mu - re[:, :j] @ w[:j] - post_re[:, None]
            size, full, (at, block, k, p, log_nu), lift = self._products(count, [
                (i, V, log_v) + _powers(np.tensordot(w[:j], N[:j], axes=1), len(N[0]))
                for i, N, V, log_v in blocks])
            # the jet row of each product, in the (stack, rows) grid
            row = np.searchsorted(rows, block)
            shift = pre + post[:, None]
            pre_jet = shift[:, block]
            # e^{r shift} = 1 on every head (n = 1, or an axis ray of the
            # last j) is not formed
            shifts = bool(shift.any())
            shift = shift.reshape(gap.shape)
            log_e = log_nu - gammaln(p + 1.0)

            def dense_values(B, r):
                # the factor U_j is the same for every lam: one expm each
                out = np.array([_van_loan(B[j], l, r * w[j]) for l in lam])
                for l in range(j):
                    if w[l] > 0:
                        out = out @ expm(r * w[l] * B[l])
                return (np.exp(r * post)[:, None, None] * out).reshape(stack, -1)

            def F(r):
                t = r * w[j]
                out = _v_diag(t, lam_h, zj, gap)
                if shifts:
                    out = out * np.exp(r * shift)
                if blocks or dense:
                    out = out.reshape(stack, count)
                if blocks:
                    out = np.concatenate(
                        (out, np.zeros((stack, size - count), dtype=complex)), axis=1)
                    c = _v_jets(t, lam_jet, z_jet, order).reshape(stack, len(rows), order)
                    out[:, at] = c[:, row, k] \
                        * np.exp(r * pre_jet + (xlogy(p, r) + log_e))
                if dense:
                    out = np.concatenate([out] + [dense_values(B, r) for B, _, _ in dense],
                                         axis=1)
                return out.ravel()

            still = (zj == 0) & (pre == 0) & (not np.any(w[j + 1:]))
            # rates and peaks as (K, entries) grids, the coefficients and
            # powers, which lam leaves alone, broadcast along them
            moving = gamma[:, ~still]
            log_c_head = np.full(moving.shape[1], xlogy(1.0, w[j]))
            jet = k + p > 0     # c_0(t) <= t e^{-t mu} on the heads
            ktot = (k + p + 1)[jet]
            log_c = (log_e - gammaln(k + 2.0) + xlogy(k + 1.0, w[j]))[jet]
            g = gamma[:, block[jet]]
            # the rate of each dense block at every lam and the coefficient
            # of r e^{-rate r}
            tails = [(-w[j] * np.maximum(lam.real, rho[j]) - rho[:j] @ w[:j] - post_re,
                      w[j] * far) for _, rho, far in dense]
            kw = dict(f_zero=np.zeros(stack * full, dtype=complex),
                      f_over_r=_over_r(F, np.tile(w[j] * self._eye(size), stack)),
                      f_lipschitz=max(w[j] * self.bound, _peak(log_c, ktot - 1, g)),
                      f_sup=max(self.bound / -top, _peak(log_c, ktot, g)))
            settles = bool(np.any(still))
            rate = min([np.min(moving, initial=np.inf),
                        np.min(g, initial=np.inf),
                        -w[j] * top if settles else np.inf]
                       + [np.min(g_d) for g_d, _ in tails])
            if rate > 1e-12:
                # r e^{-rate r} <= (2 / (e rate)) e^{-rate r / 2}
                far = max([_peak(log_c_head, np.ones(len(log_c_head)), 0.5 * moving),
                           _peak(log_c, ktot, 0.5 * g),
                           1.0 / low if settles else 0.0]
                          + [np.max(c * 2.0 / (np.e * g_d)) for g_d, c in tails])
                settle = np.zeros((stack, full), dtype=complex)
                settle[:, :count] = np.where(still, -1.0 / lam_h, 0.0)
                kw.update(f_settle=settle.ravel(), f_decay=0.5 * rate, f_far_coeff=far)

            def lift_rows(e):
                return np.array([lift(part) for part in e.reshape(stack, full)])

            return F, kw, lift_rows

        return make, self.scale * pairs

    def finish(self, value):
        if self.basis is None:
            return value
        if not self.stacks:
            # 1 x 1 blocks: X diag(e) Y in O(d^2)
            return (self.basis * value) @ self.inverse
        D = block_diag(*(value[self._span(i)].reshape(m, m)
                         for i, m in enumerate(self.sizes)))
        return self.basis @ D @ self.inverse


def _representation(A: OperatorTuple):
    """A's integrand representation, held as ``A.representation``."""
    if A.spectral is not None:
        return _Profiles(A.spectral.joint, A.spectral)
    return _Profiles.of_generators(A)


# ---------------------------------------------------------------------------
# psi(A)


def apply_psi(psi: BernsteinFunction, A: OperatorTuple, tol: float = 1e-9):
    """c0 I + sum_j c1^j A_j + int (T(u) - I) dmu(u)."""
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    return _psi_integral(psi, A.representation, tol)


def _psi_integral(psi: BernsteinFunction, rep, tol: float):
    """psi on the representation ``rep``: the operator for a tuple, the
    vector of psi(s_k) for the profile of a point set."""
    base = complex(psi.c0) * rep.one
    for j in range(rep.n):
        if psi.c1[j] != 0.0:
            base = base + psi.c1[j] * rep.gen(j)

    def part_setup(w):
        ray = rep.ray(w)
        if ray.lip == 0.0:
            return None
        kw = dict(f_zero=np.zeros_like(ray.one), f_lipschitz=ray.lip,
                  f_sup=ray.sup + 1.0, f_over_r=ray.ratio)
        if ray.rho < 0.0:
            # T - I tends to -I, except where T stays at 1
            kw.update(f_settle=np.where(ray.settled, 0.0, -ray.one),
                      f_decay=-ray.rho, f_far_coeff=ray.far)
        return ray.delta, kw, ray.lift

    return rep.finish(integrate_measure(base, psi.measure, part_setup,
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
    """int T(u) dnu_t(u) on the representation ``rep``, before ``finish``:
    the product, in factor order, of the integrals against the measures
    measure_at(a t) of the family's factors, each to tol / len(factors)."""
    def part_setup(w):
        ray = rep.ray(w)
        kw = dict(f_zero=ray.one, f_lipschitz=max(ray.lip, 1e-300),
                  f_sup=ray.sup)
        if ray.rho < 0.0:
            # T tends to 0, except where it stays at 1
            kw.update(f_settle=np.where(ray.settled, ray.one, 0.0),
                      f_decay=-ray.rho, f_far_coeff=ray.far)
        return ray.T, kw, ray.lift

    return reduce(rep.compose, (
        integrate_measure(0.0, measure_at(a * t), part_setup, tol / len(fam.factors))
        for a, measure_at in fam.factors))


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
    if not 0 <= t < np.inf:
        raise ValueError("subordination time must be finite and nonnegative")
    if psi.n != A.n:
        raise ValueError("function arity and tuple size differ")
    if t == 0:
        return np.eye(A.d, dtype=complex)
    rep = A.representation
    return rep.finish(_subordinated_family(_family(psi), rep, t,
                                           tol / rep.cond))


def laplace_identity_error(psi: BernsteinFunction, t: float, s_grid,
                           tol: float = 1e-9) -> float:
    """max_s |int e^{s.u} dnu_t - e^{t psi(s)}| over the grid.

    ``s_grid`` holds points s, real or complex; ``eval_psi`` checks them.
    The measure side is g_t on the diagonal tuple diag(s) of the whole grid,
    one profile on the route subordinated takes for a spectral tuple.
    """
    if not 0 <= t < np.inf:
        raise ValueError("subordination time must be finite and nonnegative")
    fam = _family(psi)
    S = np.asarray(s_grid, dtype=complex).reshape(len(s_grid), -1)
    target = np.exp(t * eval_psi(psi, S))
    g = 1.0 if t == 0 else _subordinated_family(fam, _Profiles(S), t, tol)
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


def _v_diag(t, lam, z, gap):
    """Eigenvalue profile t e^{t lam} phi1(t gap) of V(t), gap = z - lam,
    phi1(x) = (e^x - 1)/x filled in with 1 below |x| = _TINY_R.

    Large separations, |x| > 20, switch to (e^{tz} - e^{t lam})/(z - lam):
    both exponentials stay bounded on the left half-plane while the phi1
    factor would overflow, and cancellation only matters when t(z - lam) is
    small.  Both forms are evaluated on every entry and joined by where, so
    the overflow or 0/0 of the form not taken is silenced, never used.
    """
    x = t * gap
    size, e_lam = np.abs(x), np.exp(t * lam)
    with np.errstate(all="ignore"):
        near = t * e_lam * np.where(size > _TINY_R, np.expm1(x) / x, 1.0)
        far = (np.exp(t * z) - e_lam) / gap
    return np.where(size <= 20.0, near, far)


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
    """V_j^lambda(u) = int_0^u e^{(u-s) lambda} T_j(s) ds, by ``_van_loan``.

    A non-finite lambda or u, or u < 0, raises ValueError.
    """
    lam, j = complex(lam), _index(A, j)
    if not np.isfinite(lam):
        raise ValueError("lambda must be finite")
    if not 0 <= u < np.inf:
        raise ValueError("upper limit must be finite and nonnegative")
    if u == 0:
        return np.zeros((A.d, A.d), dtype=complex)
    return _van_loan(A.generators[j], lam, u)


def _v_jets(t, lam, z, order):
    """c_k(t) = int_0^t e^{(t-s) lam} e^{sz} s^k / k! ds for k < ``order``,
    one row per entry of z, with its own entry of lam.

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
        d = np.exp(t * lam[up])
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


def _index(A: OperatorTuple, j) -> int:
    """``j`` as a generator index of A: IndexError unless it is an integer
    in 0..n-1, since numpy would read j = -1 as the last generator."""
    if not isinstance(j, (int, np.integer)) or not 0 <= j < A.n:
        raise IndexError("generator index out of range")
    return int(j)


def _lambdas(psi: BernsteinFunction, A: OperatorTuple, lam):
    """``lam`` as a complex array, checked whole before any quadrature: one
    point of shape (n,) or a nonempty (K, n) stack of them, every entry
    finite, every Re lambda_j < 0."""
    lam = np.asarray(lam, dtype=complex).reshape(np.shape(lam) or 1)
    if psi.n != A.n or lam.ndim > 2 or lam.shape[-1] != A.n or lam.size == 0:
        raise ValueError("lambda must have one component per generator, "
                         "as one point or a stack of points")
    if not np.isfinite(lam).all():
        raise ValueError("lambda must be finite")
    if (lam.real >= 0).any():
        raise ValueError("W_j^lambda requires Re lambda_j < 0")
    return lam


def w_operator(psi: BernsteinFunction, A: OperatorTuple, lam, j: int,
               tol: float = 1e-9):
    """W_j^lambda = c1^j I + int V_j(u_j) U_j(u) dmu(u), Re lambda_j < 0.

    ``lam`` is one point of shape (n,), which gives the d x d W_j, or a
    (K, n) stack, which gives the (K, d, d) stack of the W_j of its rows
    from one quadrature (``_w_integral``).  The whole stack is checked
    first: a non-finite entry or Re lambda_j >= 0 raises ValueError.
    """
    lam, j = _lambdas(psi, A, lam), _index(A, j)
    return _w_integral(psi, A.representation, lam, j, tol)


def _w_integral(psi: BernsteinFunction, rep, lam, j: int, tol: float):
    """W_j on the representation ``rep`` at every row of the (K, n) stack
    ``lam``, (K, d, d), or at one (n,) point, d x d: one integrate_measure
    call, whose profile ``w_integrand`` holds every row."""
    lams = np.atleast_2d(lam)
    make, cond = rep.w_integrand(lams, j)
    value = integrate_measure(
        (psi.c1[j] * rep.one)[None].repeat(len(lams), 0), psi.measure,
        lambda w: None if w[j] == 0.0 else make(w), tol / cond)
    if np.ndim(lam) == 1:
        return rep.finish(value[0])
    return np.array([rep.finish(v) for v in value])


def w_operator_bound(psi: BernsteinFunction, A: OperatorTuple, lam, j: int) -> float:
    """Analytic norm bound c1^j + (M^n / Re lambda_j) (psi(Re lambda_j e_j)
    - c1^j Re lambda_j - psi(-0)), at one lambda of shape (n,), checked
    as w_operator checks it."""
    lam, j = _lambdas(psi, A, lam), _index(A, j)
    if lam.ndim != 1:
        raise ValueError("w_operator_bound takes one lambda of shape (n,)")
    rj = float(lam[j].real)
    M = max(A.bounds)
    s = np.zeros(A.n)
    s[j] = rj
    psi_at = float(np.real(eval_psi(psi, s)))
    return float(psi.c1[j] + (M ** A.n / rj)
                 * (psi_at - psi.c1[j] * rj - psi.c0))


def factorization_check(psi: BernsteinFunction, A: OperatorTuple, lam,
                        tol: float = 1e-9, operator=None) -> float:
    """Relative residual of (psi(lam) I - psi(A)) = sum_j W_j (lam_j I - A_j).

    The one-point case of factorization_checks.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    return float(factorization_checks(psi, A, lam[None], tol, operator)[0])


def factorization_checks(psi: BernsteinFunction, A: OperatorTuple, lams,
                         tol: float = 1e-9, operator=None) -> np.ndarray:
    """factorization_check at every row of the (K, n) stack ``lams``: the K
    relative residuals.

    Each W_j is one ``w_operator`` call over the whole stack, so one W
    quadrature per j whatever K is; the products and norms run as (K, d,
    d) stacks.  ``operator`` lets callers reuse a precomputed psi(A), as in
    ``mapping_check``; by default it is apply_psi at ``tol``.
    """
    lams = _lambdas(psi, A, lams)
    if lams.ndim == 1:
        lams = lams[None]
    eye = np.eye(A.d, dtype=complex)
    F = apply_psi(psi, A, tol) if operator is None else operator
    lhs = eval_psi(psi, lams)[:, None, None] * eye - F
    terms = [w_operator(psi, A, lams, j, tol) @ (lams[:, j, None, None] * eye
                                                 - A.generators[j])
             for j in range(A.n)]
    rhs = sum(terms)
    # every 2-norm of the check in one call: ||lhs||, each ||term_j||, and
    # the residual's
    norms = np.linalg.norm(np.stack([lhs, *terms, lhs - rhs]), 2, axis=(2, 3))
    return norms[-1] / np.maximum(1.0, norms[:-1].max(axis=0))
