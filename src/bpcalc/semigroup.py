"""Commuting generator tuples and their n-parameter semigroups.

Tuples come in two constructive families: jointly diagonalizable (shared
eigenbasis with controlled conditioning) and polynomials in one nilpotent
block (exactly commuting, non-diagonalizable).  A ray of spectrum
e^{i theta}[0, inf), which no finite matrix can host, is its angle theta
alone: holomorphy_defect_ray gives its defect, and _ray_direction is the one
rule that reads the angle.

Random tuples are drawn as stacks: make_commuting_random_stack draws one
tuple per seed, each from its own generator, and runs the SVDs, inverses,
products and make_tuple's checks once on the (seeds, d, d) stacks.  A
stacked LAPACK or BLAS call rounds each matrix as the unstacked call does,
so tuple t is bit for bit the one make_commuting_random(n, d, seeds[t])
returns; make_commuting_random is the one-seed stack.

The module owns its matrix exponential, expm, which the sampled bounds and
semigroup_apply share: a scaling-and-squaring Pade kernel in numpy alone.
scipy.linalg.expm solves its Pade system through the BLAS bundled with
scipy, whose worker thread wakes even for 8 x 8 matrices and costs more
than the exponential itself; numpy's stacked solve and products do not
wake theirs at the sizes sampled here.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._schur import Blocks

__all__ = [
    "SpectralData", "OperatorTuple", "TupleStack",
    "make_tuple", "make_commuting_random", "make_commuting_random_stack",
    "make_jordan_polynomial",
    "adjoint", "semigroup_apply", "log_norm",
    "fourier_modes", "fourier_translation_model", "holomorphy_defect_ray",
]

_COMMUTE_REL = 1e-10
_SPECTRAL_REL = 1e-10
_RE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Joint eigenstructure: row k of ``joint`` is the eigenvalue tuple of
    the shared eigenvector P[:, k].  ``inverse`` is P^{-1} and ``cond`` is
    cond(P) in the 2-norm, both derived from ``basis`` once."""

    joint: np.ndarray       # d x n complex
    basis: np.ndarray       # d x d, columns are joint eigenvectors
    inverse: np.ndarray = field(init=False, repr=False)
    cond: float = field(init=False)

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=complex)
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValueError("spectral basis must be a square matrix")
        if joint.ndim != 2 or len(joint) != len(basis):
            raise ValueError("joint spectrum needs one row per basis vector")
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "inverse", np.linalg.inv(basis))
        object.__setattr__(self, "cond", float(np.linalg.cond(basis)))

    @classmethod
    def _derived(cls, joint, basis, inverse, cond) -> "SpectralData":
        """The SpectralData of ``basis`` whose inverse and cond were derived
        already, as one matrix of a stacked draw."""
        spec = object.__new__(cls)
        for name, value in (("joint", joint), ("basis", basis),
                            ("inverse", inverse), ("cond", float(cond))):
            object.__setattr__(spec, name, value)
        return spec

    def apply(self, values) -> np.ndarray:
        """P diag(values) P^{-1}: eigenvector k is scaled by values[k]."""
        return (self.basis * values) @ self.inverse


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    n: int
    d: int
    generators: tuple          # n read-only complex d x d arrays
    bounds: tuple              # M_j >= 1, see _bound
    # how each M_j was obtained: "spectral", "lognorm" or "sampled" (see
    # _bound), or "given" when passed in by the caller
    bound_kinds: tuple
    commutator_residual: float
    spectral: Optional[SpectralData] = None

    @cached_property
    def blocks(self) -> Blocks:
        """The block split (``_schur.Blocks``), formed once, on first use."""
        return Blocks(self.generators)

    @cached_property
    def adjoint_blocks(self) -> Blocks:
        """The block split of the reversed adjoint generators rev A_j^* rev,
        rev the reversal permutation, formed once, on first use."""
        # the adjoint of an upper-triangular generator is lower triangular,
        # where the eigensolver splits defective eigenvalues; reversal
        # restores triangular form and costs nothing for other inputs (as
        # products, not slices: they turn the -0.0 imaginary parts of the
        # conjugates into +0.0, on which the Schur form's rounding depends)
        rev = np.eye(self.d)[::-1]
        return Blocks([rev @ G.conj().T @ rev for G in self.generators])

    @cached_property
    def representation(self):
        """The integrand representation of ``calculus`` (its block profile),
        formed once, on first use."""
        from .calculus import _representation   # calculus imports this module
        return _representation(self)


@dataclass(frozen=True, eq=False)
class TupleStack:
    """T jointly diagonalizable tuples of one size as (T, ...) stacks, the
    output of make_commuting_random_stack: tuple t has the generators
    generators[j][t] and the spectral data joint[t], basis[t], inverse[t]
    and cond[t].  ``stack[t]`` is tuple t as an OperatorTuple."""

    generators: tuple          # n read-only (T, d, d) stacks
    joint: np.ndarray          # (T, d, n)
    basis: np.ndarray          # (T, d, d)
    inverse: np.ndarray        # (T, d, d)
    cond: np.ndarray           # (T,) cond(P) of each basis
    commutator_residual: np.ndarray   # (T,)

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def d(self) -> int:
        return self.basis.shape[-1]

    def __len__(self) -> int:
        return len(self.cond)

    def bound(self, t: int) -> float:
        """M_j of tuple t, the same for every j (see _bound)."""
        return _bound(None, self._spectral(t), None)[0]

    def _spectral(self, t: int) -> "SpectralData":
        return SpectralData._derived(self.joint[t], self.basis[t],
                                     self.inverse[t], self.cond[t])

    def __getitem__(self, t: int) -> OperatorTuple:
        spec = self._spectral(t)
        bound, kind = _bound(None, spec, None)
        return OperatorTuple(
            n=self.n, d=self.d,
            generators=tuple(_frozen(G[t].copy()) for G in self.generators),
            bounds=(bound,) * self.n, bound_kinds=(kind,) * self.n,
            commutator_residual=float(self.commutator_residual[t]),
            spectral=spec)


def _frozen(g) -> np.ndarray:
    """``g``, marked read-only, so that make_tuple shares it uncopied."""
    g.flags.writeable = False
    return g


def _as_matrices(generators) -> tuple:
    # a read-only view may still be written through its base, so only an
    # array that owns its data is shared
    mats = tuple(g if isinstance(g, np.ndarray) and g.dtype == complex
                 and not g.flags.writeable and g.base is None
                 else _frozen(np.array(g, dtype=complex)) for g in generators)
    if not mats:
        raise ValueError("give at least one generator")
    d = mats[0].shape[0]
    for g in mats:
        if g.shape != (d, d):
            raise ValueError("generators must be square matrices of equal size")
        if not np.isfinite(g).all():
            raise ValueError("generator entries must be finite")
    return mats


def _norm2(X):
    """||X||_2, the value np.linalg.norm(X, 2) returns, without its axis
    handling; one per matrix of a (T, d, d) stack."""
    return np.linalg.svd(X, compute_uv=False)[..., 0]


def _frobenius(G) -> np.ndarray:
    """||G||_F of each matrix of a (..., d, d) stack, past the float range
    of its squares: each matrix is scaled by the power of two at or below
    its largest entry, so where np.linalg.norm(G, axis=(-2, -1)) neither
    overflows nor underflows the two agree bit for bit."""
    _, e = np.frexp(np.abs(G).max(axis=(-2, -1)))
    scale = np.ldexp(1.0, e - 1)
    return scale * np.linalg.norm(G / scale[..., None, None], axis=(-2, -1))


def _check_stack(gens, spectral=None) -> np.ndarray:
    """make_tuple's checks on T tuples at once; their commutator residuals.

    ``gens`` holds the n generator stacks, each (T, d, d), and ``spectral``
    the stacks (joint (T, d, n), basis, inverse (T, d, d)) of the tuples'
    spectral data, or None.  The first tuple in stack order that fails a
    check is rejected with make_tuple's error.
    """
    n, d = len(gens), gens[0].shape[-1]
    # ||g||_F / sqrt(d) <= ||g||_2 (shrunk past rounding) decides every check
    # that reads the norms wherever it can; the SVDs only where it cannot.
    # The commutator bound residual <= _COMMUTE_REL ||g||^2 is compared in
    # square roots, so no norm is squared past the float range
    lower = (np.stack([_frobenius(g) for g in gens])
             / np.sqrt(d) * (1.0 - 1e-12))
    root = np.sqrt(_COMMUTE_REL)

    def norm(j, t):
        return max(float(_norm2(gens[j][t])), 1e-300)

    residual = np.zeros(len(gens[0]))
    for i in range(n):
        for j in range(i + 1, n):
            residual = np.maximum(
                residual, _norm2(gens[i] @ gens[j] - gens[j] @ gens[i]))
    suspect = np.sqrt(residual) > root * lower.max(axis=0)
    frobenius = []
    if spectral is not None:
        joint, basis, inverse = spectral

        def error(j, t=slice(None)):
            # E_j = P diag(joint[:, j]) P^{-1} - A_j of tuple(s) t
            return (basis[t] * joint[t, None, :, j]) @ inverse[t] - gens[j][t]

        for j in range(n):
            frobenius.append(_frobenius(error(j)))
            # ||E||_2 <= ||E||_F: the SVDs only decide past the cheap bounds
            suspect |= frobenius[j] > _SPECTRAL_REL * lower[j] + 1e-13
        suspect |= (joint.real > _RE_TOL).any(axis=(1, 2))

    # the tuples the cheap bounds leave open, in make_tuple's order of checks
    for t in np.flatnonzero(suspect):
        if np.sqrt(residual[t]) > root * lower[:, t].max():
            top = max(norm(j, t) for j in range(n))
            if np.sqrt(residual[t]) > root * top:
                raise ValueError("tuple is not commuting: residual %.3g exceeds "
                                 "%.3g" % (residual[t], _COMMUTE_REL * top * top))
        for j, frob in enumerate(frobenius):
            if frob[t] > _SPECTRAL_REL * lower[j, t] + 1e-13:
                cap = _SPECTRAL_REL * norm(j, t) + 1e-13
                if frob[t] > cap and _norm2(error(j, t)) > cap:
                    raise ValueError("spectral data does not reproduce "
                                     "generator %d" % j)
        if spectral is not None and np.any(spectral[0][t].real > _RE_TOL):
            raise ValueError("joint spectrum leaves the closed left half-plane")
    return residual


def make_tuple(generators: Sequence, spectral: Optional[SpectralData] = None,
               bounds: Optional[Sequence[float]] = None) -> OperatorTuple:
    """Validate and assemble an OperatorTuple.

    Rejects tuples whose commutators exceed round-off scale, generators with
    spectrum reaching into the open right half-plane, and spectral data that
    does not reproduce the generators.  Without ``bounds`` each M_j comes
    from _bound; passed-in bounds are recorded as "given", since
    nothing here certifies them.  The generators are kept read-only: a
    read-only array that owns its data is shared, any other is copied.
    """
    mats = _as_matrices(generators)
    n, d = len(mats), mats[0].shape[0]
    if spectral is not None and spectral.joint.shape != (d, n):
        raise ValueError("joint spectrum must be %d x %d: one row per basis "
                         "vector, one column per generator" % (d, n))
    # the checks of a stack of one tuple
    residual = float(_check_stack(
        [g[None] for g in mats],
        None if spectral is None else (spectral.joint[None],
                                       spectral.basis[None],
                                       spectral.inverse[None]))[0])

    omegas = [None] * n
    if spectral is None:
        omegas = [log_norm(g) for g in mats]
        for j in range(n):
            # the spectrum lies in the numerical range, so omega <= 0 already
            # keeps it in the closed left half-plane
            if omegas[j] > 0.0 and np.any(np.linalg.eigvals(mats[j]).real > _RE_TOL):
                raise ValueError("generator %d has spectrum with Re > 0" % j)

    if bounds is None:
        bounds, bound_kinds = zip(*(_bound(g, spectral, w)
                                    for g, w in zip(mats, omegas)))
    else:
        bounds = tuple(float(b) for b in bounds)
        if not all(1.0 <= b < np.inf for b in bounds):
            raise ValueError("semigroup bounds must be finite and >= 1")
        if len(bounds) != n:
            raise ValueError("give one bound per generator")
        bound_kinds = ("given",) * n
    return OperatorTuple(n=n, d=d, generators=mats, bounds=bounds,
                         bound_kinds=bound_kinds, commutator_residual=residual,
                         spectral=spectral)


def make_commuting_random(n: int, d: int, seed,
                          spectral_box=((-4.0, -0.05), (-3.0, 3.0)),
                          max_cond: float = 20.0) -> OperatorTuple:
    """Jointly diagonalizable tuple A_j = P D_j P^{-1} with cond(P) <= max_cond.

    ``spectral_box`` is ((re_lo, re_hi), (im_lo, im_hi)) inside Re <= 0; the
    joint eigenvalues are drawn uniformly from it.  This is the one-seed
    case of make_commuting_random_stack.
    """
    return make_commuting_random_stack(n, d, [seed], spectral_box, max_cond)[0]


def make_commuting_random_stack(n: int, d: int, seeds: Sequence,
                                spectral_box=((-4.0, -0.05), (-3.0, 3.0)),
                                max_cond: float = 20.0) -> TupleStack:
    """make_commuting_random(n, d, seed, spectral_box, max_cond) for each
    seed of ``seeds``, drawn and checked as (len(seeds), d, d) stacks.

    Each seed keeps its own random generator, which draws the raw basis,
    the conditioning target (d > 1 only) and the joint spectrum, in this
    order.  The basis SVDs, P = U diag(sigma) V^*, the inverses, the cond
    SVDs, the generators P diag(D_j) P^{-1} and make_tuple's checks then run
    once per stack.  A seed whose cond(P) passes max_cond draws again, up to
    ten draws in all; LinAlgError is raised for a seed that never meets it.
    Arguments are checked before anything is drawn.
    """
    for name, v in (("n", n), ("d", d)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError("%s must be a positive integer, got %r" % (name, v))
    if not 1.0 <= max_cond < np.inf:
        raise ValueError("max_cond must be finite and at least 1, got %r"
                         % (max_cond,))
    if not np.isfinite(np.asarray(spectral_box, dtype=float)).all():
        raise ValueError("spectral box must be finite")
    (re_lo, re_hi), (im_lo, im_hi) = spectral_box
    if re_hi > 0:
        raise ValueError("spectral box must lie in the closed left half-plane")
    if re_lo > re_hi or im_lo > im_hi:
        raise ValueError("spectral box ranges must run from low to high")
    if len(seeds) == 0:
        raise ValueError("give at least one seed")
    P, inverse, cond, joint, todo = _draw_bases(n, d, seeds, spectral_box,
                                                max_cond)
    # a seed that never meets max_cond raises only after the seeds before it
    # pass their checks, so that the first failing seed names the error
    T = int(todo[0]) if len(todo) else len(seeds)
    P, inverse, joint = P[:T], inverse[:T], joint[:T]
    gens = [_sandwich(P, joint[:, :, j], inverse) for j in range(n)]
    residual = _check_stack(gens, (joint, P, inverse))
    if len(todo):
        raise np.linalg.LinAlgError(
            "could not draw a basis with bounded conditioning")

    return TupleStack(generators=tuple(_frozen(G) for G in gens),
                      joint=joint, basis=P, inverse=inverse, cond=cond,
                      commutator_residual=residual)


def _draw_bases(n, d, seeds, spectral_box, max_cond):
    """The stacks (P, P^{-1}, cond(P), joint) of make_commuting_random_stack
    and the seeds still past max_cond after ten draws."""
    (re_lo, re_hi), (im_lo, im_hi) = spectral_box
    rngs = [np.random.default_rng(s) for s in seeds]

    def draw(trials):
        # each seed's numbers in its own order, into one row of the stacks
        normal = np.empty((len(trials), 2, d, d))
        target = np.ones(len(trials))
        re, im = np.empty((2, len(trials), d, n))
        for k, t in enumerate(trials):
            rng = rngs[t]
            rng.standard_normal(out=normal[k])
            if d > 1:
                target[k] = rng.uniform(1.0, max_cond)
            re[k] = rng.uniform(re_lo, re_hi, (d, n))
            im[k] = rng.uniform(im_lo, im_hi, (d, n))
        raw = normal[:, 0] + 1j * normal[:, 1]
        del normal   # the SVD's stacks below are the draw's peak memory
        P = _prescribed(raw, target)
        return P, np.linalg.inv(P), np.linalg.cond(P), re + 1j * im

    limit = max_cond * (1.0 + 1e-9)
    P, inverse, cond, joint = draw(range(len(rngs)))
    todo = np.flatnonzero(cond > limit)
    for _ in range(9):
        if not len(todo):
            break
        P[todo], inverse[todo], cond[todo], joint[todo] = draw(todo)
        todo = todo[cond[todo] > limit]
    return P, inverse, cond, joint, todo


def _prescribed(raw: np.ndarray, target: np.ndarray) -> np.ndarray:
    """U diag(sigma) V^* for each raw = U S V^* of a (T, d, d) stack, with
    sigma geometric from 1 to 1 / target: the singular values are
    prescribed, so cond is target up to rounding."""
    U, _, Vh = np.linalg.svd(raw)
    U *= np.geomspace(1.0, 1.0 / target, raw.shape[-1], axis=-1)[:, None, :]
    return U @ Vh


def _sandwich(P: np.ndarray, D: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """P diag(D) P^{-1} for each matrix of the stacks, with diag(D) formed:
    the scaling (P * D) @ P^{-1} rounds differently and would move the bits
    of every generator."""
    diag = np.zeros(P.shape, dtype=complex)
    diag[:, range(P.shape[-1]), range(P.shape[-1])] = D
    return P @ diag @ inverse


def make_jordan_polynomial(n: int, d: int, seed,
                           re_box=(-3.0, -1.0)) -> OperatorTuple:
    """Non-diagonalizable commuting tuple: each A_j is a polynomial in one
    shared nilpotent block, b0_j I + a1_j N + a2_j N^2.

    Re b0_j is drawn from ``re_box``.  Its default keeps Re b0_j <= -1: with
    Re b0_j up to -0.3 some seeds draw a generator whose semigroup norms
    pass the 1e6 cap of the sampled bound, and no certified bound covers
    them (their logarithmic norm is positive).
    """
    rng = np.random.default_rng(seed)
    N = np.diag(np.ones(d - 1), 1).astype(complex) if d > 1 else np.zeros((1, 1), complex)
    gens = []
    for _ in range(n):
        b0 = rng.uniform(*re_box) + 1j * rng.uniform(-1.0, 1.0)
        a1 = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        a2 = rng.uniform(0.0, 0.5) * np.exp(2j * np.pi * rng.uniform())
        gens.append(_frozen(b0 * np.eye(d, dtype=complex) + a1 * N + a2 * (N @ N)))
    return make_tuple(gens)


def adjoint(A: OperatorTuple) -> OperatorTuple:
    """The adjoint tuple; semigroup bounds carry over since
    ||exp(t A*)|| = ||exp(t A)||."""
    # conj of the transposed view is a new array that owns its data
    gens = [_frozen(g.T.conj()) for g in A.generators]
    spec = None
    if A.spectral is not None:
        spec = SpectralData(joint=A.spectral.joint.conj(),
                            basis=A.spectral.inverse.conj().T)
    # the bounds are A's, so the kinds are too
    return replace(make_tuple(gens, spectral=spec, bounds=A.bounds),
                   bound_kinds=A.bound_kinds)


# the coefficients b_0..b_13 of the [13/13] Pade approximant of exp, and
# theta_13, the largest 1-norm at which it is exact to double precision
# (Higham, SIMAX 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(X) -> np.ndarray:
    """exp of each matrix of a (..., d, d) stack, by scaling and squaring.

    The stack is scaled by 2^-s, s the least with its largest 1-norm at
    most theta_13, so one s serves every matrix; the [13/13] Pade
    approximant r = (V - U)^{-1} (V + U) is solved for and squared s times
    (Higham, SIMAX 2005).  For an upper-triangular stack the diagonal and
    the first superdiagonal are set to their exact values before the first
    squaring and after each (Al-Mohy & Higham, SIMAX 2009, Code Fragment
    2.1), so a stiff diagonal is not worn down by the squarings.  An
    exponential past the float range comes back with inf or nan entries,
    as scipy's does, and so does non-finite input (a stack of nans), with
    no error or warning.
    """
    X = np.asarray(X)
    X = X.astype(np.result_type(X.dtype, float), copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(X).sum(axis=-2).max(initial=0.0))
        if not norm < np.inf:
            return np.full(X.shape, np.nan, X.dtype)
        s = 0 if norm <= _THETA13 else int(np.ceil(np.log2(norm / _THETA13)))
        A = X * 2.0 ** -s
        b = _PADE13
        k = np.arange(X.shape[-1])
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) \
            + b[7] * A6 + b[5] * A4 + b[3] * A2
        U[..., k, k] += b[1]
        U = A @ U
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) \
            + b[6] * A6 + b[4] * A4 + b[2] * A2
        V[..., k, k] += b[0]
        E = np.linalg.solve(V - U, V + U)
        upper = not np.tril(X, -1).any()
        if upper:
            _exact_bands(E, X, 2.0 ** -s)
        for i in range(s - 1, -1, -1):
            E = E @ E
            if upper:
                _exact_bands(E, X, 2.0 ** -i)
    return E


def _exact_bands(E, X, c) -> None:
    """Set the diagonal and first superdiagonal of E to those of exp(c X),
    X an upper-triangular stack.  Entry (k, k+1) is c x_{k,k+1} times the
    divided difference (e^b - e^a) / (b - a) of a = c x_kk, b = c x_{k+1,k+1},
    taken as e^h expm1(w) / w, h the one of larger real part and w the
    other less h, so that nothing overflows or cancels."""
    lam = c * np.diagonal(X, axis1=-2, axis2=-1)
    a, b = lam[..., :-1], lam[..., 1:]
    first = a.real >= b.real
    h = np.where(first, a, b)
    w = np.where(first, b - a, a - b)
    zero = w == 0
    phi = np.where(zero, 1.0, np.expm1(w) / np.where(zero, 1.0, w))
    k = np.arange(X.shape[-1])
    E[..., k, k] = np.exp(lam)
    E[..., k[:-1], k[1:]] = c * X[..., k[:-1], k[1:]] * np.exp(h) * phi


def semigroup_apply(A: OperatorTuple, u) -> np.ndarray:
    """T(u) = prod_j exp(u_j A_j) for u in the closed positive orthant."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if len(u) != A.n:
        raise ValueError("parameter u must have one component per generator")
    if not np.isfinite(u).all():
        raise ValueError("semigroup parameters must be finite")
    if np.any(u < 0):
        raise ValueError("semigroup parameters must be nonnegative")
    if not np.any(u > 0):
        return np.eye(A.d, dtype=complex)
    if A.spectral is not None:
        return A.spectral.apply(np.exp(A.spectral.joint @ u))
    T = np.eye(A.d, dtype=complex)
    for j in range(A.n):
        if u[j] > 0:
            T = T @ expm(u[j] * A.generators[j])
    return T


def _sampled_bound(g: np.ndarray) -> float:
    # geometric octaves of t, refined until the running sup stops moving.
    # Octave k samples the 8 nodes of [1e-3, 2e-3) times 2^k, so its
    # exponentials are the squares of octave k-1's (the squaring half of
    # scaling and squaring): one stacked expm starts the chain and one
    # stacked product gives each later octave.  Each squaring doubles the
    # relative rounding error the chain started with, so the chain is formed
    # afresh by one more stacked expm at the first octave with
    # t ||g||_1 >= 1, and again after 20 squarings with no expm.  The first
    # rule leaves few squarings to a generator whose sup settles soon after
    # t ||g||_1 = 1.  The second caps the growth at 2^20 where ||g||_1 is no
    # guide: a stiff generator's fast part can make t ||g||_1 >= 1 from the
    # start while a slow part is still near the identity
    ts = np.geomspace(1e-3, 2e-3, 8, endpoint=False)
    norm1 = float(np.abs(g).sum(axis=0).max())
    E = expm(ts[:, None, None] * g)
    fresh, squared = ts[0] * norm1 >= 1.0, 0
    sup, flat = 1.0, 0
    for _ in range(40):
        if squared >= 20 or (not fresh and ts[0] * norm1 >= 1.0):
            E, fresh, squared = expm(ts[:, None, None] * g), True, 0
        # an exponential past the float range has inf or nan entries, on
        # which the SVD would fail: they count as divergence
        octave = float(_norm2(E).max()) if np.isfinite(E).all() else np.inf
        if octave > 1e6:
            raise ValueError("semigroup norms diverge; generator rejected")
        if octave <= sup * (1.0 + 1e-9):
            flat += 1
            if flat >= 3 and octave < 0.5 * sup:
                break
        else:
            sup, flat = octave, 0
        ts, E, squared = 2.0 * ts, E @ E, squared + 1
    # a sampled sup of at most 1 returns exactly 1; only an overshoot gets
    # the 1.01 safety factor.  Neither is certified: a peak between grid
    # nodes goes unseen
    return 1.0 if sup <= 1.0 + 1e-9 else 1.01 * sup


def log_norm(g: np.ndarray) -> float:
    """The logarithmic 2-norm omega = lambda_max((g + g^*)/2).

    ||exp(t g)||_2 <= e^{omega t} for t >= 0, so omega <= 0 makes g the
    generator of a contraction semigroup (Lumer & Phillips, 1961; Soderlind,
    "The logarithmic norm", BIT 2006).
    """
    return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1])


def _bound(g: Optional[np.ndarray], spectral: Optional[SpectralData],
           omega: Optional[float]):
    """(M, kind) with M >= 1 meant to satisfy sup_t ||exp(t g)|| <= M.

    With spectral data M is cond(P), which certifies the bound.  For a
    generator-only tuple, ``omega`` is the logarithmic norm of g: omega <= 0
    gives M = 1, which certifies it too, with no matrix exponential.
    Otherwise M is the sup of ||exp(t g)||_2 sampled on a doubling grid of
    t, which is not certified.  The kind names which of the three applied.
    """
    if spectral is not None:
        return max(1.0, spectral.cond), "spectral"
    if omega <= 0.0:
        return 1.0, "lognorm"
    return _sampled_bound(g), "sampled"


def fourier_modes(K: int, n: int = 1) -> np.ndarray:
    """(2K+1)^n x n joint eigenvalues of the Fourier translation model: the
    tuples (i k_1, ..., i k_n) with every k_j in -K..K."""
    if K < 1:
        raise ValueError("mode cutoff must be at least 1")
    modes = 1j * np.arange(-K, K + 1, dtype=float)
    grids = np.meshgrid(*([modes] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def fourier_translation_model(K: int, n: int = 1) -> OperatorTuple:
    """Diagonal surrogate of the translation tuple on trigonometric
    polynomials: eigenvalues i*k for k = -K..K, tensored over n axes."""
    joint = fourier_modes(K, n)
    d = len(joint)
    gens = [_frozen(np.diag(joint[:, j])) for j in range(n)]
    spec = SpectralData(joint=joint, basis=np.eye(d, dtype=complex))
    return make_tuple(gens, spectral=spec)


def _ray_direction(theta: float) -> complex:
    """e^{i theta}, the direction of the ray e^{i theta}[0, inf).

    theta is read modulo 2 pi and must point into the closed left
    half-plane, cos theta <= 1e-15, else ValueError.  A ray within that of
    the imaginary axis is the vertical ray: its cos is taken as 0.
    """
    theta = float(theta) % (2 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    if not c <= 1e-15:
        raise ValueError("ray must lie in the closed left half-plane")
    return complex(0.0 if abs(c) <= 1e-15 else c, s)


def holomorphy_defect_ray(theta: float) -> float:
    """sup_{rho > 0} |1 - e^{rho e^{i theta}}|, accurate to about 1e-8.

    Dense scan of (0, rho_max] on 20000 nodes, then four rescans of the two
    grid steps around the best node, each on a 201-point grid (a hundredfold
    finer per round).  theta is read by _ray_direction: modulo 2 pi, in the
    closed left half-plane, and a ray within 1e-15 of the imaginary axis is
    the vertical ray, whose defect is 2.
    """
    direction = _ray_direction(theta)
    c, s = direction.real, direction.imag
    # the modulus is at most 1 + e^{c rho}: past the first period 2 pi / |s|
    # nothing beats its value at rho = pi / |s|, and past 21 / |c| it is
    # within e^-21 of 1
    rho_max = min(21.0 / abs(c) if c < 0 else np.inf,
                  2.0 * np.pi / abs(s) if s != 0 else np.inf)
    grid = np.linspace(0.0, rho_max, 20001)[1:]
    best = 0.0
    for _ in range(5):
        vals = np.abs(1.0 - np.exp(grid * direction))
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], 201)
    # the sup at infinity when the scan stopped at 21 / |c|
    return max(best, 1.0 - np.exp(c * rho_max)) if c < 0 else best
