"""Negative Bernstein functions of n variables via their Levy triples.

A member of the class handled here is a nonpositive smooth function psi on
(-inf, 0)^n whose first-order partial derivatives are absolutely monotone.
Every such function has the representation

    psi(s) = c0 + c1 . s + int_{R+^n \\ {0}} (e^{s.u} - 1) dmu(u)

with c0 <= 0, c1 in R+^n, and a positive measure mu integrating min(|u|, 1).
This module stores the triple (c0, c1, mu) structurally (atoms plus
parametric ray/axis densities, never sampled arrays) together with the
facts every member states: its closed form, which partials stay finite at
-0, and whether it is bounded.  ``eval_psi`` evaluates the closed form;
``eval_via_levy``, quadrature of the representation, is the independent
route the tests compare it with.  New members come from two rules: the
conic combination sum_i a_i psi_i, and the pullback psi(L^T s) along a
nonnegative matrix L, which pushes mu and every nu_t forward along
u -> L u.  A diagonal lift is the pullback along one weight column; a
direct sum is the cone, with weights 1, of its members' pullbacks along the
coordinate embeddings.  Each constructor attaches the closed-form
subordination family nu_t where one is known; ``CATALOG`` declares every
member once for string-id construction.  A family is a flat list of factors
(a, measure_at), and nu_t is the convolution of the measures measure_at(a t),
each a ``LevyMeasure`` as mu is, with atoms on rays (mass at the origin an
atom of radius 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import (erf, erfc, exp1, gamma as gamma_fn, gammainc,
                           gammaincc, gammaln)

from ._integrate import QuadratureError

__all__ = [
    "Atom", "RadialDensity", "LevyMeasure",
    "BernsteinFunction", "SubordinatorFamily",
    "fractional_power", "poisson", "log1m", "linear",
    "cone_combine", "direct_sum", "diagonal_lift",
    "eval_psi", "eval_via_levy",
    "catalog_ids", "QuadratureError",
]

_RE_TOL = 1e-12   # slack allowed past the closed left half-space boundary
_POISSON_CAP = 10000   # largest atom index of a Poisson nu_t


class DimensionMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# measure structure


@dataclass(frozen=True, eq=False)
class Atom:
    """Point mass at ``radius * direction`` in R+^n.

    ``Atom(location, mass)`` is the point mass at ``location``, radius 1.
    Atoms on one direction share one ray in ``integrate_measure``.  Radius
    0 is the origin, where T(0) = I on every ray; only a subordination
    measure nu_t puts mass there.
    """

    direction: np.ndarray
    mass: float
    radius: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", w)
        if not np.isfinite(self.mass):
            raise ValueError("atom mass must be finite")
        if self.mass <= 0:
            raise ValueError("atom mass must be positive")
        if not np.isfinite(w).all():
            raise ValueError("atom location must be finite")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("atom location must lie in R+^n away from 0")
        if not 0 <= self.radius < np.inf:
            raise ValueError("atom radius must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class RadialDensity:
    """Pushforward of m(r) dr on (0, inf) along r -> r*direction.

    ``beta`` and ``sing_coeff`` certify
    m(r) <= sing_coeff * r**-beta for r <= split_radius with beta < 2;
    ``tail_mass`` bounds the mass beyond R (exact when ``tail_exact``);
    ``mass_below`` is the exact partial mass when a closed form exists (every
    nu_t has one, no mu does); it picks the quadrature route near the origin.
    ``log_density`` maps v = log r to log m(e**v); it lets quadrature work
    below the radius where density itself would overflow (beta close to 2).
    ``density`` and ``log_density`` act elementwise on an array of radii
    (of log radii): quadrature weighs the nodes of a panel in one call.
    """

    direction: np.ndarray
    density: Callable[[np.ndarray], np.ndarray]
    log_density: Callable[[np.ndarray], np.ndarray]
    beta: float
    sing_coeff: float
    tail_mass: Callable[[float], float]
    tail_exact: bool = False
    mass_below: Optional[Callable[[float], float]] = None
    hints: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", w)
        if not np.isfinite(w).all():
            raise ValueError("direction entries must be finite")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("direction must be nonzero with nonnegative entries")
        if not (np.isfinite(self.beta) and np.isfinite(self.sing_coeff)):
            raise ValueError("beta and sing_coeff must be finite")
        if self.beta >= 2:
            raise ValueError("origin singularity exponent must satisfy beta < 2")

    @property
    def split_radius(self) -> float:
        # the |u| = 1 sphere in the ray parameter
        return 1.0 / float(np.linalg.norm(self.direction))

    def scaled(self, a: float) -> "RadialDensity":
        assert a > 0
        dens, tail = self.density, self.tail_mass
        below, logm = self.mass_below, self.log_density
        return replace(
            self,
            density=lambda r, _m=dens: a * _m(r),
            sing_coeff=a * self.sing_coeff,
            tail_mass=lambda R, _t=tail: a * _t(R),
            mass_below=None if below is None else (lambda r, _b=below: a * _b(r)),
            log_density=lambda v, _g=logm: np.log(a) + _g(v),
        )


class LevyMeasure:
    """Structural measure on R+^n: atoms plus parametric density parts.

    It models both the jump measure mu of a triple and the subordination
    measures nu_t, which may put an atom at the origin.
    """

    def __init__(self, n: int, atoms: Sequence[Atom] = (), parts: Sequence = ()):
        self.n = int(n)
        self.atoms = tuple(atoms)
        self.parts = tuple(parts)
        for a in self.atoms:
            if len(a.direction) != self.n:
                raise DimensionMismatchError("atom dimension mismatch")
        for p in self.parts:
            if not isinstance(p, RadialDensity):
                raise TypeError("density parts must be RadialDensity, got %s"
                                % type(p).__name__)
            if len(p.direction) != self.n:
                raise DimensionMismatchError("density part dimension mismatch")


# ---------------------------------------------------------------------------
# subordination measures nu_t


@dataclass(frozen=True, eq=False)
class SubordinatorFamily:
    """Closed-form family of the measures nu_t with Laplace transform
    e^{t psi}, attached to a catalog member.

    ``factors`` holds pairs (a, measure_at), each ``measure_at(t)`` a
    ``LevyMeasure``, and nu_t is the convolution of the measures
    measure_at(a t).  A catalog leaf is one factor with a = 1; the family of
    sum_i a_i psi_i takes the factors of every psi_i with a scaled by a_i,
    since e^{t sum_i a_i psi_i} = prod_i e^{(a_i t) psi_i}.
    """

    factors: tuple


def _mapped(mu: LevyMeasure, L: np.ndarray) -> LevyMeasure:
    """The pushforward of mu by u -> L u: directions map, while radii,
    masses and radial profiles stay."""
    return LevyMeasure(
        len(L), atoms=[Atom(L @ a.direction, a.mass, a.radius) for a in mu.atoms],
        parts=[replace(p, direction=L @ p.direction) for p in mu.parts])


def _poisson_measure(t: float) -> LevyMeasure:
    """nu_t of Poisson: atoms at k = 0, 1, ... with weights e^{-t} t^k / k!
    up to mass 1 - 1e-12, the one at k = 0 of radius 0.

    Past t ~ 708, where e^{-t} is no normal float, the recurrence starts at
    the first k with a normal weight, taken from its logarithm, and runs
    until the weights past k = t are negligible; the sum is then normalized
    to 1, since log weights of size ~t round to about 1e-12 relative.
    """
    k, term, tiny = 0, float(np.exp(-t)), np.finfo(float).tiny
    scaled = term < tiny
    if scaled:
        ks = np.arange(_POISSON_CAP + 1.0)
        log_w = ks * np.log(t) - t - gammaln(ks + 1.0)
        k = int(np.argmax(log_w >= np.log(tiny)))
        term = float(np.exp(log_w[k]))
    atoms, mass = [], 0.0
    while (k <= t or term > 1e-17 * mass) if scaled else mass < 1.0 - 1e-12:
        if k > _POISSON_CAP:
            raise ValueError("Poisson weights at t = %g need more than %d atoms"
                             % (t, _POISSON_CAP))
        atoms.append((k, term))
        mass += term
        k += 1
        term *= t / k
    axis = np.ones(1)
    return LevyMeasure(1, atoms=[Atom(axis, w / mass if scaled else w, float(k))
                                 for k, w in atoms])


def _smirnov_measure(t: float) -> LevyMeasure:
    """nu_t of -(-s)^(1/2): the Levy-Smirnov density."""
    c = t / (2.0 * np.sqrt(np.pi))
    return LevyMeasure(1, parts=[RadialDensity(
        direction=np.array([1.0]),
        density=lambda r: c * r ** -1.5 * np.exp(-t * t / (4.0 * r)),
        beta=1.5,
        sing_coeff=c,
        tail_mass=lambda R: float(erf(t / (2.0 * np.sqrt(R)))),
        tail_exact=True,
        mass_below=lambda r: float(erfc(t / (2.0 * np.sqrt(r)))),
        log_density=lambda v: np.log(c) - 1.5 * v - 0.25 * t * t * np.exp(-v),
        hints=(t * t / 6.0, t * t),
    )])


def _gamma_measure(t: float) -> LevyMeasure:
    """nu_t of -log(1 - s): the Gamma(t, 1) density."""
    return LevyMeasure(1, parts=[RadialDensity(
        direction=np.array([1.0]),
        density=lambda r: np.exp((t - 1.0) * np.log(r) - r - gammaln(t)),
        beta=max(0.0, 1.0 - t),
        sing_coeff=float(np.exp(-gammaln(t))),
        tail_mass=lambda R: float(gammaincc(t, R)),
        tail_exact=True,
        mass_below=lambda r: float(gammainc(t, r)),
        log_density=lambda v: (t - 1.0) * v - np.exp(v) - float(gammaln(t)),
        hints=(max(t - 1.0, 0.5 * t),),
    )])


# ---------------------------------------------------------------------------
# Bernstein functions


@dataclass(frozen=True, eq=False)
class BernsteinFunction:
    """Levy triple (c0, c1, mu) with the facts every member states.

    ``closed_form`` evaluates psi(s) for Re s <= 0 (continuous up to the
    boundary).  It takes the points coordinate-first: an array whose row j
    holds s_j, of shape (n, m) for m points, and returns psi at each column,
    shape (m,) or anything that broadcasts to it.  It must act elementwise
    over the trailing axes, so that one point and a set give the same bits;
    ``eval_psi`` always calls it this way, a single point as m = 1.
    ``partials_finite[j]`` states whether d psi / d s_j remains finite as
    s -> -0, and ``bounded`` whether psi is bounded on (-inf, 0)^n.  These
    three are required: every catalog member knows them, and the cone and
    the pullback keep them.  ``subordinator`` is the closed-form family of
    measures nu_t with Laplace transform e^{t psi}, or None where none is
    known.
    """

    n: int
    c0: float
    c1: np.ndarray
    measure: LevyMeasure
    closed_form: Callable
    partials_finite: tuple
    bounded: bool
    subordinator: Optional[SubordinatorFamily] = None

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=float)
        object.__setattr__(self, "c1", c1)
        if not callable(self.closed_form):
            raise TypeError("closed_form must be callable")
        if len(self.partials_finite) != self.n:
            raise DimensionMismatchError(
                "partials_finite must have one entry per variable")
        if not all(isinstance(f, bool) for f in (self.bounded, *self.partials_finite)):
            raise TypeError("bounded and each entry of partials_finite must be a bool")
        if not (np.isfinite(self.c0) and np.isfinite(c1).all()):
            raise ValueError("c0 and c1 must be finite")
        if self.c0 > _RE_TOL:
            raise ValueError("c0 must be <= 0")
        if c1.shape != (self.n,):
            raise DimensionMismatchError("c1 must have one entry per variable")
        if np.any(c1 < 0):
            raise ValueError("drift vector c1 must be nonnegative")
        if self.measure.n != self.n:
            raise DimensionMismatchError("measure dimension mismatch")

    def __call__(self, s):
        return eval_psi(self, s)


def _points(psi: BernsteinFunction, s):
    """(S, single): s as an (m, n) complex point set, with ``single`` set
    when s was one point of shape (n,).  Shape, finiteness and Re s_j <= 0
    are checked here, once for the whole set."""
    S = np.asarray(s)
    single = S.ndim == 1
    if S.ndim > 2 or S.shape[-1:] != (psi.n,):
        raise DimensionMismatchError(
            "psi takes %d variables, got argument of shape %s" % (psi.n, S.shape))
    S = S.reshape(-1, psi.n).astype(complex)
    if not np.isfinite(S).all():
        raise ValueError("arguments must be finite")
    if (S.real > _RE_TOL).any():
        raise ValueError("arguments must satisfy Re s_j <= 0")
    return S, single


def _maybe_real(value: complex, s: np.ndarray):
    if not s.imag.any():
        return float(np.real(value))
    return complex(value)


def eval_psi(psi: BernsteinFunction, s):
    """Evaluate psi at s (Re s_j <= 0) by its closed form.

    ``s`` is one point of shape (n,), which gives a float (real s) or a
    complex, or a point set of shape (m, n), which gives a complex array of
    length m.  The closed form runs once on the whole set.
    """
    S, single = _points(psi, s)
    vals = np.empty(len(S), dtype=complex)
    vals[...] = psi.closed_form(S.T)
    if single:
        return _maybe_real(vals[0], S[0])
    return vals


def eval_via_levy(psi: BernsteinFunction, s, tol: float = 1e-9):
    """Evaluate psi at s by quadrature of its representation.

    The representation-consistency oracle against closed forms: apply_psi's
    profile route on the 1 x 1 diagonal tuple diag(s), with c0 + c1.s exact
    and (e^{s.u} - 1) integrated against each part with certified error.

    Arguments with Re(s.direction) = 0 on a part of infinite mass have a
    purely oscillatory tail; no cancellation-aware bound is attempted, so
    such points raise QuadratureError rather than return a value.
    """
    S, single = _points(psi, s)
    if not single:
        raise DimensionMismatchError("eval_via_levy takes one point of shape (%d,)"
                                     % psi.n)
    # calculus imports this module, so the import waits for the call
    from .calculus import _Profiles, _psi_integral
    return _maybe_real(_psi_integral(psi, _Profiles(S), tol)[0], S[0])


# ---------------------------------------------------------------------------
# catalog


def _dot(w, s):
    """sum_j w_j s_j over the coordinate axis of s, elementwise in the rest.

    Written out term by term rather than as np.dot, whose BLAS kernels
    round differently for one point and for a set.
    """
    out = w[0] * s[0]
    for j in range(1, len(w)):
        out = out + w[j] * s[j]
    return out


def fractional_power(alpha: float) -> BernsteinFunction:
    """psi(s) = -(-s)**alpha on one variable, 0 < alpha <= 1.

    For alpha < 1 the triple is pure jump with the stable density
    alpha/Gamma(1-alpha) * u**(-1-alpha); alpha = 1 is ``linear([1.0])``.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("fractional_power requires alpha in (0, 1]")
    if alpha == 1.0:
        return linear([1.0])

    coeff = alpha / gamma_fn(1.0 - alpha)
    part = RadialDensity(
        direction=np.array([1.0]),
        density=lambda r: coeff * r ** (-1.0 - alpha),
        beta=1.0 + alpha,
        sing_coeff=coeff,
        tail_mass=lambda R: R ** (-alpha) / gamma_fn(1.0 - alpha),
        tail_exact=True,
        mass_below=None,
        log_density=lambda v: np.log(coeff) - (1.0 + alpha) * v,
    )
    family = None
    if alpha == 0.5:
        family = SubordinatorFamily(((1.0, _smirnov_measure),))
    return BernsteinFunction(
        n=1, c0=0.0, c1=np.array([0.0]), measure=LevyMeasure(1, parts=[part]),
        closed_form=lambda s: -np.power(-s[0], alpha), subordinator=family,
        partials_finite=(False,), bounded=False)


def poisson() -> BernsteinFunction:
    """psi(s) = e^s - 1: the unit atom at u = 1."""
    return BernsteinFunction(
        n=1, c0=0.0, c1=np.array([0.0]),
        measure=LevyMeasure(1, atoms=[Atom(np.array([1.0]), 1.0)]),
        closed_form=lambda s: np.exp(s[0]) - 1.0,
        subordinator=SubordinatorFamily(((1.0, _poisson_measure),)),
        partials_finite=(True,), bounded=True)


def log1m() -> BernsteinFunction:
    """psi(s) = -log(1 - s), with jump density e^{-u}/u (a Frullani integral)."""
    part = RadialDensity(
        direction=np.array([1.0]),
        density=lambda r: np.exp(-r) / r,
        beta=1.0,
        sing_coeff=1.0,
        tail_mass=lambda R: float(exp1(R)),
        tail_exact=True,
        mass_below=None,
        log_density=lambda v: -np.exp(v) - v,
    )
    return BernsteinFunction(
        n=1, c0=0.0, c1=np.array([0.0]), measure=LevyMeasure(1, parts=[part]),
        closed_form=lambda s: -np.log(1.0 - s[0]),
        subordinator=SubordinatorFamily(((1.0, _gamma_measure),)),
        partials_finite=(True,), bounded=False)


def linear(c1) -> BernsteinFunction:
    """psi(s) = c1 . s, the pure drift member (any dimension)."""
    c1 = np.atleast_1d(np.asarray(c1, dtype=float))
    n = len(c1)
    return BernsteinFunction(
        n=n, c0=0.0, c1=c1, measure=LevyMeasure(n),
        closed_form=lambda s: _dot(c1, s),
        # nu_t is the unit point mass at t * c1, on the ray along c1
        subordinator=SubordinatorFamily(((1.0, lambda t: LevyMeasure(n, atoms=[
            Atom(c1, 1.0, t) if c1.any() else Atom(np.ones(n), 1.0, 0.0)])),)),
        partials_finite=(True,) * n, bounded=bool(np.all(c1 == 0)))


def cone_combine(terms: Sequence) -> BernsteinFunction:
    """Nonnegative linear combination sum_i a_i psi_i (the class is a cone)."""
    terms = [(float(a), p) for a, p in terms]
    if not terms:
        raise ValueError("cone_combine needs at least one term")
    if not all(0.0 <= a < np.inf for a, _ in terms):
        raise ValueError("cone coefficients must be finite and nonnegative")
    n = terms[0][1].n
    if any(p.n != n for _, p in terms):
        raise DimensionMismatchError("cone_combine terms must share dimension")
    live = [(a, p) for a, p in terms if a > 0]
    if not live:
        return linear(np.zeros(n))

    c0 = sum(a * p.c0 for a, p in live)
    c1 = sum(a * p.c1 for a, p in live)
    atoms = [Atom(at.direction, a * at.mass, at.radius)
             for a, p in live for at in p.measure.atoms]
    parts = [pt.scaled(a) for a, p in live for pt in p.measure.parts]

    forms = tuple((a, p.closed_form) for a, p in live)

    def closed(s):
        return sum(a * f(s) for a, f in forms)

    family = None
    if all(p.subordinator is not None for _, p in live):
        # e^{t sum a_i psi_i} = prod e^{(a_i t) psi_i}: every term's factors
        family = SubordinatorFamily(tuple(
            (a * b, m) for a, p in live for b, m in p.subordinator.factors))

    return BernsteinFunction(
        n=n, c0=float(c0), c1=np.asarray(c1, dtype=float),
        measure=LevyMeasure(n, atoms=atoms, parts=parts),
        closed_form=closed,
        partials_finite=tuple(all(p.partials_finite[j] for _, p in live)
                              for j in range(n)),
        bounded=all(p.bounded for _, p in live), subordinator=family)


def _pullback(psi: BernsteinFunction, L: np.ndarray) -> BernsteinFunction:
    """psi(L^T s) for a nonnegative (n, psi.n) matrix L.

    c1 maps to L c1, and mu and every nu_t push forward along u -> L u;
    s_j has a finite partial when every variable it feeds does, and the
    pullback is bounded when psi is.
    """
    f = psi.closed_form

    def closed(s):
        return f(np.array([_dot(col, s) for col in L.T]))

    family = None if psi.subordinator is None else SubordinatorFamily(tuple(
        (a, lambda t, _m=m: _mapped(_m(t), L)) for a, m in psi.subordinator.factors))
    return BernsteinFunction(
        n=len(L), c0=psi.c0, c1=L @ psi.c1, measure=_mapped(psi.measure, L),
        closed_form=closed,
        partials_finite=tuple(all(psi.partials_finite[i]
                                  for i in np.flatnonzero(row)) for row in L),
        bounded=psi.bounded, subordinator=family)


def direct_sum(psi1: BernsteinFunction, psi2: BernsteinFunction) -> BernsteinFunction:
    """psi(s) = psi1(s_1..s_m) + psi2(s_{m+1}..s_{m+k}).

    The cone combination, with weights 1, of the pullbacks of psi1 and psi2
    along the embeddings of their coordinate subspaces: psi1's measure gets
    trailing zeros, psi2's leading zeros, and nu_t is the convolution of
    the two embedded families.
    """
    m = psi1.n
    eye = np.eye(m + psi2.n)
    return cone_combine([(1.0, _pullback(psi1, eye[:, :m])),
                         (1.0, _pullback(psi2, eye[:, m:]))])


def diagonal_lift(phi: BernsteinFunction, w) -> BernsteinFunction:
    """psi(s) = phi(w . s) for a 1-variable phi and weight vector w >= 0.

    The pullback of phi along w: the measure, and each nu_t, is the
    pushforward of phi's along u -> u w, a genuine diagonal-ray measure
    when w has two or more positive entries.
    """
    if phi.n != 1:
        raise DimensionMismatchError("diagonal_lift lifts one-variable functions")
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or not np.isfinite(w).all() or np.any(w < 0) or not np.any(w > 0):
        raise ValueError("weight vector must be finite and nonzero with "
                         "nonnegative entries")
    return _pullback(phi, w[:, None])


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog member.

    ``build(value, children)`` makes the function from the value of its one
    optional parameter ``param`` (None when it takes none) and its child
    functions.  ``kind`` is "number" or "list" (of numbers); ``default`` is
    used when the parameter is absent (None: the parameter is required).
    ``children`` is the child count, or "per_coefficient" for one child per
    entry of the parameter list.
    """

    build: Callable
    help: str
    param: Optional[str] = None
    kind: Optional[str] = None
    default: object = None
    children: object = 0

    def child_count(self, value) -> int:
        return len(value) if self.children == "per_coefficient" else self.children


CATALOG = {
    "fractional_power": CatalogEntry(
        lambda alpha, kids: fractional_power(alpha),
        "parameters {alpha}, 0 < alpha <= 1", param="alpha", kind="number"),
    "poisson": CatalogEntry(lambda value, kids: poisson(), "no parameters"),
    "log1m": CatalogEntry(lambda value, kids: log1m(), "no parameters"),
    "linear": CatalogEntry(
        lambda c1, kids: linear(c1),
        "parameters {c1: [..]}, nonnegative drift",
        param="c1", kind="list", default=(1.0,)),
    "diagonal_lift": CatalogEntry(
        lambda w, kids: diagonal_lift(kids[0], w),
        "parameters {w: [..]}, children [phi]",
        param="w", kind="list", children=1),
    "direct_sum": CatalogEntry(
        lambda value, kids: direct_sum(*kids), "children [psi1, psi2]",
        children=2),
    "cone_combination": CatalogEntry(
        lambda coeffs, kids: cone_combine(list(zip(coeffs, kids))),
        "parameters {coefficients: [..]}, children [..]",
        param="coefficients", kind="list", children="per_coefficient"),
}


def catalog_ids() -> tuple:
    """Identifiers addressable by string id + parameter map."""
    return tuple(CATALOG)


def build_catalog(catalog_id: str, params: dict,
                  children: Sequence = ()) -> BernsteinFunction:
    """Instantiate a catalog member from its id, parameter map and children.

    Raises KeyError for an unknown id and ValueError for an unknown or
    missing parameter or a wrong number of children.
    """
    if catalog_id not in CATALOG:
        raise KeyError("unknown catalog id %r" % catalog_id)
    entry = CATALOG[catalog_id]
    for key in params:
        if key != entry.param:
            raise ValueError("%r takes no parameter %r" % (catalog_id, key))
    value = params.get(entry.param, entry.default)
    if entry.param is not None and value is None:
        raise ValueError("%r needs parameter %r" % (catalog_id, entry.param))
    want = entry.child_count(value)
    if len(children) != want:
        raise ValueError("%r takes exactly %d children" % (catalog_id, want))
    return entry.build(value, tuple(children))
