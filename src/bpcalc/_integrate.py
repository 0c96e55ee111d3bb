"""Radial quadrature against structurally represented measures.

Every measure density in this package is a 1-D profile m(r) dr pushed
forward along a ray r -> r*w (axis supports are the special case w = e_j).
Integrals of a scalar- or profile-valued integrand f against such parts
take one route per kind of part near the origin, and share the rest:

  * a part with an exact partial mass (every nu_t) puts a lump, f(0) times
    the mass below a cut ``eps``, with a certified error bound, and
    integrates [eps, split] in v = log r, which turns the origin
    singularity m(r) = O(r^-beta) into a decaying smooth integrand;
  * a part without one (every mu) has an integrand vanishing at the origin:
    below ``eps`` it drops out within the singularity bound, and [eps,
    split] is integrated in tau = r^(2 - beta), against f(r)/r and the log
    density, which stay finite however close beta is to 2;
  * on [split, R] the integrand is integrated in v = log r as well, with R
    chosen from tail-mass bounds and, when available, the exponential decay
    of f; the log scale puts few nodes where f*m is already negligible;
  * beyond R, if f settles to a known limit and the tail mass is exact, the
    settled part is added back in closed form.

Each segment goes to ``_quad``, an adaptive Gauss-Kronrod (G10/K21) driver
with QUADPACK's error estimate and global error control (Piessens et al.,
QUADPACK, 1983).  It returns as soon as the initial panels meet the target
and raises QuadratureError on a non-finite value or estimate.  Its
integrand takes a panel's 21 nodes at once and returns one row per node:
``integrate_radial`` maps them to radii and weighs them by the density in
one array call each, and calls f once per node with a 0-d radius.

The caller supplies the analytic ingredients (Lipschitz coefficient at the
origin, sup bound, decay rate, settle value); this module assembles them into
a value plus a certified error estimate.  ``integrate_measure`` applies that
to a whole measure, atoms plus parts, with one set-up per ray direction:
psi(s), psi(A) and the factorization cofactors W_j against mu, and g_t(A)
against nu_t, all go through it.
"""

from __future__ import annotations

import heapq
import sys

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed to meet its tolerance; carries the achieved estimate."""

    def __init__(self, message: str, error_estimate: float | None = None):
        super().__init__(message)
        self.error_estimate = error_estimate


def _norm(x) -> float:
    # every value is a 0-d or 1-D profile (of the scalar jets of a block
    # basis, or of a point set), whose caller applies the basis, if any,
    # once and bounds the result through the max-norm
    return float(np.max(np.abs(x)))


def _interior_points(hints, lo, hi):
    pts = sorted(float(h) for h in hints if lo < h < hi)
    return pts if pts else None


# The nonnegative half of the 21 Gauss-Kronrod nodes on [-1, 1], decreasing
# (the rule is symmetric), their Kronrod weights, and the 10-point Gauss
# weights of the odd-indexed nodes 0.9739..., ..., 0.1488...
_GK_X = (0.995657163025808080735527280689003,
         0.973906528517171720077964012084452,
         0.930157491355708226001207180059508,
         0.865063366688984510732096688423493,
         0.780817726586416897063717578345042,
         0.679409568299024406234327365114874,
         0.562757134668604683339000099272694,
         0.433395394129247190799265943165784,
         0.294392862701460198131126603103866,
         0.148874338981631210884826001129720,
         0.0)
_GK_WK = (0.011694638867371874278064396062192,
          0.032558162307964727478818972459390,
          0.054755896574351996031381300244580,
          0.075039674810919952767043140916190,
          0.093125454583697605535065465083366,
          0.109387158802297641899210590325805,
          0.123491976262065851077958109831074,
          0.134709217311473325928054001771707,
          0.142775938577060080797094273138717,
          0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_GK_WG = (0.066671344308688137593568809893332,
          0.149451349150580593145776339657697,
          0.219086362515982043995534934228163,
          0.269266719309996355091226921569469,
          0.295524224714752870173892994651338)
_NODES = np.array(_GK_X + tuple(-x for x in _GK_X[-2::-1]))
_KRONROD = np.array(_GK_WK + _GK_WK[-2::-1])
_GAUSS = np.array(_GK_WG + _GK_WG[::-1])
_QUAD_LIMIT = 6000   # most panels one segment may hold
_QUAD_BATCH = 128    # most panels bisected in one round
_R_CAP = 1e8         # largest truncation radius of integrate_radial


def _gk21(f, a, b):
    """One G10/K21 panel: (integral, error estimate, rounding term); f
    takes the 21 nodes as one array and returns one row per node."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.asarray(f(c + h * _NODES))
    shape = (-1,) + (1,) * (fv.ndim - 1)
    # elementwise products summed over the node axis: a BLAS dot here can
    # start a threaded kernel that slows every later small expm
    wk = _KRONROD.reshape(shape)
    s_k = (wk * fv).sum(axis=0)
    s_g = (_GAUSS.reshape(shape) * fv[1::2]).sum(axis=0)
    s_abs = (wk * np.abs(fv)).sum(axis=0)
    s_dabs = (wk * np.abs(fv - 0.5 * s_k)).sum(axis=0)
    err = _norm((s_k - s_g) * h)
    dabs = _norm(s_dabs * h)
    if dabs != 0.0 and err != 0.0:
        err = dabs * min(1.0, (200.0 * err / dabs) ** 1.5)
    rnd = _norm(50.0 * sys.float_info.epsilon * h * s_abs)
    if rnd > sys.float_info.min:
        err = max(err, rnd)
    return h * s_k, err, rnd


def _quad(f, a, b, tol, points=None):
    """Integral of f over [a, b] and its error estimate, by adaptive G10/K21.

    Accuracy is decided as in scipy's quad_vec: QUADPACK's panel estimate,
    global control to max(tol/4, 1e-12 ||I||)/8 on the summed estimate,
    each round bisecting the worst panels until their estimates cover the
    excess, and an exit at the rounding level or at _QUAD_LIMIT panels (the
    caller compares the returned estimate, rounding included, with its
    budget).  Unlike quad_vec, which always bisects once, it tests both
    exits on the initial panels too.  f is called once per panel with the
    array of its 21 nodes and returns one row per node; a non-finite value
    or estimate raises QuadratureError.
    """
    epsabs, epsrel = 0.25 * tol, 1e-12
    edges = [a]
    for p in points or ():
        if p != edges[-1]:
            edges.append(p)
    edges.append(b)
    value, err, rnd, heap = 0.0, 0.0, 0.0, []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ig, e, r = _gk21(f, lo, hi)
        value, err, rnd = value + ig, err + e, rnd + r
        heap.append((-e, lo, hi, ig))
    heapq.heapify(heap)
    while True:
        if not (np.isfinite(err) and np.isfinite(rnd) and np.all(np.isfinite(value))):
            raise QuadratureError(
                "non-finite integrand value or error estimate on [%.6g, %.6g]" % (a, b),
                error_estimate=float("nan"))
        goal = max(epsabs, epsrel * _norm(value)) / 8.0
        if err < goal or err < rnd or len(heap) >= _QUAD_LIMIT:
            return value, float(err + rnd)
        batch, picked = [], 0.0
        while heap and len(batch) < _QUAD_BATCH and (not batch or picked <= err - goal):
            batch.append(heapq.heappop(heap))
            picked -= batch[-1][0]
        for neg_e, lo, hi, ig in batch:
            mid = 0.5 * (lo + hi)
            ig1, e1, r1 = _gk21(f, lo, mid)
            ig2, e2, r2 = _gk21(f, mid, hi)
            value = value + (ig1 + ig2 - ig)
            err += e1 + e2 + neg_e
            rnd += r1 + r2
            heapq.heappush(heap, (-e1, lo, mid, ig1))
            heapq.heappush(heap, (-e2, mid, hi, ig2))


def integrate_radial(f, part, *, f_zero, f_lipschitz, f_sup,
                     f_settle=None, f_decay=0.0, f_far_coeff=None,
                     f_over_r=None, tol=1e-9):
    """Integrate f(r) * m(r) dr over (0, inf) for a 1-D radial profile.

    ``part`` must expose: density(r), log_density(v) (log m(e**v)), beta,
    sing_coeff (m(r) <= sing_coeff * r**-beta for r <= split_radius),
    split_radius, tail_mass(R) (upper bound on the mass beyond R; exact when
    tail_exact), mass_below(r) (exact partial mass or None), hints.

    ``part.mass_below`` alone picks the route below split_radius.  A part
    with an exact partial mass (every nu_t) takes a lump f_zero *
    mass_below(eps) below a cut eps and integrates [eps, split] in
    v = log r.  A part without one (every mu) needs f to vanish at 0 and
    f_over_r to be given; [eps, split] is integrated in tau = r**(2 - beta),
    with eps set by the singularity bound.

    f bounds, all valid on the stated ranges:
      f_zero        limit of f at 0+  (used with exact partial masses);
      f_lipschitz   L with ||f(r) - f_zero|| <= L*r on (0, split];
      f_sup         global bound on ||f|| over (0, inf);
      f_settle      limit of f at infinity, or None if unknown;
      f_decay       gamma >= 0 with ||f(r) - settle|| <= f_far_coeff *
                    exp(-gamma*r) for r >= split (settle read as 0 if None);
                    0 when no such bound is known;
      f_far_coeff   coefficient of that decay bound, read when f_decay > 0;
      f_over_r      stable evaluation of f(r)/r, required without
                    part.mass_below; it must return the r -> 0 limit once r
                    is subnormal-small (below ~1e-250), where a literal
                    quotient loses precision.  With part.log_density it keeps
                    the inner segment finite for beta close to 2, where
                    density(r) itself overflows.

    Every bound and the error estimate use the max-norm.  f and f_over_r
    are called once per quadrature node with a 0-d radius; the change of
    variables and the density weight of a panel's nodes are one array call
    each, so part.density and part.log_density take arrays.

    Returns (value, error_estimate).
    """
    split = float(part.split_radius)
    b_log = np.log(split)
    budget = tol / 4.0
    m = part.density
    err_total = 0.0
    settle_norm = 0.0 if f_settle is None else _norm(f_settle)

    def rows(fn, r, weight):
        # one call of fn per node, each with a 0-d r, times its weight
        vals = np.array([fn(x) for x in r])
        return vals * weight.reshape((-1,) + (1,) * (vals.ndim - 1))

    def g_log(v):
        # f * m dr in v = log r
        r = np.exp(v)
        return rows(f, r, m(r) * r)

    def log_hints(lo, hi):
        return _interior_points((np.log(h) for h in part.hints if h > 0), lo, hi)

    # ----- inner segment, below split -----
    if part.mass_below is not None:
        # a lump below eps, then [eps, split] in v = log r
        eps = split if f_lipschitz <= 0 else min(split, max(budget / f_lipschitz, 1e-300))
        lump_mass = float(part.mass_below(eps))
        # mass_below is exact by contract, so the lump's only error is the
        # variation of f below eps: int_0^eps ||f - f0|| m <= L*eps*mass.
        value = f_zero * lump_mass
        if f_lipschitz > 0:
            err_total += f_lipschitz * eps * lump_mass
        log_eps = np.log(eps)
        g, lo, hi, pts = g_log, log_eps, b_log, log_hints(log_eps, b_log)
    else:
        if f_over_r is None:
            raise ValueError("a part without an exact partial mass needs f_over_r")
        if _norm(f_zero) > 1e-300:
            raise ValueError("integrand must vanish at 0 when no exact partial mass is available")
        p_exp = 2.0 - part.beta
        coeff = f_lipschitz * part.sing_coeff
        log_eps = b_log
        if coeff > 0:
            log_eps = min(np.log(budget * p_exp / coeff) / p_exp, b_log)
            err_total += coeff * np.exp(p_exp * log_eps) / p_exp
        value = 0.0 * f_zero if np.ndim(f_zero) else 0.0
        # substitute tau = r**(2 - beta): the image interval is short and
        # the integrand f/r * m*r*r/tau stays bounded however close beta
        # is to 2.  f_over_r must return the r -> 0 limit when r
        # underflows to 0.0.
        lo, hi = max(np.exp(p_exp * log_eps), 5e-324), np.exp(p_exp * b_log)
        pts = _interior_points(
            (np.exp(p_exp * np.log(h)) for h in part.hints if h > 0), lo, hi)
        logm = part.log_density

        def g(t):
            v = np.log(t) / p_exp
            return rows(f_over_r, np.exp(v),
                        np.exp(logm(v) + 2.0 * v - np.log(t)) / p_exp)

    if log_eps < b_log - 1e-14:
        seg, err = _quad(g, lo, hi, tol, points=pts)
        value = value + seg
        err_total += err

    # ----- outer truncation radius -----
    tail_at_split = float(part.tail_mass(split))
    settle_usable = f_settle is not None and (settle_norm == 0.0 or part.tail_exact)
    flat_coeff = (f_sup + settle_norm) if settle_usable else f_sup
    # the decay bound speaks about f - settle, so it only certifies the tail
    # when the settle correction is actually applied (or settle is zero)
    far_usable = f_decay > 0.0 and (settle_usable or f_settle is None)

    def tail_err(R):
        bounds = [flat_coeff * part.tail_mass(R)]
        if far_usable:
            bounds.append(f_far_coeff * np.exp(-f_decay * R) * part.tail_mass(R))
        return min(bounds)

    R = max(split, *[2.0 * h for h in part.hints]) if part.hints else split
    if far_usable:
        # direct solve from the decay bound, then let the loop confirm
        need = f_far_coeff * max(tail_at_split, 1e-300) / max(budget, 1e-300)
        if need > 1.0:
            R = max(R, np.log(need) / f_decay)
    while tail_err(R) > budget:
        R *= 2.0
        if R > _R_CAP:
            raise QuadratureError(
                "radial tail not resolvable to tolerance %.3g (remaining bound %.3g at R=%.3g)"
                % (tol, tail_err(R / 2.0), R / 2.0),
                error_estimate=tail_err(R / 2.0))
    err_total += tail_err(R)

    # ----- outer segment [split, R], in v = log r -----
    if R > split * (1.0 + 1e-14):
        log_R = np.log(R)
        seg, err = _quad(g_log, b_log, log_R, tol, points=log_hints(b_log, log_R))
        value = value + seg
        err_total += err

    # ----- settled tail beyond R -----
    if settle_usable and settle_norm > 0.0:
        value = value + f_settle * float(part.tail_mass(R))

    return value, err_total


def integrate_measure(base, measure, part_setup, tol):
    """base + sum_atoms mass * f(radius) + sum_parts int f dpart.

    ``part_setup(direction)`` returns, for the ray along ``direction``,
    (f, kwargs of integrate_radial other than tol, lift): f a function of
    the radius and lift mapping its values into the space of ``base``; or
    None when the ray contributes nothing.  It is called once per direction.
    The atoms of one direction add mass * f(radius) in order, starting from
    0.0, and their sum is lifted once; atoms come before density parts.
    Each part gets ``tol / len(parts)``; QuadratureError is raised when the
    summed error estimate exceeds 4 * tol, ValueError when tol is not a
    finite positive number.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    setups, sums = {}, {}

    def setup(w):
        key = w.tobytes()
        if key not in setups:
            setups[key] = part_setup(w)
        return key, setups[key]

    for a in measure.atoms:
        key, ray = setup(a.direction)
        if ray is not None:
            sums[key] = sums.get(key, 0.0) + a.mass * ray[0](a.radius)
    value = base
    for key, total in sums.items():
        value = value + setups[key][2](total)
    parts = measure.parts
    err_total = 0.0
    for p in parts:
        _, ray = setup(p.direction)
        if ray is None:
            continue
        f, kw, lift = ray
        val, err = integrate_radial(f, p, tol=tol / len(parts), **kw)
        value = value + lift(val)
        err_total += err
    if err_total > 4.0 * tol:
        raise QuadratureError(
            "measure quadrature did not converge (achieved %.3g, wanted %.3g)"
            % (err_total, tol), error_estimate=err_total)
    return value


def integrate_orthant(part, f, *, f_sup, tol=1e-9, r_cap=1e5):
    """Nested quadrature for a bounded full-orthant density in dimension 2.

    ``part`` exposes: n (== 2), density(u) on the open orthant, axis_tail[j]
    (upper bound on the mass of the region {u_j > R}), hints.  The density
    must be bounded near the origin; singular orthant densities are outside
    the supported structural catalog.
    """
    if part.n != 2:
        raise NotImplementedError("orthant densities are supported for n = 2 only")
    budget = tol / 4.0
    radii = []
    for j in range(2):
        R = 1.0
        while f_sup * part.axis_tail[j](R) > budget / 2.0:
            R *= 2.0
            if R > r_cap:
                raise QuadratureError(
                    "orthant tail not resolvable along axis %d" % j,
                    error_estimate=f_sup * part.axis_tail[j](R / 2.0))
        radii.append(R)
    err_tail = f_sup * (part.axis_tail[0](radii[0]) + part.axis_tail[1](radii[1]))

    inner_tol = tol / (4.0 * max(1.0, radii[1]))
    pts0 = _interior_points(part.hints, 0.0, radii[0])

    def outer(u2):
        val, _ = _quad(lambda u1s: np.array([f(np.array([u1, u2])) * part.density(
            np.array([u1, u2])) for u1 in u1s]), 0.0, radii[0], inner_tol, points=pts0)
        return val

    pts1 = _interior_points(part.hints, 0.0, radii[1])
    value, err = _quad(lambda u2s: np.array([outer(u2) for u2 in u2s]),
                       0.0, radii[1], tol, points=pts1)
    return value, err + err_tail


def composite_gauss(f, a: float, b: float, panels: int, order: int = 24):
    """Fixed composite Gauss-Legendre rule for smooth matrix-valued integrands.

    Used for integrals of products of matrix exponentials over a bounded
    interval, where the integrand is entire and a fixed high-order rule on
    unit-scale panels reaches machine precision.
    """
    if b <= a:
        shape = np.shape(f(a))
        return np.zeros(shape, dtype=complex) if shape else 0.0 + 0.0j
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = None
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            term = (half * w) * f(mid + half * x)
            total = term if total is None else total + term
    return total
