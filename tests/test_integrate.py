"""The adaptive Gauss-Kronrod driver and the radial measure driver."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import bpcalc._integrate as integ
from bpcalc._integrate import (QuadratureError, _gk21, _quad, integrate_measure,
                               integrate_orthant)
from bpcalc.bernstein import log1m
from bpcalc.calculus import apply_psi
from bpcalc.semigroup import make_jordan_polynomial

_M = np.array([[-2.0, 0.7, 0.0], [0.0, -1.0, 0.4], [0.3, 0.0, -3.0]])
# integrands of _quad: an array of nodes in, one row per node out
INTEGRANDS = {
    "scalar": (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 10.0),
    "complex": (lambda x: np.exp((-0.05 + 5j) * x), 0.0, 30.0),
    "profile": (lambda x: np.exp(-np.multiply.outer(x, np.arange(1.0, 7.0)))
                * np.multiply.outer(x ** 0.3, np.ones(6)), 0.0, 5.0),
    "matrix": (lambda x: np.array([expm(u * _M) - np.eye(3) for u in x]), 0.0, 8.0),
}


def _at(f):
    """f at one node, as quad_vec calls it."""
    return lambda x: f(np.array([x]))[0]


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("points", [None, [0.7, 2.5]])
@pytest.mark.parametrize("tol", [1e-6, 1e-11])
def test_driver_agrees_with_quad_vec(name, points, tol):
    f, a, b = INTEGRANDS[name]
    value, err = _quad(f, a, b, tol, points=points)
    ref, ref_err = quad_vec(_at(f), a, b, epsabs=0.25 * tol, epsrel=1e-12,
                            norm="max", points=points, limit=6000)
    assert np.shape(value) == np.shape(ref)
    assert np.max(np.abs(np.asarray(value) - np.asarray(ref))) <= err + ref_err
    assert err <= tol


def test_driver_accepts_initial_panel_and_counts_nodes():
    # a cubic is exact under K21, so the first panel meets the target and
    # _quad returns after one call with the panel's 21 nodes
    seen = []

    def f(x):
        seen.append(np.shape(x))
        return x ** 3

    value, err = _quad(f, 0.0, 2.0, 1e-10)
    assert value == pytest.approx(4.0, rel=1e-14)
    assert seen == [(21,)]
    assert err < 1e-12


def _gk21_per_node(f, a, b):
    """The G10/K21 panel with f called at one node at a time."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.array([f(c + h * x) for x in integ._NODES])
    shape = (-1,) + (1,) * (fv.ndim - 1)
    wk = integ._KRONROD.reshape(shape)
    s_k = (wk * fv).sum(axis=0)
    s_g = (integ._GAUSS.reshape(shape) * fv[1::2]).sum(axis=0)
    s_abs = (wk * np.abs(fv)).sum(axis=0)
    s_dabs = (wk * np.abs(fv - 0.5 * s_k)).sum(axis=0)
    err = integ._norm((s_k - s_g) * h)
    dabs = integ._norm(s_dabs * h)
    if dabs != 0.0 and err != 0.0:
        err = dabs * min(1.0, (200.0 * err / dabs) ** 1.5)
    rnd = integ._norm(50.0 * np.finfo(float).eps * h * s_abs)
    if rnd > np.finfo(float).tiny:
        err = max(err, rnd)
    return h * s_k, err, rnd


@pytest.mark.parametrize("name", ["scalar", "profile", "matrix"])
def test_panel_matches_per_node_reference(name):
    # the same nodes, weights and summation order as one call per node
    f, a, b = INTEGRANDS[name]
    node = _at(f)
    for lo, hi in [(a, b), (0.3, 0.30001), (1e-300, 2.0)]:
        value, err, rnd = _gk21(lambda xs: np.array([node(x) for x in xs]), lo, hi)
        ref_value, ref_err, ref_rnd = _gk21_per_node(node, lo, hi)
        assert np.array_equal(value, ref_value)
        assert (err, rnd) == (ref_err, ref_rnd)


_LOG1M_BOUNDS = dict(f_zero=0.0, f_lipschitz=1.0, f_sup=2.0,
                     f_settle=-1.0, f_decay=1.0, f_far_coeff=1.0)


def _log1m_setup(f):
    # e^{-r} - 1 against the log1m density, with its exact settle term;
    # f(r)/r tends to -1 at 0 for every f these tests pass
    def f_over_r(r):
        return f(r) / r if r > 1e-250 else -1.0

    return lambda w: (f, dict(_LOG1M_BOUNDS, f_over_r=f_over_r), lambda v: v)


def test_part_without_partial_mass_needs_f_over_r():
    # a mu part has no exact partial mass, so its only route below the
    # split radius is the tau segment, which reads f_over_r
    seen = []

    def f(r):
        seen.append(r)
        return float(np.expm1(-r))

    with pytest.raises(ValueError, match="f_over_r"):
        integ.integrate_radial(f, log1m().measure.parts[0], tol=1e-10,
                               **_LOG1M_BOUNDS)
    assert seen == []


def test_measure_value_matches_closed_form():
    psi = log1m()
    value = integrate_measure(0.0, psi.measure,
                              _log1m_setup(lambda r: float(np.expm1(-r))), 1e-10)
    assert value == pytest.approx(-np.log(2.0), abs=1e-9)


def test_nan_integrand_raises_from_measure():
    # NaN on (2, 3), inside the outer segment: the estimate is NaN, which
    # must not pass the "err > 4 tol" convergence test
    def f(r):
        return np.nan if 2.0 < r < 3.0 else float(np.expm1(-r))

    with pytest.raises(QuadratureError):
        integrate_measure(0.0, log1m().measure, _log1m_setup(f), 1e-9)


def test_limit_surfaces_as_quadrature_error(monkeypatch):
    # an oscillation far below the panel width cannot converge within the
    # panel limit; the measure driver must refuse the estimate
    monkeypatch.setattr(integ, "_QUAD_LIMIT", 40)

    def f(r):
        return float(np.expm1(-r)) * (1.0 + 0.5 * np.sin(1e4 * r))

    with pytest.raises(QuadratureError):
        integrate_measure(0.0, log1m().measure, _log1m_setup(f), 1e-10)


def test_jordan_log1m_evaluation_count(monkeypatch):
    # deterministic gate: every node handed to integrate_radial is counted,
    # and f and f_over_r each take one 0-d radius per call, which is what
    # an outside tracer wrapping them counts
    calls, dims = {"f": 0, "f_over_r": 0}, set()
    radial = integ.integrate_radial

    def counting(fn, name):
        def g(r):
            calls[name] += 1
            dims.add(np.ndim(r))
            return fn(r)
        return g

    def counted(f, part, **kw):
        if kw.get("f_over_r") is not None:
            kw["f_over_r"] = counting(kw["f_over_r"], "f_over_r")
        return radial(counting(f, "f"), part, **kw)

    monkeypatch.setattr(integ, "integrate_radial", counted)
    A = make_jordan_polynomial(1, 16, seed=3, re_box=(-3.0, -1.0))
    apply_psi(log1m(), A)
    assert calls["f"] > 0 and calls["f_over_r"] > 0
    assert 0 < calls["f"] + calls["f_over_r"] <= 84
    assert dims == {0}


def test_orthant_quadrature_of_a_product_density():
    # int e^{-u1} e^{-u1 - u2} du = 1/2 over the quadrant, f at one point a call
    part = SimpleNamespace(
        n=2, density=lambda u: float(np.exp(-u[0] - u[1])), hints=(),
        axis_tail=[lambda R: float(np.exp(-R))] * 2)
    seen = set()

    def f(u):
        seen.add(np.shape(u))
        return float(np.exp(-u[0]))

    value, err = integrate_orthant(part, f, f_sup=1.0, tol=1e-8)
    assert value == pytest.approx(0.5, abs=1e-8)
    assert err <= 1e-8
    assert seen == {(2,)}
