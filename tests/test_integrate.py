"""The adaptive Gauss-Kronrod driver and the radial measure driver."""

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import bpcalc._integrate as integ
from bpcalc._integrate import QuadratureError, _quad, integrate_measure
from bpcalc.bernstein import log1m
from bpcalc.calculus import apply_psi
from bpcalc.semigroup import make_jordan_polynomial

_M = np.array([[-2.0, 0.7, 0.0], [0.0, -1.0, 0.4], [0.3, 0.0, -3.0]])
INTEGRANDS = {
    "scalar": (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 10.0),
    "complex": (lambda x: complex(np.exp((-0.05 + 5j) * x)), 0.0, 30.0),
    "profile": (lambda x: np.exp(-np.arange(1.0, 7.0) * x) * x ** 0.3, 0.0, 5.0),
    "matrix": (lambda x: expm(x * _M) - np.eye(3), 0.0, 8.0),
}


def _scipy_norm(value):
    return "max" if np.ndim(value) == 1 else "2"


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("points", [None, [0.7, 2.5]])
@pytest.mark.parametrize("tol", [1e-6, 1e-11])
def test_driver_agrees_with_quad_vec(name, points, tol):
    f, a, b = INTEGRANDS[name]
    value, err = _quad(f, a, b, tol, points=points)
    ref, ref_err = quad_vec(f, a, b, epsabs=0.25 * tol, epsrel=1e-12,
                            norm=_scipy_norm(f(a)), points=points, limit=6000)
    assert np.shape(value) == np.shape(ref)
    assert np.max(np.abs(np.asarray(value) - np.asarray(ref))) <= err + ref_err
    assert err <= tol


def test_driver_accepts_initial_panel_and_counts_nodes():
    # a cubic is exact under K21, so the first panel meets the target and
    # the driver returns after 21 calls, each with a scalar node
    seen = []

    def f(x):
        assert np.ndim(x) == 0
        seen.append(x)
        return x ** 3

    value, err = _quad(f, 0.0, 2.0, 1e-10)
    assert value == pytest.approx(4.0, rel=1e-14)
    assert len(seen) == 21
    assert err < 1e-12


def _log1m_setup(f):
    # e^{-r} - 1 against the log1m density, with its exact settle term
    return lambda w: (f, dict(f_zero=0.0, f_lipschitz=1.0, f_sup=2.0,
                              f_settle=-1.0, f_decay=1.0, f_far_coeff=1.0),
                      lambda v: v)


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
    # deterministic gate: every node handed to integrate_radial is counted
    calls = [0]
    radial = integ.integrate_radial

    def counting(fn):
        def g(r):
            calls[0] += 1
            return fn(r)
        return g

    def counted(f, part, **kw):
        if kw.get("f_over_r") is not None:
            kw["f_over_r"] = counting(kw["f_over_r"])
        return radial(counting(f), part, **kw)

    monkeypatch.setattr(integ, "integrate_radial", counted)
    A = make_jordan_polynomial(1, 16, seed=3, re_box=(-3.0, -1.0))
    apply_psi(log1m(), A)
    assert 0 < calls[0] <= 84
