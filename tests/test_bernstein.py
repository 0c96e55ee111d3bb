"""Function-class layer: construction, evaluation, structural operations."""

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from scipy.special import exp1

from bpcalc import bernstein as B
from bpcalc._integrate import QuadratureError


class TestCatalogValues:
    def test_fractional_half_at_minus_four(self):
        # -(-s)^(1/2) at s = -4 is exactly -2
        psi = B.fractional_power(0.5)
        assert psi(np.array([-4.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_fractional_limit_at_origin_is_zero(self):
        psi = B.fractional_power(0.3)
        assert abs(psi(np.array([-1e-12]))) < 1e-3
        assert psi.c0 == 0.0

    def test_poisson_exact_values(self):
        psi = B.poisson()
        assert psi(np.array([-1.0])) == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-15)
        assert psi(np.array([0.0])) == pytest.approx(0.0, abs=1e-15)
        assert psi.bounded

    def test_log1m_value(self):
        psi = B.log1m()
        assert psi(np.array([-3.0])) == pytest.approx(-np.log(4.0), abs=1e-12)

    def test_linear_inner_product(self):
        psi = B.linear([3.0, 1.0])
        assert psi(np.array([-1.0, -2.0])) == pytest.approx(-5.0, abs=1e-15)

    def test_fractional_alpha_one_is_drift(self):
        psi = B.fractional_power(1.0)
        assert not psi.measure.atoms and not psi.measure.parts
        assert psi.c1[0] == 1.0
        assert psi(np.array([-7.0])) == pytest.approx(-7.0, abs=1e-15)

    def test_alpha_out_of_range_rejected(self):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                B.fractional_power(bad)

    def test_catalog_registry_round_trip(self):
        ids = B.catalog_ids()
        assert "fractional_power" in ids and "poisson" in ids
        psi = B.build_catalog("fractional_power", {"alpha": 0.5})
        assert psi(np.array([-9.0])) == pytest.approx(-3.0, abs=1e-12)
        with pytest.raises(KeyError):
            B.build_catalog("unknown_id", {})
        with pytest.raises(ValueError, match="needs parameter 'alpha'"):
            B.build_catalog("fractional_power", {})
        with pytest.raises(ValueError, match="no parameter 'c'"):
            B.build_catalog("linear", {"c": [2.0]})
        with pytest.raises(ValueError, match="exactly 2 children"):
            B.build_catalog("direct_sum", {}, [B.poisson()])

    @pytest.mark.parametrize("cid", B.catalog_ids())
    def test_catalog_member_matches_constructor(self, cid):
        ps, lg = B.poisson(), B.log1m()
        params, children, direct = {
            "fractional_power": ({"alpha": 0.3}, (),
                                 lambda: B.fractional_power(0.3)),
            "poisson": ({}, (), B.poisson),
            "log1m": ({}, (), B.log1m),
            "linear": ({"c1": [2.0, 0.5]}, (), lambda: B.linear([2.0, 0.5])),
            "diagonal_lift": ({"w": [1.0, 0.5]}, (lg,),
                              lambda: B.diagonal_lift(lg, [1.0, 0.5])),
            "direct_sum": ({}, (ps, lg), lambda: B.direct_sum(ps, lg)),
            "cone_combination": (
                {"coefficients": [2.0, 0.5]}, (ps, lg),
                lambda: B.cone_combine([(2.0, ps), (0.5, lg)])),
        }[cid]
        psi, ref = B.build_catalog(cid, params, children), direct()
        s = -np.linspace(0.7, 1.3, ref.n)
        assert psi.n == ref.n
        assert psi(s) == ref(s)


class TestRepresentationConsistency:
    # closed form against the integral of its own triple

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_fractional_quadrature_matches_closed_form(self, alpha):
        psi = B.fractional_power(alpha)
        for s in (-0.05, -1.0, -4.0, -9.7):
            c = psi(np.array([s]))
            q = B.eval_via_levy(psi, [s])
            assert abs(c - q) <= 1e-8 * (1.0 + abs(c))

    def test_fractional_half_derived_point(self):
        psi = B.fractional_power(0.5)
        assert B.eval_via_levy(psi, [-4.0]) == pytest.approx(-2.0, abs=1e-8)

    def test_poisson_atom_only_sum_is_exact(self):
        q = B.eval_via_levy(B.poisson(), [-1.0])
        assert q == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-15)

    def test_linear_empty_measure_is_exact(self):
        q = B.eval_via_levy(B.linear([3.0, 1.0]), [-1.0, -2.0])
        assert q == pytest.approx(-5.0, abs=1e-15)

    def test_log1m_quadrature(self):
        psi = B.log1m()
        for s in (-0.1, -2.5, -9.0):
            c = psi(np.array([s]))
            assert abs(c - B.eval_via_levy(psi, [s])) <= 1e-8 * (1.0 + abs(c))

    def test_random_points_across_catalog(self):
        rng = np.random.default_rng(7)
        members = [B.fractional_power(0.3), B.fractional_power(0.7),
                   B.poisson(), B.log1m()]
        for psi in members:
            pts = -rng.uniform(0.01, 10.0, size=12)
            for s in pts:
                c = psi(np.array([s]))
                q = B.eval_via_levy(psi, [s])
                assert abs(c - q) <= 1e-6 * (1.0 + abs(c))

    def test_complex_argument_left_half_plane(self):
        psi = B.fractional_power(0.5)
        s = np.array([-1.0 + 2.0j])
        c = psi.closed_form(s)
        q = B.eval_via_levy(psi, s)
        assert abs(c - q) <= 1e-7 * (1.0 + abs(c))

    def test_boundary_argument_on_infinite_mass_raises(self):
        # purely oscillatory tail: refuse rather than return a wrong value
        with pytest.raises(QuadratureError):
            B.eval_via_levy(B.fractional_power(0.5), np.array([1j]))

    def test_boundary_argument_on_atom_measure_is_fine(self):
        q = B.eval_via_levy(B.poisson(), np.array([2j]))
        assert abs(q - (np.exp(2j) - 1.0)) < 1e-12

    def test_heavy_singularity_small_argument(self):
        # beta = 1.95 forces the compensated inner segment
        psi = B.fractional_power(0.95)
        c = psi(np.array([-0.05]))
        q = B.eval_via_levy(psi, [-0.05])
        assert abs(c - q) <= 1e-7 * (1.0 + abs(c))


class TestStructuralOperations:
    def test_cone_combination_value(self):
        psi = B.cone_combine([(1.0, B.fractional_power(0.5)), (1.0, B.poisson())])
        expected = -2.0 + np.exp(-4.0) - 1.0
        assert psi(np.array([-4.0])) == pytest.approx(expected, abs=1e-12)

    def test_cone_scaling(self):
        psi = B.cone_combine([(2.0, B.fractional_power(0.5))])
        assert psi(np.array([-4.0])) == pytest.approx(-4.0, abs=1e-12)

    def test_cone_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            B.cone_combine([(-1.0, B.poisson())])

    def test_cone_dimension_mismatch(self):
        with pytest.raises(B.DimensionMismatchError):
            B.cone_combine([(1.0, B.poisson()), (1.0, B.linear([1.0, 2.0]))])

    def test_cone_quadrature_consistency(self):
        psi = B.cone_combine([(2.0, B.fractional_power(0.5)), (1.5, B.log1m())])
        c = psi(np.array([-3.0]))
        assert abs(c - B.eval_via_levy(psi, [-3.0])) <= 1e-7 * (1.0 + abs(c))

    def test_direct_sum_splits_variables(self):
        psi = B.direct_sum(B.fractional_power(0.5), B.poisson())
        s = np.array([-4.0, -1.0])
        expected = -2.0 + np.exp(-1.0) - 1.0
        assert psi.n == 2
        assert psi(s) == pytest.approx(expected, abs=1e-12)
        assert abs(psi(s) - B.eval_via_levy(psi, s)) <= 1e-7 * (1.0 + abs(expected))

    def test_diagonal_lift_ray_value(self):
        psi = B.diagonal_lift(B.fractional_power(0.5), [1.0, 1.0])
        assert psi(np.array([-2.0, -2.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_diagonal_lift_quadrature(self):
        psi = B.diagonal_lift(B.fractional_power(0.5), [2.0, 3.0])
        s = np.array([-1.0, -2.0])
        c = psi(s)
        assert abs(c - B.eval_via_levy(psi, s)) <= 1e-7 * (1.0 + abs(c))

    def test_degenerate_lift_ignores_dead_variable(self):
        psi = B.diagonal_lift(B.log1m(), [1.0, 0.0])
        grid = [np.array([-3.0, -7.0]), np.array([-3.0, -0.2])]
        vals = [psi(s) for s in grid]
        assert vals[0] == pytest.approx(vals[1], abs=1e-14)
        assert vals[0] == pytest.approx(-np.log(4.0), abs=1e-12)

    def test_lift_requires_scalar_base(self):
        with pytest.raises(ValueError):
            B.diagonal_lift(B.linear([1.0, 1.0]), [1.0, 1.0])

    def test_nested_cone_family_is_flat(self):
        # nu_t of a cone of cones convolves the leaves' measures, each at
        # the product of the coefficients on its path times t
        inner = B.cone_combine([(1.0, B.poisson()), (2.0, B.log1m())])
        psi = B.cone_combine([(0.5, inner), (1.5, B.fractional_power(0.5))])
        factors = psi.subordinator.factors
        assert [a for a, _ in factors] == [0.5, 1.0, 1.5]
        leaves = [B.poisson(), B.log1m(), B.fractional_power(0.5)]
        assert [m for _, m in factors] == [p.subordinator.factors[0][1]
                                           for p in leaves]

    def test_alpha_one_is_linear(self):
        # the same closed form bit for bit, signed zeros included
        rng = np.random.default_rng(5)
        z = -np.abs(rng.standard_normal(500)) + 1j * rng.standard_normal(500)
        S = np.concatenate([z, -np.abs(rng.standard_normal(500)), [0.0, -0.0]])
        got = B.eval_psi(B.fractional_power(1.0), S[:, None])
        ref = B.eval_psi(B.linear([1.0]), S[:, None])
        assert got.tobytes() == ref.tobytes()
        psi = B.fractional_power(1.0)
        assert psi.c1.tolist() == [1.0] and not psi.measure.atoms
        assert psi.partials_finite == (True,) and psi.bounded is False

    def test_nested_composites_keep_closed_form(self):
        inner = B.cone_combine([(0.5, B.poisson()), (1.0, B.log1m())])
        psi = B.direct_sum(inner, B.diagonal_lift(B.fractional_power(0.5), [2.0]))
        s = np.array([-1.0, -4.5])
        expected = 0.5 * (np.exp(-1.0) - 1.0) - np.log(2.0) - 3.0
        assert psi(s) == pytest.approx(expected, abs=1e-12)


class TestDomainValidation:
    def test_positive_real_part_rejected(self):
        psi = B.fractional_power(0.5)
        with pytest.raises(ValueError):
            psi(np.array([0.5]))
        with pytest.raises(ValueError):
            B.eval_via_levy(psi, [1.0 + 1j])

    def test_wrong_arity_rejected(self):
        with pytest.raises(B.DimensionMismatchError):
            B.poisson()(np.array([-1.0, -2.0]))

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            B.Atom(np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            B.Atom(np.array([1.0]), -2.0)
        with pytest.raises(TypeError):
            B.LevyMeasure(1, parts=[B.Atom(np.array([1.0]), 1.0)])

    @pytest.mark.parametrize("direction,mass,radius", [
        ([1.0], np.nan, 1.0), ([1.0], np.inf, 1.0),
        ([np.nan, 1.0], 1.0, 1.0), ([np.inf, 1.0], 1.0, 1.0),
        ([1.0], 1.0, np.inf), ([1.0], 1.0, np.nan),
    ], ids=["mass-nan", "mass-inf", "direction-nan", "direction-inf",
            "radius-inf", "radius-nan"])
    def test_non_finite_atom_rejected(self, direction, mass, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                B.Atom(np.array(direction), mass, radius)

    @pytest.mark.parametrize("changes", [
        {"beta": np.nan}, {"beta": -np.inf}, {"sing_coeff": np.nan},
        {"sing_coeff": np.inf}, {"direction": np.array([np.nan, 1.0])},
    ], ids=["beta-nan", "beta-inf", "coeff-nan", "coeff-inf", "direction-nan"])
    def test_non_finite_density_rejected(self, changes):
        part = B.fractional_power(0.5).measure.parts[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                replace(part, **changes)

    def test_c0_sign_enforced(self):
        with pytest.raises(ValueError):
            B.BernsteinFunction(n=1, c0=0.5, c1=np.array([0.0]),
                                measure=B.LevyMeasure(1),
                                closed_form=lambda s: 0.5,
                                partials_finite=(True,), bounded=True)

    def test_c1_sign_enforced(self):
        with pytest.raises(ValueError):
            B.linear([1.0, -2.0])

    @pytest.mark.parametrize("build", [
        lambda: B.linear([np.nan]),
        lambda: B.diagonal_lift(B.poisson(), [np.nan, 1.0]),
        lambda: B.diagonal_lift(B.poisson(), [np.inf]),
        lambda: B.cone_combine([(np.nan, B.poisson())]),
        lambda: B.cone_combine([(np.inf, B.poisson())]),
    ], ids=["linear-nan", "lift-nan", "lift-inf", "cone-nan", "cone-inf"])
    def test_non_finite_parameters_rejected(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build()


def _set_members():
    """Every catalog member and nested composites, keyed by arity."""
    fp, ps, lg = B.fractional_power, B.poisson(), B.log1m()
    one = [fp(0.5), fp(0.37), fp(1.0), ps, lg, B.linear([1.3]),
           B.cone_combine([(0.7, fp(0.5)), (0.3, ps)]),
           B.diagonal_lift(lg, [2.5]),
           B.diagonal_lift(B.cone_combine([(1.1, ps), (0.4, fp(0.8))]), [0.3])]
    two = [B.linear([0.4, 1.7]), B.direct_sum(ps, fp(0.5)),
           B.diagonal_lift(lg, [1.0, 0.37]),
           B.cone_combine([(0.5, B.direct_sum(lg, ps)),
                           (1.2, B.diagonal_lift(fp(0.5), [0.3, 0.9]))])]
    three = [B.linear([0.2, 0.0, 1.9]),
             B.direct_sum(B.direct_sum(fp(0.5), ps), lg),
             B.diagonal_lift(B.cone_combine([(0.6, fp(0.25)), (1.0, lg)]),
                             [0.2, 1.1, 0.7]),
             B.cone_combine([(0.3, B.direct_sum(ps, B.diagonal_lift(lg, [0.6, 1.9]))),
                             (0.8, B.diagonal_lift(fp(0.75), [1.3, 0.2, 0.9]))])]
    return {1: one, 2: two, 3: three}


def _left_points(rng, m, n):
    """m points of the closed left half-plane over several scales, with
    real-only rows and rows on the imaginary axes."""
    scale = rng.choice([1e-6, 1e-2, 1.0, 30.0, 1e5], size=(m, n))
    S = (-np.abs(rng.standard_normal((m, n))) * scale
         + 1j * rng.standard_normal((m, n)) * scale)
    S[::5] = S[::5].real
    S[1::7, 0] = 1j * S[1::7, 0].imag
    return S


class TestStatedFacts:
    """Closed form, partial finiteness and boundedness are required facts."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_member_states_its_facts(self, n):
        for psi in _set_members()[n]:
            assert callable(psi.closed_form)
            assert len(psi.partials_finite) == n
            assert all(type(f) is bool for f in psi.partials_finite)
            assert type(psi.bounded) is bool

    def test_composites_derive_facts(self):
        fp, ps, lg = B.fractional_power, B.poisson(), B.log1m()
        assert B.direct_sum(ps, fp(0.5)).partials_finite == (True, False)
        assert B.diagonal_lift(fp(0.5), [1.0, 0.0]).partials_finite == (False, True)
        assert B.cone_combine([(1.0, ps), (0.5, lg)]).bounded is False
        assert B.cone_combine([(1.0, ps), (0.0, lg)]).bounded is True
        assert B.direct_sum(ps, ps).bounded is True

    def test_missing_fact_rejected(self):
        facts = dict(closed_form=lambda s: 0.0 * s[0], partials_finite=(True,),
                     bounded=True)
        for name in facts:
            kwargs = {k: v for k, v in facts.items() if k != name}
            with pytest.raises(TypeError):
                B.BernsteinFunction(n=1, c0=0.0, c1=np.zeros(1),
                                    measure=B.LevyMeasure(1), **kwargs)

    def test_fact_replaced_by_none_rejected(self):
        with pytest.raises(TypeError, match="closed_form"):
            replace(B.log1m(), closed_form=None)
        with pytest.raises(TypeError):
            replace(B.log1m(), partials_finite=None)

    def test_facts_must_be_bools(self):
        with pytest.raises(TypeError, match="bool"):
            replace(B.poisson(), bounded=None)
        with pytest.raises(TypeError, match="bool"):
            replace(B.poisson(), partials_finite=("yes",))
        with pytest.raises(TypeError, match="bool"):
            replace(B.poisson(), bounded=np.True_)

    def test_partials_need_one_entry_per_variable(self):
        with pytest.raises(B.DimensionMismatchError):
            replace(B.linear([1.0, 2.0]), partials_finite=(True,))


class TestPointSets:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_set_equals_per_point(self, n):
        rng = np.random.default_rng(100 + n)
        for psi in _set_members()[n]:
            S = _left_points(rng, 64, n)
            vals = B.eval_psi(psi, S)
            assert vals.shape == (64,) and vals.dtype == complex
            each = np.array([complex(B.eval_psi(psi, z)) for z in S])
            np.testing.assert_array_equal(vals, each)

    def test_single_point_return_types(self):
        psi = B.log1m()
        assert type(B.eval_psi(psi, [-2.0])) is float
        assert type(B.eval_psi(psi, np.array([-2.0 + 1.0j]))) is complex
        assert B.eval_psi(psi, [-2.0]) == pytest.approx(-np.log(3.0), rel=1e-15)

    def test_constant_form_broadcasts(self):
        zero = B.linear([0.0])
        np.testing.assert_array_equal(B.eval_psi(zero, -np.ones((4, 1))), np.zeros(4))
        const = B.BernsteinFunction(n=2, c0=-0.5, c1=np.zeros(2),
                                    measure=B.LevyMeasure(2),
                                    closed_form=lambda s: -0.5,
                                    partials_finite=(True, True), bounded=True)
        vals = B.eval_psi(const, -np.ones((3, 2)))
        assert vals.shape == (3,) and np.all(vals == -0.5)
        assert B.eval_psi(const, [-1.0, -2.0]) == -0.5

    def test_empty_set(self):
        vals = B.eval_psi(B.linear([1.0, 2.0]), np.empty((0, 2)))
        assert vals.shape == (0,)

    def test_shape_rejected(self):
        psi = B.diagonal_lift(B.log1m(), [1.0, 0.5])
        for bad in (-1.0, -np.ones(3), -np.ones((4, 3)), -np.ones((4, 2, 1)),
                    -np.ones((2, 2, 2))):
            with pytest.raises(B.DimensionMismatchError):
                B.eval_psi(psi, bad)
        # the quadrature oracle takes one point, never a set
        with pytest.raises(B.DimensionMismatchError):
            B.eval_via_levy(B.log1m(), np.array([[-1.0], [-0.5 + 2.0j]]))

    def test_bad_point_anywhere_in_set_rejected(self):
        psi = B.direct_sum(B.poisson(), B.fractional_power(0.5))
        assert B.eval_psi(psi, -np.ones((6, 2))).shape == (6,)
        for bad in (0.5, 1e-6 + 1j, np.nan, -np.inf, complex(-1.0, np.inf),
                    complex(np.nan, 0.0)):
            S = -np.ones((6, 2), dtype=complex)
            S[4, 1] = bad
            with pytest.raises(ValueError, match="finite|Re s_j"):
                B.eval_psi(psi, S)

    def test_non_finite_single_point_rejected(self):
        with pytest.raises(ValueError):
            B.eval_psi(B.fractional_power(0.5), [np.nan])
        with pytest.raises(ValueError):
            B.eval_psi(B.poisson(), [-1 + np.inf * 1j])
        with pytest.raises(ValueError):
            B.eval_via_levy(B.log1m(), [np.nan])


@dataclass
class MonotonicityReport:
    passed: bool
    mode: str
    order: int
    step: float
    min_difference: float
    max_value: float
    violations: list
    differences_checked: int


def check_absolute_monotonicity(f, lower, upper, *, points: int = 6,
                                order: int = 4, step: Optional[float] = None,
                                tol: float = 1e-7,
                                mode: str = "bernstein") -> MonotonicityReport:
    """Finite-difference certificate on a lattice strictly inside (-inf,0)^n.

    mode "bernstein" checks the defining property of the class: f <= tol on
    the lattice and every mixed forward difference of total order 1..order
    is >= -tol (those differences approximate h^|k| times the mixed partials
    of the first derivatives, which must be absolutely monotone).  mode
    "absolutely_monotone" checks orders 0..order >= -tol, certifying that f
    itself is absolutely monotone (used for subordination kernels g_t).
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    n = len(lower)
    if mode not in ("bernstein", "absolutely_monotone"):
        raise ValueError("unknown mode %r" % mode)
    if np.any(upper <= lower):
        raise ValueError("empty lattice box")
    if step is None:
        step = 1e-2 * max(1.0, float(np.max(np.abs(lower))))
    if np.any(upper + order * step >= 0):
        raise ValueError("grid touches the boundary s = 0 (shrink the box or the step)")

    axes = [np.linspace(lower[j], upper[j], points) for j in range(n)]
    base = list(itertools.product(*axes))

    # cache f on every lattice shifted by i*step, i a multi-index <= order
    shifted = {}

    def values(offset):
        if offset not in shifted:
            arr = np.empty(len(base))
            off = np.asarray(offset, dtype=float) * step
            for idx, pt in enumerate(base):
                arr[idx] = float(np.real(f(np.asarray(pt) + off)))
            shifted[offset] = arr
        return shifted[offset]

    violations = []
    min_diff = np.inf
    max_val = -np.inf
    checked = 0

    f0 = values((0,) * n)
    max_val = float(np.max(f0))
    if mode == "bernstein" and max_val > tol:
        idx = int(np.argmax(f0))
        violations.append(("nonpositivity", (0,) * n, base[idx], float(f0[idx])))
    if mode == "absolutely_monotone":
        lowest = float(np.min(f0))
        min_diff = min(min_diff, lowest)
        checked += len(f0)
        if lowest < -tol:
            idx = int(np.argmin(f0))
            violations.append(("difference", (0,) * n, base[idx], lowest))

    lo_order = 1
    for k in itertools.product(range(order + 1), repeat=n):
        total = sum(k)
        if total < lo_order or total > order:
            continue
        diff = np.zeros(len(base))
        for i in itertools.product(*[range(kj + 1) for kj in k]):
            sign = (-1) ** (total - sum(i))
            coef = sign * math.prod(math.comb(kj, ij) for kj, ij in zip(k, i))
            diff += coef * values(i)
        checked += len(diff)
        low = float(np.min(diff))
        min_diff = min(min_diff, low)
        if low < -tol:
            idx = int(np.argmin(diff))
            violations.append(("difference", k, base[idx], low))

    return MonotonicityReport(
        passed=not violations, mode=mode, order=order, step=float(step),
        min_difference=float(min_diff), max_value=max_val,
        violations=violations, differences_checked=checked)


class TestClassInvariants:
    # structure shared by every member of the class

    def test_nonpositivity_on_negative_orthant(self):
        rng = np.random.default_rng(11)
        members = [B.fractional_power(0.4), B.poisson(), B.log1m(),
                   B.cone_combine([(1.0, B.poisson()), (2.0, B.log1m())])]
        for psi in members:
            for s in -rng.uniform(0.01, 10.0, size=20):
                assert psi(np.array([s])) <= 1e-12

    def test_monotone_in_each_variable(self):
        psi = B.direct_sum(B.fractional_power(0.5), B.log1m())
        grid = np.linspace(-8.0, -0.2, 40)
        for j in range(2):
            s = np.array([-1.0, -1.0])
            vals = []
            for g in grid:
                s2 = s.copy(); s2[j] = g
                vals.append(psi(s2))
            assert np.all(np.diff(vals) >= -1e-10)

    def test_exponential_transform_in_unit_interval(self):
        rng = np.random.default_rng(3)
        psi = B.cone_combine([(0.7, B.fractional_power(0.6)), (0.3, B.poisson())])
        for t in (0.1, 1.0, 5.0):
            for s in -rng.uniform(0.01, 10.0, size=10):
                g = np.exp(t * psi(np.array([s])))
                assert 0.0 <= g <= 1.0

    def test_complete_monotonicity_certificate(self):
        for psi in (B.fractional_power(0.5), B.log1m()):
            rep = check_absolute_monotonicity(
                lambda s, _p=psi: _p(s), [-9.0], [-1.0])
            assert rep.passed, rep

    def test_cone_closure_certificate(self):
        psi = B.cone_combine([(1.2, B.fractional_power(0.3)),
                              (0.4, B.log1m()), (2.0, B.poisson())])
        rep = check_absolute_monotonicity(lambda s: psi(s), [-7.0], [-0.8])
        assert rep.passed, rep

    def test_monotonicity_detects_violation(self):
        rep = check_absolute_monotonicity(
            lambda s: np.sin(4.0 * s[0]), [-9.0], [-1.0])
        assert not rep.passed
        assert rep.violations

    def test_exponential_is_absolutely_monotone(self):
        psi = B.poisson()
        rep = check_absolute_monotonicity(
            lambda s: np.exp(0.7 * psi(s)), [-6.0], [-0.5],
            mode="absolutely_monotone")
        assert rep.passed
        assert rep.max_value <= 1.0 + 1e-12

    def test_two_variable_mixed_differences(self):
        psi = B.diagonal_lift(B.fractional_power(0.5), [1.0, 2.0])
        rep = check_absolute_monotonicity(
            lambda s: psi(s), [-5.0, -5.0], [-1.0, -1.0], order=3)
        assert rep.passed, rep

    def test_grid_touching_zero_rejected(self):
        with pytest.raises(ValueError):
            check_absolute_monotonicity(
                lambda s: s[0], [-1.0], [-1e-9], step=0.1)


class TestMeasureFunctionals:
    def test_scaled_density_tail(self):
        part = B.log1m().measure.parts[0]
        doubled = part.scaled(2.0)
        assert doubled.tail_mass(1.0) == pytest.approx(2.0 * float(exp1(1.0)))
        assert doubled.log_density(0.0) == pytest.approx(np.log(2.0) + part.log_density(0.0))


class TestAccurateExponential:
    """numpy's expm1, which the ray evaluators use for T - I, is
    cancellation-free for complex arguments too."""

    def test_real_small_argument(self):
        assert np.expm1(1e-12) == pytest.approx(1e-12, rel=1e-10)

    def test_complex_small_argument(self):
        z = 1e-9 * (-1.0 + 1.0j)
        ref = complex(np.expm1(z.real) * np.cos(z.imag)
                      - 2.0 * np.sin(z.imag / 2.0) ** 2,
                      np.exp(z.real) * np.sin(z.imag))
        assert np.expm1(z) == ref
        assert abs(np.expm1(z) - z) < 1e-17

    def test_matches_naive_when_safe(self):
        z = -2.0 + 3.0j
        assert abs(np.expm1(z) - (np.exp(z) - 1.0)) < 1e-15


def _catalog_parts():
    """Every kind of density part the catalog builds, by name:
    fractional_power, log1m, the Smirnov and Gamma nu_t, and scaled, lifted
    and direct-sum parts."""
    members = {"frac%g" % a: B.fractional_power(a) for a in (0.3, 0.5, 0.9)}
    members.update(
        log1m=B.log1m(),
        scaled=B.cone_combine([(2.5, B.log1m()), (0.5, B.fractional_power(0.5))]),
        lifted=B.diagonal_lift(B.log1m(), [1.0, 0.5]),
        dsum=B.direct_sum(B.log1m(), B.fractional_power(0.5)))
    parts = {"%s-%d" % (name, k): p for name, psi in members.items()
             for k, p in enumerate(psi.measure.parts)}
    families = {"smirnov": B.fractional_power(0.5).subordinator,
                "gamma": B.log1m().subordinator,
                "lifted_smirnov": B.diagonal_lift(B.fractional_power(0.5),
                                                  [0.5, 1.0]).subordinator}
    for name, fam in families.items():
        for t in (0.3, 1.0, 4.0):
            parts["%s-t%g" % (name, t)], = fam.factors[0][1](t).parts
    return parts


class TestDensityArrays:
    """Quadrature weighs a panel's nodes in one call of density and
    log_density; each must agree with per-radius evaluation."""

    @pytest.mark.parametrize("name", sorted(_catalog_parts()))
    def test_array_matches_per_radius(self, name):
        part = _catalog_parts()[name]
        r = np.geomspace(1e-4, 1e3, 200)
        for fn, x in [(part.density, r), (part.log_density, np.log(r))]:
            got = fn(x)
            ref = np.array([fn(xi) for xi in x])
            assert got.shape == (200,)
            assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(np.abs(ref)))
