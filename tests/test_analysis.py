"""Holomorphy criterion, moment inequality, corollary experiments."""

import numpy as np
import pytest

from bpcalc import calculus, cli
from bpcalc.analysis import (_reach, _resolve_source, boundedness_experiment,
                             convergence_experiment, holomorphy_criterion,
                             k_constant, moment_check, moment_checks,
                             step_bound_check)
from bpcalc.bernstein import (cone_combine, diagonal_lift, eval_psi,
                              fractional_power, linear, log1m, poisson)
from bpcalc.calculus import _psi_matrix
from bpcalc.semigroup import fourier_modes
from bpcalc.semigroup import (_ray_direction, holomorphy_defect_ray,
                              make_commuting_random,
                              make_commuting_random_stack, make_tuple)


def scalar_tuple(value):
    return make_tuple([np.array([[value]], dtype=complex)], bounds=(1.0,))


def point_model(points):
    """The holomorphy model with spectrum ``points``: a diagonal tuple,
    whose log-norm max Re z <= 0 gives M = 1."""
    return make_tuple([np.diag(np.asarray(points, dtype=complex))])


class TestKConstant:
    def test_unit_bound_value(self):
        assert abs(k_constant(1.0) - 2.0 / -np.expm1(-2.0)) <= 1e-15
        assert abs(k_constant(1.0) - 2.3130352854993312) <= 1e-15

    def test_large_bound_limit(self):
        M = 1e8
        assert abs(k_constant(M) / (M + 1.0) - 1.0 / -np.expm1(-1.0)) <= 1e-6

    def test_always_above_one(self):
        for M in np.linspace(1.0, 100.0, 25):
            assert k_constant(M) > 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            k_constant(0.5)

    @pytest.mark.parametrize("M", [np.nan, np.inf])
    def test_non_finite_bound_rejected(self, M):
        # k_constant(nan) returned nan
        with pytest.raises(ValueError, match="finite and >= 1"):
            k_constant(M)


class TestMomentCheck:
    def test_scalar_fractional_half(self):
        rep = moment_check(fractional_power(0.5), scalar_tuple(-1.0), [1.0])
        assert abs(rep.lhs - 1.0) <= 4e-9
        assert abs(rep.rhs - k_constant(1.0)) <= 1e-12
        assert rep.slack > 0

    def test_linear_triangle(self):
        A = make_commuting_random(2, 4, seed=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rep = moment_check(linear([1.0, 1.0]), A, x)
        assert rep.slack >= -1e-9 * max(1.0, rep.rhs)

    @pytest.mark.parametrize("builder", [
        poisson, log1m, lambda: fractional_power(0.5),
        lambda: fractional_power(0.3)])
    def test_random_sweep_nonnegative_slack(self, builder):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(2, 9))
            psi1 = builder()
            psi = psi1 if n == 1 else diagonal_lift(
                psi1, rng.uniform(0.2, 1.0, size=n))
            A = make_commuting_random(n, d, seed=1000 + trial)
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rep = moment_check(psi, A, x)
            assert rep.slack >= -1e-9 * max(1.0, rep.rhs, rep.lhs)

    def test_zero_face_flagged(self):
        # x in the kernel of the second generator
        A = make_tuple([np.diag([-1.0 + 0j, -2.0]), np.diag([0j, -3.0])])
        rep = moment_check(diagonal_lift(log1m(), [1.0, 1.0]), A,
                           np.array([1.0, 0.0]))
        assert rep.zero_face
        assert rep.slack >= 0

    def test_nonzero_vector_required(self):
        with pytest.raises(ValueError):
            moment_check(poisson(), scalar_tuple(-1.0), [0.0])

    def test_tightness_not_vacuous(self):
        rep = moment_check(fractional_power(0.5), scalar_tuple(-1.0), [1.0])
        assert 0.2 < rep.ratio <= 1.0


def moment_reference(psi, A, x):
    """The one-vector check the stacked route replaced, kept as its
    reference: psi(A) formed afresh and every norm taken for this x."""
    x = np.asarray(x, dtype=complex)
    nx = float(np.linalg.norm(x))
    M = float(max(A.bounds))
    K = k_constant(M)
    norms = np.array([float(np.linalg.norm(A.generators[j] @ x))
                      for j in range(A.n)])
    psi_val = float(np.real(eval_psi(psi, -norms / (A.n * nx))))
    lhs = float(np.linalg.norm(_psi_matrix(psi, A) @ x))
    rhs = -A.n * K * M ** (A.n - 1) * psi_val * nx
    return lhs, rhs, rhs - lhs, bool(np.any(norms == 0.0))


def sweep_reference(cfg, spec, ops, seed, tol, idx):
    """The per-trial loop of ``cli._run_moment`` the stacked sweep replaced,
    kept as its reference: one tuple drawn and one check per trial."""
    psi = cfg.functions[spec["function"]]
    A = ops[spec["operator"]]
    rec = cfg.operator_spec(spec["operator"]).get("random")
    rows, worst = [], None
    for trial in range(spec["trials"]):
        if rec is not None:
            A = cli._build_operator(
                {"random": dict(rec, seed=[rec["seed"], seed, trial])})
        x = np.random.default_rng([seed, idx, trial]).standard_normal(A.d)
        lhs, rhs, slack, _ = moment_reference(psi, A, x)
        bound = -(tol * 1e-3) * max(1.0, lhs, rhs)
        rows.append(cli.Row(spec["id"], "trial%d" % trial, "slack", slack,
                            bound, "PASS" if slack >= bound else "FAIL"))
        if worst is None or slack < worst[1]:
            worst = (trial, slack)
    rows.append(cli.Row(spec["id"], "trial%d" % worst[0], "worst_slack",
                        worst[1], -(tol * 1e-3),
                        "PASS" if worst[1] >= -(tol * 1e-3) else "FAIL"))
    return rows, ("worst slack %.12g at trial%d" % (worst[1], worst[0]),)


def bits(result):
    """rows and notes of a sweep as text: repr tells -0.0 from 0.0"""
    rows, notes = result
    return [repr(r) for r in rows], notes


def suite_sweeps():
    cfg = cli.parse_config(cli._load_config_text("theorem_suite"))
    ops = {s["id"]: cli._build_operator(s) for s in cfg.operator_specs}
    return cfg, ops, [(i, s) for i, s in enumerate(cfg.experiment_specs)
                      if s["kind"] == "moment_sweep"]


class TestStackedMomentChecks:
    """moment_checks and the sweep runner against the per-trial loop."""

    @pytest.mark.parametrize("seed", [None, 7], ids=["config-seed", "seed-7"])
    def test_suite_sweeps_match_loop(self, seed):
        cfg, ops, sweeps = suite_sweeps()
        seed = cfg.seed if seed is None else seed
        assert [s["id"] for _, s in sweeps] == ["moment-poisson", "moment-direct"]
        for idx, spec in sweeps:
            got = cli._run_moment(spec["id"], spec, cfg, ops, seed, cfg.tol,
                                  idx)
            assert bits(got) == bits(sweep_reference(cfg, spec, ops, seed,
                                                     cfg.tol, idx))

    def test_sweep_in_chunks_matches_loop(self, monkeypatch):
        # a stack limit of 7 tuples splits each 200-trial sweep into 29 stacks
        cfg, ops, sweeps = suite_sweeps()
        for idx, spec in sweeps:
            d = ops[spec["operator"]].d
            monkeypatch.setattr(cli, "_STACK_ENTRIES", 7 * d * d + d)
            got = cli._run_moment(spec["id"], spec, cfg, ops, 7, cfg.tol, idx)
            assert bits(got) == bits(sweep_reference(cfg, spec, ops, 7,
                                                     cfg.tol, idx))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reports_match_per_vector_loop(self, n):
        psi = poisson() if n == 1 else diagonal_lift(log1m(), [1.0, 0.5, 0.3][:n])
        stack = make_commuting_random_stack(n, 5, [[9, t] for t in range(15)])
        tuples = [stack[t] for t in range(15)]
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((15, 5)) + 1j * rng.standard_normal((15, 5))
        for A, x, rep in zip(tuples, xs, moment_checks(psi, stack, xs)):
            assert (rep.lhs, rep.rhs, rep.slack, rep.zero_face) \
                == moment_reference(psi, A, x)
            assert rep == moment_check(psi, A, x)
        # one shared tuple for every vector
        for x, rep in zip(xs, moment_checks(psi, tuples[0], xs)):
            assert (rep.lhs, rep.rhs, rep.slack, rep.zero_face) \
                == moment_reference(psi, tuples[0], x)

    def test_fixed_operator_gets_psi_once(self, monkeypatch):
        # a 3 x 3 Jordan block: psi(A) is a full apply_psi quadrature
        J = -np.eye(3) + np.diag([1.0, 1.0], 1)
        doc = {"functions": [{"id": "fp", "catalog": "fractional_power",
                              "parameters": {"alpha": 0.5}}],
               "operators": [{"id": "j", "matrices": [
                   [[[v, 0.0] for v in row] for row in J]]}],
               "experiments": [{"kind": "moment_sweep", "id": "m",
                                "function": "fp", "operator": "j",
                                "trials": 20}]}
        cfg = cli.parse_config(doc)
        spec = cfg.experiment_specs[0]
        ops = {"j": cli._build_operator(cfg.operator_specs[0])}
        want = sweep_reference(cfg, spec, ops, cfg.seed, cfg.tol, 0)
        calls = []
        real = calculus.apply_psi
        monkeypatch.setattr(calculus, "apply_psi",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        got = cli._run_moment("m", spec, cfg, ops, cfg.seed, cfg.tol, 0)
        assert len(calls) == 1
        assert bits(got) == bits(want)

    def test_one_vector_per_tuple(self):
        stack = make_commuting_random_stack(1, 3, [1, 2])
        with pytest.raises(ValueError, match="one vector per tuple"):
            moment_checks(poisson(), stack, np.ones((3, 3)))
        with pytest.raises(ValueError, match="nonzero"):
            moment_checks(poisson(), stack, [[1.0, 0.0, 0.0], [0.0] * 3])
        with pytest.raises(ValueError, match="arity"):
            moment_checks(linear([1.0, 1.0]), stack, np.ones((2, 3)))

    @pytest.mark.parametrize("xs", [np.ones(3), np.ones((2, 4)), np.ones((0, 3)),
                                    [[1.0, np.nan, 0.0]]],
                             ids=["one-dim", "row-length", "empty", "nan"])
    def test_vectors_must_be_finite_rows(self, xs):
        # a 1-D xs raised numpy's IndexError and a wrong row length a matmul
        # error
        A = make_commuting_random(1, 3, seed=1)
        with pytest.raises(ValueError, match="xs must be"):
            moment_checks(poisson(), A, xs)


class TestStepBound:
    def test_scalar_oracle(self):
        res = step_bound_check(scalar_tuple(-1.0), [1.0], [1.0])
        want = (k_constant(1.0) - 1.0) * -np.expm1(-1.0)
        assert abs(res - want) <= 1e-12

    def test_vanishing_step(self):
        A = make_commuting_random(2, 4, seed=7)
        x = np.zeros(4)
        x[0] = 1.0
        res = [step_bound_check(A, x, [u, u]) for u in (1e-2, 1e-4, 1e-6)]
        assert all(r >= 0 for r in res)
        assert res[2] < res[1] < res[0]
        assert res[2] <= 1e-2
        assert step_bound_check(A, x, [0.0, 0.0]) == 0.0

    def test_random_sweep_no_violation(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(2, 7))
            A = make_commuting_random(n, d, seed=2000 + trial)
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            x = x / np.linalg.norm(x)
            u = rng.uniform(0.0, 2.0, size=n)
            assert step_bound_check(A, x, u) >= -1e-12

    def test_unit_vector_required(self):
        A = make_commuting_random(1, 3, seed=1)
        with pytest.raises(ValueError):
            step_bound_check(A, [2.0, 0.0, 0.0], [1.0])


class TestHolomorphyCriterion:
    def test_matrix_tuples_trivial(self):
        blocks = [make_commuting_random(1, 3, seed=s) for s in (1, 2)]
        rep = holomorphy_criterion(blocks)
        assert rep.weighted_sum == 0.0
        assert rep.satisfied
        # the weights are the tuples' own bounds M_j = cond(P_j)
        assert rep.weights == (1.0, blocks[0].bounds[0])

    def test_single_ray_pi(self):
        rep = holomorphy_criterion([np.pi])
        assert abs(rep.defects[0] - 1.0) <= 1e-6
        assert rep.weighted_sum < 2.0 and rep.satisfied
        # -pi is the ray of pi, to the bit
        for theta in (np.pi, -np.pi):
            assert holomorphy_criterion([theta]).defects == (0.999999999241744,)

    def test_two_rays_with_weight(self):
        # a tuple of bound M > 1 ahead of two rays weighs both by M
        A = make_commuting_random(1, 3, seed=9)
        M = A.bounds[0]
        assert M > 1.0
        theta = 0.6 * np.pi
        rep = holomorphy_criterion([A, theta, theta])
        b = rep.defects[1]
        assert rep.weights == (1.0, M, M)
        assert abs(rep.weighted_sum - 2.0 * M * b) <= 1e-12
        assert rep.satisfied == (rep.weighted_sum < 2.0)

    def test_tuple_bound_weights_ray(self):
        # M_j comes from the model: a tuple of bound M > 1 weighs the ray
        # after it by M (its sampled points still fall in the criterion)
        A = make_tuple([[[-1.0]]], bounds=[1.5])
        rep = holomorphy_criterion([A, np.pi], psi=diagonal_lift(
            log1m(), [1.0, 0.5]))
        b = holomorphy_defect_ray(np.pi)
        assert rep.defects == (0.0, b)
        assert rep.weights == (1.0, 1.5)
        assert rep.weighted_sum == 1.5 * b and rep.satisfied
        assert rep.measured_limsup <= rep.weighted_sum + 0.05
        assert not holomorphy_criterion([make_tuple([[[-1.0]]], bounds=[2.5]),
                                         np.pi]).satisfied

    def test_vertical_ray_fails_criterion(self):
        # b(pi/2) = 2 saturates the threshold on its own
        rep = holomorphy_criterion([np.pi / 2])
        assert not rep.satisfied
        assert rep.measured_limsup is None

    @pytest.mark.parametrize("theta", [np.pi / 2, -np.pi / 2, 3 * np.pi / 2,
                                       np.pi / 2 + 2e-16],
                             ids=["half-pi", "minus-half-pi",
                                  "three-half-pi", "within-1e-15"])
    def test_vertical_rays_alike(self, theta):
        # one angle rule: a ray within 1e-15 of the imaginary axis is the
        # vertical ray, so its defect is 2 and the criterion inapplicable
        rep = holomorphy_criterion([theta], psi=log1m())
        assert rep.defects == (2.0,)
        assert not rep.satisfied and rep.measured_limsup is None

    def test_measured_limsup_under_weighted_sum(self):
        rep = holomorphy_criterion([np.pi], psi=fractional_power(0.5))
        assert rep.measured_limsup is not None
        assert rep.measured_limsup <= rep.weighted_sum + 0.05
        # unbounded psi on an unbounded ray: the defect is actually attained
        assert rep.measured_limsup >= 0.9

    def test_two_rays_never_satisfy(self):
        # every ray defect is at least 1, so two rays reach the threshold
        rep = holomorphy_criterion([np.pi, 0.75 * np.pi])
        assert not rep.satisfied

    @pytest.mark.parametrize("bounds", [[np.nan, 1.0], [np.nan], [np.inf]],
                             ids=["nan-one", "nan", "inf"])
    def test_non_finite_bounds_rejected(self, bounds):
        # a bound reaches the criterion only on its tuple, which refuses a
        # non-finite one
        with pytest.raises(ValueError, match="finite and >= 1"):
            holomorphy_criterion([make_tuple([[[-1.0]]], bounds=[M])
                                  for M in bounds])

    def test_measured_limsup_two_generators(self):
        # one unbounded ray plus a finite point source keeps the sum below 2
        psi = diagonal_lift(log1m(), [1.0, 0.5])
        model = point_model((-2.0 + 1.0j, -0.3))
        rep = holomorphy_criterion([np.pi, model], psi=psi)
        assert rep.satisfied
        assert rep.measured_limsup <= rep.weighted_sum + 0.05

    def test_point_model_and_matrix_mix(self):
        model = point_model((-1.0 + 2.0j, -0.5))
        A = make_commuting_random(1, 3, seed=9)
        rep = holomorphy_criterion([model, A])
        assert rep.defects == (0.0, 0.0)
        assert rep.weights == (1.0, 1.0)
        assert rep.satisfied

    def test_unknown_source_rejected(self):
        with pytest.raises(TypeError):
            holomorphy_criterion(["ray"])

    @pytest.mark.parametrize("model", [
        True, np.eye(2), make_commuting_random(2, 3, seed=1)],
        ids=["bool", "matrix", "two-generators"])
    def test_only_angles_and_one_generator_tuples(self, model):
        with pytest.raises(TypeError):
            holomorphy_criterion([model])

    def test_bounds_validated(self):
        # M_j is the model's own bound, which its tuple validates
        with pytest.raises(ValueError, match="finite and >= 1"):
            holomorphy_criterion([make_tuple([[[-1.0]]], bounds=[0.5])])


# The per-point loops that the point-set evaluation replaced, kept as the
# reference it must reproduce exactly.

def _reach_per_point(psi, j, e, t):
    R = 1.0
    probe = np.zeros(psi.n, dtype=complex)
    while R < 1e30:
        probe[j] = R * e
        if abs(t * complex(eval_psi(psi, probe))) >= 20.0:
            break
        R *= 4.0
    return R


def _samples_per_point(models, psi, k_max=40):
    resolved = [_resolve_source(m) for m in models]
    n = len(models)
    per_model = 160 if n == 1 else (40 if n == 2 else 12)
    samples = []
    for k in range(k_max + 1):
        t = 2.0 ** -k
        axes = []
        for j, (_, _, e, pts) in enumerate(resolved):
            if e is not None:
                reach = _reach_per_point(psi, j, e, t)
                pts = np.geomspace(1e-6, reach, 160) * e
            if len(pts) > per_model:
                idx = np.unique(np.linspace(0, len(pts) - 1, per_model).astype(int))
                pts = pts[idx]
            axes.append(pts)
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=-1)
        worst = 0.0
        for z in grid:
            g = np.exp(t * complex(eval_psi(psi, z)))
            worst = max(worst, abs(1.0 - g))
        samples.append((t, worst))
    return tuple(samples)


POINTS = (-2.0 + 1.0j, -0.3)
CRITERION_CONFIGS = [
    ([np.pi], log1m()),
    ([3 * np.pi / 4], fractional_power(0.5)),
    ([np.pi, point_model(POINTS)], diagonal_lift(log1m(), [1.0, 0.5])),
]


class TestPointSetRewrite:
    @pytest.mark.parametrize("config", range(len(CRITERION_CONFIGS)))
    def test_samples_match_per_point_loop(self, config):
        models, psi = CRITERION_CONFIGS[config]
        rep = holomorphy_criterion(models, psi=psi)
        assert rep.samples == _samples_per_point(models, psi)

    @pytest.mark.parametrize("config", range(len(CRITERION_CONFIGS)))
    def test_reach_matches_per_point_loop(self, config):
        models, psi = CRITERION_CONFIGS[config]
        for j, model in enumerate(models):
            if not isinstance(model, float):
                continue
            e = _ray_direction(model)
            for k in range(41):
                t = 2.0 ** -k
                assert _reach(psi, j, e, t) == _reach_per_point(psi, j, e, t)

    def test_reach_last_probe_and_cap(self):
        # |psi| <= 2 never saturates; the drift saturates first at R = 4^49
        e = _ray_direction(np.pi)
        for psi, R in ((poisson(), 4.0 ** 50), (linear([30.0 / 4.0 ** 49]), 4.0 ** 49)):
            assert _reach(psi, 0, e, 1.0) == _reach_per_point(psi, 0, e, 1.0)
            assert _reach(psi, 0, e, 1.0) == R

    def test_point_model_defect_matches_per_point(self):
        # a diagonal tuple model is sampled at exactly its points, with M = 1
        rng = np.random.default_rng(5)
        extra = -np.abs(rng.standard_normal(40)) + 3j * rng.standard_normal(40)
        for pts in (POINTS, tuple(extra)):
            b, M, e, sampled = _resolve_source(point_model(pts))
            assert (b, M, e) == (0.0, 1.0, None)
            assert sorted(sampled, key=lambda z: (z.real, z.imag)) == \
                sorted(pts, key=lambda z: (z.real, z.imag))

    def test_boundedness_matches_per_point(self):
        for psi in (poisson(), fractional_power(0.5),
                    diagonal_lift(log1m(), [1.0, 0.5])):
            norms = boundedness_experiment(psi, [1, 7])
            expected = [max(abs(complex(eval_psi(psi, row)))
                            for row in fourier_modes(K, psi.n)) for K in (1, 7)]
            assert list(norms) == expected


class TestBoundedness:
    def test_poisson_stays_below_two(self):
        norms = boundedness_experiment(poisson(), [10, 50, 100])
        assert np.all(norms <= 2.0 + 1e-12)
        assert np.max(norms) / np.min(norms) < 10.0

    def test_fractional_grows_like_sqrt(self):
        norms = boundedness_experiment(fractional_power(0.5), [1, 100])
        assert abs(norms[-1] - 10.0) <= 1e-6
        assert norms[-1] > 10.0 * norms[0] - 1e-9

    def test_linear_diverges(self):
        norms = boundedness_experiment(linear([1.0]), [1, 10, 100])
        assert np.allclose(norms, [1.0, 10.0, 100.0])

    def test_two_variable_linear_without_dense_model(self):
        # the dense Fourier model would hold (2K+1)^2 x (2K+1)^2 generators
        norms = boundedness_experiment(linear([1.0, 1.0]), [1, 10, 50])
        assert np.allclose(norms, [2.0, 20.0, 100.0])

    def test_bounded_composite(self):
        psi = cone_combine([(0.5, poisson()), (0.25, poisson())])
        norms = boundedness_experiment(psi, [10, 100])
        assert np.max(norms) / np.min(norms) < 10.0


class TestConvergence:
    def test_rescaled_poisson_first_order(self):
        ks = [1, 10, 100, 1000, 10000]
        seq = [diagonal_lift(poisson(), [1.0 / k]) for k in ks]
        A = make_commuting_random(1, 6, seed=17)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(6)
        x = x / np.linalg.norm(x)
        res = convergence_experiment(seq, A, x)
        assert res[-1] <= 1e-3
        # first-order decay once e^{s/k}-1 is close to s/k; k=1 is
        # pre-asymptotic so only the later decade ratios sit near 10
        ratios = res[:-1] / res[1:]
        assert np.all(ratios[1:] > 5.0)
        assert abs(ratios[-1] - 10.0) < 1.0

    def test_scaled_fractional_linear_decay(self):
        ks = [1, 4, 16, 64]
        seq = [cone_combine([(1.0 / k, fractional_power(0.5))]) for k in ks]
        A = make_commuting_random(1, 4, seed=19)
        x = np.ones(4)
        res = convergence_experiment(seq, A, x)
        assert np.allclose(res[:-1] / res[1:], 4.0, rtol=1e-10)

    def test_non_decaying_sequence_rejected(self):
        seq = [poisson(), poisson()]
        A = make_commuting_random(1, 3, seed=2)
        with pytest.raises(ValueError):
            convergence_experiment(seq, A, np.ones(3))
