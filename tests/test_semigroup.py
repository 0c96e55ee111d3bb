"""Generator tuples, semigroup evaluation, bounds, ray defect."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, schur, sqrtm
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, xlogy

import bpcalc
from bpcalc import calculus
from bpcalc import semigroup as S
from bpcalc.bernstein import fractional_power
from bpcalc.calculus import apply_psi


class TestConstruction:
    def test_scalar_point_box(self):
        A = S.make_commuting_random(1, 1, seed=0, spectral_box=((-1.0, -1.0), (0.0, 0.0)))
        assert A.n == 1 and A.d == 1
        assert A.generators[0][0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert A.bounds[0] == pytest.approx(1.0, abs=1e-9)

    def test_random_tuple_commutes(self):
        A = S.make_commuting_random(2, 4, seed=7)
        top = max(np.linalg.norm(g, 2) for g in A.generators)
        assert A.commutator_residual <= 1e-10 * top ** 2

    def test_spectral_data_reproduces_diagonals(self):
        A = S.make_commuting_random(3, 6, seed=11)
        for j in range(3):
            ev = np.sort_complex(np.linalg.eigvals(A.generators[j]))
            drawn = np.sort_complex(A.spectral.joint[:, j])
            assert np.max(np.abs(ev - drawn)) < 1e-8

    @pytest.mark.parametrize("factor,accepted", [(0.9, True), (1.1, False)])
    def test_spectral_check_reads_the_two_norm(self, factor, accepted):
        # the generator P D P^-1 + cI leaves E = -cI: ||E||_2 = c, ||E||_F =
        # 2c at d = 4, so c = 0.9 cap is accepted although ||E||_F > cap
        spec = S.make_commuting_random(1, 4, seed=2).spectral
        G = spec.apply(spec.joint[:, 0])
        cap = S._SPECTRAL_REL * np.linalg.norm(G, 2) + 1e-13
        shifted = G + factor * cap * np.eye(4)
        assert np.linalg.norm(factor * cap * np.eye(4)) > cap
        if accepted:
            assert S.make_tuple([shifted], spectral=spec).n == 1
        else:
            with pytest.raises(ValueError, match="does not reproduce"):
                S.make_tuple([shifted], spectral=spec)

    def test_spectral_check_past_squared_float_range(self):
        # entries past about 1.34e154, where the squares in a Frobenius norm
        # overflow: the norms stay finite, so wrong spectral data is caught
        spec = S.SpectralData(np.array([[-1.0], [-1.0]]), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spectral data does not "
                                                 "reproduce generator 0"):
                S.make_tuple([np.diag([-2e154, -3e154])], spectral=spec)

    def test_frobenius_of_a_stack(self):
        rng = np.random.default_rng(3)
        G = (rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))) \
            * 10.0 ** rng.integers(-100, 100, size=(6, 1, 1))
        np.testing.assert_array_equal(S._frobenius(G),
                                      np.linalg.norm(G, axis=(-2, -1)))
        huge = np.array([np.diag([3e200, 4e200]), np.diag([-3e-200, 4e-200j])])
        np.testing.assert_allclose(S._frobenius(huge), [5e200, 5e-200], rtol=1e-15)

    @pytest.mark.parametrize("build,most", [
        (lambda: S.make_commuting_random(1, 48, seed=1), 0),
        (lambda: S.make_jordan_polynomial(1, 16, seed=1), 0),
        # one commutator residual, no generator norm
        (lambda: S.make_commuting_random(2, 24, seed=1), 1),
    ], ids=["spectral", "jordan", "pair"])
    def test_norms_only_past_the_cheap_bound(self, build, most, monkeypatch):
        calls = []
        norm2 = S._norm2

        def counted(X):
            calls.append(1)
            return norm2(X)

        monkeypatch.setattr(S, "_norm2", counted)
        A = build()
        assert len(calls) == most
        if A.n == 2:
            # the residual stays the exact 2-norm of the commutator
            G, H = A.generators
            assert A.commutator_residual == norm2(G @ H - H @ G)

    def test_conditioning_cap(self):
        for seed in range(5):
            A = S.make_commuting_random(2, 8, seed=seed)
            assert A.spectral.cond <= 20.0 * (1 + 1e-9)

    def test_non_commuting_rejected(self):
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        Y = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="not commuting"):
            S.make_tuple([X - 2 * np.eye(2), Y - 2 * np.eye(2)])

    def test_right_half_plane_rejected(self):
        with pytest.raises(ValueError, match="Re > 0"):
            S.make_tuple([np.array([[1.0]])])
        with pytest.raises(ValueError):
            S.make_commuting_random(1, 2, seed=0, spectral_box=((-1.0, 0.5), (0.0, 0.0)))

    def test_jordan_polynomial_tuple(self):
        A = S.make_jordan_polynomial(2, 5, seed=3)
        assert A.commutator_residual <= 1e-12
        assert A.spectral is None
        # one shared nilpotent part: strictly upper triangular off-diagonal
        for g in A.generators:
            assert np.allclose(np.tril(g, -1), 0.0)
            assert len(set(np.round(np.diag(g), 10))) == 1

    def test_adjoint_round_trip(self):
        A = S.make_commuting_random(2, 4, seed=5)
        B = S.adjoint(S.adjoint(A))
        for j in range(2):
            assert np.allclose(B.generators[j], A.generators[j], atol=1e-12)


class TestReadOnlyGenerators:
    def test_caller_mutation_leaves_tuple_unchanged(self):
        G = np.diag([-1 + 0j, -2])
        A = S.make_tuple([G])
        G[0, 0] = 5
        assert A.generators[0][0, 0] == -1
        assert A.bounds == (1.0,) and A.bound_kinds == ("lognorm",)
        with pytest.raises(ValueError):
            A.generators[0][0, 0] = 5
        assert A.generators[0][0, 0] == -1

    def test_read_only_view_is_copied(self):
        # a read-only view of a writable array still changes through its base
        G = np.diag([-1 + 0j, -2])
        V = G.view()
        V.flags.writeable = False
        A = S.make_tuple([V])
        G[0, 0] = 5
        assert A.generators[0] is not V and A.generators[0][0, 0] == -1
        assert A.bound_kinds == ("lognorm",)

    @pytest.mark.parametrize("build", [
        lambda: S.make_commuting_random(2, 4, seed=5),
        lambda: S.make_jordan_polynomial(2, 4, seed=3),
        lambda: S.adjoint(S.make_jordan_polynomial(1, 4, seed=3)),
        lambda: S.fourier_translation_model(2)],
        ids=["random", "jordan", "adjoint", "fourier"])
    def test_read_only_arrays_are_shared(self, build):
        # the constructors freeze what they build, and a tuple rebuilt from
        # another tuple's generators keeps them without a copy
        A = build()
        B = S.make_tuple(A.generators)
        for G, H in zip(A.generators, B.generators):
            assert not G.flags.writeable and H is G


class TestSpectralConditioning:
    def test_cond_is_derived_from_basis(self):
        # cond(P) = 9.03 here: a caller-given cond = 1 would have certified
        # M = 1 against a true sup of ||e^{tA}|| near 3.3
        P = S.make_commuting_random(1, 6, seed=1).spectral
        spec = S.SpectralData(joint=P.joint, basis=P.basis)
        assert spec.cond == float(np.linalg.cond(P.basis))
        assert spec.cond == pytest.approx(9.03, abs=0.01)
        with pytest.raises(TypeError):
            S.SpectralData(joint=P.joint, basis=P.basis, cond=1.0)
        A = S.make_tuple([spec.apply(P.joint[:, 0])], spectral=spec)
        assert A.bounds == (spec.cond,) and A.bound_kinds == ("spectral",)
        sup = max(np.linalg.norm(expm(t * A.generators[0]), 2)
                  for t in np.linspace(0.0, 5.0, 101))
        assert 3.0 < sup <= A.bounds[0]

    def test_one_conditioning_svd_per_random_tuple(self, monkeypatch):
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        A = S.make_commuting_random(2, 8, seed=3)
        assert len(calls) == 1 and A.bounds == (A.spectral.cond,) * 2


def looped_random(n, d, seed, spectral_box=((-4.0, -0.05), (-3.0, 3.0)),
                  max_cond=20.0):
    """The one-tuple draw the stacked draw replaced, kept as its reference:
    a retry loop on one basis, then make_tuple."""
    (re_lo, re_hi), (im_lo, im_hi) = spectral_box
    rng = np.random.default_rng(seed)
    for _ in range(10):
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        U, _, Vh = np.linalg.svd(raw)
        target = rng.uniform(1.0, max_cond) if d > 1 else 1.0
        sigma = np.geomspace(1.0, 1.0 / target, d)
        P = (U * sigma) @ Vh
        joint = (rng.uniform(re_lo, re_hi, (d, n))
                 + 1j * rng.uniform(im_lo, im_hi, (d, n)))
        spec = S.SpectralData(joint=joint, basis=P)
        if spec.cond <= max_cond * (1.0 + 1e-9):
            break
    else:
        raise np.linalg.LinAlgError(
            "could not draw a basis with bounded conditioning")
    gens = [P @ np.diag(joint[:, j]) @ spec.inverse for j in range(n)]
    return S.make_tuple(gens, spectral=spec)


def assert_same_tuple(A, B):
    assert (A.n, A.d) == (B.n, B.d)
    for G, H in zip(A.generators, B.generators, strict=True):
        assert np.array_equal(G, H)
    for part in ("basis", "inverse", "joint"):
        assert np.array_equal(getattr(A.spectral, part),
                              getattr(B.spectral, part))
    assert A.spectral.cond == B.spectral.cond
    assert A.bounds == B.bounds and A.bound_kinds == B.bound_kinds
    assert A.commutator_residual == B.commutator_residual


def poison_first_draw(monkeypatch, victims):
    """Make np.linalg.cond report inf for the bases in ``victims``, the first
    draws of their seeds, so that those seeds draw again."""
    real = np.linalg.cond

    def cond(P, *args, **kwargs):
        out = np.array(real(P, *args, **kwargs))
        for idx in np.ndindex(P.shape[:-2]):
            if any(np.array_equal(P[idx], V) for V in victims):
                out[idx] = np.inf
        return out if out.ndim else float(out)

    monkeypatch.setattr(np.linalg, "cond", cond)


class TestStackedDraw:
    """make_commuting_random_stack against the looped one-tuple draw."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 5, 48])
    def test_one_seed_matches_loop(self, n, d):
        for seed in (0, 3, [11, 4, 2], [12, 7, 199]):
            assert_same_tuple(S.make_commuting_random(n, d, seed=seed),
                              looped_random(n, d, seed))

    @pytest.mark.parametrize("n,d", [(1, 6), (2, 5), (3, 1), (2, 48)])
    def test_stack_matches_loop(self, n, d):
        seeds = [[11, 7, t] for t in range(12)]
        box = ((-2.0, -0.5), (-1.0, 1.0))
        stack = S.make_commuting_random_stack(n, d, seeds, box, 8.0)
        assert (len(stack), stack.n, stack.d) == (len(seeds), n, d)
        for G in stack.generators:
            assert G.shape == (len(seeds), d, d) and not G.flags.writeable
        for t, seed in enumerate(seeds):
            A = stack[t]
            assert_same_tuple(A, looped_random(n, d, seed, box, 8.0))
            assert stack.bound(t) == A.bounds[0]
            for G in A.generators:
                assert not G.flags.writeable and G.base is None

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            S.make_commuting_random_stack(2, 3, [])

    def test_cond_retry_matches_loop(self, monkeypatch):
        seeds = [[5, 1, t] for t in range(6)]
        plain = S.make_commuting_random_stack(2, 4, seeds)
        victims = [plain[1].spectral.basis, plain[4].spectral.basis]
        poison_first_draw(monkeypatch, victims)
        stack = S.make_commuting_random_stack(2, 4, seeds)
        for t, seed in enumerate(seeds):
            A = stack[t]
            assert_same_tuple(A, looped_random(2, 4, seed))
            # the retried seeds drew a second basis, the others kept theirs
            redrawn = not np.array_equal(A.spectral.basis, plain[t].spectral.basis)
            assert redrawn == (t in (1, 4))

    def test_cond_retries_run_out(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond",
                            lambda P: np.full(np.shape(P)[:-2], np.inf))
        with pytest.raises(np.linalg.LinAlgError, match="bounded conditioning"):
            S.make_commuting_random_stack(1, 3, [1, 2])

    def test_first_failing_tuple_is_reported(self):
        # tuple 1 misses its spectral data, tuple 2 does not commute: the
        # loop would have stopped at tuple 1, so its error is the one raised
        X = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        D = [np.diag([-1.0, -2.0]).astype(complex),
             np.diag([-3.0, -4.0]).astype(complex)]
        gens = [np.stack([D[0], D[0] - 0.5 * np.eye(2), X - 2 * np.eye(2)]),
                np.stack([D[1], D[1], X.T - 2 * np.eye(2)])]
        joint = np.stack([np.array([[-1.0, -3.0], [-2.0, -4.0]], dtype=complex)] * 3)
        eye = np.stack([np.eye(2, dtype=complex)] * 3)
        with pytest.raises(ValueError, match="does not reproduce generator 0"):
            S._check_stack(gens, (joint, eye, eye))
        residual = S._check_stack([g[:1] for g in gens],
                                  (joint[:1], eye[:1], eye[:1]))
        assert residual.tolist() == [0.0]
        with pytest.raises(ValueError, match="not commuting"):
            S._check_stack([g[2:] for g in gens], (joint[2:], eye[2:], eye[2:]))

    def test_checks_run_once_per_stack(self, monkeypatch):
        real = S._check_stack
        calls = []

        def counted(gens, spectral=None):
            calls.append(gens[0].shape[0])
            return real(gens, spectral)

        monkeypatch.setattr(S, "_check_stack", counted)
        S.make_commuting_random_stack(2, 4, [1, 2, 3])
        assert calls == [3]


class TestRandomArguments:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(d=0), "d must be a positive integer"),
        (dict(n=0), "n must be a positive integer"),
        (dict(d=2.0), "d must be a positive integer"),
        (dict(max_cond=0.5), "max_cond"),
        (dict(max_cond=float("nan")), "max_cond"),
        (dict(max_cond=float("inf")), "max_cond"),
        (dict(spectral_box=((float("nan"), -1.0), (0.0, 1.0))), "finite"),
        (dict(spectral_box=((-1.0, -0.5), (0.0, float("inf")))), "finite"),
        (dict(spectral_box=((-1.0, -2.0), (0.0, 1.0))), "low to high"),
        (dict(spectral_box=((-2.0, -1.0), (1.0, 0.0))), "low to high"),
        (dict(spectral_box=((-1.0, 0.5), (0.0, 0.0))), "left half-plane"),
    ], ids=["d0", "n0", "d-float", "cond-half", "cond-nan", "cond-inf",
            "box-nan", "box-inf", "re-reversed", "im-reversed", "re-positive"])
    def test_typed_error_before_drawing(self, kwargs, match, monkeypatch):
        def no_draws(*args, **kw):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        args = dict(n=2, d=3, seed=1)
        args.update(kwargs)
        with pytest.raises(ValueError, match=match):
            S.make_commuting_random(**args)


class TestSemigroupEvaluation:
    def test_zero_parameter_is_identity(self):
        A = S.make_commuting_random(2, 4, seed=1)
        assert np.allclose(S.semigroup_apply(A, [0.0, 0.0]), np.eye(4))

    def test_scalar_product_formula(self):
        A = S.make_tuple([np.array([[-1.0]]), np.array([[-2.0]])])
        T = S.semigroup_apply(A, [1.0, 1.0])
        assert T[0, 0] == pytest.approx(np.exp(-3.0), abs=1e-14)

    def test_factor_order_irrelevant(self):
        rng = np.random.default_rng(23)
        A = S.make_commuting_random(3, 5, seed=23)
        for _ in range(5):
            u = rng.uniform(0.0, 2.0, 3)
            direct = S.semigroup_apply(A, u)
            swapped = np.eye(5, dtype=complex)
            for j in (2, 0, 1):
                swapped = swapped @ expm(u[j] * A.generators[j])
            assert np.linalg.norm(direct - swapped, 2) <= 1e-10 * np.linalg.norm(direct, 2)

    def test_semigroup_law(self):
        rng = np.random.default_rng(4)
        A = S.make_commuting_random(2, 4, seed=4)
        for _ in range(10):
            u, v = rng.uniform(0.0, 1.5, 2), rng.uniform(0.0, 1.5, 2)
            lhs = S.semigroup_apply(A, u + v)
            rhs = S.semigroup_apply(A, u) @ S.semigroup_apply(A, v)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * max(1.0, np.linalg.norm(lhs, 2))

    def test_spectral_path_matches_expm(self):
        A = S.make_commuting_random(2, 6, seed=9)
        u = np.array([0.7, 1.3])
        spectral = S.semigroup_apply(A, u)
        direct = expm(u[0] * A.generators[0]) @ expm(u[1] * A.generators[1])
        assert np.linalg.norm(spectral - direct, 2) <= 1e-9 * np.linalg.norm(direct, 2)

    def test_negative_parameter_rejected(self):
        A = S.make_commuting_random(1, 2, seed=2)
        with pytest.raises(ValueError):
            S.semigroup_apply(A, [-0.1])

    def test_norm_bounded_by_certificates(self):
        rng = np.random.default_rng(17)
        A = S.make_commuting_random(2, 5, seed=17)
        cap = np.prod(A.bounds) * (1 + 1e-8)
        for _ in range(100):
            u = rng.uniform(0.0, 5.0, 2)
            assert np.linalg.norm(S.semigroup_apply(A, u), 2) <= cap


class TestBoundCertificates:
    def test_normal_generator_bound_is_one(self):
        # unitary diagonalization: semigroup is a contraction
        A = S.fourier_translation_model(3)
        assert A.bounds[0] == pytest.approx(1.0)

    def test_scalar_zero_generator(self):
        A = S.make_tuple([np.zeros((1, 1))])
        assert A.bounds[0] == pytest.approx(1.0, abs=1e-9)
        assert S._sampled_bound(A.generators[0]) == pytest.approx(1.0, abs=1e-9)

    def test_jordan_block_bound_finite(self):
        J = np.array([[-1.0, 1.0], [0.0, -1.0]])
        A = S.make_tuple([J])
        M = A.bounds[0]
        assert M >= 1.0
        ts = np.linspace(0.0, 20.0, 400)
        sampled = max(np.linalg.norm(expm(t * J), 2) for t in ts)
        assert M >= sampled / (1 + 1e-6)
        assert M <= 1.5 * sampled

    def test_diverging_generator_rejected(self):
        with pytest.raises(ValueError):
            S.make_tuple([np.array([[0.5]])])

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 0.5],
                             ids=["nan", "inf", "below-one"])
    def test_bad_given_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="finite and >= 1"):
            S.make_tuple([-np.eye(2)], bounds=[bound])


def no_expm(monkeypatch):
    def refuse(_):
        raise AssertionError("expm called")
    monkeypatch.setattr(S, "expm", refuse)


def jordan(d, n=2):
    # polynomials in one nilpotent block, omega <= -1.5 + 0.6 + 0.3 < 0
    N = np.diag(np.ones(d - 1), 1)
    gens = [-1.5 * np.eye(d) + (0.6 + 0.2j) * N + 0.3 * N @ N,
            (-2.0 + 0.5j) * np.eye(d) + 0.4 * N - 0.2j * N @ N]
    return gens[:n]


def triangular(d, n=2):
    # distinct diagonal entries, so diagonalizable; the superdiagonal makes
    # it non-normal; omega <= -1 + 0.5 < 0
    A1 = np.diag(-1.0 - np.arange(d) / d + 1j * np.linspace(-1.0, 1.0, d)) \
        + 0.5 * np.diag(np.ones(d - 1), 1)
    return [A1, 0.5 * A1 + 0.25j * np.eye(d)][:n]


def generator_only_sweep():
    """Generators of Jordan tuples and of diagonalizable tuples stripped of
    their spectral data, with log-norms of both signs."""
    gens = []
    for seed in range(6):
        gens += S.make_jordan_polynomial(2, 4 + 3 * seed, seed=seed).generators
        gens += S.make_commuting_random(
            2, 3 + seed, seed=seed, spectral_box=((-4.0, -1.0), (-2.0, 2.0)),
            max_cond=2.0).generators
        gens += S.make_commuting_random(1, 3 + seed, seed=seed).generators
    return gens


class TestLogNormRoute:
    def test_lognorm_bound_equals_sampled_without_expm(self, monkeypatch):
        gens = [g for g in generator_only_sweep() if S.log_norm(g) <= 0.0]
        assert len(gens) >= 10
        sampled = [S._sampled_bound(g) for g in gens]
        no_expm(monkeypatch)
        for g, ref in zip(gens, sampled):
            A = S.make_tuple([g])
            assert A.bound_kinds == ("lognorm",)
            assert A.bounds[0] == ref == 1.0

    def test_positive_lognorm_still_samples(self):
        gens = [g for g in generator_only_sweep() if S.log_norm(g) > 0.0]
        assert len(gens) >= 4
        for g in gens:
            A = S.make_tuple([g])
            assert A.bound_kinds == ("sampled",)
            assert A.bounds[0] == S._sampled_bound(g)

    @pytest.mark.parametrize("build,expected", [
        (lambda: S.make_tuple([np.array([[-1.0, 4.0], [0.0, -1.0]])]),
         ("0x1.95e07566f50efp+0",)),
        (lambda: S.make_jordan_polynomial(2, 16, seed=[13, 5]),
         ("0x1.05e378c9846abp+0", "0x1.0000000000000p+0")),
        (lambda: S.make_tuple(S.make_commuting_random(1, 8, seed=2).generators),
         ("0x1.024bd0f1b7485p+2",)),
    ], ids=["jordan-block", "jordan-poly", "stripped"])
    def test_sampled_values_unchanged(self, build, expected):
        # bounds of tuples with a sampled generator, as the squared octaves
        # give them; the per-sample loop (sampled_reference) gave each one
        # a last bit higher
        assert build().bounds == tuple(float.fromhex(h) for h in expected)

    def test_bound_kinds(self):
        J = np.array([[-1.0, 4.0], [0.0, -1.0]])
        cases = [
            (S.make_commuting_random(2, 4, seed=1), ("spectral", "spectral")),
            (S.fourier_translation_model(2), ("spectral",)),
            (S.make_tuple(jordan(5)), ("lognorm", "lognorm")),
            (S.make_tuple([J, 0.5 * J - 0.5 * np.eye(2)]),
             ("sampled", "lognorm")),
            (S.make_tuple([J], bounds=[3.0]), ("given",)),
        ]
        for A, kinds in cases:
            assert A.bound_kinds == kinds
            assert S.adjoint(A).bound_kinds == kinds
            assert S.adjoint(A).bounds == A.bounds

    def test_bad_bound_kind_rejected(self):
        # a caller cannot name the kind of a passed bound, so no kind can be
        # wrong; a bound count that is wrong is still rejected
        with pytest.raises(TypeError, match="bound_kinds"):
            S.make_tuple([-np.eye(2)], bounds=[1.0], bound_kinds=["guessed"])
        with pytest.raises(ValueError, match="per generator"):
            S.make_tuple([-np.eye(2)], bounds=[1.0, 1.0])

    def test_passed_bound_recorded_as_given(self):
        # ||e^A||_2 = 1.558 here, so M = 1 is wrong; it was recorded as a
        # certified-looking "lognorm" when the caller named that kind
        with pytest.raises(TypeError, match="bound_kinds"):
            S.make_tuple([[[-1, 4], [0, -1]]], bounds=[1.0],
                         bound_kinds=["lognorm"])
        A = S.make_tuple([[[-1, 4], [0, -1]]], bounds=[1.0])
        assert A.bounds == (1.0,) and A.bound_kinds == ("given",)
        assert S.adjoint(A).bound_kinds == ("given",)
        assert np.linalg.norm(expm(A.generators[0]), 2) > 1.55
        assert S.make_tuple(A.generators).bound_kinds == ("sampled",)

    @pytest.mark.parametrize("seed", [[13, 5]] + list(range(10)))
    @pytest.mark.parametrize("d", [16, 30, 40])
    def test_jordan_default_box_builds(self, d, seed):
        # with Re b0 up to -0.3, (2, 30, 4), (2, 40, 4) and (2, 16, [13, 5])
        # drew a generator whose sampled norms passed the 1e6 cap
        A = S.make_jordan_polynomial(2, d, seed=seed)
        assert all(1.0 <= b < 1e6 for b in A.bounds)
        for g, kind in zip(A.generators, A.bound_kinds):
            assert kind == ("lognorm" if S.log_norm(g) <= 0.0 else "sampled")

    @pytest.mark.parametrize("family", [jordan, triangular])
    @pytest.mark.parametrize("d", [120, 180, 250])
    def test_large_d_builds_with_lognorm(self, monkeypatch, family, d):
        no_expm(monkeypatch)
        A = S.make_tuple(family(d))
        assert A.bounds == (1.0, 1.0)
        assert A.bound_kinds == ("lognorm", "lognorm")

    def test_d120_representations(self):
        # the Jordan family is one block in the basis I; the triangular
        # family's eigenbasis has a condition number near 1e30, past the cap
        # of the block profiles, so it takes the expm-only route of one
        # dense block over the whole space
        rep = calculus._representation(S.make_tuple(jordan(120, n=1)))
        assert isinstance(rep, calculus._Profiles) and rep.cond == 120.0
        rep = calculus._representation(S.make_tuple(triangular(120, n=1)))
        assert isinstance(rep, calculus._Profiles) and rep.jets == []
        assert [len(N[0]) for _, N in rep.dense] == [120]
        assert np.array_equal(rep.basis, np.eye(120))

    @pytest.mark.parametrize("family", [jordan, triangular])
    def test_schur_envelope_covers_finer_grid(self, family):
        # the Schur envelope of a dense block is certified between its grid
        # nodes: a 16 times finer resampling of the polynomial factor
        # sum_k (r ||N||)^k / k! e^{-half r} stays below ``far``
        B = family(120, n=1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, far = calculus._schur_envelope(B, 1.0)
        T = schur(B, output="complex")[0]
        nrm = np.linalg.norm(np.triu(T, 1), 2)
        half = -0.5 * np.max(T.diagonal().real)
        assert rho == -half and np.isfinite(far)
        grid, h = np.linspace(0.0, 4.0 * 121 / half, 4096, retstep=True)
        k = np.arange(120)[:, None]
        fine = max(np.max(np.logaddexp.reduce(
            xlogy(k, (grid + s) * nrm) - gammaln(k + 1.0), axis=0) - half * (grid + s))
            for s in np.arange(16) * h / 16)
        assert np.exp(fine) <= far <= 1.2 * np.exp(fine)

    @pytest.mark.parametrize("family", [jordan, triangular])
    def test_apply_psi_d120(self, family):
        A = S.make_tuple(family(120, n=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = apply_psi(fractional_power(0.5), A)
        ref = -sqrtm(-A.generators[0])
        assert np.linalg.norm(F - ref, 2) <= 1e-8 * np.linalg.norm(ref, 2)


def sampled_reference(g):
    """The per-sample loop the squared octaves replaced, kept as their
    reference: one expm and one 2-norm per node, each octave's nodes from
    their own geomspace."""
    sup, flat = 1.0, 0
    t_lo = 1e-3
    for _ in range(40):
        ts = np.geomspace(t_lo, 2.0 * t_lo, 8, endpoint=False)
        octave = max(float(np.linalg.norm(expm(t * g), 2)) for t in ts)
        if octave > 1e6:
            raise ValueError("semigroup norms diverge; generator rejected")
        if octave <= sup * (1.0 + 1e-9):
            flat += 1
            if flat >= 3 and octave < 0.5 * sup:
                break
        else:
            sup, flat = octave, 0
        t_lo *= 2.0
    return 1.0 if sup <= 1.0 + 1e-9 else 1.01 * sup


def sampled_generators(source):
    """The generators with a positive log-norm, so a sampled bound, of one
    source: the generator-only sweep, the stripped tuples of the benchmark's
    generator workload at seeds 1-5, or the Jordan tuples of
    test_jordan_default_box_builds."""
    if source == "sweep":
        gens = generator_only_sweep()
    elif source == "stripped":
        gens = [g for seed in range(1, 6) for i in range(3)
                for k, (n, d) in enumerate([(1, 8), (1, 16), (1, 24), (1, 32),
                                            (2, 8)])
                for g in S.make_commuting_random(
                    n, d, seed=[seed, i, 100 + k],
                    spectral_box=((-4.0, -0.5), (-3.0, 3.0)),
                    max_cond=4.0).generators]
    else:
        gens = [g for d in (16, 30, 40) for seed in [[13, 5]] + list(range(10))
                for g in S.make_jordan_polynomial(2, d, seed=seed).generators]
    return [g for g in gens if S.log_norm(g) > 0.0]


def count_expm(monkeypatch):
    calls = []
    real = S.expm
    monkeypatch.setattr(S, "expm",
                        lambda M: calls.append(M.shape) or real(M))
    return calls


class TestSquaredSampling:
    @pytest.mark.parametrize("source", ["sweep", "stripped", "jordan"])
    def test_matches_the_reference(self, source):
        gens = sampled_generators(source)
        assert len(gens) >= 6
        for g in gens:
            ref = sampled_reference(g)
            assert ref > 1.0
            assert abs(S._sampled_bound(g) - ref) <= 1e-13 * ref

    def test_forty_octaves_of_squaring(self, monkeypatch):
        # the sup creeps up as e^{1e-9 t} through all 40 octaves; the chain
        # is formed at t = 1e-3, afresh at t = 0.512 (||g||_1 = 2) and again
        # 20 squarings later.  Without the second re-forming the last 30
        # octaves drifted 5.7e-8 from the reference, without either 4.4e-5
        g = np.array([[1e-9, 1.0], [0.0, -1.0]])
        ref = sampled_reference(g)
        calls = count_expm(monkeypatch)
        assert abs(S._sampled_bound(g) - ref) <= 1e-9 * ref
        assert calls == [(8, 2, 2)] * 3

    def test_stiff_generator_reformed_by_count(self, monkeypatch):
        # the fast part makes t ||g||_1 >= 1 from the first octave on, so
        # only the count of squarings re-forms the chain, at octave 20;
        # without it the slow block drifted 4.4e-5 from the reference
        g = np.zeros((3, 3))
        g[0, 0], g[1:, 1:] = -1e4, [[1e-9, 1.0], [0.0, -1.0]]
        ref = sampled_reference(g)
        assert ref == sampled_reference(g[1:, 1:])
        calls = count_expm(monkeypatch)
        assert abs(S._sampled_bound(g) - ref) <= 1e-9 * ref
        assert calls == [(8, 3, 3)] * 2

    @pytest.mark.parametrize("source", ["sweep", "stripped", "jordan"])
    def test_two_expm_per_sampled_generator(self, source, monkeypatch):
        gens = sampled_generators(source)
        calls = count_expm(monkeypatch)
        for g in gens:
            del calls[:]
            assert S.make_tuple([g]).bound_kinds == ("sampled",)
            assert 1 <= len(calls) <= 2
            assert all(shape == (8,) + g.shape for shape in calls)
        del calls[:]
        assert S.make_tuple(jordan(16)).bound_kinds == ("lognorm", "lognorm")
        assert calls == []

    def test_same_generators_rejected(self):
        # Jordan blocks b0 I + a1 N + a2 N^2 with Re b0 up to -0.3: the cap
        # of 1e6 rejects some of them
        N = np.diag(np.ones(31), 1)
        outcomes = {"kept": 0, "rejected": 0}
        for seed in range(32):
            rng = np.random.default_rng(seed)
            b0 = rng.uniform(-3.0, -0.3) + 1j * rng.uniform(-1.0, 1.0)
            g = b0 * np.eye(32) + rng.uniform(0.3, 1.0) * N \
                + rng.uniform(0.0, 0.5) * N @ N
            if S.log_norm(g) <= 0.0:
                continue
            try:
                ref = sampled_reference(g)
            except ValueError:
                outcomes["rejected"] += 1
                with pytest.raises(ValueError, match="norms diverge"):
                    S._sampled_bound(g)
            else:
                outcomes["kept"] += 1
                assert abs(S._sampled_bound(g) - ref) <= 1e-13 * ref
        assert min(outcomes.values()) >= 2, outcomes

    def test_huge_entries_diverge(self):
        # expm of t g at t ||g|| ~ 1e151 has non-finite entries, which the
        # sampler takes for divergence instead of handing them to an SVD
        with pytest.raises(ValueError, match="semigroup norms diverge"):
            S.make_tuple([[[2e154j, 1], [0, 2e154j]]])

    def test_nilpotent_generator_still_diverges(self):
        with pytest.raises(ValueError, match="semigroup norms diverge"):
            S.make_tuple([[[0, 1], [0, 0]]])


class TestFourierModel:
    def test_small_cutoff_modes(self):
        A = S.fourier_translation_model(1)
        assert np.allclose(np.diag(A.generators[0]), [-1j, 0.0, 1j])
        assert A.bounds == (1.0,)

    def test_unitary_semigroup(self):
        A = S.fourier_translation_model(4)
        for t in (0.1, 1.0, 7.3):
            assert np.linalg.norm(S.semigroup_apply(A, [t]), 2) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_grid_count(self):
        A = S.fourier_translation_model(2, n=2)
        assert A.d == 25
        assert A.spectral.joint.shape == (25, 2)
        pairs = {(z1.imag, z2.imag) for z1, z2 in A.spectral.joint}
        assert len(pairs) == 25


class TestRayDefect:
    def test_half_turn_value(self):
        assert S.holomorphy_defect_ray(np.pi) == pytest.approx(1.0, abs=1e-6)

    def test_quarter_turn_value(self):
        assert S.holomorphy_defect_ray(np.pi / 2) == pytest.approx(2.0, abs=1e-6)

    def test_three_quarter_between(self):
        b = S.holomorphy_defect_ray(3 * np.pi / 4)
        assert 1.0 + 1e-3 < b < 2.0 - 1e-3

    def test_nonincreasing_toward_pi(self):
        thetas = np.linspace(np.pi / 2, np.pi, 50)
        vals = [S.holomorphy_defect_ray(t) for t in thetas]
        assert np.all(np.diff(vals) <= 1e-9)

    def test_symmetric_about_pi(self):
        b1 = S.holomorphy_defect_ray(3 * np.pi / 4)
        b2 = S.holomorphy_defect_ray(5 * np.pi / 4)
        assert b1 == pytest.approx(b2, abs=1e-8)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            S.holomorphy_defect_ray(0.3)

    @pytest.mark.parametrize("theta, same", [
        (-np.pi, np.pi), (-np.pi / 2, 3 * np.pi / 2),
        (5 * np.pi / 4 + 2 * np.pi, 5 * np.pi / 4)],
        ids=["minus-pi", "minus-half-pi", "plus-two-pi"])
    def test_angle_read_modulo_two_pi(self, theta, same):
        assert S.holomorphy_defect_ray(theta) == pytest.approx(
            S.holomorphy_defect_ray(same), rel=1e-12)

    def test_point_model_defect(self):
        # a finite spectrum is the diagonal tuple that holds it: its log-norm
        # gives M = 1 and ||I - T(t)|| is the sup over the points
        pts = (-1.0, -2.0 + 1.0j)
        model = S.make_tuple([np.diag(pts)])
        assert (model.bounds, model.bound_kinds) == ((1.0,), ("lognorm",))
        assert sorted(np.linalg.eigvals(model.generators[0]).tolist(),
                      key=abs) == list(pts)
        t = 0.3
        expected = max(abs(1 - np.exp(t * z)) for z in pts)
        defect = np.linalg.norm(np.eye(2) - S.semigroup_apply(model, [t]), 2)
        assert defect == pytest.approx(expected, rel=1e-12)
        assert np.linalg.norm(np.eye(2) - S.semigroup_apply(model, [0.0])) == 0.0

    def test_matches_dense_reference(self):
        # sup over (0, rho_max] of |1 - e^{rho e^{i theta}}| by a scan twenty
        # times denser and a bounded scalar maximization on its bracket
        for theta in np.linspace(np.pi / 2, np.pi, 41):
            c, s = min(np.cos(theta), 0.0), np.sin(theta)
            rho_max = 4.0 * np.pi if c == 0.0 else max(4.0 * np.pi, 21.0 / abs(c))
            grid = np.linspace(0.0, rho_max, 400001)[1:]
            vals = np.abs(1.0 - np.exp(grid * (c + 1j * s)))
            k = int(np.argmax(vals))
            res = minimize_scalar(
                lambda r: -abs(1.0 - np.exp(r * (c + 1j * s))),
                bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]),
                method="bounded", options={"xatol": 1e-12})
            ref = max(float(vals[k]), -res.fun)
            if c < 0:
                ref = max(ref, 1.0 - np.exp(c * rho_max))
            assert S.holomorphy_defect_ray(theta) == pytest.approx(ref, abs=1e-10)

    def test_near_vertical_rays(self):
        # the sup sits at the first half period pi / |sin(theta)|; a scan
        # out to 21 / |cos(theta)| alone would step over the oscillation
        for offset in (1e-8, 1e-6, 3e-4, 1e-2):
            for theta in (np.pi / 2 + offset, 3 * np.pi / 2 - offset):
                c, s = np.cos(theta), np.sin(theta)
                rho = np.linspace(0.5, 1.5, 200001) * np.pi / abs(s)
                ref = np.abs(1.0 - np.exp(rho * (c + 1j * s))).max()
                assert S.holomorphy_defect_ray(theta) == pytest.approx(ref, abs=1e-9)

    def test_package_import_leaves_out_scipy_optimize(self):
        src = os.path.dirname(os.path.dirname(bpcalc.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        code = ("import sys, bpcalc, bpcalc.cli; "
                "sys.exit(int('scipy.optimize' in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_model_requires_left_half_plane(self):
        with pytest.raises(ValueError):
            S.make_tuple([np.diag([0.5])])
        with pytest.raises(ValueError, match="closed left half-plane"):
            S._ray_direction(0.1)

    @pytest.mark.parametrize("theta, direction", [
        (np.pi, complex(-1.0, np.sin(np.pi))),
        (-np.pi, complex(-1.0, np.sin(np.pi))),
        (np.pi / 2, 1j), (-np.pi / 2, -1j), (3 * np.pi / 2, -1j),
        (np.pi / 2 + 5e-16, 1j)],
        ids=["pi", "minus-pi", "half-pi", "minus-half-pi", "three-half-pi",
             "near-vertical"])
    def test_ray_direction(self, theta, direction):
        # read modulo 2 pi, and within 1e-15 of the imaginary axis vertical
        assert S._ray_direction(theta) == direction

    @pytest.mark.parametrize("theta", [1000000000000008.9, np.nan, np.inf],
                             ids=["huge", "nan", "inf"])
    def test_angle_rule_reads_modulo_two_pi(self, theta):
        # cos(1000000000000008.9) < 0, but modulo 2 pi its cos is > 0
        with pytest.raises(ValueError, match="closed left half-plane"):
            S.holomorphy_defect_ray(theta)
