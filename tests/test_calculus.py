"""Operator calculus: psi(A), subordination, proof operators."""

import warnings
import zlib

import numpy as np
import pytest
from scipy.linalg import block_diag, expm, logm, sqrtm

from bpcalc import calculus
from bpcalc.bernstein import (cone_combine, diagonal_lift, direct_sum, eval_psi,
                              eval_via_levy, fractional_power, linear, log1m,
                              poisson)
from bpcalc.calculus import (CatalogGapError, _Profiles, apply_psi,
                             apply_psi_spectral, factorization_check,
                             factorization_checks, generator_limit_check,
                             laplace_identity_error, subordinated,
                             v_operator, w_operator, w_operator_bound)
from bpcalc._schur import _THETA
from bpcalc.semigroup import (SpectralData, make_commuting_random,
                              make_jordan_polynomial, make_tuple,
                              semigroup_apply)
from bpcalc._integrate import QuadratureError


def scalar_tuple(value):
    return make_tuple([np.array([[value]], dtype=complex)], bounds=(1.0,))


def opnorm(M):
    return float(np.linalg.norm(M, 2))


def shifted(A, eps):
    # A - eps*I on every generator; joint eigenvalues shift the same way
    gens = tuple(G - eps * np.eye(A.d) for G in A.generators)
    spec = None
    if A.spectral is not None:
        spec = SpectralData(joint=A.spectral.joint - eps,
                            basis=A.spectral.basis)
    return make_tuple(gens, spectral=spec, bounds=A.bounds)


CATALOG_PAIRS = [
    ("frac03", lambda: fractional_power(0.3), 1),
    ("frac05", lambda: fractional_power(0.5), 1),
    ("drift", lambda: fractional_power(1.0), 1),
    ("poisson", poisson, 1),
    ("log1m", log1m, 1),
    ("lift", lambda: diagonal_lift(fractional_power(0.5), [1.0, 0.6]), 2),
    ("dsum", lambda: direct_sum(poisson(), log1m()), 2),
    ("cone", lambda: cone_combine([(0.5, poisson()), (1.2, log1m())]), 1),
]


class TestApplyPsi:
    def test_poisson_atom_identity(self):
        A = make_commuting_random(2, 5, seed=11)
        psi = diagonal_lift(poisson(), [1.0, 0.5])
        lhs = apply_psi(psi, A)
        rhs = semigroup_apply(A, np.array([1.0, 0.5])) - np.eye(5)
        assert opnorm(lhs - rhs) <= 1e-10 * opnorm(rhs)

    def test_linear_is_generator_combination(self):
        A = make_commuting_random(2, 4, seed=3)
        psi = linear([0.7, 0.2])
        expected = 0.7 * A.generators[0] + 0.2 * A.generators[1]
        assert opnorm(apply_psi(psi, A) - expected) <= 1e-12

    @pytest.mark.parametrize("name,build,n", CATALOG_PAIRS)
    def test_integral_route_matches_spectral_route(self, name, build, n):
        psi = build()
        for d, seed in ((3, 5), (6, 17)):
            A = make_commuting_random(n, d, seed=seed)
            via_measure = apply_psi(psi, A, tol=1e-9)
            via_spectrum = apply_psi_spectral(psi, A)
            scale = max(1.0, opnorm(via_spectrum))
            assert opnorm(via_measure - via_spectrum) <= 1e-6 * scale

    def test_commutes_with_semigroup(self):
        rng = np.random.default_rng(29)
        A = make_commuting_random(2, 5, seed=29)
        psi = diagonal_lift(log1m(), [0.8, 0.4])
        F = apply_psi(psi, A)
        for _ in range(5):
            u = rng.uniform(0.0, 2.0, size=2)
            T = semigroup_apply(A, u)
            assert opnorm(F @ T - T @ F) <= 1e-8 * max(1.0, opnorm(F))

    def test_arity_mismatch_rejected(self):
        A = make_commuting_random(2, 3, seed=1)
        with pytest.raises(ValueError):
            apply_psi(log1m(), A)
        with pytest.raises(ValueError):
            apply_psi_spectral(log1m(), A)

    def test_spectral_route_needs_spectral_data(self):
        A = make_jordan_polynomial(1, 4, seed=2)
        with pytest.raises(ValueError):
            apply_psi_spectral(fractional_power(0.5), A)

    def test_shift_approximation_converges(self):
        A = make_commuting_random(1, 4, seed=41)
        psi = fractional_power(0.5)
        rng = np.random.default_rng(41)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = apply_psi_spectral(psi, A) @ x
        errs = [np.linalg.norm(apply_psi_spectral(psi, shifted(A, eps)) @ x - base)
                for eps in (0.4, 0.2, 0.1, 0.05)]
        assert errs[-1] <= 0.2 * errs[0]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_jordan_tolerance_self_consistency(self):
        # no spectral oracle for a nilpotent part: halving the tolerance
        # must not move the answer by more than 10x the coarse tolerance
        A = make_jordan_polynomial(1, 4, seed=8)
        psi = fractional_power(0.5)
        coarse = apply_psi(psi, A, tol=1e-8)
        fine = apply_psi(psi, A, tol=5e-9)
        assert opnorm(coarse - fine) <= 1e-7

    def test_undamped_rotation_raises(self):
        # pure-imaginary spectrum gives the tail bound nothing to decay with
        from bpcalc.semigroup import fourier_translation_model
        A = fourier_translation_model(3)
        with pytest.raises(QuadratureError):
            apply_psi(fractional_power(0.5), A)


    @pytest.mark.parametrize("d", [120, 180])
    def test_schur_envelope_finite_at_large_dimension(self, d):
        # the Schur series sum_k (r ||N||)^k / k! passes the float range here
        N = np.diag(np.ones(d - 1), 1)
        A = make_tuple([-np.eye(d) + 0.5 * N], bounds=[1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, far = _Profiles.one_block(A).ray(np.array([1.0]))[5:7]
        assert rho == pytest.approx(-0.5)
        assert np.isfinite(far) and far >= 1.0

    @pytest.mark.parametrize("build,s", [
        (lambda: fractional_power(0.5), [-2.0]),
        (log1m, [-0.5 + 2.0j]),
        (lambda: cone_combine([(0.5, poisson()), (1.2, log1m())]), [-3.0 - 1.0j]),
        (lambda: direct_sum(poisson(), fractional_power(0.7)), [-1.0, -0.25 + 1.0j]),
    ], ids=["frac05", "log1m", "cone", "dsum"])
    def test_eval_via_levy_is_one_point_profile(self, build, s):
        psi = build()
        s = np.asarray(s, dtype=complex)
        spec = SpectralData(joint=s[None, :], basis=np.eye(1, dtype=complex))
        T = make_tuple([np.array([[z]]) for z in s], spectral=spec)
        assert complex(eval_via_levy(psi, s)) == apply_psi(psi, T)[0, 0]


def stripped(A):
    # the same generators without spectral data: the profiles run in a Schur
    # block basis, never in P
    return make_tuple(A.generators, bounds=A.bounds)


def rel_gap(got, ref):
    return opnorm(got - ref) / max(1.0, opnorm(ref))


def one_block_subordinated(psi, A, t):
    # g_t on the expm-only reference: one dense block over the whole space
    rep = _Profiles.one_block(A)
    return rep.finish(calculus._subordinated_family(psi.subordinator, rep, t,
                                                    1e-9 / rep.cond))


# every member whose triple has a measure part (poisson: an atom), one with
# a drift c1 != 0 on two generators, whose nu_t convolves an atom of radius
# t with a lifted density, and two of arity 3: a lift along one ray, and a
# 2 + 1 direct sum whose g_t convolves the embedded families of its halves
CROSS_ROUTE = [p for p in CATALOG_PAIRS
               if p[0] in ("frac05", "poisson", "log1m", "lift", "dsum", "cone")] + [
    ("drift_cone", lambda: cone_combine([(1.0, linear([1.0, 0.5])),
                                         (1.0, diagonal_lift(log1m(), [1.0, 0.5]))]), 2),
    ("lift3", lambda: diagonal_lift(log1m(), [1.0, 0.5, 0.25]), 3),
    ("dsum3", lambda: direct_sum(diagonal_lift(log1m(), [1.0, 0.6]), poisson()), 3),
]
# one lambda_j per generator, Re lambda_j < 0
LAM = np.array([-0.8 + 0.3j, -1.1 - 0.6j, -0.6 + 0.9j])


class TestProfilesAgainstMatrices:
    """A spectral tuple integrates eigenvalue profiles and applies P once;
    its stripped copy integrates them in the basis of a reordered Schur form
    and never sees P.  Both run the same profile code and differ only in
    their basis, so the spectral tuple is also checked against the
    expm-only route of one dense block over the whole space, forced through
    the private builders, which shares neither basis nor jet code with it."""

    @pytest.mark.parametrize("d", [8, 24])
    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_apply_psi(self, name, build, n, d):
        psi = build()
        A = make_commuting_random(n, d, seed=d + n)
        assert rel_gap(apply_psi(psi, A), apply_psi(psi, stripped(A))) <= 1e-8

    @pytest.mark.parametrize("d", [8, 24])
    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_subordinated(self, name, build, n, d):
        psi = build()
        A = make_commuting_random(n, d, seed=d + n)
        assert rel_gap(subordinated(psi, A, 0.5),
                       subordinated(psi, stripped(A), 0.5)) <= 1e-8

    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_w_operator(self, name, build, n):
        psi = build()
        A = make_commuting_random(n, 8, seed=8 + n)
        lam = LAM[:n]
        for j in range(n):
            assert rel_gap(w_operator(psi, A, lam, j),
                           w_operator(psi, stripped(A), lam, j)) <= 1e-8

    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_apply_psi_against_matrices(self, name, build, n):
        psi, A = build(), make_commuting_random(n, 8, seed=8 + n)
        ref = calculus._psi_integral(psi, _Profiles.one_block(A), 1e-9)
        assert rel_gap(apply_psi(psi, A), ref) <= 1e-8

    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_subordinated_against_matrices(self, name, build, n):
        # dsum and cone compose through a convolution
        psi, A = build(), make_commuting_random(n, 8, seed=8 + n)
        ref = one_block_subordinated(psi, A, 0.5)
        assert rel_gap(subordinated(psi, A, 0.5), ref) <= 1e-8

    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_w_operator_against_matrices(self, name, build, n):
        psi, A = build(), make_commuting_random(n, 8, seed=8 + n)
        lam = LAM[:n]
        for j in range(n):
            ref = calculus._w_integral(psi, _Profiles.one_block(A), lam, j, 1e-9)
            assert rel_gap(w_operator(psi, A, lam, j), ref) <= 1e-8

    @pytest.mark.parametrize("build,reference", [
        (lambda: fractional_power(0.5), lambda G: -sqrtm(-G)),
        (log1m, lambda G: -logm(np.eye(len(G)) - G)),
    ], ids=["frac05", "log1m"])
    def test_dense_reference(self, build, reference):
        A = make_commuting_random(1, 48, seed=48)
        assert rel_gap(apply_psi(build(), A), reference(A.generators[0])) <= 1e-8


def j3():
    # the theorem suite's explicit operator: one 3 x 3 Jordan block at -1
    return make_tuple([-np.eye(3) + np.diag(np.ones(2), 1)])


# generator-only tuples by arity: Jordan polynomials, stripped diagonalizable
# tuples and the explicit j3
GENERATOR_ONLY = {
    1: {"jordan8": lambda: make_jordan_polynomial(1, 8, seed=81),
        "jordan16": lambda: make_jordan_polynomial(1, 16, seed=161),
        "stripped8": lambda: stripped(make_commuting_random(1, 8, seed=18)),
        "j3": j3},
    2: {"jordan8": lambda: make_jordan_polynomial(2, 8, seed=82),
        "stripped8": lambda: stripped(make_commuting_random(2, 8, seed=28))},
    3: {"jordan8": lambda: make_jordan_polynomial(3, 8, seed=83)},
}
JET_CASES = [pytest.param(build, tup, id="%s-%s" % (name, key))
             for name, build, n in CROSS_ROUTE
             for key, tup in GENERATOR_ONLY[n].items()]


class TestBlockJetsAgainstMatrices:
    """A generator-only tuple integrates scalar jets in the block basis of
    one Schur form.  The reference forces the expm-only route of one dense
    block over the whole space through the private builders, which shares
    no basis with it."""

    @pytest.mark.parametrize("build,tup", JET_CASES)
    def test_apply_psi(self, build, tup):
        psi, A = build(), tup()
        assert isinstance(calculus._representation(A), calculus._Profiles)
        ref = calculus._psi_integral(psi, _Profiles.one_block(A), 1e-9)
        assert rel_gap(apply_psi(psi, A), ref) <= 1e-8

    @pytest.mark.parametrize("build,tup", JET_CASES)
    def test_subordinated(self, build, tup):
        psi, A = build(), tup()
        ref = one_block_subordinated(psi, A, 0.5)
        assert rel_gap(subordinated(psi, A, 0.5), ref) <= 1e-8

    @pytest.mark.parametrize("build,tup", JET_CASES)
    def test_w_operator(self, build, tup):
        psi, A = build(), tup()
        lam = LAM[:A.n]
        for j in range(A.n):
            ref = calculus._w_integral(psi, _Profiles.one_block(A), lam, j, 1e-9)
            assert rel_gap(w_operator(psi, A, lam, j), ref) <= 1e-8

    @pytest.mark.parametrize("name", ["lift", "dsum"])
    def test_no_matrix_exponential(self, name, monkeypatch):
        calls = []
        real = calculus.expm
        monkeypatch.setattr(calculus, "expm",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        psi = {p[0]: p[1] for p in CROSS_ROUTE}[name]()
        A = make_jordan_polynomial(2, 16, seed=216)
        apply_psi(psi, A)
        subordinated(psi, A, 0.5)
        assert calls == []

    @pytest.mark.parametrize("name,build,n", CROSS_ROUTE)
    def test_factorization_at_d24(self, name, build, n):
        psi = build()
        lam = LAM[:n]
        A = make_commuting_random(n, 24, seed=24 + n)
        for B in (make_jordan_polynomial(n, 24, seed=24 + n), stripped(A)):
            assert factorization_check(psi, B, lam) <= 1e-8
        for j in range(n):
            assert rel_gap(w_operator(psi, stripped(A), lam, j),
                           w_operator(psi, A, lam, j)) <= 1e-8

    def test_jets_only_where_a_block_carries_one(self, monkeypatch):
        # the W integrand runs the jet recurrences per node only when a
        # block carries a jet; the Jordan tuple shows the counter is live
        calls = []
        real = calculus._v_jets
        monkeypatch.setattr(calculus, "_v_jets",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        psi, lam = fractional_power(0.5), np.array([-0.8 + 0.3j])
        A = make_commuting_random(1, 8, seed=9)
        for B in (A, stripped(A)):
            factorization_check(psi, B, lam)
        assert calls == []
        factorization_check(psi, make_jordan_polynomial(1, 8, seed=81), lam)
        assert calls

    def test_repeated_semisimple_eigenvalue(self):
        # one 2 x 2 cluster z I with no nilpotent part and one 1 x 1
        # cluster: the 2 x 2 one is two 1 x 1 blocks, and no ray has a jet
        P = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        Pinv = np.linalg.inv(P)
        A = make_tuple([P @ np.diag([-1.0, -1.0, -2.0]) @ Pinv])
        assert sorted(len(c[0]) for c in A.blocks.compressions) == [1, 2]
        rep = calculus._representation(A)
        assert isinstance(rep, calculus._Profiles)
        assert list(rep.sizes) == [1, 1, 1] and rep.jets == []
        assert len(rep.ray([1.0]).one) == 3
        psi = log1m()
        at = eval_psi(psi, np.array([[-1.0], [-1.0], [-2.0]]))
        assert rel_gap(apply_psi(psi, A), P @ np.diag(at) @ Pinv) <= 1e-8
        g_ref = P @ np.diag(np.exp(0.5 * at)) @ Pinv
        assert rel_gap(subordinated(psi, A, 0.5), g_ref) <= 1e-8
        assert factorization_check(psi, A, np.array([-0.8 + 0.3j])) <= 1e-8

    @pytest.mark.parametrize("build,reference", [
        (lambda: fractional_power(0.5), lambda G: -sqrtm(-G)),
        (log1m, lambda G: -logm(np.eye(len(G)) - G)),
    ], ids=["frac05", "log1m"])
    def test_similar_jordan_block(self, build, reference):
        # S J S^-1 with cond(S) = 10: rounding splits its Schur diagonal at
        # about eps^(1/6), whichever route the tuple then takes
        A = make_tuple([similar_jordan_block()])
        assert rel_gap(apply_psi(build(), A), reference(A.generators[0])) <= 1e-8


def similar_jordan_block():
    # S J S^-1, J = -1.5 I + shift at d = 6, cond(S) = 10
    rng = np.random.default_rng(6)
    U, _, Vh = np.linalg.svd(rng.standard_normal((6, 6)))
    S = (U * np.geomspace(1.0, 0.1, 6)) @ Vh
    J = -1.5 * np.eye(6) + np.diag(np.ones(5), 1)
    return S @ J @ np.linalg.inv(S)


class TestRayJets:
    """Along a ray the profile of T(rw) has at most m_i entries per block,
    and the W_j profile at most m_i (m_i + 1) / 2, whatever n is."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_ray_entries_at_most_d(self, n):
        A = make_jordan_polynomial(n, 24, seed=24 + n)
        rep = calculus._representation(A)
        assert isinstance(rep, calculus._Profiles) and rep.cond == 24.0
        rng = np.random.default_rng(n)
        for w in [np.ones(n) / np.sqrt(n), *np.eye(n), *rng.uniform(0, 1, (3, n))]:
            ray = rep.ray(w)
            assert len(ray.one) == len(ray.T(0.5)) == 24
        for j in range(n):
            make, budget = rep.w_integrand(LAM[:n], j)
            assert budget == (24.0 if j == 0 else 24.0 * 25 / 2)
            F, kw, _ = make(np.ones(n) / np.sqrt(n))
            assert len(F(0.5)) <= (24 if j == 0 else 24 * 25 // 2)

    def test_apply_psi_memory_at_d64(self):
        # a jet per multi-index of (N_1, N_2) would store 2 x 2080 dense
        # 64 x 64 powers (about 270 MB) for this tuple; ray jets keep O(n d^2)
        import tracemalloc
        psi = diagonal_lift(log1m(), [1.0, 0.5])
        A = make_jordan_polynomial(2, 64, seed=1)
        tracemalloc.start()
        try:
            F = apply_psi(psi, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert np.all(np.isfinite(F))

    def test_representation_cached_per_tuple(self, monkeypatch):
        calls = []
        real = calculus._Profiles.of_generators.__func__
        monkeypatch.setattr(calculus._Profiles, "of_generators", classmethod(
            lambda cls, A: calls.append(1) or real(cls, A)))
        A = make_jordan_polynomial(2, 8, seed=82)
        psi = diagonal_lift(log1m(), [1.0, 0.5])
        apply_psi(psi, A)
        subordinated(psi, A, 0.5)
        factorization_check(psi, A, LAM[:2])
        assert calls == [1]
        B = make_commuting_random(1, 6, seed=1)
        assert B.representation is B.representation


class TestFarAtoms:
    """Atoms far out on a large Jordan block, J = -I + shift at d = 120:
    ||(uN)^k|| leaves the float range once u^119 > 1e308, while T(u) and
    the results stay finite."""

    J = -np.eye(120) + np.diag(np.ones(119), 1)

    def test_apply_psi_atom(self):
        # psi(s) = e^{400 s} - 1 has its one atom at u = 400
        F = apply_psi(diagonal_lift(poisson(), [400.0]), make_tuple([self.J]))
        assert rel_gap(F, expm(400.0 * self.J) - np.eye(120)) <= 1e-8

    @pytest.mark.parametrize("t", [400.0, 720.0])
    def test_poisson_subordination(self, t):
        # g_t = exp(t (e^J - I)); past t ~ 708 the atom weights are scaled
        g = subordinated(poisson(), make_tuple([self.J]), t)
        assert rel_gap(g, expm(t * (expm(self.J) - np.eye(120)))) <= 1e-8

    @pytest.mark.parametrize("route", ["profiles", "matrices"])
    def test_one_ray_per_direction(self, route, monkeypatch):
        # every atom of a lifted Poisson family lies on the lift's direction,
        # including the off-axis and inexact weights
        A = make_jordan_polynomial(2, 8, seed=82)
        rep = _Profiles.one_block(A) if route == "matrices" else A.representation
        calls = []
        real = type(rep).ray
        monkeypatch.setattr(type(rep), "ray",
                            lambda self, w: calls.append(1) or real(self, w))
        for w in ([1.0, 0.5], [0.3, 0.7], [1.0 / 3.0, 1.0]):
            fam = diagonal_lift(poisson(), w).subordinator
            for t in (0.5, 5.0, 50.0):
                assert len(fam.measure_at(t).atoms) > 10
                calls.clear()
                calculus._subordinated_family(fam, rep, t, 1e-9)
                assert calls == [1], (w, t)


class TestNonNilpotentFallback:
    """Two distinct joint eigenvalues with the same theta-combination share
    one Schur cluster, where no A_j is z I + nilpotent: that block is dense,
    checked against the spectral original's profile route."""

    @staticmethod
    def pair():
        P = make_commuting_random(2, 4, seed=3, max_cond=4).spectral
        lam = np.array([-1.0 + 0.5j, -0.7 - 0.2j])
        joint = np.array([lam, lam + 0.4j * np.array([_THETA[1], -_THETA[0]]),
                          [-2.0 + 1.0j, -1.5], [-0.6 - 1.0j, -2.2 + 0.3j]])
        spec = SpectralData(joint=joint, basis=P.basis)
        A = make_tuple([spec.apply(joint[:, j]) for j in range(2)],
                       spectral=spec)
        return A, stripped(A)

    def test_takes_matrices(self):
        _, B = self.pair()
        assert B.blocks.cond <= calculus._COND_MAX
        assert sorted(len(c[0]) for c in B.blocks.compressions) == [1, 1, 2]
        rep = calculus._representation(B)
        assert isinstance(rep, calculus._Profiles)
        assert [len(N[0]) for _, N in rep.dense] == [2] and rep.jets == []

    @pytest.mark.parametrize("build", [
        lambda: direct_sum(fractional_power(0.5), log1m()),
        lambda: direct_sum(poisson(), log1m())], ids=["frac-log", "poisson-log"])
    def test_against_spectral(self, build):
        psi, (A, B) = build(), self.pair()
        assert rel_gap(apply_psi(psi, B), apply_psi_spectral(psi, A)) <= 1e-8
        assert rel_gap(subordinated(psi, B, 0.5),
                       subordinated(psi, A, 0.5)) <= 1e-8


class TestSemisimpleZero:
    """An eigenvalue 0 leaves T at 1 on its eigenvector: psi(A) is 0 and g_t
    is 1 there, which the settle values give exactly, while the other
    entries decay."""

    PROJ = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    EIG = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

    def tuples(self):
        D = np.diag([-1.0, 0.0]).astype(complex)
        joint = np.array([[-1.0], [0.0]], dtype=complex)
        yield make_tuple([D]), np.eye(2)
        yield make_tuple([D], spectral=SpectralData(
            joint=joint, basis=np.eye(2, dtype=complex))), np.eye(2)
        yield make_tuple([-self.PROJ]), self.EIG
        yield make_tuple([-self.PROJ], spectral=SpectralData(
            joint=joint, basis=self.EIG)), self.EIG

    def test_apply_psi_and_subordinated(self):
        psi = fractional_power(0.5)
        for A, Q in self.tuples():
            psi_ref = Q @ np.diag([-1.0, 0.0]) @ Q.conj().T
            g_ref = Q @ np.diag([np.exp(-0.5), 1.0]) @ Q.conj().T
            assert opnorm(apply_psi(psi, A) - psi_ref) <= 1e-9
            assert opnorm(subordinated(psi, A, 0.5) - g_ref) <= 1e-9

    def test_w_operator_and_factorization(self):
        # W_j is the divided difference (psi(lam) - psi(z)) / (lam - z) on
        # each eigenvector; at z = 0 the W integrand settles at -1/lam
        psi, lam = fractional_power(0.5), np.array([-0.5 + 1.0j])
        dd = [(eval_psi(psi, lam) - eval_psi(psi, np.array([z]))) / (lam[0] - z)
              for z in (-1.0, 0.0)]
        for A, Q in self.tuples():
            W_ref = Q @ np.diag(dd) @ Q.conj().T
            assert opnorm(w_operator(psi, A, lam, 0) - W_ref) <= 1e-9
            assert factorization_check(psi, A, lam) <= 1e-9
        # a zero generator: along e_2 every entry of W_2 settles
        A = make_tuple([np.diag([-1.0, -2.0]), np.zeros((2, 2))])
        psi = direct_sum(poisson(), fractional_power(0.5))
        assert factorization_check(psi, A, [-1.0, -1.0]) <= 1e-9

    def test_mapping_part_one(self):
        from bpcalc.spectra import mapping_check
        for A, _ in self.tuples():
            report = mapping_check(fractional_power(0.5), A, 1)
            assert report.rows and report.passed
            assert max(r.distance for r in report.rows) <= 1e-9


class TestHugeEntries:
    """Generator entries past about 1.34e154, where the squares in a
    Frobenius norm overflow: the round-off cut of the block profile stays
    finite, so no eigenvalue is zeroed as round-off."""

    def test_apply_psi_of_huge_imaginary_eigenvalue(self):
        A = make_tuple([[[1e200j]]])
        assert A.representation.joint.tolist() == [[1e200j]]
        exact = complex(eval_psi(poisson(), np.array([[1e200j]]))[0])
        assert abs(exact - (-0.2349 - 0.6440j)) <= 1e-4
        assert abs(complex(apply_psi(poisson(), A)[0, 0]) - exact) <= 1e-9

    def test_joint_rows_keep_huge_eigenvalue(self):
        # exp(t A) = e^{2e154 i t} (I + t N) grows like t, so no sampled
        # bound exists; the bound is given only to build the tuple
        A = make_tuple([[[2e154j, 1], [0, 2e154j]]], bounds=[1.0])
        assert 2e154j in A.representation.joint[:, 0]


class TestSubordinated:
    def test_time_zero_is_identity(self):
        A = make_commuting_random(1, 3, seed=4)
        assert opnorm(subordinated(poisson(), A, 0.0) - np.eye(3)) == 0.0

    def test_negative_time_rejected(self):
        A = make_commuting_random(1, 3, seed=4)
        with pytest.raises(ValueError):
            subordinated(poisson(), A, -0.5)

    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_poisson_matches_exponential(self, t):
        A = make_commuting_random(1, 5, seed=13)
        delta = semigroup_apply(A, np.array([1.0])) - np.eye(5)
        expected = expm(t * delta)
        got = subordinated(poisson(), A, t)
        assert opnorm(got - expected) <= 1e-9 * max(1.0, opnorm(expected))

    def test_log1m_scalar_quarter(self):
        # gamma subordinator at t=2 against the closed form (1-s)^{-t}
        g = subordinated(log1m(), scalar_tuple(-1.0), 2.0)
        assert abs(g[0, 0] - 0.25) <= 1e-9

    @pytest.mark.parametrize("name,build,n", CATALOG_PAIRS)
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_exponential_consistency(self, name, build, n, t):
        psi = build()
        if name == "frac03":
            pytest.skip("no closed-form subordination density")
        A = make_commuting_random(n, 4, seed=19)
        got = subordinated(psi, A, t, tol=1e-9)
        expected = expm(t * apply_psi(psi, A, tol=1e-10))
        assert opnorm(got - expected) <= 1e-6 * max(1.0, opnorm(expected))

    @pytest.mark.parametrize("build", [poisson, lambda: fractional_power(0.5), log1m])
    def test_semigroup_property(self, build):
        psi = build()
        A = make_commuting_random(1, 4, seed=23)
        t, r = 0.4, 1.1
        lhs = subordinated(psi, A, t) @ subordinated(psi, A, r)
        rhs = subordinated(psi, A, t + r)
        assert opnorm(lhs - rhs) <= 1e-8

    def test_missing_family_raises(self):
        A = make_commuting_random(1, 3, seed=2)
        with pytest.raises(CatalogGapError):
            subordinated(fractional_power(0.3), A, 1.0)

    @pytest.mark.parametrize("build,n", [
        (lambda: direct_sum(poisson(), fractional_power(0.3)), 2),
    ], ids=["sum_with_gap"])
    def test_composite_gap(self, build, n):
        # a sum with a gap block carries no family
        psi = build()
        A = make_commuting_random(n, 3, seed=2)
        with pytest.raises(CatalogGapError):
            subordinated(psi, A, 1.0)

    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_lift_of_cone(self, t):
        # the lift of a convolution convolves the lifted children
        psi = diagonal_lift(cone_combine([(1.0, poisson()), (0.5, log1m())]),
                            [1.0, 0.5])
        A = make_commuting_random(2, 3, seed=2)
        expected = expm(t * apply_psi(psi, A, tol=1e-10))
        got = subordinated(psi, A, t)
        assert opnorm(got - expected) <= 1e-6 * max(1.0, opnorm(expected))
        grid = [np.full(2, s) for s in np.linspace(-10.0, -0.1, 7)]
        assert laplace_identity_error(psi, t, grid) <= 1e-6

    def test_poisson_large_time(self):
        # e^{-t} underflows past t ~ 745: the weights start in log space
        g = subordinated(poisson(), make_tuple([np.zeros((1, 1))]), 760.0)
        assert abs(g[0, 0] - 1.0) <= 1e-12
        a = -1e-3
        g = subordinated(poisson(), scalar_tuple(a), 2000.0)
        assert abs(g[0, 0] - np.exp(2000.0 * np.expm1(a))) <= 1e-12
        with pytest.raises(ValueError, match="atoms"):
            subordinated(poisson(), scalar_tuple(a), 1e5)

    @pytest.mark.parametrize("name,build,n", CATALOG_PAIRS)
    def test_laplace_identity(self, name, build, n):
        psi = build()
        pts = np.linspace(-10.0, -0.1, 7)
        grid = [np.full(n, s) for s in pts]
        for t in (0.1, 1.0, 5.0):
            if name == "frac03":
                with pytest.raises(CatalogGapError):
                    laplace_identity_error(psi, t, grid)
            else:
                assert laplace_identity_error(psi, t, grid) <= 1e-6

    @pytest.mark.parametrize("build", [
        poisson, log1m, lambda: fractional_power(0.5),
    ], ids=["poisson", "log1m", "frac05"])
    def test_laplace_identity_on_complex_grid(self, build):
        # the grid is read as complex: a list of complex numbers and an
        # array of them give the same error, and eval_psi checks the points
        psi = build()
        grid = [-1.0 + 2.0j, -0.5 - 3.0j, -3.0 + 0.5j, -2.0, -0.1 + 10.0j]
        for t in (0.1, 1.0, 5.0):
            err = laplace_identity_error(psi, t, grid)
            assert err <= 6e-12
            assert laplace_identity_error(psi, t, np.array(grid)) == err
        with pytest.raises(ValueError, match="Re s_j"):
            laplace_identity_error(psi, 1.0, [-1.0, 0.5 + 1.0j])

    @pytest.mark.parametrize("build", [
        lambda: direct_sum(poisson(), fractional_power(0.5)),
        lambda: cone_combine([(0.5, direct_sum(poisson(), fractional_power(0.5))),
                              (1.2, diagonal_lift(log1m(), [1.0, 0.6]))]),
    ], ids=["product", "convolution"])
    def test_laplace_identity_on_plane_grid(self, build, monkeypatch):
        # the whole grid is one profile: no matrix exponential
        calls = []
        real = calculus.expm
        monkeypatch.setattr(calculus, "expm",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        psi = build()
        grid = [[a, b] for a in (-5.0, -1.0, -0.1) for b in (-3.0, -0.5, -0.02)]
        for t in (0.3, 2.0):
            assert laplace_identity_error(psi, t, grid) <= 1e-9
        assert calls == []


class TestGeneratorLimit:
    def test_scalar_first_order_rate(self):
        # (e^{-t}-1)/t -> -1 with error t/2 + O(t^2)
        A = scalar_tuple(-1.0)
        ts = [2.0 ** -k for k in range(3, 9)]
        res = generator_limit_check(fractional_power(1.0), A, np.array([1.0]), ts)
        ratios = res[1:] / res[:-1]
        assert np.all(np.abs(ratios - 0.5) < 0.05)

    def test_poisson_series_bound(self):
        A = make_commuting_random(1, 4, seed=31)
        delta = semigroup_apply(A, np.array([1.0])) - np.eye(4)
        x = np.ones(4) / 2.0
        for t in (1e-2, 1e-3):
            res = generator_limit_check(poisson(), A, x, [t])
            assert res[0] <= t * opnorm(delta @ delta) / 2.0 * 1.1

    def test_residuals_decrease_on_random_tuple(self):
        A = make_commuting_random(1, 4, seed=37)
        rng = np.random.default_rng(37)
        x = rng.standard_normal(4)
        ts = [0.1 * 2.0 ** -k for k in range(5)]
        res = generator_limit_check(fractional_power(0.5), A, x, ts)
        assert np.all(np.diff(res) < 0)
        assert res[-1] < res[0] / 8.0


class TestProofOperators:
    def test_v_zero_upper_limit(self):
        A = make_commuting_random(1, 3, seed=5)
        assert opnorm(v_operator(-1.0 + 0.2j, A, 0, 0.0)) == 0.0

    def test_v_scalar_value(self):
        V = v_operator(-2.0, scalar_tuple(-1.0), 0, 1.0)
        assert abs(V[0, 0] - (np.exp(-1) - np.exp(-2))) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_v_defining_identity(self, seed):
        A = make_commuting_random(2, 5, seed=seed)
        rng = np.random.default_rng(seed)
        lam = complex(rng.uniform(-3, -0.2), rng.uniform(-1, 1))
        u = float(rng.uniform(0.1, 3.0))
        j = int(rng.integers(0, 2))
        T = semigroup_apply(A, u * np.eye(2)[j])
        lhs = np.exp(lam * u) * np.eye(5) - T
        rhs = (lam * np.eye(5) - A.generators[j]) @ v_operator(lam, A, j, u)
        assert opnorm(lhs - rhs) <= 1e-8 * max(1.0, opnorm(lhs))

    def test_v_defining_identity_without_spectrum(self):
        A = make_jordan_polynomial(1, 4, seed=9)
        lam, u = -1.2 + 0.4j, 1.7
        T = semigroup_apply(A, np.array([u]))
        lhs = np.exp(lam * u) * np.eye(4) - T
        rhs = (lam * np.eye(4) - A.generators[0]) @ v_operator(lam, A, 0, u)
        assert opnorm(lhs - rhs) <= 1e-8 * max(1.0, opnorm(lhs))

    def test_w_linear_is_drift_coefficient(self):
        A = make_commuting_random(2, 4, seed=7)
        W = w_operator(linear([0.7, 0.2]), A, [-1.0, -0.5], 1)
        assert opnorm(W - 0.2 * np.eye(4)) <= 1e-12

    def test_w_scalar_poisson_single_atom(self):
        # atom at u=1 makes W = V^{-1}(1); the integrand e^{-(1-s)}e^{-s}
        # is constant, so the value is exactly e^{-1}
        W = w_operator(poisson(), scalar_tuple(-1.0), [-1.0], 0)
        assert abs(W[0, 0] - np.exp(-1.0)) <= 1e-12

    def test_w_needs_left_half_plane(self):
        A = make_commuting_random(1, 3, seed=3)
        with pytest.raises(ValueError):
            w_operator(poisson(), A, [0.5], 0)
        with pytest.raises(ValueError):
            w_operator_bound(poisson(), A, [0.5], 0)

    @pytest.mark.parametrize("j", [-1, 2, 1.0], ids=["minus-one", "n", "float"])
    def test_generator_index_out_of_range(self, j):
        # j = -1 returned a matrix 0.18 away from W_1, and j = n raised a
        # bare numpy IndexError
        A = make_commuting_random(2, 4, seed=1)
        psi, lam = diagonal_lift(log1m(), [1.0, 0.5]), [-1 + 0.5j, -0.7 - 0.2j]
        for call in (lambda: w_operator(psi, A, lam, j),
                     lambda: w_operator_bound(psi, A, lam, j),
                     lambda: v_operator(lam[0], A, j, 1.0)):
            with pytest.raises(IndexError, match="generator index out of range"):
                call()

    @pytest.mark.parametrize("lam,u", [(np.nan, 1.0), (complex(-1.0, np.inf), 1.0),
                                       (-1.0, np.nan), (-1.0, np.inf)],
                             ids=["lam-nan", "lam-inf", "u-nan", "u-inf"])
    def test_v_non_finite_rejected(self, lam, u):
        # each returned a non-finite matrix
        A = make_commuting_random(2, 4, seed=1)
        with pytest.raises(ValueError, match="finite"):
            v_operator(lam, A, 0, u)

    @pytest.mark.parametrize("lam", [[-1.0, np.inf], [-1.0, 0.5],
                                     [[-1.0, -0.5]]],
                             ids=["inf", "right-half-plane", "stack"])
    def test_w_bound_checks_every_lambda(self, lam):
        # the bound read only Re lambda_0 and gave 172.096 for the first two
        A = make_commuting_random(2, 4, seed=1)
        with pytest.raises(ValueError):
            w_operator_bound(diagonal_lift(log1m(), [1.0, 0.5]), A, lam, 0)

    def test_w_norm_within_stated_bound(self):
        rng = np.random.default_rng(43)
        builds = [poisson, log1m, lambda: fractional_power(0.5),
                  lambda: fractional_power(1.0)]
        for k in range(8):
            psi1 = builds[k % len(builds)]()
            psi = diagonal_lift(psi1, [1.0, rng.uniform(0.3, 1.0)])
            A = make_commuting_random(2, 4, seed=100 + k)
            lam = rng.uniform(-3, -0.3, size=2) + 1j * rng.uniform(-1, 1, size=2)
            for j in range(2):
                W = w_operator(psi, A, lam, j)
                bound = w_operator_bound(psi, A, lam, j)
                assert opnorm(W) <= bound * (1.0 + 1e-9)

    def test_factorization_degenerate_point(self):
        A = scalar_tuple(-1.5)
        assert factorization_check(poisson(), A, [-1.5]) <= 1e-12

    def test_factorization_at_joint_eigenvalue(self):
        A = make_commuting_random(2, 4, seed=47)
        lam = A.spectral.joint[1]
        assert factorization_check(log1m_pair(), A, lam) <= 1e-6

    def test_factorization_random_pair(self):
        A = make_commuting_random(2, 4, seed=53)
        res = factorization_check(log1m_pair(), A, [-1.0, -0.5])
        assert res <= 1e-6

    @pytest.mark.parametrize("name,build,n", CATALOG_PAIRS)
    def test_factorization_across_catalog(self, name, build, n):
        psi = build()
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        A = make_commuting_random(n, 4, seed=int(rng.integers(1000)))
        lam = rng.uniform(-2.5, -0.3, size=n) + 1j * rng.uniform(-0.8, 0.8, size=n)
        assert factorization_check(psi, A, lam) <= 1e-6

    def test_factorization_without_spectrum(self):
        # a measure of atoms only: W_j is a finite sum of V_j terms
        A = make_jordan_polynomial(1, 3, seed=6)
        res = factorization_check(poisson(), A, [-0.9 + 0.1j])
        assert res <= 1e-6

    @pytest.mark.parametrize("name", ["log1m", "frac05", "lift"])
    def test_factorization_without_spectrum_radial(self, name):
        # a radial density: every quadrature node of W_j evaluates V_j on a
        # non-diagonalizable tuple
        build, n = {p[0]: p[1:] for p in CATALOG_PAIRS}[name]
        A = make_jordan_polynomial(n, 3, seed=6)
        res = factorization_check(build(), A, [-0.9 + 0.1j] * n)
        assert res <= 1e-6


def log1m_pair():
    return direct_sum(log1m(), log1m())


class TestSeriesRatio:
    """(e^{rB} - I)/r below r ||B|| = 0.25 is B phi1(rB), phi1(rB) the
    upper-right block of exp([[rB, I], [0, 0]]) (Van Loan, 1978)."""

    TUPLES = [lambda: make_jordan_polynomial(1, 8, seed=3),
              lambda: make_jordan_polynomial(2, 6, seed=4),
              lambda: make_tuple(make_commuting_random(1, 10, seed=5).generators)]

    @staticmethod
    def ray(A):
        w = np.ones(A.n) / A.n
        B = sum(w[j] * A.generators[j] for j in range(A.n))
        rep = _Profiles.one_block(A)
        ray = rep.ray(w)
        return (B, lambda r: rep.finish(ray.lift(ray.ratio(r))),
                float(np.linalg.norm(B, 2)))

    @pytest.mark.parametrize("build", TUPLES, ids=["jordan", "jordan2", "stripped"])
    def test_against_expm(self, build):
        # below r ||B|| ~ 0.01 the reference itself loses digits to cancellation
        B, ratio, nrm = self.ray(build())
        for x in (0.02, 0.05, 0.1, 0.2, 0.2499):
            r = x / nrm
            ref = (expm(r * B) - np.eye(len(B))) / r
            assert opnorm(ratio(r) - ref) <= 1e-14 * opnorm(ref)

    @pytest.mark.parametrize("build", TUPLES, ids=["jordan", "jordan2", "stripped"])
    def test_small_r_against_block_exponential(self, build):
        # an independent reference: the Taylor series B + rB^2/2 + r^2 B^3/6,
        # whose first dropped term is below (r ||B||)^3 ||B|| / 24 <= 5e-17 ||B||
        B, ratio, nrm = self.ray(build())
        for x in (0.0, 1e-12, 1e-8, 1e-5):
            r = x / nrm
            ref = B + (r / 2.0) * (B @ B) + (r * r / 6.0) * (B @ B @ B)
            assert opnorm(ratio(r) - ref) <= 1e-14 * opnorm(ref)



class TestDenseBlocks:
    """The route is chosen per block: a block that is not z I + nilpotent
    integrates the entries of its own matrix exponential, and a tuple whose
    block basis is ill-conditioned is one dense block in the basis I."""

    @staticmethod
    def mixed():
        # the theta pair (two 1 x 1 blocks and one 2 x 2 collision) next to
        # a 3 x 3 block z I + nilpotent
        A, _ = TestNonNilpotentFallback.pair()
        N = np.diag(np.ones(2), 1)
        jet = [-1.2 * np.eye(3) + N, (-0.8 + 0.3j) * np.eye(3) + 0.5 * N]
        return A, make_tuple([block_diag(G, H) for G, H in zip(A.generators, jet)])

    def test_blocks_take_their_own_route(self):
        _, B = self.mixed()
        rep = B.representation
        assert isinstance(rep, calculus._Profiles)
        assert sorted(rep.sizes) == [1, 1, 2, 3]
        assert [len(N[0]) for _, N in rep.dense] == [2]
        assert [len(N[0]) for _, N in rep.jets] == [3]

    @pytest.mark.parametrize("build", [
        lambda: direct_sum(fractional_power(0.5), log1m()),
        lambda: direct_sum(poisson(), log1m()),
        lambda: diagonal_lift(log1m(), [1.0, 0.6])],
        ids=["frac-log", "poisson-log", "lift"])
    def test_against_one_block_and_spectral(self, build):
        # the pair's 4 x 4 corner is also the spectral original's result
        psi, (A, B) = build(), self.mixed()
        lam = LAM[:2]
        cases = [(apply_psi(psi, B), calculus._psi_integral(
                      psi, _Profiles.one_block(B), 1e-9), apply_psi(psi, A)),
                 (subordinated(psi, B, 0.5), one_block_subordinated(psi, B, 0.5),
                  subordinated(psi, A, 0.5))]
        cases += [(w_operator(psi, B, lam, j), calculus._w_integral(
                       psi, _Profiles.one_block(B), lam, j, 1e-9),
                   w_operator(psi, A, lam, j)) for j in range(2)]
        for got, dense, spectral in cases:
            assert rel_gap(got, dense) <= 1e-8
            assert rel_gap(got[:4, :4], spectral) <= 1e-8

    @pytest.mark.parametrize("case", ["similar", "theta"])
    def test_expm_only_on_dense_blocks(self, case, monkeypatch):
        # every matrix exponential has the size of a dense block, counting
        # each _van_loan call once, by the size of its block
        if case == "similar":
            A = make_tuple([similar_jordan_block()])
            psi = fractional_power(0.5)
            ref = -sqrtm(-A.generators[0])
        else:
            A = TestNonNilpotentFallback.pair()[1]
            psi = direct_sum(fractional_power(0.5), log1m())
            ref = -sqrtm(-A.generators[0]) - logm(np.eye(4) - A.generators[1])
        sizes, inside = [], []
        real_expm, real_van_loan = calculus.expm, calculus._van_loan

        def van_loan(G, lam, u):
            sizes.append(len(G))
            inside.append(1)
            try:
                return real_van_loan(G, lam, u)
            finally:
                inside.pop()

        def expm_(M, *a, **kw):
            if not inside:
                sizes.append(len(M))
            return real_expm(M, *a, **kw)
        monkeypatch.setattr(calculus, "expm", expm_)
        monkeypatch.setattr(calculus, "_van_loan", van_loan)
        rep = calculus._representation(A)
        assert isinstance(rep, calculus._Profiles)
        assert rel_gap(apply_psi(psi, A), ref) <= 1e-8
        assert rel_gap(subordinated(psi, A, 0.5), expm(0.5 * ref)) <= 1e-8
        assert set(sizes) == {len(N[0]) for _, N in rep.dense}
        assert set(sizes) == ({6} if case == "similar" else {2})

    def test_budget_counts_nonzero_powers(self):
        # J_2 + J_1 at one eigenvalue: N^2 = 0, so a ray has 2 entries and
        # the budget divides by 2, not by the block size 3
        J = -np.eye(3)
        J[0, 1] = 1.0
        A = make_tuple([J])
        assert A.representation.cond == 2.0
        assert len(A.representation.ray([1.0]).one) == 2
        psi = fractional_power(0.5)
        assert rel_gap(apply_psi(psi, A), -sqrtm(-J)) <= 1e-8
        assert rel_gap(subordinated(psi, A, 0.5), expm(-0.5 * sqrtm(-J))) <= 1e-8


STACK_CASES = {
    "spectral1-frac05": (lambda: fractional_power(0.5),
                         lambda: make_commuting_random(1, 5, seed=61)),
    "spectral2-lift": (lambda: diagonal_lift(fractional_power(0.5), [1.0, 0.6]),
                       lambda: make_commuting_random(2, 5, seed=62)),
    "spectral2-dsum": (lambda: direct_sum(poisson(), log1m()),
                       lambda: make_commuting_random(2, 5, seed=63)),
    "jordan1-log1m": (log1m, lambda: make_jordan_polynomial(1, 8, seed=64)),
    "jordan2-lift": (lambda: diagonal_lift(log1m(), [1.0, 0.5]),
                     lambda: make_jordan_polynomial(2, 8, seed=65)),
    "dense-theta": (lambda: direct_sum(fractional_power(0.5), log1m()),
                    lambda: TestNonNilpotentFallback.pair()[1]),
    "dense-similar": (lambda: fractional_power(0.5),
                      lambda: make_tuple([similar_jordan_block()])),
    "stripped-poisson": (poisson,
                         lambda: stripped(make_commuting_random(1, 6, seed=66))),
}


def lambda_stack(n, size, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-2.5, -0.3, (size, n))
            + 1j * rng.uniform(-1.0, 1.0, (size, n)))


class TestStackedW:
    """w_operator over a (K, n) stack of lambda integrates every row in one
    quadrature, whose panels the rows share; factorization_checks makes
    one such quadrature per j.  Each row keeps its own error budget, so it
    matches the one-lambda call to the quadrature tolerance, not bit for
    bit."""

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_stack_matches_loop(self, case):
        build, tup = STACK_CASES[case]
        psi, A = build(), tup()
        lams = lambda_stack(A.n, 4, zlib.crc32(case.encode()))
        for j in range(A.n):
            W = w_operator(psi, A, lams, j)
            assert W.shape == (4, A.d, A.d)
            for Wk, lam in zip(W, lams):
                ref = w_operator(psi, A, lam, j)
                assert opnorm(Wk - ref) <= 1e-9 * opnorm(ref)
        residuals = factorization_checks(psi, A, lams)
        loop = [factorization_check(psi, A, lam) for lam in lams]
        assert residuals.shape == (4,) and max(residuals) <= 1e-8
        assert np.allclose(residuals, loop, rtol=0.0, atol=1e-13)

    def test_one_lambda_shapes(self):
        psi, A = fractional_power(0.5), make_commuting_random(2, 4, seed=67)
        psi = diagonal_lift(psi, [1.0, 0.6])
        lam = LAM[:2]
        assert w_operator(psi, A, lam, 1).shape == (4, 4)
        assert w_operator(psi, A, lam[None], 1).shape == (1, 4, 4)
        assert np.array_equal(w_operator(psi, A, lam[None], 1)[0],
                              w_operator(psi, A, lam, 1))
        assert w_operator(poisson(), scalar_tuple(-1.0), -1.0, 0).shape == (1, 1)
        assert isinstance(factorization_check(psi, A, lam), float)
        residuals = factorization_checks(psi, A, lam[None])
        assert residuals.shape == (1,)
        assert residuals[0] == factorization_check(psi, A, lam)

    @pytest.mark.parametrize("lam", [np.nan, complex(-1.0, np.nan),
                                     complex(-1.0, np.inf), -np.inf],
                             ids=["nan", "re-nan", "im-inf", "minus-inf"])
    def test_non_finite_lambda_rejected(self, lam):
        # NaN and an infinite imaginary part raised QuadratureError from
        # inside the quadrature, after RuntimeWarnings; -inf returned a zero
        # matrix
        A = make_commuting_random(1, 4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                w_operator(fractional_power(0.5), A, [lam], 0)
            with pytest.raises(ValueError, match="finite"):
                factorization_check(fractional_power(0.5), A, [lam])

    @pytest.mark.parametrize("bad", [np.nan, 0.5, -np.inf],
                             ids=["nan", "right-half-plane", "minus-inf"])
    def test_one_bad_row_rejects_the_stack(self, bad, monkeypatch):
        A = make_commuting_random(1, 4, seed=1)
        calls = []
        real = calculus.integrate_measure
        monkeypatch.setattr(calculus, "integrate_measure",
                            lambda *a: calls.append(1) or real(*a))
        lams = [[-1.0], [-0.5 + 0.2j], [bad], [-2.0]]
        with pytest.raises(ValueError):
            w_operator(fractional_power(0.5), A, lams, 0)
        with pytest.raises(ValueError):
            factorization_checks(fractional_power(0.5), A, lams)
        assert calls == []

    @pytest.mark.parametrize("lams", [np.zeros((0, 1)), -np.ones((2, 2)),
                                      -np.ones((2, 1, 1))],
                             ids=["empty", "arity", "three-d"])
    def test_bad_stack_shape_rejected(self, lams):
        A = make_commuting_random(1, 4, seed=1)
        with pytest.raises(ValueError, match="one component per generator"):
            w_operator(fractional_power(0.5), A, lams, 0)


class TestStackedFactorizationRuns:
    """The factorization runner checks its lambdas as stacks of at most
    cli._STACK_ENTRIES matrix entries."""

    @staticmethod
    def suite_experiment(name):
        import json
        from bpcalc.cli import _load_config_text, parse_config
        doc = json.loads(_load_config_text("theorem_suite"))
        doc["experiments"] = [e for e in doc["experiments"] if e["id"] == name]
        return parse_config(doc)

    def test_one_radial_quadrature_per_stack_and_j(self, monkeypatch):
        # factorization-direct: ds2 (a Poisson atom on e_1, the 1/2-power
        # density on e_2) on a 5 x 5 pair, 5 lambdas.  psi(A) integrates
        # the density once, and W_2 once for all 5 lambdas, where each
        # lambda had its own; W_1 integrates only the atom
        from bpcalc import _integrate, cli
        cfg = self.suite_experiment("factorization-direct")
        radial, stacks = [], []
        real_radial, real_w = _integrate.integrate_radial, calculus.w_operator
        monkeypatch.setattr(_integrate, "integrate_radial",
                            lambda *a, **kw: radial.append(1) or real_radial(*a, **kw))
        monkeypatch.setattr(calculus, "w_operator", lambda psi, A, lam, j, tol:
                            stacks.append((np.shape(lam), j)) or real_w(psi, A, lam, j, tol))
        report = cli.run(cfg)
        assert report.verdict == "PASS"
        assert len(report.experiments[0].rows) == 5
        assert stacks == [((5, 2), 0), ((5, 2), 1)]
        assert len(radial) == 2

    def test_chunked_stack_equals_unchunked(self, monkeypatch):
        from bpcalc import cli
        doc = {"functions": [{"id": "fp", "catalog": "fractional_power",
                              "parameters": {"alpha": 0.5}}],
               "operators": [{"id": "a", "random": {"n": 1, "d": 4, "seed": 5}}],
               "experiments": [{"kind": "factorization", "id": "fac",
                                "function": "fp", "operator": "a",
                                "trials": 5}]}
        cfg = cli.parse_config(doc)
        whole = [r.value for r in cli.run(cfg).experiments[0].rows]
        sizes = []
        real = cli.factorization_checks
        monkeypatch.setattr(cli, "factorization_checks", lambda psi, A, lams, **kw:
                            sizes.append(len(lams)) or real(psi, A, lams, **kw))
        monkeypatch.setattr(cli, "_STACK_ENTRIES", 2 * 4 * 4 + 3)
        chunked = [r.value for r in cli.run(cfg).experiments[0].rows]
        assert sizes == [2, 2, 1]
        assert np.allclose(chunked, whole, rtol=0.0, atol=1e-13)
        assert max(whole) <= 1e-8


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_tolerance_must_be_finite_and_positive(tol):
    # a NaN or infinite tolerance ended the quadrature at once and returned
    # a wrong value (-0.2194 for log(1/2)), and joint spectra kept no point
    from bpcalc.spectra import joint_spectrum, mapping_check
    A = make_tuple([[[-1.0]]])
    calls = [lambda: apply_psi(log1m(), A, tol=tol),
             lambda: subordinated(log1m(), A, 0.5, tol=tol),
             lambda: eval_via_levy(log1m(), [-1.0], tol=tol),
             lambda: joint_spectrum(A, tol=tol),
             lambda: mapping_check(log1m(), A, 2, tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            call()


@pytest.mark.parametrize("call,message", [
    (lambda: make_tuple([[[-np.inf]]]), "entries must be finite"),
    (lambda: make_tuple([[[np.nan, 0.0], [0.0, -1.0]]]), "entries must be finite"),
    (lambda: make_tuple([]), "at least one generator"),
    (lambda: semigroup_apply(scalar_tuple(-1.0), [np.nan]), "must be finite"),
    (lambda: semigroup_apply(scalar_tuple(-1.0), [np.inf]), "must be finite"),
    (lambda: subordinated(log1m(), scalar_tuple(-1.0), np.nan), "must be finite"),
    (lambda: subordinated(log1m(), scalar_tuple(-1.0), np.inf), "must be finite"),
    (lambda: laplace_identity_error(log1m(), np.nan, [-1.0]), "must be finite"),
], ids=["tuple-inf", "tuple-nan", "tuple-empty", "semigroup-nan",
        "semigroup-inf", "subordinated-nan", "subordinated-inf", "laplace-nan"])
def test_non_finite_arguments_rejected(call, message):
    # each was accepted: a tuple with an infinite entry, the identity for
    # T(nan), a NaN matrix for g_nan(A); an empty list raised IndexError
    with pytest.raises(ValueError, match=message):
        call()
