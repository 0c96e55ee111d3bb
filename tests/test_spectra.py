"""Joint spectra and the mapping theorem checks."""

import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from bpcalc import _schur, spectra
from bpcalc._schur import _THETA
from bpcalc.bernstein import (diagonal_lift, eval_psi, fractional_power,
                              linear, log1m, poisson)
from bpcalc.calculus import (apply_psi, apply_psi_spectral,
                             factorization_check, subordinated, w_operator)
from bpcalc.semigroup import (SpectralData, fourier_translation_model,
                              make_commuting_random, make_jordan_polynomial,
                              make_tuple)
from bpcalc.spectra import (JointSpectrumResult, SpectrumPoint, _block_eigvecs,
                            _union,
                            joint_approximate_spectrum,
                            joint_point_spectrum, joint_residual_spectrum,
                            joint_spectrum, mapping_check, stacked_residual)


def diag_pair():
    return make_tuple([np.diag([-1.0, -2.0]).astype(complex),
                       np.diag([-3.0, -4.0]).astype(complex)])


def jordan_block(lam=-1.0, d=2):
    J = lam * np.eye(d, dtype=complex) + np.diag(np.ones(d - 1), 1)
    return make_tuple([J])


def collide(lam, step):
    """A second joint eigenvalue with the same theta-combination as ``lam``
    (n = 2), so both fall into one cluster of the Schur diagonal."""
    return np.asarray(lam) + step * np.array([_THETA[1], -_THETA[0]])


def over_basis(joint, seed):
    """P diag(joint[:, j]) P^-1 over a random basis with cond(P) <= 4."""
    d, n = joint.shape
    P = make_commuting_random(n, d, seed=seed, max_cond=4).spectral
    spec = SpectralData(joint=joint, basis=P.basis)
    return make_tuple([spec.apply(joint[:, j]) for j in range(n)],
                      spectral=spec, bounds=(P.cond,) * n)


def colliding_tuple(d=96, pairs=8, seed=5):
    """make_commuting_random(2, d) with the last ``pairs`` joint eigenvalues
    moved onto theta-collisions with the first ``pairs`` (imaginary steps,
    so the real parts stay in the left half-plane)."""
    A = make_commuting_random(2, d, seed=seed, max_cond=4,
                              spectral_box=((-4.0, -0.5), (-3.0, 3.0)))
    joint = A.spectral.joint.copy()
    for k in range(pairs):
        joint[d - 1 - k] = collide(joint[k], (0.25 + 0.05 * k) * 1j)
    return over_basis(joint, seed)


def recovered(result, joint):
    """Largest distance from a constructed joint eigenvalue to its nearest
    reported point."""
    got = result.values()
    gap = np.max(np.abs(joint[:, None, :] - got[None, :, :]), axis=2)
    return float(np.max(np.min(gap, axis=1)))


def values_set(result):
    return sorted(tuple(np.round(p.value, 8)) for p in result.points)


class TestPointSpectrum:
    def test_paired_diagonals(self):
        got = values_set(joint_point_spectrum(diag_pair()))
        assert got == [((-2 + 0j), (-4 + 0j)), ((-1 + 0j), (-3 + 0j))]

    def test_jordan_block_single_point(self):
        res = joint_point_spectrum(jordan_block())
        assert len(res.points) == 1
        p = res.points[0]
        assert abs(p.value[0] + 1.0) <= 1e-12
        assert p.multiplicity == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tuple_recovers_construction(self, seed):
        A = make_commuting_random(2, 6, seed=seed)
        res = joint_point_spectrum(A)
        assert len(res.points) == 6
        got = np.array(sorted(map(tuple, res.values()),
                              key=lambda t: (t[0].real, t[0].imag)))
        want = np.array(sorted(map(tuple, A.spectral.joint),
                               key=lambda t: (t[0].real, t[0].imag)))
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_certificates_hold(self):
        A = make_commuting_random(3, 5, seed=5)
        for p in joint_point_spectrum(A).points:
            x = p.right_vector
            res = max(np.linalg.norm(G @ x - p.value[j] * x)
                      for j, G in enumerate(A.generators))
            assert res <= 1e-8

    def test_jordan_polynomial_tuple(self):
        A = make_jordan_polynomial(2, 6, seed=3)
        res = joint_point_spectrum(A)
        assert len(res.points) == 1
        want = np.array([A.generators[j][0, 0] for j in range(2)])
        assert np.max(np.abs(res.points[0].value - want)) <= 1e-10


class TestReorderedSchur:
    """Clusters of the Schur diagonal with more than one eigenvalue go
    through the block solve; reading them from one Schur vector would merge
    or lose points."""

    def test_coinciding_combinations_split(self):
        lam = np.array([-1.0, -1.0])
        mu = collide(lam, 0.5)
        joint = np.array([[-3.0, -0.5], lam, [-2.0, -2.5], mu])
        A = make_tuple([np.diag(joint[:, j]).astype(complex) for j in range(2)])
        res = joint_point_spectrum(A)
        assert len(res.points) == 4
        assert recovered(res, joint) <= 1e-12
        assert all(p.multiplicity == 1 for p in res.points)

    def test_triple_eigenvalue_one_point(self):
        lam = np.array([-1.0 + 0.5j, -0.5])
        joint = np.array([lam, [-2.0, -1.0], lam, collide(lam, -0.4), lam,
                          [-0.7, -3.0 + 1j]])
        res = joint_point_spectrum(over_basis(joint, seed=3))
        assert len(res.points) == 4
        assert recovered(res, joint) <= 1e-10
        mult = {tuple(np.round(p.value, 6)): p.multiplicity for p in res.points}
        assert mult[tuple(np.round(lam, 6))] == 3
        assert sorted(mult.values()) == [1, 1, 1, 3]

    @pytest.mark.parametrize("d", [8, 32])
    def test_jordan_polynomial_one_point_one_left_vector(self, d):
        A = make_jordan_polynomial(2, d, seed=11, re_box=(-3.0, -1.0))
        want = np.array([A.generators[j][0, 0] for j in range(2)])
        right = joint_point_spectrum(A).points
        left = joint_residual_spectrum(A).points
        assert len(right) == 1 and len(left) == 1
        assert right[0].multiplicity == 1 and left[0].multiplicity == 1
        for p in right + left:
            assert np.max(np.abs(p.value - want)) <= 1e-10
        f = left[0].left_vector
        assert abs(abs(f[-1]) - 1.0) <= 1e-10

    def test_random_tuple_with_collisions_d96(self):
        plain = make_commuting_random(2, 96, seed=5, max_cond=4,
                                      spectral_box=((-4.0, -0.5), (-3.0, 3.0)))
        for A in (plain, colliding_tuple()):
            res = joint_point_spectrum(A)
            assert len(res.points) == 96
            assert recovered(res, A.spectral.joint) <= 1e-10
            for p in res.points:
                x = p.right_vector
                assert max(np.linalg.norm(G @ x - p.value[j] * x)
                           for j, G in enumerate(A.generators)) <= res.tol

    def test_order_repeats(self):
        A = colliding_tuple(d=24, pairs=4)
        for spectrum in (joint_point_spectrum, joint_residual_spectrum,
                         joint_spectrum):
            first, second = spectrum(A).values(), spectrum(A).values()
            assert first.shape == (24, 2)
            assert np.array_equal(first, second)


SPLIT_TUPLES = [lambda: make_jordan_polynomial(2, 8, seed=3),
                lambda: make_tuple(make_commuting_random(1, 8, seed=5).generators)]


class TestBlockSplit:
    """A tuple's block split is computed once and shared by the calculus
    and the joint spectra; its bases are slices of one d x d basis."""

    @pytest.mark.parametrize("build", SPLIT_TUPLES, ids=["jordan", "stripped"])
    def test_one_schur_form_per_tuple(self, build, monkeypatch):
        calls = []
        schur = _schur.schur

        def counted(*args, **kwargs):
            calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(_schur, "schur", counted)
        A = build()
        psi = fractional_power(0.5) if A.n == 1 \
            else diagonal_lift(fractional_power(0.5), [1.0, 0.6])
        lam = [-0.9 + 0.1j] * A.n
        apply_psi(psi, A)
        subordinated(psi, A, 0.5)
        w_operator(psi, A, lam, 0)
        factorization_check(psi, A, lam)
        joint_point_spectrum(A)
        joint_approximate_spectrum(A)
        for part in (2, 4):
            assert mapping_check(psi, A, part).passed
        assert len(calls) == 1
        # the adjoint tuple has its own split, also formed once
        joint_residual_spectrum(A)
        joint_residual_spectrum(A)
        joint_spectrum(A)
        for part in (1, 3, 5):
            mapping_check(psi, A, part)
        assert len(calls) == 2
        assert A.adjoint_blocks is A.adjoint_blocks
        # with every schur that spectra can reach counted, the five mapping
        # parts on a shared operator add none
        monkeypatch.setattr(scipy.linalg, "schur", counted)
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("bpcalc") and hasattr(m, "schur")]:
            monkeypatch.setattr(module, "schur", counted)
        F = apply_psi(psi, A)
        before = len(calls)
        for part in (1, 2, 3, 4, 5):
            mapping_check(psi, A, part, operator=F)
        assert len(calls) == before

    @pytest.mark.parametrize("build", SPLIT_TUPLES + [
        lambda: make_commuting_random(2, 24, seed=7), colliding_tuple],
        ids=["jordan", "stripped", "spectral", "colliding"])
    def test_bases_are_slices_of_one_basis(self, build):
        A = build()
        split = A.blocks
        assert A.blocks is split
        assert sum(Q.shape[1] for Q in split.bases) == A.d
        for Q, blocks in zip(split.bases, split.compressions):
            assert np.shares_memory(Q, split.basis)
            assert [B.shape for B in blocks] == [(Q.shape[1],) * 2] * A.n


class TestResidualSpectrum:
    def test_normal_tuple_self_dual(self):
        A = diag_pair()
        assert values_set(joint_residual_spectrum(A)) == values_set(
            joint_point_spectrum(A))

    def test_jordan_left_vector(self):
        res = joint_residual_spectrum(jordan_block())
        assert len(res.points) == 1
        p = res.points[0]
        assert abs(p.value[0] + 1.0) <= 1e-10
        # left null direction of J(-1)+1 is the last coordinate
        assert abs(abs(p.left_vector[1]) - 1.0) <= 1e-10

    def test_corank_certificate(self):
        A = make_commuting_random(2, 5, seed=9)
        scale = max(np.linalg.norm(G, 2) for G in A.generators)
        for p in joint_residual_spectrum(A).points:
            assert p.corank <= 1e-8 * max(1.0, scale)

    def test_duality_two_routes(self):
        # left-eigenvector solve against the adjoint-tuple route
        A = make_commuting_random(2, 5, seed=21)
        res = joint_residual_spectrum(A)
        assert len(res.points) == 5
        for p in res.points:
            f = p.left_vector
            for j, G in enumerate(A.generators):
                assert np.linalg.norm(f.conj() @ G - p.value[j] * f.conj()) <= 1e-8


class TestApproximateSpectrum:
    def test_diagonal_residual_zero(self):
        for p in joint_approximate_spectrum(diag_pair()).points:
            assert p.residual <= 1e-12

    def test_collapse_to_point_spectrum(self):
        A = make_commuting_random(2, 6, seed=13)
        assert values_set(joint_approximate_spectrum(A)) == values_set(
            joint_point_spectrum(A))

    def test_negative_certificate_off_spectrum(self):
        A = make_commuting_random(2, 4, seed=17)
        lam = A.spectral.joint[0] + np.array([0.5, 0.0])
        res, _ = stacked_residual(A, lam)
        assert res > 1e-3

    def test_jordan_residual(self):
        res = joint_approximate_spectrum(jordan_block())
        assert len(res.points) == 1
        assert res.points[0].residual <= 1e-12

    def test_sum_certificate(self):
        A = make_commuting_random(3, 5, seed=25)
        for p in joint_approximate_spectrum(A).points:
            res, x = stacked_residual(A, p.value)
            total = sum(np.linalg.norm(G @ x - p.value[j] * x)
                        for j, G in enumerate(A.generators))
            assert total <= 1e-8


class TestJointSpectrum:
    def test_normal_tuple_equals_point(self):
        A = diag_pair()
        assert values_set(joint_spectrum(A)) == values_set(joint_point_spectrum(A))

    def test_jordan_merged(self):
        res = joint_spectrum(jordan_block())
        assert len(res.points) == 1
        p = res.points[0]
        assert p.right_vector is not None and p.left_vector is not None

    def test_contained_in_product_of_spectra(self):
        A = make_commuting_random(2, 6, seed=29)
        per_axis = [np.linalg.eigvals(G) for G in A.generators]
        for p in joint_spectrum(A).points:
            for j in range(A.n):
                assert np.min(np.abs(per_axis[j] - p.value[j])) <= 1e-8


class TestMappingCheck:
    def test_part_two_spectral_equality(self):
        A = make_commuting_random(2, 5, seed=31)
        psi = diagonal_lift(log1m(), [1.0, 0.5])
        rep = mapping_check(psi, A, 2)
        assert rep.applicable and rep.passed
        assert len(rep.rows) == 5
        # equality of sets: every eigenvalue of psi(A) is matched by some row
        F = apply_psi_spectral(psi, A)
        evals = np.linalg.eigvals(F)
        mapped = np.array([r.mapped for r in rep.rows])
        for ev in evals:
            assert np.min(np.abs(mapped - ev)) <= 1e-6 * (1 + abs(ev))

    def test_jordan_poisson_point_mapping(self):
        A = jordan_block()
        rep = mapping_check(poisson(), A, 2)
        assert rep.passed
        assert abs(rep.rows[0].mapped - (np.exp(-1) - 1)) <= 1e-9

    @pytest.mark.parametrize("part", [1, 2, 4, 5])
    def test_parts_hold_on_random_tuples(self, part):
        psi = diagonal_lift(fractional_power(0.5), [1.0, 0.8])
        for seed in range(4):
            A = make_commuting_random(2, 5, seed=40 + seed)
            rep = mapping_check(psi, A, part)
            assert rep.applicable
            assert rep.passed, [r for r in rep.rows if r.verdict != "pass"]

    @pytest.mark.parametrize("part", [1, 2, 4, 5])
    def test_parts_hold_on_jordan_tuples(self, part):
        psi = diagonal_lift(log1m(), [0.9, 0.4])
        for seed in range(3):
            A = make_jordan_polynomial(2, 5, seed=60 + seed)
            rep = mapping_check(psi, A, part)
            assert rep.applicable
            assert rep.passed, [r for r in rep.rows if r.verdict != "pass"]

    def test_part_three_nondegenerate(self):
        psi = diagonal_lift(poisson(), [1.0, 0.3])
        A = make_commuting_random(2, 5, seed=71)
        rep = mapping_check(psi, A, 3)
        assert rep.passed
        assert len(rep.rows) == 5
        assert all(r.evidence > 1e-3 for r in rep.rows)

    def test_fourier_boundary_spectrum_applicable_for_poisson(self):
        A = fourier_translation_model(2)
        rep = mapping_check(poisson(), A, 4)
        assert rep.applicable
        assert "finite" in rep.reason
        assert rep.passed

    def test_fourier_boundary_inapplicable_for_fractional(self):
        A = fourier_translation_model(2)
        rep = mapping_check(fractional_power(0.5), A, 4, operator=np.zeros((5, 5)))
        assert not rep.applicable
        assert rep.rows == ()
        assert rep.passed

    def test_catalog_partials_on_boundary_spectrum(self):
        # a spectral point at 0: the catalog's finite partials decide part 4
        psi = log1m()
        joint = np.array([[0.0], [-1.0]], dtype=complex)
        spec = SpectralData(joint=joint, basis=np.eye(2, dtype=complex))
        A = make_tuple([np.diag(joint[:, 0])], spectral=spec)
        rep = mapping_check(psi, A, 4, operator=apply_psi_spectral(psi, A))
        assert rep.applicable
        assert rep.reason.endswith("(catalog)")
        assert rep.passed and len(rep.rows) == 2

    def test_left_half_plane_hypothesis_reason(self):
        A = make_commuting_random(1, 4, seed=77)
        rep = mapping_check(fractional_power(0.5), A, 5)
        assert rep.applicable
        assert "left half-plane" in rep.reason

    def test_linear_mapping_exact(self):
        A = make_commuting_random(2, 4, seed=83)
        rep = mapping_check(linear([0.6, 0.3]), A, 5)
        assert rep.passed
        for r in rep.rows:
            lam = np.array(r.source)
            assert abs(r.mapped - eval_psi(linear([0.6, 0.3]), lam)) <= 1e-12

    def test_bad_part_rejected(self):
        A = make_commuting_random(1, 3, seed=2)
        with pytest.raises(ValueError):
            mapping_check(poisson(), A, 6)


def union_reference(approx, resid):
    """The pairwise loop ``_union`` replaced, kept as its reference."""
    tol = approx.tol
    pts = list(approx.points)
    for q in resid.points:
        merged = False
        for i, p in enumerate(pts):
            if np.max(np.abs(p.value - q.value)) <= tol * (1.0 + np.max(np.abs(p.value))):
                pts[i] = SpectrumPoint(
                    value=p.value, right_vector=p.right_vector,
                    left_vector=q.left_vector, residual=p.residual,
                    corank=q.corank,
                    multiplicity=max(p.multiplicity, q.multiplicity))
                merged = True
                break
        if not merged:
            pts.append(q)
    return JointSpectrumResult(points=tuple(pts), tol=tol)


def residual_reference(A, tol=1e-8):
    """The per-call route ``joint_residual_spectrum`` replaced, kept as its
    reference: a fresh split of the reversed adjoint tuple, the eigenvector
    test on the adjoint generators, and an SVD of the horizontal stack of
    (lam_j I - A_j) where a corank misses.  Each corank is read from the
    found eigenvector itself."""
    star = [G.conj().T for G in A.generators]
    rev = np.eye(A.d)[::-1]
    split = _schur.Blocks([rev @ G @ rev for G in star])
    limit = tol * split.scale
    found = []
    for Q, blocks in zip(split.bases, split.compressions):
        pairs = ([(np.array([B[0, 0] for B in blocks]), Q)] if Q.shape[1] == 1
                 else [(mu, Q @ K) for mu, K in _block_eigvecs(blocks, tol)])
        for mu, V in pairs:
            f = V[::-1, 0] / np.linalg.norm(V[::-1, 0])
            if max(np.linalg.norm(G @ f - m * f) for G, m in zip(star, mu)) <= limit:
                found.append((mu, f, V.shape[1]))
    pts = []
    for mu, f, m in found:
        corank = np.linalg.norm([G @ f - l * f for G, l in zip(star, mu)])
        lam = np.conj(mu)
        if corank > limit:
            stack = np.hstack([l * np.eye(A.d) - G for G, l in zip(A.generators, lam)])
            U, s_vals, _ = np.linalg.svd(stack, full_matrices=False)
            corank, f = s_vals[-1], U[:, -1]
        pts.append(SpectrumPoint(value=lam, left_vector=f, corank=float(corank),
                                 multiplicity=m))
    return JointSpectrumResult(points=tuple(pts), tol=tol)


def svd_min(M):
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def adjoint_scale(A):
    """max(1, ||C^*||_2) of the adjoint split, C = sum_j theta_j A_j."""
    return max(1.0, np.linalg.norm(sum(t * G for t, G in zip(A.blocks.theta,
                                                              A.generators)), 2))


def lifted_poisson(n):
    return poisson() if n == 1 else diagonal_lift(poisson(), [1.0, 0.5, 0.3][:n])


CERTIFIED = {
    **{"random-n%d-d%d" % (n, d): (lambda n=n, d=d: make_commuting_random(n, d, seed=n + d))
       for n in (1, 2, 3) for d in (5, 32)},
    **{"jordan-n%d-d%d" % (n, d): (lambda n=n, d=d: make_jordan_polynomial(n, d, seed=n + d))
       for n in (1, 2) for d in (8, 32)},
    "fourier": lambda: fourier_translation_model(2),
}


class TestCertificates:
    """Every certificate is the residual of a returned unit vector, so it
    bounds the smallest singular value from above; the SVD runs only where
    that bound misses the scaled tolerance."""

    @pytest.mark.parametrize("build", CERTIFIED.values(), ids=CERTIFIED.keys())
    def test_bounds_the_singular_value(self, build):
        A = build()
        tol = 1e-8
        eye = np.eye(A.d)
        roundoff = 1e-14 * A.blocks.scale
        approx = joint_approximate_spectrum(A, tol)
        assert approx.points
        for p in approx.points:
            stack = np.vstack([G - l * eye for G, l in zip(A.generators, p.value)])
            assert abs(np.linalg.norm(p.right_vector) - 1.0) <= 1e-12
            # the residual of the returned vector, up to rounding
            assert p.residual == pytest.approx(
                np.linalg.norm(stack @ p.right_vector), abs=roundoff)
            assert svd_min(stack) * (1 - 1e-12) <= p.residual <= tol * A.blocks.scale
        resid = joint_residual_spectrum(A, tol)
        assert resid.points
        for p in resid.points:
            stack = np.hstack([l * eye - G for G, l in zip(A.generators, p.value)])
            f = p.left_vector
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12
            assert p.corank == pytest.approx(np.linalg.norm(f.conj() @ stack),
                                             abs=roundoff)
            assert svd_min(stack) * (1 - 1e-12) <= p.corank <= tol * adjoint_scale(A)
        psi = lifted_poisson(A.n)
        F = apply_psi(psi, A)
        for part in (1, 4):
            rep = mapping_check(psi, A, part, operator=F)
            assert rep.applicable and rep.passed and rep.rows
            for r in rep.rows:
                sigma = svd_min(F - r.mapped * eye)
                assert sigma * (1 - 1e-12) <= r.evidence <= r.threshold

    def test_no_svd_on_colliding_combinations(self, monkeypatch):
        # two joint eigenvalues with one theta-combination share a cluster;
        # the cluster solve's eigenvector of each is its own, so every
        # certificate is the residual of that vector and none needs an SVD
        A = colliding_tuple(d=24, pairs=4)
        calls = []
        smallest = spectra._smallest_singular

        def counted(*args):
            calls.append(1)
            return smallest(*args)

        monkeypatch.setattr(spectra, "_smallest_singular", counted)
        approx, resid = joint_approximate_spectrum(A), joint_residual_spectrum(A)
        assert calls == []
        assert len(approx.points) == len(resid.points) == 24
        roundoff = 1e-14 * A.blocks.scale
        eye = np.eye(A.d)
        for p in approx.points:
            stack = np.vstack([G - l * eye for G, l in zip(A.generators, p.value)])
            assert p.residual == pytest.approx(
                np.linalg.norm(stack @ p.right_vector), abs=roundoff)
        for p in resid.points:
            stack = np.hstack([l * eye - G for G, l in zip(A.generators, p.value)])
            assert p.corank == pytest.approx(
                np.linalg.norm(p.left_vector.conj() @ stack), abs=roundoff)

    def test_svd_where_the_vector_misses(self, monkeypatch):
        # a vector whose stacked residual passes the limit is replaced by
        # the SVD's minimizer, and its residual by the singular value
        A = make_commuting_random(2, 6, seed=9)
        joint_points = spectra._joint_points

        def missing(split, tol):
            x = np.ones(A.d) / np.sqrt(A.d)
            out = []
            for lam, _, _, m in joint_points(split, tol):
                r = np.linalg.norm([G @ x - l * x for G, l in zip(split.mats, lam)])
                assert r > tol * split.scale
                out.append((lam, x, r, m))
            return out

        monkeypatch.setattr(spectra, "_joint_points", missing)
        approx, resid = joint_approximate_spectrum(A), joint_residual_spectrum(A)
        assert len(approx.points) == len(resid.points) == 6
        for p in approx.points:
            res, x = stacked_residual(A, p.value)
            assert p.residual == res
            assert np.array_equal(p.right_vector, x)
        # the adjoint counterpart: the same SVD on the split's reversed
        # adjoint generators, its minimizer reversed back
        for p in resid.points:
            corank, f = spectra._smallest_singular(A.adjoint_blocks.mats,
                                                   np.conj(p.value))
            assert p.corank == corank
            assert np.array_equal(p.left_vector, f[::-1])

    def test_cheap_bound_misses_off_the_spectrum(self):
        # an operator shifted off psi(A): the unit-vector bound exceeds the
        # row's threshold, and the evidence is the exact singular value
        A = make_commuting_random(1, 6, seed=4)
        F = apply_psi(poisson(), A) + 1e-3 * np.eye(6)
        for part in (1, 4):
            rep = mapping_check(poisson(), A, part, operator=F)
            for r in rep.rows:
                assert r.verdict == "fail"
                assert r.evidence == svd_min(F - r.mapped * np.eye(6))

    def test_jordan_solves_raise_no_warning(self):
        A = make_jordan_polynomial(2, 32, seed=11)
        psi = lifted_poisson(2)
        F = apply_psi(psi, A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = joint_spectrum(A)
            reps = [mapping_check(psi, A, part, operator=F) for part in (1, 4, 5)]
        assert len(res.points) == 1
        assert all(rep.passed and len(rep.rows) == 1 for rep in reps)

    @pytest.mark.parametrize("n,d", [(1, 32), (2, 24)])
    def test_no_certificate_svd(self, n, d, monkeypatch):
        A = make_commuting_random(n, d, seed=d, max_cond=4,
                                  spectral_box=((-4.0, -0.5), (-3.0, 3.0)))
        psi = lifted_poisson(n)
        F = apply_psi(psi, A)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for part in (1, 4, 5):
            rep = mapping_check(psi, A, part, operator=F)
            assert rep.passed and len(rep.rows) == d
        assert calls == []

    @pytest.mark.parametrize("stripped", [False, True], ids=["spectral", "stripped"])
    def test_large_norms_keep_every_point(self, stripped):
        # |lambda| up to ~5e8: unscaled eigenvector tests at 1e-8 dropped
        # every point, and part 2 passed with no rows
        base = make_commuting_random(1, 8, seed=3)
        joint = 1e8 * base.spectral.joint
        spec = SpectralData(joint=joint, basis=base.spectral.basis)
        G = 1e8 * base.generators[0]
        A = make_tuple([G]) if stripped else make_tuple([G], spectral=spec)
        for spectrum in (joint_point_spectrum, joint_residual_spectrum,
                         joint_approximate_spectrum, joint_spectrum):
            res = spectrum(A)
            assert len(res.points) == 8
            assert recovered(res, joint) <= 1e-8 * 5e8
        rep = mapping_check(poisson(), A, 2)
        assert rep.passed and len(rep.rows) == 8


def scaled_tuple():
    """make_commuting_random(1, 8) scaled by 1e8, stripped of its
    spectral data."""
    return make_tuple([1e8 * make_commuting_random(1, 8, seed=3).generators[0]])


RESIDUAL_CASES = {**CERTIFIED, "colliding": colliding_tuple, "scaled": scaled_tuple}


@pytest.mark.parametrize("build", RESIDUAL_CASES.values(), ids=RESIDUAL_CASES.keys())
def test_residual_spectrum_matches_the_reference(build):
    A = build()
    got, want = joint_residual_spectrum(A), residual_reference(A)
    assert len(got.points) == len(want.points) > 0
    for p, q in zip(got.points, want.points):
        assert np.array_equal(p.value, q.value)
        assert p.multiplicity == q.multiplicity
        phase = np.vdot(p.left_vector, q.left_vector)
        phase /= abs(phase)
        assert np.linalg.norm(q.left_vector - phase * p.left_vector) <= 1e-12
        assert abs(p.corank - q.corank) <= 1e-14 * adjoint_scale(A)


def part3_reference(psi, A, F, tol=1e-6):
    """(source, mapped, matched, pairing) of each part 3 row, from the
    per-pair loop that the one product |L^* V| replaced."""
    evals, evecs = np.linalg.eig(F)
    resid = joint_residual_spectrum(A).points
    targets = eval_psi(psi, np.array([p.value for p in resid])).tolist()
    rows = []
    for i in range(len(evals)):
        for p, target in zip(resid, targets):
            pairing = float(abs(p.left_vector.conj() @ evecs[:, i]))
            if pairing > tol:
                rows.append((tuple(p.value), complex(evals[i]), target, pairing))
    return rows


PART3_CASES = {key: CERTIFIED[key] for key in ("random-n2-d32", "random-n3-d5",
                                               "fourier")}
PART3_CASES["colliding"] = lambda: colliding_tuple(d=24, pairs=4)


@pytest.mark.parametrize("build", PART3_CASES.values(), ids=PART3_CASES.keys())
def test_part_three_matches_the_loop(build):
    A = build()
    psi = lifted_poisson(A.n)
    F = apply_psi(psi, A)
    rows = mapping_check(psi, A, 3, operator=F).rows
    want = part3_reference(psi, A, F)
    assert rows and len(rows) == len(want)
    for r, (source, mapped, matched, pairing) in zip(rows, want):
        assert (r.source, r.mapped, r.matched) == (source, mapped, matched)
        # one product sums in another order than the loop's dot products
        assert abs(r.evidence - pairing) <= A.d * np.finfo(float).eps


UNION_CASES = {
    # resid points: two on one approx point, one near two approx points,
    # one on none, one on that one
    "mixed": ([[-1.0, -2.0], [-3.0, -1.0], [-1.0, -2.0 + 3.5e-8]],
              [[-3.0, -1.0 + 1e-12], [-1.0, -2.0 + 1.75e-8], [-5.0, 0.0],
               [-3.0, -1.0], [-5.0, 1e-12], [-7.0, -7.0]]),
    # the third is near both appended points
    "no-approx": ([], [[-1.0, -1.0], [-1.0, -1.0 + 3e-8], [-1.0, -1.0 + 1.5e-8],
                       [-2.0, 0.0]]),
    "no-resid": ([[-1.0, -2.0]], []),
}


@pytest.mark.parametrize("approx,resid", UNION_CASES.values(), ids=UNION_CASES.keys())
def test_union_matches_the_loop(approx, resid):
    def result(rows, right):
        pts = tuple(SpectrumPoint(
            value=np.array(v, dtype=complex), multiplicity=1 + k % 3,
            right_vector=np.array([k, 1.0]) if right else None,
            left_vector=None if right else np.array([1.0, k]),
            residual=1e-12 * k if right else None,
            corank=None if right else 1e-13 * k) for k, v in enumerate(rows))
        return JointSpectrumResult(points=pts, tol=1e-8)

    a, r = result(approx, True), result(resid, False)
    got, want = _union(a, r), union_reference(a, r)
    assert len(got.points) == len(want.points)
    for p, q in zip(got.points, want.points):
        assert np.array_equal(p.value, q.value)
        assert p.right_vector is q.right_vector and p.left_vector is q.left_vector
        assert (p.residual, p.corank, p.multiplicity) == (q.residual, q.corank,
                                                          q.multiplicity)


@pytest.mark.parametrize("build", [colliding_tuple, lambda: make_jordan_polynomial(2, 8, seed=3),
                                   lambda: make_commuting_random(3, 5, seed=5)],
                         ids=["colliding", "jordan", "random"])
def test_union_matches_the_loop_on_spectra(build):
    A = build()
    approx, resid = joint_approximate_spectrum(A), joint_residual_spectrum(A)
    got, want = _union(approx, resid), union_reference(approx, resid)
    assert len(got.points) == len(want.points)
    for p, q in zip(got.points, want.points):
        assert np.array_equal(p.value, q.value)
        assert p.left_vector is q.left_vector and p.corank == q.corank
