"""Acceptance sweep: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; each test asserts its criterion at the stated tolerance, so a
plain pytest run reports the same verdicts through test outcomes.
"""

import time

import numpy as np
from scipy.linalg import expm

from bpcalc import (apply_psi, apply_psi_spectral, boundedness_experiment,
                    cone_combine, convergence_experiment, diagonal_lift,
                    direct_sum, eval_psi, eval_via_levy, factorization_check,
                    fractional_power, generator_limit_check,
                    holomorphy_criterion, holomorphy_defect_ray,
                    laplace_identity_error, linear, log1m,
                    make_commuting_random, make_jordan_polynomial, make_tuple,
                    mapping_check, moment_check, poisson, semigroup_apply,
                    step_bound_check, subordinated, v_operator, w_operator,
                    w_operator_bound)
from bpcalc.cli import main


def opnorm(m):
    return float(np.linalg.norm(m, 2))


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = "criterion %2d  %-28s %s" % (num, name, tag)
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


PS = poisson()
LG = log1m()
FP05 = fractional_power(0.5)
LIFT2_LG = diagonal_lift(LG, [1.0, 0.5])
LIFT2_PS = diagonal_lift(PS, [1.0, 0.8])
DS2 = direct_sum(PS, FP05)
LIFT3_LG = diagonal_lift(LG, [1.0, 0.6, 0.3])
DS3 = direct_sum(LG, DS2)

POOLS = {1: (PS, LG, FP05), 2: (LIFT2_PS, LIFT2_LG, DS2), 3: (LIFT3_LG, DS3)}


def test_criterion_01_representation_consistency():
    cases = [fractional_power(a) for a in (0.3, 0.5, 0.7, 1.0)]
    cases += [PS, LG, LIFT2_LG, diagonal_lift(PS, [0.7]), DS2]
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for psi in cases:
        for _ in range(50):
            s = rng.uniform(-4.0, -0.05, psi.n)
            a = complex(eval_psi(psi, s))
            b = complex(eval_via_levy(psi, s))
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    elapsed = time.perf_counter() - start
    report(1, "representation consistency",
           worst <= 1e-6 and elapsed < 10.0,
           "worst %.3g, %.1fs" % (worst, elapsed))


def test_criterion_02_spectral_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        n = i % 3 + 1
        d = 2 + i % 7
        A = make_commuting_random(n, d, seed=i)
        psi = POOLS[n][i % len(POOLS[n])]
        S = apply_psi_spectral(psi, A)
        Q = apply_psi(psi, A)
        worst = max(worst, opnorm(Q - S) / max(1.0, opnorm(S)))
    elapsed = time.perf_counter() - start
    report(2, "spectral-oracle equivalence",
           worst <= 1e-6 and elapsed < 60.0,
           "worst %.3g, %.1fs over 100 tuples" % (worst, elapsed))


def test_criterion_03_poisson_identity():
    worst = 0.0
    for i in range(10):
        if i % 2:
            A = make_jordan_polynomial(1, 3 + i % 3, seed=i)
        else:
            A = make_commuting_random(1, 2 + i % 6, seed=50 + i)
        lhs = apply_psi(PS, A)
        rhs = semigroup_apply(A, [1.0]) - np.eye(A.d)
        worst = max(worst, opnorm(lhs - rhs))
    report(3, "poisson identity", worst <= 1e-10, "worst %.3g" % worst)


def test_criterion_04_subordination():
    cases = [PS, fractional_power(1.0), FP05, LG,
             diagonal_lift(LG, [1.0, 0.5]), direct_sum(PS, FP05),
             cone_combine([(0.6, FP05), (0.4, PS)])]
    worst_exp = 0.0
    worst_lap = 0.0
    monotone = True
    final_ok = True
    for k, psi in enumerate(cases):
        A = make_commuting_random(psi.n, 5, seed=40 + k)
        G = apply_psi(psi, A)
        stretch = np.linspace(1.0, 1.5, psi.n)
        s_grid = [-v * stretch for v in np.geomspace(0.1, 3.0, 7)]
        for t in (0.1, 1.0, 5.0):
            S = subordinated(psi, A, t, tol=1e-11)
            E = expm(t * G)
            worst_exp = max(worst_exp, opnorm(S - E) / opnorm(E))
            worst_lap = max(worst_lap,
                            laplace_identity_error(psi, t, s_grid, tol=1e-11))
        rng = np.random.default_rng(40 + k)
        x = rng.standard_normal(A.d)
        x = x / np.linalg.norm(x)
        # drift-heavy tuples need t = 1e-6 before t*||psi(A)^2 x||/2 < 1e-4
        res = generator_limit_check(psi, A, x, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        monotone = monotone and bool(np.all(np.diff(res) <= 1e-12))
        final_ok = final_ok and res[-1] < 1e-4
    report(4, "subordination",
           worst_exp <= 1e-6 and worst_lap <= 1e-6 and monotone and final_ok,
           "exp %.3g, laplace %.3g" % (worst_exp, worst_lap))


def test_criterion_05_spectral_mapping():
    failures = 0
    inapplicable = 0
    part3_cases = []
    for i in range(100):
        n = i % 3 + 1
        d = 2 + i % 7
        A = make_commuting_random(n, d, seed=100 + i)
        psi = POOLS[n][i % len(POOLS[n])]
        F = apply_psi(psi, A)
        for part in (1, 2, 4, 5):
            rep = mapping_check(psi, A, part, tol=1e-6, operator=F)
            if not rep.applicable:
                inapplicable += 1
                continue
            failures += sum(r.verdict != "pass" for r in rep.rows)
        if len(part3_cases) < 20:
            part3_cases.append((psi, A, F))
    for i in range(20):
        n = i % 2 + 1
        A = make_jordan_polynomial(n, 4, seed=200 + i)
        psi = POOLS[n][i % len(POOLS[n])]
        F = apply_psi(psi, A)
        for part in (1, 2, 4, 5):
            rep = mapping_check(psi, A, part, tol=1e-6, operator=F)
            if not rep.applicable:
                inapplicable += 1
                continue
            failures += sum(r.verdict != "pass" for r in rep.rows)
    pairings = 0
    for psi, A, F in part3_cases:
        rep = mapping_check(psi, A, 3, tol=1e-6, operator=F)
        assert rep.applicable
        pairings += len(rep.rows)
        failures += sum(r.verdict != "pass" for r in rep.rows)
    report(5, "spectral mapping",
           failures == 0 and inapplicable == 0 and pairings >= 20,
           "0 failures over 120 tuples, %d pairings" % pairings)


def test_criterion_06_factorization():
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(50):
        n = i % 2 + 1
        d = 3 + i % 4
        A = make_commuting_random(n, d, seed=300 + i)
        psi = POOLS[n][i % len(POOLS[n])]
        lam = rng.uniform(-3.0, -0.3, n) + 1j * rng.uniform(-2.0, 2.0, n)
        worst = max(worst, factorization_check(psi, A, lam))
    worst_v = 0.0
    for i in range(10):
        n = i % 2 + 1
        A = make_commuting_random(n, 4, seed=350 + i)
        lam = complex(rng.uniform(-3.0, -0.3), rng.uniform(-1.0, 1.0))
        u = float(rng.uniform(0.1, 3.0))
        j = i % n
        T = semigroup_apply(A, u * np.eye(n)[j])
        lhs = np.exp(lam * u) * np.eye(A.d) - T
        rhs = (lam * np.eye(A.d) - A.generators[j]) @ v_operator(lam, A, j, u)
        worst_v = max(worst_v, opnorm(lhs - rhs) / max(1.0, opnorm(lhs)))
    bound_ok = True
    for i in range(10):
        n = i % 2 + 1
        A = make_commuting_random(n, 4, seed=370 + i)
        psi = POOLS[n][i % len(POOLS[n])]
        lam = rng.uniform(-3.0, -0.3, n) + 1j * rng.uniform(-1.0, 1.0, n)
        for j in range(n):
            W = w_operator(psi, A, lam, j)
            bound = w_operator_bound(psi, A, lam, j)
            bound_ok = bound_ok and opnorm(W) <= bound * (1.0 + 1e-9)
    report(6, "factorization",
           worst <= 1e-6 and worst_v <= 1e-8 and bound_ok,
           "resid %.3g, v-identity %.3g" % (worst, worst_v))


def test_criterion_07_holomorphy():
    b_pi = holomorphy_defect_ray(np.pi)
    b_half = holomorphy_defect_ray(np.pi / 2)
    grid = np.linspace(np.pi / 2, np.pi, 50)
    values = np.array([holomorphy_defect_ray(t) for t in grid])
    nonincreasing = bool(np.all(np.diff(values) <= 1e-12))
    # a finite spectrum is the diagonal tuple that holds it, with M = 1
    points = make_tuple([np.diag([-2.0 + 1.0j, -0.3])])
    configs = [
        ([np.pi], LG),
        ([3 * np.pi / 4], FP05),
        ([np.pi, points], LIFT2_LG),
    ]
    measured_ok = True
    for models, psi in configs:
        rep = holomorphy_criterion(models, psi=psi)
        assert rep.satisfied and rep.measured_limsup is not None
        measured_ok = measured_ok and (
            rep.measured_limsup <= rep.weighted_sum + 0.05)
    report(7, "holomorphy",
           abs(b_pi - 1.0) <= 1e-6 and abs(b_half - 2.0) <= 1e-6
           and nonincreasing and measured_ok,
           "b(pi)=%.8f, b(pi/2)=%.8f" % (b_pi, b_half))


def test_criterion_08_moment_inequality():
    rng = np.random.default_rng(8)
    worst_slack = np.inf
    worst_step = np.inf
    for i in range(1000):
        n = i % 3 + 1
        d = 2 + i % 7
        A = make_commuting_random(n, d, seed=400 + i)
        psi = POOLS[n][i % len(POOLS[n])]
        x = rng.standard_normal(d)
        rep = moment_check(psi, A, x)
        scale = max(1.0, rep.lhs, rep.rhs)
        worst_slack = min(worst_slack, rep.slack / scale)
        xu = x / np.linalg.norm(x)
        u = rng.uniform(0.0, 2.0, n)
        worst_step = min(worst_step, step_bound_check(A, xu, u))
    report(8, "moment inequality",
           worst_slack >= -1e-9 and worst_step >= -1e-9,
           "worst slack %.3g, worst step %.3g over 1000 trials"
           % (worst_slack, worst_step))


def test_criterion_09_boundedness_dichotomy():
    bounded = boundedness_experiment(PS, [10, 50, 100])
    growing = boundedness_experiment(FP05, [1, 100])
    ok = (bool(np.all(bounded <= 2.0))
          and abs(growing[-1] - 10.0) <= 1e-6
          and growing[-1] > 10.0 * growing[0])
    report(9, "boundedness dichotomy", ok,
           "poisson max %.6f, stable K=100 %.9f" % (bounded.max(),
                                                    growing[-1]))


def test_criterion_10_convergence():
    ks = [1, 10, 100, 1000, 10000]
    seq = [diagonal_lift(PS, [1.0 / k]) for k in ks]
    A = make_commuting_random(1, 6, seed=17)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(6)
    x = x / np.linalg.norm(x)
    res = convergence_experiment(seq, A, x)
    ratios = res[:-1] / res[1:]
    # empirical order 1/k: asymptotic decade ratios land near 10
    order_ok = bool(np.all(ratios[1:] > 5.0)) and abs(ratios[-1] - 10.0) < 1.0
    report(10, "convergence", res[-1] <= 1e-3 and order_ok,
           "final %.3g, last ratio %.2f" % (res[-1], ratios[-1]))


def test_criterion_11_deterministic_csv(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc_a = main(["run", "theorem_suite", "--format", "csv", "--seed", "7",
                 "--out", str(a)])
    rc_b = main(["run", "theorem_suite", "--format", "csv", "--seed", "7",
                 "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report(11, "deterministic csv",
           rc_a == 0 and rc_b == 0 and identical,
           "%d bytes" % len(a.read_bytes()))
