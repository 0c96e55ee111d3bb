"""Checks of bpcalc outputs against routes computed apart from the program.

Matrix references come from ``scipy.linalg`` applied to the combined
generator B (sqrtm, logm, expm); scalar references are the closed forms
written out here.  Nothing in this module calls bpcalc, and no check
compares against a stored copy of an earlier output.  Every check returns a
list of problems; an empty list means the output passed.
"""

import numpy as np
from scipy import linalg

# tolerance of every matrix comparison, relative to max(1, ||reference||);
# the quadratures run at absolute tolerance 1e-9, so honest outputs sit far
# below it and a perturbation of 1e-4 in norm sits far above
RTOL = 1e-6
# residual bound of factorization_check, the suite's default tolerance
FACTOR_TOL = 1e-6
# t-grid on which a semigroup bound must dominate ||exp(t A_j)||
T_GRID = np.geomspace(1e-2, 256.0, 12)


def _norm(M):
    return float(np.linalg.norm(M, 2))


def _matrix_sqrt_neg(B):
    return -linalg.sqrtm(-B)


def _eye(B):
    return np.eye(B.shape[0], dtype=complex)


# name -> (scalar reference psi(s), matrix reference psi(generators))
FUNCTIONS = {
    "fp": (lambda s: -np.sqrt(-s[0] + 0j),
           lambda G: _matrix_sqrt_neg(G[0])),
    "log1m": (lambda s: -np.log(1.0 - s[0]),
              lambda G: -linalg.logm(_eye(G[0]) - G[0])),
    "poisson": (lambda s: np.exp(s[0]) - 1.0,
                lambda G: linalg.expm(G[0]) - _eye(G[0])),
    # diagonal_lift(log1m, w = (1, 0.5)): log1m of B = A_1 + 0.5 A_2
    "lift": (lambda s: -np.log(1.0 - (s[0] + 0.5 * s[1])),
             lambda G: -linalg.logm(_eye(G[0]) - (G[0] + 0.5 * G[1]))),
    # direct_sum(poisson, fp): a sum of the two one-variable references
    "dsum": (lambda s: (np.exp(s[0]) - 1.0) - np.sqrt(-s[1] + 0j),
             lambda G: (linalg.expm(G[0]) - _eye(G[0]))
             + _matrix_sqrt_neg(G[1])),
}


def psi_reference(name, generators):
    return FUNCTIONS[name][1](list(generators))


def subordinated_reference(name, generators, t):
    return linalg.expm(t * psi_reference(name, generators))


def compare(label, out, ref, rtol=RTOL):
    """Relative distance of a matrix output to its reference."""
    if out is None or np.shape(out) != np.shape(ref) or not np.all(np.isfinite(out)):
        return ["%s: output is missing, misshapen or not finite" % label]
    rel = _norm(out - ref) / max(1.0, _norm(ref))
    if not rel <= rtol:
        return ["%s: relative error %.3g exceeds %.3g" % (label, rel, rtol)]
    return []


def commutes(label, F, generators, rtol=RTOL):
    """psi(A) commutes with each A_j."""
    problems = []
    for j, G in enumerate(generators):
        comm = _norm(F @ G - G @ F)
        scale = max(1.0, _norm(F)) * max(1.0, _norm(G))
        if not comm <= rtol * scale:
            problems.append("%s: commutator with A_%d is %.3g (scale %.3g)"
                            % (label, j, comm, scale))
    return problems


def semigroup_sup(generators):
    """max over the t-grid of ||exp(t A_j)||, one value per generator."""
    return [max(_norm(linalg.expm(t * G)) for t in T_GRID) for G in generators]


def bounds_dominate(label, bounds, sups):
    problems = []
    for j, (M, s) in enumerate(zip(bounds, sups)):
        if not M >= s:
            problems.append("%s: bound M_%d = %.6g is below ||exp(t A_%d)|| = "
                            "%.6g on the t-grid" % (label, j, M, j, s))
    return problems


def factorization(label, residual, tol=FACTOR_TOL):
    if not (np.isfinite(residual) and residual <= tol):
        return ["%s: factorization residual %.3g exceeds %.3g"
                % (label, residual, tol)]
    return []


def mapping(label, rep, joint, scalar_ref, rtol=RTOL):
    """A mapping-check report against psi at the joint eigenvalues.

    ``joint`` holds the joint eigenvalues known from the construction, one
    row per eigenvector; each reported point must be one of them, its
    mapped value must equal psi there, the operator's matched eigenvalue
    must sit within tolerance of it, and every eigenvalue must be seen.
    """
    problems = []
    joint = np.asarray(joint)
    tag = "%s part %d" % (label, rep.part)
    if not rep.applicable:
        return ["%s: reported inapplicable (%s)" % (tag, rep.reason)]
    if len(rep.rows) != len(joint):
        problems.append("%s: %d rows for %d joint eigenvalues"
                        % (tag, len(rep.rows), len(joint)))
    seen = set()
    for row in rep.rows:
        src = np.asarray(row.source, dtype=complex)
        dist = np.max(np.abs(joint - src), axis=1)
        k = int(np.argmin(dist))
        if dist[k] > rtol * (1.0 + np.max(np.abs(src))):
            problems.append("%s: source %s is no joint eigenvalue" % (tag, src))
            continue
        seen.add(k)
        want = complex(scalar_ref(joint[k]))
        scale = 1.0 + abs(want)
        if not abs(complex(row.mapped) - want) <= rtol * scale:
            problems.append("%s: mapped %s, psi gives %s" % (tag, row.mapped, want))
        if row.matched is None or not abs(complex(row.matched) - want) <= rtol * scale:
            problems.append("%s: operator eigenvalue %s misses psi value %s"
                            % (tag, row.matched, want))
        if row.verdict != "pass":
            problems.append("%s: row verdict %s" % (tag, row.verdict))
    if len(seen) != len(joint):
        problems.append("%s: %d of %d joint eigenvalues reported"
                        % (tag, len(seen), len(joint)))
    return problems


def eigenstructure(label, generators, basis, joint, rtol=RTOL):
    """A_j P = P diag(joint[:, j]): the construction data is what it says."""
    problems = []
    for j, G in enumerate(generators):
        res = _norm(G @ basis - basis * joint[:, j])
        if not res <= rtol * max(1.0, _norm(G)) * _norm(basis):
            problems.append("%s: A_%d P != P diag(lambda), residual %.3g"
                            % (label, j, res))
    return problems


def scenario(label, out, expected_rows, first_csv):
    """theorem_suite: exit code 0, the expected row count, and CSV bytes
    identical to the first run of the same scenario seed."""
    problems = []
    if out["exit"] != 0:
        problems.append("%s: exit code %d" % (label, out["exit"]))
    if out["rows"] != expected_rows:
        problems.append("%s: %d rows, expected %d" % (label, out["rows"], expected_rows))
    if first_csv is not None and out["csv"] != first_csv:
        problems.append("%s: CSV differs from the first run of this seed" % label)
    if out["csv"].count(b"\n") != expected_rows + 1:
        problems.append("%s: CSV has %d lines for %d rows"
                        % (label, out["csv"].count(b"\n"), expected_rows))
    return problems
