"""Scenario runner: JSON configs in, verdict tables or CSV out.

A scenario names Bernstein functions from the catalog, operator sources
(explicit matrices, random commuting recipes, Fourier models, spectral
rays), and a list of experiments wiring them together.  ``run`` executes
every experiment, collects one row per assertion, and ``emit_report``
renders the result as a per-experiment text table or as RFC-4180 CSV with
one row per assertion.

Exit codes: 0 every row PASS or INAPPLICABLE, 1 at least one assertion
failed, 2 config error, 3 numeric failure inside an experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .analysis import (boundedness_experiment, convergence_experiment,
                       holomorphy_criterion, moment_checks)
from .bernstein import CATALOG, QuadratureError, build_catalog
from .calculus import (CatalogGapError, apply_psi, apply_psi_spectral,
                       factorization_checks, generator_limit_check,
                       laplace_identity_error, subordinated)
from .semigroup import (DiagonalRayModel, fourier_translation_model,
                        make_commuting_random, make_commuting_random_stack,
                        make_tuple)
from .spectra import mapping_check

class ConfigError(ValueError):
    """Config rejection carrying a JSON-path field location."""

    def __init__(self, message: str, location: str = ""):
        text = "%s (at %s)" % (message, location) if location else message
        super().__init__(text)
        self.location = location


@dataclass(frozen=True)
class Row:
    """One assertion: verdict PASS, FAIL, INAPPLICABLE, or ERROR."""

    experiment: str
    case_id: str
    quantity: str
    value: Optional[float]
    bound: Optional[float]
    verdict: str


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    kind: str
    rows: tuple
    wall: float
    notes: tuple = ()

    @property
    def verdict(self) -> str:
        kinds = {r.verdict for r in self.rows}
        if "ERROR" in kinds:
            return "ERROR"
        if "FAIL" in kinds:
            return "FAIL"
        if kinds == {"INAPPLICABLE"}:
            return "INAPPLICABLE"
        return "PASS"


@dataclass(frozen=True)
class RunReport:
    seed: int
    tol: float
    experiments: tuple
    wall: float

    def rows(self):
        return [r for res in self.experiments for r in res.rows]

    @property
    def verdict(self) -> str:
        kinds = {r.verdict for r in self.rows()}
        return "FAIL" if ("FAIL" in kinds or "ERROR" in kinds) else "PASS"

    @property
    def exit_code(self) -> int:
        kinds = {r.verdict for r in self.rows()}
        if "ERROR" in kinds:
            return 3
        if "FAIL" in kinds:
            return 1
        return 0


@dataclass
class ScenarioConfig:
    tol: float
    seed: int
    fmt: str
    functions: dict
    function_specs: tuple
    operator_specs: tuple
    experiment_specs: tuple

    def operator_spec(self, ref: str) -> dict:
        for spec in self.operator_specs:
            if spec["id"] == ref:
                return spec
        raise KeyError(ref)


# ---------------------------------------------------------------------------
# config parsing


def _fail(message: str, location: str):
    raise ConfigError(message, location)


def _as_number(v, location: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail("expected a number", location)
    # json reads 1e999, NaN and Infinity; a huge integer overflows float()
    if not abs(v) <= sys.float_info.max:
        _fail("expected a finite number", location)
    return float(v)


def _as_ray_angle(v, location: str) -> float:
    # the ray e^{i theta} [0, inf) of a holomorphy model
    theta = _as_number(v, location)
    if np.cos(theta) > 1e-15:
        _fail("ray must lie in the closed left half-plane", location)
    return theta


def _as_int(v, location: str, minimum: Optional[int] = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail("expected an integer", location)
    if minimum is not None and v < minimum:
        _fail("must be at least %d" % minimum, location)
    return int(v)


def _as_complex_pair(v, location: str) -> list:
    # canonical form is [re, im]; bare reals are promoted
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [_as_number(v, location), 0.0]
    return _as_list(v, location, "expected a number or an [re, im] pair",
                    _as_number, 2, 2)


def _as_id(v, location: str) -> str:
    if not isinstance(v, str) or not v:
        _fail("expected a nonempty string id", location)
    return v


def _as_ref(v, location: str, table: dict, what: str) -> str:
    ref = _as_id(v, location)
    if ref not in table:
        _fail("unresolved %s reference %r" % (what, ref), location)
    return ref


def _as_list(v, location: str, message: str, item, min_len: int = 1,
             max_len: Optional[int] = None) -> list:
    """item(entry, "location[k]") of every entry; ``message`` rejects a
    value that is not a list of min_len..max_len entries."""
    if (not isinstance(v, (list, tuple)) or len(v) < min_len
            or (max_len is not None and len(v) > max_len)):
        _fail(message, location)
    return [item(x, "%s[%d]" % (location, k)) for k, x in enumerate(v)]


def _check_keys(raw: dict, allowed, location: str):
    for key in raw:
        if key not in allowed:
            _fail("unknown key %r" % key, location + "." + str(key))


def _as_object(v, location: str, keys) -> dict:
    if not isinstance(v, dict):
        _fail("expected an object", location)
    _check_keys(v, keys, location)
    return v


def _parse_function(raw, loc: str, known: dict) -> dict:
    """Build one catalog function into ``known``; returns its spec."""
    _as_object(raw, loc, ("id", "catalog", "parameters", "children"))
    fid = _as_id(raw.get("id"), loc + ".id")
    if fid in known:
        _fail("duplicate function id %r" % fid, loc + ".id")
    catalog = _as_id(raw.get("catalog"), loc + ".catalog")
    if catalog not in CATALOG:
        _fail("unknown catalog id %r" % catalog, loc + ".catalog")
    entry = CATALOG[catalog]
    ploc = loc + ".parameters"
    params = _as_object(raw.get("parameters", {}), ploc, (entry.param,))
    kids = _as_list(raw.get("children", []), loc + ".children",
                    "expected a list of function ids",
                    lambda ref, at: _as_ref(ref, at, known, "function"),
                    min_len=0)

    value, norm_params = None, {}
    if entry.param is not None:
        ploc += "." + entry.param
        value = params.get(entry.param, entry.default)
        if entry.kind == "number":
            value = _as_number(value, ploc)
        else:
            value = _as_list(value, ploc,
                             "expected a nonempty list of numbers", _as_number)
        norm_params = {entry.param: value}
    want = entry.child_count(value)
    if len(kids) != want:
        _fail("%r takes exactly %d children" % (catalog, want),
              loc + ".children")
    try:
        fn = build_catalog(catalog, norm_params, [known[k] for k in kids])
    except ValueError as exc:
        _fail(str(exc), ploc)
    known[fid] = fn
    return {"id": fid, "catalog": catalog, "parameters": norm_params,
            "children": kids}


def _parse_matrices(mats, loc: str) -> list:
    if not isinstance(mats, list) or not mats:
        _fail("expected a nonempty list of matrices", loc)
    norm = []
    d = None
    for j, mat in enumerate(mats):
        mloc = "%s[%d]" % (loc, j)
        if not isinstance(mat, list) or not mat:
            _fail("malformed matrix: expected a list of rows", mloc)
        if d is None:
            d = len(mat)
        if len(mat) != d:
            _fail("malformed matrix: generators must share one size", mloc)
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != d:
                _fail("malformed matrix: row %d is not length %d" % (r, d),
                      mloc)
            rows.append([_as_complex_pair(v, "%s[%d][%d]" % (mloc, r, c))
                         for c, v in enumerate(row)])
        norm.append(rows)
    return norm


def _parse_operator(raw, loc: str, seen: dict) -> dict:
    """Record one operator source's arity in ``seen`` (None for a ray model);
    returns its spec."""
    _as_object(raw, loc, ("id", "matrices", "random", "fourier", "ray"))
    oid = _as_id(raw.get("id"), loc + ".id")
    if oid in seen:
        _fail("duplicate operator id %r" % oid, loc + ".id")
    kinds = [k for k in ("matrices", "random", "fourier", "ray") if k in raw]
    if len(kinds) != 1:
        _fail("specify exactly one of matrices, random, fourier, ray", loc)
    kind = kinds[0]
    at = "%s.%s" % (loc, kind)
    spec = {"id": oid}
    if kind == "matrices":
        spec["matrices"] = _parse_matrices(raw["matrices"], at)
        arity = len(spec["matrices"])
    elif kind == "random":
        sub = _as_object(raw["random"], at, ("n", "d", "seed", "box"))
        n = _as_int(sub.get("n"), at + ".n", minimum=1)
        d = _as_int(sub.get("d"), at + ".d", minimum=1)
        seed = _as_int(sub.get("seed", 0), at + ".seed", minimum=0)
        rec = {"n": n, "d": d, "seed": seed}
        if "box" in sub:
            bloc = at + ".box"
            shape = "expected [[re_lo, re_hi], [im_lo, im_hi]]"
            (re_lo, re_hi), (im_lo, im_hi) = _as_list(
                sub["box"], bloc, shape,
                lambda pair, ploc: _as_list(pair, ploc, shape, _as_number,
                                            2, 2), 2, 2)
            if not (re_lo <= re_hi < 0.0):
                _fail("real range must satisfy re_lo <= re_hi < 0", bloc)
            if im_lo > im_hi:
                _fail("imaginary range is reversed", bloc)
            rec["box"] = [[re_lo, re_hi], [im_lo, im_hi]]
        spec["random"] = rec
        arity = n
    elif kind == "fourier":
        sub = _as_object(raw["fourier"], at, ("K", "n"))
        K = _as_int(sub.get("K"), at + ".K", minimum=1)
        n = _as_int(sub.get("n", 1), at + ".n", minimum=1)
        spec["fourier"] = {"K": K, "n": n}
        arity = n
    else:
        sub = _as_object(raw["ray"], at, ("theta",))
        spec["ray"] = {"theta": _as_ray_angle(sub.get("theta"), at + ".theta")}
        arity = None  # not an operator tuple
    seen[oid] = arity
    return spec


def _times_fields(raw, loc, *_):
    at = loc + ".times"
    times = _as_list(raw.get("times", [0.1, 1.0, 5.0]), at,
                     "expected a nonempty list of positive times", _as_number)
    if any(t <= 0 for t in times):
        _fail("times must be positive", at)
    return {"times": times}


def _parts_fields(raw, loc, *_):
    at = loc + ".parts"
    parts = _as_list(raw.get("parts", [1, 2, 4, 5]), at,
                     "expected a nonempty list of parts 1..5", _as_int)
    if any(p not in (1, 2, 3, 4, 5) for p in parts):
        _fail("parts must be within 1..5", at)
    return {"parts": parts}


def _as_lambda(lam, location: str, n: int) -> list:
    pairs = _as_list(lam, location, "lambda must list %d components" % n,
                     _as_complex_pair, n, n)
    if any(p[0] >= 0 for p in pairs):
        _fail("factorization needs Re lambda_j < 0", location)
    return pairs


def _factorization_fields(raw, loc, n, *_):
    # explicit lambdas replace the random trials
    if "lambdas" in raw:
        if "trials" in raw:
            _fail("trials cannot be combined with lambdas", loc + ".trials")
        return {"lambdas": _as_list(
            raw["lambdas"], loc + ".lambdas",
            "expected a nonempty list of lambda tuples",
            lambda lam, at: _as_lambda(lam, at, n))}
    return {"trials": _as_int(raw.get("trials", 5), loc + ".trials",
                              minimum=1)}


def _as_model(m, location: str, op_arity: dict):
    # a ray angle, or the id of a ray model or a one-generator tuple
    if not isinstance(m, str):
        return _as_ray_angle(m, location)
    ref = _as_ref(m, location, op_arity, "operator")
    if op_arity[ref] not in (None, 1):
        _fail("holomorphy model must be a ray or a one-generator tuple",
              location)
    return ref


def _holomorphy_fields(raw, loc, _n, functions, op_arity):
    models = _as_list(raw.get("models"), loc + ".models",
                      "expected a nonempty list of models",
                      lambda m, at: _as_model(m, at, op_arity))
    bounds = _as_list(raw.get("bounds"), loc + ".bounds",
                      "bounds must list one M_j per model", _as_number,
                      len(models), len(models))
    if any(b < 1.0 for b in bounds):
        _fail("semigroup bounds are at least 1", loc + ".bounds")
    out = {"models": models, "bounds": bounds}
    if "function" in raw:
        at = loc + ".function"
        ref = out["function"] = _as_ref(raw["function"], at, functions,
                                        "function")
        if functions[ref].n != len(models):
            _fail("function arity %d does not match %d models"
                  % (functions[ref].n, len(models)), at)
    return out


def _moment_fields(raw, loc, *_):
    return {"trials": _as_int(raw.get("trials", 100), loc + ".trials",
                              minimum=1)}


def _boundedness_fields(raw, loc, *_):
    return {"K_list": _as_list(raw.get("K_list", [10, 50, 100]),
                               loc + ".K_list",
                               "expected a nonempty list of cutoffs",
                               lambda K, at: _as_int(K, at, minimum=1))}


def _convergence_fields(raw, loc, *_):
    target = _as_number(raw.get("target", 1e-3), loc + ".target")
    if target <= 0:
        _fail("target must be positive", loc + ".target")
    return {"target": target}


def _parse_experiment(raw, loc: str, functions: dict, op_arity: dict):
    if not isinstance(raw, dict):
        _fail("expected an object", loc)
    kind = raw.get("kind")
    if kind not in _EXPERIMENT_KINDS:
        _fail("unknown experiment kind %r" % kind, loc + ".kind")
    entry = _EXPERIMENTS[kind]
    spec = {"kind": kind}
    if "id" in raw:
        spec["id"] = _as_id(raw["id"], loc + ".id")

    n = None
    if "function" in entry.operands:
        at = loc + ".function"
        ref = spec["function"] = _as_ref(raw.get("function"), at, functions,
                                         "function")
        n = functions[ref].n
    if "functions" in entry.operands:
        at = loc + ".functions"
        refs = spec["functions"] = _as_list(
            raw.get("functions"), at, "expected at least two function ids",
            lambda ref, rloc: _as_ref(ref, rloc, functions, "function"),
            min_len=2)
        n = functions[refs[0]].n
        for k, ref in enumerate(refs):
            if functions[ref].n != n:
                _fail("sequence members must share one arity",
                      "%s[%d]" % (at, k))
    if "operator" in entry.operands:
        at = loc + ".operator"
        ref = spec["operator"] = _as_ref(raw.get("operator"), at, op_arity,
                                         "operator")
        if op_arity[ref] is None:
            _fail("experiment needs an operator tuple, not a ray model", at)
        if op_arity[ref] != n:
            _fail("function arity %d does not match operator size %d"
                  % (n, op_arity[ref]), at)
    if entry.parse is not None:
        spec.update(entry.parse(raw, loc, n, functions, op_arity))
    _check_keys(raw, ("kind", "id") + entry.operands + entry.fields, loc)
    return spec


def parse_config(document) -> ScenarioConfig:
    """Validate a scenario document and fill defaults.

    ``document`` is JSON text or an already-parsed object.  Errors carry the
    offending field location; defaults are tol 1e-6, seed 0, format text.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON: %s" % exc.msg,
                              "line %d column %d" % (exc.lineno, exc.colno))
    else:
        raw = document
    if not isinstance(raw, dict):
        _fail("config must be a JSON object", "$")
    _check_keys(raw, ("tol", "seed", "format", "functions", "operators",
                      "experiments"), "$")
    tol = _as_number(raw.get("tol", 1e-6), "tol")
    if tol <= 0:
        _fail("tolerances must be positive", "tol")
    seed = _as_int(raw.get("seed", 0), "seed", minimum=0)
    fmt = raw.get("format", "text")
    if fmt not in ("text", "csv"):
        _fail("format must be text or csv", "format")

    functions: dict = {}
    function_specs = _as_list(
        raw.get("functions", []), "functions", "expected a list of functions",
        lambda f, at: _parse_function(f, at, functions), min_len=0)
    op_arity: dict = {}
    operator_specs = _as_list(
        raw.get("operators", []), "operators", "expected a list of operators",
        lambda o, at: _parse_operator(o, at, op_arity), min_len=0)
    experiment_specs = _as_list(
        raw.get("experiments", []), "experiments",
        "expected a list of experiments",
        lambda e, at: _parse_experiment(e, at, functions, op_arity),
        min_len=0)

    return ScenarioConfig(tol=tol, seed=seed, fmt=fmt, functions=functions,
                          function_specs=tuple(function_specs),
                          operator_specs=tuple(operator_specs),
                          experiment_specs=tuple(experiment_specs))


def config_document(config: ScenarioConfig) -> dict:
    """Normalized document; parse(config_document(parse(doc))) is idempotent."""
    return {"tol": config.tol, "seed": config.seed, "format": config.fmt,
            "functions": [dict(s) for s in config.function_specs],
            "operators": [dict(s) for s in config.operator_specs],
            "experiments": [dict(s) for s in config.experiment_specs]}


# ---------------------------------------------------------------------------
# execution


class _TupleInvalid(Exception):
    """Operator construction failed; experiments referencing it FAIL."""


def _build_operator(spec: dict):
    if "matrices" in spec:
        mats = [np.array([[complex(re, im) for re, im in row]
                          for row in mat]) for mat in spec["matrices"]]
        return make_tuple(mats)
    if "random" in spec:
        rec = spec["random"]
        return make_commuting_random(rec["n"], rec["d"], seed=rec["seed"],
                                     **_box_kwargs(rec))
    if "fourier" in spec:
        return fourier_translation_model(spec["fourier"]["K"],
                                         n=spec["fourier"]["n"])
    return DiagonalRayModel(theta=spec["ray"]["theta"])


def _box_kwargs(rec: dict) -> dict:
    """The spectral_box keyword of a random recipe, when it gives one."""
    box = rec.get("box")
    return {} if box is None else {"spectral_box": (tuple(box[0]),
                                                    tuple(box[1]))}


def _operator_for(ops: dict, ref: str):
    # parse_config admits only tuples where an experiment needs one
    ob = ops[ref]
    if isinstance(ob, _TupleInvalid):
        raise _TupleInvalid(*ob.args)
    return ob


def _quad_tol(tol: float) -> float:
    # quadrature budget one decade under the verdict threshold
    return min(1e-9, tol / 10.0)


def _verdict(ok) -> str:
    return "PASS" if ok else "FAIL"


def _run_oracle(name, spec, cfg, ops, seed, tol, idx):
    psi = cfg.functions[spec["function"]]
    A = _operator_for(ops, spec["operator"])
    if A.spectral is None:
        return ([Row(name, "oracle", "spectral_oracle", None, None,
                     "INAPPLICABLE")],
                ("operator carries no spectral data",))
    S = apply_psi_spectral(psi, A)
    Q = apply_psi(psi, A, tol=_quad_tol(tol))
    rel = float(np.linalg.norm(Q - S, 2) / max(1.0, np.linalg.norm(S, 2)))
    return ([Row(name, "norm", "relative_error", rel, tol,
                 _verdict(rel <= tol))], ())


def _run_subordination(name, spec, cfg, ops, seed, tol, idx):
    psi = cfg.functions[spec["function"]]
    A = _operator_for(ops, spec["operator"])
    qtol = _quad_tol(tol)
    rows = []
    try:
        G = apply_psi(psi, A, tol=qtol)
        mags = np.geomspace(0.1, 3.0, 7)
        stretch = np.linspace(1.0, 1.5, psi.n)
        s_grid = [-v * stretch for v in mags]
        for t in spec["times"]:
            S = subordinated(psi, A, t, tol=qtol)
            E = expm(t * G)
            rel = float(np.linalg.norm(S - E, 2)
                        / max(1.0, np.linalg.norm(E, 2)))
            rows.append(Row(name, "t=%g" % t, "semigroup_error", rel, tol,
                            _verdict(rel <= tol)))
            lap = laplace_identity_error(psi, t, s_grid, tol=qtol)
            rows.append(Row(name, "t=%g" % t, "laplace_error", lap, tol,
                            _verdict(lap <= tol)))
        rng = np.random.default_rng([seed, idx])
        x = rng.standard_normal(A.d)
        x = x / np.linalg.norm(x)
        t_seq = (1e-2, 1e-3, 1e-4, 1e-5)
        res = generator_limit_check(psi, A, x, t_seq)
        for t, r in zip(t_seq, res):
            rows.append(Row(name, "t=%g" % t, "generator_residual", float(r),
                            None, "PASS"))
        drift = float(np.max(np.diff(res)))
        rows.append(Row(name, "limit", "generator_monotone", drift, 0.0,
                        _verdict(drift <= 0.0)))
        rows.append(Row(name, "limit", "generator_residual_final",
                        float(res[-1]), 1e-4, _verdict(res[-1] <= 1e-4)))
    except CatalogGapError as exc:
        return ([Row(name, "family", "closed_form_family", None, None,
                     "INAPPLICABLE")],
                (str(exc),))
    return rows, ()


def _run_mapping(name, spec, cfg, ops, seed, tol, idx):
    psi = cfg.functions[spec["function"]]
    A = _operator_for(ops, spec["operator"])
    rows = []
    notes = []
    # one psi(A) for every part, by quadrature at mapping_check's default
    # tolerance, so the two sides of each inclusion stay independent
    F = apply_psi(psi, A)
    for part in spec["parts"]:
        rep = mapping_check(psi, A, part, tol=tol, operator=F)
        if not rep.applicable:
            rows.append(Row(name, "part%d" % part, "hypothesis", None, None,
                            "INAPPLICABLE"))
            notes.append("part %d inapplicable: %s" % (part, rep.reason))
            continue
        margins = []
        for i, r in enumerate(rep.rows):
            rows.append(Row(name, "part%d:%d" % (part, i), "distance",
                            r.distance, r.threshold,
                            _verdict(r.verdict == "pass")))
            margins.append(r.threshold - r.distance)
        if margins:
            worst = float(min(margins))
            rows.append(Row(name, "part%d" % part, "worst_margin", worst, 0.0,
                            _verdict(worst >= 0.0)))
        else:
            rows.append(Row(name, "part%d" % part, "vacuous", None, None,
                            "PASS"))
    return rows, tuple(notes)


# matrix entries per stack (1 MB a complex stack): d x d per drawn tuple of a
# moment sweep, and per lambda of a factorization experiment (each W_j and
# residual term; its quadrature profile holds at most d^2 + d entries a
# lambda), so that memory stays bounded however many trials an experiment runs
_STACK_ENTRIES = 1 << 16


def _run_factorization(name, spec, cfg, ops, seed, tol, idx):
    """One row per lambda; the lambdas are checked as stacks
    (calculus.factorization_checks), one W quadrature per stack and j."""
    psi = cfg.functions[spec["function"]]
    A = _operator_for(ops, spec["operator"])
    if "lambdas" in spec:
        lams = [np.array([complex(re, im) for re, im in lam])
                for lam in spec["lambdas"]]
    else:
        lams = []
        for k in range(spec["trials"]):
            rng = np.random.default_rng([seed, idx, k])
            lams.append(rng.uniform(-3.0, -0.3, A.n)
                        + 1j * rng.uniform(-2.0, 2.0, A.n))
    qtol = _quad_tol(tol)
    F = apply_psi(psi, A, tol=qtol)
    step = max(1, _STACK_ENTRIES // A.d ** 2)
    residuals = []
    for start in range(0, len(lams), step):
        residuals += list(factorization_checks(psi, A, lams[start:start + step],
                                               tol=qtol, operator=F))
    rows = [Row(name, "lambda%d" % k, "relative_residual", float(r), tol,
                _verdict(r <= tol)) for k, r in enumerate(residuals)]
    return rows, ()


def _run_holomorphy(name, spec, cfg, ops, seed, tol, idx):
    models = [m if isinstance(m, float) else _operator_for(ops, m)
              for m in spec["models"]]
    psi = cfg.functions[spec["function"]] if "function" in spec else None
    rep = holomorphy_criterion(models, spec["bounds"], psi=psi)
    rows = []
    for j, b in enumerate(rep.defects):
        rows.append(Row(name, "model%d" % j, "defect", float(b), 2.0,
                        _verdict(b <= 2.0)))
    rows.append(Row(name, "criterion", "weighted_sum", rep.weighted_sum, 2.0,
                    "PASS" if rep.satisfied else "INAPPLICABLE"))
    notes = ()
    if not rep.satisfied:
        notes = ("weighted defect sum %.6g reaches 2; criterion gives no "
                 "conclusion" % rep.weighted_sum,)
    if rep.measured_limsup is not None:
        cap = rep.weighted_sum + 0.05
        rows.append(Row(name, "limsup", "measured_limsup",
                        rep.measured_limsup, cap,
                        _verdict(rep.measured_limsup <= cap)))
    return rows, notes


def _run_moment(name, spec, cfg, ops, seed, tol, idx):
    """One row per trial and the worst-slack row.

    A random recipe draws a fresh tuple per trial, as stacks of trials;
    any other operator is shared, its psi(A) formed once.  The trials are
    checked as stacks (analysis.moment_checks)."""
    psi = cfg.functions[spec["function"]]
    A = _operator_for(ops, spec["operator"])  # surfaces build failures once
    trials = range(spec["trials"])
    xs = [np.random.default_rng([seed, idx, trial]).standard_normal(A.d)
          for trial in trials]
    rec = cfg.operator_spec(spec["operator"]).get("random")
    if rec is None:
        reports = moment_checks(psi, A, xs)
    else:
        step = max(1, _STACK_ENTRIES // A.d ** 2)
        reports = []
        for start in range(0, len(trials), step):
            stack = make_commuting_random_stack(
                rec["n"], rec["d"], [[rec["seed"], seed, trial]
                                     for trial in trials[start:start + step]],
                **_box_kwargs(rec))
            reports += moment_checks(psi, stack, xs[start:start + step])
    rows = []
    worst = None
    for trial, rep in zip(trials, reports):
        scale = max(1.0, rep.lhs, rep.rhs)
        bound = -(tol * 1e-3) * scale
        rows.append(Row(name, "trial%d" % trial, "slack", rep.slack, bound,
                        _verdict(rep.slack >= bound)))
        if worst is None or rep.slack < worst[1]:
            worst = (trial, rep.slack)
    rows.append(Row(name, "trial%d" % worst[0], "worst_slack", worst[1],
                    -(tol * 1e-3), _verdict(worst[1] >= -(tol * 1e-3))))
    note = "worst slack %.12g at trial%d" % (worst[1], worst[0])
    return rows, (note,)


def _run_boundedness(name, spec, cfg, ops, seed, tol, idx):
    psi = cfg.functions[spec["function"]]
    K_list = spec["K_list"]
    norms = boundedness_experiment(psi, K_list)
    rows = [Row(name, "K=%d" % K, "norm", float(v), None, "PASS")
            for K, v in zip(K_list, norms)]
    if len(K_list) >= 2:
        if psi.bounded:
            ratio = float(np.max(norms) / np.min(norms))
            rows.append(Row(name, "dichotomy", "max_over_min", ratio, 10.0,
                            _verdict(ratio < 10.0)))
        else:
            growth = float(norms[-1] / norms[0])
            rows.append(Row(name, "dichotomy", "growth_factor", growth, 10.0,
                            _verdict(growth > 10.0)))
    return rows, ()


def _run_convergence(name, spec, cfg, ops, seed, tol, idx):
    psis = [cfg.functions[r] for r in spec["functions"]]
    A = _operator_for(ops, spec["operator"])
    rng = np.random.default_rng([seed, idx])
    x = rng.standard_normal(A.d)
    x = x / np.linalg.norm(x)
    try:
        res = convergence_experiment(psis, A, x)
    except ValueError as exc:
        if "decaying" not in str(exc):
            raise
        return ([Row(name, "decay", "pointwise_decay", None, None, "FAIL")],
                (str(exc),))
    rows = [Row(name, ref, "residual", float(v), None, "PASS")
            for ref, v in zip(spec["functions"], res)]
    rows.append(Row(name, "final", "final_residual", float(res[-1]),
                    spec["target"], _verdict(res[-1] <= spec["target"])))
    return rows, ()


@dataclass(frozen=True)
class _Experiment:
    """One experiment kind and the keys it reads besides kind and id.

    ``operands`` (of function, functions, operator) are resolved by
    _parse_experiment.  ``fields`` are the kind's own keys, which
    ``parse(raw, loc, n, functions, op_arity)`` turns into normalized spec
    entries; n is the arity of the experiment's function(s).  ``runner``
    returns (rows, notes).
    """

    runner: Callable
    operands: tuple
    fields: tuple = ()
    parse: Optional[Callable] = None


_EXPERIMENTS = {
    "oracle_equivalence": _Experiment(_run_oracle, ("function", "operator")),
    "subordination": _Experiment(_run_subordination, ("function", "operator"),
                                 ("times",), _times_fields),
    "spectral_mapping": _Experiment(_run_mapping, ("function", "operator"),
                                    ("parts",), _parts_fields),
    "factorization": _Experiment(_run_factorization, ("function", "operator"),
                                 ("lambdas", "trials"), _factorization_fields),
    "holomorphy": _Experiment(_run_holomorphy, (),
                              ("models", "bounds", "function"),
                              _holomorphy_fields),
    "moment_sweep": _Experiment(_run_moment, ("function", "operator"),
                                ("trials",), _moment_fields),
    "boundedness": _Experiment(_run_boundedness, ("function",), ("K_list",),
                               _boundedness_fields),
    "convergence": _Experiment(_run_convergence, ("functions", "operator"),
                               ("target",), _convergence_fields),
}
_EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def _run_experiment(cfg, spec, idx, ops, seed, tol) -> ExperimentResult:
    kind = spec["kind"]
    name = spec.get("id", "%s[%d]" % (kind, idx))
    start = time.perf_counter()
    try:
        rows, notes = _EXPERIMENTS[kind].runner(
            name, spec, cfg, ops, seed, tol, idx)
    except _TupleInvalid as exc:
        rows = [Row(name, "setup", "tuple_validation", None, None, "FAIL")]
        notes = (str(exc),)
    except (QuadratureError, CatalogGapError, FloatingPointError,
            ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        rows = [Row(name, "error", type(exc).__name__, None, None, "ERROR")]
        notes = (str(exc),)
    return ExperimentResult(name=name, kind=kind, rows=tuple(rows),
                            wall=time.perf_counter() - start,
                            notes=tuple(notes) + _sampled_bound_notes(spec, ops))


def _sampled_bound_notes(spec, ops) -> tuple:
    """A note naming the operator's M_j that were sampled, not certified."""
    ref = spec.get("operator")
    kinds = getattr(ops.get(ref), "bound_kinds", ())
    sampled = [str(j) for j, kind in enumerate(kinds) if kind == "sampled"]
    if not sampled:
        return ()
    return ("operator %s: semigroup bound M_j for j = %s sampled on a grid "
            "of t, not certified" % (ref, ", ".join(sampled)),)


def run(config: ScenarioConfig, seed: Optional[int] = None,
        tol: Optional[float] = None, progress=None) -> RunReport:
    """Execute every experiment; deterministic given (config, seed).

    Experiments run one after another in config order.  Operator
    construction failures become FAIL rows in each referencing experiment,
    module errors become ERROR rows, and partial results are always
    retained.  A negative ``seed`` or a ``tol`` that is not a positive
    finite number raises ConfigError, as in the config.
    """
    run_seed = config.seed if seed is None else _as_int(int(seed), "seed",
                                                        minimum=0)
    run_tol = config.tol if tol is None else _as_number(float(tol), "tol")
    if run_tol <= 0:
        raise ConfigError("tolerances must be positive", "tol")
    start = time.perf_counter()
    ops = {}
    for spec in config.operator_specs:
        try:
            ops[spec["id"]] = _build_operator(spec)
        except (ValueError, np.linalg.LinAlgError) as exc:
            ops[spec["id"]] = _TupleInvalid(str(exc))
    specs = list(config.experiment_specs)
    results = []
    for i, spec in enumerate(specs):
        res = _run_experiment(config, spec, i, ops, run_seed, run_tol)
        if progress is not None:
            progress("[%d/%d] %s: %s (%.2fs)"
                     % (i + 1, len(specs), res.name, res.verdict, res.wall))
        results.append(res)
    return RunReport(seed=run_seed, tol=run_tol, experiments=tuple(results),
                     wall=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# report rendering


def _fmt_num(v) -> str:
    return "" if v is None else "%.12g" % v


def _csv_field(s: str) -> str:
    return '"%s"' % s.replace('"', '""')


def _emit_csv(report: RunReport) -> bytes:
    lines = ["experiment,case_id,quantity,value,bound,verdict"]
    for r in report.rows():
        lines.append(",".join((_csv_field(r.experiment), _csv_field(r.case_id),
                               _csv_field(r.quantity), _fmt_num(r.value),
                               _fmt_num(r.bound), _csv_field(r.verdict))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit_text(report: RunReport) -> bytes:
    head = ("experiment", "kind", "rows", "fail", "wall", "verdict")
    body = []
    for res in report.experiments:
        failures = sum(r.verdict in ("FAIL", "ERROR") for r in res.rows)
        body.append((res.name, res.kind, str(len(res.rows)), str(failures),
                     "%.2fs" % res.wall, res.verdict))
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(head)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = ["scenario run: seed %d, tol %g" % (report.seed, report.tol), "",
           line(head)]
    out.extend(line(b) for b in body)
    notes = []
    for res in report.experiments:
        for note in res.notes:
            notes.append("  %s: %s" % (res.name, note))
        bad = [r for r in res.rows if r.verdict in ("FAIL", "ERROR")]
        for r in bad[:5]:
            notes.append("  %s: %s %s %s exceeds %s [%s]"
                         % (res.name, r.case_id, r.quantity, _fmt_num(r.value),
                            _fmt_num(r.bound), r.verdict))
    if notes:
        out.append("")
        out.append("notes:")
        out.extend(notes)
    rows = report.rows()
    failed = sum(r.verdict in ("FAIL", "ERROR") for r in rows)
    out.append("")
    out.append("OVERALL %s (%d experiments, %d rows, %d failed; %.2fs)"
               % (report.verdict, len(report.experiments), len(rows), failed,
                  report.wall))
    return ("\n".join(out) + "\n").encode("utf-8")


def emit_report(report: RunReport, fmt: str) -> bytes:
    """text: per-experiment verdict table; csv: one row per assertion."""
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError("format must be text or csv")


# ---------------------------------------------------------------------------
# entry point


def _load_config_text(path: str) -> str:
    p = Path(path)
    if p.is_file():
        return p.read_text(encoding="utf-8")
    name = path if path.endswith(".json") else path + ".json"
    bundled = resources.files("bpcalc") / "scenarios" / name
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise FileNotFoundError(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bpcalc",
        description="Bernstein-function operator calculus scenario runner")
    parser.add_argument("--list-catalog", action="store_true",
                        help="print the function catalog and exit")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute a scenario config")
    runp.add_argument("config",
                      help="path to a JSON scenario, or a bundled name")
    runp.add_argument("--format", choices=("text", "csv"), default=None,
                      help="override the config output format")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--tol", type=float, default=None,
                      help="override the config tolerance")
    runp.add_argument("--out", default=None,
                      help="write the report to a file instead of stdout")
    args = parser.parse_args(argv)

    if args.list_catalog:
        width = max(len(cid) for cid in CATALOG)
        for cid, entry in CATALOG.items():
            print("%s  %s" % (cid.ljust(width), entry.help))
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:
        text = _load_config_text(args.config)
    except (FileNotFoundError, OSError):
        print("config error: cannot read %r" % args.config, file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        report = run(cfg, seed=args.seed, tol=args.tol,
                     progress=lambda msg: print(msg, file=sys.stderr))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    data = emit_report(report, args.format or cfg.fmt)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
