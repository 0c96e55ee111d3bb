import json

import numpy as np
import pytest

from bpcalc.bernstein import CATALOG, catalog_ids
from bpcalc.calculus import (apply_psi, factorization_check,
                             factorization_checks)
from bpcalc.cli import (_EXPERIMENT_KINDS, _EXPERIMENTS, ConfigError,
                        ExperimentResult, Row, _build_operator,
                        config_document, emit_report, _load_config_text, main,
                        parse_config, run)
from bpcalc.semigroup import make_commuting_random


def small_doc():
    return {
        "functions": [
            {"id": "ps", "catalog": "poisson"},
            {"id": "fp", "catalog": "fractional_power",
             "parameters": {"alpha": 0.5}},
        ],
        "operators": [{"id": "a", "random": {"n": 1, "d": 4, "seed": 3}}],
        "experiments": [
            {"kind": "oracle_equivalence", "id": "oracle",
             "function": "fp", "operator": "a"},
            {"kind": "moment_sweep", "id": "moment",
             "function": "ps", "operator": "a", "trials": 5},
        ],
    }


def rows_for(report, name):
    return [r for r in report.rows() if r.experiment == name]


def corpus_doc(operator=None, experiment=None):
    """Valid functions ps, fp (n = 1) and ds (n = 2), operators a (n = 1),
    b (n = 2) and ray; the case under test is operators[3] or
    experiments[0]."""
    doc = {
        "functions": [
            {"id": "ps", "catalog": "poisson"},
            {"id": "fp", "catalog": "fractional_power",
             "parameters": {"alpha": 0.5}},
            {"id": "ds", "catalog": "direct_sum", "children": ["ps", "fp"]},
        ],
        "operators": [{"id": "a", "random": {"n": 1, "d": 3}},
                      {"id": "b", "random": {"n": 2, "d": 3}},
                      {"id": "ray", "ray": {"theta": np.pi}}],
    }
    if operator is not None:
        doc["operators"].append(operator)
    if experiment is not None:
        doc["experiments"] = [experiment]
    return doc


def op_case(case_id, operator, message, location):
    return pytest.param(corpus_doc(operator=operator), message,
                        "operators[3]" + location, id="operator-" + case_id)


def exp_case(case_id, experiment, message, location):
    return pytest.param(corpus_doc(experiment=experiment), message,
                        "experiments[0]" + location,
                        id="experiment-" + case_id)


def rand(**kw):
    return {"id": "m", "random": dict({"n": 1, "d": 2}, **kw)}


ORACLE = {"kind": "oracle_equivalence", "function": "ps", "operator": "a"}
HOLO = {"kind": "holomorphy", "models": [np.pi], "bounds": [1.0]}


def with_(base, **kw):
    return dict(base, **kw)


def kind(name, **kw):
    return with_(ORACLE, kind=name, **kw)


ERROR_CORPUS = [
    op_case("not-object", 5, "expected an object", ""),
    op_case("unknown-key", {"id": "m", "ray": {"theta": np.pi}, "x": 1},
            "unknown key 'x'", ".x"),
    op_case("no-id", {"ray": {"theta": np.pi}},
            "expected a nonempty string id", ".id"),
    op_case("duplicate", {"id": "a", "ray": {"theta": np.pi}},
            "duplicate operator id 'a'", ".id"),
    op_case("no-source", {"id": "m"},
            "specify exactly one of matrices, random, fourier, ray", ""),
    op_case("two-sources", {"id": "m", "ray": {"theta": np.pi},
                            "fourier": {"K": 2}},
            "specify exactly one of matrices, random, fourier, ray", ""),
    op_case("matrices-empty", {"id": "m", "matrices": []},
            "expected a nonempty list of matrices", ".matrices"),
    op_case("matrix-not-list", {"id": "m", "matrices": [5]},
            "malformed matrix: expected a list of rows", ".matrices[0]"),
    op_case("matrix-sizes", {"id": "m", "matrices": [[[0]], [[0, 0], [0, 0]]]},
            "malformed matrix: generators must share one size",
            ".matrices[1]"),
    op_case("matrix-row", {"id": "m", "matrices": [[[0, 0], [0]]]},
            "malformed matrix: row 1 is not length 2", ".matrices[0]"),
    op_case("matrix-entry", {"id": "m", "matrices": [[["x"]]]},
            "expected a number or an [re, im] pair", ".matrices[0][0][0]"),
    op_case("matrix-pair", {"id": "m", "matrices": [[[[1, "x"]]]]},
            "expected a number", ".matrices[0][0][0][1]"),
    op_case("random-not-object", {"id": "m", "random": 5},
            "expected an object", ".random"),
    op_case("random-unknown-key", rand(q=1), "unknown key 'q'", ".random.q"),
    op_case("random-no-n", {"id": "m", "random": {"d": 2}},
            "expected an integer", ".random.n"),
    op_case("random-d", rand(d=0), "must be at least 1", ".random.d"),
    op_case("random-seed", rand(seed=-1), "must be at least 0",
            ".random.seed"),
    op_case("box-shape", rand(box=[[-1, -0.5]]),
            "expected [[re_lo, re_hi], [im_lo, im_hi]]", ".random.box"),
    op_case("box-entry", rand(box=[[-1, "x"], [0, 1]]), "expected a number",
            ".random.box[0][1]"),
    op_case("box-real", rand(box=[[0.5, 1], [0, 1]]),
            "real range must satisfy re_lo <= re_hi < 0", ".random.box"),
    op_case("box-imag", rand(box=[[-1, -0.5], [1, 0]]),
            "imaginary range is reversed", ".random.box"),
    op_case("fourier-not-object", {"id": "m", "fourier": []},
            "expected an object", ".fourier"),
    op_case("fourier-K", {"id": "m", "fourier": {"K": 0}},
            "must be at least 1", ".fourier.K"),
    op_case("fourier-n", {"id": "m", "fourier": {"K": 2, "n": 1.5}},
            "expected an integer", ".fourier.n"),
    op_case("fourier-unknown-key", {"id": "m", "fourier": {"K": 2, "m": 1}},
            "unknown key 'm'", ".fourier.m"),
    op_case("ray-theta", {"id": "m", "ray": {}}, "expected a number",
            ".ray.theta"),
    op_case("ray-half-plane", {"id": "m", "ray": {"theta": 0.0}},
            "ray must lie in the closed left half-plane", ".ray.theta"),
    op_case("ray-unknown-key", {"id": "m", "ray": {"theta": np.pi, "r": 1}},
            "unknown key 'r'", ".ray.r"),

    exp_case("not-object", 5, "expected an object", ""),
    exp_case("unknown-kind", {"kind": "nope"},
             "unknown experiment kind 'nope'", ".kind"),
    exp_case("no-kind", {}, "unknown experiment kind None", ".kind"),
    exp_case("id", with_(ORACLE, id=""), "expected a nonempty string id",
             ".id"),
    exp_case("no-function", {"kind": "oracle_equivalence", "operator": "a"},
             "expected a nonempty string id", ".function"),
    exp_case("function-unresolved", with_(ORACLE, function="zz"),
             "unresolved function reference 'zz'", ".function"),
    exp_case("no-operator", {"kind": "oracle_equivalence", "function": "ps"},
             "expected a nonempty string id", ".operator"),
    exp_case("operator-unresolved", with_(ORACLE, operator="zz"),
             "unresolved operator reference 'zz'", ".operator"),
    exp_case("operator-ray", with_(ORACLE, operator="ray"),
             "experiment needs an operator tuple, not a ray model",
             ".operator"),
    exp_case("operator-arity", with_(ORACLE, operator="b"),
             "function arity 1 does not match operator size 2", ".operator"),
    exp_case("unknown-key", with_(ORACLE, tolerance=1e-3),
             "unknown key 'tolerance'", ".tolerance"),
    exp_case("times-not-list", kind("subordination", times="x"),
             "expected a nonempty list of positive times", ".times"),
    exp_case("times-empty", kind("subordination", times=[]),
             "expected a nonempty list of positive times", ".times"),
    exp_case("times-entry", kind("subordination", times=["a"]),
             "expected a number", ".times[0]"),
    exp_case("times-sign", kind("subordination", times=[1, 0]),
             "times must be positive", ".times"),
    exp_case("parts-empty", kind("spectral_mapping", parts=[]),
             "expected a nonempty list of parts 1..5", ".parts"),
    exp_case("parts-entry", kind("spectral_mapping", parts=[1.5]),
             "expected an integer", ".parts[0]"),
    exp_case("parts-range", kind("spectral_mapping", parts=[6]),
             "parts must be within 1..5", ".parts"),
    exp_case("lambdas-empty", kind("factorization", lambdas=[]),
             "expected a nonempty list of lambda tuples", ".lambdas"),
    exp_case("lambda-length", kind("factorization", lambdas=[[-1, -1]]),
             "lambda must list 1 components", ".lambdas[0]"),
    exp_case("lambda-entry", kind("factorization", lambdas=[["x"]]),
             "expected a number or an [re, im] pair", ".lambdas[0][0]"),
    exp_case("lambda-sign", kind("factorization", lambdas=[[[0.5, 0.0]]]),
             "factorization needs Re lambda_j < 0", ".lambdas[0]"),
    exp_case("factorization-trials", kind("factorization", trials=0),
             "must be at least 1", ".trials"),
    exp_case("lambdas-with-trials",
             kind("factorization", lambdas=[[-1]], trials=3),
             "trials cannot be combined with lambdas", ".trials"),
    exp_case("moment-trials", kind("moment_sweep", trials="5"),
             "expected an integer", ".trials"),
    exp_case("moment-times", kind("moment_sweep", times=[1.0]),
             "unknown key 'times'", ".times"),
    exp_case("models-missing", {"kind": "holomorphy", "bounds": [1.0]},
             "expected a nonempty list of models", ".models"),
    exp_case("model-unresolved", with_(HOLO, models=["zz"]),
             "unresolved operator reference 'zz'", ".models[0]"),
    exp_case("model-arity", with_(HOLO, models=["b"]),
             "holomorphy model must be a ray or a one-generator tuple",
             ".models[0]"),
    exp_case("model-entry", with_(HOLO, models=[True]), "expected a number",
             ".models[0]"),
    exp_case("model-angle", with_(HOLO, models=[np.pi, 0.0], bounds=[1, 1]),
             "ray must lie in the closed left half-plane", ".models[1]"),
    exp_case("bounds-length", with_(HOLO, bounds=[1.0, 1.0]),
             "bounds must list one M_j per model", ".bounds"),
    exp_case("bounds-entry", with_(HOLO, bounds=["x"]), "expected a number",
             ".bounds[0]"),
    exp_case("bounds-value", with_(HOLO, bounds=[0.5]),
             "semigroup bounds are at least 1", ".bounds"),
    exp_case("holomorphy-function", with_(HOLO, function="zz"),
             "unresolved function reference 'zz'", ".function"),
    exp_case("holomorphy-arity", with_(HOLO, function="ds"),
             "function arity 2 does not match 1 models", ".function"),
    exp_case("K_list-empty", {"kind": "boundedness", "function": "ps",
                              "K_list": []},
             "expected a nonempty list of cutoffs", ".K_list"),
    exp_case("K_list-entry", {"kind": "boundedness", "function": "ps",
                              "K_list": [0]},
             "must be at least 1", ".K_list[0]"),
    exp_case("functions-short", {"kind": "convergence", "functions": ["ps"],
                                 "operator": "a"},
             "expected at least two function ids", ".functions"),
    exp_case("functions-entry", {"kind": "convergence",
                                 "functions": ["ps", 5], "operator": "a"},
             "expected a nonempty string id", ".functions[1]"),
    exp_case("functions-unresolved", {"kind": "convergence",
                                      "functions": ["ps", "zz"],
                                      "operator": "a"},
             "unresolved function reference 'zz'", ".functions[1]"),
    exp_case("functions-arity", {"kind": "convergence",
                                 "functions": ["ps", "ds"], "operator": "a"},
             "sequence members must share one arity", ".functions[1]"),
    exp_case("target-sign", {"kind": "convergence", "functions": ["ps", "fp"],
                             "operator": "a", "target": 0},
             "target must be positive", ".target"),
    exp_case("target-entry", {"kind": "convergence",
                              "functions": ["ps", "fp"], "operator": "a",
                              "target": "x"},
             "expected a number", ".target"),
    # kinds that read no operator reject the key, resolved or not
    exp_case("boundedness-operator", {"kind": "boundedness", "function": "ps",
                                      "operator": "nope"},
             "unknown key 'operator'", ".operator"),
    exp_case("holomorphy-operator", with_(HOLO, operator="a"),
             "unknown key 'operator'", ".operator"),
]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config({
            "functions": [{"id": "ps", "catalog": "poisson"}],
            "operators": [{"id": "a", "random": {"n": 1, "d": 2, "seed": 1}}],
            "experiments": [{"kind": "oracle_equivalence",
                             "function": "ps", "operator": "a"}],
        })
        assert cfg.tol == 1e-6
        assert cfg.seed == 0
        assert cfg.fmt == "text"
        assert cfg.functions["ps"].n == 1

    def test_alpha_out_of_range_rejected(self):
        doc = {"functions": [{"id": "f", "catalog": "fractional_power",
                              "parameters": {"alpha": 1.5}}]}
        with pytest.raises(ConfigError, match=r"\(0, 1\]") as err:
            parse_config(doc)
        assert err.value.location == "functions[0].parameters.alpha"

    def test_missing_operator_reference(self):
        doc = small_doc()
        doc["experiments"][0]["operator"] = "nope"
        with pytest.raises(ConfigError, match="unresolved operator"):
            parse_config(doc)

    def test_unknown_parameter_key_rejected(self):
        doc = {"functions": [{"id": "f", "catalog": "linear",
                              "parameters": {"c": [2.0]}}]}
        with pytest.raises(ConfigError, match="unknown key") as err:
            parse_config(doc)
        assert err.value.location == "functions[0].parameters.c"

    def test_unknown_catalog_id(self):
        doc = {"functions": [{"id": "f", "catalog": "mystery"}]}
        with pytest.raises(ConfigError, match="unknown catalog id"):
            parse_config(doc)

    def test_malformed_matrix(self):
        doc = {"operators": [{"id": "m", "matrices": [[[0.0, 1.0], [0.0]]]}]}
        with pytest.raises(ConfigError, match="malformed matrix"):
            parse_config(doc)

    def test_duplicate_function_id(self):
        doc = {"functions": [{"id": "f", "catalog": "poisson"},
                             {"id": "f", "catalog": "log1m"}]}
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(doc)

    def test_arity_mismatch_rejected(self):
        doc = small_doc()
        doc["operators"][0]["random"]["n"] = 2
        with pytest.raises(ConfigError, match="arity"):
            parse_config(doc)

    def test_unknown_key_rejected(self):
        doc = small_doc()
        doc["experiments"][0]["tolerance"] = 1e-3
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)

    def test_invalid_json_carries_position(self):
        with pytest.raises(ConfigError, match="invalid JSON") as err:
            parse_config("{nope")
        assert "line" in err.value.location

    def test_bare_reals_promoted_to_pairs(self):
        doc = {"operators": [{"id": "m",
                              "matrices": [[[-1.0, 0.0], [0.0, -2.0]]]}]}
        cfg = parse_config(doc)
        entry = cfg.operator_specs[0]["matrices"][0][0][0]
        assert entry == [-1.0, 0.0]

    def test_ray_rejected_where_tuple_needed(self):
        doc = small_doc()
        doc["operators"].append({"id": "ray", "ray": {"theta": np.pi}})
        doc["experiments"][0]["operator"] = "ray"
        with pytest.raises(ConfigError, match="ray model"):
            parse_config(doc)

    def test_roundtrip_idempotent(self):
        first = config_document(parse_config(small_doc()))
        second = config_document(parse_config(json.dumps(first)))
        assert first == second

    @pytest.mark.parametrize("doc, message, location", ERROR_CORPUS)
    def test_error_corpus(self, doc, message, location):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == "%s (at %s)" % (message, location)
        assert err.value.location == location

    @pytest.mark.parametrize("doc, location", [
        ({"functions": 5}, "functions"),
        ({"operators": "ab"}, "operators"),
        ({"experiments": {"kind": "boundedness"}}, "experiments"),
        (corpus_doc(rand(box=[[-1, -0.5], [1]])),
         "operators[3].random.box[1]"),
        (corpus_doc(rand(box=[[-1, -0.5], 5])), "operators[3].random.box[1]"),
    ], ids=["functions", "operators", "experiments", "box-pair-short",
            "box-pair-number"])
    def test_malformed_list_rejected(self, doc, location):
        with pytest.raises(ConfigError, match="expected") as err:
            parse_config(doc)
        assert err.value.location == location

    @pytest.mark.parametrize("text, location", [
        ('{"tol": 1e999}', "tol"),
        ('{"tol": NaN}', "tol"),
        ('{"tol": -Infinity}', "tol"),
        ('{"operators": [{"id": "m", "matrices": [[[NaN]]]}]}',
         "operators[0].matrices[0][0][0]"),
        ('{"operators": [{"id": "m", "matrices": [[[%s]]]}]}' % ("9" * 400),
         "operators[0].matrices[0][0][0]"),
    ], ids=["overflow", "nan", "infinity", "matrix-nan", "huge-integer"])
    def test_non_finite_number_rejected(self, text, location):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == "expected a finite number (at %s)" % location

    def test_bundled_suite_parses(self):
        cfg = parse_config(_load_config_text("theorem_suite"))
        assert len(cfg.experiment_specs) == 16
        kinds = {s["kind"] for s in cfg.experiment_specs}
        assert "holomorphy" in kinds and "convergence" in kinds


class TestConfigSchema:
    @pytest.fixture
    def schema(self):
        return json.loads(_load_config_text("config_schema"))

    def test_documents_validate(self, schema):
        jsonschema = pytest.importorskip("jsonschema")
        for doc in (json.loads(_load_config_text("theorem_suite")),
                    small_doc()):
            jsonschema.validate(doc, schema)
        bad = small_doc()
        bad["functions"][0]["parameters"] = {"c": [2.0]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)

    def test_enums_match_code(self, schema):
        fn = schema["properties"]["functions"]["items"]["properties"]
        kind = (schema["properties"]["experiments"]["items"]["properties"]
                ["kind"])
        assert tuple(fn["catalog"]["enum"]) == catalog_ids()
        assert tuple(kind["enum"]) == _EXPERIMENT_KINDS
        assert set(fn["parameters"]["properties"]) == {
            e.param for e in CATALOG.values() if e.param is not None}

    def test_experiment_keys_match_code(self, schema):
        rules = schema["properties"]["experiments"]["items"]["allOf"]
        allowed = {rule["if"]["properties"]["kind"]["const"]:
                   set(rule["then"]["propertyNames"]["enum"])
                   for rule in rules}
        assert allowed == {
            k: {"kind", "id", *e.operands, *e.fields}
            for k, e in _EXPERIMENTS.items()}

    def test_key_of_another_kind_rejected(self, schema):
        jsonschema = pytest.importorskip("jsonschema")
        bad = [corpus_doc(experiment=kind("moment_sweep", times=[1.0])),
               corpus_doc(experiment=kind("factorization", lambdas=[[-1]],
                                          trials=3)),
               corpus_doc(experiment={"kind": "boundedness", "function": "ps",
                                      "operator": "a"}),
               corpus_doc(operator={"id": "m", "ray": {"theta": np.pi},
                                    "fourier": {"K": 2}}),
               corpus_doc(operator={"id": "m"})]
        jsonschema.validate(corpus_doc(experiment=ORACLE), schema)
        for doc in bad:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, schema)

    def test_parameter_of_another_member_rejected(self, schema):
        jsonschema = pytest.importorskip("jsonschema")
        doc = {"functions": [{"id": "f", "catalog": "linear",
                              "parameters": {"alpha": 0.5}}]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    def test_allowed_parameter_matches_catalog(self, schema):
        rules = schema["properties"]["functions"]["items"]["allOf"]
        allowed = {}
        for rule in rules:
            cid = rule["if"]["properties"]["catalog"]["const"]
            params = rule["then"]["properties"]["parameters"]
            allowed[cid] = params.get("propertyNames", {}).get("const")
            if allowed[cid] is None:
                assert params["maxProperties"] == 0
        assert allowed == {cid: e.param for cid, e in CATALOG.items()}


class TestRun:
    def test_small_scenario_passes(self):
        report = run(parse_config(small_doc()))
        assert report.verdict == "PASS"
        assert report.exit_code == 0
        oracle = rows_for(report, "oracle")
        assert len(oracle) == 1 and oracle[0].value <= 1e-6
        # trials plus the worst-slack summary row
        assert len(rows_for(report, "moment")) == 6

    def test_non_commuting_tuple_fails_validation(self):
        doc = small_doc()
        doc["functions"].append({"id": "ds", "catalog": "direct_sum",
                                 "children": ["ps", "fp"]})
        doc["operators"].append({"id": "bad", "matrices": [
            [[0.0, 1.0], [0.0, 0.0]],
            [[-1.0, 0.0], [0.0, -2.0]],
        ]})
        doc["experiments"].append({"kind": "oracle_equivalence", "id": "x",
                                   "function": "ds", "operator": "bad"})
        report = run(parse_config(doc))
        bad = rows_for(report, "x")
        assert bad[0].quantity == "tuple_validation"
        assert bad[0].verdict == "FAIL"
        assert report.exit_code == 1

    def test_unconditioned_basis_fails_validation(self, monkeypatch, tmp_path,
                                                  capsys):
        # no basis meets max_cond: the draw's LinAlgError becomes the
        # tuple_validation FAIL row; as a RuntimeError it escaped run()
        monkeypatch.setattr(np.linalg, "cond",
                            lambda P: np.full(np.shape(P)[:-2], np.inf))
        doc = small_doc()
        doc["experiments"][1]["trials"] = 3
        report = run(parse_config(doc))
        for name in ("oracle", "moment"):
            rows = rows_for(report, name)
            assert [(r.quantity, r.verdict) for r in rows] == [
                ("tuple_validation", "FAIL")]
        assert "bounded conditioning" in report.experiments[1].notes[0]
        assert report.exit_code == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--format", "csv"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"tol": float("inf")}, {"tol": float("nan")}, {"seed": -3}],
        ids=["tol-inf", "tol-nan", "seed-negative"])
    def test_bad_override_rejected(self, override):
        with pytest.raises(ConfigError):
            run(parse_config(small_doc()), **override)

    def test_seed_moves_trials_not_closed_form(self):
        cfg = parse_config(small_doc())
        r1 = run(cfg, seed=1)
        r2 = run(cfg, seed=2)
        o1, o2 = rows_for(r1, "oracle"), rows_for(r2, "oracle")
        assert o1[0].value == o2[0].value
        s1 = [r.value for r in rows_for(r1, "moment")]
        s2 = [r.value for r in rows_for(r2, "moment")]
        assert s1 != s2

    def test_quadrature_failure_is_error_exit(self):
        doc = {
            "functions": [{"id": "fp", "catalog": "fractional_power",
                           "parameters": {"alpha": 0.5}}],
            "operators": [{"id": "f", "fourier": {"K": 5}}],
            "experiments": [{"kind": "oracle_equivalence", "id": "x",
                             "function": "fp", "operator": "f"}],
        }
        report = run(parse_config(doc))
        assert rows_for(report, "x")[0].verdict == "ERROR"
        assert report.exit_code == 3

    def test_subordination_gap_flagged_inapplicable(self):
        doc = {
            "functions": [{"id": "f", "catalog": "fractional_power",
                           "parameters": {"alpha": 0.3}}],
            "operators": [{"id": "a", "random": {"n": 1, "d": 3, "seed": 5}}],
            "experiments": [{"kind": "subordination", "id": "sub",
                             "function": "f", "operator": "a"}],
        }
        report = run(parse_config(doc))
        row = rows_for(report, "sub")[0]
        assert row.verdict == "INAPPLICABLE"
        assert "no closed-form subordination measure" in report.experiments[0].notes[0]
        assert report.exit_code == 0

    def test_non_decaying_sequence_fails(self):
        doc = {
            "functions": [{"id": "ps", "catalog": "poisson"},
                          {"id": "ps2", "catalog": "diagonal_lift",
                           "parameters": {"w": [1.0]}, "children": ["ps"]}],
            "operators": [{"id": "a", "random": {"n": 1, "d": 3, "seed": 2}}],
            "experiments": [{"kind": "convergence", "id": "conv",
                             "functions": ["ps", "ps2"], "operator": "a"}],
        }
        report = run(parse_config(doc))
        row = rows_for(report, "conv")[0]
        assert row.quantity == "pointwise_decay"
        assert row.verdict == "FAIL"

    def test_holomorphy_rows(self):
        doc = {
            "functions": [{"id": "lg", "catalog": "log1m"}],
            "operators": [],
            "experiments": [{"kind": "holomorphy", "id": "hol",
                             "models": [np.pi], "bounds": [1.0],
                             "function": "lg"}],
        }
        report = run(parse_config(doc))
        rows = {r.quantity: r for r in rows_for(report, "hol")}
        assert abs(rows["defect"].value - 1.0) < 1e-6
        assert rows["weighted_sum"].verdict == "PASS"
        assert rows["measured_limsup"].value <= rows["weighted_sum"].value + 0.05

    def test_oracle_inapplicable_on_explicit_matrices(self):
        doc = {
            "functions": [{"id": "fp", "catalog": "fractional_power",
                           "parameters": {"alpha": 0.5}}],
            "operators": [{"id": "m", "matrices": [[[-1.0, 1.0], [0.0, -2.0]]]}],
            "experiments": [{"kind": "oracle_equivalence", "id": "x",
                             "function": "fp", "operator": "m"}],
        }
        report = run(parse_config(doc))
        (row,) = rows_for(report, "x")
        assert (row.quantity, row.value, row.verdict) == \
            ("spectral_oracle", None, "INAPPLICABLE")
        res = report.experiments[0]
        assert res.verdict == "INAPPLICABLE"
        assert res.notes == ("operator carries no spectral data",)
        assert report.verdict == "PASS" and report.exit_code == 0

    def test_mapping_hypothesis_inapplicable(self):
        # eigenvalue 0 lies in the approximate spectrum, and the square root
        # has an infinite partial derivative at -0
        doc = {
            "functions": [{"id": "fp", "catalog": "fractional_power",
                           "parameters": {"alpha": 0.5}}],
            "operators": [{"id": "m", "matrices": [[[0.0, 0.0], [0.0, -1.0]]]}],
            "experiments": [{"kind": "spectral_mapping", "id": "map",
                             "function": "fp", "operator": "m",
                             "parts": [4]}],
        }
        report = run(parse_config(doc))
        (row,) = rows_for(report, "map")
        assert (row.case_id, row.quantity, row.verdict) == \
            ("part4", "hypothesis", "INAPPLICABLE")
        assert report.experiments[0].notes == (
            "part 4 inapplicable: boundary spectrum and infinite partial "
            "derivative at -0",)
        assert report.exit_code == 0

    def test_factorization_with_explicit_lambdas(self):
        doc = {
            "functions": [{"id": "lg", "catalog": "log1m"}],
            "operators": [{"id": "a", "random": {"n": 1, "d": 4, "seed": 3}}],
            "experiments": [{"kind": "factorization", "id": "fac",
                             "function": "lg", "operator": "a",
                             "lambdas": [[[-0.8, 0.3]], [[-1.5, -0.2]]]}],
        }
        cfg = parse_config(doc)
        rows = rows_for(run(cfg), "fac")
        assert [(r.case_id, r.quantity, r.verdict) for r in rows] == [
            ("lambda0", "relative_residual", "PASS"),
            ("lambda1", "relative_residual", "PASS")]
        A, psi = _build_operator(cfg.operator_spec("a")), cfg.functions["lg"]
        F = apply_psi(psi, A, tol=1e-9)
        # the rows are the residuals of one stack of both lambdas; each one
        # checked alone has its own quadrature panels
        lams = [[-0.8 + 0.3j], [-1.5 - 0.2j]]
        assert [r.value for r in rows] == list(factorization_checks(
            psi, A, lams, tol=1e-9, operator=F))
        for r, lam in zip(rows, lams):
            assert abs(r.value - factorization_check(
                psi, A, lam, tol=1e-9, operator=F)) <= 1e-14

    def test_explicit_similar_jordan_block(self):
        # S J S^-1 with cond(S) = 10: its Schur diagonal splits into six
        # clusters with an ill-conditioned basis, so every operator runs on
        # one dense 6 x 6 block
        rng = np.random.default_rng(6)
        U, _, Vh = np.linalg.svd(rng.standard_normal((6, 6)))
        S = (U * np.geomspace(1.0, 0.1, 6)) @ Vh
        G = S @ (-1.5 * np.eye(6) + np.diag(np.ones(5), 1)) @ np.linalg.inv(S)
        doc = {
            "functions": [{"id": "fp", "catalog": "fractional_power",
                           "parameters": {"alpha": 0.5}}],
            "operators": [{"id": "m", "matrices": [G.tolist()]}],
            "experiments": [{"kind": "factorization", "id": "fac",
                             "function": "fp", "operator": "m"},
                            {"kind": "subordination", "id": "sub",
                             "function": "fp", "operator": "m"}],
        }
        report = run(parse_config(doc))
        fac, sub = rows_for(report, "fac"), rows_for(report, "sub")
        assert len(fac) == 5 and len(sub) == 12
        assert all(r.verdict == "PASS" for r in fac + sub)
        assert report.verdict == "PASS" and report.exit_code == 0

    def test_random_operator_with_box(self):
        box = [[-2.0, -1.0], [0.0, 0.5]]
        doc = {
            "functions": [{"id": "fp", "catalog": "fractional_power",
                           "parameters": {"alpha": 0.5}}],
            "operators": [{"id": "a", "random": {"n": 1, "d": 3, "seed": 4,
                                                 "box": box}}],
            "experiments": [{"kind": "oracle_equivalence", "id": "x",
                             "function": "fp", "operator": "a"}],
        }
        cfg = parse_config(doc)
        A = _build_operator(cfg.operator_spec("a"))
        joint = A.spectral.joint
        assert np.all((joint.real >= -2.0) & (joint.real <= -1.0))
        assert np.all((joint.imag >= 0.0) & (joint.imag <= 0.5))
        ref = make_commuting_random(1, 3, seed=4, spectral_box=((-2.0, -1.0),
                                                                (0.0, 0.5)))
        assert all(np.array_equal(G, H)
                   for G, H in zip(A.generators, ref.generators))
        assert run(cfg).verdict == "PASS"

    @pytest.mark.parametrize("kinds,verdict", [
        (("PASS", "INAPPLICABLE", "FAIL", "ERROR"), "ERROR"),
        (("ERROR", "FAIL"), "ERROR"),
        (("PASS", "INAPPLICABLE", "FAIL"), "FAIL"),
        (("INAPPLICABLE", "FAIL"), "FAIL"),
        (("INAPPLICABLE", "INAPPLICABLE"), "INAPPLICABLE"),
        (("INAPPLICABLE", "PASS"), "PASS"),
        ((), "PASS")])
    def test_experiment_verdict_precedence(self, kinds, verdict):
        rows = tuple(Row("x", "c%d" % i, "q", None, None, k)
                     for i, k in enumerate(kinds))
        assert ExperimentResult("x", "k", rows, 0.0).verdict == verdict

    def test_psi_of_a_computed_once_per_experiment(self, monkeypatch):
        # one apply_psi per mapping and per factorization experiment, and
        # the same rows as checks that each compute psi(A) themselves
        import bpcalc.calculus
        import bpcalc.cli
        import bpcalc.spectra
        from bpcalc.calculus import factorization_checks
        from bpcalc.cli import _build_operator
        from bpcalc.spectra import mapping_check
        apply_psi = bpcalc.calculus.apply_psi
        calls = []

        def counted(psi, A, tol=1e-9):
            calls.append(tol)
            return apply_psi(psi, A, tol)

        for mod in (bpcalc.calculus, bpcalc.cli, bpcalc.spectra):
            monkeypatch.setattr(mod, "apply_psi", counted)
        doc = {
            "functions": [{"id": "lg", "catalog": "log1m"}],
            "operators": [{"id": "a", "random": {"n": 1, "d": 3, "seed": 4}}],
            "experiments": [
                {"kind": "spectral_mapping", "id": "map", "function": "lg",
                 "operator": "a"},
                {"kind": "factorization", "id": "fac", "function": "lg",
                 "operator": "a", "trials": 3},
            ],
        }
        cfg = parse_config(doc)
        report = run(cfg, seed=1)
        assert len(calls) == 2
        monkeypatch.undo()
        psi = cfg.functions["lg"]
        A = _build_operator(cfg.operator_specs[0])
        separate = [r.distance for part in (1, 2, 4, 5)
                    for r in mapping_check(psi, A, part, tol=cfg.tol).rows]
        assert separate and [r.value for r in rows_for(report, "map")
                if r.quantity == "distance"] == separate
        lams = []
        for k in range(3):
            rng = np.random.default_rng([1, 1, k])
            lams.append(rng.uniform(-3.0, -0.3, 1) + 1j * rng.uniform(-2.0, 2.0, 1))
        qtol = min(1e-9, cfg.tol / 10.0)
        assert [r.value for r in rows_for(report, "fac")] == list(
            factorization_checks(psi, A, lams, tol=qtol))


class TestEmit:
    def test_empty_experiment_list_header_only(self):
        report = run(parse_config({}))
        data = emit_report(report, "csv")
        assert data == b"experiment,case_id,quantity,value,bound,verdict\n"

    def test_csv_shape_and_quoting(self):
        report = run(parse_config(small_doc()))
        data = emit_report(report, "csv")
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0] == "experiment,case_id,quantity,value,bound,verdict"
        assert len(lines) == 1 + 1 + 6
        assert lines[1].startswith('"oracle","norm","relative_error",')
        assert lines[1].endswith('"PASS"')

    def test_text_contains_worst_slack_and_trial(self):
        report = run(parse_config(small_doc()))
        text = emit_report(report, "text").decode()
        assert "worst slack" in text
        assert "at trial" in text
        assert "OVERALL PASS" in text

    def test_sampled_bound_noted_in_text_only(self):
        # [[-1, 4], [0, -1]] has log-norm 1 > 0, so its M_j is sampled;
        # [[-1, 1], [0, -1]] has log-norm -1/2 and a certified M_j = 1
        doc = {
            "functions": [{"id": "ps", "catalog": "poisson"}],
            "operators": [
                {"id": "samp", "matrices": [[[-1.0, 4.0], [0.0, -1.0]]]},
                {"id": "cert", "matrices": [[[-1.0, 1.0], [0.0, -1.0]]]}],
            "experiments": [
                {"kind": "moment_sweep", "id": "m_samp", "function": "ps",
                 "operator": "samp", "trials": 2},
                {"kind": "moment_sweep", "id": "m_cert", "function": "ps",
                 "operator": "cert", "trials": 2}],
        }
        report = run(parse_config(doc))
        notes = {res.name: [n for n in res.notes if "semigroup bound" in n]
                 for res in report.experiments}
        assert notes["m_cert"] == []
        assert notes["m_samp"] == ["operator samp: semigroup bound M_j for "
                                   "j = 0 sampled on a grid of t, not certified"]
        assert "m_samp: operator samp: semigroup bound" in \
            emit_report(report, "text").decode()
        assert b"sampled" not in emit_report(report, "csv")

    def test_unknown_format_rejected(self):
        report = run(parse_config({}))
        with pytest.raises(ValueError, match="format"):
            emit_report(report, "yaml")


class TestMain:
    def test_list_catalog(self, capsys):
        assert main(["--list-catalog"]) == 0
        out = capsys.readouterr().out
        for cid in ("fractional_power", "poisson", "log1m", "linear",
                    "diagonal_lift", "direct_sum", "cone_combination"):
            assert cid in out

    def test_run_writes_csv_file(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(small_doc()))
        out = tmp_path / "report.csv"
        rc = main(["run", str(cfg), "--format", "csv", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"experiment,case_id,")

    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(small_doc()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(cfg), "--format", "csv",
                     "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--format", "csv",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"functions": [
            {"id": "f", "catalog": "fractional_power",
             "parameters": {"alpha": 1.5}}]}))
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        (["--tol", "inf"], "expected a finite number (at tol)"),
        (["--tol", "nan"], "expected a finite number (at tol)"),
        (["--tol", "0"], "tolerances must be positive (at tol)"),
        (["--seed", "-1"], "must be at least 0 (at seed)"),
    ], ids=["tol-inf", "tol-nan", "tol-zero", "seed-negative"])
    def test_bad_override_exit_two(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(small_doc()))
        assert main(["run", str(cfg)] + override) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("config error: %s\n" % message)
        assert captured.out == ""

    def test_missing_config_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bundled_name_resolves(self, tmp_path):
        out = tmp_path / "suite.csv"
        rc = main(["run", "theorem_suite", "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_bytes().decode().splitlines()
        assert len(lines) > 400

    def test_tol_override_lands_in_bound_column(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        doc = small_doc()
        doc["experiments"] = [doc["experiments"][0]]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        rc = main(["run", str(cfg), "--format", "csv", "--tol", "1e-2",
                   "--out", str(out)])
        assert rc == 0
        assert ",0.01," in out.read_text().splitlines()[1]
