import json

import numpy as np
import pytest

from bpcalc.bernstein import CATALOG, catalog_ids
from bpcalc.cli import (_EXPERIMENT_KINDS, ConfigError, config_document,
                        emit_report, _load_config_text, main, parse_config,
                        run)


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
        assert report.experiments[0].fallback
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
