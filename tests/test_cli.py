"""Command-line interface: config parsing, subcommands, exit discipline."""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from finslerconn import verify
from finslerconn.cli import (
    Config,
    ConfigError,
    build_params,
    build_structure,
    default_config_text,
    load_config,
    load_points,
    main,
    parse_config,
)
from finslerconn.expr import FUNCTIONS

# ---------------------------------------------------------------------------
# configuration documents


QUICK_SAMPLE = """\
[sample]
seed = 42
param_sets = 1
theorem_points = 2
construction_points = 2
torsion_points = 2
curvature_points = 2
bianchi_points = 2
process_points = 2
case_points = 1
fd_points = 2
"""

QUICK_INI = (
    """\
[run]
dimension = 2
metrics = euclidean, hyperbolic
params = mild

[metric:euclidean]
L = sqrt(y1^2 + y2^2)

[metric:hyperbolic]
L = sqrt(y1^2 + exp(2*x1)*y2^2)

[params:mild]
source = random

"""
    + QUICK_SAMPLE
)

# Same document with enough identity samples to reproduce the measured
# differential-identity floor (the residuals saturate near 9e-16, so a
# 5e-16 override must fail while the default tier passes).
FLOOR_INI = QUICK_INI.replace("bianchi_points = 2", "bianchi_points = 6")


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing


class TestParseConfig:
    def test_builtin_template_parses(self):
        cfg = parse_config(default_config_text())
        assert isinstance(cfg, Config)
        assert [m.name for m in cfg.metrics] == [
            "euclidean", "hyperbolic", "drift",
        ]
        assert cfg.default_params == "mild"
        assert cfg.plan.seed == 42
        assert cfg.plan.shell == (0.4, 1.6)
        assert cfg.tolerances == {}
        assert cfg.fuzz is False

    def test_metrics_order_follows_run_key(self):
        text = QUICK_INI.replace(
            "metrics = euclidean, hyperbolic", "metrics = hyperbolic"
        )
        cfg = parse_config(text)
        assert [m.name for m in cfg.metrics] == ["hyperbolic"]

    def test_smallest_declared_box_wins(self):
        text = QUICK_INI.replace(
            "L = sqrt(y1^2 + y2^2)", "L = sqrt(y1^2 + y2^2)\nbox = 0.25"
        )
        assert parse_config(text).plan.box == 0.25

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[weird\]"):
            parse_config(QUICK_INI + "\n[weird]\nkey = 1\n")

    def test_unknown_run_key_rejected(self):
        text = QUICK_INI.replace("params = mild", "params = mild\nbogus = 1")
        with pytest.raises(ConfigError, match=r"\[run\] unknown key"):
            parse_config(text)

    def test_missing_metric_section_rejected(self):
        text = QUICK_INI.replace(
            "metrics = euclidean, hyperbolic", "metrics = euclidean, absent"
        )
        with pytest.raises(ConfigError, match="no \\[metric:absent\\]"):
            parse_config(text)

    def test_missing_params_section_rejected(self):
        text = QUICK_INI.replace("params = mild", "params = absent")
        with pytest.raises(ConfigError, match="no \\[params:absent\\]"):
            parse_config(text)

    def test_metric_requires_norm_text(self):
        with pytest.raises(ConfigError, match=r"\[metric:m\] is missing L"):
            parse_config("[run]\nmetrics = m\n[metric:m]\nbox = 0.5\n")

    def test_metric_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match=r"\[metric:m\] unknown key"):
            parse_config("[metric:m]\nL = y1\nfoo = 1\n")

    def test_sample_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sample\] unknown key"):
            parse_config(QUICK_INI + "nonsense_points = 3\n")

    def test_sample_shell_needs_two_values(self):
        text = QUICK_INI + "shell = 0.4, 1.6, 2.0\n"
        with pytest.raises(ConfigError, match="shell needs two"):
            parse_config(text)

    def test_sample_plan_validation_propagates(self):
        text = QUICK_INI + "shell = 1.6, 0.4\n"
        with pytest.raises(ConfigError, match=r"\[sample\]"):
            parse_config(text)

    @pytest.mark.parametrize(
        "line",
        [
            "box = inf", "box = nan", "shell = 0.4, inf", "shell = 0.4, nan",
            "shell = nan, 1.0",
        ],
    )
    def test_sample_rejects_non_finite_numbers(self, tmp_path, capsys, line):
        text = QUICK_INI + line + "\n"
        with pytest.raises(ConfigError, match=r"\[sample\].*finite"):
            parse_config(text)
        ini = write(tmp_path, "s.ini", text)
        assert main(["report", "--config", ini, "--out", str(tmp_path / "r.json")]) == 2
        assert "[sample]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_metric_box_must_be_finite_and_positive(self, value):
        text = QUICK_INI.replace(
            "L = sqrt(y1^2 + y2^2)", f"L = sqrt(y1^2 + y2^2)\nbox = {value}"
        )
        with pytest.raises(ConfigError, match=r"\[metric:euclidean\] box"):
            parse_config(text)

    def test_tolerances_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown name 'bogus'"):
            parse_config(QUICK_INI + "[tolerances]\nbogus = 1e-5\n")

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ConfigError, match="must be positive"):
            parse_config(QUICK_INI + "[tolerances]\nbianchi = -1e-5\n")

    def test_tolerances_must_be_finite(self):
        with pytest.raises(ConfigError, match=r"\[tolerances\]: cases must be positive and finite"):
            parse_config(QUICK_INI + "[tolerances]\ncases = inf\n")

    def test_params_source_must_be_random(self):
        text = QUICK_INI.replace("source = random", "source = fancy")
        with pytest.raises(ConfigError, match="source must be 'random'"):
            parse_config(text)

    def test_params_random_takes_no_other_keys(self):
        text = QUICK_INI.replace(
            "source = random", "source = random\nf1 = 0.2"
        )
        with pytest.raises(ConfigError, match="takes no other keys"):
            parse_config(text)

    def test_params_unknown_field_rejected(self):
        text = QUICK_INI.replace("source = random", "f9 = 0.2")
        with pytest.raises(ConfigError, match=r"unknown key\(s\) f9"):
            parse_config(text)

    def test_params_field_keys_case_sensitive(self):
        text = QUICK_INI.replace("source = random", "A = 0.1, 0.2")
        cfg = parse_config(text)
        assert cfg.params["mild"].fields == {"A": "0.1, 0.2"}

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.ini")


class TestInit:
    def test_template_round_trips(self, tmp_path):
        path = tmp_path / "t.ini"
        assert main(["init", "--out", str(path)]) == 0
        assert load_config(path) == parse_config(default_config_text())

    def test_readme_shows_the_template_byte_for_byte(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert block == default_config_text()

    def test_template_lists_every_expression_function(self):
        line = next(l for l in default_config_text().splitlines() if l.startswith("# Functions:"))
        assert line == f"# Functions: {', '.join(FUNCTIONS)}; operators + - * / ^."

    def test_refuses_to_overwrite(self, tmp_path, capsys):
        path = tmp_path / "t.ini"
        path.write_text("existing")
        assert main(["init", "--out", str(path)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert path.read_text() == "existing"


# ---------------------------------------------------------------------------
# building structures and parameter packs


class TestBuilders:
    def test_bad_norm_text_names_the_section(self):
        cfg = parse_config(QUICK_INI.replace("exp(2*x1)", "exp(2*z1)"))
        with pytest.raises(
            ConfigError, match=r"\[metric:hyperbolic\] L: unknown identifier"
        ):
            build_structure(cfg.metric_entry("hyperbolic"), cfg.dimension)

    @pytest.mark.parametrize(
        "norm", ["y1^(1/0)", "(" * 5000 + "x1" + ")" * 5000], ids=["zero-division", "deep-nesting"]
    )
    def test_malformed_norm_exits_2(self, tmp_path, capsys, norm):
        ini = write(tmp_path, "bad.ini", QUICK_INI.replace("sqrt(y1^2 + y2^2)", norm))
        assert main(["check", "--config", ini, "--out", str(tmp_path / "c.json")]) == 2
        assert "offset" in capsys.readouterr().err

    def test_degenerate_norm_rejected_at_probe(self):
        cfg = parse_config(
            "[run]\nmetrics = bad\n[metric:bad]\nL = sqrt(y1^2 - 0.5*y2^2)\n"
        )
        with pytest.raises(ConfigError, match=r"\[metric:bad\]"):
            build_structure(cfg.metric_entry("bad"), cfg.dimension)

    def test_random_params_deterministic_per_name(self):
        cfg = parse_config(QUICK_INI)
        F = build_structure(cfg.metric_entry("euclidean"), 2)
        a = build_params(cfg.params_entry("mild"), F, cfg.plan)
        b = build_params(cfg.params_entry("mild"), F, cfg.plan)
        assert a.describe() == b.describe()
        assert a.name == "mild"

    def test_explicit_fields_default_to_zero(self):
        text = QUICK_INI.replace("source = random", "f1 = 0.3\nu = 0.1, 0.2")
        cfg = parse_config(text)
        F = build_structure(cfg.metric_entry("euclidean"), 2)
        pack = build_params(cfg.params_entry("mild"), F, cfg.plan)
        desc = pack.describe()
        assert "f2=constant 0.0" in desc
        assert "A=constant [0.0, 0.0]" in desc
        assert "phi=constant [[0.0, 0.0], [0.0, 0.0]]" in desc

    def test_form_needs_matching_component_count(self):
        text = QUICK_INI.replace("source = random", "u = 0.1, 0.2, 0.3")
        cfg = parse_config(text)
        F = build_structure(cfg.metric_entry("euclidean"), 2)
        with pytest.raises(ConfigError, match="needs 2 comma-separated"):
            build_params(cfg.params_entry("mild"), F, cfg.plan)

    def test_preset_free_choice_errors_name_the_section(self):
        text = QUICK_INI.replace("source = random", "preset = 22")
        cfg = parse_config(text)
        F = build_structure(cfg.metric_entry("euclidean"), 2)
        with pytest.raises(
            ConfigError, match=r"\[params:mild\].*free choices"
        ):
            build_params(cfg.params_entry("mild"), F, cfg.plan)


# ---------------------------------------------------------------------------
# points files


class TestPointsFile:
    def test_reads_points_and_skips_comments(self, tmp_path):
        path = write(
            tmp_path,
            "pts.txt",
            "# base then direction\n\n0.1 -0.2 0.9 1.1\n0 0 1 1\n",
        )
        points = load_points(path, 2)
        assert len(points) == 2
        assert points[0].x.tolist() == [0.1, -0.2]
        assert points[0].y.tolist() == [0.9, 1.1]

    def test_wrong_arity_reports_line(self, tmp_path):
        path = write(tmp_path, "pts.txt", "0.1 0.2 0.9\n")
        with pytest.raises(ConfigError, match="pts.txt:1: expected 4"):
            load_points(path, 2)

    def test_bad_float_reports_line(self, tmp_path):
        path = write(tmp_path, "pts.txt", "0 0 1 1\n0 x 1 1\n")
        with pytest.raises(ConfigError, match="pts.txt:2"):
            load_points(path, 2)

    def test_zero_direction_rejected(self, tmp_path):
        path = write(tmp_path, "pts.txt", "0.1 0.2 0 0\n")
        with pytest.raises(ConfigError, match="pts.txt:1"):
            load_points(path, 2)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "pts.txt", "# nothing\n")
        with pytest.raises(ConfigError, match="no points"):
            load_points(path, 2)


# ---------------------------------------------------------------------------
# report


class TestReport:
    def test_euclidean_zero_params_everything_vanishes(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main([
            "report", "--metric", "euclidean", "--params", "zero",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["metric"] == "euclidean"
        assert doc["params"]["name"] == "zero"
        assert len(doc["points"]) == 5
        for entry in doc["points"]:
            for name in ("nonlinear", "vertical", "difference"):
                assert np.max(np.abs(entry["deformed"][name])) < 1e-12
            for block in entry["torsions"].values():
                assert np.max(np.abs(block)) < 1e-12
            for block in entry["curvature-flags"].values():
                assert np.max(np.abs(block)) < 1e-12
            assert np.max(np.abs(entry["metric"]["nonlinear"])) < 1e-12

    def test_preset_drift_difference_slice(self, tmp_path):
        ini = write(
            tmp_path,
            "c.ini",
            QUICK_INI.replace("source = random", "preset = 22\nu = 0.2, -0.1*x1"),
        )
        out = tmp_path / "rep.json"
        assert main([
            "report", "--config", ini, "--metric", "hyperbolic",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        for entry in doc["points"]:
            x = np.array(entry["point"]["x"])
            u = np.array([0.2, -0.1 * x[0]])
            want = np.einsum("k,ij->ijk", u, np.eye(2))
            got = np.array(entry["deformed"]["difference"])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_points_file_is_respected(self, tmp_path):
        pts = write(tmp_path, "pts.txt", "0.1 -0.1 0.8 1.2\n")
        out = tmp_path / "rep.json"
        assert main([
            "report", "--metric", "euclidean", "--params", "zero",
            "--points", pts, "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 1
        assert doc["points"][0]["point"] == {
            "x": [0.1, -0.1], "y": [0.8, 1.2],
        }

    @pytest.mark.parametrize(
        "t, message", [("abc", "'abc' is not a number"), ("nan", "must be finite")]
    )
    def test_preset_weight_must_be_a_finite_number(self, tmp_path, capsys, t, message):
        ini = write(
            tmp_path,
            "p.ini",
            QUICK_INI.replace(
                "source = random",
                f"preset = 1\nt = {t}\nA = 0.1, 0\nu = 0.1, 0\nphi = 1, 0; 0, 1",
            ),
        )
        for command in ("report", "diagram"):
            assert main([command, "--config", ini, "--out", str(tmp_path / "o.json")]) == 2
            err = capsys.readouterr().err
            assert "[params:mild]: case 1 t: " in err
            assert message in err
        assert not (tmp_path / "o.json").exists()

    def test_non_finite_literal_is_an_offset_error(self, tmp_path, capsys):
        ini = write(tmp_path, "p.ini", QUICK_INI.replace("source = random", "f1 = 0.5 + 1e999"))
        assert main(["report", "--config", ini, "--out", str(tmp_path / "r.json")]) == 2
        assert "[params:mild] f1: number '1e999' is not finite (at offset 6)" in capsys.readouterr().err

    def test_non_finite_value_fails_the_report(self, tmp_path, capsys):
        # finite literals whose product overflows only at evaluation
        ini = write(tmp_path, "p.ini", QUICK_INI.replace("source = random", "f1 = 1e308*(10 + x1)"))
        out = tmp_path / "r.json"
        for command in ("report", "diagram"):
            assert main([command, "--config", ini, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "parameter f1 is not finite at x = [" in err
            assert "], y = [" in err and "value inf" in err
        assert not out.exists()

    def test_non_finite_value_leaks_no_numpy_warning(self, tmp_path, capsys):
        # the overflow is refused as a documented error, not printed as a warning
        ini = write(tmp_path, "p.ini", QUICK_INI.replace("source = random", "f1 = 1e308*(10 + x1)"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["report", "--config", ini, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "parameter f1 is not finite at x = [" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "f1, offset, op",
        [("1/0 + x1", 1, "/"), ("2^2000*y1", 1, "^"), ("1e308*10", 5, "*"), ("y1*log(0)", 3, "log")],
    )
    def test_constant_without_a_finite_value_is_an_offset_error(self, tmp_path, capsys, f1, offset, op):
        ini = write(tmp_path, "p.ini", QUICK_INI.replace("source = random", f"f1 = {f1}"))
        for command in ("report", "diagram"):
            assert main([command, "--config", ini, "--out", str(tmp_path / "o.json")]) == 2
            err = capsys.readouterr().err
            assert f"[params:mild] f1: constant '{op}' has no finite value (at offset {offset})" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "f1, cause",
        [("y1/0", "zero constant term has no reciprocal"), ("log(x1 - 1)", "log of a series")],
    )
    def test_parameter_without_a_value_at_a_point_names_slot_and_point(
        self, tmp_path, capsys, f1, cause
    ):
        ini = write(tmp_path, "p.ini", QUICK_INI.replace("source = random", f"f1 = {f1}"))
        for command in ("report", "diagram"):
            assert main([command, "--config", ini, "--out", str(tmp_path / "o.json")]) == 2
            err = capsys.readouterr().err
            assert "parameter f1 cannot be evaluated at x = [" in err
            assert "], y = [" in err
            assert cause in err
        assert not (tmp_path / "o.json").exists()

    def test_unknown_metric_is_config_error(self, capsys):
        assert main(["report", "--metric", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "not configured" in err
        assert "euclidean" in err

    def test_deterministic_sampled_points(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "report", "--metric", "euclidean", "--params", "zero",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# check


class TestCheck:
    def test_quick_battery_passes_and_is_deterministic(self, tmp_path):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        docs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            assert main(["check", "--config", ini, "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["payload"] == docs[1]["payload"]
        assert docs[0]["digest"] == docs[1]["digest"]
        assert docs[0]["payload"]["passed"] is True
        suites = {r["suite"] for r in docs[0]["payload"]["rows"]}
        assert "theorem[euclidean]" in suites
        assert "constant-curvature" in suites

    def test_seed_changes_the_payload(self, tmp_path):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert main(["check", "--config", ini, "--out", str(out1)]) == 0
        assert main([
            "check", "--config", ini, "--seed", "7", "--out", str(out2),
        ]) == 0
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert a["digest"] != b["digest"]

    def test_fuzz_fails(self, tmp_path, capsys):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out = tmp_path / "f.json"
        assert main(["check", "--config", ini, "--fuzz",
                     "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["payload"]["passed"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_identity_floor_is_documented_behavior(self, tmp_path):
        ini = write(tmp_path, "f.ini", FLOOR_INI)
        out = tmp_path / "r.json"
        assert main(["check", "--config", ini, "--out", str(out)]) == 0
        assert main([
            "check", "--config", ini, "--tolerance", "bianchi=5e-16",
            "--out", str(out),
        ]) == 1

    def test_tolerance_flag_validation(self, capsys):
        assert main(["check", "--tolerance", "nosuch=1e-5"]) == 2
        assert "unknown name 'nosuch'" in capsys.readouterr().err
        assert main(["check", "--tolerance", "bianchi"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err
        assert main(["check", "--tolerance", "bianchi=abc"]) == 2
        assert main(["check", "--tolerance", "bianchi=-1e-6"]) == 2
        assert "positive" in capsys.readouterr().err
        # an infinite tolerance would pass every finite residual
        for value in ("inf", "nan"):
            assert main(["cases", "--tolerance", f"cases={value}"]) == 2
            assert "--tolerance: cases must be positive and finite" in capsys.readouterr().err

    def test_nan_residual_fails_the_check(self, tmp_path, capsys, monkeypatch):
        # the suites call their per-point functions through module globals,
        # so a NaN from one of them must reach the report and fail its row
        fd_residuals = verify.fd_residuals

        def poisoned(F, point, perturbation=0.0):
            return {**fd_residuals(F, point, perturbation), "fd-spray": float("nan")}

        monkeypatch.setattr(verify, "fd_residuals", poisoned)
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out = tmp_path / "nan.json"
        assert main(["check", "--config", ini, "--out", str(out)]) == 1
        rows = json.loads(out.read_text())["payload"]["rows"]
        poisoned_rows = [r for r in rows if r["label"] == "fd-spray"]
        assert poisoned_rows and all(
            math.isnan(r["residual"]) and r["passed"] is False for r in poisoned_rows
        )
        assert all(r["passed"] for r in rows if r["label"] != "fd-spray")
        assert "FAIL fd[euclidean]: fd-spray residual nan" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# cases


class TestCases:
    def test_single_case_row_per_metric(self, tmp_path, capsys):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out = tmp_path / "c16.json"
        assert main(["cases", "--config", ini, "--id", "16", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["payload"]["rows"]
        assert [(r["suite"], r["label"]) for r in rows] == [
            ("cases[euclidean]", "case-16"), ("cases[hyperbolic]", "case-16"),
        ]  # one per configured metric
        lines = capsys.readouterr().out.splitlines()
        verdicts = [ln for ln in lines if ln.startswith(("pass", "FAIL"))]
        assert len(verdicts) == 2
        assert all(ln.startswith("pass") and "case-16" in ln for ln in verdicts)

    def test_unknown_case_id(self, capsys):
        assert main(["cases", "--id", "27"]) == 2
        assert "unknown case id 27" in capsys.readouterr().err

    def test_full_catalog_rows_and_flags(self, tmp_path, capsys):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out = tmp_path / "cases.json"
        assert main(["cases", "--config", ini, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = doc["payload"]["rows"]
        assert len(rows) == 26 * 2
        assert all(r["passed"] for r in rows)
        assert {r["label"] for r in rows} == {f"case-{k:02d}" for k in range(1, 27)}
        flagged = {
            int(r["label"][5:]) for r in rows if "literal printed form" in r["note"]
        }
        assert flagged == {11, 12, 13, 14}
        text = capsys.readouterr().out
        assert "reported, not asserted" in text

    def test_rows_are_the_check_rows(self, tmp_path):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        cases_out, check_out = tmp_path / "cases.json", tmp_path / "check.json"
        assert main(["cases", "--config", ini, "--out", str(cases_out)]) == 0
        assert main(["check", "--config", ini, "--out", str(check_out)]) == 0
        check_rows = json.loads(check_out.read_text())["payload"]["rows"]
        assert json.loads(cases_out.read_text())["payload"]["rows"] == [
            r for r in check_rows if r["suite"].startswith("cases[")
        ]


# ---------------------------------------------------------------------------
# diagram


class TestDiagram:
    def test_matrix_shape_and_verdicts(self, tmp_path, capsys):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out = tmp_path / "d.json"
        assert main(["diagram", "--config", ini, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["payload"]["rows"]
        assert len(rows) == 26
        assert all(r["passed"] for r in rows)
        for metric in ("euclidean", "hyperbolic"):
            groups = [
                r["label"].split(":")[0]
                for r in rows
                if r["suite"] == f"processes[{metric}]"
            ]
            assert sorted(groups) == ["classical"] * 4 + ["collapse"] * 5 + ["deformed"] * 4
        text = capsys.readouterr().out
        assert "deformed:" in text
        assert "collapse:" in text

    def test_euclidean_zero_params_trivial(self, tmp_path):
        ini = write(
            tmp_path,
            "e.ini",
            (
                "[run]\ndimension = 2\nmetrics = euclidean\nparams = still\n"
                "[metric:euclidean]\nL = sqrt(y1^2 + y2^2)\n"
                "[params:still]\nf1 = 0\n" + QUICK_SAMPLE
            ),
        )
        out = tmp_path / "d.json"
        assert main(["diagram", "--config", ini, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["payload"]["rows"]
        assert len(rows) == 13
        assert max(r["residual"] for r in rows) < 1e-14

    def test_rows_are_the_process_suite_of_the_run_params(self, tmp_path):
        ini = write(tmp_path, "q.ini", QUICK_INI)
        out = tmp_path / "d.json"
        assert main(["diagram", "--config", ini, "--out", str(out)]) == 0
        cfg = parse_config(QUICK_INI)
        want = []
        for entry in cfg.metrics:
            F = build_structure(entry, cfg.dimension)
            pack = build_params(cfg.params_entry("mild"), F, cfg.plan)
            want += [r.to_dict() for r in verify.check_processes(pack, F, cfg.plan).rows]
        assert json.loads(out.read_text())["payload"]["rows"] == want


# ---------------------------------------------------------------------------
# [run] fuzz reaches every verdict command


@pytest.mark.parametrize("command", ["cases", "diagram"])
def test_config_fuzz_fails_the_command(tmp_path, capsys, command):
    text = default_config_text()
    assert "\nfuzz = false\n" in text
    ini = write(tmp_path, "fuzz.ini", text.replace("\nfuzz = false\n", "\nfuzz = true\n"))
    assert main([command, "--config", ini]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("FAIL ") for ln in lines)


# ---------------------------------------------------------------------------
# usage


class TestUsage:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "report" in capsys.readouterr().out
