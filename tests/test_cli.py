import json

import numpy as np
import pytest

from cslme import sim
from cslme.cli import InputSchema, SchemaError, ingest, main, read_config
from cslme.datasets import sleepstudy_path
from cslme.model import SingularDesignError

SLEEP_SCHEMA_ARGS = [
    "--group-col", "Subject", "--response-col", "Reaction",
    "--features", "Days", "--random-effects", "intercept,Days",
]


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_sleep_study_shape(self):
        schema = InputSchema("Subject", "Reaction", ("Days",), ("intercept", "Days"))
        data, spec = ingest(sleepstudy_path(), schema)
        assert data.g == 18
        assert data.p == 2
        assert spec.k == 2
        assert data.n == 180
        np.testing.assert_array_equal(data.groups[0].X[:, 0], 1.0)

    def test_single_group_rejected(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", "y,x,g\n1,2,a\n3,4,a\n")
        schema = InputSchema("g", "y", ("x",), ("intercept",))
        with pytest.raises(SchemaError, match="2 groups"):
            ingest(path, schema)

    @pytest.mark.parametrize("features, random_effects, message", [
        ("Days,Days", "intercept", "feature column 'Days' is listed twice"),
        ("Days", "Days,Days", "random-effect column 'Days' is listed twice"),
        ("Reaction", "intercept", "column 'Reaction' is both the response and a feature"),
    ])
    def test_one_role_per_column(self, tmp_path, capsys, features, random_effects, message):
        out = tmp_path / "fit.json"
        code = main(["fit", str(sleepstudy_path()), "--group-col", "Subject",
                     "--response-col", "Reaction", "--features", features,
                     "--random-effects", random_effects, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_value_names_row(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,x,g\n1,2,a\n,4,b\n")
        schema = InputSchema("g", "y", ("x",))
        with pytest.raises(SchemaError, match="row 3"):
            ingest(path, schema)

    def test_non_numeric_cell_located(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,x,g\n1,2,a\n3,oops,b\n")
        schema = InputSchema("g", "y", ("x",))
        with pytest.raises(SchemaError, match="row 3.*'x'"):
            ingest(path, schema)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        path = write_csv(tmp_path / "bad.csv", f"y,x,g\n1,2,a\n3,4,b\n{cell},5,b\n")
        schema = InputSchema("g", "y", ("x",))
        with pytest.raises(SchemaError, match=f"row 4: non-finite value '{cell}' in 'y'"):
            ingest(path, schema)

    def test_inf_feature_located(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,x,g\n1,2,a\n3,inf,b\n")
        schema = InputSchema("g", "y", ("x",))
        with pytest.raises(SchemaError, match="row 3: non-finite value 'inf' in 'x'"):
            ingest(path, schema)

    def test_unknown_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,x,g\n1,2,a\n")
        schema = InputSchema("g", "y", ("nope",))
        with pytest.raises(SchemaError, match="'nope'"):
            ingest(path, schema)

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,y,g\n1,2,a\n")
        schema = InputSchema("g", "y", ())
        with pytest.raises(SchemaError, match="duplicate"):
            ingest(path, schema)

    def test_random_effect_must_be_feature(self):
        with pytest.raises(SchemaError):
            InputSchema("g", "y", ("x",), ("z",))
        with pytest.raises(SchemaError):
            InputSchema("g", "y", ("x",), ("intercept",), intercept=False)


class TestFitCommand:
    def test_reml_fit_document(self, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
                     "--method", "REML", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        beta = doc["parameters"]["beta"]
        assert beta[0] == pytest.approx(251.405, abs=0.01)
        assert beta[1] == pytest.approx(10.467, abs=0.01)
        assert doc["parameters"]["sigma"] == pytest.approx(25.565, abs=0.01)
        assert doc["provenance"]["version"]
        assert len(doc["random_effects"]["gamma"]) == 18

    def test_numbers_roundtrip_losslessly(self, tmp_path):
        out = tmp_path / "fit.json"
        main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
              "--method", "REML", "--out", str(out)])
        doc = json.loads(out.read_text())
        # serialize again: values must be identical python floats
        doc2 = json.loads(json.dumps(doc))
        assert doc2["parameters"] == doc["parameters"]
        assert doc2["random_effects"]["gamma"] == doc["random_effects"]["gamma"]

    def test_pls_boundary_subject(self, tmp_path):
        out = tmp_path / "pls.json"
        code = main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
                     "--method", "PLS", "--seed", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        ids = doc["random_effects"]["group_ids"]
        overall = doc["random_effects"]["overall"]
        flags = doc["random_effects"]["at_bound"]
        i = ids.index("335")
        assert overall[i][1] == 0.0
        assert flags[i][1] is True
        slopes = [row[1] for row in overall]
        assert min(slopes) >= 0.0

    def test_csv_format(self, tmp_path):
        out = tmp_path / "fit.csv"
        code = main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
                     "--method", "REML", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("parameters,beta") for line in lines)

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), *SLEEP_SCHEMA_ARGS])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_data_exit_code(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", "Reaction,Days,Subject\n1,x,a\n")
        code = main(["fit", path, *SLEEP_SCHEMA_ARGS])
        assert code == 1

    def test_nan_reaction_exit_code(self, tmp_path, capsys):
        rows = sleepstudy_path().read_text().splitlines()
        header = rows[0].split(",")
        cells = rows[5].split(",")
        cells[header.index("Reaction")] = "NaN"
        rows[5] = ",".join(cells)
        path = write_csv(tmp_path / "nan.csv", "\n".join(rows) + "\n")
        code = main(["fit", path, *SLEEP_SCHEMA_ARGS])
        assert code == 1
        assert "row 6: non-finite value 'NaN' in 'Reaction'" in capsys.readouterr().err

    @pytest.mark.parametrize("method, keys", [
        ("PLS", ["converged", "n_iter", "n_eval", "start_index", "start_objectives",
                 "objective_trace"]),
        ("PRLS", ["converged", "n_iter", "n_eval", "start_index", "start_objectives",
                  "objective_trace"]),
        ("ML", ["converged", "n_iter", "n_eval"]),
        ("REML", ["converged", "n_iter", "n_eval"]),
        ("PIT", ["converged", "n_iter", "n_eval", "quadrature_order"]),
    ])
    def test_diagnostics_keys_per_method(self, tmp_path, method, keys):
        out = tmp_path / "fit.json"
        raneff = "intercept" if method == "PIT" else "intercept,Days"
        args = [*SLEEP_SCHEMA_ARGS[:-1], raneff]
        code = main(["fit", str(sleepstudy_path()), *args, "--method", method,
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc["diagnostics"]) == keys
        assert doc["spec"]["constrained"] is (method not in ("ML", "REML"))
        # no scale of these fits is at the uniform limit
        assert doc["parameters"]["varsigma_at_limit"] == [False] * len(raneff.split(","))

    @pytest.mark.parametrize("flag, intercept", [([], True), (["--no-intercept"], False)])
    def test_spec_reports_the_schemas_intercept_flag(self, tmp_path, flag, intercept):
        out = tmp_path / "fit.json"
        args = [*SLEEP_SCHEMA_ARGS[:-1], "Days", *flag]
        assert main(["fit", str(sleepstudy_path()), *args, "--out", str(out)]) == 0
        spec = json.loads(out.read_text())["spec"]
        assert spec["intercept"] is intercept
        assert spec["columns"] == ["intercept", "Days"][not intercept:]


class TestRanefRoundTrip:
    def test_gamma_reproduced_bit_for_bit(self, tmp_path):
        # each method's document: the box QP (PLS, PRLS, PIT) or the
        # closed-form shrinkage estimate (ML, REML), and its at_bound flags
        for method in sim.ALL_METHODS:
            raneff = "intercept" if method == "PIT" else "intercept,Days"
            args = [str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS[:-1], raneff]
            fit_out = tmp_path / f"{method}.json"
            main(["fit", *args, "--method", method, "--seed", "0", "--out", str(fit_out)])
            doc = json.loads(fit_out.read_text())["random_effects"]
            ranef_out = tmp_path / f"{method}.csv"
            code = main(["ranef", *args, "--params", str(fit_out), "--out", str(ranef_out)])
            assert code == 0
            lines = ranef_out.read_text().splitlines()
            header = lines[0].split(",")
            cols = [c for c in header if c.startswith("gamma_")]
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            assert [[float(r[c]) for c in cols] for r in rows] == doc["gamma"]
            assert [[r["at_bound_" + c[6:]] == "True" for c in cols]
                    for r in rows] == doc["at_bound"]

    def test_non_finite_parameter_rejected(self, tmp_path, capsys):
        fit_out = tmp_path / "fit.json"
        main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
              "--method", "PLS", "--seed", "0", "--out", str(fit_out)])
        doc = json.loads(fit_out.read_text())
        doc["parameters"]["beta"][1] = float("nan")
        fit_out.write_text(json.dumps(doc))
        ranef_out = tmp_path / "ranef.csv"
        code = main(["ranef", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
                     "--params", str(fit_out), "--out", str(ranef_out)])
        assert code == 1
        assert "beta[1] must be finite" in capsys.readouterr().err
        assert not ranef_out.exists()

    def test_unknown_method_rejected(self, tmp_path, capsys):
        # a method outside the five is named, not fitted as the box QP
        fit_out = tmp_path / "fit.json"
        main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
              "--method", "PLS", "--seed", "0", "--out", str(fit_out)])
        doc = json.loads(fit_out.read_text())
        doc["spec"]["method"] = "OLS"
        fit_out.write_text(json.dumps(doc))
        ranef_out = tmp_path / "ranef.csv"
        code = main(["ranef", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
                     "--params", str(fit_out), "--out", str(ranef_out)])
        assert code == 1
        assert "unknown method 'OLS'" in capsys.readouterr().err
        assert not ranef_out.exists()

    @pytest.mark.parametrize("method", ["ML", "REML"])
    def test_normal_fit_needs_its_relative_variances(self, tmp_path, capsys, method):
        fit_out = tmp_path / "fit.json"
        main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
              "--method", method, "--seed", "0", "--out", str(fit_out)])
        doc = json.loads(fit_out.read_text())
        del doc["parameters"]["relative_variances"]
        fit_out.write_text(json.dumps(doc))
        ranef_out = tmp_path / "ranef.csv"
        code = main(["ranef", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
                     "--params", str(fit_out), "--out", str(ranef_out)])
        assert code == 1
        assert "parameters.relative_variances" in capsys.readouterr().err
        assert not ranef_out.exists()

    def test_mismatched_document_rejected(self, tmp_path, capsys):
        fit_out = tmp_path / "fit.json"
        main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS,
              "--method", "PLS", "--seed", "0", "--out", str(fit_out)])
        code = main(["ranef", str(sleepstudy_path()),
                     "--group-col", "Subject", "--response-col", "Reaction",
                     "--features", "Days", "--random-effects", "Days",
                     "--params", str(fit_out)])
        assert code == 1
        assert "does not match" in capsys.readouterr().err


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "scenario = intercept-p3-n300\n"
            "replications = 2\n"
            "seed = 7\n"
            "methods = PLS\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "resolved config" in capsys.readouterr().out

    def test_table_structure(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "n = 80\np = 2\ng = 2\nalpha = 0\n"
            "beta = 0.5, 1.0\nvarsigma = 0.2\nsigma = 1.0\n"
            "replications = 1\nseed = 3\nmethods = PLS,REML\n"
        )
        out = tmp_path / "table.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,parameter,true_mean,estimate_mean,estimate_median"
        params = {line.split(",")[1] for line in lines[1:] if line.split(",")[0] == "PLS"}
        assert {"overall_g1_b0", "overall_g2_b0", "beta1", "s_gamma0",
                "sigma"} <= params

    def test_zero_replications_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenario = intercept-p3-n300\nreplications = 0\n")
        assert main(["simulate", str(cfg)]) == 1

    def test_unknown_builtin_rejected(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("scenario = no-such-thing\n")
        assert main(["simulate", str(cfg)]) == 1

    def test_alpha_out_of_range_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n = 30\np = 3\ng = 2\nalpha = 5\n"
                       "beta = 0.072, 1.0, 1.0\nvarsigma = 0.05\nsigma = 1.0\n"
                       "replications = 1\nmethods = PLS\n")
        assert main(["simulate", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "out of range for p=3" in captured.err
        assert "Traceback" not in captured.err and "resolved config" not in captured.out


class TestContourCommand:
    def contour_cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "contour.cfg"
        cfg.write_text(
            "objective = PLS\n"
            "vary = beta1, beta2\n"
            "range1 = 0, 2, 5\n"
            "range2 = 0, 2, 4\n"
            "n = 60\np = 3\ng = 2\nalpha = 0\n"
            "beta = 0.072, 1.0, 1.0\nvarsigma = 0.058\nsigma = 1.0\n"
            "seed = 11\n" + extra
        )
        return cfg

    def test_grid_csv_shape(self, tmp_path):
        cfg = self.contour_cfg(tmp_path)
        out = tmp_path / "grid.csv"
        assert main(["contour", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta1,beta2,objective"
        assert len(lines) == 1 + 5 * 4

    def test_levels_sidecar(self, tmp_path):
        cfg = self.contour_cfg(tmp_path, extra="levels = 0\nlevel_tol = 1e9\n")
        out = tmp_path / "grid.csv"
        assert main(["contour", str(cfg), "--out", str(out)]) == 0
        side = tmp_path / "grid.csv.levels.csv"
        lines = side.read_text().splitlines()
        assert lines[0] == "level,beta1,beta2,objective"
        assert len(lines) == 1 + 20  # huge tolerance keeps every cell

    def test_unknown_parameter_rejected(self, tmp_path, capsys):
        cfg = self.contour_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("vary = beta1, beta2",
                                               "vary = beta1, beta9"))
        assert main(["contour", str(cfg)]) == 1
        assert "beta9" in capsys.readouterr().err

    def test_fixed_varsigma_length_rejected(self, tmp_path, capsys):
        # a builtin scenario with k = 1 and two scales: every cell used to be NaN
        cfg = tmp_path / "contour.cfg"
        cfg.write_text("objective = PLS\nvary = beta1, beta2\n"
                       "range1 = 0, 2, 3\nrange2 = 0, 2, 3\n"
                       "scenario = intercept-p3-n300\n"
                       "beta = 0.072, 1.0, 1.0\nvarsigma = 0.058, 0.3\nsigma = 1.0\n")
        out = tmp_path / "grid.csv"
        assert main(["contour", str(cfg), "--out", str(out)]) == 1
        assert "varsigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["2.7", "4.5", "inf"])
    def test_fractional_steps_rejected(self, tmp_path, capsys, steps):
        cfg = self.contour_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("range2 = 0, 2, 4", f"range2 = 0, 2, {steps}"))
        assert main(["contour", str(cfg)]) == 1
        assert "whole number" in capsys.readouterr().err


class TestConfigParser:
    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\n\na = 1  # trailing\nb = two words\n")
        assert read_config(cfg) == {"a": "1", "b": "two words"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just some text\n")
        with pytest.raises(SchemaError, match="c.cfg:1"):
            read_config(cfg)


SIM_CFG = "scenario = intercept-p3-n300\nreplications = 1\nmethods = PLS\n"
MODEL_CFG = ("n = 40\np = 2\ng = 2\nalpha = 0\nbeta = 0.5, 1.0\nvarsigma = 0.2\n"
             "sigma = 1.0\nreplications = 1\nmethods = PLS\n")
CONTOUR_CFG = ("objective = PLS\nvary = beta1, beta2\nrange1 = 0, 2, 3\nrange2 = 0, 2, 3\n"
               "scenario = intercept-p3-n300\nbeta = 0.072, 1.0, 1.0\nvarsigma = 0.058\n"
               "sigma = 1.0\n")


class TestConfigKeysAndValues:
    @pytest.mark.parametrize("command, text, key, raw", [
        ("simulate", SIM_CFG + "replicatons = 1\n", "replicatons", "1"),
        ("simulate", SIM_CFG + "n = 5000\n", "n", "5000"),
        ("simulate", MODEL_CFG + "intercept = ture\n", "intercept", "ture"),
        ("simulate", SIM_CFG + "pit_q = two\n", "pit_q", "two"),
        ("simulate", SIM_CFG.replace("PLS", "PLS, FOO"), "methods", "PLS, FOO"),
        ("contour", CONTOUR_CFG.replace("range2 = 0, 2, 3", "range2 = 0.5, 1, x"), "range2",
         "0.5, 1, x"),
        ("contour", CONTOUR_CFG + "data_rep = q\n", "data_rep", "q"),
        ("contour", CONTOUR_CFG.replace("PLS", "XLS"), "objective", "XLS"),
        ("contour", CONTOUR_CFG + "replications = 3\n", "replications", "3"),
    ])
    def test_names_file_key_and_value(self, tmp_path, capsys, command, text, key, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg}: ")
        assert repr(key) in captured.err or f"{key} = " in captured.err
        assert repr(raw) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("raw, intercept", [("no", False), ("1", True)])
    def test_intercept_is_resolved(self, tmp_path, capsys, raw, intercept):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MODEL_CFG + f"intercept = {raw}\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "table.csv")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert json.loads(line.removeprefix("resolved config: "))["intercept"] is intercept


class TestNumericalFailureExit:
    def test_pit_underflow_exits_2_with_diagnostics(self, tmp_path, capsys):
        from cslme.sim import Scenario, gen_design, gen_response
        from cslme.model import Parameters
        import numpy as np

        truth = Parameters(beta=np.array([1.0, 1.0]), varsigma=np.array([0.3]),
                           sigma=1.0)
        sc = Scenario(n=1200, p=2, g=2, alpha=(0,), truth=truth, seed=3)
        data, _ = gen_response(gen_design(sc, seed=1), truth, sc.model_spec(), 2)
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("y,x,grp\n")
            for gd in data.groups:
                for i in range(gd.n):
                    fh.write(f"{float(gd.y[i])!r},{float(gd.X[i, 1])!r},{gd.group_id}\n")
        out = tmp_path / "pit.json"
        code = main(["fit", str(path), "--group-col", "grp",
                     "--response-col", "y", "--features", "x",
                     "--random-effects", "intercept", "--method", "PIT",
                     "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["diagnostics"]["converged"] is False
        assert "Underflow" in doc["diagnostics"]["error"]


    @pytest.mark.parametrize("method, target, error", [
        ("PIT", "fit_pit", OverflowError("math range error")),
        ("PLS", "fit", SingularDesignError("X^T V^{-1} X is singular")),
    ], ids=["pit-overflow", "singular-design"])
    def test_numerical_failure_exits_2_with_diagnostics(self, tmp_path, monkeypatch, capsys,
                                                         method, target, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(sim, target, failing)
        raneff = "intercept" if method == "PIT" else "intercept,Days"
        out = tmp_path / "fit.json"
        code = main(["fit", str(sleepstudy_path()), *SLEEP_SCHEMA_ARGS[:-1], raneff,
                     "--method", method, "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["diagnostics"] == {"converged": False,
                                      "error": f"{type(error).__name__}: {error}"}
        assert capsys.readouterr().err == f"numerical failure: {error}\n"

    @pytest.fixture
    def collinear_csv(self, tmp_path):
        """The sleep study with a copy of Days as a second feature."""
        lines = sleepstudy_path().read_text().splitlines()
        rows = [lines[0] + ",Days2"] + [f"{row},{row.split(',')[1]}" for row in lines[1:]]
        return write_csv(tmp_path / "collinear.csv", "\n".join(rows) + "\n")

    def _fit_collinear(self, path, method, out):
        return main(["fit", path, "--group-col", "Subject", "--response-col", "Reaction",
                     "--features", "Days,Days2", "--random-effects", "intercept,Days",
                     "--method", method, "--out", str(out)])

    @pytest.mark.parametrize("method", ["PLS", "PRLS"])
    def test_collinear_design_exits_2(self, tmp_path, capsys, collinear_csv, method):
        out = tmp_path / "fit.json"
        assert self._fit_collinear(collinear_csv, method, out) == 2
        error = json.loads(out.read_text())["diagnostics"]["error"]
        assert error == ("SingularDesignError: design column 2 (0-based) is collinear "
                         "with the columns before it")

    def test_failure_document_lists_each_start(self, tmp_path, capsys, collinear_csv):
        out = tmp_path / "fit.json"
        assert self._fit_collinear(collinear_csv, "REML", out) == 2
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["error"] == "ConvergenceError: all 3 starts failed"
        assert [d["start"] for d in diagnostics["failed_starts"]] == [0, 1, 2]
        assert all(d["error"].startswith("SingularDesignError(")
                   for d in diagnostics["failed_starts"])


class TestMalformedInputs:
    def test_binary_garbage_is_an_error_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "garbage.csv"
        path.write_bytes(bytes([0, 255, 12, 7]) * 100)
        code = main(["fit", str(path), *SLEEP_SCHEMA_ARGS])
        assert code == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["fit", str(path), *SLEEP_SCHEMA_ARGS])
        assert code == 1


class TestDiscountSalesAnalog:
    def test_sign_pattern_and_r2(self, tmp_path):
        from dense import write_synthetic_discount_sales
        from cslme.baseline import fit_unconstrained
        from cslme.estimate import FitConfig, fit
        from cslme.model import ModelSpec

        path = write_synthetic_discount_sales(tmp_path / "discount.csv")
        schema = InputSchema("Store Cluster", "Logit Quantity",
                             ("Discount Rate",), ("intercept", "Discount Rate"))
        data, spec = ingest(path, schema)
        assert data.g == 6
        reml = fit_unconstrained(data, ModelSpec(alpha=spec.alpha, constrained=False),
                                 "REML")
        assert reml.beta[1] < 0.0  # confounded pooled slope goes negative
        pls = fit(data, spec, FitConfig(method="PLS", seed=0))
        assert pls.params.beta[1] >= 0.0
        overall_slopes = pls.params.beta[1] + pls.gamma.gamma[:, 1]
        assert np.all(overall_slopes >= 0.0)
        # pinned slope: marginal explains ~nothing, clusters explain a lot.
        # the intercept's scale ends at the uniform limit varsigma -> inf, so
        # the as-printed pair is its limit (0, 1); the effective mode uses
        # the deflated deviation variance instead
        from cslme.metrics import r_squared

        assert pls.at_limit == (True, False)
        assert r_squared(pls.params, data, spec, at_limit=pls.at_limit) == (0.0, 1.0)
        r2m, r2c = r_squared(pls.params, data, spec)
        assert r2m < 0.05
        assert r2c > 0.1
        m_eff, c_eff = r_squared(pls.params, data, spec, effective=True)
        assert m_eff < 0.05
        assert 0.15 < c_eff < 0.9

    def test_cli_fit_on_analog(self, tmp_path, capsys):
        from dense import write_synthetic_discount_sales

        path = write_synthetic_discount_sales(tmp_path / "discount.csv")
        out = tmp_path / "fit.json"
        code = main(["fit", str(path), "--group-col", "Store Cluster",
                     "--response-col", "Logit Quantity",
                     "--features", "Discount Rate",
                     "--random-effects", "intercept,Discount Rate",
                     "--method", "PLS", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["beta"][1] >= 0.0
        # the intercept's scale is a finite stand-in for +inf, and flagged
        assert doc["parameters"]["varsigma_at_limit"] == [True, False]
        assert doc["parameters"]["varsigma"][0] > 1e7
        assert (doc["metrics"]["r2_marginal"], doc["metrics"]["r2_conditional"]) == (0.0, 1.0)
        assert "uniform limit (varsigma -> inf): intercept\n" in capsys.readouterr().out
