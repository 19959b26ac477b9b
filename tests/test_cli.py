import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import mialab
from mialab import bounds, config, dp, experiments, nn
from mialab.cli import main
from mialab.synthetic import GaussianComponent


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def synthetic_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "t",
        "experiment": "batch_mm",
        "n_members": 40,
        "n_nonmembers": 40,
        "epsilon_grid": [1.0, "inf"],
        "repetitions": 2,
        "seed": 3,
        "attacks": ["average_threshold", "optimal_threshold"],
        "train": {"hidden_units": [8], "epochs": 5, "batch_size": 40},
        "data": {
            "kind": "synthetic_mixture",
            "components": [
                {"mean": [0.0, 0.0], "cov": 0.3, "label": 0},
                {"mean": [2.0, 2.0], "cov": 0.3, "label": 1},
            ],
            "n_per_component": 120,
        },
        "split": {"kind": "mixture"},
    }
    doc.update(overrides)
    return doc


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestBoundsCommand:
    def test_zero_epsilon_zero_delta_rows(self):
        code, out = run_cli("bounds", "--epsilons", "0", "--delta", "0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["bound_name"] for r in rows] == ["new", "erlingsson", "yeom"]
        assert all(float(r["value"]) == 0.0 for r in rows)

    def test_reference_values_at_one(self):
        code, out = run_cli("bounds", "--epsilons", "1", "--delta", "1e-5")
        rows = {r["bound_name"]: float(r["value"]) for r in csv.DictReader(io.StringIO(out))}
        assert rows["new"] == pytest.approx(0.462123, abs=1e-6)
        assert rows["erlingsson"] == pytest.approx(0.632124, abs=1e-6)
        assert rows["yeom"] == 1.0

    def test_input_order_preserved(self):
        code, out = run_cli("bounds", "--epsilons", "10,1,0.1")
        eps = [float(r["epsilon"]) for r in csv.DictReader(io.StringIO(out))]
        assert eps == [10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1]

    def test_bad_epsilon_exits_two(self, capsys):
        for epsilons in ("1,-2", "1,nan"):
            code, out = run_cli("bounds", "--epsilons", epsilons)
            assert code == 2 and out == ""
            assert capsys.readouterr().err.startswith("config error: epsilons[1]: must be >= 0")

    def test_bad_delta_exits_two_naming_the_flag(self, capsys):
        code, out = run_cli("bounds", "--epsilons", "1", "--delta", "2")
        assert code == 2 and out == ""
        assert "config error: --delta" in capsys.readouterr().err


class TestAccountCommand:
    def test_matches_library(self):
        code, out = run_cli(
            "account", "--q", "0.02", "--sigma", "1.5", "--steps", "5000",
            "--delta", "1e-5",
        )
        assert code == 0
        doc = json.loads(out)
        result = dp.account(0.02, 1.5, 5000, 1e-5)
        assert doc["epsilon"] == pytest.approx(result.epsilon)
        assert doc["order"] == result.order

    def test_larger_sigma_smaller_epsilon(self):
        _, out1 = run_cli("account", "--q", "0.02", "--sigma", "1.0", "--steps", "100")
        _, out2 = run_cli("account", "--q", "0.02", "--sigma", "4.0", "--steps", "100")
        assert json.loads(out2)["epsilon"] < json.loads(out1)["epsilon"]

    def test_zero_steps_reach_the_accountant(self, capsys, monkeypatch):
        calls = []
        account = dp.account
        monkeypatch.setattr(dp, "account", lambda *args: calls.append(args) or account(*args))
        code, out = run_cli("account", "--q", "0.1", "--sigma", "1", "--steps", "0")
        assert calls == [(0.1, 1.0, 0, 1e-5)]
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "config error: --steps: must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--q", "2"), ("--q", "0"), ("--q", "nan"), ("--sigma", "-1"), ("--sigma", "0"),
        ("--sigma", "inf"), ("--steps", "0"), ("--delta", "3"), ("--delta", "0"),
    ])
    def test_bad_flag_exits_two_naming_it(self, capsys, flag, value):
        argv = {"--q": "0.02", "--sigma": "1.0", "--steps": "100", "--delta": "1e-5"}
        argv[flag] = value
        code, out = run_cli("account", *[token for pair in argv.items() for token in pair])
        assert code == 2 and out == ""
        assert f"config error: {flag}: must be" in capsys.readouterr().err


class TestRunCommand:
    def test_minimal_config_row_count(self, tmp_path):
        path = write_doc(tmp_path, synthetic_doc())
        out_dir = tmp_path / "out"
        code, _ = run_cli("run", "--config", str(path), "--out", str(out_dir))
        assert code == 0
        rows = read_csv(out_dir / "results.csv")
        assert len(rows) == 2 * 2 * 2 * 2  # reps x eps x attacks x scenarios
        header = (out_dir / "summary.csv").read_text().splitlines()[0]
        assert header == "epsilon,attack,scenario,mean_advantage,ci_half_width,repetitions"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"results.csv", "summary.csv", "manifest.json"}
        assert any("without replacement" in n for n in manifest["notes"])

    def test_byte_identical_reruns(self, tmp_path):
        path = write_doc(tmp_path, synthetic_doc())
        code1, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "a"))
        code2, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()

    def test_manifest_records_the_package_version(self, tmp_path):
        path = write_doc(tmp_path, synthetic_doc(repetitions=1))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["versions"]["mialab"] == mialab.__version__

    def test_out_under_a_regular_file_is_a_clean_runtime_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, synthetic_doc())
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _ = run_cli("run", "--config", str(path), "--out", str(blocker / "o"))
        assert code == 1
        assert "error [write]:" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exits_two_before_writing(self, tmp_path, capsys, jobs):
        path = write_doc(tmp_path, synthetic_doc())
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"),
                          "--jobs", jobs)
        assert code == 2
        assert "config error: --jobs: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_numeric_label_is_a_data_error_naming_column_and_line(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,y\n1,0\n2,1\n3,x\n4,1\n")
        schema_path = tmp_path / "d.schema.json"
        schema_path.write_text(json.dumps({
            "columns": [
                {"name": "a", "kind": "numeric"},
                {"name": "y", "kind": "numeric", "role": "label"},
            ],
            "label_classes": 2,
        }))
        doc = synthetic_doc(
            n_members=2, n_nonmembers=2,
            train={"hidden_units": [4], "epochs": 2, "batch_size": 2},
            data={"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
            split={"kind": "source", "member_value": "a"},
        )
        code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc)),
                          "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error [data]: column 'y', line 4: cannot parse 'x'" in capsys.readouterr().err

    def test_data_error_exits_one_and_leaves_no_directory(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text('a,y\n1,"multi\nline"\n2,q\n')
        schema_path = tmp_path / "d.schema.json"
        schema_path.write_text(json.dumps({
            "columns": [
                {"name": "a", "kind": "numeric"},
                {"name": "y", "kind": "categorical", "role": "label"},
            ],
            "label_classes": 2,
        }))
        doc = synthetic_doc(
            data={"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
            split={"kind": "source", "member_value": "a"},
        )
        out = tmp_path / "o" / "run"
        code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 1
        assert "error [data]: row 2: a quoted cell spans lines" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_attack_names_field(self, tmp_path, capsys):
        path = write_doc(tmp_path, synthetic_doc(attacks=["average_threshold", "mystery"]))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "attacks[1]" in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, synthetic_doc(epsilon_gird=[1.0]))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "epsilon_gird" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code, _ = run_cli("run", "--config", str(tmp_path / "nope.json"),
                          "--out", str(tmp_path / "o"))
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_split_key_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, synthetic_doc(split={"kind": "mixture", "value": "x"}))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "split" in capsys.readouterr().err

    def test_negative_covariance_rejected_at_resolve(self, tmp_path, capsys):
        doc = synthetic_doc()
        doc["data"]["components"][0]["cov"] = -1.0
        path = write_doc(tmp_path, doc)
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "components[0]" in capsys.readouterr().err

    def test_missing_data_file_is_a_clean_runtime_error(self, tmp_path, capsys):
        doc = synthetic_doc(
            n_members=20,
            n_nonmembers=20,
            train={"hidden_units": [8], "epochs": 2, "batch_size": 20},
            data={"kind": "csv", "path": str(tmp_path / "x.csv"), "schema": str(tmp_path / "s.json")},
            split={"kind": "source", "member_value": "a"},
        )
        path = write_doc(tmp_path, doc)
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "[data]" in err and "no such" in err

    def tiny_csv_doc(self, tmp_path, split, label_classes=2):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("a,y\n1,p\n2,q\n3,p\n4,q\n")
        schema_path = tmp_path / "tiny.schema.json"
        schema_path.write_text(json.dumps({
            "columns": [
                {"name": "a", "kind": "numeric"},
                {"name": "y", "kind": "categorical", "role": "label"},
            ],
            "label_classes": label_classes,
        }))
        return synthetic_doc(
            n_members=2,
            n_nonmembers=2,
            train={"hidden_units": [4], "epochs": 2, "batch_size": 2},
            data={"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
            split=split,
        )

    def test_mixture_split_needs_synthetic_data(self, tmp_path, capsys):
        path = write_doc(tmp_path, self.tiny_csv_doc(tmp_path, {"kind": "mixture"}))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "mixture" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split", [
        {"kind": "source", "member_value": "a"},
        {"kind": "attribute_bias", "value": "a", "p": 0.5},
    ])
    def test_split_without_split_attribute_exits_two_before_writing(
        self, tmp_path, capsys, split
    ):
        path = write_doc(tmp_path, self.tiny_csv_doc(tmp_path, split))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert ("config error: split.kind: schema has no split-attribute column\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value, message", [
        ("x", "expected an integer, got 'x'"),
        (2.9, "expected an integer, got 2.9"),
    ])
    def test_label_classes_not_an_integer_is_a_data_error(self, tmp_path, capsys, value, message):
        doc = self.tiny_csv_doc(tmp_path, {"kind": "cluster"}, label_classes=value)
        code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc)),
                          "--out", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == f"error [data]: label_classes: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split, n_components, message", [
        ({"kind": "cluster", "k_member": 2}, 2, "2 out of range for 2 pools"),
        ({"kind": "mixture", "k_member": -1}, 2, "-1 out of range for 2 pools"),
        ({"kind": "mixture", "k_member": 4}, 4, "4 out of range for 4 pools"),
        ({"kind": "mixture", "k_member": 0.5}, 2, "must be an integer, got 0.5"),
        ({"kind": "cluster", "k_member": True}, 2, "must be an integer, got True"),
    ])
    def test_k_member_out_of_range_exits_two_before_writing(
        self, tmp_path, capsys, split, n_components, message
    ):
        doc = synthetic_doc(split=split)
        doc["data"]["components"] = [
            {"mean": [3.0 * k, 0.0], "cov": 0.3, "label": k % 2} for k in range(n_components)
        ]
        code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc)),
                          "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err == f"config error: split.k_member: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_components_are_built_once_by_resolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        doc = synthetic_doc()
        doc["data"]["components"] = [
            {"mean": [3.0 * k, 0.0], "cov": [[0.3, 0.1], [0.1, 0.3]], "label": k % 2}
            for k in range(4)
        ]
        resolved = config.resolve(doc)
        assert len(calls) == 4
        mat = config.materialize(resolved)
        assert len(calls) == 4
        assert mat.pools.n_pools == 4

    @pytest.mark.parametrize("field, data", [
        ("data.label_rule.weights", {"label_rule": {"kind": "halfspace", "weights": ["a", 1]}}),
        ("data.label_rule.weights", {"label_rule": {"kind": "halfspace", "weights": [1, 0, 1]}}),
        ("data.label_rule.bias",
         {"label_rule": {"kind": "halfspace", "weights": [1, 0], "bias": "0.5"}}),
        ("data.components[1].mean", {"components": [
            {"mean": [0.0, 0.0], "label": 0}, {"mean": [2.0, 2.0, 2.0], "label": 1}]}),
        ("data.path", {"kind": "csv", "path": 3, "schema": "s.json"}),
        ("data.schema", {"kind": "csv", "path": "d.csv", "schema": 3}),
        ("data.n_per_component", {"n_per_component": 0}),
        ("data.components[1].label", {"components": [
            {"mean": [0.0, 0.0], "label": 0}, {"mean": [2.0, 2.0]}]}),
        ("data.n_per_component", {"n_per_component": 2.5}),
        ("data.n_per_component", {"n_per_component": True}),
    ])
    def test_bad_data_field_exits_two_before_writing(self, tmp_path, capsys, field, data):
        doc = synthetic_doc()
        if data.get("kind") == "csv":
            doc["data"] = data
            doc["split"] = {"kind": "source", "member_value": "a"}
        else:
            doc["data"].update(data)
        path = write_doc(tmp_path, doc)
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where, value, named", [
        ("train.learning_rate", math.inf, "train.learning_rate"),
        ("train.l2", math.nan, "train.l2"),
        ("privacy.clip_norm", math.inf, "privacy.clip_norm"),
        ("data.components.0.mean.1", math.nan, "data.components[0].mean[1]"),
        ("data.components.1.cov", math.nan, "data.components[1]"),
        ("data.label_rule.weights.0", math.nan, "data.label_rule.weights[0]"),
        ("data.label_rule.bias", -math.inf, "data.label_rule.bias"),
        ("train.adam_epsilon", -1.0, "train.adam_epsilon"),
        ("train.adam_betas", ["a", 0.9], "train.adam_betas[0]"),
        ("delta", 10**400, "delta"),
        ("train.epochs", 0, "train.epochs"),
        ("train.hidden_units", [0], "train.hidden_units[0]"),
        ("privacy.clip_norm", 0, "privacy.clip_norm"),
        ("epsilon_grid", [-1], "epsilon_grid[0]"),
        ("delta", 1.0, "delta"),
        ("seed", -1, "seed"),
    ])
    def test_bad_number_exits_two_before_writing(self, tmp_path, capsys, where, value, named):
        # json reads NaN, Infinity and literals such as 1e999 as floats, and
        # an integer literal of any length as an int, which float() overflows.
        doc = synthetic_doc(privacy={"clip_norm": 1.0})
        doc["data"]["label_rule"] = {"kind": "halfspace", "weights": [1.0, -1.0], "bias": 0.0}
        *parents, key = (int(k) if k.isdigit() else k for k in where.split("."))
        target = doc
        for k in parents:
            target = target[k]
        target[key] = value
        path = write_doc(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"config error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"train": {"hidden_units": [8], "epochs": 5, "batch_size": 41}},
         "train.batch_size: 41 exceeds n_members 40"),
        ({"experiment": "iid", "attacks": ["average_threshold"]},
         "epsilon_grid: game experiment 'iid' needs exactly one epsilon, got 2"),
        ({"experiment": "strong", "epsilon_grid": [1.0], "attacks": ["optimal_threshold"]},
         "attacks: must be ['average_threshold'] for game experiment 'strong', "
         "got ['optimal_threshold']"),
    ])
    def test_entry_rule_exits_two_before_writing(self, tmp_path, capsys, overrides, named):
        path = write_doc(tmp_path, synthetic_doc(**overrides))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"config error: {named}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_field_resolve_fills_has_a_config_path(self, monkeypatch):
        # A dataclass names the field it refuses; resolve must know the
        # config path of each field it fills, or the error would name a
        # bare Python name.
        classes = (nn.TrainConfig, experiments.ExperimentConfig, GaussianComponent)
        filled = {cls: set() for cls in classes}
        for cls in classes:

            def init(self, _cls=cls, _init=cls.__init__, **kwargs):
                filled[_cls].update(kwargs)
                _init(self, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        config.resolve(synthetic_doc())
        for cls in classes:
            names = {f.name for f in dataclasses.fields(cls)}
            paths = config._CONFIG_PATHS[cls]
            assert set(paths) <= names  # no path for a field that is gone
            assert filled[cls], cls.__name__
            for name in names & filled[cls]:
                assert name in paths, f"{cls.__name__}.{name} has no config path"

    def test_wrong_attribute_name_rejected(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(0)
        csv_path = tmp_path / "d.csv"
        rows = [
            f"{rng.normal():.3f},{'a' if i % 2 else 'b'},{'x' if i % 3 else 'y'}"
            for i in range(300)
        ]
        csv_path.write_text("v,grp,out\n" + "\n".join(rows) + "\n")
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps({
            "columns": [
                {"name": "v", "kind": "numeric"},
                {"name": "grp", "kind": "categorical", "role": "split-attribute"},
                {"name": "out", "kind": "categorical", "role": "label"},
            ],
            "label_classes": 2,
        }))
        doc = synthetic_doc(
            n_members=30,
            n_nonmembers=30,
            train={"hidden_units": [8], "epochs": 5, "batch_size": 30},
            data={"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
            split={"kind": "attribute_bias", "attribute": "gender", "value": "a", "p": 0.5},
        )
        path = write_doc(tmp_path, doc)
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "grp" in capsys.readouterr().err

    def test_realized_epsilon_matches_account_command(self, tmp_path):
        doc = synthetic_doc(epsilon_grid=[1.0], repetitions=1)
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "out"
        run_cli("run", "--config", str(path), "--out", str(out_dir))
        row = read_csv(out_dir / "results.csv")[0]
        sigma = float(row["sigma"])
        q = 40 / 40  # batch >= n, so the sampling rate caps at 1
        steps = 5
        _, out = run_cli(
            "account", "--q", str(q), "--sigma", str(sigma), "--steps", str(steps),
            "--delta", "1e-5",
        )
        assert json.loads(out)["epsilon"] == pytest.approx(float(row["realized_epsilon"]))
        noise = json.loads((out_dir / "manifest.json").read_text())["summary"]["noise"]
        assert noise["1.0"]["order"] == json.loads(out)["order"]

    def test_traces_artifact(self, tmp_path):
        doc = synthetic_doc(emit_traces=True, repetitions=1, epsilon_grid=[1.0])
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "out"
        code, _ = run_cli("run", "--config", str(path), "--out", str(out_dir))
        assert code == 0
        rows = read_csv(out_dir / "traces.csv")
        # 80 eval samples x 2 attacks x 2 scenarios
        assert len(rows) == 80 * 2 * 2
        assert {r["attack_name"] for r in rows} == {"average_threshold", "optimal_threshold"}

    def test_divergence_names_repetition_scenario_and_epsilon(self, tmp_path, capsys):
        doc = synthetic_doc(epsilon_grid=["inf"], repetitions=1)
        doc["train"]["learning_rate"] = 1e300
        path = write_doc(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "error [campaign]: rep 0 non-IID eps=inf: non-finite training loss" in err

    @pytest.mark.parametrize("grid,cell", [
        ([1.0, "inf"], "eps=1.0: non-finite per-example gradient norm nan at step 1"),
        (["inf", 1.0], "eps=inf: non-finite training loss nan at step 1"),
    ])
    def test_divergence_names_the_first_cell_in_grid_order(self, tmp_path, capsys, grid, cell):
        doc = synthetic_doc(epsilon_grid=grid, repetitions=1)
        doc["train"]["learning_rate"] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc)),
                              "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"error [campaign]: rep 0 non-IID {cell}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,named", [
        ("epsilon_grid", [1.0, 1.0, "inf"], "epsilon_grid[1]"),
        ("epsilon_grid", [1, "inf", 1.0], "epsilon_grid[2]"),
        ("epsilon_grid", ["inf", 2.0, "Infinity"], "epsilon_grid[2]"),
        ("attacks", ["average_threshold", "average_threshold"], "attacks[1]"),
    ])
    def test_repeated_entry_exits_two_naming_it(self, tmp_path, capsys, field, value, named):
        path = write_doc(tmp_path, synthetic_doc(**{field: value}))
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # sha256 of the three CSVs of a campaign at three finite epsilons plus
    # inf, captured with the cells trained one at a time: grouping a
    # repetition's cells must not move a byte.
    PINNED_TRACED_CAMPAIGN = {
        "results.csv": "0536c3a640b2d8ff068e1daf60147ddf6efaf66e415af83d7fe8af2200580cbe",
        "summary.csv": "c3a9c1f2b36abc1257f449fdbd4fdb4429787114b8687617c9b38a95ee4a2d52",
        "traces.csv": "6d61113746d4b524efca7fc501d25b04ac12b2f4913138bc925fd89a2bc02863",
    }

    def test_traced_campaign_bytes_pinned(self, tmp_path):
        doc = synthetic_doc(
            epsilon_grid=[0.5, 1.0, 2.0, "inf"], emit_traces=True,
            attacks=["average_threshold", "optimal_threshold", "shadow"],
            train={"hidden_units": [8], "epochs": 5, "batch_size": 20},
        )
        out = tmp_path / "o"
        code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc)), "--out", str(out))
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 2 * 2 * 4 * 3  # reps x scenarios x eps x attacks, none skipped
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.PINNED_TRACED_CAMPAIGN}
        assert digests == self.PINNED_TRACED_CAMPAIGN

    def test_game_experiment(self, tmp_path):
        doc = synthetic_doc(
            experiment="alt", epsilon_grid=["inf"], repetitions=8,
            attacks=["average_threshold"], n_members=30,
        )
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "out"
        code, _ = run_cli("run", "--config", str(path), "--out", str(out_dir))
        assert code == 0
        rows = read_csv(out_dir / "games.csv")
        assert len(rows) == 8
        assert set(r["success"] for r in rows) <= {"0", "1"}
        timings = json.loads((out_dir / "manifest.json").read_text())["timings_seconds"]
        assert set(timings) == {"data", "games", "write"}

    def test_game_experiment_rejects_emit_traces(self, tmp_path, capsys):
        for experiment in config.GAME_KINDS:
            doc = synthetic_doc(experiment=experiment, epsilon_grid=["inf"],
                                attacks=["average_threshold"], emit_traces=True)
            path = write_doc(tmp_path, doc)
            out_dir = tmp_path / experiment
            code, _ = run_cli("run", "--config", str(path), "--out", str(out_dir))
            assert code == 2
            assert "config error: emit_traces:" in capsys.readouterr().err
            assert not out_dir.exists()

    def test_order_at_grid_edge_is_noted(self, tmp_path):
        # q = 1 and 5 steps: eps = 0.05 is best served past the largest order
        # accounted, eps = 1 well inside the grid.
        doc = synthetic_doc(epsilon_grid=[0.05, 1.0], repetitions=1)
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "out"
        code, _ = run_cli("run", "--config", str(path), "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        noise = manifest["summary"]["noise"]
        top = max(dp.DEFAULT_ORDERS)
        assert noise["0.05"]["order"] == top
        assert noise["1.0"]["order"] < top
        edge = [n for n in manifest["notes"] if "largest order accounted" in n]
        assert edge == [
            "eps=0.05: RDP order 256.0 is the largest order accounted; "
            "a wider order grid may need less noise"
        ]
        # the benchmark counts skipped shadow attacks by this pattern
        assert not re.match(r"^rep \d+ \S+ eps=\S+: shadow attack skipped", edge[0])

    def test_game_experiment_rejects_multi_epsilon(self, tmp_path, capsys):
        doc = synthetic_doc(experiment="iid", epsilon_grid=[1.0, "inf"],
                            attacks=["average_threshold"])
        path = write_doc(tmp_path, doc)
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "exactly one epsilon" in capsys.readouterr().err


class TestSplitCommand:
    def test_mixture_dry_run(self, tmp_path):
        path = write_doc(tmp_path, synthetic_doc())
        code, out = run_cli("split", "--config", str(path))
        assert code == 0
        info = json.loads(out)
        assert info["pool_sizes"] == [120, 120]
        assert info["k_member"] == 0


class TestCsvPipeline:
    @pytest.fixture
    def csv_config(self, tmp_path):
        rng_rows = []
        import numpy as np

        rng = np.random.default_rng(0)
        for i in range(260):
            group = "east" if i % 2 == 0 else "west"
            x = rng.normal(loc=0.0 if group == "east" else 2.0)
            label = "hi" if (x > 1.0) != (i % 5 == 0) else "lo"
            rng_rows.append(f"{x:.4f},{rng.normal():.4f},{group},{label}")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("x1,x2,region,outcome\n" + "\n".join(rng_rows) + "\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({
            "columns": [
                {"name": "x1", "kind": "numeric"},
                {"name": "x2", "kind": "numeric"},
                {"name": "region", "kind": "categorical", "role": "split-attribute"},
                {"name": "outcome", "kind": "categorical", "role": "label"},
            ],
            "label_classes": 2,
        }))
        doc = synthetic_doc(
            n_members=50, n_nonmembers=50,
            epsilon_grid=["inf"], repetitions=2,
            data={"kind": "csv", "path": str(csv_path), "schema": str(schema_path)},
            split={"kind": "source", "member_value": "east"},
        )
        return write_doc(tmp_path, doc)

    def test_source_split_run(self, csv_config, tmp_path):
        out_dir = tmp_path / "out"
        code, _ = run_cli("run", "--config", str(csv_config), "--out", str(out_dir))
        assert code == 0
        rows = read_csv(out_dir / "results.csv")
        assert len(rows) == 2 * 1 * 2 * 2

    def test_attribute_bias_builder_run(self, csv_config, tmp_path):
        doc = json.loads(csv_config.read_text())
        doc["split"] = {"kind": "attribute_bias", "value": "east", "p": 0.8}
        doc["n_members"] = 40
        doc["n_nonmembers"] = 40
        path = write_doc(tmp_path, doc, "bias.json")
        out_dir = tmp_path / "out-bias"
        code, _ = run_cli("run", "--config", str(path), "--out", str(out_dir))
        assert code == 0
        rows = read_csv(out_dir / "results.csv")
        dependent = [r for r in rows if r["scenario"] == "non-IID"]
        assert all(r["validation_acc"] != "" for r in dependent)

    def test_attribute_bias_shadow_parallel_matches_serial(self, csv_config, tmp_path):
        # Pool builders ship the whole dataset (arrays plus an object-dtype
        # attribute column) to the worker processes.
        doc = json.loads(csv_config.read_text())
        doc["split"] = {"kind": "attribute_bias", "value": "east", "p": 0.8}
        doc.update(n_members=40, n_nonmembers=40, attacks=["average_threshold", "shadow"],
                   emit_traces=True)
        path = write_doc(tmp_path, doc, "bias-shadow.json")
        for jobs in ("1", "2"):
            code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / jobs),
                              "--jobs", jobs)
            assert code == 0
        for name in ("results.csv", "traces.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        serial = (tmp_path / "1" / "results.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(serial.decode())))
        assert sum(r["attack"] == "shadow" for r in rows) == 2 * 2
        traces = read_csv(tmp_path / "1" / "traces.csv")
        assert {r["repetition"] for r in traces} == {"0", "1"}

    # sha256 of results.csv and summary.csv of the campaign below, captured
    # with the one-model-at-a-time trainer: how training is grouped must not
    # move a byte.
    PINNED_SHADOW_CAMPAIGN = {
        "results.csv": "595b920983c299f90df30c253e138d038f82f4618726e08552d4770db2a0e2cf",
        "summary.csv": "e63f47cbf4545f400638a486ae6a525641aa612faf7734a4be20b1a5924eda95",
    }

    def test_shadow_campaign_bytes_pinned(self, csv_config, tmp_path):
        doc = json.loads(csv_config.read_text())
        doc.update(split={"kind": "attribute_bias", "value": "east", "p": 0.8},
                   n_members=40, n_nonmembers=40, epsilon_grid=[1.0, "inf"], repetitions=2,
                   attacks=["average_threshold", "optimal_threshold", "shadow"])
        out = tmp_path / "o"
        code, _ = run_cli("run", "--config", str(write_doc(tmp_path, doc, "pinned.json")),
                          "--out", str(out))
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert sum(r["attack"] == "shadow" for r in rows) == 2 * 2 * 2  # none skipped
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.PINNED_SHADOW_CAMPAIGN}
        assert digests == self.PINNED_SHADOW_CAMPAIGN

    def test_split_dry_run_reports_builder_note(self, csv_config, tmp_path):
        doc = json.loads(csv_config.read_text())
        doc["split"] = {"kind": "attribute_bias", "value": "east", "p": 0.8}
        doc["n_members"] = 40
        path = write_doc(tmp_path, doc, "bias2.json")
        code, out = run_cli("split", "--config", str(path))
        assert code == 0
        info = json.loads(out)
        assert info["pool_sizes"] == [40, 40]
        assert "regenerated" in info["note"]

    def test_split_dry_run_pool_too_small_is_a_clean_runtime_error(
        self, csv_config, tmp_path, capsys
    ):
        doc = json.loads(csv_config.read_text())
        doc["split"] = {"kind": "attribute_bias", "value": "east", "p": 0.8}
        doc.update(n_members=200, n_nonmembers=200)  # 160 "east" members of 130
        path = write_doc(tmp_path, doc, "bias-big.json")
        code, out = run_cli("split", "--config", str(path))
        assert code == 1 and out == ""
        assert "error [data]:" in capsys.readouterr().err


class TestDigest:
    def test_stable_under_key_reordering(self):
        doc = synthetic_doc()
        a = config.resolve(doc).digest
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        b = config.resolve(reordered).digest
        assert a == b

    def test_changes_with_semantic_field(self):
        a = config.resolve(synthetic_doc()).digest
        b = config.resolve(synthetic_doc(seed=4)).digest
        assert a != b

    def test_seed_override_feeds_digest(self):
        doc = synthetic_doc()
        assert config.resolve(doc).digest != config.resolve(doc, seed_override=99).digest

    def test_name_does_not_feed_digest(self):
        assert (
            config.resolve(synthetic_doc(name="a")).digest
            == config.resolve(synthetic_doc(name="b")).digest
        )

    def test_profile_resolution(self):
        doc = synthetic_doc(n_members=250, n_nonmembers=250)
        del doc["train"]
        resolved = config.resolve(doc, profile_override="desk")
        assert resolved.cfg.hidden_units == (32, 32)
        assert resolved.cfg.train.epochs == 30
        paper = config.resolve(
            synthetic_doc(n_members=250, n_nonmembers=250, train={}, profile="paper")
        )
        assert paper.cfg.hidden_units == (256, 256)
        assert paper.cfg.train.epochs == 100

    def test_batch_size_above_members_rejected(self, tmp_path, capsys):
        doc = synthetic_doc(n_members=30, n_nonmembers=30)
        doc["train"]["batch_size"] = 50
        path = write_doc(tmp_path, doc)
        code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "train.batch_size" in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(mialab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, mialab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_run_start_path_leaves_unused_modules_unloaded(tmp_path):
    """Importing the CLI loads none of these, and a one-repetition run
    finishes without scipy.special (only a t interval needs it)."""
    src = str(Path(mialab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    config_path = write_doc(tmp_path, synthetic_doc(repetitions=1))
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "o")]
    code = (
        "import sys, mialab.cli\n"
        "unused = ('scipy.special', 'scipy.stats', 'concurrent.futures.process',"
        " 'importlib.metadata')\n"
        "print([m for m in unused if m in sys.modules])\n"
        f"code = mialab.cli.main({argv!r})\n"
        "print(code, 'scipy.special' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 False"


def test_cluster_split_run_leaves_numpy_ma_unloaded(tmp_path):
    """A cluster-split run with the optimal-threshold attack never imports
    numpy.ma, which a plain np.unique call would load."""
    src = str(Path(mialab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    doc = synthetic_doc(repetitions=1, split={"kind": "cluster"})
    assert "optimal_threshold" in doc["attacks"]
    config_path = write_doc(tmp_path, doc)
    argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "o")]
    code = (
        "import sys, mialab.cli\n"
        f"code = mialab.cli.main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "0 False"


def _run_cli_in_fresh_interpreter(tmp_path):
    """Run `mialab run` on a 2-repetition config in a new interpreter, so
    no test has loaded scipy first; return its last stdout line (the exit
    code and the scipy modules loaded after main returned) and the output
    directory."""
    src = str(Path(mialab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    config_path = write_doc(tmp_path, synthetic_doc(repetitions=2))
    out_dir = tmp_path / "o"
    argv = ["run", "--config", str(config_path), "--out", str(out_dir)]
    code = (
        "import sys, mialab.cli\n"
        f"code = mialab.cli.main({argv!r})\n"
        "print(code, [m for m in ('scipy', 'scipy.special') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1], out_dir


def test_multi_repetition_run_leaves_scipy_unloaded(tmp_path):
    """summary.csv's t intervals come from a frozen table, so a run with
    repetitions to summarize still loads no scipy."""
    last_line, _ = _run_cli_in_fresh_interpreter(tmp_path)
    assert last_line == "0 []"


def test_manifest_omits_scipy_version_when_no_scipy_is_loaded(tmp_path):
    last_line, out_dir = _run_cli_in_fresh_interpreter(tmp_path)
    assert last_line == "0 []"
    versions = json.loads((out_dir / "manifest.json").read_text())["versions"]
    assert versions == {
        "mialab": mialab.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def test_manifest_records_scipy_version_when_scipy_is_loaded(tmp_path):
    import scipy

    path = write_doc(tmp_path, synthetic_doc(repetitions=2))
    code, _ = run_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 0
    versions = json.loads((tmp_path / "o" / "manifest.json").read_text())["versions"]
    assert versions["scipy"] == scipy.__version__
    assert {"mialab", "python", "numpy"} <= set(versions)
