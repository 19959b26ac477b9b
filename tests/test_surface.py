"""The package's public names. Adding or removing one is a deliberate act:
edit PUBLIC_NAMES here, and README.md and CHANGES.md with it."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import mialab
from mialab import experiments, nn

PUBLIC_NAMES = [
    # dataio
    "Column", "Dataset", "Rows", "Schema", "load_csv", "preprocess",
    # splits and synthetic
    "KmeansResult", "MixturePools", "SplitDraw", "attribute_bias_pools", "cluster_split",
    "draw", "iid_counterfactual", "kmeans", "source_split",
    "GaussianComponent", "halfspace_label", "mixture_dataset", "synthetic_mixture",
    # nn
    "MlpModel", "TrainConfig", "accuracy", "forward", "init_model", "loglosses", "train",
    # dp
    "AccountResult", "PrivacyParams", "account", "calibrate_sigma", "noisy_mean",
    # attacks and bounds
    "ShadowEnsemble", "advantage", "average_threshold", "optimal_threshold",
    "shadow_attack", "train_shadow_ensemble",
    "bound_erlingsson", "bound_new", "bound_yeom", "tradeoff_feasible",
    # experiments
    "CampaignResult", "ExperimentConfig", "batch_mm_campaign", "exp_alt", "exp_iid",
    "exp_mm", "exp_strong", "run_games", "strong_challenge",
    # errors
    "AccountingError", "CalibrationError", "ConfigError", "CsvParseError", "MialabError",
    "PreprocessError", "SchemaError", "ShadowPoolTooSmall", "SplitError", "TrainingDiverged",
    # submodules that importing the package binds
    "attacks", "bounds", "dataio", "dp", "errors", "experiments", "nn", "rngs", "splits",
    "synthetic",
]


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(mialab.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES)


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/traced_cli.py wraps these functions by name and reads some of
    # their arguments and results; one that is gone or renamed would fail
    # every traced benchmark run. The tracer is read, not imported, since
    # importing it starts its clock and imports the CLI.
    source = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert len(pairs) >= 20
    for module, attribute in pairs:
        assert module.startswith("mialab."), module
        value = getattr(importlib.import_module(module), attribute, None)
        assert callable(value), f"{module}.{attribute}"
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # _train_info reads nn.train's arguments: bound.arguments["cfg"],
    # bound.arguments.get("privacy")
    arguments = {
        node.args[0].value if isinstance(node, ast.Call) else node.slice.value
        for node in ast.walk(functions["_train_info"])
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "bound.arguments"
        or isinstance(node, ast.Call) and ast.unparse(node.func) == "bound.arguments.get"
    }
    assert arguments == {"members", "cfg", "privacy"}
    assert arguments <= set(inspect.signature(nn.train).parameters)
    # _cells_info reads the campaign result's rows and three fields of each
    attributes = {
        (ast.unparse(node.value), node.attr) for node in ast.walk(functions["_cells_info"])
        if isinstance(node, ast.Attribute)
    }
    assert attributes == {("out", "rows"), ("r", "repetition"), ("r", "scenario"), ("r", "epsilon")}
    owners = {"out": experiments.CampaignResult, "r": experiments.CampaignRow}
    for owner, attribute in attributes:
        assert attribute in {f.name for f in dataclasses.fields(owners[owner])}, attribute
