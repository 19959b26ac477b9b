"""The package's public names. Adding or removing one is a deliberate act:
edit PUBLIC_NAMES here, and README.md and CHANGES.md with it."""

import ast
import importlib
from pathlib import Path

import mialab

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
    "AttackOutcome", "ShadowEnsemble", "advantage", "average_threshold", "optimal_threshold",
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
    # perfbench/traced_cli.py wraps these functions by name; one that is gone
    # or renamed would fail every traced benchmark run. The tracer is read,
    # not imported, since importing it starts its clock and imports the CLI.
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
