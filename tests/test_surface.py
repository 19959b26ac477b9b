"""The package's public names. Adding or removing one is a deliberate act:
edit PUBLIC_NAMES here, and README.md and CHANGES.md with it."""

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
