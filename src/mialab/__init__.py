"""Membership-inference experiment lab.

Pieces: tabular preprocessing into Rows, the one array store of samples
(dataio), dependency-inducing member/non-member pools (splits, synthetic),
a ReLU classifier with optional DP-Adam training (nn), privacy accounting
(dp), black-box attacks (attacks), advantage bounds (bounds), membership
games whose challenge is a row of a pool and the batch campaign
(experiments), and a config-driven CLI (cli).
"""

__version__ = "0.1.0"  # the one version source; pyproject.toml reads it

from .attacks import (
    ShadowEnsemble,
    advantage,
    average_threshold,
    optimal_threshold,
    shadow_attack,
    train_shadow_ensemble,
)
from .bounds import bound_erlingsson, bound_new, bound_yeom, tradeoff_feasible
from .dataio import Column, Dataset, Rows, Schema, load_csv, preprocess
from .dp import AccountResult, PrivacyParams, account, calibrate_sigma, noisy_mean
from .errors import (
    AccountingError,
    CalibrationError,
    ConfigError,
    CsvParseError,
    MialabError,
    PreprocessError,
    SchemaError,
    ShadowPoolTooSmall,
    SplitError,
    TrainingDiverged,
)
from .experiments import (
    CampaignResult,
    ExperimentConfig,
    batch_mm_campaign,
    exp_alt,
    exp_iid,
    exp_mm,
    exp_strong,
    run_games,
    strong_challenge,
)
from .nn import (
    MlpModel,
    TrainConfig,
    accuracy,
    forward,
    init_model,
    loglosses,
    train,
)
from .splits import (
    KmeansResult,
    MixturePools,
    SplitDraw,
    attribute_bias_pools,
    cluster_split,
    draw,
    iid_counterfactual,
    kmeans,
    source_split,
)
from .synthetic import GaussianComponent, halfspace_label, mixture_dataset, synthetic_mixture

__all__ = [name for name in dir() if not name.startswith("_")]
