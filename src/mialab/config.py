"""JSON experiment configs: shape checks, default resolution, stable
digests, and materialization into datasets and pools.

The dataclasses a config fills (TrainConfig, ExperimentConfig,
GaussianComponent, MixturePools), halfspace_label and mixture_samples own
their value rules, types included: resolve and materialize re-raise a
refusal as a ConfigError at its config path, and the digest reads the
floats the dataclasses stored. config checks the JSON's shape and keys,
so a typo cannot silently change an experiment, and with the same rules
the values no dataclass holds (split.p, split.k, data.preprocess_seed).
resolve builds a synthetic mixture's components and label rule once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import experiments, nn, synthetic
from .dataio import Rows, Schema, load_csv, preprocess
from .errors import ConfigError, _at_paths, _integer, _number
from .experiments import GAME_KINDS
from .splits import MixturePools, attribute_bias_pools, cluster_split, source_split
from .synthetic import GaussianComponent, halfspace_label, mixture_dataset, synthetic_mixture

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = ("batch_mm", *GAME_KINDS)

DEFAULT_EPSILON_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, math.inf)

PROFILES = {
    "paper": {"hidden_units": (256, 256), "epochs": 100},
    "desk": {"hidden_units": (32, 32), "epochs": 30},
}

_TOP_KEYS = {
    "schema_version", "name", "experiment", "n_members", "n_nonmembers",
    "epsilon_grid", "delta", "repetitions", "seed", "attacks", "profile",
    "train", "privacy", "data", "split", "emit_traces",
}
_TRAIN_KEYS = {
    "hidden_units", "epochs", "batch_size", "learning_rate", "l2",
    "adam_betas", "adam_epsilon",
}
_PRIVACY_KEYS = {"clip_norm"}
_DATA_CSV_KEYS = {"kind", "path", "schema", "preprocess_seed"}
_DATA_SYNTH_KEYS = {"kind", "components", "n_per_component", "label_rule"}
_COMPONENT_KEYS = {"mean", "cov", "label"}
_LABEL_RULE_KEYS = {"kind", "weights", "bias"}
_SPLIT_KEYS = {
    "cluster": {"kind", "k", "k_member"},
    "attribute_bias": {"kind", "attribute", "value", "p"},
    "source": {"kind", "member_value", "k_member"},
    "mixture": {"kind", "k_member"},
}
SPLIT_KINDS = tuple(_SPLIT_KEYS)


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(where, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(where, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}" if where else key, "required key is missing")
    return obj[key]


def parse_epsilon(value, field: str):
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(field, f"expected a positive number or 'inf', got {value!r}")
    return value


# The config path of each dataclass field that resolve fills, and of the
# arguments of halfspace_label and mixture_samples. A refusal names its
# field, plus an index or subfield (adam_betas[0], train.batch_size);
# resolve and materialize re-raise it as a ConfigError at the path, {} a
# component's index.
_CONFIG_PATHS = {
    nn.TrainConfig: {
        "epochs": "train.epochs", "batch_size": "train.batch_size",
        "learning_rate": "train.learning_rate", "l2_coefficient": "train.l2",
        "adam_betas": "train.adam_betas", "adam_epsilon": "train.adam_epsilon",
    },
    experiments.ExperimentConfig: {
        "n_members": "n_members", "n_nonmembers": "n_nonmembers", "epsilon_grid": "epsilon_grid",
        "train": "train", "hidden_units": "train.hidden_units", "delta": "delta",
        "repetitions": "repetitions", "attack_names": "attacks", "seed": "seed",
        "clip_norm": "privacy.clip_norm",
    },
    GaussianComponent: {f: f"data.components[{{}}].{f}" for f in ("mean", "cov", "label")},
    halfspace_label: {"weights": "data.label_rule.weights", "bias": "data.label_rule.bias"},
    MixturePools: {"k_member": "split.k_member"},
    synthetic.mixture_samples: {
        "n_per_component": "data.n_per_component", "components": "data.components",
    },
}


def epsilon_json(eps: float):
    return "inf" if math.isinf(eps) else eps


@dataclass(frozen=True)
class ResolvedConfig:
    """A checked config. components and label_rule are the synthetic
    mixture's, built once by resolve; a csv config has () and None."""

    name: str
    experiment: str
    cfg: experiments.ExperimentConfig
    data_spec: dict
    split_spec: "dict | None"
    emit_traces: bool
    canonical: dict
    components: "tuple[GaussianComponent, ...]"
    label_rule: "Callable | None"

    @property
    def digest(self) -> str:
        blob = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _resolve_train(doc: dict, profile: "str | None") -> tuple[nn.TrainConfig, tuple, dict]:
    block = doc.get("train", {})
    _check_keys(block, _TRAIN_KEYS, "train")
    prof = PROFILES.get(profile, {})
    hidden = block.get("hidden_units", prof.get("hidden_units", (256, 256)))
    if not isinstance(hidden, (list, tuple)):
        raise ConfigError("train.hidden_units", f"expected a list of integers, got {hidden!r}")
    with _at_paths(_CONFIG_PATHS[nn.TrainConfig]):
        tc = nn.TrainConfig(
            epochs=block.get("epochs", prof.get("epochs", 100)),
            batch_size=block.get("batch_size", 200),
            learning_rate=block.get("learning_rate", 1e-2),
            l2_coefficient=block.get("l2", 1e-5),
            adam_betas=block.get("adam_betas", (0.9, 0.999)),
            adam_epsilon=block.get("adam_epsilon", 1e-8),
        )
    canonical = {
        "hidden_units": list(hidden),
        "epochs": tc.epochs,
        "batch_size": tc.batch_size,
        "learning_rate": tc.learning_rate,
        "l2": tc.l2_coefficient,
        "adam_betas": list(tc.adam_betas),
        "adam_epsilon": tc.adam_epsilon,
    }
    return tc, tuple(hidden), canonical


def _validate_data(doc: dict) -> tuple[dict, tuple, "Callable | None"]:
    """The data block, and the mixture components and label rule it
    builds (none for csv data)."""
    data = _need(doc, "data", "")
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("data.kind", "required key is missing")
    kind = data["kind"]
    components, label_rule = [], None
    if kind == "csv":
        _check_keys(data, _DATA_CSV_KEYS, "data")
        for key in ("path", "schema"):
            if not isinstance(_need(data, key, "data"), str):
                raise ConfigError(f"data.{key}", f"expected a file path, got {data[key]!r}")
        if "preprocess_seed" in data:
            _integer("data.preprocess_seed", data["preprocess_seed"], 0, ConfigError)
    elif kind == "synthetic_mixture":
        _check_keys(data, _DATA_SYNTH_KEYS, "data")
        comps = _need(data, "components", "data")
        if not isinstance(comps, list) or not comps:
            raise ConfigError("data.components", "expected a non-empty list")
        for i, comp in enumerate(comps):
            _check_keys(comp, _COMPONENT_KEYS, f"data.components[{i}]")
            if not isinstance(_need(comp, "mean", f"data.components[{i}]"), list):
                raise ConfigError(f"data.components[{i}].mean", "expected a list")
            components.append(_component(comp, i))
        _need(data, "n_per_component", "data")
        if "label_rule" in data:
            rule = data["label_rule"]
            _check_keys(rule, _LABEL_RULE_KEYS, "data.label_rule")
            if rule.get("kind") != "halfspace":
                raise ConfigError("data.label_rule.kind", f"unknown rule {rule.get('kind')!r}")
            weights = _need(rule, "weights", "data.label_rule")
            dim = len(comps[0]["mean"])
            if not isinstance(weights, list) or len(weights) != dim:
                raise ConfigError(
                    "data.label_rule.weights", f"expected a list of {dim} numbers, got {weights!r}"
                )
            label_rule = _label_rule(rule)
    else:
        raise ConfigError("data.kind", f"unknown kind {kind!r}")
    return data, tuple(components), label_rule


def _validate_split(doc: dict, data_kind: str) -> "dict | None":
    split = doc.get("split")
    if split is None:
        return None
    if not isinstance(split, dict) or "kind" not in split:
        raise ConfigError("split.kind", "required key is missing")
    kind = split["kind"]
    if kind not in SPLIT_KINDS:
        raise ConfigError("split.kind", f"unknown kind {kind!r}; allowed: {list(SPLIT_KINDS)}")
    _check_keys(split, _SPLIT_KEYS[kind], "split")
    if kind == "attribute_bias":
        _need(split, "value", "split")
        p = _number("split.p", _need(split, "p", "split"), ConfigError)
        if not 0 <= p <= 1:
            raise ConfigError("split.p", f"must be in [0, 1], got {p}")
    elif kind == "source":
        _need(split, "member_value", "split")
    elif kind == "cluster" and "k" in split:
        _integer("split.k", split["k"], 2, ConfigError)
    elif kind == "mixture" and data_kind != "synthetic_mixture":
        raise ConfigError("split.kind", "'mixture' needs synthetic_mixture data")
    return split


def resolve(
    doc: dict,
    profile_override: "str | None" = None,
    seed_override: "int | None" = None,
) -> ResolvedConfig:
    """Validate a config document and apply defaults and overrides."""
    _check_keys(doc, _TOP_KEYS, "config")
    version = _need(doc, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ConfigError("name", f"expected a string, got {name!r}")
    experiment = doc.get("experiment", "batch_mm")
    if experiment not in EXPERIMENT_KINDS:
        raise ConfigError(
            "experiment", f"unknown kind {experiment!r}; allowed: {list(EXPERIMENT_KINDS)}"
        )
    profile = profile_override if profile_override is not None else doc.get("profile")
    if profile is not None and profile not in PROFILES:
        raise ConfigError("profile", f"unknown profile {profile!r}; allowed: {list(PROFILES)}")
    n_members = _need(doc, "n_members", "")
    n_nonmembers = doc.get("n_nonmembers", n_members)
    grid_raw = doc.get("epsilon_grid", [epsilon_json(e) for e in DEFAULT_EPSILON_GRID])
    if not isinstance(grid_raw, list):
        raise ConfigError("epsilon_grid", "expected a list")
    grid = tuple(parse_epsilon(v, f"epsilon_grid[{i}]") for i, v in enumerate(grid_raw))
    repetitions = doc.get("repetitions", 1)
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    attack_names = doc.get("attacks", ["average_threshold", "optimal_threshold"])
    if not isinstance(attack_names, list):
        raise ConfigError("attacks", "expected a list")
    privacy_block = doc.get("privacy", {})
    _check_keys(privacy_block, _PRIVACY_KEYS, "privacy")
    train_cfg, hidden_units, train_canonical = _resolve_train(doc, profile)
    with _at_paths(_CONFIG_PATHS[experiments.ExperimentConfig]):
        cfg = experiments.ExperimentConfig(
            n_members=n_members,
            n_nonmembers=n_nonmembers,
            epsilon_grid=grid,
            train=train_cfg,
            hidden_units=hidden_units,
            delta=doc.get("delta", 1e-5),
            repetitions=repetitions,
            attack_names=tuple(attack_names),
            clip_norm=privacy_block.get("clip_norm", 1.0),
            seed=seed,
        )
        experiments.check_runnable(experiment, cfg)
    data_spec, components, label_rule = _validate_data(doc)
    split_spec = _validate_split(doc, data_spec["kind"])
    if experiment in ("batch_mm", "mm", "strong"):
        if split_spec is None and data_spec["kind"] != "synthetic_mixture":
            raise ConfigError("split", f"experiment {experiment!r} needs a split block")
        if split_spec is None:
            split_spec = {"kind": "mixture"}
    if experiment in ("mm", "strong") and split_spec["kind"] == "attribute_bias":
        raise ConfigError("split.kind", f"game experiment {experiment!r} needs fixed pools "
                          "(cluster, source, or mixture)")
    emit_traces = doc.get("emit_traces", False)
    if not isinstance(emit_traces, bool):
        raise ConfigError("emit_traces", f"expected true/false, got {emit_traces!r}")
    if emit_traces and experiment in GAME_KINDS:
        raise ConfigError(
            "emit_traces", f"traces are written by batch_mm campaigns only, not {experiment!r}"
        )
    canonical = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "n_members": n_members,
        "n_nonmembers": n_nonmembers,
        "epsilon_grid": [epsilon_json(e) for e in cfg.epsilon_grid],
        "delta": cfg.delta,
        "repetitions": repetitions,
        "seed": seed,
        "attacks": list(attack_names),
        "privacy": {"clip_norm": cfg.clip_norm},
        "train": train_canonical,
        "data": data_spec,
        "split": split_spec,
        "emit_traces": emit_traces,
    }
    return ResolvedConfig(
        name=name,
        experiment=experiment,
        cfg=cfg,
        data_spec=data_spec,
        split_spec=split_spec,
        emit_traces=emit_traces,
        canonical=canonical,
        components=components,
        label_rule=label_rule,
    )


def load_config(path: "str | Path") -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("(file)", f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("(file)", "top-level JSON value must be an object")
    return doc


def _component(spec: dict, i: int) -> GaussianComponent:
    """Component i of a synthetic_mixture data block; a value it refuses
    raises a ConfigError at its config path."""
    with _at_paths(_CONFIG_PATHS[GaussianComponent], i):
        return GaussianComponent(
            mean=tuple(spec["mean"]),
            cov=spec.get("cov", 1.0),
            label=spec.get("label"),
        )


def _label_rule(spec: dict) -> Callable:
    """The halfspace rule of a label_rule block; a weight or bias it
    refuses raises a ConfigError at its config path."""
    with _at_paths(_CONFIG_PATHS[halfspace_label]):
        return halfspace_label(spec["weights"], spec.get("bias", 0.0))


@dataclass(frozen=True)
class Materialized:
    """pools are the split's fixed pools, or for an attribute-bias split a
    callable from a seed to pools, or None without a split; union_pool is
    the data before the split."""

    pools: "MixturePools | Callable[[int], MixturePools] | None"
    union_pool: Rows


def materialize(resolved: ResolvedConfig) -> Materialized:
    """Produce the pools and the union pool a config describes."""
    cfg = resolved.cfg
    data_spec = resolved.data_spec
    split_spec = resolved.split_spec or {}
    kind = split_spec.get("kind")
    dataset = None
    pools = None
    if data_spec["kind"] == "csv":
        schema = Schema.from_json_file(data_spec["schema"])
        raw = load_csv(data_spec["path"], schema)
        dataset = preprocess(raw, schema, data_spec.get("preprocess_seed", 0))
    else:
        mixture = (resolved.components, data_spec["n_per_component"], cfg.seed,
                   resolved.label_rule)
        with _at_paths(_CONFIG_PATHS[synthetic.mixture_samples]):
            if kind == "mixture":
                pools = synthetic_mixture(*mixture)
            else:
                dataset = mixture_dataset(*mixture)
    if kind in ("source", "attribute_bias"):
        column = dataset.schema.split_attribute_column
        if column is None:
            raise ConfigError("split.kind", "schema has no split-attribute column")
        declared = split_spec.get("attribute")
        if declared is not None and declared != column.name:
            raise ConfigError(
                "split.attribute",
                f"schema's split-attribute column is {column.name!r}, not {declared!r}",
            )
    if kind == "cluster":
        pools = cluster_split(dataset, cfg.seed, k=split_spec.get("k", 2))
    elif kind == "source":
        pools = source_split(dataset, split_spec["member_value"])
    elif kind == "attribute_bias":
        pools = functools.partial(
            attribute_bias_pools, dataset, split_spec["value"], float(split_spec["p"]),
            cfg.n_members,
        )
    if "k_member" in split_spec:
        with _at_paths(_CONFIG_PATHS[MixturePools]):
            pools = pools.with_member(split_spec["k_member"])
    union = dataset.samples if dataset is not None else pools.flatten()
    return Materialized(pools=pools, union_pool=union)
