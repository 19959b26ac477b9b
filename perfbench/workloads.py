"""The benchmark's workloads: each turns a workload seed into the config
(and, for csv-shadow, the CSV and schema) that `mialab run` receives.

Generation is pure Python (`random.Random` seeded from the workload name
and seed), so the same seed gives byte-identical inputs on any machine.
`tiny=True` shrinks every workload to a size that runs in about a second;
the smoke test uses it to check that every metric is emitted.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("cluster-demo", "eps-sweep", "wide-dp", "csv-shadow")

# The four components of configs/cluster_amplification.json, for eps-sweep.
CLUSTER_COMPONENTS = [
    {"mean": [0.0, 0.0], "cov": 0.09, "label": 0},
    {"mean": [6.0, 3.0], "cov": 0.09, "label": 0},
    {"mean": [0.0, 3.0], "cov": 0.09, "label": 1},
    {"mean": [6.0, 0.0], "cov": 0.09, "label": 1},
]

WIDE_DIM = 100
WIDE_EPOCHS = 20

CSV_ROWS = 6000
CSV_DUPLICATE_SHARE = 0.03
CSV_MISSING_SHARE = 0.05
CSV_LEVELS = 30
CSV_GROUPS = (("A", 0.5), ("B", 0.3), ("C", 0.2))


@dataclass(frozen=True)
class Workload:
    config: Path  # what `mialab run --config` receives
    doc: dict  # the parsed config, for the output check
    cwd: Path  # working directory of every run (relative data paths resolve here)


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _cluster_demo(root: Path, seed: int, work: Path, tiny: bool) -> Path:
    shipped = root / "configs" / "cluster_amplification.json"
    if not tiny:
        return shipped
    doc = json.loads(shipped.read_text(encoding="utf-8"))
    doc.update(repetitions=1, epsilon_grid=[1.0, "inf"], train={"epochs": 2})
    return _write_json(work / "cluster-demo.json", doc)


def _eps_sweep(root: Path, seed: int, work: Path, tiny: bool) -> Path:
    doc = {
        "schema_version": 1,
        "name": "perfbench-eps-sweep",
        "experiment": "batch_mm",
        "n_members": 500,
        "n_nonmembers": 500,
        "epsilon_grid": [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, "inf"],
        "delta": 1e-05,
        "repetitions": 1,
        "seed": seed,
        "attacks": ["average_threshold", "optimal_threshold"],
        "profile": "desk",
        "data": {
            "kind": "synthetic_mixture",
            "components": copy.deepcopy(CLUSTER_COMPONENTS),
            "n_per_component": 500,
        },
        "split": {"kind": "cluster"},
    }
    if tiny:
        doc.update(epsilon_grid=[0.5, 5.0, "inf"], train={"epochs": 2})
    return _write_json(work / "eps-sweep.json", doc)


def _wide_dp(root: Path, seed: int, work: Path, tiny: bool) -> Path:
    rng = random.Random(f"wide-dp:{seed}")
    dim = 8 if tiny else WIDE_DIM
    components = [
        {"mean": [round(rng.gauss(0.0, 1.0), 6) for _ in range(dim)], "cov": 1.0, "label": k // 2}
        for k in range(4)
    ]
    doc = {
        "schema_version": 1,
        "name": "perfbench-wide-dp",
        "experiment": "batch_mm",
        "n_members": 500,
        "n_nonmembers": 500,
        "epsilon_grid": [1.0],
        "delta": 1e-05,
        "repetitions": 1,
        "seed": seed,
        "attacks": ["average_threshold", "optimal_threshold"],
        "profile": "paper",
        "train": {"epochs": 1 if tiny else WIDE_EPOCHS},
        "data": {"kind": "synthetic_mixture", "components": components, "n_per_component": 500},
        "split": {"kind": "cluster"},
    }
    if tiny:
        doc["train"]["hidden_units"] = [16, 16]
    return _write_json(work / "wide-dp.json", doc)


def _csv_table(seed: int, rows: int) -> tuple[list[str], list[list[str]]]:
    """A mixed-type table: 4 numeric and 3 categorical features (30 levels
    each), a `group` split attribute that shifts the features, a binary
    label, missing feature cells, and a few exact duplicate rows."""
    rng = random.Random(f"csv-shadow:{seed}")
    header = ["x1", "x2", "x3", "x4", "c1", "c2", "c3", "group", "label"]
    groups = [g for g, _ in CSV_GROUPS]
    weights = [w for _, w in CSV_GROUPS]
    coef = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    level_effect = [[rng.uniform(-1.0, 1.0) for _ in range(CSV_LEVELS)] for _ in range(3)]
    base = []
    n_base = rows - int(rows * CSV_DUPLICATE_SHARE)
    for _ in range(n_base):
        gi = rng.choices(range(len(groups)), weights)[0]
        xs = [rng.gauss(0.6 * gi, 1.0) for _ in range(4)]
        # Levels are skewed towards a group-specific offset.
        levels = [(int(abs(rng.gauss(0.0, 8.0))) + 7 * gi + 3 * j) % CSV_LEVELS for j in range(3)]
        score = sum(c * x for c, x in zip(coef, xs)) + sum(
            level_effect[j][lv] for j, lv in enumerate(levels)
        ) - 0.3 * gi
        label = "yes" if rng.random() < 1.0 / (1.0 + math.exp(-score)) else "no"
        cells = [f"{x:.4f}" for x in xs] + [f"L{lv:02d}" for lv in levels]
        cells = ["" if rng.random() < CSV_MISSING_SHARE else c for c in cells]
        base.append(cells + [groups[gi], label])
    table = base + [list(rng.choice(base)) for _ in range(rows - n_base)]
    rng.shuffle(table)
    return header, table


def _csv_shadow(root: Path, seed: int, work: Path, tiny: bool) -> Path:
    header, table = _csv_table(seed, 1500 if tiny else CSV_ROWS)
    with open(work / "table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(table)
    schema = {
        "columns": [{"name": f"x{i}", "kind": "numeric"} for i in range(1, 5)]
        + [{"name": f"c{i}", "kind": "categorical"} for i in range(1, 4)]
        + [
            {"name": "group", "kind": "categorical", "role": "split-attribute"},
            {"name": "label", "kind": "categorical", "role": "label"},
        ],
        "label_classes": 2,
    }
    _write_json(work / "table.schema.json", schema)
    n = 100 if tiny else 500
    doc = {
        "schema_version": 1,
        "name": "perfbench-csv-shadow",
        "experiment": "batch_mm",
        "n_members": n,
        "n_nonmembers": n,
        "epsilon_grid": [1.0, "inf"],
        "delta": 1e-05,
        "repetitions": 2,
        "seed": seed,
        "attacks": ["average_threshold", "optimal_threshold", "shadow"],
        "profile": "desk",
        "data": {
            "kind": "csv",
            "path": "table.csv",
            "schema": "table.schema.json",
            "preprocess_seed": seed,
        },
        "split": {"kind": "attribute_bias", "attribute": "group", "value": "A", "p": 0.9},
    }
    if tiny:
        doc.update(repetitions=1, train={"epochs": 2, "batch_size": 50})
    return _write_json(work / "csv-shadow.json", doc)


_GENERATORS = {
    "cluster-demo": _cluster_demo,
    "eps-sweep": _eps_sweep,
    "wide-dp": _wide_dp,
    "csv-shadow": _csv_shadow,
}


def generate(name: str, root: Path, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Write the workload's inputs into `work` and describe them."""
    config = _GENERATORS[name](root, seed, work, tiny)
    doc = json.loads(config.read_text(encoding="utf-8"))
    return Workload(config=config, doc=doc, cwd=work)
