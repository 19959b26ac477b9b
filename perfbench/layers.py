"""Per-layer metrics from the spans of one traced run.

A span is [name, parent index, start, end, facts]; its duration is end -
start and its self time is the duration minus that of its direct children.
A span's layer is the module part of its name, with `config` counted as
the `cli` layer (set-up and output).
"""

from __future__ import annotations

import statistics

LAYERS = ("cli", "dataio", "splits", "experiments", "dp", "nn", "attacks")
EVAL_SPANS = ("nn.loglosses", "nn.accuracy", "nn.forward")
CAMPAIGN = "experiments.batch_mm_campaign"


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "cli" if module == "config" else module


def tail_percentile(n: int) -> "float | None":
    """The highest of these percentiles that leaves at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _median_and_tail(values) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    p = tail_percentile(len(values))
    median = statistics.median(values)
    return median, (median if p is None else percentile(values, p))


def run_metrics(doc: dict, write_s: float, shadow_skips: int) -> dict[str, float]:
    """Per-layer metrics of one traced run. `doc` is the spans file,
    `write_s` the manifest's write timing, `shadow_skips` the number of
    skipped shadow attacks noted in the manifest."""
    spans = doc["spans"]
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    train_child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child_time[s[1]] += dur[i]
            if s[0] == "nn.train":
                train_child_time[s[1]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    def total(*names) -> float:
        return sum(dur[i] for i, s in enumerate(spans) if s[0] in names)

    def count(name) -> int:
        return sum(1 for s in spans if s[0] == name)

    trains = [(i, s[4]) for i, s in enumerate(spans) if s[0] == "nn.train"]
    dp_trains = [i for i, facts in trains if facts["dp"]]
    nondp_trains = [i for i, facts in trains if not facts["dp"]]

    def step_ms(ids) -> float:
        steps = sum(spans[i][4]["steps"] for i in ids)
        return 1000.0 * sum(dur[i] for i in ids) / steps if steps else 0.0

    account_ms, account_tail = _median_and_tail(
        [1000.0 * dur[i] for i, s in enumerate(spans) if s[0] == "dp.account"]
    )
    train_ms, train_tail = _median_and_tail([1000.0 * dur[i] for i, _ in trains])
    campaign = [i for i, s in enumerate(spans) if s[0] == CAMPAIGN]
    campaign_s = sum(dur[i] for i in campaign)
    shadow_ids = [i for i, s in enumerate(spans) if s[0] == "attacks.train_shadow_ensemble"]
    csv_in = [s[4]["rows"] for s in spans if s[0] == "dataio.load_csv"]
    csv_kept = [s[4] for s in spans if s[0] == "dataio.preprocess"]
    rows_in = sum(csv_in)
    rows_kept = sum(f["rows"] for f in csv_kept)

    out = {
        "dp.calibrate_s": total("dp.calibrate_sigma"),
        "dp.account_calls": count("dp.account"),
        "dp.account_ms": account_ms,
        "dp.account_ms_tail": account_tail,
        "nn.train_dp_s": sum(self_time[i] for i in dp_trains),
        "nn.train_nondp_s": sum(self_time[i] for i in nondp_trains),
        "nn.dp_step_ms": step_ms(dp_trains),
        "nn.nondp_step_ms": step_ms(nondp_trains),
        "nn.train_calls_dp": len(dp_trains),
        "nn.train_calls_nondp": len(nondp_trains),
        "nn.train_ms": train_ms,
        "nn.train_ms_tail": train_tail,
        "nn.eval_s": sum(
            dur[i]
            for i, s in enumerate(spans)
            if s[0] in EVAL_SPANS and s[1] >= 0 and layer_of(spans[s[1]][0]) == "experiments"
        ),
        "attacks.threshold_s": total("attacks.average_threshold", "attacks.optimal_threshold"),
        "attacks.shadow_train_s": sum(dur[i] for i in shadow_ids),
        "attacks.shadow_train_self_s": sum(dur[i] - train_child_time[i] for i in shadow_ids),
        "attacks.shadow_attack_s": total("attacks.shadow_attack"),
        "attacks.shadow_skipped": shadow_skips / len(shadow_ids) if shadow_ids else 0.0,
        "splits.cluster_s": total("splits.cluster_split"),
        "splits.bias_pools_s": total("splits.attribute_bias_pools"),
        "splits.draw_s": total("splits.draw", "splits.iid_counterfactual"),
        "dataio.load_csv_s": total("dataio.load_csv"),
        "dataio.preprocess_s": total("dataio.preprocess"),
        "dataio.rows_in": rows_in,
        "dataio.rows_kept": rows_kept,
        "dataio.width": max((f["width"] for f in csv_kept), default=0),
        "dataio.kept_ratio": rows_kept / rows_in if rows_in else 0.0,
        "experiments.cells": sum(spans[i][4]["cells"] for i in campaign),
        "experiments.campaign_s": campaign_s,
        "cli.import_s": doc["import_s"],
        "cli.materialize_s": total("config.materialize"),
        "cli.write_s": write_s,
        "trace.unattributed_share": (
            sum(self_time[i] for i in campaign) / campaign_s if campaign_s else 0.0
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for t, s in zip(self_time, spans) if layer_of(s[0]) == layer
        )
    return out
