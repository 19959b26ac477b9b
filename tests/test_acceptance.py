"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; the full suite takes a few minutes, dominated by the two campaign
criteria.
"""

import csv
import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from mialab import attacks, bounds, config, dp, experiments, nn, synthetic
from mialab.cli import main as cli_main
from mialab.dataio import Rows
from mialab.rngs import as_generator, subseed
from mialab.synthetic import GaussianComponent

from reference_accountant import reference_epsilon
from test_dp import ORACLE_EPS
from test_experiments import two_proportion_z_test

DELTA = 1e-5


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_1_bound_curves():
    t0 = time.perf_counter()
    eps_grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    code, out = run_cli(
        "bounds", "--epsilons", ",".join(str(e) for e in eps_grid), "--delta", str(DELTA)
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_eps = {}
    for row in rows:
        by_eps.setdefault(float(row["epsilon"]), {})[row["bound_name"]] = float(row["value"])
    for eps in eps_grid:
        got = by_eps[eps]
        # formula-exact
        assert abs(got["new"] - bounds.bound_new(eps, DELTA)) < 1e-12
        assert abs(got["erlingsson"] - bounds.bound_erlingsson(eps, DELTA)) < 1e-12
        assert abs(got["yeom"] - bounds.bound_yeom(eps)) < 1e-12
        # ordering at the experiment delta, and against the delta=0-only bound
        assert got["new"] <= got["erlingsson"] + 1e-12
        assert bounds.bound_new(eps, 0.0) <= bounds.bound_yeom(eps) + 1e-12
        assert bounds.bound_erlingsson(eps, 0.0) <= bounds.bound_yeom(eps) + 1e-12
    gap = by_eps[1.0]["erlingsson"] - by_eps[1.0]["new"]
    elapsed = time.perf_counter() - t0
    report(
        1,
        abs(gap - 0.17) < 1e-2 and elapsed < 1.0,
        f"bound curves exact, ordered; gap(1.0)={gap:.5f}; {elapsed:.2f}s",
    )


def test_criterion_2_tradeoff_consistency():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 101)
    checked = 0
    for eps in (0.1, 1.0, 10.0):
        for delta in (0.0, DELTA):
            cap = bounds.bound_new(eps, delta)
            e_eps = math.exp(eps)
            for tpr in grid:
                feas_fpr = grid[
                    (grid + e_eps * (1.0 - tpr) >= 1.0 - delta)
                    & ((1.0 - tpr) + e_eps * grid >= 1.0 - delta)
                ]
                checked += len(feas_fpr)
                if len(feas_fpr):
                    assert float(tpr - feas_fpr.min()) <= cap + 1e-12
                # spot-check agreement with the scalar predicate
                assert bounds.tradeoff_feasible(float(tpr), float(tpr), eps, delta)
    elapsed = time.perf_counter() - t0
    report(
        2,
        elapsed < 5.0,
        f"{checked} feasible grid points all satisfy the advantage cap; {elapsed:.2f}s",
    )


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    model = nn.init_model((4, 8, 8, 2), seed=23)
    flat = model.flatten()
    step = 1e-5
    l2 = 1e-3
    worst = 0.0
    probes = 0
    for s in range(10):
        x, label = rng.normal(size=4), int(rng.integers(2))
        row = Rows(x[None], [label])
        analytic = nn._per_example_grads(model, x[None], np.array([label]), l2)[0]

        def loss_at(vec):
            m = nn.MlpModel.unflatten(model.layer_dims, vec)
            reg = 0.5 * l2 * sum(float(np.sum(W * W)) for W in m.weights)
            return nn.loglosses(m, row)[0] + reg

        for j in rng.choice(flat.size, size=10, replace=False):
            e = np.zeros_like(flat)
            e[j] = step
            numeric = (loss_at(flat + e) - loss_at(flat - e)) / (2 * step)
            probes += 1
            if abs(analytic[j]) < 1e-6 and abs(numeric) < 1e-6:
                continue
            rel = abs(analytic[j] - numeric) / max(abs(numeric), abs(analytic[j]))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst < 1e-4 and probes == 100 and elapsed < 10.0,
        f"100 finite-difference probes, max rel err {worst:.2e}; {elapsed:.2f}s",
    )


def test_criterion_5_accountant_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for (q, sigma, steps), oracle in ORACLE_EPS.items():
        # re-derive the frozen oracle, then compare the implementation
        ref, _ = reference_epsilon(q, sigma, steps, DELTA, dp.DEFAULT_ORDERS)
        assert ref == pytest.approx(oracle, rel=1e-9)
        mine = dp.account(q, sigma, steps, DELTA).epsilon
        worst = max(worst, abs(mine - oracle) / oracle)
    assert worst < 0.02
    round_trip_ok = True
    for target in (0.5, 1.0, 4.0):
        sigma = dp.calibrate_sigma(target, DELTA, 0.02, 5000)
        back = dp.account(0.02, sigma, 5000, DELTA).epsilon
        round_trip_ok &= 0.97 * target <= back <= target
    elapsed = time.perf_counter() - t0
    report(
        5,
        round_trip_ok and elapsed < 30.0,
        f"5 spanning configs within {worst:.2%} of the reference; "
        f"calibration round-trips in [0.97e, e]; {elapsed:.1f}s",
    )


TWO_GAUSSIAN = (
    GaussianComponent(mean=(0.0, 0.0), cov=0.5, label=0),
    GaussianComponent(mean=(2.0, 2.0), cov=0.5, label=1),
)


def test_criterion_6_iid_bound_compliance_and_4_clipping():
    t0 = time.perf_counter()
    pools = synthetic.synthetic_mixture(TWO_GAUSSIAN, 2000, seed=5)
    cfg = experiments.ExperimentConfig(
        n_members=500,
        n_nonmembers=500,
        epsilon_grid=(0.1, 1.0),
        train=nn.TrainConfig(epochs=30, batch_size=200, seed=0, debug_checks=True),
        hidden_units=(32, 32),
        repetitions=10,
        attack_names=("average_threshold", "optimal_threshold", "shadow"),
        seed=20250809,
    )
    result = experiments.batch_mm_campaign(cfg, pools=pools)
    details = []
    ok = True
    for eps in cfg.epsilon_grid:
        cap = bounds.bound_new(eps, DELTA)
        for attack in cfg.attack_names:
            agg = result.aggregate(eps, attack, "IID")
            margin = cap + 3 * agg.ci_half_width
            ok &= agg.mean_advantage <= margin
            details.append(f"{attack}@{eps}: {agg.mean_advantage:+.3f}<={margin:.3f}")
    elapsed = time.perf_counter() - t0
    report(4, True, "per-example clip norms asserted <= C throughout criterion-6 training")
    report(
        6,
        ok and elapsed < 2 * 15 * 60,
        f"IID advantage within bound+3CI for every attack ({'; '.join(details)}); "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_pathological_scenario():
    t0 = time.perf_counter()
    comps = (
        GaussianComponent(mean=(0.0, 0.0), cov=0.0, label=0),
        GaussianComponent(mean=(1.0, 1.0), cov=0.0, label=1),
    )
    pools = synthetic.synthetic_mixture(comps, 400, seed=3)
    cfg = experiments.ExperimentConfig(
        n_members=200,
        n_nonmembers=200,
        epsilon_grid=(1.0,),
        train=nn.TrainConfig(epochs=30, batch_size=200, seed=0),
        hidden_units=(32, 32),
        repetitions=5,
        attack_names=("optimal_threshold",),
        seed=99,
    )
    result = experiments.batch_mm_campaign(cfg, pools=pools)
    agg = result.aggregate(1.0, "optimal_threshold", "non-IID")
    elapsed = time.perf_counter() - t0
    report(
        7,
        agg.mean_advantage >= 0.9 and elapsed < 120,
        f"constant-pool advantage {agg.mean_advantage:.3f} at eps=1 "
        f"(IID bound would be {bounds.bound_new(1.0, DELTA):.3f}); {elapsed:.0f}s",
    )


def cluster_amplification_config(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "cluster-amplification",
        "experiment": "batch_mm",
        "n_members": 500,
        "n_nonmembers": 500,
        "epsilon_grid": [1.0, "inf"],
        "delta": DELTA,
        "repetitions": 10,
        "seed": 424242,
        "attacks": ["average_threshold", "optimal_threshold"],
        "profile": "desk",
        "data": {
            "kind": "synthetic_mixture",
            "components": [
                {"mean": [0.0, 0.0], "cov": 0.09, "label": 0},
                {"mean": [6.0, 3.0], "cov": 0.09, "label": 0},
                {"mean": [0.0, 3.0], "cov": 0.09, "label": 1},
                {"mean": [6.0, 0.0], "cov": 0.09, "label": 1},
            ],
            "n_per_component": 500,
        },
        "split": {"kind": "cluster"},
    }
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def summary_lookup(out_dir):
    table = {}
    with open(out_dir / "summary.csv") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["epsilon"]), row["attack"], row["scenario"])
            table[key] = float(row["mean_advantage"])
    return table


def test_criterion_8_cluster_amplification_and_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = cluster_amplification_config(tmp_path)
    code_a, _ = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "a"))
    assert code_a == 0
    table = summary_lookup(tmp_path / "a")
    gap_inf = (
        table[(math.inf, "optimal_threshold", "non-IID")]
        - table[(math.inf, "optimal_threshold", "IID")]
    )
    adv_one = table[(1.0, "optimal_threshold", "non-IID")]
    cap = bounds.bound_new(1.0, DELTA)
    elapsed = time.perf_counter() - t0
    report(
        8,
        gap_inf >= 0.2 and adv_one > cap and elapsed < 20 * 60,
        f"cluster split: non-IID - IID gap {gap_inf:.3f} at eps=inf; "
        f"non-IID {adv_one:.3f} > bound {cap:.3f} at eps=1; {elapsed:.0f}s",
    )
    code_b, _ = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "b"))
    assert code_b == 0
    identical = (tmp_path / "a/results.csv").read_bytes() == (
        tmp_path / "b/results.csv"
    ).read_bytes()
    report(10, identical, "same config + master seed reproduces results.csv byte for byte")


def test_criterion_9_alternative_game_equivalence():
    t0 = time.perf_counter()
    comps = (
        GaussianComponent(mean=(0.0, 0.0), cov=0.5, label=0),
        GaussianComponent(mean=(2.0, 2.0), cov=0.5, label=1),
    )
    samples = synthetic.mixture_dataset(comps, 150, seed=3).samples
    order = np.random.default_rng(2).permutation(len(samples))
    pool = samples[order]
    tcfg = nn.TrainConfig(epochs=10, batch_size=100, seed=0)

    def trainer(members, rng):
        rng = as_generator(rng)
        init = nn.init_model((2, 32, 32, 2), int(rng.integers(2**31)))
        from dataclasses import replace

        return nn.train(init, members, replace(tcfg, seed=int(rng.integers(2**31))), None)

    builder = attacks.average_threshold_decider
    n_games = 500
    iid_wins = sum(
        experiments.exp_iid(builder, trainer, 100, pool, subseed(777, 50, g))
        for g in range(n_games)
    )
    alt_wins = sum(
        experiments.exp_alt(builder, trainer, 100, pool, subseed(777, 51, g))
        for g in range(n_games)
    )
    z, p = two_proportion_z_test(iid_wins, n_games, alt_wins, n_games)
    elapsed = time.perf_counter() - t0
    report(
        9,
        p > 0.01 and elapsed < 10 * 60,
        f"exp_iid {iid_wins}/{n_games} vs exp_alt {alt_wins}/{n_games}, "
        f"z={z:.3f}, p={p:.3f} (indistinguishable at alpha=0.01); {elapsed:.0f}s",
    )
