"""Command-line front end.

Subcommands:
  run      execute a config-driven experiment, write CSV results + manifest
  bounds   print advantage-bound curves as CSV (plot-ready)
  account  evaluate the privacy accountant once, print JSON
  split    dry-run a config's split and print pool sizes

Exit codes: 0 success, 1 runtime failure (with a phase tag), 2 invalid config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import attacks, bounds, config, dp, experiments, nn
from .errors import ConfigError, MialabError
from .rngs import as_generator, subseed

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("mialab")
except Exception:  # pragma: no cover - metadata missing in odd installs
    VERSION = "0+unknown"

RESULT_COLUMNS = (
    "epsilon", "attack", "scenario", "repetition", "tpr", "fpr", "advantage",
    "member_acc", "nonmember_acc", "validation_acc", "sigma", "realized_epsilon",
)
SUMMARY_COLUMNS = (
    "epsilon", "attack", "scenario", "mean_advantage", "ci_half_width", "repetitions",
)
TRACE_COLUMNS = (
    "epsilon", "attack", "scenario", "repetition",
    "sample_id", "truth", "loss", "decision", "attack_name",
)
GAME_COLUMNS = ("experiment", "repetition", "epsilon", "success")

FINITE_POOL_CAVEAT = (
    "members and non-members are drawn without replacement from finite pools; "
    "IID-scenario advantages can slightly exceed the bound, which assumes "
    "sampling with replacement"
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def _result_rows(result: experiments.CampaignResult):
    for r in result.rows:
        yield {
            "epsilon": float(r.epsilon),
            "attack": r.attack,
            "scenario": r.scenario,
            "repetition": r.repetition,
            "tpr": r.tpr,
            "fpr": r.fpr,
            "advantage": r.advantage,
            "member_acc": r.member_acc,
            "nonmember_acc": r.nonmember_acc,
            "validation_acc": r.validation_acc,
            "sigma": r.sigma,
            "realized_epsilon": float(r.realized_epsilon),
        }


def _summary_rows(result: experiments.CampaignResult):
    for a in result.aggregates:
        yield {
            "epsilon": float(a.epsilon),
            "attack": a.attack,
            "scenario": a.scenario,
            "mean_advantage": a.mean_advantage,
            "ci_half_width": None if math.isnan(a.ci_half_width) else a.ci_half_width,
            "repetitions": a.repetitions,
        }


def _game_trainer(resolved: config.ResolvedConfig, eps: float, sigma: float):
    cfg = resolved.cfg
    privacy = experiments._privacy_for(cfg, eps, sigma)

    def trainer(members, rng):
        rng = as_generator(rng)
        n_classes = max(2, int(members.y.max()) + 1)
        dims = (members.X.shape[1], *cfg.hidden_units, n_classes)
        init = nn.init_model(dims, int(rng.integers(2**31)))
        tcfg = replace(
            cfg.train,
            seed=int(rng.integers(2**31)),
            batch_size=min(cfg.train.batch_size, len(members)),
        )
        return nn.train(init, members, tcfg, privacy)

    return trainer


def _run_games(resolved: config.ResolvedConfig, mat: config.Materialized):
    cfg = resolved.cfg
    eps = cfg.epsilon_grid[0]
    if math.isinf(eps):
        sigma = 0.0
    else:
        q = nn.sampling_rate(cfg.n_members, cfg.train)
        steps = nn.training_steps(cfg.n_members, cfg.train)
        sigma = dp.calibrate_sigma(eps, cfg.delta, q, steps)
    trainer = _game_trainer(resolved, eps, sigma)
    builder = attacks.average_threshold_decider
    rows = []
    successes = 0
    for g in range(cfg.repetitions):
        seed = subseed(cfg.seed, 40, g)
        if resolved.experiment == "iid":
            bit = experiments.exp_iid(builder, trainer, cfg.n_members, mat.union_pool, seed)
        elif resolved.experiment == "alt":
            bit = experiments.exp_alt(builder, trainer, cfg.n_members, mat.union_pool, seed)
        elif resolved.experiment == "mm":
            bit = experiments.exp_mm(builder, trainer, cfg.n_members, mat.pools, seed)
        else:  # strong
            s_tilde, z, z_prime = experiments.strong_challenge(
                mat.pools, cfg.n_members, subseed(cfg.seed, 41, g)
            )
            bit = experiments.exp_strong(
                attacks.strong_loss_attack, trainer, s_tilde, z, z_prime, seed
            )
        successes += bit
        rows.append(
            {
                "experiment": resolved.experiment,
                "repetition": g,
                "epsilon": float(eps),
                "success": bit,
            }
        )
    return rows, successes / cfg.repetitions


def cmd_run(args) -> int:
    timings: dict[str, float] = {}
    phase = "config"
    try:
        doc = config.load_config(args.config)
        resolved = config.resolve(doc, profile_override=args.profile, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path("runs") / resolved.digest[:12]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        phase = "data"
        t0 = time.perf_counter()
        mat = config.materialize(resolved)
        timings["data"] = time.perf_counter() - t0
        artifacts: list[str] = []
        notes = [FINITE_POOL_CAVEAT]
        summary: dict = {"digest": resolved.digest, "name": resolved.name}
        if resolved.experiment == "batch_mm":
            phase = "campaign"
            t0 = time.perf_counter()
            trace_rows: list[dict] = []
            sink = None
            if resolved.emit_traces:
                if args.jobs > 1:
                    raise MialabError("emit_traces requires --jobs 1")

                def sink(eps, name, scenario, rep, outcome, losses):
                    for tr in attacks.trace_rows(outcome, name, losses):
                        tr.update(
                            epsilon=float(eps), attack=name, scenario=scenario,
                            repetition=rep,
                        )
                        trace_rows.append(tr)

            result = experiments.batch_mm_campaign(
                resolved.cfg,
                pools=mat.pools,
                pool_builder=mat.pool_builder,
                jobs=args.jobs,
                trace_sink=sink,
            )
            timings["campaign"] = time.perf_counter() - t0
            phase = "write"
            t0 = time.perf_counter()
            _write_csv(out_dir / "results.csv", RESULT_COLUMNS, _result_rows(result))
            artifacts.append("results.csv")
            _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, _summary_rows(result))
            artifacts.append("summary.csv")
            if resolved.emit_traces:
                _write_csv(out_dir / "traces.csv", TRACE_COLUMNS, trace_rows)
                artifacts.append("traces.csv")
            timings["write"] = time.perf_counter() - t0
            notes.extend(result.notes)
            summary["noise"] = {
                _cell(float(e)): {"sigma": s, "realized_epsilon": _cell(float(r))}
                for e, (s, r) in result.noise.items()
            }
            summary["rows"] = len(result.rows)
        else:
            phase = "games"
            t0 = time.perf_counter()
            rows, rate = _run_games(resolved, mat)
            timings["games"] = time.perf_counter() - t0
            phase = "write"
            _write_csv(out_dir / "games.csv", GAME_COLUMNS, rows)
            artifacts.append("games.csv")
            summary["success_rate"] = rate
        manifest = {
            "schema_version": config.SCHEMA_VERSION,
            "name": resolved.name,
            "config_digest": resolved.digest,
            "experiment": resolved.experiment,
            "artifacts": artifacts + ["manifest.json"],
            "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
            "versions": {
                "mialab": VERSION,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "notes": notes,
            "summary": summary,
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {', '.join(artifacts + ['manifest.json'])} to {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MialabError as exc:
        print(f"error [{phase}]: {exc}", file=sys.stderr)
        return 1


def cmd_bounds(args) -> int:
    try:
        eps_values = []
        for i, token in enumerate(args.epsilons.split(",")):
            token = token.strip()
            try:
                eps = math.inf if token.lower() in ("inf", "infinity") else float(token)
            except ValueError:
                raise ConfigError(f"epsilons[{i}]", f"not a number: {token!r}") from None
            if eps < 0 or math.isnan(eps):
                raise ConfigError(f"epsilons[{i}]", f"epsilon must be >= 0, got {eps}")
            eps_values.append(eps)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epsilon", "delta", "bound_name", "value"])
    for eps in eps_values:
        writer.writerow([_cell(float(eps)), _cell(args.delta), "new",
                         _cell(bounds.bound_new(eps, args.delta))])
        writer.writerow([_cell(float(eps)), _cell(args.delta), "erlingsson",
                         _cell(bounds.bound_erlingsson(eps, args.delta))])
        writer.writerow([_cell(float(eps)), _cell(args.delta), "yeom",
                         _cell(bounds.bound_yeom(eps))])
    return 0


def cmd_account(args) -> int:
    try:
        result = dp.account(args.q, args.sigma, args.steps, args.delta)
    except MialabError as exc:
        print(f"error [account]: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"epsilon": result.epsilon, "order": result.order}))
    return 0


def cmd_split(args) -> int:
    try:
        doc = config.load_config(args.config)
        resolved = config.resolve(doc, profile_override=args.profile, seed_override=args.seed)
        mat = config.materialize(resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MialabError as exc:
        print(f"error [data]: {exc}", file=sys.stderr)
        return 1
    info: dict = {"experiment": resolved.experiment}
    pools = mat.pools
    if pools is None and mat.pool_builder is not None:
        pools = mat.pool_builder(subseed(resolved.cfg.seed, 1, 0))
        info["note"] = "pools are regenerated per repetition; sizes shown for repetition 0"
    if pools is not None:
        info["pool_sizes"] = list(pools.sizes())
        info["k_member"] = pools.k_member
        if pools.labels_of_pools:
            info["pool_labels"] = list(pools.labels_of_pools)
        if pools.shadow_reserve is not None:
            info["shadow_reserve"] = len(pools.shadow_reserve)
    elif mat.union_pool is not None:
        info["pool_sizes"] = [len(mat.union_pool)]
    print(json.dumps(info, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mialab",
        description="Membership-inference experiment lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", default=None, help="output directory (default runs/<digest>)")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel repetition workers")
    p_run.add_argument("--profile", choices=sorted(config.PROFILES), default=None,
                       help="architecture/epoch preset override")
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="print advantage bound curves as CSV")
    p_bounds.add_argument("--epsilons", required=True,
                          help="comma-separated epsilon values, e.g. 0.01,0.1,1,10,100")
    p_bounds.add_argument("--delta", type=float, default=1e-5)
    p_bounds.set_defaults(func=cmd_bounds)

    p_acct = sub.add_parser("account", help="evaluate the RDP accountant once")
    p_acct.add_argument("--q", type=float, required=True, help="sampling rate")
    p_acct.add_argument("--sigma", type=float, required=True, help="noise multiplier")
    p_acct.add_argument("--steps", type=int, required=True)
    p_acct.add_argument("--delta", type=float, default=1e-5)
    p_acct.set_defaults(func=cmd_account)

    p_split = sub.add_parser("split", help="dry-run a config's split and print pool sizes")
    p_split.add_argument("--config", required=True)
    p_split.add_argument("--seed", type=int, default=None)
    p_split.add_argument("--profile", choices=sorted(config.PROFILES), default=None)
    p_split.set_defaults(func=cmd_split)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
