"""Command-line front end.

Subcommands:
  run      execute a config-driven experiment, write CSV results + manifest
  bounds   print advantage-bound curves as CSV (plot-ready)
  account  evaluate the privacy accountant once, print JSON
  split    dry-run a config's split and print pool sizes

Exit codes: 0 success, 1 runtime failure (with a phase tag), 2 invalid
config or argument (with the field named).

The CLI only parses its arguments: account and bounds report a value the
library refuses at its flag (--steps, epsilons[2]).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, bounds, config, dp, experiments
from .errors import ConfigError, MialabError, _at_paths

RESULT_COLUMNS = tuple(f.name for f in fields(experiments.CampaignRow))
SUMMARY_COLUMNS = tuple(f.name for f in fields(experiments.Aggregate))
TRACE_COLUMNS = (
    "epsilon", "attack", "scenario", "repetition",
    "sample_id", "truth", "loss", "decision", "attack_name",
)
GAME_COLUMNS = ("experiment", "repetition", "epsilon", "success")

# The flag of each field a library refusal names; {} is the epsilon's position.
_BOUNDS_FLAGS = {"epsilon": "epsilons[{}]", "delta": "--delta"}
_ACCOUNT_FLAGS = {"q": "--q", "sigma": "--sigma", "steps": "--steps", "delta": "--delta"}

FINITE_POOL_CAVEAT = (
    "members and non-members are drawn without replacement from finite pools; "
    "IID-scenario advantages can slightly exceed the bound, which assumes "
    "sampling with replacement"
)


class _Phases:
    """The phase a command is in, for the error tag, and the wall-clock
    seconds spent in each phase."""

    def __init__(self, current: str):
        self.current = current
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        self.current = name
        t0 = time.perf_counter()
        yield
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


def _cell(value) -> str:
    """One CSV cell: floats in repr form; None and NaN (not applicable) empty."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])


def cmd_run(args, phases: _Phases) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs", f"must be >= 1, got {args.jobs}")
    doc = config.load_config(args.config)
    resolved = config.resolve(doc, profile_override=args.profile, seed_override=args.seed)
    cfg = resolved.cfg
    out_dir = Path(args.out) if args.out else Path("runs") / resolved.digest[:12]
    with phases("data"):
        mat = config.materialize(resolved)
    with phases("write"):
        out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    notes = [FINITE_POOL_CAVEAT]
    summary: dict = {"digest": resolved.digest, "name": resolved.name}
    if resolved.experiment == "batch_mm":
        pools = mat.pools
        del mat  # its union pool, the data before the split, serves only the games
        with phases("campaign"):
            result = experiments.batch_mm_campaign(
                cfg,
                pools=pools,
                jobs=args.jobs,
                emit_traces=resolved.emit_traces,
            )
        with phases("write"):
            _write_csv(out_dir / "results.csv", RESULT_COLUMNS, map(vars, result.rows))
            _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, map(vars, result.aggregates))
            artifacts += ["results.csv", "summary.csv"]
            if resolved.emit_traces:
                _write_csv(out_dir / "traces.csv", TRACE_COLUMNS, result.traces)
                artifacts.append("traces.csv")
        notes.extend(result.notes)
        summary["noise"] = {
            _cell(float(e)): {"sigma": s, "realized_epsilon": _cell(float(r)), "order": order}
            for e, (s, r, order) in result.noise.items()
        }
        summary["rows"] = len(result.rows)
    else:
        with phases("games"):
            bits = experiments.run_games(resolved.experiment, cfg, mat.pools, mat.union_pool)
        eps = float(cfg.epsilon_grid[0])
        rows = (
            {"experiment": resolved.experiment, "repetition": g, "epsilon": eps, "success": bit}
            for g, bit in enumerate(bits)
        )
        with phases("write"):
            _write_csv(out_dir / "games.csv", GAME_COLUMNS, rows)
            artifacts.append("games.csv")
        summary["success_rate"] = sum(bits) / len(bits)
    versions = {
        "mialab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if "scipy" in sys.modules:
        # Only a summary over more than 101 repetitions runs scipy code.
        versions["scipy"] = sys.modules["scipy"].__version__
    manifest = {
        "schema_version": config.SCHEMA_VERSION,
        "name": resolved.name,
        "config_digest": resolved.digest,
        "experiment": resolved.experiment,
        "artifacts": artifacts + ["manifest.json"],
        "timings_seconds": {k: round(v, 6) for k, v in phases.seconds.items()},
        "versions": versions,
        "notes": notes,
        "summary": summary,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {', '.join(artifacts + ['manifest.json'])} to {out_dir}")
    return 0


def cmd_bounds(args, phases: _Phases) -> int:
    # All rows come before the header, so a refused value leaves stdout empty.
    rows = []
    for i, token in enumerate(args.epsilons.split(",")):
        try:
            eps = float(token)
        except ValueError:
            raise ConfigError(f"epsilons[{i}]", f"not a number: {token.strip()!r}") from None
        with _at_paths(_BOUNDS_FLAGS, i):
            rows += [(eps, "new", bounds.bound_new(eps, args.delta)),
                     (eps, "erlingsson", bounds.bound_erlingsson(eps, args.delta)),
                     (eps, "yeom", bounds.bound_yeom(eps))]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["epsilon", "delta", "bound_name", "value"])
    for eps, name, value in rows:
        writer.writerow([_cell(eps), _cell(args.delta), name, _cell(value)])
    return 0


def cmd_account(args, phases: _Phases) -> int:
    with _at_paths(_ACCOUNT_FLAGS):
        result = dp.account(args.q, args.sigma, args.steps, args.delta)
    print(json.dumps({"epsilon": result.epsilon, "order": result.order}))
    return 0


def cmd_split(args, phases: _Phases) -> int:
    doc = config.load_config(args.config)
    resolved = config.resolve(doc, profile_override=args.profile, seed_override=args.seed)
    info: dict = {"experiment": resolved.experiment}
    with phases("data"):
        mat = config.materialize(resolved)
        pools = experiments.repetition_pools(resolved.cfg, mat.pools, 0)
        if callable(mat.pools):
            info["note"] = "pools are regenerated per repetition; sizes shown for repetition 0"
    if pools is not None:
        info["pool_sizes"] = list(pools.sizes())
        info["k_member"] = pools.k_member
        if pools.labels_of_pools:
            info["pool_labels"] = list(pools.labels_of_pools)
        if pools.shadow_reserve is not None:
            info["shadow_reserve"] = len(pools.shadow_reserve)
    else:
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
    """Run one subcommand. Every failure the package or the file system
    reports ends here: an invalid config or argument exits 2 with the field
    named, any other failure exits 1 with the phase it happened in."""
    args = build_parser().parse_args(argv)
    phases = _Phases(args.command)
    try:
        return args.func(args, phases)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MialabError, OSError) as exc:
        print(f"error [{phases.current}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
