"""Membership-experiment games and the batch advantage-estimation campaign.

Four single-draw games return one success bit each:

* exp_strong: the adversary knows all training samples but one and must
  tell which of two candidates completed the set.
* exp_iid: members and the challenge sample come from one pool.
* exp_mm: the training set comes from one hidden mixture component and the
  non-member challenge from a different component.
* exp_alt: like exp_iid, but both challenge candidates are drawn before
  the membership bit decides which one the attack sees.

run_games plays one of them repeatedly with the average-threshold attack
(the strong-loss attack for exp_strong) at a single privacy level.

batch_mm_campaign implements the batch methodology instead: train once per
privacy level, evaluate every attack on all members and non-members, then
re-partition the pooled samples (the IID counterfactual) and repeat, so
the gap between the "non-IID" and "IID" scenarios isolates the effect of
the data dependency. Repetitions use derived seeds and aggregate into
mean advantage with 95% Student-t confidence intervals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import attacks, dp, nn
from .dataio import Rows
from .errors import MialabError, ShadowPoolTooSmall, SplitError, TrainingDiverged
from .rngs import as_generator, subseed
from .splits import BiasInfo, MixturePools, draw, iid_counterfactual

SCENARIO_DEPENDENT = "non-IID"
SCENARIO_IID = "IID"

KNOWN_ATTACKS = ("average_threshold", "optimal_threshold", "shadow")

# Trainer: (members, seed) -> model. AttackBuilder: (model, members) ->
# decide(rows), one decision bit per row.
Trainer = Callable[[Rows, object], nn.MlpModel]
AttackBuilder = Callable[[nn.MlpModel, Rows], Callable[[Rows], np.ndarray]]


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def _n_classes(pool: Rows) -> int:
    """Output width of every model trained on draws from the pool: one unit
    per label up to its largest, and never fewer than two."""
    return max(2, int(pool.y.max()) + 1)


def _complement(pool: Rows, idx: np.ndarray) -> Rows:
    """The pool's rows outside idx, in pool order."""
    rest = np.ones(len(pool), dtype=bool)
    rest[idx] = False
    return pool[rest]


def exp_strong(attack, trainer: Trainer, s_tilde: Rows, candidates: Rows, seed) -> int:
    """One round of the strong-adversary game over two candidate rows z, z'.
    The attack receives (model, candidates) and outputs the bit it believes
    was used (0 means z)."""
    if len(candidates) != 2 or len(candidates.keys()) != 2:
        raise MialabError("the strong game needs two candidate rows that differ")
    rng = as_generator(subseed(seed, 11) if isinstance(seed, int) else seed)
    b = int(rng.integers(2))
    members = Rows.concat([s_tilde, candidates[[b]]])
    model = trainer(members, rng)
    return int(attack(model, candidates) == b)


def exp_iid(attack_builder: AttackBuilder, trainer: Trainer, n: int, pool: Rows, seed) -> int:
    """One round of the IID game over a finite pool (drawn without
    replacement)."""
    if len(pool) < n + 1:
        raise SplitError(f"pool of {len(pool)} cannot supply {n} members plus a challenge")
    rng = as_generator(subseed(seed, 12) if isinstance(seed, int) else seed)
    idx = rng.choice(len(pool), size=n, replace=False)
    members = pool[idx]
    model = trainer(members, rng)
    b = int(rng.integers(2))
    if b == 0:
        z = members[[int(rng.integers(n))]]
    else:
        rest = _complement(pool, idx)
        z = rest[[int(rng.integers(len(rest)))]]
    decide = attack_builder(model, members)
    return int(decide(z)[0] == b)


def exp_mm(attack_builder: AttackBuilder, trainer: Trainer, n: int,
           pools: MixturePools, seed) -> int:
    """One round of the mixture game: members from a uniformly chosen pool,
    the non-member challenge from a different uniformly chosen pool."""
    rng = as_generator(subseed(seed, 13) if isinstance(seed, int) else seed)
    k = int(rng.integers(pools.n_pools))
    pool = pools.pools[k]
    if len(pool) < n:
        raise SplitError(f"pool {k} has {len(pool)} samples, need {n}")
    idx = rng.choice(len(pool), size=n, replace=False)
    members = pool[idx]
    model = trainer(members, rng)
    b = int(rng.integers(2))
    if b == 0:
        z = members[[int(rng.integers(n))]]
    else:
        others = [j for j in range(pools.n_pools) if j != k]
        k_prime = others[int(rng.integers(len(others)))]
        other_pool = pools.pools[k_prime]
        if not other_pool:
            raise SplitError(f"pool {k_prime} is empty")
        z = other_pool[[int(rng.integers(len(other_pool)))]]
    decide = attack_builder(model, members)
    return int(decide(z)[0] == b)


def exp_alt(attack_builder: AttackBuilder, trainer: Trainer, n: int, pool: Rows, seed) -> int:
    """One round of the alternative game: draw both the member candidate
    and the fresh candidate first, then flip the bit."""
    if len(pool) < n + 1:
        raise SplitError(f"pool of {len(pool)} cannot supply {n} members plus a challenge")
    rng = as_generator(subseed(seed, 14) if isinstance(seed, int) else seed)
    idx = rng.choice(len(pool), size=n, replace=False)
    members = pool[idx]
    model = trainer(members, rng)
    z = members[[int(rng.integers(n))]]
    rest = _complement(pool, idx)
    z_prime = rest[[int(rng.integers(len(rest)))]]
    b = int(rng.integers(2))
    decide = attack_builder(model, members)
    return int(decide(z if b == 0 else z_prime)[0] == b)


def strong_challenge(pools: MixturePools, n: int, seed) -> tuple[Rows, Rows]:
    """The strong game's draw: (s_tilde, candidates). s_tilde holds n - 1
    known members from the member pool; candidates holds z, from the same
    pool, then z' from the other pools."""
    rng = as_generator(seed)
    member_pool = pools.pools[pools.k_member]
    if len(member_pool) < n:
        raise MialabError("member pool too small for the strong game")
    idx = rng.choice(len(member_pool), size=n, replace=False)
    others = Rows.concat([p for k, p in enumerate(pools.pools) if k != pools.k_member])
    z_prime = others[[int(rng.integers(len(others)))]]
    return member_pool[idx[: n - 1]], Rows.concat([member_pool[idx[n - 1 : n]], z_prime])


def run_games(experiment: str, cfg: ExperimentConfig, pools: "MixturePools | None",
              union_pool: "Rows | None") -> list[int]:
    """Play the named game ("iid", "alt", "mm" or "strong") cfg.repetitions
    times at the grid's single epsilon; returns the success bit of each
    round. iid and alt draw from union_pool, mm and strong from pools."""
    if len(cfg.epsilon_grid) != 1:
        raise MialabError(f"a game runs at one epsilon, got {len(cfg.epsilon_grid)}")
    if experiment not in ("iid", "alt", "mm", "strong"):
        raise MialabError(f"unknown game {experiment!r}")
    eps = cfg.epsilon_grid[0]
    privacy = _privacy_for(cfg, eps, noise_for_grid(cfg)[eps][0])
    n_classes = _n_classes(union_pool if experiment in ("iid", "alt") else pools.flatten())

    def trainer(members: Rows, rng) -> nn.MlpModel:
        rng = as_generator(rng)
        init_seed = int(rng.integers(2**31))
        train_seed = int(rng.integers(2**31))
        init = nn.init_model((members.X.shape[1], *cfg.hidden_units, n_classes), init_seed)
        tcfg = replace(cfg.train, seed=train_seed,
                       batch_size=min(cfg.train.batch_size, len(members)))
        return nn.train(init, members, tcfg, privacy)

    builder = attacks.average_threshold_decider
    bits = []
    for g in range(cfg.repetitions):
        seed = subseed(cfg.seed, 40, g)
        if experiment == "iid":
            bit = exp_iid(builder, trainer, cfg.n_members, union_pool, seed)
        elif experiment == "alt":
            bit = exp_alt(builder, trainer, cfg.n_members, union_pool, seed)
        elif experiment == "mm":
            bit = exp_mm(builder, trainer, cfg.n_members, pools, seed)
        else:
            s_tilde, candidates = strong_challenge(pools, cfg.n_members, subseed(cfg.seed, 41, g))
            bit = exp_strong(attacks.strong_loss_attack, trainer, s_tilde, candidates, seed)
        bits.append(bit)
    return bits


@dataclass(frozen=True)
class ExperimentConfig:
    n_members: int
    n_nonmembers: int
    epsilon_grid: tuple[float, ...]
    train: nn.TrainConfig
    hidden_units: tuple[int, ...] = (256, 256)
    delta: float = 1e-5
    repetitions: int = 1
    attack_names: tuple[str, ...] = ("average_threshold", "optimal_threshold")
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise MialabError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.epsilon_grid:
            raise MialabError("epsilon grid is empty")
        if any(e <= 0 for e in self.epsilon_grid):
            raise MialabError("epsilon values must be positive (use inf for non-private)")
        if self.n_members < 1 or self.n_nonmembers < 1:
            raise MialabError("member and non-member counts must be >= 1")
        unknown = [a for a in self.attack_names if a not in KNOWN_ATTACKS]
        if unknown:
            raise MialabError(f"unknown attack(s) {unknown}; known: {list(KNOWN_ATTACKS)}")
        for field, values in (("epsilon_grid", self.epsilon_grid),
                              ("attack_names", self.attack_names)):
            if len(set(values)) != len(values):
                raise MialabError(f"{field} lists an entry twice: {list(values)}")
        if not 0 < self.delta < 1:
            raise MialabError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class CampaignRow:
    epsilon: float
    attack: str
    scenario: str
    repetition: int
    tpr: float
    fpr: float
    advantage: float
    member_acc: float
    nonmember_acc: float
    validation_acc: "float | None"
    sigma: float
    realized_epsilon: float


@dataclass(frozen=True)
class Aggregate:
    epsilon: float
    attack: str
    scenario: str
    mean_advantage: float
    ci_half_width: float  # NaN marks "not applicable" (single repetition)
    repetitions: int


@dataclass(frozen=True)
class CampaignResult:
    rows: tuple[CampaignRow, ...]
    noise: dict
    notes: tuple[str, ...] = ()
    traces: tuple[dict, ...] = ()

    @functools.cached_property
    def aggregates(self) -> tuple[Aggregate, ...]:
        """One Aggregate per (ε, attack, scenario), in first-row order;
        computed from rows on first read."""
        return _aggregate(self.rows)

    def aggregate(self, epsilon: float, attack: str, scenario: str) -> Aggregate:
        for agg in self.aggregates:
            same_eps = agg.epsilon == epsilon or (
                math.isinf(agg.epsilon) and math.isinf(epsilon)
            )
            if same_eps and agg.attack == attack and agg.scenario == scenario:
                return agg
        raise KeyError((epsilon, attack, scenario))


def noise_for_grid(cfg: ExperimentConfig) -> dict:
    """Per-epsilon (noise multiplier, accounted epsilon, RDP order that
    achieved it; None when non-private); computed once per campaign since
    the training-set size fixes the sampling rate."""
    q = nn.sampling_rate(cfg.n_members, cfg.train)
    steps = nn.training_steps(cfg.n_members, cfg.train)
    out = {}
    for eps in cfg.epsilon_grid:
        if math.isinf(eps):
            out[eps] = (0.0, math.inf, None)
        else:
            sigma = dp.calibrate_sigma(eps, cfg.delta, q, steps)
            accounted = dp.account(q, sigma, steps, cfg.delta)
            out[eps] = (sigma, accounted.epsilon, accounted.order)
    return out


def _privacy_for(cfg: ExperimentConfig, eps: float, sigma: float) -> "dp.PrivacyParams | None":
    if math.isinf(eps):
        return None
    return dp.PrivacyParams(
        epsilon=eps,
        delta=cfg.delta,
        clip_norm=cfg.clip_norm,
        noise_multiplier=sigma,
    )


def biased_validation(bias: BiasInfo, size: int, seed) -> "Rows | None":
    """Validation set with the member pool's attribute bias, drawn from the
    leftover reserves; None when the reserves cannot supply it."""
    k_with = math.ceil(bias.p * size)
    k_without = size - k_with
    if len(bias.reserve_with) < k_with or len(bias.reserve_without) < k_without:
        return None
    rng = as_generator(seed)
    wi = rng.choice(len(bias.reserve_with), size=k_with, replace=False) if k_with else []
    wo = (
        rng.choice(len(bias.reserve_without), size=k_without, replace=False)
        if k_without
        else []
    )
    return Rows.concat([bias.reserve_with[wi], bias.reserve_without[wo]])


def _train_cells(cfg: ExperimentConfig, cells: list, dims: tuple, noise: dict, rep: int):
    """Step (a) of a repetition: each cell's target model and, with the
    shadow attack, its shadow ensemble (None, with a note, when the shadow
    pool is too small). Each scenario's private targets train as one
    lockstep group and the repetition's non-private targets as one more.
    The cells of a group that fails train again one by one, in (scenario,
    epsilon) order and each target before its ensemble, so the error names
    the cell that fails first in that order."""
    jobs, groups = [], {}
    for si, _, d, ei, eps in cells:
        privacy = _privacy_for(cfg, eps, noise[eps][0])
        groups.setdefault(None if privacy is None else si, []).append(len(jobs))
        jobs.append((
            nn.init_model(dims, subseed(cfg.seed, 6, rep, si, ei)), d.members,
            replace(cfg.train, seed=_seed_int(subseed(cfg.seed, 5, rep, si, ei))), privacy,
        ))
    models = [None] * len(jobs)
    for ks in groups.values():
        try:
            group = nn.train_replicas(*zip(*(jobs[k] for k in ks)))
        except MialabError:
            continue  # its cells train one by one below
        for k, model in zip(ks, group):
            models[k] = model
    ensembles, notes = [], []
    for c, ((si, scenario, d, ei, eps), job) in enumerate(zip(cells, jobs)):
        ensemble = None
        try:
            if models[c] is None:
                models[c] = nn.train(*job)
            if "shadow" in cfg.attack_names:
                ensemble = attacks.train_shadow_ensemble(
                    d.shadow_pool, dims, cfg.train, job[-1],
                    seed=_seed_int(subseed(cfg.seed, 7, rep, si, ei)),
                    shadow_train_size=cfg.n_members,
                )
        except ShadowPoolTooSmall as exc:
            notes.append(f"rep {rep} {scenario} eps={eps}: {exc}")
        except TrainingDiverged as exc:
            raise MialabError(f"rep {rep} {scenario} eps={eps}: {exc}") from exc
        ensembles.append(ensemble)
    return models, ensembles, notes


def _score(model: nn.MlpModel, rows: Rows) -> tuple[np.ndarray, float]:
    """Step (b) on one row set: one forward pass gives each row's logloss
    and the accuracy."""
    probs = nn.forward(model, rows.X)
    return nn.loglosses_of(probs, rows.y), nn.accuracy_of(probs, rows.y)


def _run_repetition(cfg: ExperimentConfig, pools: MixturePools,
                    pool_builder, noise: dict, rep: int, emit_traces: bool):
    """One repetition's cells, one per (scenario, epsilon), in three steps:
    (a) train every cell's models, (b) score each target on its members and
    non-members, and (c) let each attack turn the scores into decisions,
    from which the cell's result rows and trace rows follow."""
    if pool_builder is not None:
        pools = pool_builder(subseed(cfg.seed, 1, rep))
    n, m = cfg.n_members, cfg.n_nonmembers
    base = draw(pools, n, m, subseed(cfg.seed, 2, rep))
    counterfactual = iid_counterfactual(base, subseed(cfg.seed, 3, rep))
    val_set = None
    if pools.bias is not None:
        val_set = biased_validation(pools.bias, math.ceil(n / 4), subseed(cfg.seed, 4, rep))
    dims = (base.members.X.shape[1], *cfg.hidden_units, _n_classes(pools.flatten()))
    cells = [
        (si, scenario, d, ei, eps)
        for si, (scenario, d) in enumerate(
            ((SCENARIO_DEPENDENT, base), (SCENARIO_IID, counterfactual))
        )
        for ei, eps in enumerate(cfg.epsilon_grid)
    ]
    models, ensembles, notes = _train_cells(cfg, cells, dims, noise, rep)
    truth = np.concatenate([np.full(n, attacks.MEMBER), np.full(m, attacks.NONMEMBER)])
    rows: list[CampaignRow] = []
    traces: list[dict] = []
    for (_, scenario, d, _, eps), model, ensemble in zip(cells, models, ensembles):
        member_losses, member_acc = _score(model, d.members)
        nonmember_losses, nonmember_acc = _score(model, d.nonmembers)
        validation_acc = None
        if scenario == SCENARIO_DEPENDENT and val_set is not None:
            validation_acc = _score(model, val_set)[1]
        losses = np.concatenate([member_losses, nonmember_losses])
        sigma, realized, _ = noise[eps]
        for name in cfg.attack_names:
            if name == "average_threshold":
                outcome = attacks.average_threshold(member_losses, losses, truth)
            elif name == "optimal_threshold":
                outcome = attacks.optimal_threshold(member_losses, nonmember_losses)[1]
            elif ensemble is not None:
                # The shadow attack queries the target on all rows at once,
                # not on step (b)'s row sets: BLAS may round a row of a
                # product differently when the product's row count changes.
                rows_queried = Rows.concat([d.members, d.nonmembers])
                outcome = attacks.shadow_attack(ensemble, model, rows_queried, truth)
            else:
                continue  # skipped; step (a) noted why
            rows.append(CampaignRow(
                epsilon=eps, attack=name, scenario=scenario, repetition=rep,
                tpr=outcome.tpr, fpr=outcome.fpr, advantage=outcome.advantage,
                member_acc=member_acc, nonmember_acc=nonmember_acc,
                validation_acc=validation_acc, sigma=sigma, realized_epsilon=realized,
            ))
            if emit_traces:
                traces.extend(
                    {"epsilon": float(eps), "attack": name, "scenario": scenario,
                     "repetition": rep, "sample_id": i, "truth": int(truth[i]),
                     "loss": float(losses[i]), "decision": int(decision),
                     "attack_name": name}
                    for i, decision in enumerate(outcome.decisions)
                )
    return rows, notes, traces


def _aggregate(rows: Sequence[CampaignRow]) -> tuple[Aggregate, ...]:
    keys = []
    for row in rows:
        key = (row.epsilon, row.attack, row.scenario)
        if key not in keys:
            keys.append(key)
    aggs = []
    for eps, attack, scenario in keys:
        values = tuple(
            r.advantage
            for r in rows
            if r.attack == attack and r.scenario == scenario and r.epsilon == eps
        )
        mean = float(np.mean(values))
        if len(values) > 1:
            from scipy import special  # a ~0.25 s import; one-repetition runs never need it

            sd = float(np.std(values, ddof=1))
            t_crit = float(special.stdtrit(len(values) - 1, 0.975))
            hw = t_crit * sd / math.sqrt(len(values))
        else:
            hw = math.nan
        aggs.append(
            Aggregate(
                epsilon=eps,
                attack=attack,
                scenario=scenario,
                mean_advantage=mean,
                ci_half_width=hw,
                repetitions=len(values),
            )
        )
    return tuple(aggs)


def batch_mm_campaign(
    cfg: ExperimentConfig,
    pools: "MixturePools | None" = None,
    pool_builder: "Callable | None" = None,
    jobs: int = 1,
    emit_traces: bool = False,
) -> CampaignResult:
    """Run the full advantage-estimation campaign.

    Pass fixed pools (cluster/source splits build them once) or a
    pool_builder callable taking a seed (attribute-bias pools are
    regenerated per repetition). Repetitions may run in parallel, on at
    most one worker process per repetition; results are identical
    regardless of jobs. With emit_traces, the result also carries one
    trace row per evaluated sample and attack.
    """
    if (pools is None) == (pool_builder is None):
        raise MialabError("pass exactly one of pools or pool_builder")
    if cfg.train.batch_size > cfg.n_members:
        raise MialabError(
            f"batch_size {cfg.train.batch_size} exceeds n_members {cfg.n_members}"
        )
    noise = noise_for_grid(cfg)
    all_rows: list[CampaignRow] = []
    top_order = max(dp.DEFAULT_ORDERS)
    all_notes = [
        f"eps={eps}: RDP order {order} is the largest order accounted; "
        "a wider order grid may need less noise"
        for eps, (_, _, order) in noise.items()
        if order == top_order
    ]
    all_traces: list[dict] = []
    args = (cfg, pools, pool_builder, noise)
    # A fork-started pool launches all its workers at the first submit, so
    # workers beyond the repetition count would only fork and idle.
    workers = min(jobs, cfg.repetitions)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_repetition, *args, rep, emit_traces)
                for rep in range(cfg.repetitions)
            ]
            results = [f.result() for f in futures]
    else:
        results = [_run_repetition(*args, rep, emit_traces) for rep in range(cfg.repetitions)]
    for rows, notes, traces in results:
        all_rows.extend(rows)
        all_notes.extend(notes)
        all_traces.extend(traces)
    return CampaignResult(
        rows=tuple(all_rows),
        noise=noise,
        notes=tuple(all_notes),
        traces=tuple(all_traces),
    )
