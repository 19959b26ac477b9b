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
the data dependency. A campaign draws from one pool source: fixed pools,
or a callable that builds each repetition's pools from its seed.
Repetitions use derived seeds and aggregate into mean advantage with 95%
Student-t confidence intervals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import attacks, dp, nn
from .dataio import Rows
from .errors import MialabError, ShadowPoolTooSmall, SplitError, _refused
from .rngs import as_generator, subseed
from .splits import BiasInfo, MixturePools, draw, iid_counterfactual

SCENARIO_DEPENDENT = "non-IID"
SCENARIO_IID = "IID"

KNOWN_ATTACKS = ("average_threshold", "optimal_threshold", "shadow")
GAME_KINDS = ("iid", "mm", "alt", "strong")

# Trainer: (members, seed) -> model. AttackBuilder: (model, members) ->
# decide(rows), one decision bit per row.
Trainer = Callable[[Rows, object], nn.MlpModel]
AttackBuilder = Callable[[nn.MlpModel, Rows], Callable[[Rows], np.ndarray]]


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def _n_classes(pools: Sequence[Rows]) -> int:
    """Output width of every model trained on draws from the pools: one unit
    per label up to their largest, and never fewer than two."""
    return max([2, *(int(pool.y.max()) + 1 for pool in pools if len(pool))])


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
    """Play the named game (one of GAME_KINDS) cfg.repetitions times at the
    grid's single epsilon; returns the success bit of each round. iid and
    alt draw from union_pool, mm and strong from fixed pools."""
    if experiment not in GAME_KINDS:
        raise MialabError(f"unknown game {experiment!r}")
    check_runnable(experiment, cfg)
    if experiment in ("iid", "alt") and union_pool is None:
        raise MialabError(f"game {experiment!r} needs a union pool")
    if experiment in ("mm", "strong") and not isinstance(pools, MixturePools):
        raise MialabError(f"game {experiment!r} needs fixed pools (cluster, source or mixture)")
    eps = cfg.epsilon_grid[0]
    privacy = _privacy_for(cfg, eps, noise_for_grid(cfg)[eps][0])
    n_classes = _n_classes([union_pool] if experiment in ("iid", "alt") else pools.pools)

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
        counts = [("n_members", self.n_members, 1), ("n_nonmembers", self.n_nonmembers, 1)]
        counts += [(f"hidden_units[{i}]", h, 1) for i, h in enumerate(self.hidden_units)]
        counts += [("repetitions", self.repetitions, 1), ("seed", self.seed, 0)]
        for field, value, minimum in counts:
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise _refused(field, f"must be an integer >= {minimum}, got {value!r}")
        for i, eps in enumerate(self.epsilon_grid):
            if not eps > 0:  # NaN too
                raise _refused(f"epsilon_grid[{i}]", f"must be > 0 (inf for non-private), "
                               f"got {eps}")
        for i, name in enumerate(self.attack_names):
            if name not in KNOWN_ATTACKS:
                raise _refused(f"attack_names[{i}]", f"unknown attack {name!r}; allowed: "
                               f"{list(KNOWN_ATTACKS)}")
        for field, values in (("epsilon_grid", self.epsilon_grid),
                              ("attack_names", self.attack_names)):
            if not values:
                raise _refused(field, "must not be empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise _refused(f"{field}[{i}]", f"{field} lists an entry twice: {list(values)}")
        if not self.hidden_units:
            raise _refused("hidden_units", "must not be empty")
        if not 0 < self.delta < 1:
            raise _refused("delta", f"must be in (0, 1), got {self.delta}")
        if not 0 < self.clip_norm < math.inf:
            raise _refused("clip_norm", f"must be finite and > 0, got {self.clip_norm}")


def check_runnable(experiment: str, cfg: ExperimentConfig) -> None:
    """The rules an experiment kind adds to cfg's own: a batch_mm
    campaign's batch fits in its member set, and a game runs at one
    epsilon with the average-threshold attack. batch_mm_campaign and
    run_games check them on entry, and config.resolve before a run writes
    anything."""
    if experiment == "batch_mm":
        if cfg.train.batch_size > cfg.n_members:
            raise _refused("train.batch_size", f"{cfg.train.batch_size} exceeds n_members "
                           f"{cfg.n_members}")
    elif len(cfg.epsilon_grid) != 1:
        raise _refused("epsilon_grid", f"game experiment {experiment!r} needs exactly one "
                       f"epsilon, got {len(cfg.epsilon_grid)}")
    elif tuple(cfg.attack_names) != ("average_threshold",):
        raise _refused("attack_names", f"must be ['average_threshold'] for game experiment "
                       f"{experiment!r}, got {list(cfg.attack_names)}")


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
    """With emit_traces, traces holds one (row, losses, truth, decisions)
    entry per result row, one value per evaluated sample, members first:
    the cell's losses (one array shared by the cell's attacks), the
    repetition's truth (one array shared by its rows) and the attack's
    decisions."""

    rows: tuple[CampaignRow, ...]
    noise: dict
    notes: tuple[str, ...] = ()
    traces: "tuple[tuple[CampaignRow, np.ndarray, np.ndarray, np.ndarray], ...]" = ()

    @functools.cached_property
    def aggregates(self) -> tuple[Aggregate, ...]:
        """One Aggregate per (ε, attack, scenario), in first-row order;
        computed from rows on first read."""
        return _aggregate(self.rows)

    def aggregate(self, epsilon: float, attack: str, scenario: str) -> Aggregate:
        for agg in self.aggregates:
            if agg.epsilon == epsilon and agg.attack == attack and agg.scenario == scenario:
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
    return bias.rows[np.concatenate([bias.reserve_with[wi], bias.reserve_without[wo]])]


def _train_cells(cfg: ExperimentConfig, cells: list, dims: tuple, noise: dict, rep: int):
    """Step (a) of a repetition: each cell's target model and, with the
    shadow attack, its shadow ensemble (None, with a note, when the shadow
    pool is too small). Each scenario's private targets train as one
    lockstep group and the repetition's non-private targets as one more,
    and each cell trains once. A group that fails names the cell that
    failed in it (nn.train_replicas sets the error's replica); the first
    failure in (scenario, epsilon) order, each target before its ensemble,
    is raised with the cell named. A group's initial models are built
    when it trains, so no other group's are alive meanwhile."""
    jobs, groups = [], {}
    for si, _, d, ei, eps in cells:
        privacy = _privacy_for(cfg, eps, noise[eps][0])
        groups.setdefault(None if privacy is None else si, []).append(len(jobs))
        jobs.append((
            subseed(cfg.seed, 6, rep, si, ei), d.members,
            replace(cfg.train, seed=_seed_int(subseed(cfg.seed, 5, rep, si, ei))), privacy,
        ))
    models, failures = [None] * len(jobs), {}
    for ks in groups.values():
        init_seeds, *rest = zip(*(jobs[k] for k in ks))
        try:
            group = nn.train_replicas([nn.init_model(dims, s) for s in init_seeds], *rest)
        except MialabError as exc:
            if exc.replica is None:
                raise
            failures[ks[exc.replica]] = exc
            continue
        for k, model in zip(ks, group):
            models[k] = model
    ensembles, notes = [], []
    for c, ((si, scenario, d, ei, eps), job) in enumerate(zip(cells, jobs)):
        cell = f"rep {rep} {scenario} eps={eps}"
        if c in failures:
            raise MialabError(f"{cell}: {failures[c]}") from failures[c]
        ensemble = None
        if "shadow" in cfg.attack_names:
            try:
                ensemble = attacks.train_shadow_ensemble(
                    d.shadow_pool, dims, cfg.train, job[-1],
                    seed=_seed_int(subseed(cfg.seed, 7, rep, si, ei)),
                    shadow_train_size=cfg.n_members,
                )
            except ShadowPoolTooSmall as exc:
                notes.append(f"{cell}: {exc}")
            except MialabError as exc:
                raise MialabError(f"{cell}: {exc}") from exc
        ensembles.append(ensemble)
    return models, ensembles, notes


def _score(model: nn.MlpModel, rows: Rows) -> tuple[np.ndarray, float]:
    """Step (b) on one row set: one forward pass gives each row's logloss
    and the accuracy."""
    probs = nn.forward(model, rows.X)
    return nn.loglosses_of(probs, rows.y), nn.accuracy_of(probs, rows.y)


def repetition_pools(cfg: ExperimentConfig, pools: "MixturePools | Callable | None",
                     rep: int) -> "MixturePools | None":
    """The pools repetition rep draws from: the fixed pools, or, when pools
    is a callable from a seed, its pools at the repetition's seed."""
    return pools(subseed(cfg.seed, 1, rep)) if callable(pools) else pools


def _run_repetition(cfg: ExperimentConfig, pools: "MixturePools | Callable",
                    noise: dict, rep: int, emit_traces: bool):
    """One repetition's cells, one per (scenario, epsilon), in three steps:
    (a) train every cell's models, (b) score each target on its members and
    non-members, and (c) let each attack turn the scores into decisions,
    which one advantage call per attack scores against the repetition's
    truth; the cell's result rows, and with emit_traces their traces,
    follow."""
    pools = repetition_pools(cfg, pools, rep)
    n, m = cfg.n_members, cfg.n_nonmembers
    base = draw(pools, n, m, subseed(cfg.seed, 2, rep),
                with_shadow_pool="shadow" in cfg.attack_names)
    counterfactual = iid_counterfactual(base, subseed(cfg.seed, 3, rep))
    val_set = None
    if pools.bias is not None:
        val_set = biased_validation(pools.bias, math.ceil(n / 4), subseed(cfg.seed, 4, rep))
    dims = (base.members.X.shape[1], *cfg.hidden_units, _n_classes(pools.pools))
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
    traces = []
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
                decisions = attacks.average_threshold(member_losses, losses)
            elif name == "optimal_threshold":
                tau = attacks.optimal_threshold(member_losses, nonmember_losses)
                decisions = attacks.threshold_decisions(losses, tau)
            elif ensemble is not None:
                # The shadow attack queries the target on all rows at once,
                # not on step (b)'s row sets: BLAS may round a row of a
                # product differently when the product's row count changes.
                rows_queried = Rows.concat([d.members, d.nonmembers])
                decisions = attacks.shadow_attack(ensemble, model, rows_queried)
            else:
                continue  # skipped; step (a) noted why
            tpr, fpr, adv = attacks.advantage(decisions, truth)
            rows.append(CampaignRow(
                epsilon=eps, attack=name, scenario=scenario, repetition=rep,
                tpr=tpr, fpr=fpr, advantage=adv,
                member_acc=member_acc, nonmember_acc=nonmember_acc,
                validation_acc=validation_acc, sigma=sigma, realized_epsilon=realized,
            ))
            if emit_traces:
                traces.append((rows[-1], losses, truth, decisions))
    return rows, notes, traces


# Student-t 0.975 quantiles for df = 1..100, each written as
# repr(float(scipy.special.stdtrit(df, 0.975))): summary.csv's intervals stay
# bit-equal to stdtrit without a run loading scipy.special (about 0.25 s and
# 18 MB). No closed form is bit-equal; at df = 1, tan(0.475 pi) is 1 ulp high.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def _t975(df: int) -> float:
    """The Student-t 0.975 quantile with df >= 1 degrees of freedom,
    bit-equal to scipy.special.stdtrit(df, 0.975)."""
    if df <= len(_T975):
        return _T975[df - 1]
    from scipy import special

    return float(special.stdtrit(df, 0.975))


def _aggregate(rows: Sequence[CampaignRow]) -> tuple[Aggregate, ...]:
    advantages: dict[tuple, list[float]] = {}
    for row in rows:
        advantages.setdefault((row.epsilon, row.attack, row.scenario), []).append(row.advantage)
    aggs = []
    for (eps, attack, scenario), values in advantages.items():
        mean = float(np.mean(values))
        if len(values) > 1:
            sd = float(np.std(values, ddof=1))
            hw = _t975(len(values) - 1) * sd / math.sqrt(len(values))
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
    pools: "MixturePools | Callable[[int], MixturePools]",
    jobs: int = 1,
    emit_traces: bool = False,
) -> CampaignResult:
    """Run the full advantage-estimation campaign.

    pools are fixed pools (cluster, source and mixture splits build them
    once) or a callable from a seed to pools (attribute-bias pools are
    regenerated per repetition). Repetitions may run in parallel, on at
    most one worker process per repetition; results are identical
    regardless of jobs. With emit_traces, the result also carries each
    result row's losses and decisions (CampaignResult.traces).
    """
    check_runnable("batch_mm", cfg)
    noise = noise_for_grid(cfg)
    top_order = max(dp.DEFAULT_ORDERS)
    order_notes = [
        f"eps={eps}: RDP order {order} is the largest order accounted; "
        "a wider order grid may need less noise"
        for eps, (_, _, order) in noise.items()
        if order == top_order
    ]
    args = (cfg, pools, noise)
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
    # Each repetition's rows, notes and traces, joined in repetition order.
    rows, notes, traces = (tuple(x for part in parts for x in part) for parts in zip(*results))
    return CampaignResult(rows=rows, noise=noise, notes=(*order_notes, *notes), traces=traces)
