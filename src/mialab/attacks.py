"""Black-box membership attacks and the advantage metric.

Each attack returns one decision per row it is given, whatever the row
set; advantage alone scores decisions against the truth. Bit conventions,
used everywhere: decision 0 claims "member", 1 claims "non-member"; truth
0 marks an actual member. TPR is the member-claim rate on true members,
FPR the member-claim rate on true non-members, and the advantage is
TPR - FPR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import nn
from .dataio import Rows, distinct
from .errors import MialabError, ShadowPoolTooSmall
from .rngs import as_generator, subseed

MEMBER = 0
NONMEMBER = 1

DEFAULT_N_SHADOWS = 5
DEFAULT_ATTACK_HIDDEN = 64


def advantage(decisions, truth) -> tuple[float, float, float]:
    """(TPR, FPR, advantage), computed exactly in rationals then cast."""
    d = np.asarray(decisions, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if d.shape != t.shape:
        raise MialabError(f"decisions shape {d.shape} != truth shape {t.shape}")
    n_members = int(np.sum(t == MEMBER))
    n_nonmembers = int(np.sum(t == NONMEMBER))
    if n_members == 0 or n_nonmembers == 0:
        raise MialabError("truth must contain both members and non-members")
    tpr = Fraction(int(np.sum((t == MEMBER) & (d == MEMBER))), n_members)
    fpr = Fraction(int(np.sum((t == NONMEMBER) & (d == MEMBER))), n_nonmembers)
    return float(tpr), float(fpr), float(tpr - fpr)


def threshold_decisions(losses, tau: float) -> np.ndarray:
    """Claim member exactly when loss < tau (ties go to non-member)."""
    losses = np.asarray(losses, dtype=np.float64)
    return np.where(losses < tau, MEMBER, NONMEMBER)


def average_threshold(train_losses, eval_losses) -> np.ndarray:
    """Threshold attack: one decision per evaluation loss, with the mean
    training loss as the threshold."""
    if len(train_losses) == 0:
        raise MialabError("average_threshold needs at least one training loss")
    return threshold_decisions(eval_losses, float(np.mean(train_losses)))


def optimal_threshold(member_losses, nonmember_losses) -> float:
    """The threshold that maximizes the advantage on these very losses (in
    sample); threshold_decisions applies it.

    Sweeps midpoints between consecutive distinct pooled losses (the upper
    loss where the two are adjacent floats) plus both infinities; among
    maximizers the smallest threshold wins.
    """
    m = np.asarray(member_losses, dtype=np.float64)
    nm = np.asarray(nonmember_losses, dtype=np.float64)
    if m.size == 0 or nm.size == 0:
        raise MialabError("optimal_threshold needs losses on both sides")
    pooled = distinct(np.concatenate([m, nm]))
    lo, hi = pooled[:-1], pooled[1:]
    mid = (lo + hi) / 2.0
    # Between adjacent floats the midpoint rounds onto lo, which loss < tau
    # cannot separate from hi; hi itself separates them.
    candidates = np.concatenate([[-math.inf], np.where(mid > lo, mid, hi), [math.inf]])
    m_sorted = np.sort(m)
    nm_sorted = np.sort(nm)
    tpr = np.searchsorted(m_sorted, candidates, side="left") / m.size
    fpr = np.searchsorted(nm_sorted, candidates, side="left") / nm.size
    adv = tpr - fpr
    best = int(np.argmax(adv))  # argmax returns the first (smallest) maximizer
    return float(candidates[best])


@dataclass(frozen=True)
class ShadowEnsemble:
    attack_models: dict
    fallback_model: "nn.MlpModel | None"


def train_shadow_ensemble(
    shadow_pool: Rows,
    layer_dims: Sequence[int],
    cfg: nn.TrainConfig,
    privacy=None,
    seed: int = 0,
    shadow_train_size: "int | None" = None,
) -> ShadowEnsemble:
    """Train DEFAULT_N_SHADOWS shadow models on in/out halves of the shadow
    pool, then one attack model per class mapping the target's probability
    vector to a member/non-member decision, plus a pooled fallback when some
    class of the output layer has no attack model of its own.

    Shadow models use the target architecture and the given privacy
    setting; every model trained here keeps cfg's fields except its batch
    size and seed. The shadows train as one lockstep group and the attack
    models as another (a class with fewer records than cfg's batch size
    trains on all of them at once). Raises
    ShadowPoolTooSmall when the pool cannot supply disjoint in/out halves.
    """
    size = shadow_train_size if shadow_train_size is not None else len(shadow_pool) // 2
    if size < 1 or len(shadow_pool) < 2 * size:
        raise ShadowPoolTooSmall(
            f"shadow attack skipped: pool of {len(shadow_pool)} cannot supply "
            f"{2 * size or 2} disjoint in/out samples"
        )
    n_classes = int(layer_dims[-1])
    outs, jobs = [], []  # each shadow's out-half stays indices until it is queried
    for j in range(DEFAULT_N_SHADOWS):
        rng = as_generator(subseed(seed, 101, j))
        idx = rng.choice(len(shadow_pool), size=2 * size, replace=False)
        outs.append(idx[size:])
        shadow_cfg = replace(
            cfg,
            batch_size=min(cfg.batch_size, size),
            seed=int(np.random.default_rng(subseed(seed, 103, j)).integers(2**31)),
        )
        jobs.append((nn.init_model(layer_dims, subseed(seed, 102, j)), shadow_pool[idx[:size]],
                     shadow_cfg))
    shadows = nn.train_replicas(*zip(*jobs), privacy)
    # One record per shadow query, in order: the shadow's probability
    # vector, the queried row's label, and the membership bit.
    probs, labels, membership = [], [], []
    for shadow, (_, in_rows, _), out in zip(shadows, jobs, outs):
        for queried, bit in ((in_rows, MEMBER), (shadow_pool[out], NONMEMBER)):
            probs.append(nn.forward(shadow, queried.X))
            labels.append(queried.y)
            membership.append(np.full(len(queried), bit))
    records = Rows(np.concatenate(probs), np.concatenate(membership))
    labels = np.concatenate(labels)
    attack_seed = int(np.random.default_rng(subseed(seed, 104)).integers(2**31))

    def attack_job(records: Rows, init_seed) -> tuple:
        init = nn.init_model((n_classes, DEFAULT_ATTACK_HIDDEN, 2), init_seed)
        attack_cfg = replace(
            cfg, batch_size=min(cfg.batch_size, max(1, len(records))), seed=attack_seed
        )
        return init, records, attack_cfg

    classes, jobs = [], []
    for c in distinct(labels):
        of_class = records[labels == c]
        if distinct(of_class.y).size == 2:
            classes.append(int(c))
            jobs.append(attack_job(of_class, subseed(seed, 105, c)))
    if len(classes) < n_classes:
        jobs.append(attack_job(records, subseed(seed, 106)))
    models = nn.train_replicas(*zip(*jobs))
    return ShadowEnsemble(
        attack_models=dict(zip(classes, models)),
        fallback_model=models[-1] if len(models) > len(classes) else None,
    )


def shadow_attack(
    ensemble: ShadowEnsemble,
    target_model: nn.MlpModel,
    rows: Rows,
) -> np.ndarray:
    """One decision per row: query the target's probability vector for the
    row, route it to the attack model of the row's class (or the pooled
    fallback), and claim member when the member score exceeds 0.5."""
    probs = nn.forward(target_model, rows.X)
    decisions = np.empty(len(rows), dtype=np.int64)
    for c in distinct(rows.y):
        attack_model = ensemble.attack_models.get(int(c), ensemble.fallback_model)
        if attack_model is None:
            raise MialabError(f"no attack model for class {int(c)} and no fallback")
        scores = nn.forward(attack_model, probs[rows.y == c])[:, MEMBER]
        decisions[rows.y == c] = np.where(scores > 0.5, MEMBER, NONMEMBER)
    return decisions


def strong_loss_attack(model: nn.MlpModel, candidates: Rows) -> int:
    """Strong-adversary guess between the two candidate rows: the one with
    the lower loss is the one that was trained on (bit 0 means row 0)."""
    losses = nn.loglosses(model, candidates)
    return MEMBER if losses[0] < losses[1] else NONMEMBER


def average_threshold_decider(
    model: nn.MlpModel, members: Rows
) -> Callable[[Rows], np.ndarray]:
    """Decision function for the membership games: average_threshold of
    the members' losses, one bit per row."""
    member_losses = nn.loglosses(model, members)
    return lambda rows: average_threshold(member_losses, nn.loglosses(model, rows))

