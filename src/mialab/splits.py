"""Member/non-member pool construction and draws.

A MixturePools value holds K disjoint sample pools; one pool is designated
as the member component. Pools are built from a dataset by clustering,
by biasing an attribute's frequency, or by splitting on an attribute value
(data source). draw() then produces seeded member/non-member sets plus,
when asked, the leftover shadow pool, and iid_counterfactual()
re-partitions a draw to destroy the dependency between the two sides.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, Rows, distinct
from .errors import SplitError, _refused
from .rngs import as_generator, subseed


@dataclass(frozen=True, eq=False)
class BiasInfo:
    """How a biased member pool was built, plus the leftover rows per side,
    as indices into the dataset's rows, so that equally biased validation
    sets can be drawn later."""

    p: float
    rows: Rows
    reserve_with: np.ndarray
    reserve_without: np.ndarray


@dataclass(frozen=True)
class MixturePools:
    pools: tuple[Rows, ...]
    k_member: int = 0
    labels_of_pools: "tuple[str, ...] | None" = None
    shadow_reserve: "Rows | None" = None
    bias: "BiasInfo | None" = None

    def __post_init__(self):
        if len(self.pools) < 2:
            raise SplitError(f"need at least 2 pools, got {len(self.pools)}")
        self._check_member()
        self._check_disjoint()

    def _check_member(self) -> None:
        if isinstance(self.k_member, bool) or not isinstance(self.k_member, (int, np.integer)):
            raise _refused("k_member", f"must be an integer, got {self.k_member!r}", SplitError)
        if not 0 <= self.k_member < len(self.pools):
            raise _refused("k_member", f"{self.k_member} out of range for {len(self.pools)} pools",
                           SplitError)

    def _check_disjoint(self) -> None:
        """A row may repeat inside a pool (zero-variance components) but not
        across pools: after per-pool dedup every key must be unique. One
        array of all keys is sorted in place and compared with itself
        shifted; the pools are searched only for a key that repeats."""
        merged = np.concatenate([pool.keys() for pool in self.pools])
        merged.sort()
        shared = np.flatnonzero(merged[1:] == merged[:-1])
        if shared.size:
            key = merged[shared[0]]
            first, second = [p for p, pool in enumerate(self.pools) if key in pool.keys()][:2]
            raise SplitError(f"pools {first} and {second} share a sample")

    @property
    def n_pools(self) -> int:
        return len(self.pools)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.pools)

    def with_member(self, k_member: int) -> "MixturePools":
        """These pools with pool k_member as the member pool. Only k_member
        is checked: the pools, found disjoint when built, do not change."""
        pools = copy.copy(self)
        object.__setattr__(pools, "k_member", k_member)
        pools._check_member()
        return pools

    def flatten(self) -> Rows:
        return Rows.concat(self.pools)


@dataclass(frozen=True)
class SplitDraw:
    """One draw's members and non-members, and the shadow pool that the
    shadow attack trains on (None when the draw was asked for none)."""

    members: Rows
    nonmembers: Rows
    shadow_pool: "Rows | None"


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    sse: float
    sse_history: tuple[float, ...]


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining mass sits on already-chosen centroids; place the
            # rest uniformly (only distinct-point preconditions reach here).
            centroids[j] = points[rng.integers(n)]
            continue
        probs = d2 / total
        centroids[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray):
    k = centroids.shape[0]
    labels = None
    history = []
    for it in range(_KMEANS_MAX_ITER):
        dist2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist2, axis=1)
        history.append(float(dist2[np.arange(len(points)), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        taken: set[int] = set()
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
        own = np.sum((points - centroids[labels]) ** 2, axis=1)
        for j in range(k):
            if not (labels == j).any():
                # Empty cluster: reseed at the point farthest from its centroid.
                order = np.argsort(-own)
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                centroids[j] = points[pick]
                labels[pick] = j
    sse = float(np.sum((points - centroids[labels]) ** 2))
    return labels, centroids, sse, tuple(history)


def _exact_two_means(pts: np.ndarray) -> KmeansResult:
    """Exhaustive optimal 2-partition for tiny inputs.

    Lloyd restarts can sit in a local optimum even on a handful of points;
    below _EXACT_TWO_MEANS_LIMIT distinct points enumeration is cheap and
    the result is a Lloyd fixed point anyway (the optimal partition is the
    Voronoi split of its own means).
    """
    points, inverse, counts = np.unique(
        pts, axis=0, return_inverse=True, return_counts=True
    )
    m = points.shape[0]
    w = counts.astype(np.float64)
    best_sse, best_side = math.inf, None
    for mask in range(1, 2 ** (m - 1)):
        side = np.zeros(m, dtype=bool)
        for i in range(m - 1):
            if (mask >> i) & 1:
                side[i + 1] = True
        sse = 0.0
        for sel in (side, ~side):
            ww = w[sel]
            mean = (points[sel] * ww[:, None]).sum(axis=0) / ww.sum()
            sse += float((((points[sel] - mean) ** 2).sum(axis=1) * ww).sum())
        if sse < best_sse:
            best_sse, best_side = sse, side.copy()
    labels = best_side[inverse].astype(np.int64)
    centroids = np.stack(
        [pts[labels == 0].mean(axis=0), pts[labels == 1].mean(axis=0)]
    )
    return KmeansResult(labels, centroids, best_sse, (best_sse,))


_EXACT_TWO_MEANS_LIMIT = 16
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300


def kmeans(points, k: int, seed) -> KmeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Runs _KMEANS_RESTARTS independent seeded initializations and keeps the
    lowest within-cluster SSE. Iterates to an assignment fixed point or
    _KMEANS_MAX_ITER.
    k=2 instances with at most 16 distinct points are solved exactly by
    enumeration instead.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise SplitError("kmeans called with no points")
    if k < 1:
        raise SplitError(f"k must be >= 1, got {k}")
    n_distinct = distinct(pts, axis=0).shape[0]
    if k > n_distinct:
        raise SplitError(f"k={k} exceeds the {n_distinct} distinct points")
    if k == 2 and n_distinct <= _EXACT_TWO_MEANS_LIMIT:
        return _exact_two_means(pts)
    rng = as_generator(seed)
    best = None
    for _ in range(_KMEANS_RESTARTS):
        centroids = _plusplus_init(pts, k, rng)
        result = KmeansResult(*_lloyd(pts, centroids))
        if best is None or result.sse < best.sse:
            best = result
    return best


def _canonical_order(centroids: np.ndarray) -> np.ndarray:
    # Lexicographic by coordinates: smaller first coordinate wins, then the
    # second, and so on; keeps "cluster 1" reproducible across runs.
    return np.lexsort(centroids.T[::-1])


def cluster_split(data: Dataset, seed: int, k: int = 2) -> MixturePools:
    """Cluster each class's samples independently and pool cluster i of
    every class into pool i."""
    rows = data.samples
    buckets: list[list[np.ndarray]] = [[] for _ in range(k)]
    for label in distinct(rows.y):
        idx = np.flatnonzero(rows.y == label)
        points = rows.X[idx]
        if distinct(points, axis=0).shape[0] < k:
            raise SplitError(f"class {label} has fewer than {k} distinct points")
        result = kmeans(points, k, subseed(seed, label))
        order = _canonical_order(result.centroids)
        canon = np.empty(k, dtype=np.int64)
        canon[order] = np.arange(k)
        assigned = canon[result.labels]
        for j in range(k):
            buckets[j].append(idx[assigned == j])
    return MixturePools(
        pools=tuple(rows[np.concatenate(b)] for b in buckets),
        k_member=0,
        labels_of_pools=tuple(f"cluster-{i + 1}" for i in range(k)),
    )


def _has_attribute(rows: Rows, value: str) -> np.ndarray:
    if rows.attribute is None:
        return np.zeros(len(rows), dtype=bool)
    return rows.attribute == value


def attribute_bias_pools(
    data: Dataset, value: str, p: float, n: int, seed: int
) -> MixturePools:
    """Build a member pool with a ceil(p*n) / (n - ceil(p*n)) attribute mix
    and a balanced non-member pool of the same size.

    The split attribute itself stays out of the features (dataio never
    encodes it), so the only trace the bias leaves is statistical. Leftover
    samples, capped at n per attribute value, form the shadow reserve; the
    indices of all of them are kept for drawing equally biased validation
    sets.
    """
    if not 0.0 <= p <= 1.0:
        raise SplitError(f"bias p must be in [0, 1], got {p}")
    if n < 1:
        raise SplitError(f"pool size n must be >= 1, got {n}")
    if data.schema.split_attribute_column is None:
        raise SplitError("dataset has no split-attribute column")
    rows = data.samples
    has_value = _has_attribute(rows, value)
    with_v = np.flatnonzero(has_value)
    without_v = np.flatnonzero(~has_value)
    n1_with = math.ceil(p * n)
    n1_without = n - n1_with
    n2_with = n // 2
    n2_without = n - n2_with
    if len(with_v) < n1_with + n2_with:
        raise SplitError(
            f"need {n1_with + n2_with} samples with attribute {value!r}, have {len(with_v)}"
        )
    if len(without_v) < n1_without + n2_without:
        raise SplitError(
            f"need {n1_without + n2_without} samples without attribute {value!r}, "
            f"have {len(without_v)}"
        )
    rng = as_generator(seed)
    w = with_v[rng.permutation(len(with_v))]
    wo = without_v[rng.permutation(len(without_v))]
    d1 = np.concatenate([w[:n1_with], wo[:n1_without]])
    d2 = np.concatenate(
        [w[n1_with : n1_with + n2_with], wo[n1_without : n1_without + n2_without]]
    )
    left_w = w[n1_with + n2_with :]
    left_wo = wo[n1_without + n2_without :]
    shadow = np.concatenate([left_w[:n], left_wo[:n]])
    return MixturePools(
        pools=(rows[d1], rows[d2]),
        k_member=0,
        labels_of_pools=(f"bias[{value}]={p}", "balanced"),
        shadow_reserve=rows[shadow] if shadow.size else None,
        bias=BiasInfo(p, rows, left_w, left_wo),
    )


def source_split(data: Dataset, member_value: str) -> MixturePools:
    """Pool 1 holds the samples whose split attribute equals member_value,
    pool 2 everything else."""
    if data.schema.split_attribute_column is None:
        raise SplitError("dataset has no split-attribute column")
    in_source = _has_attribute(data.samples, member_value)
    if not in_source.any():
        raise SplitError(f"attribute value {member_value!r} does not occur in the data")
    if in_source.all():
        raise SplitError(f"all rows have attribute value {member_value!r}; non-member pool empty")
    return MixturePools(
        pools=(data.samples[in_source], data.samples[~in_source]),
        k_member=0,
        labels_of_pools=(f"source={member_value}", "other-sources"),
    )


def draw(pools: MixturePools, n_members: int, n_nonmembers: int, seed,
         with_shadow_pool: bool = True) -> SplitDraw:
    """Sample members from the member pool and non-members from the union
    of the other pools, both uniformly without replacement. The shadow pool
    is the pools' shadow reserve or, without one, up to n_members leftover
    rows of every pool, drawn after the members and non-members; without
    with_shadow_pool it is None, and the members and non-members are the
    same."""
    rng = as_generator(seed)
    member_pool = pools.pools[pools.k_member]
    others = Rows.concat([pool for k, pool in enumerate(pools.pools) if k != pools.k_member])
    if len(member_pool) < n_members:
        raise SplitError(
            f"member pool has {len(member_pool)} samples, need {n_members}"
        )
    if len(others) < n_nonmembers:
        raise SplitError(
            f"non-member pools have {len(others)} samples, need {n_nonmembers}"
        )
    m_idx = rng.choice(len(member_pool), size=n_members, replace=False)
    nm_idx = rng.choice(len(others), size=n_nonmembers, replace=False)
    if not with_shadow_pool:
        shadow = None
    elif pools.shadow_reserve is not None:
        shadow = pools.shadow_reserve
    else:
        left_member = np.ones(len(member_pool), dtype=bool)
        left_member[m_idx] = False
        left_other = np.ones(len(others), dtype=bool)
        left_other[nm_idx] = False
        parts = []
        offset = 0
        for k, pool in enumerate(pools.pools):
            if k == pools.k_member:
                left = pool[left_member]
            else:
                left = pool[left_other[offset : offset + len(pool)]]
                offset += len(pool)
            order = rng.permutation(len(left))
            parts.append(left[order[:n_members]])
        shadow = Rows.concat(parts)
    return SplitDraw(members=member_pool[m_idx], nonmembers=others[nm_idx], shadow_pool=shadow)


def iid_counterfactual(split: SplitDraw, seed) -> SplitDraw:
    """Merge members and non-members and re-partition into the original
    sizes, destroying any member/non-member dependency."""
    rng = as_generator(seed)
    merged = Rows.concat([split.members, split.nonmembers])
    order = rng.permutation(len(merged))
    n = len(split.members)
    return SplitDraw(
        members=merged[order[:n]], nonmembers=merged[order[n:]], shadow_pool=split.shadow_pool
    )
