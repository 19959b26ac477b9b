import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab import config
from mialab.dataio import Rows
from mialab.errors import SplitError
from mialab.splits import (
    MixturePools,
    attribute_bias_pools,
    cluster_split,
    draw,
    iid_counterfactual,
    kmeans,
    source_split,
)
from mialab.synthetic import GaussianComponent, mixture_dataset

from conftest import row_keys, samples_from_array

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def brute_force_two_partition_sse(points):
    """Exhaustive minimum within-cluster SSE over all 2-partitions."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)
        sse = 0.0
        for c in (0, 1):
            group = pts[labels == c]
            if len(group):
                sse += float(np.sum((group - group.mean(axis=0)) ** 2))
        best = min(best, sse)
    return best


class TestKmeans:
    def test_separated_pairs(self):
        result = kmeans([0.0, 0.0, 10.0, 10.0], k=2, seed=0)
        labels = result.labels
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_single_cluster(self):
        result = kmeans([1.0, 2.0, 3.0], k=1, seed=0)
        assert set(result.labels.tolist()) == {0}

    def test_sse_matches_brute_force_on_known_instance(self):
        # {0,1,9,10} with k=2 splits {0,1} vs {9,10}, SSE 1.0 total.
        result = kmeans([0.0, 1.0, 9.0, 10.0], k=2, seed=0)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]
        assert result.sse == pytest.approx(1.0)
        assert brute_force_two_partition_sse([[0.0], [1.0], [9.0], [10.0]]) == pytest.approx(1.0)

    def test_empty_input_errors(self):
        with pytest.raises(SplitError):
            kmeans([], k=2, seed=0)

    def test_k_exceeding_distinct_points_errors(self):
        with pytest.raises(SplitError, match="distinct"):
            kmeans([1.0, 1.0, 1.0], k=2, seed=0)

    def test_sse_history_monotone_descent(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 3))
        result = kmeans(pts, k=4, seed=1)
        history = result.sse_history
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    def test_lloyd_path_finds_structured_optimum(self):
        # 18 distinct points (above the exact-enumeration limit) in two
        # well-separated groups; restarts must land on the global optimum.
        rng = np.random.default_rng(11)
        pts = np.vstack(
            [rng.normal((0, 0), 0.4, size=(9, 2)), rng.normal((6, 6), 0.4, size=(9, 2))]
        )
        result = kmeans(pts, k=2, seed=3)
        assert result.sse == pytest.approx(brute_force_two_partition_sse(pts), abs=1e-8)
        assert len(result.sse_history) > 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_optimum_small_instances(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        dim = data.draw(st.integers(min_value=1, max_value=3))
        pts = data.draw(
            st.lists(
                st.lists(
                    st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=dim, max_size=dim,
                ),
                min_size=n, max_size=n,
            )
        )
        if np.unique(np.asarray(pts), axis=0).shape[0] < 2:
            return
        result = kmeans(pts, k=2, seed=7)
        assert result.sse == pytest.approx(brute_force_two_partition_sse(pts), abs=1e-8)


def four_mode_dataset(n_per=60, seed=7):
    comps = [
        GaussianComponent(mean=(0.0, 0.0), cov=0.05, label=0),
        GaussianComponent(mean=(6.0, 3.0), cov=0.05, label=0),
        GaussianComponent(mean=(0.0, 3.0), cov=0.05, label=1),
        GaussianComponent(mean=(6.0, 0.0), cov=0.05, label=1),
    ]
    return mixture_dataset(comps, n_per, seed=seed)


class TestClusterSplit:
    def test_bimodal_classes_one_mode_per_pool(self):
        data = four_mode_dataset()
        pools = cluster_split(data, seed=1)
        assert pools.sizes() == (120, 120)
        for pool in pools.pools:
            labels = set(pool.y.tolist())
            assert labels == {0, 1}
        # canonical pool 1 holds the small-first-coordinate modes
        assert np.all(pools.pools[0].X[:, 0] < 3.0)
        assert np.all(pools.pools[1].X[:, 0] > 3.0)

    def test_class_with_single_point_errors(self):
        samples = samples_from_array(
            np.array([[0.0], [1.0], [2.0]]), np.array([0, 0, 1])
        )
        data = four_mode_dataset(5)
        import dataclasses

        tiny = dataclasses.replace(data, samples=samples)
        with pytest.raises(SplitError, match="class 1"):
            cluster_split(tiny, seed=0)

    def test_seeded_rerun_identical(self):
        data = four_mode_dataset()
        a = cluster_split(data, seed=5)
        b = cluster_split(data, seed=5)
        assert a.pools == b.pools


def attr_samples(n_with, n_without, offset=0):
    X = [[float(offset + i), 0.0] for i in range(n_with)]
    X += [[float(offset + i), 1.0] for i in range(n_without)]
    y = [i % 2 for i in range(n_with)] + [i % 2 for i in range(n_without)]
    return Rows(np.reshape(X, (-1, 2)), y, ["v"] * n_with + ["w"] * n_without)


@pytest.fixture
def attr_dataset(attr_schema):
    import dataclasses

    from mialab.dataio import Dataset

    samples = attr_samples(300, 300)
    return Dataset(schema=attr_schema, samples=samples)


class TestAttributeBias:
    @pytest.mark.parametrize(
        "p,n,expect_with", [(0.5, 100, 50), (1.0, 100, 100), (0.33, 10, 4)]
    )
    def test_member_pool_composition(self, attr_dataset, p, n, expect_with):
        pools = attribute_bias_pools(attr_dataset, "v", p, n, seed=0)
        d1 = pools.pools[0]
        assert len(d1) == n
        assert np.sum(d1.attribute == "v") == expect_with

    def test_nonmember_pool_balanced(self, attr_dataset):
        pools = attribute_bias_pools(attr_dataset, "v", 0.8, 101, seed=0)
        d2 = pools.pools[1]
        assert np.sum(d2.attribute == "v") == 50
        assert np.sum(d2.attribute != "v") == 51

    def test_shadow_reserve_capped_per_value(self, attr_dataset):
        n = 100
        pools = attribute_bias_pools(attr_dataset, "v", 0.5, n, seed=0)
        by_value = {
            "v": np.sum(pools.shadow_reserve.attribute == "v"),
            "w": np.sum(pools.shadow_reserve.attribute != "v"),
        }
        assert by_value["v"] <= n and by_value["w"] <= n

    def test_insufficient_samples_error_states_shortfall(self, attr_dataset):
        with pytest.raises(SplitError, match="need"):
            attribute_bias_pools(attr_dataset, "v", 1.0, 400, seed=0)

    def test_pools_disjoint(self, attr_dataset):
        pools = attribute_bias_pools(attr_dataset, "v", 0.7, 120, seed=3)
        keys0 = set(row_keys(pools.pools[0]))
        keys1 = set(row_keys(pools.pools[1]))
        assert not keys0 & keys1


class TestSourceSplit:
    def test_sizes(self, attr_dataset):
        pools = source_split(attr_dataset, "v")
        assert pools.sizes() == (300, 300)

    def test_absent_value_errors(self, attr_dataset):
        with pytest.raises(SplitError, match="does not occur"):
            source_split(attr_dataset, "zzz")

    def test_all_rows_same_value_errors(self, attr_schema):
        from mialab.dataio import Dataset

        data = Dataset(schema=attr_schema, samples=attr_samples(10, 0))
        with pytest.raises(SplitError, match="non-member pool empty"):
            source_split(data, "v")

    def test_one_source_versus_union_of_rest(self, attr_schema):
        from mialab.dataio import Dataset

        cells = [(h, i) for h in range(4) for i in range(10 + h)]
        samples = Rows(
            [[float(i), float(h)] for h, i in cells],
            [i % 2 for _, i in cells],
            [f"hospital-{h}" for h, _ in cells],
        )
        data = Dataset(schema=attr_schema, samples=samples)
        pools = source_split(data, "hospital-2")
        assert pools.sizes() == (12, 10 + 11 + 13)
        assert set(pools.pools[1].attribute.tolist()) == {
            "hospital-0", "hospital-1", "hospital-3"
        }


class TestDraw:
    def test_counts_and_shadow(self, blob_pools):
        d = draw(blob_pools, 100, 80, seed=1)
        assert len(d.members) == 100 and len(d.nonmembers) == 80
        # shadow capped at n_members per pool
        assert len(d.shadow_pool) <= 2 * 100

    def test_disjointness(self, blob_pools):
        d = draw(blob_pools, 150, 150, seed=2)
        members = set(row_keys(d.members))
        nonmembers = set(row_keys(d.nonmembers))
        shadow = set(row_keys(d.shadow_pool))
        assert not members & nonmembers
        assert not members & shadow
        assert not nonmembers & shadow

    def test_full_pool_draw(self, blob_pools):
        d = draw(blob_pools, 300, 10, seed=3)
        assert set(row_keys(d.members)) == set(row_keys(blob_pools.pools[0]))

    def test_insufficient_pool_errors(self, blob_pools):
        with pytest.raises(SplitError, match="need"):
            draw(blob_pools, 301, 10, seed=0)

    def test_seeded_rerun_identical(self, blob_pools):
        a = draw(blob_pools, 50, 50, seed=9)
        b = draw(blob_pools, 50, 50, seed=9)
        assert a.members == b.members and a.nonmembers == b.nonmembers

    def test_uses_shadow_reserve_when_present(self, attr_dataset):
        pools = attribute_bias_pools(attr_dataset, "v", 0.5, 100, seed=0)
        d = draw(pools, 100, 100, seed=1)
        assert d.shadow_pool == pools.shadow_reserve

    def test_without_shadow_pool_the_same_draw(self, blob_pools, attr_dataset):
        # leftover rows, then a shadow reserve
        for pools in (blob_pools, attribute_bias_pools(attr_dataset, "v", 0.5, 100, seed=0)):
            full = draw(pools, 100, 80, seed=4)
            bare = draw(pools, 100, 80, seed=4, with_shadow_pool=False)
            assert bare.members == full.members and bare.nonmembers == full.nonmembers
            assert full.shadow_pool is not None and bare.shadow_pool is None


class TestIidCounterfactual:
    def test_conservation(self, blob_pools):
        d = draw(blob_pools, 60, 40, seed=4)
        c = iid_counterfactual(d, seed=5)
        assert len(c.members) == 60 and len(c.nonmembers) == 40
        before = sorted(row_keys(d.members) + row_keys(d.nonmembers))
        after = sorted(row_keys(c.members) + row_keys(c.nonmembers))
        assert before == after

    def test_seeded_rerun_identical(self, blob_pools):
        d = draw(blob_pools, 60, 40, seed=4)
        assert iid_counterfactual(d, seed=5) == iid_counterfactual(d, seed=5)

    def test_member_fraction_matches_mixing_rate(self, blob_pools):
        # Over many seeds, a fraction n/(n+m) of the original members should
        # land in the new member set.
        n, m = 60, 40
        d = draw(blob_pools, n, m, seed=4)
        member_keys = set(row_keys(d.members))
        fractions = []
        for seed in range(1000):
            c = iid_counterfactual(d, seed=seed)
            fractions.append(
                sum(1 for k in row_keys(c.members) if k in member_keys) / n
            )
        assert np.mean(fractions) == pytest.approx(n / (n + m), abs=0.02)


class TestMixturePoolsInvariants:
    def test_needs_two_pools(self):
        with pytest.raises(SplitError, match="at least 2"):
            MixturePools(pools=(Rows([[1.0]], [0]),))

    def test_rejects_shared_samples(self):
        with pytest.raises(SplitError, match="share"):
            MixturePools(pools=(Rows([[1.0]], [0]), Rows([[1.0]], [0])))

    def test_names_the_two_pools_that_share_a_sample(self):
        pools = (Rows([[1.0], [3.0]], [0, 0]), Rows([[2.0]], [1]), Rows([[0.5], [3.0]], [1, 0]))
        with pytest.raises(SplitError, match="^pools 0 and 2 share a sample$"):
            MixturePools(pools=pools)

    def test_k_member_range(self):
        pools = (Rows([[1.0]], [0]), Rows([[2.0]], [1]))
        with pytest.raises(SplitError, match="out of range"):
            MixturePools(pools=pools, k_member=2)
        for k_member in (0.5, True, "1"):
            with pytest.raises(SplitError, match=f"^k_member: must be an integer >= 0, got "
                               f"{k_member!r}$") as refused:
                MixturePools(pools=pools, k_member=k_member)
            assert refused.value.field == "k_member"
        assert MixturePools(pools=pools, k_member=np.int64(1)).k_member == 1

    def test_with_member_flips_designation(self, blob_pools):
        flipped = blob_pools.with_member(1)
        assert flipped.k_member == 1
        assert flipped.pools == blob_pools.pools

    def test_pools_are_checked_for_overlap_once(self, monkeypatch):
        # config.materialize builds the cluster demo's pools and then picks
        # split.k_member: the second step checks k_member alone
        checks = []
        check = MixturePools._check_disjoint
        monkeypatch.setattr(MixturePools, "_check_disjoint",
                            lambda pools: checks.append(pools) or check(pools))
        doc = json.loads((CONFIGS / "cluster_amplification.json").read_text(encoding="utf-8"))
        doc["split"]["k_member"] = 1
        pools = config.materialize(config.resolve(doc)).pools
        assert pools.k_member == 1 and len(checks) == 1
        assert checks[0].pools == pools.pools and checks[0].k_member == 0
