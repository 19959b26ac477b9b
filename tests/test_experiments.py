import concurrent.futures
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from mialab import attacks, config, dp, nn
from mialab.dataio import Rows
from mialab.errors import MialabError, SplitError
from mialab.experiments import (
    CampaignResult,
    CampaignRow,
    ExperimentConfig,
    batch_mm_campaign,
    check_runnable,
    exp_alt,
    exp_iid,
    exp_mm,
    exp_strong,
    _T975,
    _aggregate,
    noise_for_grid,
    run_games,
    strong_challenge,
)
from mialab.rngs import as_generator, subseed
from mialab.splits import MixturePools
from mialab.synthetic import GaussianComponent, mixture_dataset, synthetic_mixture

from conftest import TWO_BLOBS, row_keys

FIXED_MODEL = nn.init_model((2, 4, 2), seed=0)


def fixed_trainer(members, rng):
    return FIXED_MODEL


def real_trainer_factory(epochs=20, hidden=(32,), privacy=None):
    def trainer(members, rng):
        rng = as_generator(rng)
        width = members.X.shape[1]
        classes = max(2, int(members.y.max()) + 1)
        init = nn.init_model((width, *hidden, classes), int(rng.integers(2**31)))
        cfg = nn.TrainConfig(
            epochs=epochs, batch_size=min(100, len(members)),
            seed=int(rng.integers(2**31)),
        )
        return nn.train(init, members, cfg, privacy)

    return trainer


def constant_attack_builder(model, members):
    return lambda rows: np.full(len(rows), attacks.MEMBER)


def optimal_vs_pool_builder(pool):
    """Threshold decider tuned on member losses vs the pool's losses (the
    attacker knows the sampling distribution)."""

    def build(model, members):
        tau = attacks.optimal_threshold(nn.loglosses(model, members), nn.loglosses(model, pool))
        return lambda rows: attacks.threshold_decisions(nn.loglosses(model, rows), tau)

    return build


@pytest.fixture(scope="module")
def overlap_pool():
    comps = (
        GaussianComponent(mean=(0.0, 0.0), cov=1.0, label=0),
        GaussianComponent(mean=(1.5, 1.5), cov=1.0, label=1),
    )
    samples = mixture_dataset(comps, 120, seed=4).samples
    order = np.random.default_rng(0).permutation(len(samples))
    return samples[order]


@pytest.fixture(scope="module")
def hard_pool():
    # weak class signal in 6 dimensions: a small net can only memorize,
    # which is exactly the overfitting the loss attacks feed on
    comps = (
        GaussianComponent(mean=(0.0,) * 6, cov=1.0, label=0),
        GaussianComponent(mean=(0.5,) * 6, cov=1.0, label=1),
    )
    samples = mixture_dataset(comps, 100, seed=4).samples
    order = np.random.default_rng(1).permutation(len(samples))
    return samples[order]


class TestGamesBasics:
    def test_constant_attack_half_success(self, overlap_pool):
        for game in (exp_iid, exp_alt):
            bits = [
                game(constant_attack_builder, fixed_trainer, 30, overlap_pool, seed)
                for seed in range(400)
            ]
            assert np.mean(bits) == pytest.approx(0.5, abs=0.08)

    def test_constant_attack_half_success_strong(self, overlap_pool):
        candidates, s_tilde = overlap_pool[:2], overlap_pool[2:12]
        bits = [
            exp_strong(lambda *a: 0, fixed_trainer, s_tilde, candidates, seed)
            for seed in range(400)
        ]
        assert np.mean(bits) == pytest.approx(0.5, abs=0.08)

    def test_oracle_attack_always_wins_strong(self):
        # an attack that reads the bit off the training set contents
        candidates = Rows([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        s_tilde = Rows([[float(i), 2.0] for i in range(9)], [i % 2 for i in range(9)])
        trained_with = {}

        def spying_trainer(members, rng):
            is_z = (members.X == [1.0, 0.0]).all(axis=1) & (members.y == 0)
            trained_with["z"] = bool(is_z.any())
            return FIXED_MODEL

        def oracle_attack(model, candidates):
            return 0 if trained_with["z"] else 1

        wins = [
            exp_strong(oracle_attack, spying_trainer, s_tilde, candidates, seed)
            for seed in range(50)
        ]
        assert wins == [1] * 50

    def test_strong_challenge_draw(self, blob_pools):
        s_tilde, candidates = strong_challenge(blob_pools, 20, seed=4)
        z, z_prime = row_keys(candidates)
        member_keys = set(row_keys(blob_pools.pools[0]))
        assert len(s_tilde) == 19 and len(candidates) == 2
        assert z not in row_keys(s_tilde)
        assert set(row_keys(s_tilde)) | {z} <= member_keys
        assert z_prime in row_keys(blob_pools.pools[1])
        again = strong_challenge(blob_pools, 20, seed=4)
        assert again[0] == s_tilde and again[1] == candidates
        n = len(blob_pools.pools[0])
        s_tilde, candidates = strong_challenge(blob_pools, n, seed=4)
        assert len(s_tilde) == n - 1 and row_keys(candidates)[0] not in row_keys(s_tilde)
        with pytest.raises(MialabError, match="too small"):
            strong_challenge(blob_pools, n + 1, seed=4)

    def test_strong_rejects_equal_candidates(self):
        with pytest.raises(MialabError, match="differ"):
            exp_strong(lambda *a: 0, fixed_trainer, Rows(np.empty((0, 1)), []),
                       Rows([[1.0], [1.0]], [0, 0]), seed=0)

    def test_seeded_games_deterministic(self, overlap_pool, blob_pools):
        for game in (exp_iid, exp_alt):
            a = game(constant_attack_builder, fixed_trainer, 20, overlap_pool, 123)
            b = game(constant_attack_builder, fixed_trainer, 20, overlap_pool, 123)
            assert a == b
        a = exp_mm(constant_attack_builder, fixed_trainer, 20, blob_pools, 123)
        b = exp_mm(constant_attack_builder, fixed_trainer, 20, blob_pools, 123)
        assert a == b
        candidates, s_tilde = overlap_pool[:2], overlap_pool[2:12]
        attack = lambda model, candidates: 0
        a = exp_strong(attack, fixed_trainer, s_tilde, candidates, 123)
        b = exp_strong(attack, fixed_trainer, s_tilde, candidates, 123)
        assert a == b

    def test_a_numpy_integer_seed_plays_the_stream_of_the_same_int(self, overlap_pool,
                                                                   blob_pools):
        candidates, s_tilde = overlap_pool[:2], overlap_pool[2:12]
        games = [
            lambda trainer, seed: exp_iid(constant_attack_builder, trainer, 20, overlap_pool,
                                          seed),
            lambda trainer, seed: exp_alt(constant_attack_builder, trainer, 20, overlap_pool,
                                          seed),
            lambda trainer, seed: exp_mm(constant_attack_builder, trainer, 20, blob_pools, seed),
            lambda trainer, seed: exp_strong(lambda model, rows: 0, trainer, s_tilde,
                                             candidates, seed),
        ]
        for game in games:
            played = []
            for seed in (5, np.int64(5)):
                members = []
                bit = game(lambda rows, rng: members.append(row_keys(rows)) or FIXED_MODEL, seed)
                played.append((members, bit))
            assert played[0] == played[1]
        assert [row_keys(p) for p in synthetic_mixture(TWO_BLOBS, 30, np.int64(5)).pools] == [
            row_keys(p) for p in synthetic_mixture(TWO_BLOBS, 30, 5).pools]

    def test_pool_too_small_errors(self, overlap_pool):
        with pytest.raises(SplitError):
            exp_iid(constant_attack_builder, fixed_trainer, len(overlap_pool), overlap_pool, 0)
        with pytest.raises(SplitError):
            exp_alt(constant_attack_builder, fixed_trainer, len(overlap_pool), overlap_pool, 0)

    def test_mm_pool_too_small_errors(self, constant_pools):
        with pytest.raises(SplitError):
            exp_mm(constant_attack_builder, fixed_trainer, 1000, constant_pools, 0)


# The reference game config: two Gaussian blobs, 40 members, eps = 1.
GAME_DOC = {
    "schema_version": 1, "n_members": 40, "epsilon_grid": [1.0], "repetitions": 12,
    "seed": 7, "attacks": ["average_threshold"],
    "train": {"hidden_units": [8], "epochs": 5, "batch_size": 20},
    "data": {
        "kind": "synthetic_mixture",
        "components": [
            {"mean": [0.0, 0.0], "cov": 0.5, "label": 0},
            {"mean": [2.0, 2.0], "cov": 0.5, "label": 1},
        ],
        "n_per_component": 200,
    },
    "split": {"kind": "mixture"},
}

# Success bits of the 12 rounds of each game at GAME_DOC, as games.csv
# records them.
PINNED_GAME_BITS = {
    "iid": [0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1],
    "alt": [0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1],
    "mm": [0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1],
    "strong": [1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0],
}


@pytest.mark.parametrize("experiment", sorted(PINNED_GAME_BITS))
def test_game_bits_pinned(experiment):
    resolved = config.resolve({**GAME_DOC, "experiment": experiment})
    mat = config.materialize(resolved)
    bits = run_games(experiment, resolved.cfg, mat.pools, mat.union_pool)
    assert bits == PINNED_GAME_BITS[experiment]


def test_strong_game_plays_on_an_n_row_member_pool():
    # n - 1 known members plus z: a member pool of exactly n rows suffices.
    resolved = config.resolve({**GAME_DOC, "experiment": "strong", "n_members": 200,
                               "repetitions": 2})
    mat = config.materialize(resolved)
    assert len(mat.pools.pools[mat.pools.k_member]) == 200
    bits = run_games("strong", resolved.cfg, mat.pools, mat.union_pool)
    assert len(bits) == 2 and set(bits) <= {0, 1}


def record_output_widths(monkeypatch):
    """Collect the output width of every model nn.init_model builds."""
    widths = []
    real = nn.init_model

    def init_model(dims, seed):
        widths.append(dims[-1])
        return real(dims, seed)

    monkeypatch.setattr(nn, "init_model", init_model)
    return widths


@pytest.mark.parametrize("experiment", ["mm", "strong", "iid"])
def test_games_size_models_by_the_labels_of_their_pools(monkeypatch, experiment):
    # Three components labelled 0/1/2: a member set of one component must
    # still score a challenge of label 2, so every model has three outputs.
    components = [
        {"mean": [3.0 * k, 0.0], "cov": 0.5, "label": k} for k in range(3)
    ]
    doc = {**GAME_DOC, "experiment": experiment, "repetitions": 4,
           "data": {**GAME_DOC["data"], "components": components}}
    resolved = config.resolve(doc)
    mat = config.materialize(resolved)
    widths = record_output_widths(monkeypatch)
    bits = run_games(experiment, resolved.cfg, mat.pools, mat.union_pool)
    assert len(bits) == 4 and set(bits) <= {0, 1}
    assert widths and set(widths) == {3}


def test_campaign_on_one_label_trains_two_outputs(monkeypatch):
    comps = (
        GaussianComponent(mean=(0.0, 0.0), cov=0.5, label=0),
        GaussianComponent(mean=(2.0, 2.0), cov=0.5, label=0),
    )
    pools = synthetic_mixture(comps, 100, seed=4)
    widths = record_output_widths(monkeypatch)
    cfg = small_campaign_config(repetitions=1, epsilon_grid=(math.inf,))
    result = batch_mm_campaign(cfg, pools=pools)
    assert set(widths) == {2}
    assert len(result.rows) == 4


class TestGamesDerived:
    def test_overfit_iid_beats_coin(self, hard_pool):
        # non-private training memorizes the small noisy set; the
        # distribution-aware threshold attack then wins well over half.
        trainer = real_trainer_factory(epochs=100, hidden=(64,))
        builder = optimal_vs_pool_builder(hard_pool)
        bits = [
            exp_iid(builder, trainer, 40, hard_pool, subseed(900, g))
            for g in range(200)
        ]
        assert np.mean(bits) > 0.55

    def test_mm_deterministic_pools_near_perfect(self, constant_pools):
        # constant pools leak membership through the loss even under DP noise
        from mialab import dp

        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=15.0, clip_norm=1.0)
        trainer = real_trainer_factory(epochs=30, privacy=privacy)
        builder = optimal_vs_pool_builder(constant_pools.flatten())
        bits = [
            exp_mm(builder, trainer, 50, constant_pools, subseed(901, g))
            for g in range(40)
        ]
        assert np.mean(bits) >= 0.9

    def test_mm_identical_pools_reduces_to_iid(self, overlap_pool):
        # split one homogeneous sample set into two pools: the mixture game
        # then matches the IID game statistically.
        half = len(overlap_pool) // 2
        pools = MixturePools(
            pools=(overlap_pool[:half], overlap_pool[half:])
        )
        trainer = real_trainer_factory(epochs=5, hidden=(8,))
        builder = optimal_vs_pool_builder(overlap_pool)
        mm_bits = [
            exp_mm(builder, trainer, 40, pools, subseed(902, g)) for g in range(250)
        ]
        iid_bits = [
            exp_iid(builder, trainer, 40, overlap_pool, subseed(903, g))
            for g in range(250)
        ]
        _, p = two_proportion_z_test(sum(mm_bits), 250, sum(iid_bits), 250)
        assert p > 0.01


def two_proportion_z_test(successes_a: int, n_a: int,
                          successes_b: int, n_b: int) -> tuple[float, float]:
    """Two-sided two-proportion z-test; returns (z, p_value)."""
    if min(n_a, n_b) < 1:
        raise MialabError("both sample sizes must be positive")
    pa, pb = successes_a / n_a, successes_b / n_b
    pooled = (successes_a + successes_b) / (n_a + n_b)
    denom = math.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    if denom == 0.0:
        return 0.0, 1.0
    z = (pa - pb) / denom
    return z, math.erfc(abs(z) / math.sqrt(2))


class TestZTest:
    def test_equal_rates(self):
        z, p = two_proportion_z_test(50, 100, 50, 100)
        assert z == 0.0 and p == 1.0

    def test_clearly_different_rates(self):
        _, p = two_proportion_z_test(90, 100, 50, 100)
        assert p < 1e-6

    def test_degenerate_pooled_rate(self):
        z, p = two_proportion_z_test(0, 10, 0, 10)
        assert (z, p) == (0.0, 1.0)


def small_campaign_config(**overrides):
    defaults = dict(
        n_members=60,
        n_nonmembers=60,
        epsilon_grid=(1.0, math.inf),
        train=nn.TrainConfig(epochs=10, batch_size=60, seed=0),
        hidden_units=(16,),
        repetitions=2,
        attack_names=("average_threshold", "optimal_threshold"),
        seed=77,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_ci_half_width_is_student_t():
    from scipy import stats

    values = [0.1, 0.25, -0.05, 0.4, 0.3]
    for k in range(2, len(values) + 1):
        rows = [
            CampaignRow(1.0, "a", "IID", r, 0.0, 0.0, v, 0.0, 0.0, None, 1.0, 1.0)
            for r, v in enumerate(values[:k])
        ]
        (agg,) = _aggregate(rows)
        sd = float(np.std(values[:k], ddof=1))
        expected = float(stats.t.ppf(0.975, k - 1)) * sd / math.sqrt(k)
        assert agg.ci_half_width == expected and agg.repetitions == k


def test_t_table_is_bitwise_stdtrit():
    from scipy import special

    assert len(_T975) == 100
    for df, t in enumerate(_T975, start=1):
        assert t == float(special.stdtrit(df, 0.975)), df


def test_ci_half_width_beyond_the_t_table_falls_back_to_scipy():
    from scipy import special

    values = [((7 * r) % 11) / 10 - 0.5 for r in range(102)]
    rows = [
        CampaignRow(1.0, "a", "IID", r, 0.0, 0.0, v, 0.0, 0.0, None, 1.0, 1.0)
        for r, v in enumerate(values)
    ]
    (agg,) = _aggregate(rows)
    sd = float(np.std(values, ddof=1))
    expected = float(special.stdtrit(101, 0.975)) * sd / math.sqrt(102)
    assert agg.ci_half_width == expected and agg.repetitions == 102


class TestCampaign:
    def test_row_counting_contract(self, blob_pools):
        cfg = small_campaign_config()
        result = batch_mm_campaign(cfg, pools=blob_pools)
        expected = cfg.repetitions * len(cfg.epsilon_grid) * len(cfg.attack_names) * 2
        assert len(result.rows) == expected

    def test_single_repetition_ci_not_applicable(self, blob_pools):
        cfg = small_campaign_config(repetitions=1)
        result = batch_mm_campaign(cfg, pools=blob_pools)
        assert all(math.isnan(a.ci_half_width) for a in result.aggregates)

    def test_aggregates_derive_from_rows(self, blob_pools):
        result = batch_mm_campaign(small_campaign_config(repetitions=2), pools=blob_pools)
        assert "aggregates" not in {f.name for f in fields(CampaignResult)}
        assert result.aggregates == _aggregate(result.rows)
        assert all(a.repetitions == 2 for a in result.aggregates)
        assert result.aggregates is result.aggregates

    def test_aggregate_matches_epsilon_exactly(self):
        rows = [CampaignRow(eps, "a", "IID", 0, 0.0, 0.0, 0.1, 0.0, 0.0, None, 1.0, 1.0)
                for eps in (1.0, math.inf)]
        result = CampaignResult(rows=tuple(rows), noise={})
        assert result.aggregate(math.inf, "a", "IID").epsilon == math.inf
        for missing in (-math.inf, 2.0):
            with pytest.raises(KeyError):
                result.aggregate(missing, "a", "IID")

    def test_deterministic_across_runs(self, blob_pools):
        cfg = small_campaign_config()
        a = batch_mm_campaign(cfg, pools=blob_pools)
        b = batch_mm_campaign(cfg, pools=blob_pools)
        assert a.rows == b.rows

    def test_identical_pools_match_counterfactual_statistics(self, overlap_pool):
        half = len(overlap_pool) // 2
        pools = MixturePools(
            pools=(overlap_pool[:half], overlap_pool[half:])
        )
        cfg = small_campaign_config(
            repetitions=6, epsilon_grid=(math.inf,),
            attack_names=("optimal_threshold",), seed=5,
        )
        result = batch_mm_campaign(cfg, pools=pools)
        dependent = result.aggregate(math.inf, "optimal_threshold", "non-IID")
        iid = result.aggregate(math.inf, "optimal_threshold", "IID")
        spread = dependent.ci_half_width + iid.ci_half_width
        assert abs(dependent.mean_advantage - iid.mean_advantage) <= max(spread, 0.1)

    def test_shadow_skip_recorded_not_failed(self, blob_pools):
        cfg = small_campaign_config(
            n_members=290, n_nonmembers=290, repetitions=1,
            epsilon_grid=(math.inf,),
            attack_names=("shadow",),
        )
        # leftovers after drawing 290 of 300 per pool are too thin for shadows
        result = batch_mm_campaign(cfg, pools=blob_pools)
        assert len(result.rows) == 0
        assert any("shadow attack skipped" in note for note in result.notes)

    def test_noise_for_grid_epsilon_handling(self):
        cfg = small_campaign_config(epsilon_grid=(1.0, math.inf))
        noise = noise_for_grid(cfg)
        sigma, realized, order = noise[1.0]
        assert sigma > 0 and 0.97 <= realized <= 1.0
        q = nn.sampling_rate(cfg.n_members, cfg.train)
        steps = nn.training_steps(cfg.n_members, cfg.train)
        assert order == dp.account(q, sigma, steps, cfg.delta).order
        assert noise[math.inf] == (0.0, math.inf, None)

    def test_pool_builder_regenerates_per_repetition(self, attr_schema):
        from mialab.dataio import Dataset
        from mialab.splits import attribute_bias_pools

        rng = np.random.default_rng(3)
        samples = Rows(rng.normal(size=(400, 2)), np.arange(400) % 2, ["v", "w"] * 200)
        data = Dataset(schema=attr_schema, samples=samples)
        seen = []

        def builder(seed):
            pools = attribute_bias_pools(data, "v", 0.8, 60, seed)
            seen.append(pools.pools[0].X.tobytes() + pools.pools[0].y.tobytes())
            return pools

        cfg = small_campaign_config(
            repetitions=2, epsilon_grid=(math.inf,), seed=13,
            attack_names=("average_threshold",),
        )
        result = batch_mm_campaign(cfg, pools=builder)
        assert len(seen) == 2 and seen[0] != seen[1]
        # biased validation accuracy recorded for the dependent scenario
        dependent_rows = [r for r in result.rows if r.scenario == "non-IID"]
        assert all(r.validation_acc is not None for r in dependent_rows)
        iid_rows = [r for r in result.rows if r.scenario == "IID"]
        assert all(r.validation_acc is None for r in iid_rows)

    def test_parallel_jobs_match_serial(self, blob_pools):
        cfg = small_campaign_config(repetitions=2)
        serial = batch_mm_campaign(cfg, pools=blob_pools, jobs=1)
        parallel = batch_mm_campaign(cfg, pools=blob_pools, jobs=2)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("jobs,repetitions,workers", [
        (64, 2, [2]), (64, 1, []), (2, 3, [2]),
    ])
    def test_jobs_are_capped_at_the_repetitions(
        self, monkeypatch, blob_pools, jobs, repetitions, workers
    ):
        created = []

        class InProcessExecutor:
            """Records max_workers and runs each call in this process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        cfg = small_campaign_config(repetitions=repetitions)
        serial = batch_mm_campaign(cfg, pools=blob_pools)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
        result = batch_mm_campaign(cfg, pools=blob_pools, jobs=jobs)
        assert created == workers
        assert result.rows == serial.rows

    @pytest.mark.parametrize("field,values", [
        ("epsilon_grid", (1.0, 1.0, math.inf)),
        ("epsilon_grid", (math.inf, 2.0, math.inf)),
        ("attack_names", ("average_threshold", "average_threshold")),
    ])
    def test_repeated_entries_are_refused(self, field, values):
        with pytest.raises(MialabError, match=f"{field} lists an entry twice"):
            small_campaign_config(**{field: values})


@pytest.mark.parametrize("change, field", [
    ({"epsilon_grid": (math.nan,)}, "epsilon_grid[0]"),
    ({"epsilon_grid": (1.0, -1.0)}, "epsilon_grid[1]"),
    ({"epsilon_grid": ()}, "epsilon_grid"),
    ({"clip_norm": -1.0}, "clip_norm"),
    ({"clip_norm": math.nan}, "clip_norm"),
    ({"clip_norm": math.inf}, "clip_norm"),
    ({"hidden_units": ()}, "hidden_units"),
    ({"hidden_units": (0,)}, "hidden_units[0]"),
    ({"hidden_units": (8, 2.0)}, "hidden_units[1]"),
    ({"seed": -3}, "seed"),
    ({"n_members": 0}, "n_members"),
    ({"n_nonmembers": 1.5}, "n_nonmembers"),
    ({"repetitions": 0}, "repetitions"),
    ({"delta": math.nan}, "delta"),
    ({"attack_names": ("average_threshold", "mystery")}, "attack_names[1]"),
    ({"attack_names": ()}, "attack_names"),
])
def test_experiment_config_refuses_a_value_naming_its_field(change, field):
    with pytest.raises(MialabError) as refused:
        small_campaign_config(**change)
    assert refused.value.field == field


def test_entry_rules_name_their_field(blob_pools):
    cfg = small_campaign_config(train=nn.TrainConfig(epochs=1, batch_size=61))
    with pytest.raises(MialabError, match="^train.batch_size: 61 exceeds n_members 60$"):
        batch_mm_campaign(cfg, pools=blob_pools)
    with pytest.raises(MialabError, match="needs exactly one epsilon, got 2$") as refused:
        run_games("mm", small_campaign_config(), blob_pools, None)
    assert refused.value.field == "epsilon_grid"


@pytest.mark.parametrize("experiment", ["iid", "mm", "alt", "strong"])
def test_games_refuse_other_attacks(blob_pools, experiment):
    cfg = small_campaign_config(epsilon_grid=(1.0,), attack_names=("shadow",))
    with pytest.raises(MialabError, match=r"^attack_names: must be \['average_threshold'\] "
                       rf"for game experiment '{experiment}', got \['shadow'\]$") as refused:
        run_games(experiment, cfg, blob_pools, blob_pools.flatten())
    assert refused.value.field == "attack_names"
    # a list names its attacks as the equal tuple does
    check_runnable(experiment, replace(cfg, attack_names=["average_threshold"]))
    with pytest.raises(MialabError, match=r"got \['shadow'\]$"):
        check_runnable(experiment, replace(cfg, attack_names=["shadow"]))


@pytest.mark.parametrize("experiment, pools, union, message", [
    ("mm", None, True, "needs fixed pools"),
    ("strong", None, True, "needs fixed pools"),
    ("mm", "per repetition", True, "needs fixed pools"),
    ("strong", "per repetition", True, "needs fixed pools"),
    ("iid", "fixed", False, "needs a union pool"),
    ("alt", "fixed", False, "needs a union pool"),
])
def test_games_refuse_missing_pools(blob_pools, experiment, pools, union, message):
    cfg = small_campaign_config(epsilon_grid=(1.0,), attack_names=("average_threshold",))
    pools = {None: None, "fixed": blob_pools, "per repetition": lambda seed: blob_pools}[pools]
    with pytest.raises(MialabError, match=f"^game '{experiment}' {message}"):
        run_games(experiment, cfg, pools, blob_pools.flatten() if union else None)


@pytest.mark.parametrize("jobs", [1, 2])
def test_traces_hold_each_rows_arrays(blob_pools, jobs):
    cfg = small_campaign_config(train=nn.TrainConfig(epochs=2, batch_size=60, seed=0))
    assert batch_mm_campaign(cfg, pools=blob_pools, jobs=jobs).traces == ()
    result = batch_mm_campaign(cfg, pools=blob_pools, jobs=jobs, emit_traces=True)
    assert len(result.traces) == len(result.rows) == 2 * 2 * 2 * 2
    for row, (traced_row, losses, truth, decisions) in zip(result.rows, result.traces):
        assert traced_row is row
        assert losses.shape == truth.shape == decisions.shape == (120,)
        assert attacks.advantage(decisions, truth) == (row.tpr, row.fpr, row.advantage)
    # a repetition's rows share its one truth array, members first
    for rep in range(cfg.repetitions):
        truths = {id(t) for row, _, t, _ in result.traces if row.repetition == rep}
        assert len(truths) == 1
    assert result.traces[0][2].tolist() == [attacks.MEMBER] * 60 + [attacks.NONMEMBER] * 60
    # a cell's two attacks share its loss vector
    for average, optimal in zip(result.traces[::2], result.traces[1::2]):
        assert (average[0].attack, optimal[0].attack) == ("average_threshold",
                                                           "optimal_threshold")
        assert average[1] is optimal[1]


def train_alone(inits, member_sets, cfgs, privacy=None):
    """nn.train_replicas, each replica trained on its own."""
    privacies = list(privacy) if isinstance(privacy, (list, tuple)) else [privacy] * len(inits)
    return [nn.train(*job) for job in zip(inits, member_sets, cfgs, privacies)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_grouped_cells_match_cells_trained_alone(monkeypatch, blob_pools, jobs):
    cfg = small_campaign_config(
        epsilon_grid=(0.5, 1.0, 2.0, math.inf), train=nn.TrainConfig(epochs=4, batch_size=20),
        attack_names=("average_threshold", "optimal_threshold", "shadow"),
    )
    grouped = batch_mm_campaign(cfg, pools=blob_pools, jobs=jobs, emit_traces=True)
    sizes = []

    def alone(inits, *rest):
        sizes.append(len(inits))
        return train_alone(inits, *rest)

    monkeypatch.setattr(nn, "train_replicas", alone)
    one_by_one = batch_mm_campaign(cfg, pools=blob_pools, jobs=jobs, emit_traces=True)
    assert len(grouped.rows) == 2 * 2 * 4 * 3  # reps x scenarios x eps x attacks
    assert grouped.rows == one_by_one.rows
    assert len(grouped.traces) == len(one_by_one.traces) == len(grouped.rows)
    for (row, *arrays), (row_alone, *arrays_alone) in zip(grouped.traces, one_by_one.traces):
        assert row == row_alone
        for array, array_alone in zip(arrays, arrays_alone):  # losses, truth, decisions
            np.testing.assert_array_equal(array, array_alone)
    assert grouped.notes == one_by_one.notes
    if jobs == 1:
        # each scenario's three private targets, then the two non-private ones
        assert sizes[:3] == [3, 2, 3]


@pytest.mark.parametrize("grid,cell", [
    ((2.0, 1.0, math.inf), (1, 1)),
    ((2.0, 1.0, math.inf), (1, 2)),
    ((math.inf, 1.0), (0, 1)),
])
def test_failing_cell_is_named_after_grouping(monkeypatch, blob_pools, grid, cell):
    # The one target whose init is blown up to 1e300 diverges at step 0;
    # its group fails, and every other cell trains as usual.
    cfg = small_campaign_config(epsilon_grid=grid, repetitions=1)
    real = nn.init_model

    def init_model(dims, seed):
        model = real(dims, seed)
        if list(seed.entropy) == [cfg.seed, 6, 0, *cell]:
            model = nn.MlpModel(dims, tuple(W * 1e300 for W in model.weights), model.biases)
        return model

    monkeypatch.setattr(nn, "init_model", init_model)
    scenario = ("non-IID", "IID")[cell[0]]
    what = "training loss" if math.isinf(grid[cell[1]]) else "per-example gradient norm"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        MialabError, match=f"^rep 0 {scenario} eps={grid[cell[1]]}: non-finite {what}"
    ):
        batch_mm_campaign(cfg, pools=blob_pools)


@pytest.mark.parametrize("grid", [(math.inf,), (math.inf, 1.0)])
def test_non_finite_parameters_name_the_cell(monkeypatch, blob_pools, grid):
    # Every target's parameters turn infinite at its first Adam step, as an
    # infinite learning rate would make them if TrainConfig took one; the
    # first cell in (scenario, epsilon) order is named, whichever group
    # trained first.
    real_adam = nn._adam

    def adam(params, *rest):
        real_adam(params, *rest)
        params[...] = math.inf

    monkeypatch.setattr(nn, "_adam", adam)
    cfg = small_campaign_config(epsilon_grid=grid, repetitions=1, train=nn.TrainConfig(
        epochs=2, batch_size=60))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        MialabError, match=r"^rep 0 non-IID eps=inf: layer 0: non-finite parameter$"
    ):
        batch_mm_campaign(cfg, pools=blob_pools)


def test_failing_cell_is_named_without_training_a_cell_again(monkeypatch, blob_pools):
    # The cell (IID, 1.0) diverges at step 0. Its group's error names it,
    # so no cell trains twice and nn.train is never called.
    cfg = small_campaign_config(epsilon_grid=(2.0, 1.0, math.inf), repetitions=1)
    real_init, real_group = nn.init_model, nn.train_replicas
    group_sizes = []

    def init_model(dims, seed):
        model = real_init(dims, seed)
        if list(seed.entropy) == [cfg.seed, 6, 0, 1, 1]:
            model = nn.MlpModel(dims, tuple(W * 1e300 for W in model.weights), model.biases)
        return model

    def train_replicas(inits, *rest):
        group_sizes.append(len(inits))
        return real_group(inits, *rest)

    def train(*args, **kwargs):
        raise AssertionError("a cell was trained again")

    monkeypatch.setattr(nn, "init_model", init_model)
    monkeypatch.setattr(nn, "train_replicas", train_replicas)
    monkeypatch.setattr(nn, "train", train)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        MialabError, match=r"^rep 0 IID eps=1.0: non-finite per-example gradient norm"
    ):
        batch_mm_campaign(cfg, pools=blob_pools)
    assert sorted(group_sizes) == [2, 2, 2]  # six cells, each trained once


def test_aggregates_group_rows_in_first_row_order():
    rows = [(1.0, "a", "IID", 0.1), (math.inf, "a", "IID", 0.2), (1.0, "b", "IID", 0.3),
            (1.0, "a", "IID", 0.4), (1.0, "a", "non-IID", 0.5), (math.inf, "a", "IID", 0.6)]
    aggs = _aggregate([
        CampaignRow(eps, attack, scenario, rep, adv, 0.0, adv, 1.0, 1.0, None, 0.0, eps)
        for rep, (eps, attack, scenario, adv) in enumerate(rows)
    ])
    assert [(a.epsilon, a.attack, a.scenario) for a in aggs] == list(dict.fromkeys(
        r[:3] for r in rows))
    for agg in aggs:
        values = [r[3] for r in rows if r[:3] == (agg.epsilon, agg.attack, agg.scenario)]
        assert (agg.repetitions, agg.mean_advantage) == (len(values), float(np.mean(values)))
