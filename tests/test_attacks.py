import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mialab import nn
from mialab.attacks import (
    MEMBER,
    NONMEMBER,
    advantage,
    average_threshold,
    average_threshold_decider,
    optimal_threshold,
    shadow_attack,
    strong_loss_attack,
    threshold_decisions,
    train_shadow_ensemble,
)
from mialab.dataio import Rows
from mialab.errors import MialabError, ShadowPoolTooSmall
from mialab.splits import draw

from reference_accountant import brute_force_best_threshold


def test_bit_conventions_pinned():
    # decision/truth bit 0 means "member" across the whole package
    assert MEMBER == 0 and NONMEMBER == 1


class TestAdvantage:
    def test_all_correct(self):
        tpr, fpr, adv = advantage([0, 0, 1, 1], [0, 0, 1, 1])
        assert (tpr, fpr, adv) == (1.0, 0.0, 1.0)

    def test_arithmetic(self):
        # TPR 0.6 (3 of 5 members claimed), FPR 0.2 (1 of 5 non-members)
        truth = [0] * 5 + [1] * 5
        decisions = [0, 0, 0, 1, 1] + [0, 1, 1, 1, 1]
        tpr, fpr, adv = advantage(decisions, truth)
        assert (tpr, fpr) == (0.6, 0.2)
        assert adv == pytest.approx(0.4)

    def test_coin_has_zero_expected_advantage(self):
        rng = np.random.default_rng(0)
        truth = np.array([0] * 500 + [1] * 500)
        advs = []
        for _ in range(200):
            decisions = rng.integers(0, 2, size=1000)
            advs.append(advantage(decisions, truth)[2])
        assert np.mean(advs) == pytest.approx(0.0, abs=0.01)

    def test_one_sided_truth_errors(self):
        with pytest.raises(MialabError, match="both"):
            advantage([0, 1], [0, 0])


def constant_model(losses_by_position=None):
    # 1-feature, 2-class linear model whose loss is controlled by the input
    return nn.MlpModel((1, 2), (np.array([[1.0, -1.0]]),), (np.zeros(2),))


class TestAverageThreshold:
    def test_below_threshold_claims_member(self):
        assert threshold_decisions([0.3], 0.5)[0] == MEMBER

    def test_tie_claims_nonmember(self):
        assert threshold_decisions([0.5], 0.5)[0] == NONMEMBER

    def test_perfect_separation(self):
        model = constant_model()
        # features chosen so member losses are tiny and non-member losses large
        members = Rows([[8.0]] * 3, [0] * 3)
        eval_losses = nn.loglosses(model, Rows([[8.0]] * 3 + [[-8.0]] * 3, [0] * 6))
        truth = [MEMBER] * 3 + [NONMEMBER] * 3
        train_losses = nn.loglosses(model, members)
        decisions = average_threshold(train_losses, eval_losses)
        assert advantage(decisions, truth)[2] == pytest.approx(0.0)  # tau = mean, ties lose
        # nudging the threshold above the member losses flips all members in
        nudged = threshold_decisions(eval_losses, float(train_losses.mean()) + 1e-6)
        assert advantage(nudged, truth)[2] == pytest.approx(1.0)

    def test_mixed_losses(self):
        model = constant_model()
        train_losses = nn.loglosses(model, Rows([[4.0], [-4.0]], [0, 0]))  # small, large
        eval_losses = nn.loglosses(model, Rows([[4.0], [-4.0], [0.0]], [0, 0, 0]))
        truth = [MEMBER, MEMBER, NONMEMBER]
        decisions = average_threshold(train_losses, eval_losses)
        # tau ~ 2.0; losses ~ (0.0003, 4.02, 0.69) -> claims member, non, member
        assert decisions.dtype == np.int64
        assert decisions.tolist() == [MEMBER, NONMEMBER, MEMBER]
        assert advantage(decisions, truth)[:2] == (0.5, 1.0)

    def test_decides_rows_that_hold_only_non_members(self):
        # a row set such as fresh member-pool rows the target never saw
        # has one class of truth, which advantage refuses; the attack
        # still decides each row
        decisions = average_threshold([0.25, 0.75], [0.125, 0.75, 0.5, 1.0])  # tau 0.5
        assert decisions.tolist() == [MEMBER, NONMEMBER, NONMEMBER, NONMEMBER]
        with pytest.raises(MialabError, match="both"):
            advantage(decisions, [NONMEMBER] * 4)


def in_sample(m, nm) -> tuple[float, float]:
    """optimal_threshold's tau and the advantage it scores on the losses it
    was picked on."""
    tau = optimal_threshold(m, nm)
    decisions = threshold_decisions(np.concatenate([m, nm]), tau)
    return tau, advantage(decisions, [MEMBER] * len(m) + [NONMEMBER] * len(nm))[2]


class TestOptimalThreshold:
    def test_perfect_separation(self):
        tau, adv = in_sample([0.1, 0.2], [0.8, 0.9])
        assert adv == 1.0
        assert 0.2 < tau < 0.8

    def test_interleaved(self):
        tau, adv = in_sample([0.1, 0.9], [0.2, 0.8])
        assert adv == pytest.approx(0.5)

    def test_identical_multisets_zero(self):
        _, adv = in_sample([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert adv == 0.0

    def test_ties_break_toward_smaller_threshold(self):
        tau = optimal_threshold([0.0], [1.0])
        # every tau in (0, 1] achieves advantage 1; the swept midpoints give 0.5
        assert tau == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "lo,hi", [(1.0, float(np.nextafter(1.0, 2.0))), (0.0, 5e-324)], ids=["one", "subnormal"]
    )
    def test_adjacent_floats_separate(self, lo, hi):
        # the midpoint of adjacent floats rounds onto the lower one
        tau, adv = in_sample([lo], [hi])
        assert adv == 1.0
        assert lo < tau <= hi

    @given(
        m=st.lists(st.floats(min_value=0, max_value=5, allow_nan=False), min_size=1, max_size=50),
        nm=st.lists(st.floats(min_value=0, max_value=5, allow_nan=False), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    @example(m=[1.0], nm=[float(np.nextafter(1.0, 2.0))])
    @example(m=[0.0], nm=[5e-324])
    def test_matches_brute_force(self, m, nm):
        _, adv = in_sample(m, nm)
        _, best = brute_force_best_threshold(m, nm)
        assert adv == pytest.approx(best, abs=1e-12)

    @given(
        m=st.lists(st.floats(min_value=0.01, max_value=5, allow_nan=False), min_size=2, max_size=30),
        nm=st.lists(st.floats(min_value=0.01, max_value=5, allow_nan=False), min_size=2, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transform(self, m, nm):
        # Rounding can map two close floats to one log value (4.999999999999999
        # and 5.0 do); the invariance holds only where log stays one-to-one.
        assume(np.unique(np.log(m + nm)).size == np.unique(m + nm).size)
        _, base = in_sample(m, nm)
        _, transformed = in_sample(np.log(m).tolist(), np.log(nm).tolist())
        assert transformed == pytest.approx(base, abs=1e-12)

    @given(
        losses=st.lists(
            st.floats(min_value=0, max_value=3, allow_nan=False), min_size=4, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_average_threshold(self, losses):
        half = len(losses) // 2
        m, nm = losses[:half], losses[half:]
        if not m or not nm:
            return
        _, optimal = in_sample(m, nm)
        decisions = average_threshold(m, m + nm)
        truth = [MEMBER] * len(m) + [NONMEMBER] * len(nm)
        avg_adv = advantage(decisions, truth)[2]
        assert optimal >= avg_adv - 1e-12


def shadow_setup(pool_size=240, seed=0):
    from mialab.synthetic import GaussianComponent, synthetic_mixture

    comps = (
        GaussianComponent(mean=(0.0, 0.0), cov=0.4, label=0),
        GaussianComponent(mean=(2.5, 2.5), cov=0.4, label=1),
    )
    pools = synthetic_mixture(comps, pool_size, seed=seed)
    return draw(pools, 60, 60, seed=seed + 1)


def record_groups(monkeypatch):
    """Spy on nn.train_replicas: one (member set sizes, cfgs) entry per group."""
    groups = []
    train_replicas = nn.train_replicas

    def recording(inits, member_sets, cfgs, privacy=None):
        groups.append(([len(m) for m in member_sets], list(cfgs)))
        return train_replicas(inits, member_sets, cfgs, privacy)

    monkeypatch.setattr(nn, "train_replicas", recording)
    return groups


class TestShadowEnsemble:
    CFG = nn.TrainConfig(epochs=10, batch_size=50, seed=0)

    def test_in_out_sizes(self, monkeypatch):
        groups = record_groups(monkeypatch)
        d = shadow_setup()
        ensemble = train_shadow_ensemble(
            d.shadow_pool, (2, 8, 2), self.CFG, seed=3, shadow_train_size=30
        )
        (shadow_sizes, _), (attack_sizes, _) = groups
        assert shadow_sizes == [30] * 5
        # each shadow answers its 30 members and 30 non-members, one record a query
        assert sum(attack_sizes) == 5 * 2 * 30
        assert set(ensemble.attack_models) == {0, 1}

    def test_every_model_keeps_debug_checks(self, monkeypatch):
        groups = record_groups(monkeypatch)
        cfg = nn.TrainConfig(epochs=2, batch_size=50, seed=0, debug_checks=True)
        train_shadow_ensemble(shadow_setup().shadow_pool, (2, 8, 2), cfg, seed=3,
                              shadow_train_size=20)
        seen = [c.debug_checks for _, cfgs in groups for c in cfgs]
        assert len(seen) == 5 + 2 and all(seen)

    def test_two_labels_leave_no_fallback(self, monkeypatch):
        groups = record_groups(monkeypatch)
        ensemble = train_shadow_ensemble(
            shadow_setup().shadow_pool, (2, 8, 2), self.CFG, seed=3, shadow_train_size=20
        )
        assert ensemble.fallback_model is None
        # no pooled model over all 200 records was trained
        assert 5 * 2 * 20 not in groups[1][0]

    def test_class_without_attack_model_gets_fallback(self, monkeypatch):
        groups = record_groups(monkeypatch)
        # three outputs, but the pool's rows carry labels 0 and 1 only
        ensemble = train_shadow_ensemble(
            shadow_setup().shadow_pool, (2, 8, 3), self.CFG, seed=3, shadow_train_size=20
        )
        assert set(ensemble.attack_models) == {0, 1}
        assert ensemble.fallback_model is not None
        assert ensemble.fallback_model.layer_dims == (3, 64, 2)
        assert groups[1][0][-1] == 5 * 2 * 20  # pooled over every record

    def test_attack_models_train_as_one_group(self, monkeypatch):
        groups = record_groups(monkeypatch)
        # 200 records in all and about 100 per class, all below the batch size
        cfg = nn.TrainConfig(epochs=2, batch_size=150, seed=0)
        ensemble = train_shadow_ensemble(
            shadow_setup().shadow_pool, (2, 8, 3), cfg, seed=3, shadow_train_size=20
        )
        assert set(ensemble.attack_models) == {0, 1} and ensemble.fallback_model is not None
        (sizes, cfgs), = groups[1:]
        batch_sizes = [c.batch_size for c in cfgs]
        assert batch_sizes == [min(150, n) for n in sizes] and len(set(batch_sizes)) == 3

    def test_pool_below_minimum_signals_skip(self):
        d = shadow_setup()
        with pytest.raises(ShadowPoolTooSmall, match="skipped"):
            train_shadow_ensemble(
                d.shadow_pool[:5], (2, 8, 2), self.CFG, seed=3, shadow_train_size=30
            )

    def test_fixed_seed_identical(self):
        d = shadow_setup()
        kwargs = dict(shadow_train_size=20, seed=11)
        a = train_shadow_ensemble(d.shadow_pool, (2, 8, 2), self.CFG, **kwargs)
        b = train_shadow_ensemble(d.shadow_pool, (2, 8, 2), self.CFG, **kwargs)
        assert set(a.attack_models) == set(b.attack_models) == {0, 1}
        for c in a.attack_models:
            assert np.array_equal(a.attack_models[c].flatten(), b.attack_models[c].flatten())
        eval_rows = Rows.concat([d.members, d.nonmembers])
        target = nn.init_model((2, 8, 2), seed=0)
        da = shadow_attack(a, target, eval_rows)
        db = shadow_attack(b, target, eval_rows)
        assert da.tolist() == db.tolist()

    def test_half_score_everywhere_claims_nonmember(self):
        d = shadow_setup()
        ensemble = train_shadow_ensemble(
            d.shadow_pool, (2, 8, 2), self.CFG, seed=3, shadow_train_size=20
        )
        # replace every attack model with an all-zero scorer (prob 0.5/0.5)
        zero = nn.MlpModel((2, 2), (np.zeros((2, 2)),), (np.zeros(2),))
        from dataclasses import replace

        neutral = replace(
            ensemble,
            attack_models={c: zero for c in ensemble.attack_models},
            fallback_model=zero,
        )
        truth = [MEMBER] * 60 + [NONMEMBER] * 60
        decisions = shadow_attack(
            neutral, nn.init_model((2, 8, 2), 0), Rows.concat([d.members, d.nonmembers])
        )
        assert set(decisions.tolist()) == {NONMEMBER}
        assert advantage(decisions, truth)[2] == 0.0

    def test_perfectly_separating_attack_model(self):
        # target gives members prob ~1 on class 0 and non-members prob ~0;
        # an attack model keyed on that coordinate separates them exactly
        target = nn.MlpModel((1, 2), (np.array([[30.0, -30.0]]),), (np.zeros(2),))
        scorer = nn.MlpModel((2, 2), (np.array([[40.0, 0.0], [0.0, 40.0]]),),
                             (np.zeros(2),))
        ensemble = train_shadow_ensemble(
            shadow_setup().shadow_pool, (2, 4, 2),
            nn.TrainConfig(epochs=1, batch_size=10, seed=0),
            seed=0, shadow_train_size=10,
        )
        from dataclasses import replace

        rigged = replace(ensemble, attack_models={0: scorer}, fallback_model=scorer)
        rows = Rows([[5.0]] * 4 + [[-5.0]] * 4, [0] * 8)
        truth = [MEMBER] * 4 + [NONMEMBER] * 4
        decisions = shadow_attack(rigged, target, rows)
        assert advantage(decisions, truth)[2] == 1.0
        # the non-members alone, a set of one truth class: decided, not scored
        fresh = shadow_attack(rigged, target, rows[4:])
        assert fresh.tolist() == [NONMEMBER] * 4
        with pytest.raises(MialabError, match="both"):
            advantage(fresh, truth[4:])

    def test_unseen_class_routes_to_fallback(self):
        ensemble = train_shadow_ensemble(
            shadow_setup().shadow_pool, (2, 8, 3), self.CFG, seed=3, shadow_train_size=20
        )
        # the class models claim non-member everywhere, the fallback member
        claims = {bit: nn.MlpModel((3, 2), (np.zeros((3, 2)),),
                                   (np.where(np.arange(2) == bit, 5.0, 0.0),))
                  for bit in (MEMBER, NONMEMBER)}
        from dataclasses import replace

        rigged = replace(ensemble, attack_models={c: claims[NONMEMBER] for c in (0, 1)},
                         fallback_model=claims[MEMBER])
        rows = Rows([[0.5, 0.5], [0.1, 0.1], [2.0, 2.0], [0.3, 0.9]], [2, 0, 1, 2])
        decisions = shadow_attack(rigged, nn.init_model((2, 8, 3), 0), rows)
        assert decisions.tolist() == [MEMBER, NONMEMBER, NONMEMBER, MEMBER]

    def test_class_without_any_model_is_refused(self):
        ensemble = train_shadow_ensemble(
            shadow_setup().shadow_pool, (2, 8, 2), self.CFG, seed=3, shadow_train_size=20
        )
        from dataclasses import replace

        pruned = replace(ensemble, attack_models={0: ensemble.attack_models[0]})
        with pytest.raises(MialabError, match="class 1"):
            shadow_attack(pruned, nn.init_model((2, 8, 2), 0),
                          Rows([[0.5, 0.5], [0.1, 0.1]], [1, 0]))


class TestGameHelpers:
    def test_average_threshold_decider(self):
        model = constant_model()
        decide = average_threshold_decider(model, Rows([[4.0], [-4.0]], [0, 0]))
        assert decide(Rows([[8.0]], [0])).tolist() == [MEMBER]
        assert decide(Rows([[-8.0]], [0])).tolist() == [NONMEMBER]
        assert decide(Rows([[8.0], [-8.0]], [0, 0])).tolist() == [MEMBER, NONMEMBER]

    def test_strong_loss_attack_prefers_lower_loss(self):
        model = constant_model()
        assert strong_loss_attack(model, Rows([[6.0], [-6.0]], [0, 0])) == 0
        assert strong_loss_attack(model, Rows([[-6.0], [6.0]], [0, 0])) == 1
