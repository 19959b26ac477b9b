import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab import dp, nn
from mialab.dataio import Rows
from mialab.errors import MialabError, TrainingDiverged
from mialab.nn import (
    MlpModel,
    TrainConfig,
    accuracy,
    forward,
    init_model,
    loglosses,
    train,
)

from reference_train import _forward_states as reference_forward_states
from reference_train import _softmax as reference_softmax
from reference_train import train as reference_train


def separable_samples(n_per_class=50, seed=2, spread=0.3):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(loc=(0.0, 0.0), scale=spread, size=(n_per_class, 2)),
            rng.normal(loc=(3.0, 3.0), scale=spread, size=(n_per_class, 2)),
        ]
    )
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return Rows(X, y)


class TestInit:
    def test_parameter_count(self):
        model = init_model((4, 256, 256, 2), seed=0)
        expected = 4 * 256 + 256 + 256 * 256 + 256 + 256 * 2 + 2
        assert model.n_params == expected

    def test_same_seed_identical(self):
        a = init_model((3, 8, 2), seed=5)
        b = init_model((3, 8, 2), seed=5)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_single_linear_layer(self):
        model = init_model((4, 2), seed=1)
        assert model.n_layers == 1
        assert model.n_params == 4 * 2 + 2

    def test_glorot_range_and_zero_biases(self):
        model = init_model((10, 20, 3), seed=7)
        limit0 = math.sqrt(6.0 / 30)
        assert np.all(np.abs(model.weights[0]) <= limit0)
        assert np.all(model.biases[0] == 0.0)

    def test_flatten_unflatten_roundtrip(self):
        model = init_model((3, 5, 4, 2), seed=9)
        again = MlpModel.unflatten(model.layer_dims, model.flatten())
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, again.weights))


class TestForward:
    def test_zero_model_two_classes(self):
        model = MlpModel((4, 2), (np.zeros((4, 2)),), (np.zeros(2),))
        np.testing.assert_allclose(forward(model, np.ones((1, 4))), [[0.5, 0.5]])

    def test_zero_model_uniform_over_k(self):
        model = MlpModel((3, 5), (np.zeros((3, 5)),), (np.zeros(5),))
        np.testing.assert_allclose(forward(model, np.ones((1, 3))), np.full((1, 5), 0.2))

    def test_extreme_logits_no_overflow(self):
        model = MlpModel(
            (1, 2), (np.array([[1000.0, 0.0]]),), (np.zeros(2),)
        )
        probs = forward(model, np.array([[1.0]]))[0]
        assert probs[0] == pytest.approx(1.0)
        assert np.all(np.isfinite(probs))

    def test_width_mismatch_errors(self):
        model = init_model((4, 2), seed=0)
        with pytest.raises(MialabError, match="width"):
            forward(model, np.ones((1, 3)))

    def test_vector_input_errors(self):
        model = init_model((4, 2), seed=0)
        with pytest.raises(MialabError, match=r"\(n, d\) matrix"):
            forward(model, np.ones(4))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_sum_to_one(self, features):
        model = init_model((3, 8, 4), seed=11)
        probs = forward(model, np.array([features]))
        assert probs.shape == (1, 4) and abs(probs.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("rows", [0, 1, 500])
    @pytest.mark.parametrize("dims", [(2, 32, 32, 2), (100, 256, 256, 2)])
    def test_matches_the_reference_bitwise(self, dims, rows):
        rng = np.random.default_rng(rows)
        init = init_model(dims, seed=rows)
        # nonzero biases, so that every term of the pass counts
        model = MlpModel.unflatten(dims, init.flatten() + 0.1 * rng.normal(size=init.n_params))
        X = rng.normal(size=(rows, dims[0]))
        _, acts = reference_forward_states(model, X)
        assert np.array_equal(forward(model, X), reference_softmax(acts[-1]))


class TestLogloss:
    def test_certain_prediction_zero_loss(self):
        model = MlpModel(
            (1, 2), (np.array([[60.0, -60.0]]),), (np.zeros(2),)
        )
        assert loglosses(model, Rows([[1.0]], [0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_ln2(self):
        model = MlpModel((2, 2), (np.zeros((2, 2)),), (np.zeros(2),))
        assert loglosses(model, Rows([[1.0, 0.0]], [1]))[0] == pytest.approx(math.log(2))

    def test_exp_minus_one_probability(self):
        # logits chosen so p(true class) = 1/e exactly
        p = 1 / math.e
        logit = math.log(p / (1 - p))
        model = MlpModel((1, 2), (np.array([[logit, 0.0]]),), (np.zeros(2),))
        assert loglosses(model, Rows([[1.0]], [0]))[0] == pytest.approx(1.0)

    def test_loglosses_matches_scalar(self):
        model = init_model((2, 6, 2), seed=3)
        samples = separable_samples(5)
        batch = loglosses(model, samples)
        singles = [loglosses(model, samples[[i]])[0] for i in range(len(samples))]
        np.testing.assert_allclose(batch, singles)


class TestPerExampleGrad:
    @staticmethod
    def grad(model, row, l2):
        return nn._per_example_grads(model, row.X, row.y, l2)[0]

    def finite_difference(self, model, row, l2, step=1e-5):
        flat = model.flatten()

        def loss_at(v):
            m = MlpModel.unflatten(model.layer_dims, v)
            reg = 0.5 * l2 * sum(float(np.sum(W * W)) for W in m.weights)
            return loglosses(m, row)[0] + reg

        grad = np.empty_like(flat)
        for j in range(flat.size):
            e = np.zeros_like(flat)
            e[j] = step
            grad[j] = (loss_at(flat + e) - loss_at(flat - e)) / (2 * step)
        return grad

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        model = init_model((4, 8, 8, 2), seed=1)
        row = Rows(rng.normal(size=(1, 4)), [1])
        analytic = self.grad(model, row, 1e-3)
        numeric = self.finite_difference(model, row, 1e-3)
        mask = (np.abs(analytic) > 1e-6) | (np.abs(numeric) > 1e-6)
        rel = np.abs(analytic - numeric)[mask] / np.maximum(
            np.abs(numeric[mask]), np.abs(analytic[mask])
        )
        assert rel.max() < 1e-4

    def test_zero_loss_point_has_tiny_output_gradient(self):
        model = MlpModel(
            (1, 2), (np.array([[60.0, -60.0]]),), (np.zeros(2),)
        )
        g = self.grad(model, Rows([[1.0]], [0]), l2=0.0)
        assert np.abs(g).max() < 1e-12

    def test_l2_component_scales_linearly(self):
        model = MlpModel(
            (1, 2), (np.array([[60.0, -60.0]]),), (np.zeros(2),)
        )
        g1 = self.grad(model, Rows([[1.0]], [0]), l2=0.1)
        g2 = self.grad(model, Rows([[1.0]], [0]), l2=0.2)
        np.testing.assert_allclose(g2, 2 * g1, atol=1e-15)


def ghost_norms(model, X, y, l2):
    weights, acts, deltas = nn._errors(model, X, y)
    products = [a @ W for a, W in zip(acts, weights)]
    scratch = [np.empty_like(W) for W in weights]
    return nn._ghost_norms(weights, acts, products, deltas, l2, scratch)[0]


class TestGhostClipping:
    """The ghost-norm step against the explicit per-example gradients."""

    @staticmethod
    def ghost(model, X, y, l2, clip_norm):
        weights, acts, deltas = nn._errors(model, X, y)
        norms = ghost_norms(model, X, y, l2)
        scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
        clipped = np.empty((1, model.n_params))
        grad_views = nn._layer_views(clipped, model.layer_dims)
        nn._grad_sum(weights, acts, [d * scale[None, :, None] for d in deltas],
                     l2 * scale.sum() if l2 else None, None, *grad_views,
                     [np.empty_like(W) for W in weights])
        return norms, clipped[0]

    @pytest.mark.parametrize("batch", [0, 1, 64, 65, 200])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("dims", [(5, 2), (5, 8, 2), (5, 16, 16, 16, 2)])
    def test_matches_per_example_oracle(self, dims, l2, batch):
        rng = np.random.default_rng(batch + 7 * len(dims))
        model = init_model(dims, seed=len(dims))
        X = rng.normal(size=(batch, dims[0]))
        y = rng.integers(0, dims[-1], size=batch)
        grads = nn._per_example_grads(model, X, y, l2)
        ref = np.sqrt(np.einsum("ij,ij->i", grads, grads))
        if batch:
            clips = {"none": 2.0 * ref.max(), "some": float(np.median(ref)),
                     "all": 0.5 * ref.min()}
        else:
            clips = {"empty": 1.0}
        for case, clip_norm in clips.items():
            scale = np.minimum(1.0, clip_norm / ref)
            # clipping at the median norm clips the rows above it
            expected_rows = {"none": 0, "some": batch // 2, "all": batch, "empty": 0}[case]
            assert int(np.sum(scale < 1.0)) == expected_rows, case
            norms, clipped = self.ghost(model, X, y, l2, clip_norm)
            assert norms.shape == (batch,) and clipped.shape == (model.n_params,)
            np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=0, err_msg=case)
            expected = (grads * scale[:, None]).sum(axis=0)
            tol = 1e-12 * np.abs(expected).max() if batch else 0.0
            np.testing.assert_allclose(clipped, expected, rtol=0, atol=tol, err_msg=case)

    def test_empty_poisson_batch_is_a_pure_noise_step(self, monkeypatch):
        # q = 1/20: about a third of the 40 Poisson batches are empty
        sums = []
        noisy_mean = dp.noisy_mean

        def recording(gradient_sum, *args):
            sums.append(np.array(gradient_sum))
            return noisy_mean(gradient_sum, *args)

        monkeypatch.setattr(nn.dp, "noisy_mean", recording)
        samples = separable_samples(10)
        cfg = TrainConfig(epochs=2, batch_size=1, seed=5, debug_checks=True)
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.0, clip_norm=1.0)
        init = init_model((2, 8, 2), seed=0)
        losses = {}
        train(init, samples, cfg, privacy, loss_callback=losses.__setitem__)
        # every step is noised, an empty batch's with an exactly zero sum
        assert len(sums) == nn.training_steps(len(samples), cfg)
        empty = [step for step, g in enumerate(sums) if not np.any(g)]
        assert empty and all(sums[step].shape == (init.n_params,) for step in empty)
        # the loss is reported for exactly the non-empty batches
        assert sorted(losses) == [s for s in range(len(sums)) if s not in empty]

    def test_dp_loss_matches_plain_loss(self):
        # sigma = 0, no clipping and q = 1: both paths take the same steps
        samples = separable_samples(25)
        cfg = TrainConfig(epochs=8, batch_size=len(samples), seed=8)
        init = init_model((2, 16, 2), seed=1)
        plain, private = [], []
        train(init, samples, cfg, loss_callback=lambda s, loss: plain.append((s, loss)))
        train(
            init,
            samples,
            cfg,
            dp.PrivacyParams(epsilon=math.inf, noise_multiplier=0.0, clip_norm=math.inf),
            loss_callback=lambda s, loss: private.append((s, loss)),
        )
        assert [s for s, _ in private] == [s for s, _ in plain] == list(range(8))
        np.testing.assert_allclose([v for _, v in private], [v for _, v in plain], rtol=1e-12)
        assert private[-1][1] < private[0][1]

    def test_debug_check_rejects_wrong_norms(self):
        rng = np.random.default_rng(3)
        model = init_model((4, 8, 2), seed=0)
        X, y = rng.normal(size=(6, 4)), rng.integers(0, 2, size=6)
        norms = ghost_norms(model, X, y, 1e-3)
        scale = np.minimum(1.0, 0.1 / norms)
        nn._check_clipping(model, X, y, 1e-3, norms, scale, 0.1, step=0)
        with pytest.raises(AssertionError, match="ghost norm .* at step 4"):
            nn._check_clipping(model, X, y, 1e-3, norms * (1 + 1e-7), scale, 0.1, step=4)
        with pytest.raises(AssertionError, match="clipping violated"):
            nn._check_clipping(model, X, y, 1e-3, norms, scale * 1.01, 0.1, step=0)


@pytest.mark.parametrize("change, field", [
    ({"l2_coefficient": math.nan}, "l2_coefficient"),
    ({"l2_coefficient": math.inf}, "l2_coefficient"),
    ({"l2_coefficient": -1e-5}, "l2_coefficient"),
    ({"learning_rate": math.inf}, "learning_rate"),
    ({"learning_rate": math.nan}, "learning_rate"),
    ({"learning_rate": 0.0}, "learning_rate"),
    ({"epochs": 2.5}, "epochs"),
    ({"epochs": True}, "epochs"),
    ({"epochs": 0}, "epochs"),
    ({"batch_size": 10.0}, "batch_size"),
    ({"batch_size": 0}, "batch_size"),
    ({"adam_betas": (math.nan, 0.999)}, "adam_betas[0]"),
    ({"adam_betas": (0.9, 1.0)}, "adam_betas[1]"),
    ({"adam_betas": (0.9,)}, "adam_betas"),
    ({"adam_epsilon": math.inf}, "adam_epsilon"),
    ({"adam_epsilon": 0.0}, "adam_epsilon"),
])
def test_train_config_refuses_a_value_naming_its_field(change, field):
    with pytest.raises(MialabError) as refused:
        TrainConfig(**change)
    assert refused.value.field == field
    assert str(refused.value).startswith(f"{field}: ")


class TestTrain:
    def test_separable_data_fits(self):
        samples = separable_samples()
        cfg = TrainConfig(epochs=100, batch_size=20, seed=4)
        model = train(init_model((2, 32, 32, 2), seed=0), samples, cfg)
        assert accuracy(model, samples) >= 0.99

    def test_fixed_seed_bit_identical(self):
        samples = separable_samples(20)
        cfg = TrainConfig(epochs=10, batch_size=10, seed=12)
        init = init_model((2, 8, 2), seed=0)
        a = train(init, samples, cfg)
        b = train(init, samples, cfg)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_degenerate_privacy_matches_plain(self):
        # sigma=0 and infinite clip norm leave only the sampling scheme;
        # with batch_size = n both paths see every sample each step.
        samples = separable_samples(25)
        cfg = TrainConfig(epochs=20, batch_size=len(samples), seed=8)
        init = init_model((2, 16, 2), seed=1)
        plain = train(init, samples, cfg)
        degenerate = train(
            init,
            samples,
            cfg,
            dp.PrivacyParams(epsilon=math.inf, noise_multiplier=0.0, clip_norm=math.inf),
        )
        np.testing.assert_allclose(plain.flatten(), degenerate.flatten(), rtol=1e-12)

    def test_dp_training_deterministic(self):
        samples = separable_samples(30)
        cfg = TrainConfig(epochs=5, batch_size=20, seed=3, debug_checks=True)
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=2.0, clip_norm=1.0)
        init = init_model((2, 8, 2), seed=2)
        a = train(init, samples, cfg, privacy)
        b = train(init, samples, cfg, privacy)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_dp_training_fits_separable_data(self):
        samples = separable_samples(40)
        cfg = TrainConfig(epochs=50, batch_size=20, seed=3)
        privacy = dp.PrivacyParams(epsilon=5.0, noise_multiplier=1.0, clip_norm=1.0)
        model = train(init_model((2, 16, 2), seed=3), samples, cfg, privacy)
        assert accuracy(model, samples) >= 0.9  # separable data survives mild noise

    @pytest.mark.parametrize(
        "privacy,quantity",
        [
            (None, "non-finite training loss"),
            (dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.0), "non-finite per-example gradient norm"),
        ],
        ids=["plain", "dp"],
    )
    def test_divergence_names_what_diverged(self, privacy, quantity):
        cfg = TrainConfig(epochs=5, batch_size=20, learning_rate=1e300, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDiverged, match=quantity + r" .* at step \d+"
        ):
            train(init_model((2, 16, 2), seed=0), separable_samples(20), cfg, privacy)

    def test_empty_members_error(self):
        with pytest.raises(MialabError, match="empty"):
            train(init_model((2, 2), 0), Rows(np.empty((0, 2)), []), TrainConfig())

    def test_convex_proxy_smoothed_loss_descends(self):
        # single linear layer = convex objective; the 20-step moving average
        # of the training loss should descend (small upward wiggles allowed).
        samples = separable_samples(100, spread=0.6)
        cfg = TrainConfig(epochs=40, batch_size=50, seed=6)
        losses = []
        train(
            init_model((2, 2), seed=3),
            samples,
            cfg,
            loss_callback=lambda step, loss: losses.append(loss),
        )
        smooth = np.convolve(losses, np.ones(20) / 20, mode="valid")
        wiggle = 0.01 * smooth[0]
        assert np.all(np.diff(smooth) <= wiggle)
        assert smooth[-1] < 0.5 * smooth[0]


class TestAccuracy:
    def test_all_correct(self):
        samples = separable_samples(10)
        cfg = TrainConfig(epochs=60, batch_size=10, seed=4)
        model = train(init_model((2, 16, 2), seed=0), samples, cfg)
        assert accuracy(model, samples) == 1.0

    def test_zero_model_tie_breaks_to_class_zero(self):
        model = MlpModel((2, 2), (np.zeros((2, 2)),), (np.zeros(2),))
        samples = Rows([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]], [0, 1, 0])
        assert accuracy(model, samples) == pytest.approx(2 / 3)

    def test_empty_errors(self):
        with pytest.raises(MialabError, match="empty sample list"):
            accuracy(init_model((2, 2), 0), Rows(np.empty((0, 2)), []))
        with pytest.raises(MialabError, match="empty sample list"):
            nn.accuracy_of(np.empty((0, 2)), np.empty(0, dtype=int))


def random_rows(n, d, seed, classes=2):
    rng = np.random.default_rng(seed)
    return Rows(rng.normal(size=(n, d)), rng.integers(0, classes, size=n))


class TestTrainReplicas:
    """Each replica of a lockstep group against the one-model oracle."""

    @staticmethod
    def group(dims, sizes, cfg, seed=0):
        inits = [init_model(dims, seed + r) for r in range(len(sizes))]
        member_sets = [random_rows(n, dims[0], seed + 10 + r, dims[-1])
                       for r, n in enumerate(sizes)]
        cfgs = [replace(cfg, seed=seed + 20 + r) for r in range(len(sizes))]
        return inits, member_sets, cfgs

    def assert_matches_oracle(self, inits, member_sets, cfgs, privacy=None):
        """privacy: one value, or a list with one per replica."""
        models = nn.train_replicas(inits, member_sets, cfgs, privacy)
        assert len(models) == len(inits)
        privacies = privacy if isinstance(privacy, list) else [privacy] * len(inits)
        for model, args in zip(models, zip(inits, member_sets, cfgs, privacies)):
            expected = reference_train(*args)
            assert np.array_equal(model.flatten(), expected.flatten())
            assert np.array_equal(train(*args).flatten(), expected.flatten())

    def test_equal_size_group(self):
        self.assert_matches_oracle(
            *self.group((6, 16, 16, 2), [90] * 4, TrainConfig(epochs=4, batch_size=40))
        )

    def test_ragged_group(self):
        # 14 and 12 batches an epoch, the shadow attack models of a 500-row campaign
        self.assert_matches_oracle(
            *self.group((2, 64, 2), [2355, 2645], TrainConfig(epochs=2, batch_size=200))
        )

    @pytest.mark.parametrize("dp_on", [False, True], ids=["plain", "dp"])
    def test_mixed_batch_size_group(self, dp_on):
        # batches of 20, 200, 200 and 40 rows: most steps first, then a tie at
        # 12 batches an epoch (2,301 and 2,399 rows), then a replica whose
        # batch is its whole member set
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.1, clip_norm=0.5)
        inits, member_sets, cfgs = self.group(
            (3, 16, 2), [300, 2301, 2399, 40], TrainConfig(epochs=2, batch_size=200))
        cfgs[0], cfgs[3] = replace(cfgs[0], batch_size=20), replace(cfgs[3], batch_size=40)
        self.assert_matches_oracle(inits, member_sets, cfgs, privacy if dp_on else None)

    def test_dp_group_with_empty_poisson_batches(self, monkeypatch):
        sums = []
        noisy_mean = dp.noisy_mean

        def recording(gradient_sum, *args):
            sums.append(not np.any(gradient_sum))
            return noisy_mean(gradient_sum, *args)

        monkeypatch.setattr(nn.dp, "noisy_mean", recording)
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.1, clip_norm=0.5)
        args = self.group((3, 8, 8, 2), [10, 12, 9], TrainConfig(epochs=6, batch_size=1))
        nn.train_replicas(*args, privacy)
        assert any(sums) and not all(sums)  # q = 1/10: some batches are empty
        monkeypatch.setattr(nn.dp, "noisy_mean", noisy_mean)
        self.assert_matches_oracle(*args, privacy)

    def test_dp_group_with_a_noise_multiplier_per_replica(self, monkeypatch):
        # eps-sweep's grid at its sampling rate and step count (500 members,
        # batch 200, 30 epochs): sigma runs from 2.36 at eps 10 to 616 at 0.05
        grid = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
        privacy = [dp.PrivacyParams(epsilon=eps, noise_multiplier=dp.calibrate_sigma(
            eps, 1e-5, 0.4, 90)) for eps in grid]
        assert privacy[0].noise_multiplier > 600 and privacy[-1].noise_multiplier < 3
        sigmas = []
        noisy_mean = dp.noisy_mean

        def recording(gradient_sum, clip_norm, sigma, *args):
            sigmas.append(sigma)
            return noisy_mean(gradient_sum, clip_norm, sigma, *args)

        monkeypatch.setattr(nn.dp, "noisy_mean", recording)
        args = self.group((3, 16, 16, 2), [25] * len(grid), TrainConfig(epochs=3, batch_size=10))
        nn.train_replicas(*args, privacy)
        assert sigmas[: len(grid)] == [p.noise_multiplier for p in privacy]
        monkeypatch.setattr(nn.dp, "noisy_mean", noisy_mean)
        self.assert_matches_oracle(*args, privacy)

    def test_dp_group_that_outgrows_its_row_buffers(self, monkeypatch):
        # A Poisson batch at rate 1/100 gets a 6-row buffer. Seed 7 was found
        # by search: replica 1 draws 7 rows at step 44, so the buffers grow.
        widths = []
        row_buffers = nn._row_buffers

        def recording(R, rows, dims):
            widths.append(rows)
            return row_buffers(R, rows, dims)

        monkeypatch.setattr(nn, "_row_buffers", recording)
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.1, clip_norm=0.5)
        args = self.group((3, 8, 2), [100, 100], TrainConfig(epochs=1, batch_size=1), seed=7)
        nn.train_replicas(*args, privacy)
        assert widths == [6, 7]
        self.assert_matches_oracle(*args, privacy)

    def test_debug_checks_group(self):
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=0.8, clip_norm=0.3)
        cfg = TrainConfig(epochs=3, batch_size=8, debug_checks=True)
        self.assert_matches_oracle(*self.group((4, 16, 3), [30, 41, 25], cfg), privacy)

    def test_group_order_does_not_matter(self):
        inits, member_sets, cfgs = self.group((2, 8, 2), [30, 50, 40], TrainConfig(
            epochs=3, batch_size=16))
        forward_order = nn.train_replicas(inits, member_sets, cfgs)
        backward = nn.train_replicas(inits[::-1], member_sets[::-1], cfgs[::-1])[::-1]
        for a, b in zip(forward_order, backward):
            assert np.array_equal(a.flatten(), b.flatten())

    def test_first_failure_in_call_order_is_raised(self):
        inits, member_sets, cfgs = self.group((2, 8, 2), [30, 20], TrainConfig(
            epochs=2, batch_size=10))
        huge = MlpModel((2, 8, 2), tuple(W * 1e300 for W in inits[1].weights),
                        inits[1].biases)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDiverged, match="training loss nan at step 0"
        ):
            nn.train_replicas([inits[0], huge], member_sets, cfgs)

    @pytest.mark.parametrize("case", ["group-fails", "retrain-fails"])
    def test_error_names_the_failing_replica(self, case):
        # Replica 1 (or 2) diverges at step 0. In "retrain-fails" replica 0
        # draws a NaN row at step 1, so the retrain of the replicas before
        # the failing one raises, and replica 0 is named.
        inits, member_sets, cfgs = self.group((2, 8, 2), [20, 30, 30], TrainConfig(
            epochs=2, batch_size=10))
        failing, step = (1, 0) if case == "group-fails" else (2, 1)
        inits[failing] = MlpModel((2, 8, 2), tuple(W * 1e300 for W in inits[failing].weights),
                                  inits[failing].biases)
        expected = failing
        if case == "retrain-fails":
            X = member_sets[0].X.copy()
            X[np.random.default_rng(cfgs[0].seed).permutation(20)[10]] = np.nan
            member_sets[0] = Rows(X, member_sets[0].y)
            expected = 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as alone:
                train(inits[expected], member_sets[expected], cfgs[expected])
            with pytest.raises(TrainingDiverged) as grouped:
                nn.train_replicas(inits, member_sets, cfgs)
        assert grouped.value.replica == expected
        assert str(grouped.value) == str(alone.value)
        assert str(alone.value).endswith(f"at step {step}")

    @pytest.mark.parametrize("dp_on", [False, True], ids=["plain", "dp"])
    def test_non_finite_parameters_name_the_layer_as_the_oracle(self, dp_on):
        privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.0) if dp_on else None
        args = self.group((2, 8, 2), [20, 30], TrainConfig(epochs=2, batch_size=10))
        for cfg in args[2]:
            # An infinite learning rate, which TrainConfig refuses, makes
            # the parameters infinite at the first Adam step.
            object.__setattr__(cfg, "learning_rate", math.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(MialabError) as oracle:
                reference_train(*(a[0] for a in args), privacy)
            with pytest.raises(MialabError) as grouped:
                nn.train_replicas(*args, privacy)
        assert str(grouped.value) == str(oracle.value) == "layer 0: non-finite parameter"

    @pytest.mark.parametrize(
        "change,named",
        [
            ({"dims": (2, 4, 2)}, "layer dims"),
            ({"epochs": 3}, "TrainConfig.epochs"),
            ({"learning_rate": 0.5}, "TrainConfig.learning_rate"),
            ({"debug_checks": True}, "TrainConfig.debug_checks"),
            ({"privacy": dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.0, clip_norm=2.0)},
             "privacy"),
            # epsilon and sigma may differ, delta may not
            ({"privacy": dp.PrivacyParams(epsilon=2.0, noise_multiplier=0.5, delta=1e-6)},
             "privacy delta 1e-06 differs from replica 0's 1e-05"),
            ({"privacy": None}, "privacy None differs"),
        ],
    )
    def test_mismatch_is_refused_naming_it(self, change, named):
        inits, member_sets, cfgs = self.group((2, 8, 2), [20, 20], TrainConfig(
            epochs=2, batch_size=10))
        privacy = [dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.0)] * 2
        if "dims" in change:
            inits[1] = init_model(change["dims"], 0)
        elif "privacy" in change:
            privacy[1] = change["privacy"]
        else:
            cfgs[1] = replace(cfgs[1], **change)
        with pytest.raises(MialabError, match=f"replica 1: {named}"):
            nn.train_replicas(inits, member_sets, cfgs, privacy)

    def test_shape_of_the_call_is_checked(self):
        inits, member_sets, cfgs = self.group((2, 8, 2), [20, 20], TrainConfig(batch_size=10))
        with pytest.raises(MialabError, match="one init, member set and config"):
            nn.train_replicas(inits, member_sets[:1], cfgs)
        with pytest.raises(MialabError, match="exceeds the 20"):
            nn.train_replicas(inits, member_sets, [replace(c, batch_size=21) for c in cfgs])


def test_dp_buffers_hold_a_batch_not_the_member_set():
    """DP training's peak allocation barely grows with the member set: its
    row buffers are sized by the Poisson batch, not by the members."""
    privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.0)
    init = init_model((10, 64, 64, 2), 1)

    def peak(n):
        members = random_rows(n, 10, 0)
        tracemalloc.start()
        try:
            train(init, members, TrainConfig(epochs=1, batch_size=100, seed=3), privacy)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # buffers for all 20,000 rows would take about 60 MB more
    assert peak(20_000) - peak(1_000) < 1_000_000
