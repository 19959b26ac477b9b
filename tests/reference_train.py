"""The per-model training loop that `mialab.nn.train_replicas` replaced,
kept as the oracle its replicas are checked against bit for bit.

`train` here is the one-model loop as it was: Adam on an immutable
MlpModel that is unflattened after every step, the batch-mean gradient
without privacy, and ghost-norm clipping plus `dp.noisy_mean` with it. It
uses nothing of `mialab.nn` but the model and config types, the step count
and sampling rate, and the debug-check oracle.
"""

from __future__ import annotations

import math

import numpy as np

from mialab import dp
from mialab.errors import MialabError, TrainingDiverged
from mialab.nn import PROB_FLOOR, MlpModel, _check_clipping, sampling_rate, training_steps
from mialab.rngs import as_generator


def _forward_states(model: MlpModel, X: np.ndarray):
    pre_acts = []
    activations = [X]
    h = X
    last = model.n_layers - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ W + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        activations.append(h)
    return pre_acts, activations


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _backprop(model: MlpModel, pre: list, delta: np.ndarray) -> list:
    """Errors at each layer's pre-activation, given the output layer's
    error delta (one row per example)."""
    deltas = [None] * model.n_layers
    deltas[-1] = delta
    for i in range(model.n_layers - 2, -1, -1):
        deltas[i] = (deltas[i + 1] @ model.weights[i + 1].T) * (pre[i] > 0)
    return deltas


def _errors(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Forward pass plus the per-example logloss errors at every layer.
    Returns (activations, probs, deltas); activations[i] is layer i's input."""
    pre, acts = _forward_states(model, X)
    probs = _softmax(acts[-1])
    delta = probs.copy()
    delta[np.arange(X.shape[0]), y] -= 1.0
    return acts, probs, _backprop(model, pre, delta)


def _mean_loss(model: MlpModel, probs: np.ndarray, y: np.ndarray,
               l2_coefficient: float) -> float:
    """Mean logloss of the rows plus l2/2 * ||weights||^2."""
    p_true = np.clip(probs[np.arange(y.size), y], PROB_FLOOR, None)
    loss = float(-np.log(p_true).mean())
    if l2_coefficient:
        for W in model.weights:
            loss += 0.5 * l2_coefficient * float(np.sum(W * W))
    return loss


def _mean_grad_and_loss(model: MlpModel, X: np.ndarray, y: np.ndarray,
                        l2_coefficient: float) -> tuple[np.ndarray, float]:
    B = X.shape[0]
    pre, acts = _forward_states(model, X)
    probs = _softmax(acts[-1])
    loss = _mean_loss(model, probs, y, l2_coefficient)
    delta = probs
    delta[np.arange(B), y] -= 1.0
    delta /= B
    deltas = _backprop(model, pre, delta)
    parts = []
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        gw = acts[i].T @ deltas[i]
        if l2_coefficient:
            gw = gw + l2_coefficient * W
        parts.append(gw.ravel())
        parts.append(deltas[i].sum(axis=0))
    return np.concatenate(parts), loss


def _ghost_norms(model: MlpModel, acts: list, deltas: list,
                 l2_coefficient: float) -> np.ndarray:
    """Per-example gradient norms from layer inputs and errors alone.

    Example i's weight gradient in a dense layer is a_i d_i^T + l2 W, whose
    squared norm is |a_i|^2 |d_i|^2 + 2 l2 a_i^T W d_i + l2^2 |W|^2; its bias
    gradient adds |d_i|^2 (Goodfellow, arXiv:1510.01799).
    """
    sq = np.zeros(deltas[0].shape[0])
    for a, d, W in zip(acts, deltas, model.weights):
        dd = np.einsum("ij,ij->i", d, d)
        sq += np.einsum("ij,ij->i", a, a) * dd + dd
        if l2_coefficient:
            sq += 2.0 * l2_coefficient * np.einsum("ij,ij->i", a @ W, d)
            sq += l2_coefficient * l2_coefficient * float(np.sum(W * W))
    # rounding in the cross term can push an exact 0 just below it; NaN stays NaN
    return np.sqrt(np.maximum(sq, 0.0))


def _clipped_sum(model: MlpModel, acts: list, deltas: list, scale: np.ndarray,
                 l2_coefficient: float) -> np.ndarray:
    """Sum over examples of scale_i * (example i's gradient), flattened in
    canonical order, without forming any per-example gradient."""
    parts = []
    for a, d, W in zip(acts, deltas, model.weights):
        sd = d * scale[:, None]
        gw = a.T @ sd
        if l2_coefficient:
            gw += (l2_coefficient * float(scale.sum())) * W
        parts.append(gw.ravel())
        parts.append(sd.sum(axis=0))
    return np.concatenate(parts)


class _Adam:
    def __init__(self, size: int, cfg: TrainConfig):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.cfg = cfg

    def update(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        b1, b2 = self.cfg.adam_betas
        self.t += 1
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        m_hat = self.m / (1 - b1**self.t)
        v_hat = self.v / (1 - b2**self.t)
        return params - self.cfg.learning_rate * m_hat / (np.sqrt(v_hat) + self.cfg.adam_epsilon)


def train(
    init: MlpModel,
    members: Rows,
    cfg: TrainConfig,
    privacy: "dp.PrivacyParams | None" = None,
    loss_callback=None,
) -> MlpModel:
    """Train on the member samples and return the final model.

    Without privacy: minibatch Adam on the batch-mean gradient, one shuffled
    pass per epoch. With privacy: each step draws a Poisson batch at rate
    batch_size/n, clips every per-example gradient to the clip norm, sums,
    adds Gaussian noise of std noise_multiplier * clip_norm per coordinate,
    divides by the expected batch size, and applies the Adam update. The
    per-example norms and the clipped sum come from each layer's inputs and
    errors (ghost norms), so no per-example gradient is built; debug_checks
    compares them with the explicit per-example gradients.
    loss_callback(step, loss) receives each step's mean regularized batch
    loss (in DP training, for non-empty Poisson batches only).
    Deterministic given cfg.seed.
    """
    if not members:
        raise MialabError("cannot train on an empty member set")
    n = len(members)
    if cfg.batch_size > n:
        raise MialabError(f"batch_size {cfg.batch_size} exceeds the {n} training samples")
    X, y = members.X, members.y
    rng = as_generator(cfg.seed)
    params = init.flatten()
    adam = _Adam(params.size, cfg)
    model = init
    steps = training_steps(n, cfg)
    if privacy is None:
        step = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                grad, loss = _mean_grad_and_loss(model, X[idx], y[idx], cfg.l2_coefficient)
                if not math.isfinite(loss):
                    raise TrainingDiverged(step, loss)
                if loss_callback is not None:
                    loss_callback(step, loss)
                params = adam.update(params, grad)
                model = MlpModel.unflatten(init.layer_dims, params)
                step += 1
        return model
    privacy.warn_if_delta_large(n)
    q = sampling_rate(n, cfg)
    expected_batch = q * n
    for step in range(steps):
        idx = np.flatnonzero(rng.random(n) < q)
        Xb, yb = X[idx], y[idx]
        acts, probs, deltas = _errors(model, Xb, yb)
        norms = _ghost_norms(model, acts, deltas, cfg.l2_coefficient)
        if not np.all(np.isfinite(norms)):
            raise TrainingDiverged(step, float(norms.max()), "per-example gradient norm")
        scale = np.minimum(1.0, privacy.clip_norm / np.maximum(norms, 1e-300))
        if cfg.debug_checks:
            _check_clipping(model, Xb, yb, cfg.l2_coefficient, norms, scale,
                            privacy.clip_norm, step)
        if loss_callback is not None and idx.size:
            loss_callback(step, _mean_loss(model, probs, yb, cfg.l2_coefficient))
        clipped_sum = _clipped_sum(model, acts, deltas, scale, cfg.l2_coefficient)
        grad = dp.noisy_mean(
            clipped_sum, privacy.clip_norm, privacy.noise_multiplier, expected_batch, rng
        )
        params = adam.update(params, grad)
        model = MlpModel.unflatten(init.layer_dims, params)
    return model
