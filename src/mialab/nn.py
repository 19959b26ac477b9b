"""Fully connected ReLU classifier trained by Adam, with an optional
differentially private path (per-example clipping by ghost norms +
Gaussian noise).

Models are immutable MlpModel values. Parameters flatten in a fixed
canonical order (per layer: weight matrix row-major, then bias vector);
training keeps the parameters, gradients and Adam moments of a group of
models as (models, n_params) buffers in that order. One forward pass and
one backprop, the lockstep kernels over such groups, serve both training
and the one-model functions (forward, the per-example gradients), which
run them on a group of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import dp
from .dataio import Rows
from .errors import MialabError, TrainingDiverged, _refused
from .rngs import as_generator

PROB_FLOOR = 1e-30


@dataclass(frozen=True)
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2:
            raise MialabError(f"need at least input and output dims, got {dims}")
        if any(d < 1 for d in dims):
            raise MialabError(f"layer dims must be positive, got {dims}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise MialabError("one weight matrix and bias vector per layer expected")
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise MialabError(f"layer {i}: shape mismatch for dims {dims}")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise MialabError(f"layer {i}: non-finite parameter")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(W.size + b.size for W, b in zip(self.weights, self.biases))

    def flatten(self) -> np.ndarray:
        parts = []
        for W, b in zip(self.weights, self.biases):
            parts.append(W.ravel())
            parts.append(b)
        return np.concatenate(parts)

    @classmethod
    def unflatten(cls, layer_dims: Sequence[int], flat: np.ndarray) -> "MlpModel":
        dims = tuple(int(d) for d in layer_dims)
        expected = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        if flat.size != expected:
            raise MialabError(f"flat vector has {flat.size} entries, expected {expected}")
        weights, biases = _layer_views(flat[None], dims)
        return cls(layer_dims=dims, weights=tuple(W[0].copy() for W in weights),
                   biases=tuple(b[0].copy() for b in biases))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 200
    learning_rate: float = 1e-2
    l2_coefficient: float = 1e-5
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_epsilon: float = 1e-8
    seed: int = 0
    debug_checks: bool = False

    def __post_init__(self):
        # Every dataclasses.replace runs these again, so they stay plain
        # comparisons; a NaN fails each of them.
        for name, value in (("epochs", self.epochs), ("batch_size", self.batch_size)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise _refused(name, f"must be an integer >= 1, got {value!r}")
        if not 0 < self.learning_rate < math.inf:
            raise _refused("learning_rate", f"must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.l2_coefficient < math.inf:
            raise _refused("l2_coefficient", f"must be finite and >= 0, got {self.l2_coefficient}")
        if len(self.adam_betas) != 2:
            raise _refused("adam_betas", f"expected two numbers, got {self.adam_betas!r}")
        for i, beta in enumerate(self.adam_betas):
            if not 0 <= beta < 1:
                raise _refused(f"adam_betas[{i}]", f"must be in [0, 1), got {beta}")
        if not 0 < self.adam_epsilon < math.inf:
            raise _refused("adam_epsilon", f"must be finite and > 0, got {self.adam_epsilon}")


def init_model(layer_dims: Sequence[int], seed) -> MlpModel:
    """Glorot-uniform weights, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    rng = as_generator(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=tuple(weights), biases=tuple(biases))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _one_replica_pass(model: MlpModel, X: np.ndarray) -> tuple:
    """The lockstep forward pass of one model at the (n, d) rows X: its
    weights, layer inputs, products a @ W and class probabilities, as
    one-replica (1, ...) stacks."""
    weights = [W[None] for W in model.weights]
    bufs = [[np.empty((1, X.shape[0], d)) for _ in range(2)] for d in model.layer_dims[1:]]
    return (weights, *_forward_rows(weights, [b[None] for b in model.biases], X[None], None, bufs))


def forward(model: MlpModel, X) -> np.ndarray:
    """Class probability vectors, one row per row of the (n, d) matrix X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise MialabError(f"features must be an (n, d) matrix, got shape {X.shape}")
    if X.shape[1] != model.layer_dims[0]:
        raise MialabError(
            f"feature width {X.shape[1]} does not match input dim {model.layer_dims[0]}"
        )
    return _one_replica_pass(model, X)[-1][0]


def _nll(p_true: np.ndarray) -> np.ndarray:
    """-log of the true class's probability, floored at PROB_FLOOR."""
    return -np.log(np.maximum(p_true, PROB_FLOOR))


def loglosses(model: MlpModel, rows: Rows) -> np.ndarray:
    return loglosses_of(forward(model, rows.X), rows.y)


def loglosses_of(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's logloss, from the probability rows that forward returned."""
    return _nll(probs[np.arange(len(labels)), labels])


def _errors(model: MlpModel, X: np.ndarray, y: np.ndarray) -> tuple:
    """One model's weights, layer inputs and per-example logloss errors at
    every layer's pre-activation, at (X, y), as one-replica stacks."""
    weights, acts, _, delta = _one_replica_pass(model, X)
    delta[0, np.arange(X.shape[0]), y] -= 1.0
    errors = [np.empty_like(a) for a in acts[1:]]
    return weights, acts, _backprop_rows(weights, acts, delta, None, errors)


def _per_example_grads(model: MlpModel, X: np.ndarray, y: np.ndarray,
                       l2_coefficient: float) -> np.ndarray:
    """Per-example gradients of (logloss + l2/2 * ||weights||^2), flattened
    in canonical order; shape (batch, n_params). The oracle for the
    ghost-norm clipping in train and for the finite-difference check."""
    weights, acts, deltas = _errors(model, X, y)
    out = np.empty((X.shape[0], model.n_params))
    for W, a, d, gW, gb in zip(weights, acts, deltas, *_layer_views(out, model.layer_dims)):
        np.multiply(a[0, :, :, None], d[0, :, None, :], out=gW)
        if l2_coefficient:
            gW += l2_coefficient * W
        gb[...] = d[0]
    return out


def _check_clipping(model: MlpModel, X: np.ndarray, y: np.ndarray, l2_coefficient: float,
                    norms: np.ndarray, scale: np.ndarray, clip_norm: float, step: int) -> None:
    """debug_checks: the ghost norms must match the explicit per-example
    gradients, and every clipped gradient must lie within the clip norm."""
    grads = _per_example_grads(model, X, y, l2_coefficient)
    ref = np.sqrt(np.einsum("ij,ij->i", grads, grads))
    if not np.all(np.abs(norms - ref) <= 1e-9 * ref):
        worst = int(np.argmax(np.abs(norms - ref)))
        raise AssertionError(
            f"ghost norm {norms[worst]:.17g} disagrees with per-example gradient "
            f"norm {ref[worst]:.17g} at step {step}"
        )
    post = ref * scale
    if not np.all(post <= clip_norm * (1 + 1e-9)):
        raise AssertionError(f"clipping violated at step {step}: max norm {post.max()}")


def training_steps(n: int, cfg: TrainConfig) -> int:
    return cfg.epochs * math.ceil(n / cfg.batch_size)


def sampling_rate(n: int, cfg: TrainConfig) -> float:
    return min(1.0, cfg.batch_size / n)


def _layer_views(buf: np.ndarray, dims: Sequence[int]) -> tuple[list, list]:
    """Per-layer (R, fan_in, fan_out) weight and (R, fan_out) bias views of
    an (R, n_params) buffer, in canonical order."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(buf[:, pos : pos + fan_in * fan_out].reshape(-1, fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(buf[:, pos : pos + fan_out])
        pos += fan_out
    return weights, biases


# The lockstep trainer's arrays are (R, rows, width), one slice per replica,
# and live in row buffers sized for the widest batch a step is expected to
# draw: the batch size without privacy and, with it, a Poisson batch's mean
# plus four standard deviations. A step that draws a wider Poisson batch
# reallocates them. When the replicas' batches differ in size (`counts` is
# then the list of sizes), short batches end in padding rows that hold stale
# values, and every product or sum over a replica's rows runs on that
# replica's rows alone: this BLAS can round a row of a product differently
# when the number of rows changes.


def _poisson_width(n: int, q: float) -> int:
    """Rows to buffer for a Poisson batch drawn from n rows at rate q
    (Abadi et al., arXiv:1607.00133): the mean plus four standard
    deviations, which one draw exceeds with probability below 1e-4."""
    return min(n, math.ceil(q * n + 4.0 * math.sqrt(n * q * (1.0 - q))) + 1)


def _row_buffers(R: int, rows: int, dims: Sequence[int]) -> tuple:
    """The trainer's row buffers for batches of up to `rows` rows: the batch
    rows and labels, per layer its products and outputs, and per hidden
    layer its errors. They are contiguous parts of one zeroed block: with
    one allocation per buffer, glibc's malloc trimmed its heap after a
    training call and the next call faulted the pages in again."""
    shapes = [(R, rows, dims[0]), (R, rows), *((R, rows, d) for d in dims[1:] for _ in range(2)),
              *((R, rows, d) for d in dims[1:-1])]
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
    X, y, *rest = (part.reshape(shape) for part, shape in zip(parts, shapes))
    layers = len(dims) - 1
    layer_bufs = [rest[2 * i : 2 * i + 2] for i in range(layers)]
    return X, y.view(np.int64), layer_bufs, rest[2 * layers :]


def _products(A: np.ndarray, B: np.ndarray, counts, out: np.ndarray) -> None:
    """A @ B per replica, into out."""
    if counts is None:
        np.matmul(A, B, out=out)
        return
    for r, k in enumerate(counts):
        np.matmul(A[r, :k], B[r], out=out[r, :k])


def _backprop_rows(weights: list, acts: list, delta: np.ndarray, counts, outs: list) -> list:
    """Errors at each layer's pre-activation, given the output errors; the
    hidden layers' go into outs. A hidden layer's activation max(z, 0) is
    positive exactly where its pre-activation z is."""
    deltas = [delta]
    for W, a, d in zip(weights[:0:-1], acts[:0:-1], outs[::-1]):
        _products(deltas[0], W.transpose(0, 2, 1), counts, out=d)
        d *= a > 0
        deltas.insert(0, d)
    return deltas


def _mean_losses(p_true: np.ndarray, weights: list, l2_coefficient: float, counts,
                 scratch: list) -> np.ndarray:
    """Each replica's mean logloss over its rows plus l2/2 * ||weights||^2,
    given every row's probability of its true class; scratch holds one
    array of each weight's shape to work in."""
    per_row = _nll(p_true)
    if counts is None:
        loss = per_row.sum(axis=1) / per_row.shape[1]
    else:
        loss = np.array([per_row[r, :k].sum() / k for r, k in enumerate(counts)])
    if l2_coefficient:
        for W, sq in zip(weights, scratch):
            np.multiply(W, W, out=sq)
            loss += 0.5 * l2_coefficient * sq.sum(axis=(1, 2))
    return loss


def _ghost_norms(weights: list, acts: list, products: list, deltas: list,
                 l2_coefficient: float, scratch: list) -> np.ndarray:
    """Per-example gradient norms, (R, rows), from each layer's inputs a,
    products a @ W and errors d alone; scratch holds one array of each
    weight's shape to work in.

    Example i's weight gradient in a dense layer is a_i d_i^T + l2 W, whose
    squared norm is |a_i|^2 |d_i|^2 + 2 l2 a_i^T W d_i + l2^2 |W|^2; its bias
    gradient adds |d_i|^2 (Goodfellow, arXiv:1510.01799).
    """
    sq = np.zeros(deltas[0].shape[:2])
    for a, aw, d, W, w2 in zip(acts, products, deltas, weights, scratch):
        dd = np.einsum("rij,rij->ri", d, d)
        sq += np.einsum("rij,rij->ri", a, a) * dd + dd
        if l2_coefficient:
            sq += 2.0 * l2_coefficient * np.einsum("rij,rij->ri", aw, d)
            np.multiply(W, W, out=w2)
            sq += l2_coefficient * l2_coefficient * w2.sum(axis=(1, 2))[:, None]
    # rounding in the cross term can push an exact 0 just below it; NaN stays NaN
    return np.sqrt(np.maximum(sq, 0.0))


def _grad_sum(weights: list, acts: list, deltas: list, l2_factor, counts,
              grad_weights: list, grad_biases: list, scratch: list) -> None:
    """Per replica and layer, the sum over rows of a_i d_i^T, plus
    l2_factor * W unless it is None, and the sum of d_i, written into the
    gradient buffer's views; scratch holds one array of each weight's
    shape to work in."""
    for a, d, W, gW, gb, l2W in zip(acts, deltas, weights, grad_weights, grad_biases, scratch):
        if counts is None:
            np.matmul(a.transpose(0, 2, 1), d, out=gW)
            d.sum(axis=1, out=gb)
        else:
            for r, k in enumerate(counts):
                np.matmul(a[r, :k].T, d[r, :k], out=gW[r])
                d[r, :k].sum(axis=0, out=gb[r])
        if l2_factor is not None:
            np.multiply(l2_factor, W, out=l2W)
            gW += l2W


def _check_shared(inits: Sequence[MlpModel], cfgs: Sequence[TrainConfig], privacies: list) -> None:
    """Replicas may differ in init, members, batch size and seed, and
    private ones in their epsilon and noise multiplier."""
    for r in range(1, len(inits)):
        if inits[r].layer_dims != inits[0].layer_dims:
            raise MialabError(f"replica {r}: layer dims {inits[r].layer_dims} differ from "
                              f"replica 0's {inits[0].layer_dims}")
        for f in fields(TrainConfig):
            mine, first = getattr(cfgs[r], f.name), getattr(cfgs[0], f.name)
            if f.name not in ("seed", "batch_size") and mine != first:
                raise MialabError(f"replica {r}: TrainConfig.{f.name} {mine!r} differs from "
                                  f"replica 0's {first!r}")
        mine, first = privacies[r], privacies[0]
        if (mine is None) != (first is None):
            raise MialabError(f"replica {r}: privacy {mine!r} differs from replica 0's {first!r}")
        for name in ("delta", "clip_norm") if first is not None else ():
            if getattr(mine, name) != getattr(first, name):
                raise MialabError(f"replica {r}: privacy {name} {getattr(mine, name)!r} differs "
                                  f"from replica 0's {getattr(first, name)!r}")


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
    Deterministic given cfg.seed. This is train_replicas with one replica.
    """
    return _train_lockstep([init], [members], [cfg], privacy, loss_callback)[0]


def train_replicas(
    inits: Sequence[MlpModel],
    member_sets: Sequence[Rows],
    cfgs: Sequence[TrainConfig],
    privacy=None,
) -> list[MlpModel]:
    """Train one model per (init, members, cfg) in lockstep; model r is
    bitwise the one train(inits[r], member_sets[r], cfgs[r], privacy)
    returns, privacy being model r's.

    The models share layer dims and every TrainConfig field but the seed
    and the batch size. privacy is one value, or one per model: either
    every model is private or none is, and private models share delta and
    clip norm but may differ in epsilon and noise multiplier. Member sets
    and batch sizes may differ, and so step counts and batch widths.
    Parameters and Adam moments are (R, n_params) buffers with per-layer
    views: a step runs each layer once for every model with steps left
    (most steps first, so these are a prefix) and one Adam update for all
    of them. Each model draws from its own cfg.seed stream in train's
    order. A model that fails raises what training the models one by one
    would have raised first, with that model's position in the call as
    the error's replica.
    """
    return _train_lockstep(inits, member_sets, cfgs, privacy)


def _forward_rows(weights: list, biases: list, X: np.ndarray, counts, bufs: list) -> tuple:
    """Every replica's forward pass into bufs, one (products, outputs) pair
    per layer, the outputs being activations and, last, the logits:
    returns (layer inputs, products a @ W, class probabilities)."""
    acts, products = [X], []
    for i, (W, b, (aw, out)) in enumerate(zip(weights, biases, bufs)):
        _products(acts[-1], W, counts, out=aw)
        np.add(aw, b[:, None, :], out=out)
        if i < len(weights) - 1:
            np.maximum(out, 0.0, out=out)
        products.append(aw)
        acts.append(out)
    return acts[:-1], products, _softmax(acts[-1])


def _adam(params: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray, t: int,
          cfg: TrainConfig, step: np.ndarray) -> None:
    """Adam step t on (R, n_params) buffers, in place, with the rounding of
    params - lr * m_hat / (sqrt(v_hat) + eps); step is one more such buffer
    to work in, and grad, dead once v is updated, holds the denominator."""
    b1, b2 = cfg.adam_betas
    np.multiply(grad, 1 - b1, out=step)
    m *= b1
    m += step
    np.multiply(grad, 1 - b2, out=step)
    step *= grad
    v *= b2
    v += step
    np.divide(m, 1 - b1**t, out=step)
    step *= cfg.learning_rate
    denom = grad
    np.divide(v, 1 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.adam_epsilon
    step /= denom
    params -= step


def _train_lockstep(inits, member_sets, cfgs, privacy, loss_callback=None) -> list[MlpModel]:
    """train_replicas; loss_callback, for a one-model call, is train's."""
    R = len(inits)
    if not R or len(member_sets) != R or len(cfgs) != R:
        raise MialabError(f"need one init, member set and config per replica, got "
                          f"{len(inits)}, {len(member_sets)} and {len(cfgs)}")
    privacies = list(privacy) if isinstance(privacy, (list, tuple)) else [privacy] * R
    if len(privacies) != R:
        raise MialabError(f"{len(privacies)} privacy settings for {R} replicas")
    _check_shared(inits, cfgs, privacies)
    for members, c in zip(member_sets, cfgs):
        if not members:
            raise MialabError("cannot train on an empty member set")
        if c.batch_size > len(members):
            raise MialabError(f"batch_size {c.batch_size} exceeds the {len(members)} training samples")

    def fail(failed: dict):
        """failed maps call positions to errors, all from one step. Raise
        the first position's, naming that position as its replica, unless
        the replicas before it, trained again, fail at a later step."""
        first = min(failed)
        if first:
            _train_lockstep(inits[:first], member_sets[:first], cfgs[:first], privacies[:first])
        failed[first].replica = first
        raise failed[first]

    cfg, privacy = cfgs[0], privacies[0]
    dims = inits[0].layer_dims
    l2 = cfg.l2_coefficient
    steps = [training_steps(len(members), c) for members, c in zip(member_sets, cfgs)]
    # Most steps first, so that the replicas with steps left are a prefix.
    order = sorted(range(R), key=lambda r: -steps[r])
    steps = [steps[r] for r in order]
    sets = [member_sets[r] for r in order]
    ns = [len(members) for members in sets]
    sizes = [cfgs[r].batch_size for r in order]
    per_epoch = [math.ceil(n / size) for n, size in zip(ns, sizes)]
    if privacy is not None:
        for n in ns:
            privacy.warn_if_delta_large(n)
        rates = [sampling_rate(n, cfgs[r]) for n, r in zip(ns, order)]
        sigmas = [privacies[r].noise_multiplier for r in order]
    rngs = [as_generator(cfgs[r].seed) for r in order]
    perms = [None] * R
    params = np.stack([inits[r].flatten() for r in order])
    m, v, grad, temp = (np.zeros_like(params), np.zeros_like(params), np.empty_like(params),
                        np.empty_like(params))
    # A step builds its gradient in grad, and Adam works in temp. Until
    # Adam runs, temp is idle and holds the l2 terms; a private step draws
    # its noisy mean of the clipped sum in grad into temp, so Adam reads
    # temp and works in grad.
    step_grad, adam_work = (grad, temp) if privacy is None else (temp, grad)
    # Row buffers for the widest batch a step is expected to draw; a wider
    # Poisson batch reallocates them.
    rows = max(sizes) if privacy is None else max(map(_poisson_width, ns, rates))
    X_buf, y_buf, layer_bufs, error_bufs = _row_buffers(R, rows, dims)

    def gradient(step: int, Xb: np.ndarray, yb: np.ndarray, counts) -> None:
        """Write every live replica's step gradient into step_grad, after
        the loss (or clipping-norm) checks that train makes; weights,
        biases, grad_views and scratch are the loop's views of the live
        replicas."""
        live, width = yb.shape
        acts, products, probs = _forward_rows(
            weights, biases, Xb, counts, [[a[:live, :width] for a in bs] for bs in layer_bufs])
        errors = [d[:live, :width] for d in error_bufs]
        # each row's true class, in the (rows, classes) view of probs
        true_class = (np.arange(live * width), yb.ravel())
        losses = None
        if privacy is None or (loss_callback is not None and width):
            p_true = probs.reshape(-1, dims[-1])[true_class].reshape(live, width)
            losses = _mean_losses(p_true, weights, l2, counts, scratch)
        delta = probs
        delta.reshape(-1, dims[-1])[true_class] -= 1.0
        if privacy is None:
            failed = {order[r]: TrainingDiverged(step, float(losses[r]))
                      for r in np.flatnonzero(~np.isfinite(losses))}
            if failed:
                fail(failed)
            if loss_callback is not None:
                loss_callback(step, float(losses[0]))
            delta /= width if counts is None else np.array(counts)[:, None, None]
            deltas = _backprop_rows(weights, acts, delta, counts, errors)
            _grad_sum(weights, acts, deltas, l2 if l2 else None, counts, *grad_views, scratch)
            return
        deltas = _backprop_rows(weights, acts, delta, counts, errors)
        norms = _ghost_norms(weights, acts, products, deltas, l2, scratch)
        ks = [width] * live if counts is None else counts
        finite = np.isfinite(norms) | (np.arange(width) >= np.array(ks)[:, None])
        failed = {order[r]: TrainingDiverged(step, float(norms[r, : ks[r]].max()),
                                             "per-example gradient norm")
                  for r in np.flatnonzero(~finite.all(axis=1))}
        if failed:
            fail(failed)
        scale = np.minimum(1.0, privacy.clip_norm / np.maximum(norms, 1e-300))
        if cfg.debug_checks:
            for r, k in enumerate(ks):
                _check_clipping(MlpModel.unflatten(dims, params[r]), Xb[r, :k], yb[r, :k],
                                l2, norms[r, :k], scale[r, :k], privacy.clip_norm, step)
        if losses is not None:
            loss_callback(step, float(losses[0]))
        l2_factor = None
        if l2:
            scale_sums = np.array([scale[r, :k].sum() for r, k in enumerate(ks)])
            l2_factor = (l2 * scale_sums)[:, None, None]
        for d in deltas:
            d *= scale[:, :, None]
        _grad_sum(weights, acts, deltas, l2_factor, counts, *grad_views, scratch)
        for r in range(live):
            dp.noisy_mean(grad[r], privacy.clip_norm, sigmas[r], rates[r] * ns[r], rngs[r], temp[r])

    live = 0
    for step in range(steps[0]):
        now_live = sum(s > step for s in steps)
        if now_live != live:
            live = now_live
            weights, biases = _layer_views(params[:live], dims)
            grad_views = _layer_views(grad[:live], dims)
            scratch = _layer_views(temp[:live], dims)[0]
        # Each replica's batch, drawn from its stream as train draws it.
        batches = []
        for r in range(live):
            if privacy is None:
                j = step % per_epoch[r]
                if j == 0:
                    perms[r] = rngs[r].permutation(ns[r])
                batches.append(perms[r][j * sizes[r] : (j + 1) * sizes[r]])
            else:
                batches.append(np.flatnonzero(rngs[r].random(ns[r]) < rates[r]))
        counts = [idx.size for idx in batches]
        width = max(counts)
        if min(counts) == width:
            counts = None
        if width > X_buf.shape[1]:
            X_buf, y_buf, layer_bufs, error_bufs = _row_buffers(R, width, dims)
        Xb, yb = X_buf[:live, :width], y_buf[:live, :width]
        for r, idx in enumerate(batches):
            np.take(sets[r].X, idx, axis=0, out=Xb[r, : idx.size], mode="clip")
            np.take(sets[r].y, idx, out=yb[r, : idx.size], mode="clip")
        gradient(step, Xb, yb, counts)
        _adam(params[:live], m[:live], v[:live], step_grad[:live], step + 1, cfg, adam_work[:live])
        if not np.isfinite(params[:live]).all():
            failed = {}
            for r in range(live):
                try:
                    MlpModel.unflatten(dims, params[r])
                except MialabError as exc:  # the model names the non-finite layer
                    failed[order[r]] = exc
            fail(failed)
    # Every buffer but params, and every view of one, is freed before the
    # models are built.
    del m, v, grad, temp, step_grad, adam_work, grad_views, scratch
    del X_buf, y_buf, Xb, yb, layer_bufs, error_bufs
    models = [None] * R
    for pos, r in enumerate(order):
        models[r] = MlpModel.unflatten(dims, params[pos])
    return models


def accuracy(model: MlpModel, rows: Rows) -> float:
    """Fraction of rows whose argmax prediction matches the label; argmax
    ties break toward the lower class index."""
    return accuracy_of(forward(model, rows.X), rows.y)


def accuracy_of(probs: np.ndarray, labels: np.ndarray) -> float:
    """accuracy, from the probability rows that forward returned."""
    if not len(labels):
        raise MialabError("accuracy over an empty sample list")
    return float(np.mean(np.argmax(probs, axis=1) == labels))
