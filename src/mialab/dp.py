"""Differential-privacy mechanics for noisy gradient training.

Implements Gaussian noising of summed clipped gradients, a one-call
Renyi-DP accountant for the Poisson-subsampled Gaussian mechanism that
converts the composed RDP to (epsilon, delta), and calibration of the
noise multiplier to a target epsilon.

The subsampled-Gaussian divergence at integer orders uses the binomial
moment expansion; fractional orders interpolate the log-moment function
between adjacent integers (an upper bound, since the log-moment is convex
in the order). Everything is computed in log space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import AccountingError, CalibrationError, _integer, _number, _refused
from .rngs import as_generator

DEFAULT_ORDERS: tuple[float, ...] = (
    1.25,
    1.5,
    1.75,
    *[2.0 + 0.5 * i for i in range(125)],  # 2.0, 2.5, ..., 64.0
    128.0,
    256.0,
)

# calibrate_sigma's bisection bracket and stopping width.
_SIGMA_MIN, _SIGMA_MAX = 1e-2, 1e3
_SIGMA_RESOLUTION = 1e-3


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and mechanism knobs for one training run."""

    epsilon: float
    delta: float = 1e-5
    clip_norm: float = 1.0
    noise_multiplier: float = 0.0

    def __post_init__(self):
        # The floats are stored; a NaN fails each comparison. An infinite
        # clip norm is allowed only without noise, the non-private form.
        eps, delta, clip_norm, sigma = (
            _number(f.name, getattr(self, f.name), AccountingError) for f in fields(self))
        if not eps > 0:
            raise _refused("epsilon", f"must be > 0, got {eps}", AccountingError)
        if not 0 <= delta < 1:
            raise _refused("delta", f"must be in [0, 1), got {delta}", AccountingError)
        if not clip_norm > 0:
            raise _refused("clip_norm", f"must be > 0, got {clip_norm}", AccountingError)
        if not 0 <= sigma < math.inf:
            raise _refused("noise_multiplier", f"must be finite and >= 0, got {sigma}",
                           AccountingError)
        if math.isfinite(eps) and sigma == 0:
            raise _refused("noise_multiplier", "finite epsilon requires a positive noise "
                           "multiplier", AccountingError)
        if sigma > 0 and clip_norm == math.inf:
            raise _refused("clip_norm", "must be finite when noise is added", AccountingError)
        for f, value in zip(fields(self), (eps, delta, clip_norm, sigma)):
            object.__setattr__(self, f.name, value)

    def warn_if_delta_large(self, n: int) -> None:
        # Recommended regime is delta < 1/n; violating it only warns.
        if n > 0 and self.delta >= 1.0 / n:
            warnings.warn(
                f"delta={self.delta} is not below 1/n={1.0 / n:.3g}; the privacy "
                "guarantee is weaker than recommended",
                stacklevel=2,
            )


@dataclass(frozen=True)
class AccountResult:
    epsilon: float
    order: float


def noisy_mean(
    gradient_sum: np.ndarray,
    clip_norm: float,
    noise_multiplier,
    expected_batch,
    seed,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """(gradient_sum + N(0, (noise_multiplier * clip_norm)^2 I)) / expected_batch,
    where gradient_sum is the sum of the batch's clipped gradients (zeros
    for an empty Poisson batch).

    A 2-D gradient_sum is a stack of such sums, one per row, as a lockstep
    trainer holds them; noise_multiplier, expected_batch and seed are then
    sequences with one entry per row. Row r of the result is what the call
    on row r's sum and entries returns, the rows draw from their own
    generators in row order, and a refusal names the row's entry
    (noise_multiplier[r]).

    The noise is z * noise_multiplier * clip_norm for standard normal draws
    z: what rng.normal(0, noise_multiplier * clip_norm) draws from the same
    stream positions, less its + 0.0, which can change only the sign of a
    zero. A zero noise multiplier draws nothing. The result is written into
    out when one is given, a float64 array of gradient_sum's shape that
    does not overlap it, and out is returned: a step then allocates
    nothing parameter-sized."""
    total = np.asarray(gradient_sum, dtype=np.float64)
    if total.ndim == 2:
        sigmas, batches, seeds = (list(v) for v in (noise_multiplier, expected_batch, seed))
        if not len(sigmas) == len(batches) == len(seeds) == len(total):
            raise AccountingError(
                f"need one noise multiplier, expected batch and seed per row of the "
                f"{len(total)} sums, got {len(sigmas)}, {len(batches)} and {len(seeds)}")
        indices = [f"[{r}]" for r in range(len(total))]
    else:
        sigmas, batches, seeds, indices = [noise_multiplier], [expected_batch], [seed], [""]
    for sigma, batch, index in zip(sigmas, batches, indices):
        if not 0 <= sigma < math.inf:
            raise _refused(f"noise_multiplier{index}", f"must be finite and >= 0, got {sigma}",
                           AccountingError)
        if not 0 < batch < math.inf:
            raise _refused(f"expected_batch{index}", f"must be finite and > 0, got {batch}",
                           AccountingError)
        if sigma > 0 and not math.isfinite(clip_norm):
            raise _refused("clip_norm", "must be finite when noise is added", AccountingError)
    if out is None:
        out = np.empty_like(total)
    elif np.may_share_memory(out, total):
        raise AccountingError("out must not overlap gradient_sum")
    stack, sums = (out, total) if total.ndim == 2 else (out[None], total[None])
    scales = np.empty(len(stack))
    for r, (sigma, gen) in enumerate(zip(sigmas, seeds)):
        if sigma > 0:
            as_generator(gen).standard_normal(out=stack[r])
            scales[r] = sigma * clip_norm
        else:
            # -0.0 + x is x, a zero's sign included, so the row is sum / batch
            stack[r] = -0.0
            scales[r] = 1.0
    stack *= scales[:, None]
    stack += sums
    stack /= np.array(batches, dtype=np.float64)[:, None]
    return out


_LOG_FACTORIALS: list[float] = []  # log(j!) at index j, extended on demand


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) for j = 0..n."""
    while len(_LOG_FACTORIALS) <= n:
        _LOG_FACTORIALS.append(math.lgamma(len(_LOG_FACTORIALS) + 1))
    return np.array(_LOG_FACTORIALS[: n + 1])


def _logsumexp(a: np.ndarray, starts: Sequence[int] = (0,)) -> np.ndarray:
    """scipy.special.logsumexp of each segment a[starts[k]:starts[k + 1]]
    of a real 1-D array (the last segment runs to the end).

    Bitwise equal to scipy: the same numpy operations in the same order,
    with the maxima split out of the sum and the sum scaled by their
    count. Elementwise steps run on all segments at once; each sum runs
    over its own segment, since numpy's pairwise summation groups the
    terms by the length of what it sums."""
    bounds = [*starts, len(a)]
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.maximum.reduceat(a, starts)
        a_max_each = np.repeat(a_max, np.diff(bounds))
        ties = a == a_max_each
        m = np.add.reduceat(ties, starts, dtype=a.dtype)
        e = np.exp(np.where(ties, -np.inf, a) - a_max_each)
        s = np.array([e[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])])
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        for k in np.flatnonzero(~np.isfinite(out)):
            # scipy's fallback where the shifted form is not finite
            out[k] = np.log(np.exp(a[bounds[k]:bounds[k + 1]]).sum(keepdims=True))[0]
    return out


def _log_moments(q: float, sigma: float, alphas: Sequence[int]) -> np.ndarray:
    """kappa(alpha) = log E[(mixture/base)^alpha] of the subsampled Gaussian
    with q < 1, for each integer alpha >= 2, by the binomial expansion
    sum_i C(alpha, i) q^i (1-q)^(alpha-i) exp((i^2 - i) / (2 sigma^2)).
    The terms of all orders are laid end to end and built in one pass."""
    log_fact = _log_factorials(max(alphas))
    lengths = np.array(alphas) + 1
    starts = np.cumsum(lengths) - lengths
    alpha = np.repeat(lengths - 1, lengths)
    i = np.arange(len(alpha)) - np.repeat(starts, lengths)
    terms = (
        (log_fact[alpha] - log_fact[i]) - log_fact[alpha - i]
        + i * math.log(q)
        + (alpha - i) * math.log1p(-q)
        + (i * i - i) / (2.0 * sigma * sigma)
    )
    return _logsumexp(terms, starts)


def _rdp_values(q: float, sigma: float, orders: Sequence[float]) -> np.ndarray:
    """Renyi divergence of one subsampled-Gaussian step at each order, from
    one _log_moments pass over the integer orders they need; every order's
    value takes the arithmetic steps of the scalar formula."""
    if not 0 < sigma < math.inf:
        raise _refused("sigma", f"must be finite and > 0, got {sigma}", AccountingError)
    if 2.0 * sigma * sigma == 0.0:
        raise _refused("sigma", f"must be large enough that 2 sigma^2 > 0, got {sigma}, "
                       "where 2 sigma^2 underflows to 0", AccountingError)
    if not 0 < q <= 1:
        raise _refused("q", f"must be in (0, 1], got {q}", AccountingError)
    order = np.asarray(orders, dtype=np.float64)
    refused = ~((1 < order) & (order < math.inf))
    if refused.any():
        raise AccountingError(f"order must be finite and > 1, got {order[refused][0]}")
    if q == 1.0:
        return order / (2.0 * sigma * sigma)
    if not order.size:
        return order
    # An integer order needs kappa there; a fractional one needs kappa at
    # both neighbouring integers, where kappa(1) = 0.
    floor = np.floor(order)
    fractional = order != floor
    lo = floor.astype(np.int64)
    needed = np.zeros(lo.max() + 2, dtype=bool)
    needed[lo[lo > 1]] = True
    needed[lo[fractional] + 1] = True
    kappa = np.zeros(needed.size)
    if needed.any():
        kappa[needed] = _log_moments(q, sigma, np.flatnonzero(needed).tolist())
    values = kappa[lo]
    t = order[fractional] - floor[fractional]
    values[fractional] = (1.0 - t) * values[fractional] + t * kappa[lo[fractional] + 1]
    return values / (order - 1.0)


def account(q: float, sigma: float, steps: int, delta: float,
            orders: Sequence[float] = DEFAULT_ORDERS) -> AccountResult:
    """Epsilon at delta after `steps` steps of the Poisson-subsampled Gaussian
    mechanism (rate q, noise multiplier sigma), and the order achieving it:
    min over orders of steps * rdp(order) + log(1/delta) / (order - 1), the
    first order in the grid on a tie."""
    q, sigma, delta = (_number(f, v, AccountingError)
                       for f, v in (("q", q), ("sigma", sigma), ("delta", delta)))
    order = np.asarray(orders, dtype=np.float64)
    values = _rdp_values(q, sigma, order)
    if not values.size:
        raise AccountingError("empty RDP order grid")
    if (values < 0).any():
        raise AccountingError("RDP values must be non-negative")
    if not 0 < delta < 1:
        raise _refused("delta", f"must be in (0, 1), got {delta}", AccountingError)
    _integer("steps", steps, 1, AccountingError)
    eps = float(steps) * values + math.log(1.0 / delta) / (order - 1.0)
    # a NaN never wins; with no finite epsilon the first order reports inf
    eps = np.where(eps < math.inf, eps, math.inf)
    best = int(np.argmin(eps))
    return AccountResult(epsilon=float(eps[best]), order=float(order[best]))


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    orders: Sequence[float] = DEFAULT_ORDERS,
) -> float:
    """Smallest noise multiplier whose accounted epsilon lands within 1%
    below the target, found by bisection on the sigma bracket
    [_SIGMA_MIN, _SIGMA_MAX] down to a width of _SIGMA_RESOLUTION."""
    target_epsilon = _number("target_epsilon", target_epsilon, CalibrationError)
    if not 0 < target_epsilon < math.inf:
        raise _refused("target_epsilon", f"must be finite and > 0, got {target_epsilon}",
                       CalibrationError)
    lo, hi = _SIGMA_MIN, _SIGMA_MAX
    # Every sigma is accounted once: eps_hi is the epsilon at the current hi.
    eps_hi = account(q, hi, steps, delta, orders).epsilon
    if eps_hi > target_epsilon:
        raise CalibrationError(
            f"even sigma={hi} gives epsilon {eps_hi:.4g} > {target_epsilon}; "
            "the target lies above the sigma bracket"
        )
    eps_lo = account(q, lo, steps, delta, orders).epsilon
    if eps_lo <= target_epsilon:
        raise CalibrationError(
            f"sigma={lo} already gives epsilon {eps_lo:.4g} <= {target_epsilon}; "
            "the target lies below the sigma bracket"
        )
    for _ in range(200):
        if hi - lo <= _SIGMA_RESOLUTION and eps_hi >= 0.99 * target_epsilon:
            break
        mid = 0.5 * (lo + hi)
        eps_mid = account(q, mid, steps, delta, orders).epsilon
        if eps_mid > target_epsilon:
            lo = mid
        else:
            hi, eps_hi = mid, eps_mid
    if not 0.97 * target_epsilon <= eps_hi <= target_epsilon:
        raise CalibrationError(
            f"bisection stalled at sigma={hi} with epsilon {eps_hi:.6g} "
            f"for target {target_epsilon}"
        )
    return hi
