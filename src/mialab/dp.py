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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AccountingError, CalibrationError, _refused
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
        # A NaN fails each comparison. An infinite clip norm is allowed
        # only without noise, the non-private form.
        if not self.epsilon > 0:
            raise _refused("epsilon", f"must be > 0, got {self.epsilon}", AccountingError)
        if not 0 <= self.delta < 1:
            raise _refused("delta", f"must be in [0, 1), got {self.delta}", AccountingError)
        if not self.clip_norm > 0:
            raise _refused("clip_norm", f"must be > 0, got {self.clip_norm}", AccountingError)
        if not 0 <= self.noise_multiplier < math.inf:
            raise _refused("noise_multiplier", f"must be finite and >= 0, got "
                           f"{self.noise_multiplier}", AccountingError)
        if math.isfinite(self.epsilon) and self.noise_multiplier == 0:
            raise _refused("noise_multiplier", "finite epsilon requires a positive noise "
                           "multiplier", AccountingError)
        if self.noise_multiplier > 0 and self.clip_norm == math.inf:
            raise _refused("clip_norm", "must be finite when noise is added", AccountingError)

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
    noise_multiplier: float,
    expected_batch: float,
    seed,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """(gradient_sum + N(0, (noise_multiplier * clip_norm)^2 I)) / expected_batch,
    where gradient_sum is the sum of the batch's clipped gradients (zeros
    for an empty Poisson batch).

    The noise is z * noise_multiplier * clip_norm for standard normal draws
    z: what rng.normal(0, noise_multiplier * clip_norm) draws from the same
    stream positions, less its + 0.0, which can change only the sign of a
    zero. A zero noise multiplier draws nothing. The result is written into
    out when one is given, a float64 array of gradient_sum's shape that
    does not overlap it, and out is returned: a step then allocates
    nothing."""
    if not 0 <= noise_multiplier < math.inf:
        raise _refused("noise_multiplier", f"must be finite and >= 0, got {noise_multiplier}",
                       AccountingError)
    if not 0 < expected_batch < math.inf:
        raise _refused("expected_batch", f"must be finite and > 0, got {expected_batch}",
                       AccountingError)
    if noise_multiplier > 0 and not math.isfinite(clip_norm):
        raise _refused("clip_norm", "must be finite when noise is added", AccountingError)
    total = np.asarray(gradient_sum, dtype=np.float64)
    if out is None:
        out = np.empty_like(total)
    elif np.may_share_memory(out, total):
        raise AccountingError("out must not overlap gradient_sum")
    if noise_multiplier > 0:
        as_generator(seed).standard_normal(out=out)
        out *= noise_multiplier * clip_norm
        out += total
        out /= expected_batch
    else:
        np.divide(total, expected_batch, out=out)
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


def _log_moments(q: float, sigma: float, alphas: Sequence[int]) -> dict[int, float]:
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
    return dict(zip(alphas, _logsumexp(terms, starts).tolist()))


def _rdp_values(q: float, sigma: float, orders: Sequence[float]) -> tuple[float, ...]:
    """Renyi divergence of one subsampled-Gaussian step at each order, from
    one _log_moments pass over the integer orders they need."""
    if not 0 < sigma < math.inf:
        raise _refused("sigma", f"must be finite and > 0, got {sigma}", AccountingError)
    if 2.0 * sigma * sigma == 0.0:
        raise AccountingError(f"sigma={sigma} is too small: 2 sigma^2 underflows to 0")
    if not 0 < q <= 1:
        raise AccountingError(f"q must be in (0, 1], got {q}")
    for order in orders:
        if order <= 1:
            raise AccountingError(f"order must be > 1, got {order}")
    if q == 1.0:
        return tuple(order / (2.0 * sigma * sigma) for order in orders)
    # An integer order needs kappa there; a fractional one needs kappa at
    # both neighbouring integers, where kappa(1) = 0.
    floors = [math.floor(order) for order in orders]
    needed = {lo for lo in floors if lo > 1}
    needed.update(lo + 1 for lo, order in zip(floors, orders) if order != lo)
    kappa = _log_moments(q, sigma, sorted(needed)) if needed else {}
    values = []
    for lo, order in zip(floors, orders):
        if order == lo:
            values.append(kappa[lo] / (order - 1.0))
        else:
            t = order - lo
            kappa_lo = 0.0 if lo == 1 else kappa[lo]
            values.append(((1.0 - t) * kappa_lo + t * kappa[lo + 1]) / (order - 1.0))
    return tuple(values)


def account(q: float, sigma: float, steps: int, delta: float,
            orders: Sequence[float] = DEFAULT_ORDERS) -> AccountResult:
    """Epsilon at delta after `steps` steps of the Poisson-subsampled Gaussian
    mechanism (rate q, noise multiplier sigma), and the order achieving it:
    min over orders of steps * rdp(order) + log(1/delta) / (order - 1)."""
    values = _rdp_values(q, sigma, orders)
    if not values:
        raise AccountingError("empty RDP order grid")
    if any(v < 0 for v in values):
        raise AccountingError("RDP values must be non-negative")
    if not 0 < delta < 1:
        raise AccountingError(f"delta must be in (0, 1), got {delta}")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise _refused("steps", f"the number of steps must be an integer >= 1, got {steps!r}",
                       AccountingError)
    log_inv_delta = math.log(1.0 / delta)
    best_eps, best_order = math.inf, float(orders[0])
    for order, value in zip(orders, values):
        eps = steps * value + log_inv_delta / (order - 1.0)
        if eps < best_eps:
            best_eps, best_order = eps, float(order)
    return AccountResult(epsilon=best_eps, order=best_order)


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
    if not (math.isfinite(target_epsilon) and target_epsilon > 0):
        raise CalibrationError(f"target epsilon must be finite and > 0, got {target_epsilon}")
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
