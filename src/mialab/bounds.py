"""Upper bounds on membership advantage for (epsilon, delta)-DP training,
and the trade-off feasibility region they derive from.

All bounds apply to membership games with independently drawn samples;
none of them constrains games whose member/non-member construction couples
the samples.
"""

from __future__ import annotations

import math

from .errors import _refused

_EXP_CAP = 700.0  # exp() overflows just above this; beyond it treat e^eps as inf


def _check_rates(epsilon: float, delta: float) -> None:
    if epsilon < 0 or math.isnan(epsilon):
        raise _refused("epsilon", f"must be >= 0, got {epsilon}")
    if not 0 <= delta <= 1:
        raise _refused("delta", f"must be in [0, 1], got {delta}")


def bound_yeom(epsilon: float) -> float:
    """exp(epsilon) - 1, capped at the trivial bound 1 (delta = 0 only)."""
    _check_rates(epsilon, 0.0)
    if epsilon > math.log(2.0):
        return 1.0
    return math.expm1(epsilon)


def bound_erlingsson(epsilon: float, delta: float) -> float:
    """1 - exp(-epsilon) * (1 - delta)."""
    _check_rates(epsilon, delta)
    return 1.0 - math.exp(-epsilon) * (1.0 - delta)


def bound_new(epsilon: float, delta: float) -> float:
    """(exp(epsilon) - 1 + 2*delta) / (exp(epsilon) + 1).

    Computed as 1 - 2*(1 - delta)/(exp(epsilon) + 1) so large epsilon
    saturates cleanly at 1.
    """
    _check_rates(epsilon, delta)
    if epsilon > _EXP_CAP:
        return 1.0
    return 1.0 - 2.0 * (1.0 - delta) / (math.exp(epsilon) + 1.0)


def _exp_times(epsilon: float, x: float) -> float:
    if x == 0.0:
        return 0.0
    if epsilon > _EXP_CAP:
        return math.inf
    return math.exp(epsilon) * x


def tradeoff_feasible(tpr: float, fpr: float, epsilon: float, delta: float) -> bool:
    """Whether a (TPR, FPR) pair is achievable against an (epsilon, delta)-DP
    mechanism distinguishing two neighbouring inputs:

        FPR + e^eps * (1 - TPR) >= 1 - delta
        (1 - TPR) + e^eps * FPR >= 1 - delta
    """
    _check_rates(epsilon, delta)
    for field, rate in (("tpr", tpr), ("fpr", fpr)):
        if not 0 <= rate <= 1:  # NaN too
            raise _refused(field, f"must be in [0, 1], got {rate}")
    lhs1 = fpr + _exp_times(epsilon, 1.0 - tpr)
    lhs2 = (1.0 - tpr) + _exp_times(epsilon, fpr)
    return lhs1 >= 1.0 - delta and lhs2 >= 1.0 - delta
