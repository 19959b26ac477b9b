import math

import numpy as np
import pytest

from mialab.bounds import bound_erlingsson, bound_new, bound_yeom, tradeoff_feasible
from mialab.errors import MialabError

EPS_GRID = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
DELTAS = [0.0, 1e-5, 1e-3]


class TestFormulas:
    def test_yeom(self):
        assert bound_yeom(0.0) == 0.0
        assert bound_yeom(math.log(2)) == pytest.approx(1.0)
        assert bound_yeom(0.1) == pytest.approx(math.exp(0.1) - 1)
        assert bound_yeom(5.0) == 1.0

    def test_erlingsson(self):
        assert bound_erlingsson(0.0, 0.0) == 0.0
        assert bound_erlingsson(3.0, 1.0) == 1.0
        assert bound_erlingsson(1.0, 1e-5) == pytest.approx(
            1 - math.exp(-1) * (1 - 1e-5), abs=1e-15
        )
        assert bound_erlingsson(1.0, 1e-5) == pytest.approx(0.632124, abs=1e-6)

    def test_new(self):
        assert bound_new(0.0, 0.0) == 0.0
        assert bound_new(1.0, 1e-5) == pytest.approx(
            (math.e - 1 + 2e-5) / (math.e + 1), abs=1e-15
        )
        assert bound_new(1.0, 1e-5) == pytest.approx(0.462123, abs=1e-6)
        assert bound_new(1e6, 0.0) == 1.0
        assert bound_new(math.inf, 1e-5) == 1.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(MialabError):
            bound_yeom(-0.1)
        with pytest.raises(MialabError):
            bound_new(1.0, -0.5)

    @pytest.mark.parametrize("bound, args, field", [
        (bound_new, (-0.1, 1e-5), "epsilon"),
        (bound_new, (math.nan, 1e-5), "epsilon"),
        (bound_new, (1.0, -0.5), "delta"),
        (bound_new, (1.0, math.nan), "delta"),
        (bound_erlingsson, (-0.1, 1e-5), "epsilon"),
        (bound_erlingsson, (math.nan, 1e-5), "epsilon"),
        (bound_erlingsson, (1.0, 1.5), "delta"),
        (bound_erlingsson, (1.0, math.nan), "delta"),
        (bound_yeom, (-0.1,), "epsilon"),
        (bound_yeom, (math.nan,), "epsilon"),
        (tradeoff_feasible, (1.5, 0.0, 1.0, 0.0), "tpr"),
        (tradeoff_feasible, (-0.1, 0.0, 1.0, 0.0), "tpr"),
        (tradeoff_feasible, (math.nan, 0.0, 1.0, 0.0), "tpr"),
        (tradeoff_feasible, (0.5, 1.5, 1.0, 0.0), "fpr"),
        (tradeoff_feasible, (0.5, -0.1, 1.0, 0.0), "fpr"),
        (tradeoff_feasible, (0.5, math.nan, 1.0, 0.0), "fpr"),
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_refusal_names_its_field(self, bound, args, field):
        with pytest.raises(MialabError) as refused:
            bound(*args)
        assert refused.value.field == field
        assert str(refused.value).startswith(f"{field}: must be ")


class TestOrderingAndMonotonicity:
    def test_new_below_erlingsson_everywhere(self):
        for eps in EPS_GRID:
            for delta in DELTAS:
                assert bound_new(eps, delta) <= bound_erlingsson(eps, delta) + 1e-15

    def test_new_below_yeom_at_delta_zero(self):
        for eps in EPS_GRID:
            assert bound_new(eps, 0.0) <= bound_yeom(eps) + 1e-15

    def test_erlingsson_below_yeom_at_delta_zero(self):
        for eps in EPS_GRID:
            assert bound_erlingsson(eps, 0.0) <= bound_yeom(eps) + 1e-15

    def test_all_zero_at_origin_and_capped_at_one(self):
        assert bound_yeom(0.0) == bound_erlingsson(0.0, 0.0) == bound_new(0.0, 0.0) == 0.0
        for eps in EPS_GRID:
            for delta in DELTAS:
                assert bound_erlingsson(eps, delta) <= 1.0
                assert bound_new(eps, delta) <= 1.0
                assert bound_yeom(eps) <= 1.0

    def test_monotone_in_epsilon_and_delta(self):
        for delta in DELTAS:
            values = [bound_new(e, delta) for e in EPS_GRID]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
            values = [bound_erlingsson(e, delta) for e in EPS_GRID]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        values = [bound_yeom(e) for e in EPS_GRID]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        for eps in EPS_GRID:
            by_delta = [bound_new(eps, d) for d in DELTAS]
            assert all(a <= b + 1e-15 for a, b in zip(by_delta, by_delta[1:]))


class TestTradeoffRegion:
    def test_diagonal_always_feasible(self):
        for r in np.linspace(0, 1, 11):
            assert tradeoff_feasible(r, r, 0.0, 0.0)
            assert tradeoff_feasible(r, r, 2.0, 1e-5)

    def test_perfect_attack_infeasible(self):
        assert not tradeoff_feasible(1.0, 0.0, 1.0, 0.0)

    def test_feasible_points_respect_new_bound(self):
        grid = np.linspace(0.0, 1.0, 101)
        for eps in (0.1, 1.0, 10.0):
            for delta in (0.0, 1e-5):
                cap = bound_new(eps, delta)
                for tpr in grid:
                    for fpr in grid:
                        if tradeoff_feasible(tpr, fpr, eps, delta):
                            assert tpr - fpr <= cap + 1e-12

    def test_rates_validated(self):
        with pytest.raises(MialabError, match=r"^tpr: must be in \[0, 1\], got 1.5$"):
            tradeoff_feasible(1.5, 0.0, 1.0, 0.0)
