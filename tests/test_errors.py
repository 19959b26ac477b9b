import math
import pickle

import numpy as np
import pytest

from mialab import bounds, dp, nn
from mialab.dataio import Column, Rows, Schema
from mialab.errors import (
    AccountingError,
    CalibrationError,
    ConfigError,
    CsvParseError,
    MialabError,
    PreprocessError,
    SchemaError,
    ShadowPoolTooSmall,
    SplitError,
    TrainingDiverged,
    _at_paths,
    _integer,
    _number,
    _refused,
)
from mialab.experiments import ExperimentConfig
from mialab.splits import MixturePools
from mialab.synthetic import GaussianComponent


def _with_replica(exc, replica):
    exc.replica = replica
    return exc


CASES = {
    "MialabError": _refused("epsilon_grid[2]", "must be > 0, got -1"),
    "SchemaError": SchemaError("duplicate column names: ['a']"),
    "CsvParseError": CsvParseError("expected 3 cells, got 2", row=7),
    "PreprocessError": PreprocessError("dataset is empty"),
    "SplitError": SplitError("need at least 2 pools, got 1"),
    "ShadowPoolTooSmall": ShadowPoolTooSmall("shadow attack skipped"),
    "TrainingDiverged": _with_replica(TrainingDiverged(3, math.nan), 1),
    "AccountingError": _refused("noise_multiplier", "must be finite", AccountingError),
    "CalibrationError": CalibrationError("no sigma reaches epsilon 0.01"),
    "ConfigError": ConfigError("train.l2", "bad"),
}
ATTRIBUTES = ("field", "replica", "row", "step", "value", "args")


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_cases_cover_every_error_type():
    assert {type(exc) for exc in CASES.values()} == _subclasses(MialabError)


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip_keeps_type_message_and_attributes(name):
    exc = CASES[name]
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for attr in ATTRIBUTES:
        # repr, so that a NaN value compares equal to itself
        assert repr(getattr(back, attr, None)) == repr(getattr(exc, attr, None)), attr



@pytest.mark.parametrize("exc, paths, index, path", [
    (_refused("components[1].label", "required"), {"components": "data.components"}, None,
     "data.components[1].label"),
    (_refused("adam_betas[0]", "must be in [0, 1)"), {"adam_betas": "train.adam_betas"}, None,
     "train.adam_betas[0]"),
    (_refused("epsilon", "must be >= 0, got -2.0"), {"epsilon": "epsilons[{}]"}, 3, "epsilons[3]"),
])
def test_at_paths_reraises_a_named_refusal_at_its_path(exc, paths, index, path):
    with pytest.raises(ConfigError) as raised:
        with _at_paths(paths, index):
            raise exc
    assert raised.value.field == path
    assert raised.value.args == exc.args
    assert raised.value.__cause__ is exc


@pytest.mark.parametrize("exc", [SplitError("need at least 2 pools, got 1"),
                                 _refused("order", "must be > 1", AccountingError)])
def test_at_paths_passes_an_unnamed_or_unmapped_error(exc):
    with pytest.raises(MialabError) as raised:
        with _at_paths({"q": "--q"}):
            raise exc
    assert raised.value is exc


def _experiment(**change):
    return ExperimentConfig(**{"n_members": 10, "n_nonmembers": 10, "epsilon_grid": (1.0,),
                               "train": nn.TrainConfig(), **change})


@pytest.mark.parametrize("build, field", [
    (lambda: nn.TrainConfig(learning_rate="0.1"), "learning_rate"),
    (lambda: nn.TrainConfig(learning_rate=True), "learning_rate"),
    (lambda: nn.TrainConfig(learning_rate=10**400), "learning_rate"),
    (lambda: nn.TrainConfig(adam_betas=("a", 0.999)), "adam_betas[0]"),
    (lambda: _experiment(delta="x"), "delta"),
    (lambda: _experiment(epsilon_grid=("1",)), "epsilon_grid[0]"),
    (lambda: _experiment(clip_norm=True), "clip_norm"),
    (lambda: dp.PrivacyParams(epsilon="x"), "epsilon"),
    (lambda: dp.account("x", 1.0, 10, 1e-5), "q"),
    (lambda: dp.account(0.1, 1.0, 10, "x"), "delta"),
    (lambda: dp.calibrate_sigma("1", 1e-5, 0.1, 10), "target_epsilon"),
    (lambda: bounds.bound_new("x", 0.0), "epsilon"),
    (lambda: GaussianComponent(mean=("a", 0.0), label=0), "mean[0]"),
])
def test_every_owner_types_its_fields_and_names_them(build, field):
    with pytest.raises(MialabError) as refused:
        build()
    assert refused.value.field == field


def test_numpy_integers_are_integers():
    assert nn.TrainConfig(epochs=np.int64(3)).epochs == 3
    assert _experiment(n_members=np.int64(10)).n_members == 10
    assert GaussianComponent(mean=(0.0,), label=np.int64(1)).label == 1
    pools = (Rows([[1.0]], [0]), Rows([[2.0]], [1]))
    assert MixturePools(pools=pools, k_member=np.int64(1)).k_member == 1
    assert dp.account(0.1, 1.0, np.int64(10), 1e-5) == dp.account(0.1, 1.0, 10, 1e-5)
    columns = (Column("x", "numeric"), Column("y", "categorical", "label"))
    assert Schema(columns=columns, label_classes=np.int64(2)).label_classes == 2


def test_owners_store_the_floats_they_were_given_as_integers():
    tc = nn.TrainConfig(learning_rate=1, adam_betas=[0, 0.5], adam_epsilon=1)
    assert (tc.learning_rate, tc.adam_betas, tc.adam_epsilon) == (1.0, (0.0, 0.5), 1.0)
    assert type(tc.learning_rate) is float and type(tc.adam_betas[0]) is float
    cfg = _experiment(epsilon_grid=(1, math.inf), clip_norm=2)
    assert [type(v) for v in (*cfg.epsilon_grid, cfg.clip_norm)] == [float] * 3
    privacy = dp.PrivacyParams(epsilon=2, noise_multiplier=np.float32(1.5))
    assert type(privacy.epsilon) is float and type(privacy.noise_multiplier) is float


@pytest.mark.parametrize("value, expected", [
    (3, 3.0), (np.int64(-2), -2.0), (np.float32(0.5), 0.5), (10**400, math.inf),
    (-(10**400), -math.inf), (math.nan, math.nan),
])
def test_number_reads_any_real_but_a_bool_as_a_float(value, expected):
    number = _number("x", value)
    assert type(number) is float and repr(number) == repr(expected)


@pytest.mark.parametrize("check, cls, message", [
    (lambda cls: _number("x", True, cls), SplitError, "x: expected a number, got True"),
    (lambda cls: _number("x", "1", cls), SplitError, "x: expected a number, got '1'"),
    (lambda cls: _number("x", None, cls), SplitError, "x: expected a number, got None"),
    (lambda cls: _integer("x", False, 1, cls), SplitError, "x: must be an integer >= 1, got False"),
    (lambda cls: _integer("x", 1.0, 1, cls), SplitError, "x: must be an integer >= 1, got 1.0"),
    (lambda cls: _integer("x", 0, 1, cls), SplitError, "x: must be an integer >= 1, got 0"),
    (lambda cls: _integer("split.k", 1, 2, cls), ConfigError,
     "split.k: must be an integer >= 2, got 1"),
])
def test_type_rules_refuse_with_one_message_form(check, cls, message):
    with pytest.raises(cls) as refused:
        check(cls)
    assert str(refused.value) == message
    assert refused.value.field == message.split(":")[0]
