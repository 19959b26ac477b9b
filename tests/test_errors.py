import math
import pickle

import pytest

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
    _refused,
)


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
