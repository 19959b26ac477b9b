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

