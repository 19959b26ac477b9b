"""Exception types shared across the package, and the two type rules
every value owner applies: _integer (any integer but a bool, at least a
minimum) and _number (any real but a bool, read as a float)."""

import contextlib
import math
import numbers


class MialabError(Exception):
    """Base class for all errors raised by this package.

    replica is the failing model's position in the call when the error is
    one that training raises for one model of nn.train_replicas (for
    nn.train, 0), and None otherwise.

    field names what a value rule refused, and is None for every other
    error: a dataclass field, with an index where one applies
    (epsilon_grid[2], adam_betas[0]), or for a ConfigError the config path
    (train.l2). The message then reads "field: rule"."""

    replica = None
    field = None

    def __str__(self):
        message = super().__str__()
        return message if self.field is None else f"{self.field}: {message}"

    def __reduce__(self):
        # A subclass's __init__ may take other arguments than the message
        # in args, so unpickling rebuilds the error without calling it.
        return (_rebuilt, (type(self), self.args), self.__dict__)


def _rebuilt(cls, args):
    """An error of type cls with args, before its attributes are restored."""
    return cls.__new__(cls, *args)


def _refused(field, message, cls=MialabError):
    """The cls(message) error that a dataclass raises when the value of
    field breaks one of its rules; a ConfigError is built at field."""
    exc = cls(field, message) if issubclass(cls, ConfigError) else cls(message)
    exc.field = field
    return exc


def _integer(field, value, minimum, cls=MialabError):
    """Refuses a value of field that is not an integer >= minimum; any
    numbers.Integral but a bool is an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise _refused(field, f"must be an integer >= {minimum}, got {value!r}", cls)


def _number(field, value, cls=MialabError):
    """value as a float; refuses one that is not a number (any
    numbers.Real but a bool). An integer beyond the float range reads as
    +-inf, so the owner's range rule judges it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _refused(field, f"expected a number, got {value!r}", cls)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@contextlib.contextmanager
def _at_paths(paths, index=None):
    """Re-raise a refusal whose field paths maps as a ConfigError at the
    mapped config path or CLI flag, {} filled with index and the field's
    own index or subfield (adam_betas[0], train.batch_size) kept; any other
    error passes unchanged."""
    try:
        yield
    except MialabError as exc:
        name = exc.field and exc.field.split("[")[0].split(".")[0]
        if name not in paths:
            raise
        raise ConfigError(paths[name].format(index) + exc.field[len(name):], exc.args[0]) from exc


class SchemaError(MialabError):
    """A schema is internally inconsistent or does not match the data."""


class CsvParseError(MialabError):
    """A CSV file could not be parsed; carries the 1-based row number."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class PreprocessError(MialabError):
    """Preprocessing could not produce a valid dataset."""


class SplitError(MialabError):
    """A member/non-member split could not be constructed."""


class ShadowPoolTooSmall(SplitError):
    """Not enough leftover samples to train shadow models; the attack is skipped."""


class TrainingDiverged(MialabError):
    """Training produced a non-finite loss or per-example gradient norm.
    A parameter that turns non-finite raises a MialabError naming its
    layer instead; either carries the failing model's replica."""

    def __init__(self, step, value, quantity="training loss"):
        super().__init__(f"non-finite {quantity} {value!r} at step {step}")
        self.step = step
        self.value = value


class AccountingError(MialabError):
    """Privacy accounting was called with unusable inputs."""


class CalibrationError(AccountingError):
    """Noise calibration could not reach the target epsilon within the bracket."""


class ConfigError(MialabError):
    """An experiment config failed validation; field is the offending path."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field
