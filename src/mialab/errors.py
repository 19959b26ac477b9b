"""Exception types shared across the package."""


class MialabError(Exception):
    """Base class for all errors raised by this package.

    replica is the failing model's position in the call when the error is
    one that training raises for one model of nn.train_replicas (for
    nn.train, 0), and None otherwise."""

    replica = None


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
    """An experiment config failed validation; carries the offending field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
