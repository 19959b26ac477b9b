"""Tabular data loading and preprocessing into the numeric sample space.

CSV files are comma separated with a header row; an empty string marks a
missing cell. A schema assigns every column a kind (numeric/categorical)
and a role (feature/label/split-attribute/ignored). Preprocessing is one
pass over the columns: it imputes missing cells, one-hot encodes
categorical features, min-max scales numeric features to [0, 1], and
drops duplicate rows keeping one random copy. Errors name the CSV line,
counting the header as line 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CsvParseError, PreprocessError, SchemaError, _integer

KINDS = ("numeric", "categorical")
ROLES = ("feature", "label", "split-attribute", "ignored")

RawTable = list[dict[str, "str | None"]]


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    role: str = "feature"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]
    label_classes: int

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dup}")
        labels = [c for c in self.columns if c.role == "label"]
        if len(labels) != 1:
            raise SchemaError(f"schema needs exactly one label column, found {len(labels)}")
        split = [c for c in self.columns if c.role == "split-attribute"]
        if len(split) > 1:
            raise SchemaError(f"schema allows at most one split-attribute column, found {len(split)}")
        _integer("label_classes", self.label_classes, 2, SchemaError)

    @property
    def label_column(self) -> Column:
        return next(c for c in self.columns if c.role == "label")

    @property
    def split_attribute_column(self) -> "Column | None":
        return next((c for c in self.columns if c.role == "split-attribute"), None)

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role == "feature")

    @classmethod
    def from_json(cls, obj: dict) -> "Schema":
        try:
            columns = tuple(
                Column(c["name"], c["kind"], c.get("role", "feature")) for c in obj["columns"]
            )
            return cls(columns=columns, label_classes=obj["label_classes"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema document: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: "str | Path") -> "Schema":
        path = Path(path)
        if not path.is_file():
            raise SchemaError(f"no such schema file: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path.name}: invalid JSON: {exc}") from exc
        return cls.from_json(doc)


class Rows:
    """An immutable set of samples held as arrays: features X (n x d,
    float64), labels y (n, int64) and the raw split-attribute values (an
    object array, or None when no row carries one).

    rows[idx] with a slice, an index array or a boolean mask yields a Rows
    in that row order; one row is rows[[i]]. A Rows is not iterable.
    """

    __slots__ = ("X", "y", "attribute")

    def __init__(self, X, y, attribute=None):
        # Copies, so that no caller keeps a writable alias of the store.
        self._hold(np.array(X, dtype=np.float64), np.array(y, dtype=np.int64),
                   None if attribute is None else np.array(attribute, dtype=object))

    @classmethod
    def _adopt(cls, X, y, attribute=None) -> "Rows":
        """Rows over arrays that indexing or concatenation just made and
        nothing else holds (float64 X, int64 y, an object attribute or
        None): they are frozen in place, not copied."""
        rows = cls.__new__(cls)
        rows._hold(X, y, attribute)
        return rows

    def _hold(self, X, y, attribute):
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise PreprocessError(f"rows need X of shape (n, d) and y of shape (n,), "
                                  f"got {X.shape} and {y.shape}")
        if attribute is not None and attribute.shape != y.shape:
            raise PreprocessError(f"attribute shape {attribute.shape} != {y.shape}")
        for name, arr in (("X", X), ("y", y), ("attribute", attribute)):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def concat(cls, parts: "Sequence[Rows]") -> "Rows":
        """All rows of the parts, in order."""
        attribute = None
        if any(p.attribute is not None for p in parts):
            attribute = np.concatenate(
                [np.full(len(p), None, dtype=object) if p.attribute is None else p.attribute
                 for p in parts]
            )
        return cls._adopt(
            np.concatenate([p.X for p in parts]), np.concatenate([p.y for p in parts]), attribute
        )

    def keys(self) -> np.ndarray:
        """The distinct row keys, sorted: one opaque value per distinct
        (feature bits, label) pair, so two rows share a key exactly when
        their features are bitwise equal and their labels match."""
        keys = self._sorted_keys()
        return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]

    def _sorted_keys(self) -> np.ndarray:
        """Every row's key, repeats included, sorted."""
        keys = _row_keys(self.X, self.y)
        keys.sort()
        return keys

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            raise TypeError(f"Rows takes a slice, an index array or a mask; "
                            f"for one row use rows[[{index}]]")
        attribute = None if self.attribute is None else self.attribute[index]
        if isinstance(index, slice):  # views of the store: copy them
            return Rows(self.X[index], self.y[index], attribute)
        return Rows._adopt(self.X[index], self.y[index], attribute)

    __iter__ = None

    def __setattr__(self, name, value):
        raise AttributeError("Rows is immutable")

    def __reduce__(self):
        # numpy does not restore writeable=False on unpickle; __init__ does.
        return (Rows, (self.X, self.y, self.attribute))

    def __eq__(self, other):
        if not isinstance(other, Rows):
            return NotImplemented
        attrs = [None if r.attribute is None else r.attribute.tolist() for r in (self, other)]
        return (
            np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
            and attrs[0] == attrs[1]
        )

    __hash__ = None

    def __repr__(self):
        return f"Rows(n={len(self)}, dim={self.X.shape[1]})"


def _row_keys(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's key, in row order: its feature bits and label packed into
    one opaque value (see Rows.keys)."""
    packed = np.column_stack([X.view(np.int64), y])
    return packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel()


def distinct(values, axis=None) -> np.ndarray:
    """np.unique(values, axis=axis): the sorted distinct values, or rows,
    with its value semantics (0.0 and -0.0 are one value).
    Asking np.unique for counts keeps it from calling np.ma.is_masked, which
    in numpy 2.4 imports numpy.ma (about 1.3 MB and 15 ms) on first use."""
    return np.unique(values, return_counts=True, axis=axis)[0]


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    samples: Rows

    def __post_init__(self):
        if not self.samples:
            raise PreprocessError("dataset is empty")
        if self.feature_width == 0:
            raise PreprocessError("zero-width feature space")
        if not np.all(np.isfinite(self.samples.X)):
            raise PreprocessError("non-finite feature value")
        keys = self.samples._sorted_keys()
        if (keys[1:] == keys[:-1]).any():
            raise PreprocessError("dataset contains duplicate (features, label) rows")

    @property
    def feature_width(self) -> int:
        return self.samples.X.shape[1]


def load_csv(path: "str | Path", schema: Schema) -> RawTable:
    """Read a CSV file whose header matches the schema's column names.

    Missing cells (empty strings) come back as None. Row i of the result is
    line i + 2 of the file: blank lines are allowed only at its end, and a
    record may not span lines.
    """
    path = Path(path)
    if not path.is_file():
        raise CsvParseError(f"no such file: {path}")
    expected = {c.name for c in schema.columns}
    rows: RawTable = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("file is empty", row=1) from None
        except csv.Error as exc:
            raise CsvParseError(str(exc), row=1) from exc
        got = set(header)
        if len(got) != len(header):
            raise SchemaError(f"{path.name}: duplicate header columns")
        unknown = sorted(got - expected)
        missing = sorted(expected - got)
        if unknown:
            raise SchemaError(f"{path.name}: unknown column(s) {unknown}")
        if missing:
            raise SchemaError(f"{path.name}: header is missing column(s) {missing}")
        blank = None
        try:
            for lineno, row in enumerate(reader, start=2):
                if reader.line_num != lineno:
                    raise CsvParseError("a quoted cell spans lines; a record must be one line",
                                        row=lineno)
                if not row:
                    blank = blank or lineno
                    continue
                if blank:
                    raise CsvParseError("blank line inside the table", row=blank)
                if len(row) != len(header):
                    raise CsvParseError(
                        f"expected {len(header)} cells, got {len(row)}", row=lineno
                    )
                rows.append(
                    {name: (cell if cell != "" else None) for name, cell in zip(header, row)}
                )
        except csv.Error as exc:
            raise CsvParseError(str(exc), row=reader.line_num) from exc
    return rows


def _parse_numeric(value: str, column: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise PreprocessError(
            f"column {column!r}, line {line}: cannot parse {value!r} as a number"
        ) from None
    if not math.isfinite(number):
        raise PreprocessError(f"column {column!r}, line {line}: {value!r} is not finite")
    return number


def _filled_with_mode(cells: list, column: str) -> list[str]:
    """The cells with missing ones set to the column mode; ties go to the
    value seen first, for determinism."""
    counts: dict[str, int] = {}
    for v in cells:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        raise PreprocessError(f"column {column!r}: all values are missing")
    best = max(counts.values())
    mode = next(v for v in counts if counts[v] == best)
    return [mode if v is None else v for v in cells]


def _numeric_feature(cells: list, column: str) -> np.ndarray:
    """One min-max scaled column; missing cells get the column mean."""
    present = [i for i, v in enumerate(cells) if v is not None]
    if not present:
        raise PreprocessError(f"column {column!r}: all values are missing")
    values = [_parse_numeric(cells[i], column, i + 2) for i in present]
    lo, hi = min(values), max(values)
    if hi == lo:
        return np.zeros((len(cells), 1))
    scaled = np.full(len(cells), float(np.mean(values)))
    scaled[present] = values
    return ((scaled - lo) / (hi - lo))[:, None]


def _one_hot(cells: list, column: str) -> np.ndarray:
    """Indicator columns, one per distinct value in sorted order; missing
    cells get the column mode."""
    filled = _filled_with_mode(cells, column)
    index = {v: j for j, v in enumerate(sorted(set(filled)))}
    block = np.zeros((len(cells), len(index)))
    block[np.arange(len(cells)), [index[v] for v in filled]] = 1.0
    return block


def preprocess(raw: RawTable, schema: Schema, seed: int) -> Dataset:
    """Encode a raw table into a Dataset, one column at a time.

    Numeric missing cells get the column mean, categorical ones the column
    mode; categorical features are one-hot encoded and numeric features
    min-max scaled to [0, 1] (constant columns map to 0). Labels map to
    their index in sorted order. Duplicate (features, label) rows collapse
    to a single copy chosen uniformly at random with the given seed. The
    split-attribute column is carried as per-sample metadata and never
    enters the features. Errors name the column and the CSV line: row i of
    the table is line i + 2, as load_csv reads it.
    """
    if not raw:
        raise PreprocessError("cannot preprocess an empty table")
    if not schema.feature_columns:
        raise PreprocessError("zero-width feature space: schema has no feature columns")
    X = np.hstack([
        (_numeric_feature if c.kind == "numeric" else _one_hot)([r[c.name] for r in raw], c.name)
        for c in schema.feature_columns
    ])
    label = schema.label_column
    cells = [row[label.name] for row in raw]
    if None in cells:
        line = cells.index(None) + 2
        raise PreprocessError(f"label column {label.name!r}, line {line}: missing value")
    if label.kind == "numeric":
        cells = [_parse_numeric(v, label.name, i + 2) for i, v in enumerate(cells)]
    classes = {v: i for i, v in enumerate(sorted(set(cells)))}
    if len(classes) > schema.label_classes:
        raise PreprocessError(f"found {len(classes)} distinct labels, "
                              f"schema allows {schema.label_classes}")
    y = np.array([classes[v] for v in cells], dtype=np.int64)
    # Rows with one key form a group, and one row of each survives: the
    # only one, or one drawn with the seed, in the order of first rows.
    keys = _row_keys(X, y)
    del X  # the keys hold every feature bit; the survivors are taken from them
    order = np.argsort(keys, kind="stable")  # groups in key order, each in row order
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    del ordered
    counts = np.diff(starts, append=len(keys))
    survivors = order[starts]  # each group's first row
    rng = np.random.default_rng(seed)
    repeated = np.flatnonzero(counts > 1)
    for g in repeated[np.argsort(survivors[repeated])]:
        survivors[g] = order[starts[g] + int(rng.integers(int(counts[g])))]
    survivors.sort()
    X = keys.view(np.int64).reshape(len(keys), -1)[survivors, :-1].view(np.float64)
    del keys
    split = schema.split_attribute_column
    attribute = None
    if split is not None:
        attrs = _filled_with_mode([row[split.name] for row in raw], split.name)
        attribute = np.array(attrs, dtype=object)[survivors]
    return Dataset(schema=schema, samples=Rows._adopt(X, y[survivors], attribute))
