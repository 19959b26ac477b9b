"""Tabular data loading and preprocessing into the numeric sample space.

CSV files are comma separated with a header row; an empty string marks a
missing cell. A schema assigns every column a kind (numeric/categorical)
and a role (feature/label/split-attribute/ignored). Preprocessing imputes
missing cells, one-hot encodes categorical features, min-max scales numeric
features to [0, 1], and drops duplicate rows keeping one random copy.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CsvParseError, PreprocessError, SchemaError

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
        if self.label_classes < 2:
            raise SchemaError(f"label_classes must be >= 2, got {self.label_classes}")

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
            return cls(columns=columns, label_classes=int(obj["label_classes"]))
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

    def to_json(self) -> dict:
        return {
            "columns": [{"name": c.name, "kind": c.kind, "role": c.role} for c in self.columns],
            "label_classes": self.label_classes,
        }


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
        X = np.array(X, dtype=np.float64)
        y = np.array(y, dtype=np.int64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise PreprocessError(f"rows need X of shape (n, d) and y of shape (n,), "
                                  f"got {X.shape} and {y.shape}")
        if attribute is not None:
            attribute = np.array(attribute, dtype=object)
            if attribute.shape != y.shape:
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
        return cls(
            np.concatenate([p.X for p in parts]), np.concatenate([p.y for p in parts]), attribute
        )

    def keys(self) -> np.ndarray:
        """The distinct row keys, sorted: one opaque value per distinct
        (feature bits, label) pair, so two rows share a key exactly when
        their features are bitwise equal and their labels match."""
        packed = np.column_stack([self.X.view(np.int64), self.y])
        keys = packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).ravel()
        keys.sort()
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        return keys[distinct]

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            raise TypeError(f"Rows takes a slice, an index array or a mask; "
                            f"for one row use rows[[{index}]]")
        attribute = None if self.attribute is None else self.attribute[index]
        return Rows(self.X[index], self.y[index], attribute)

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


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    samples: Rows
    provenance: str = ""

    def __post_init__(self):
        if not self.samples:
            raise PreprocessError("dataset is empty")
        if self.feature_width == 0:
            raise PreprocessError("zero-width feature space")
        if not np.all(np.isfinite(self.samples.X)):
            raise PreprocessError("non-finite feature value")
        if len(self.samples.keys()) != len(self.samples):
            raise PreprocessError("dataset contains duplicate (features, label) rows")

    @property
    def feature_width(self) -> int:
        return self.samples.X.shape[1]


def load_csv(path: "str | Path", schema: Schema) -> RawTable:
    """Read a CSV file whose header matches the schema's column names.

    Missing cells (empty strings) come back as None. Row order is preserved.
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
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
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


def _parse_numeric(value: str, column: str, row: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise PreprocessError(
            f"column {column!r}, row {row}: cannot parse {value!r} as a number"
        ) from None


def _mode_first_seen(values: Sequence[str]) -> str:
    # Ties broken by first appearance, for determinism.
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return next(v for v in counts if counts[v] == best)


class TabularEncoder:
    """Fit/transform encoder from raw CSV rows to numeric arrays.

    fit() learns imputation values (column mean or mode), min/max ranges,
    one-hot category vocabularies, and the label index mapping. transform()
    applies them, returning (features, labels, attributes). Unknown
    categories or labels at transform time are rejected.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._fitted = False

    def fit(self, raw: RawTable) -> "TabularEncoder":
        if not raw:
            raise PreprocessError("cannot fit on an empty table")
        self.numeric_stats_: dict[str, tuple[float, float, float]] = {}
        self.categories_: dict[str, list[str]] = {}
        self.modes_: dict[str, str] = {}
        for col in self.schema.feature_columns:
            observed = [r[col.name] for r in raw if r[col.name] is not None]
            if not observed:
                raise PreprocessError(f"column {col.name!r}: all values are missing")
            if col.kind == "numeric":
                values = [
                    _parse_numeric(v, col.name, i)
                    for i, v in enumerate(
                        (r[col.name] for r in raw if r[col.name] is not None), start=1
                    )
                ]
                self.numeric_stats_[col.name] = (
                    float(np.mean(values)),
                    float(min(values)),
                    float(max(values)),
                )
            else:
                self.categories_[col.name] = sorted(set(observed))
                self.modes_[col.name] = _mode_first_seen(observed)
        label_col = self.schema.label_column
        observed_labels = [r[label_col.name] for r in raw if r[label_col.name] is not None]
        if len(observed_labels) != len(raw):
            raise PreprocessError(f"label column {label_col.name!r} has missing values")
        if label_col.kind == "numeric":
            distinct = sorted({float(v) for v in observed_labels})
            self.label_map_ = {repr(v): i for i, v in enumerate(distinct)}
            self._label_key = lambda v: repr(float(v))
        else:
            distinct = sorted(set(observed_labels))
            self.label_map_ = {v: i for i, v in enumerate(distinct)}
            self._label_key = lambda v: v
        if len(self.label_map_) > self.schema.label_classes:
            raise PreprocessError(
                f"found {len(self.label_map_)} distinct labels, schema allows "
                f"{self.schema.label_classes}"
            )
        split_col = self.schema.split_attribute_column
        if split_col is not None:
            observed = [r[split_col.name] for r in raw if r[split_col.name] is not None]
            if not observed:
                raise PreprocessError(f"column {split_col.name!r}: all values are missing")
            self.modes_[split_col.name] = _mode_first_seen(observed)
        self.feature_names_ = self._output_names()
        self._fitted = True
        return self

    def _output_names(self) -> list[str]:
        names = []
        for col in self.schema.feature_columns:
            if col.kind == "numeric":
                names.append(col.name)
            else:
                names.extend(f"{col.name}={v}" for v in self.categories_[col.name])
        return names

    @property
    def width(self) -> int:
        return len(self.feature_names_)

    def transform(self, raw: RawTable) -> tuple[np.ndarray, np.ndarray, list]:
        if not self._fitted:
            raise PreprocessError("encoder is not fitted")
        n = len(raw)
        X = np.zeros((n, self.width))
        y = np.zeros(n, dtype=np.int64)
        attrs: list = [None] * n
        split_col = self.schema.split_attribute_column
        label_col = self.schema.label_column
        for i, row in enumerate(raw):
            pos = 0
            for col in self.schema.feature_columns:
                cell = row[col.name]
                if col.kind == "numeric":
                    mean, lo, hi = self.numeric_stats_[col.name]
                    v = mean if cell is None else _parse_numeric(cell, col.name, i + 1)
                    X[i, pos] = 0.0 if hi == lo else (v - lo) / (hi - lo)
                    pos += 1
                else:
                    cats = self.categories_[col.name]
                    v = self.modes_[col.name] if cell is None else cell
                    if v not in cats:
                        raise PreprocessError(
                            f"column {col.name!r}, row {i + 1}: unseen category {v!r}"
                        )
                    X[i, pos + cats.index(v)] = 1.0
                    pos += len(cats)
            cell = row[label_col.name]
            if cell is None:
                raise PreprocessError(f"label column, row {i + 1}: missing value")
            key = self._label_key(cell)
            if key not in self.label_map_:
                raise PreprocessError(f"label column, row {i + 1}: unseen label {cell!r}")
            y[i] = self.label_map_[key]
            if split_col is not None:
                cell = row[split_col.name]
                attrs[i] = self.modes_[split_col.name] if cell is None else cell
        return X, y, attrs

    def fit_transform(self, raw: RawTable) -> tuple[np.ndarray, np.ndarray, list]:
        return self.fit(raw).transform(raw)


def preprocess(raw: RawTable, schema: Schema, seed: int, provenance: str = "") -> Dataset:
    """Encode a raw table into a Dataset.

    Numeric missing cells get the column mean, categorical ones the column
    mode; categorical features are one-hot encoded and numeric features
    min-max scaled to [0, 1] (constant columns map to 0). Duplicate
    (features, label) rows collapse to a single copy chosen uniformly at
    random with the given seed. The split-attribute column is carried as
    per-sample metadata and never enters the features.
    """
    if not raw:
        raise PreprocessError("cannot preprocess an empty table")
    if not schema.feature_columns:
        raise PreprocessError("zero-width feature space: schema has no feature columns")
    encoder = TabularEncoder(schema)
    X, y, attrs = encoder.fit_transform(raw)
    rng = np.random.default_rng(seed)
    groups: dict[tuple, list[int]] = {}
    for i in range(len(raw)):
        groups.setdefault((X[i].tobytes(), int(y[i])), []).append(i)
    survivors = sorted(
        idx[int(rng.integers(len(idx)))] if len(idx) > 1 else idx[0] for idx in groups.values()
    )
    attribute = None
    if schema.split_attribute_column is not None:
        attribute = np.array(attrs, dtype=object)[survivors]
    samples = Rows(X[survivors], y[survivors], attribute)
    return Dataset(schema=schema, samples=samples, provenance=provenance)
