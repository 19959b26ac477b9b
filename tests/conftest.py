import pytest

from mialab.dataio import Column, Rows, Schema
from mialab.synthetic import GaussianComponent, mixture_dataset, synthetic_mixture


@pytest.fixture
def basic_schema():
    return Schema(
        columns=(
            Column("age", "numeric"),
            Column("color", "categorical"),
            Column("outcome", "categorical", "label"),
        ),
        label_classes=2,
    )


@pytest.fixture
def attr_schema():
    return Schema(
        columns=(
            Column("x", "numeric"),
            Column("group", "categorical", "split-attribute"),
            Column("outcome", "categorical", "label"),
        ),
        label_classes=2,
    )


def make_raw(rows, columns):
    return [dict(zip(columns, row)) for row in rows]


TWO_BLOBS = (
    GaussianComponent(mean=(0.0, 0.0), cov=0.5, label=0),
    GaussianComponent(mean=(2.0, 2.0), cov=0.5, label=1),
)


@pytest.fixture
def blob_pools():
    return synthetic_mixture(TWO_BLOBS, 300, seed=5)


@pytest.fixture
def blob_dataset():
    return mixture_dataset(TWO_BLOBS, 200, seed=6)


@pytest.fixture
def constant_pools():
    comps = (
        GaussianComponent(mean=(0.0, 0.0), cov=0.0, label=0),
        GaussianComponent(mean=(1.0, 1.0), cov=0.0, label=1),
    )
    return synthetic_mixture(comps, 120, seed=9)


def samples_from_array(X, y, attributes=None):
    return Rows(X, y, attributes)


def row_keys(rows):
    """Each row's (feature bytes, label) pair, in row order."""
    return [(rows.X[i].tobytes(), int(rows.y[i])) for i in range(len(rows))]
