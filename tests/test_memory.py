"""Memory bounds of the CSV data path, the pools' cross-pool check, one
training call and a traced campaign's result, measured with tracemalloc
(numpy reports its array buffers to it) above what the test itself
holds."""

import math
import tracemalloc

import numpy as np
import pytest

from mialab import dp, nn
from mialab.dataio import Column, Rows, Schema, preprocess
from mialab.experiments import ExperimentConfig, batch_mm_campaign, biased_validation
from mialab.rngs import as_generator
from mialab.splits import MixturePools, attribute_bias_pools

N_ROWS = 6000
LEVELS = 30

MIXED_SCHEMA = Schema(
    columns=(
        *(Column(f"x{i}", "numeric") for i in range(4)),
        *(Column(f"c{i}", "categorical") for i in range(3)),
        Column("group", "categorical", "split-attribute"),
        Column("label", "categorical", "label"),
    ),
    label_classes=2,
)


def mixed_table(seed: int) -> list:
    """6,000 rows of 4 numeric and 3 categorical features (30 levels each,
    so 94 encoded columns), a split attribute and a binary label, with
    missing feature cells and 3% exact duplicate rows."""
    rng = np.random.default_rng(seed)
    n_base = N_ROWS - N_ROWS * 3 // 100
    numeric = rng.normal(size=(n_base, 4))
    levels = rng.integers(LEVELS, size=(n_base, 3))
    groups = rng.choice(["A", "B", "C"], size=n_base, p=[0.5, 0.3, 0.2])
    labels = rng.choice(["no", "yes"], size=n_base)
    missing = rng.random((n_base, 7)) < 0.02
    names = [c.name for c in MIXED_SCHEMA.columns]
    table = []
    for i in range(n_base):
        cells = [f"{v:.4f}" for v in numeric[i]] + [f"L{v:02d}" for v in levels[i]]
        cells = [None if missing[i, j] else c for j, c in enumerate(cells)]
        table.append(dict(zip(names, [*cells, str(groups[i]), str(labels[i])])))
    table += [dict(table[i]) for i in rng.integers(n_base, size=N_ROWS - n_base)]
    return [table[i] for i in rng.permutation(len(table))]


@pytest.fixture(scope="module")
def mixed_raw():
    return mixed_table(3)


@pytest.fixture(scope="module")
def mixed_dataset(mixed_raw):
    return preprocess(mixed_raw, MIXED_SCHEMA, seed=3)


def traced(fn, *args):
    """fn(*args), the peak bytes it allocated and the bytes it still holds
    after returning, both above what was held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, kept - before


def nbytes(rows: Rows) -> int:
    attribute = 0 if rows.attribute is None else rows.attribute.nbytes
    return rows.X.nbytes + rows.y.nbytes + attribute


def test_preprocess_peaks_under_three_matrices(mixed_raw):
    data, peak, _ = traced(preprocess, mixed_raw, MIXED_SCHEMA, 3)
    X = data.samples.X
    assert X.shape[1] == 4 + 3 * LEVELS
    assert len(data.samples) < N_ROWS  # the duplicates were dropped
    assert peak <= 3 * X.nbytes, f"peak {peak / X.nbytes:.2f}x the matrix"


@pytest.mark.parametrize("kind", ["index array", "mask"])
def test_indexing_makes_one_copy(kind):
    rng = np.random.default_rng(0)
    store = Rows(rng.normal(size=(1250, 100)), rng.integers(2, size=1250))  # 1 MB of X
    index = rng.permutation(1250)[:1000]
    if kind == "mask":
        index = np.isin(np.arange(1250), index)
    out, peak, _ = traced(store.__getitem__, index)
    assert len(out) == 1000
    assert peak <= 1.1 * nbytes(out), f"peak {peak / nbytes(out):.2f}x the result"


def test_bias_pools_keep_reserve_indices_not_rows(mixed_dataset):
    pools, _, kept = traced(attribute_bias_pools, mixed_dataset, "A", 0.9, 500, 7)
    bias = pools.bias
    assert bias.rows is mixed_dataset.samples
    for reserve in (bias.reserve_with, bias.reserve_without):
        assert reserve.dtype == np.int64
    # leftovers beyond the shadow reserve, which takes at most 500 per side
    assert len(bias.reserve_with) + len(bias.reserve_without) > 2 * 500
    rows_made = sum(nbytes(p) for p in pools.pools) + nbytes(pools.shadow_reserve)
    assert kept <= 1.1 * rows_made, f"kept {kept / rows_made:.2f}x the pools' rows"


@pytest.mark.parametrize("p", [0.0, 0.7, 1.0])
def test_biased_validation_is_the_reserve_rows_drawn(mixed_dataset, p):
    bias = attribute_bias_pools(mixed_dataset, "A", p, 500, 7).bias
    size, seed = 125, 11
    got = biased_validation(bias, size, seed)
    rng = as_generator(seed)
    k_with = math.ceil(p * size)
    wi = rng.choice(len(bias.reserve_with), size=k_with, replace=False) if k_with else []
    wo = (rng.choice(len(bias.reserve_without), size=size - k_with, replace=False)
          if size - k_with else [])
    rows = mixed_dataset.samples
    expected = Rows.concat([rows[bias.reserve_with][wi], rows[bias.reserve_without][wo]])
    assert got == expected
    assert got.attribute.tolist() == expected.attribute.tolist()
    assert np.sum(got.attribute == "A") == k_with


def test_adopted_arrays_are_read_only_and_own_no_caller_memory(mixed_dataset):
    X = np.arange(24.0).reshape(6, 4)
    y = np.arange(6)
    attribute = np.array(list("abcdef"), dtype=object)
    store = Rows(X, y, attribute)
    made = {
        "constructor": store,
        "index array": store[[4, 0, 2]],
        "mask": store[y % 2 == 0],
        "slice": store[1:4],
        "concat": Rows.concat([store[[1]], store[3:5]]),
        "preprocess": mixed_dataset.samples,
    }
    callers = (X, y, attribute, store.X, store.y, store.attribute)
    for name, rows in made.items():
        for arr in (rows.X, rows.y, rows.attribute):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[:1] = arr[:1]
            if rows is not store:
                assert not any(np.shares_memory(arr, c) for c in callers), name
    assert not any(np.shares_memory(store.X, c) for c in (X, y, attribute))


def test_pools_check_peaks_under_two_and_a_half_key_arrays():
    rng = np.random.default_rng(4)
    pools = tuple(Rows(rng.normal(size=(1000, 100)), rng.integers(2, size=1000))
                  for _ in range(2))
    keys = sum(p.X.nbytes + p.y.nbytes for p in pools)  # every row's key, 1.62 MB
    _, peak, _ = traced(MixturePools, pools)
    assert peak <= 2.5 * keys, f"peak {peak / keys:.2f}x all keys"


@pytest.mark.parametrize("private", [False, True])
def test_training_call_peaks_at_its_buffers(private):
    # the paper's 2x256 net on 100 features: Adam's parameters, moments,
    # gradient and work buffer, and one block of row buffers; no step
    # allocates a parameter-sized array
    dims, n = (100, 256, 256, 2), 500
    rng = np.random.default_rng(6)
    members = Rows(rng.normal(size=(n, dims[0])), rng.integers(2, size=n))
    init = nn.init_model(dims, 1)
    cfg = nn.TrainConfig(epochs=2, batch_size=100, seed=2)
    privacy = dp.PrivacyParams(epsilon=1.0, noise_multiplier=1.1) if private else None
    rows = nn._poisson_width(n, nn.sampling_rate(n, cfg)) if private else cfg.batch_size
    row_floats = dims[0] + 1 + 2 * sum(dims[1:]) + sum(dims[1:-1])
    buffers = 8 * (5 * init.n_params + rows * row_floats)
    _, peak, _ = traced(nn.train_replicas, [init], [members], [cfg], privacy)
    assert peak <= 1.05 * buffers, f"peak {peak / buffers:.3f}x the buffers"


def test_traced_campaign_keeps_arrays_not_per_sample_objects(blob_pools):
    # Each traced result row holds its decisions, shares its cell's losses
    # with the cell's other attack and its repetition's truth with every
    # row of the repetition: under two 8-byte numbers per evaluated sample,
    # and no Python object per sample.
    cfg = ExperimentConfig(
        n_members=150, n_nonmembers=150, epsilon_grid=(1.0, math.inf),
        train=nn.TrainConfig(epochs=2, batch_size=150, seed=0), hidden_units=(8,),
        repetitions=2, seed=77,
    )
    batch_mm_campaign(cfg, blob_pools)  # fills what the first call caches
    _, _, untraced = traced(batch_mm_campaign, cfg, blob_pools)
    result, _, kept = traced(batch_mm_campaign, cfg, blob_pools, 1, True)
    samples_by_rows = 8 * (cfg.n_members + cfg.n_nonmembers) * len(result.rows)
    assert kept - untraced <= 2 * samples_by_rows, (
        f"traces kept {(kept - untraced) / samples_by_rows:.1f}x 8 bytes per sample and row")
