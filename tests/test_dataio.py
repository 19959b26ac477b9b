import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mialab.dataio import (
    Column,
    Dataset,
    Rows,
    Schema,
    load_csv,
    preprocess,
)
from mialab.errors import CsvParseError, MialabError, PreprocessError, SchemaError
from mialab.synthetic import GaussianComponent, halfspace_label, mixture_samples, synthetic_mixture

from conftest import make_raw, row_keys

COLS = ("age", "color", "outcome")


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_requires_exactly_one_label(self):
        with pytest.raises(SchemaError):
            Schema(columns=(Column("a", "numeric"),), label_classes=2)
        with pytest.raises(SchemaError):
            Schema(
                columns=(Column("a", "numeric", "label"), Column("b", "numeric", "label")),
                label_classes=2,
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema(
                columns=(Column("a", "numeric"), Column("a", "categorical"),
                         Column("y", "numeric", "label")),
                label_classes=2,
            )

    def test_at_most_one_split_attribute(self):
        with pytest.raises(SchemaError):
            Schema(
                columns=(
                    Column("a", "categorical", "split-attribute"),
                    Column("b", "categorical", "split-attribute"),
                    Column("y", "numeric", "label"),
                ),
                label_classes=2,
            )

    @pytest.mark.parametrize("value", ["x", 2.9, True, None, 1])
    def test_label_classes_must_be_an_integer_of_at_least_two(self, value):
        doc = {"columns": [{"name": "y", "kind": "numeric", "role": "label"}],
               "label_classes": value}
        with pytest.raises(SchemaError, match="^label_classes: ") as refused:
            Schema.from_json(doc)
        assert refused.value.field == "label_classes"


class TestLoadCsv:
    def test_three_rows_pass_through(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, "age,color,outcome\n1,red,yes\n2,blue,no\n3,red,yes\n")
        rows = load_csv(path, basic_schema)
        assert len(rows) == 3
        assert rows[0] == {"age": "1", "color": "red", "outcome": "yes"}

    def test_missing_cell_marked(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, "age,color,outcome\n,red,yes\n")
        rows = load_csv(path, basic_schema)
        assert rows[0]["age"] is None

    def test_header_missing_label_column(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, "age,color\n1,red\n")
        with pytest.raises(SchemaError, match="outcome"):
            load_csv(path, basic_schema)

    def test_unknown_column(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, "age,color,outcome,extra\n1,red,yes,x\n")
        with pytest.raises(SchemaError, match="extra"):
            load_csv(path, basic_schema)

    def test_ragged_row_reports_row_number(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, "age,color,outcome\n1,red,yes\n2,blue\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path, basic_schema)

    def test_missing_file_is_clean_error(self, tmp_path, basic_schema):
        with pytest.raises(CsvParseError, match="no such file"):
            load_csv(tmp_path / "absent.csv", basic_schema)

    def test_trailing_blank_lines_skipped(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, "age,color,outcome\n1,red,yes\n2,blue,no\n\n\n")
        assert len(load_csv(path, basic_schema)) == 2

    def test_blank_line_inside_the_table_is_refused(self, tmp_path, basic_schema):
        # Row i must stay line i + 2, so that preprocessing errors name the line.
        path = write_csv(tmp_path, "age,color,outcome\n1,red,yes\n\n2,blue,no\n")
        with pytest.raises(CsvParseError, match="row 3: blank line"):
            load_csv(path, basic_schema)

    def test_record_spanning_lines_is_refused_at_its_first_line(self, tmp_path, basic_schema):
        path = write_csv(tmp_path, 'age,color,outcome\n1,"multi\nline",yes\n2,blue\n')
        with pytest.raises(CsvParseError, match="row 2: a quoted cell spans lines"):
            load_csv(path, basic_schema)

    def test_bom_header_tolerated(self, tmp_path, basic_schema):
        path = tmp_path / "bom.csv"
        path.write_bytes("age,color,outcome\n1,red,yes\n".encode("utf-8-sig"))
        rows = load_csv(path, basic_schema)
        assert rows[0]["age"] == "1"


class TestPreprocess:
    def test_mean_imputation(self, basic_schema):
        raw = make_raw(
            [("1", "a", "yes"), (None, "b", "no"), ("3", "a", "yes")], COLS
        )
        X = preprocess(raw, basic_schema, seed=0).samples.X
        # column scaled to [0,1]; imputed mean 2 sits halfway between 1 and 3
        assert X[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_one_hot_definition(self, basic_schema):
        raw = make_raw([("1", "A", "yes"), ("2", "B", "no")], COLS)
        X = preprocess(raw, basic_schema, seed=0).samples.X
        assert X[0, 1:].tolist() == [1.0, 0.0]
        assert X[1, 1:].tolist() == [0.0, 1.0]

    def test_mode_imputation_ties_first_seen(self, basic_schema):
        raw = make_raw(
            [("1", "B", "yes"), ("2", "A", "no"), ("3", None, "yes")], COLS
        )
        X = preprocess(raw, basic_schema, seed=0).samples.X
        # one-hot columns are A, B in sorted order; the missing cell gets B
        assert X[2, 1:].tolist() == [0.0, 1.0]

    def test_numeric_labels_compare_as_numbers(self):
        schema = Schema(
            columns=(Column("a", "numeric"), Column("y", "numeric", "label")), label_classes=2
        )
        raw = make_raw([("1", "0"), ("2", "-0"), ("3", "1.0"), ("4", "1")], ("a", "y"))
        assert preprocess(raw, schema, seed=0).samples.y.tolist() == [0, 0, 1, 1]

    def test_duplicates_collapse_to_one(self, basic_schema):
        raw = make_raw([("1", "a", "yes")] * 2 + [("2", "b", "no")], COLS)
        ds = preprocess(raw, basic_schema, seed=0)
        assert len(ds.samples) == 2

    def test_min_max_scaling_and_constant_column(self):
        schema = Schema(
            columns=(Column("a", "numeric"), Column("c", "numeric"),
                     Column("y", "categorical", "label")),
            label_classes=2,
        )
        raw = make_raw([("0", "7", "x"), ("5", "7", "y"), ("10", "7", "x")],
                       ("a", "c", "y"))
        ds = preprocess(raw, schema, seed=0)
        X = ds.samples.X
        assert X[:, 0].min() == 0.0 and X[:, 0].max() == 1.0
        assert np.all(X[:, 1] == 0.0)

    def test_ignored_columns_loaded_but_not_encoded(self, tmp_path):
        schema = Schema(
            columns=(
                Column("a", "numeric"),
                Column("note", "categorical", "ignored"),
                Column("y", "categorical", "label"),
            ),
            label_classes=2,
        )
        path = write_csv(tmp_path, "a,note,y\n1,keep,x\n2,drop,y\n")
        rows = load_csv(path, schema)
        assert rows[0]["note"] == "keep"
        ds = preprocess(rows, schema, seed=0)
        assert ds.feature_width == 1

    def test_split_attribute_not_in_features(self, attr_schema):
        raw = make_raw([("1", "g1", "yes"), ("2", "g2", "no")],
                       ("x", "group", "outcome"))
        ds = preprocess(raw, attr_schema, seed=0)
        assert ds.feature_width == 1
        assert ds.samples.attribute.tolist() == ["g1", "g2"]

    def test_all_missing_column_errors(self, basic_schema):
        raw = make_raw([(None, "a", "yes"), (None, "b", "no")], COLS)
        with pytest.raises(PreprocessError, match="age"):
            preprocess(raw, basic_schema, seed=0)

    def test_zero_width_feature_space_errors(self):
        schema = Schema(columns=(Column("y", "categorical", "label"),), label_classes=2)
        with pytest.raises(PreprocessError, match="zero-width"):
            preprocess([{"y": "a"}, {"y": "b"}], schema, seed=0)

    def test_idempotent_on_encoded_representation(self, basic_schema):
        raw = make_raw(
            [("1", "a", "yes"), ("4", "b", "no"), ("2", "a", "no"), ("9", "c", "yes")],
            COLS,
        )
        ds = preprocess(raw, basic_schema, seed=3)
        width = ds.feature_width
        encoded_schema = Schema(
            columns=(
                *(Column(f"f{i}", "numeric") for i in range(width)),
                Column("label", "numeric", "label"),
            ),
            label_classes=2,
        )
        X, y = ds.samples.X, ds.samples.y
        encoded_raw = [
            {**{f"f{i}": repr(float(X[j, i])) for i in range(width)}, "label": str(y[j])}
            for j in range(len(ds.samples))
        ]
        again = preprocess(encoded_raw, encoded_schema, seed=3)
        np.testing.assert_allclose(again.samples.X, ds.samples.X)
        assert again.samples.y.tolist() == ds.samples.y.tolist()

    @given(
        values=st.lists(
            st.integers(min_value=-50, max_value=50), min_size=2, max_size=30
        ),
        labels=st.lists(st.sampled_from(["u", "v"]), min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_dedup_and_width_properties(self, values, labels):
        n = min(len(values), len(labels))
        schema = Schema(
            columns=(Column("a", "numeric"), Column("y", "categorical", "label")),
            label_classes=2,
        )
        raw = [{"a": str(values[i]), "y": labels[i]} for i in range(n)]
        ds = preprocess(raw, schema, seed=1)
        keys = set(row_keys(ds.samples))
        assert len(keys) == len(ds.samples)
        assert len(ds.samples) <= n
        assert ds.samples.X.shape == (len(ds.samples), ds.feature_width)


@given(
    cells=st.lists(st.tuples(st.integers(0, 3), st.sampled_from("uv")), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_dedup_keeps_the_row_a_first_seen_dict_draws(cells, seed):
    # The reference groups rows by (value, label) in first-seen order and
    # draws once per group of several; the attribute shows which row survived.
    schema = Schema(
        columns=(Column("a", "numeric"), Column("row", "categorical", "split-attribute"),
                 Column("y", "categorical", "label")),
        label_classes=2,
    )
    raw = [{"a": str(a), "row": str(i), "y": y} for i, (a, y) in enumerate(cells)]
    groups: dict = {}
    for i, cell in enumerate(cells):
        groups.setdefault(cell, []).append(i)
    rng = np.random.default_rng(seed)
    kept = sorted(idx[int(rng.integers(len(idx)))] if len(idx) > 1 else idx[0]
                  for idx in groups.values())
    assert preprocess(raw, schema, seed).samples.attribute.tolist() == [str(i) for i in kept]


# A small mixed table: missing cells in every column kind, exact duplicate
# rows, a constant numeric column, a split attribute, and two label columns
# (categorical `cls`, numeric `num`) of which each schema ignores one.
MIXED_CSV = (
    "a,k,color,group,cls,num,note\n"
    "1.5,7,red,A,yes,0,r1\n"
    ",7,blue,B,no,1,r2\n"
    "3.0,7,,A,yes,2,r3\n"
    "1.5,7,red,B,yes,0,r4\n"
    "4.25,7,green,,no,1,r5\n"
    ",7,blue,C,no,1,r6\n"
    "-2,7,red,C,yes,2,r7\n"
    "3.0,7,green,A,no,0,r8\n"
    "1.5,7,red,C,yes,0,r9\n"
    ",7,blue,A,no,1,r10\n"
)


def mixed_schema(label):
    other = {"cls": "num", "num": "cls"}[label]
    return Schema(
        columns=(
            Column("a", "numeric"),
            Column("k", "numeric"),
            Column("color", "categorical"),
            Column("group", "categorical", "split-attribute"),
            Column(label, "categorical" if label == "cls" else "numeric", "label"),
            Column(other, "numeric", "ignored"),
            Column("note", "categorical", "ignored"),
        ),
        label_classes=3,
    )


# sha256 of X, y and the JSON list of attribute values at seed 5, captured
# from the fit/transform encoder this column-wise pass replaced.
PINNED_MIXED = {
    "cls": ("4d173909a4595d73d67358fb145fcafec6f5b02366319a90507990d89f9c3266",
            "bca9717af5ebb0430ac1154bce6e80f06e8f11cb0330304605503fdfa0df0fde",
            "e4e14e10f5f2f29d55f793cfd551393cb46f3c78efe4c3862f4f6d1227ad6648"),
    "num": ("4d173909a4595d73d67358fb145fcafec6f5b02366319a90507990d89f9c3266",
            "51d681bf20d0b1548c5445e3b936841674e4b4e69c298a580df68f7f169fefdc",
            "e4e14e10f5f2f29d55f793cfd551393cb46f3c78efe4c3862f4f6d1227ad6648"),
}


@pytest.mark.parametrize("label", sorted(PINNED_MIXED))
def test_mixed_table_encoding_pinned(tmp_path, label):
    schema = mixed_schema(label)
    rows = preprocess(load_csv(write_csv(tmp_path, MIXED_CSV), schema), schema, seed=5).samples
    digests = tuple(
        hashlib.sha256(blob).hexdigest()
        for blob in (rows.X.tobytes(), rows.y.tobytes(),
                     json.dumps(rows.attribute.tolist()).encode())
    )
    assert rows.X.shape == (6, 5)
    assert digests == PINNED_MIXED[label]


class TestPreprocessErrors:
    def test_parse_error_names_the_csv_line(self, tmp_path, basic_schema):
        # The missing cell on line 3 still counts: the bad cell is on line 4.
        path = write_csv(tmp_path, "age,color,outcome\n1,a,yes\n,b,no\nabc,a,yes\n")
        with pytest.raises(PreprocessError, match=r"column 'age', line 4: cannot parse 'abc'"):
            preprocess(load_csv(path, basic_schema), basic_schema, seed=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_names_column_and_line(self, tmp_path, basic_schema, cell):
        path = write_csv(tmp_path, f"age,color,outcome\n1,a,yes\n{cell},b,no\n")
        with pytest.raises(PreprocessError, match=r"column 'age', line 3: .* is not finite"):
            preprocess(load_csv(path, basic_schema), basic_schema, seed=0)

    def test_bad_numeric_label_names_column_and_line(self):
        schema = Schema(
            columns=(Column("a", "numeric"), Column("y", "numeric", "label")), label_classes=2
        )
        raw = make_raw([("1", "0"), ("2", "1"), ("3", "one")], ("a", "y"))
        with pytest.raises(PreprocessError, match=r"column 'y', line 4: cannot parse 'one'"):
            preprocess(raw, schema, seed=0)

    def test_missing_label_names_the_line(self, basic_schema):
        raw = make_raw([("1", "a", "yes"), ("2", "b", None)], COLS)
        with pytest.raises(PreprocessError, match=r"label column 'outcome', line 3"):
            preprocess(raw, basic_schema, seed=0)


class TestDatasetInvariants:
    def test_rejects_duplicates(self):
        schema = Schema(
            columns=(Column("a", "numeric"), Column("y", "numeric", "label")),
            label_classes=2,
        )
        with pytest.raises(PreprocessError, match="duplicate"):
            Dataset(schema=schema, samples=Rows([[1.0], [1.0]], [0, 0]))

    def test_rejects_empty(self, basic_schema):
        with pytest.raises(PreprocessError, match="empty"):
            Dataset(schema=basic_schema, samples=Rows(np.empty((0, 2)), []))


class TestRows:
    def rows(self):
        return Rows([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [0, 1, 0], ["a", "b", "c"])

    def test_integer_index_is_refused(self):
        for index in (1, np.int64(1)):
            with pytest.raises(TypeError, match=r"rows\[\[1\]\]"):
                self.rows()[index]
        one = self.rows()[[1]]
        assert one == Rows([[2.0, 3.0]], [1], ["b"])

    def test_not_iterable(self):
        with pytest.raises(TypeError):
            iter(self.rows())
        with pytest.raises(TypeError):
            list(self.rows())

    def test_index_array_keeps_order(self):
        picked = self.rows()[np.array([2, 0])]
        assert isinstance(picked, Rows)
        assert picked.X.tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert picked.attribute.tolist() == ["c", "a"]
        assert self.rows()[1:].y.tolist() == [1, 0]
        assert self.rows()[np.array([False, True, True])] == self.rows()[1:]

    def test_read_only_after_pickle_round_trip(self):
        import pickle

        again = pickle.loads(pickle.dumps(self.rows()))
        assert again == self.rows()
        for arr in (again.X, again.y, again.attribute):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        with pytest.raises(AttributeError):
            again.X = np.zeros((3, 2))

    def test_concat(self):
        parts = [Rows([[1.0]], [0], ["g"]), Rows([[2.0]], [1])]
        both = Rows.concat([*parts, Rows([[3.0]], [0])])
        assert both.X.tolist() == [[1.0], [2.0], [3.0]] and both.y.tolist() == [0, 1, 0]
        assert both.attribute.tolist() == ["g", None, None]

    def test_keys_follow_feature_bits_and_label(self):
        rows = Rows([[0.0], [-0.0], [0.0], [0.0]], [1, 1, 1, 0])
        row_keys = {(rows.X[i].tobytes(), int(rows.y[i])) for i in range(len(rows))}
        assert len(rows.keys()) == len(row_keys) == 3


class TestSyntheticMixture:
    def test_pool_sizes(self):
        comps = [
            GaussianComponent(mean=(0.0,), cov=1.0, label=0),
            GaussianComponent(mean=(5.0,), cov=1.0, label=1),
        ]
        pools = synthetic_mixture(comps, 5, seed=1)
        assert pools.sizes() == (5, 5)

    def test_deterministic(self):
        comps = [
            GaussianComponent(mean=(0.0, 1.0), cov=0.3, label=0),
            GaussianComponent(mean=(4.0, 4.0), cov=0.3, label=1),
        ]
        a = synthetic_mixture(comps, 7, seed=42)
        b = synthetic_mixture(comps, 7, seed=42)
        assert len(a.pools) == len(b.pools)
        assert all(row_keys(pa) == row_keys(pb) for pa, pb in zip(a.pools, b.pools))

    def test_zero_variance_pool_is_constant(self):
        comps = [
            GaussianComponent(mean=(1.0, 2.0), cov=0.0, label=0),
            GaussianComponent(mean=(3.0, 4.0), cov=0.0, label=1),
        ]
        pools = synthetic_mixture(comps, 6, seed=3)
        assert len(set(row_keys(pools.pools[0]))) == 1
        np.testing.assert_allclose(pools.pools[0].X[0], [1.0, 2.0])

    def test_label_rule(self):
        comps = [GaussianComponent(mean=(0.0, 0.0), cov=1.0)] * 2
        pools = mixture_samples(comps, 50, seed=8, label_rule=halfspace_label([1.0, 0.0]))
        for pool in pools:
            assert pool.y.tolist() == (pool.X[:, 0] > 0).astype(int).tolist()

    def test_nonpositive_count_errors(self):
        for n in (0, -3, 2.5, True):
            with pytest.raises(MialabError) as refused:
                mixture_samples([GaussianComponent(mean=(0.0,), label=0)], n, seed=1)
            assert refused.value.field == "n_per_component"
            assert str(refused.value) == f"n_per_component: must be an integer >= 1, got {n!r}"

    def test_component_without_label_or_rule_is_named(self):
        comps = [GaussianComponent(mean=(0.0,), label=0), GaussianComponent(mean=(1.0,))]
        with pytest.raises(MialabError) as refused:
            mixture_samples(comps, 5, seed=1)
        assert refused.value.field == "components[1].label"
        assert str(refused.value).startswith("components[1].label: required ")

    @pytest.mark.parametrize("kwargs, field", [
        ({"mean": (math.nan, 0.0), "label": 0}, "mean[0]"),
        ({"mean": (0.0, math.inf), "label": 0}, "mean[1]"),
        ({"mean": (), "label": 0}, "mean"),
        ({"mean": (0.0, 0.0), "cov": math.nan, "label": 0}, "cov"),
        ({"mean": (0.0, 0.0), "cov": (1.0, 1.0, 1.0), "label": 0}, "cov"),
        ({"mean": (0.0, 0.0), "cov": [[1.0, 2.0], [2.0, 1.0]], "label": 0}, "cov"),
        ({"mean": (0.0, 0.0), "label": -1}, "label"),
        ({"mean": (0.0, 0.0), "label": 1.0}, "label"),
    ])
    def test_component_refuses_a_value_naming_its_field(self, kwargs, field):
        # A NaN mean used to reach synthetic_mixture, which returned NaN pools.
        with pytest.raises(MialabError) as refused:
            GaussianComponent(**kwargs)
        assert refused.value.field == field

    def test_full_covariance_is_decomposed_once_per_component(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        cov = [[1.0, 0.5], [0.5, 2.0]]
        comps = [GaussianComponent(mean=(0.0, 0.0), cov=cov, label=k) for k in range(2)]
        assert len(calls) == 2
        for comp in comps:
            np.testing.assert_array_equal(comp.covariance(), cov)
            assert comp.covariance() is comp.covariance()
            assert not comp.covariance().flags.writeable
        mixture_samples(comps, 5, seed=1)
        assert len(calls) == 2

    def test_covariance_is_not_the_callers_array(self):
        cov = np.eye(2)
        comp = GaussianComponent(mean=(0.0, 0.0), cov=cov, label=0)
        cov[0, 0] = -1.0
        assert cov.flags.writeable
        assert comp.covariance()[0, 0] == 1.0

    @pytest.mark.parametrize("weights, bias, field", [
        ([math.nan, 1.0], 0.0, "weights[0]"),
        ([1.0, math.inf], 0.0, "weights[1]"),
        ([1.0, "0.5"], 0.0, "weights[1]"),
        ([1.0, 0.0], -math.inf, "bias"),
        ([1.0, 0.0], 10**400, "bias"),
        ([1.0, 0.0], True, "bias"),
    ], ids=["nan-weight", "inf-weight", "string-weight", "inf-bias", "overflowing-bias",
            "bool-bias"])
    def test_halfspace_label_refuses_a_value_naming_it(self, weights, bias, field):
        with pytest.raises(MialabError) as refused:
            halfspace_label(weights, bias)
        assert refused.value.field == field

    def test_negative_covariance_errors(self):
        with pytest.raises(MialabError, match="semidefinite"):
            mixture_samples(
                [GaussianComponent(mean=(0.0,), cov=-1.0, label=0)], 3, seed=1
            )
