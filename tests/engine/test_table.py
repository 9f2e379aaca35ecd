"""Tests for the Table container."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine.column import NumericColumn
from repro.engine.table import Table
from repro.errors import SchemaError, UnknownColumnError


def make_table(name: str, seed: int = 0, n: int = 50) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict({"a": rng.normal(size=n),
                            "b": rng.normal(size=n)}, name=name)


class TestConstruction:
    def test_from_dict_shapes(self, tiny_table):
        assert tiny_table.shape == (8, 5)
        assert tiny_table.n_rows == len(tiny_table) == 8
        assert tiny_table.column_names == ("x", "y", "z", "cat", "flag")

    def test_from_rows(self):
        t = Table.from_rows(["a", "b"], [(1, "x"), (2, "y")])
        assert t.shape == (2, 2)
        assert t.column("b").label_list() == ["x", "y"]

    def test_from_rows_ragged_raises(self):
        with pytest.raises(SchemaError):
            Table.from_rows(["a", "b"], [(1, 2), (3,)])

    def test_duplicate_names_raise(self):
        with pytest.raises(SchemaError) as exc:
            Table([NumericColumn("x", [1.0]), NumericColumn("x", [2.0])])
        assert "duplicate" in str(exc.value)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(SchemaError):
            Table([NumericColumn("x", [1.0]), NumericColumn("y", [1.0, 2.0])])

    def test_empty_table(self):
        t = Table([])
        assert t.shape == (0, 0)

    def test_numpy_dtype_dispatch(self):
        t = Table.from_dict({
            "i": np.array([1, 2, 3]),
            "f": np.array([1.5, 2.5, 3.5]),
            "b": np.array([True, False, True]),
            "s": np.array(["p", "q", "r"]),
        })
        types = [c.ctype.value for c in t.columns]
        assert types == ["numeric", "numeric", "boolean", "categorical"]


class TestLookup:
    def test_column_access(self, tiny_table):
        assert tiny_table["x"].name == "x"
        assert "cat" in tiny_table
        assert "nope" not in tiny_table

    def test_unknown_column_error_with_suggestion(self, tiny_table):
        with pytest.raises(UnknownColumnError) as exc:
            tiny_table.column("catt")
        assert "cat" in str(exc.value)

    def test_numeric_and_categorical_names(self, tiny_table):
        assert tiny_table.numeric_column_names() == ("x", "y", "z", "flag")
        assert tiny_table.categorical_column_names() == ("cat",)

    def test_numeric_matrix(self, tiny_table):
        mat = tiny_table.numeric_matrix(["x", "z"])
        assert mat.shape == (8, 2)
        assert mat[0, 1] == 5.0

    def test_numeric_matrix_empty(self):
        t = Table.from_dict({"c": ["a", "b"]})
        assert t.numeric_matrix().shape == (2, 0)

    def test_numeric_matrix_is_not_retained(self, tiny_table):
        # Table-derived data belongs in the byte-budgeted StatsCache; a
        # matrix the table kept would be memory no budget counts.
        ref = weakref.ref(tiny_table.numeric_matrix(["x", "z"]))
        gc.collect()
        assert ref() is None


class TestRowOperations:
    def test_select(self, tiny_table):
        mask = np.zeros(8, dtype=bool)
        mask[[0, 2]] = True
        sub = tiny_table.select(mask)
        assert sub.n_rows == 2
        assert list(sub.column("z").values()) == [5.0, 3.0]

    def test_select_bad_mask(self, tiny_table):
        with pytest.raises(ValueError):
            tiny_table.select(np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            tiny_table.select(np.ones(8))  # not boolean

    def test_take_order(self, tiny_table):
        sub = tiny_table.take(np.array([3, 0]))
        assert list(sub.column("z").values()) == [2.0, 5.0]

    def test_project(self, tiny_table):
        sub = tiny_table.project(["z", "x"])
        assert sub.column_names == ("z", "x")

    def test_head(self, tiny_table):
        assert tiny_table.head(3).n_rows == 3
        assert tiny_table.head(100).n_rows == 8

    def test_sort_numeric_ascending_nan_last(self, tiny_table):
        sorted_t = tiny_table.sort_by("x")
        xs = sorted_t.column("x").values()
        assert list(xs[:-1]) == sorted(xs[:-1])
        assert np.isnan(xs[-1])

    def test_sort_numeric_descending_nan_last(self, tiny_table):
        xs = tiny_table.sort_by("x", descending=True).column("x").values()
        assert xs[0] == 8.0
        assert np.isnan(xs[-1])

    def test_sort_categorical(self, tiny_table):
        cats = tiny_table.sort_by("cat").column("cat").label_list()
        assert cats[-1] is None
        assert cats[:-1] == sorted(cats[:-1])

    def test_sort_stable(self):
        t = Table.from_dict({"k": [1.0, 1.0, 0.0], "v": [10.0, 20.0, 30.0]})
        sorted_t = t.sort_by("k")
        assert list(sorted_t.column("v").values()) == [30.0, 10.0, 20.0]

    def test_with_column_append_and_replace(self, tiny_table):
        extended = tiny_table.with_column(NumericColumn("w", np.zeros(8)))
        assert "w" in extended
        replaced = extended.with_column(NumericColumn("w", np.ones(8)))
        assert replaced.column("w").values()[0] == 1.0
        assert replaced.n_columns == extended.n_columns

    def test_with_column_length_mismatch(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.with_column(NumericColumn("w", [1.0]))

    def test_rows_replaces_nan_with_none(self, tiny_table):
        rows = tiny_table.rows()
        assert rows[5][0] is None  # x has NaN at index 5
        assert rows[3][3] is None  # cat None at index 3

    def test_preview_contains_header_and_ellipsis(self, tiny_table):
        text = tiny_table.preview(n=2)
        assert "x" in text
        assert "8 rows total" in text


class TestFingerprint:
    def test_identical_content_same_fingerprint(self):
        assert make_table("t", seed=1).fingerprint() == \
            make_table("t", seed=1).fingerprint()

    def test_different_data_different_fingerprint(self):
        assert make_table("t", seed=1).fingerprint() != \
            make_table("t", seed=2).fingerprint()

    def test_same_data_different_name_differs(self):
        a, b = make_table("t1", seed=1), make_table("t2", seed=1)
        assert a.fingerprint() != b.fingerprint()

    def test_memoized(self):
        t = make_table("t")
        assert t.fingerprint() is t.fingerprint()

    def test_categorical_and_boolean_columns_hash(self):
        t = Table.from_dict({"c": ["x", "y", None, "x"],
                             "f": [True, False, None, True]}, name="mixed")
        u = Table.from_dict({"c": ["x", "y", None, "x"],
                             "f": [True, False, None, True]}, name="mixed")
        assert t.fingerprint() == u.fingerprint()

    def test_nbytes_positive(self):
        assert make_table("t").nbytes() > 0
