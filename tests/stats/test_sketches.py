"""Tests for the sketch-tier structures (reservoir, streaming moments)."""

import pickle

import numpy as np
import pytest

from repro.engine.table import Table
from repro.stats.descriptive import summarize
from repro.stats.sketches import (
    TableSketch,
    mean_margin,
    required_sample,
    sample_indices,
)


def make_table(n, seed=3, name="sk"):
    rng = np.random.default_rng(seed)
    return Table.from_dict({
        "a": rng.normal(size=n),
        "b": rng.normal(loc=5.0, scale=2.0, size=n),
        "gappy": np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)),
        "cat": [("x" if v < 0.5 else "y") for v in rng.random(n)],
    }, name=name)


class TestErrorBounds:
    def test_mean_margin_shrinks_with_k(self):
        assert mean_margin(100) < mean_margin(25)
        assert mean_margin(0) == float("inf")

    def test_required_sample_inverts_margin(self):
        for margin in (0.5, 0.1, 0.05):
            k = required_sample(margin)
            assert mean_margin(k) <= margin
            assert mean_margin(k - 1) > margin

    def test_nonpositive_margin_unobtainable(self):
        assert required_sample(0.0) > 10**15


class TestSampleIndices:
    def test_small_table_covered_completely(self):
        idx = sample_indices(100, capacity=4096)
        assert np.array_equal(idx, np.arange(100))

    def test_deterministic_and_sorted(self):
        a = sample_indices(100_000, capacity=1000, seed=7)
        b = sample_indices(100_000, capacity=1000, seed=7)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))
        assert len(set(a.tolist())) == 1000

    def test_seed_changes_sample(self):
        a = sample_indices(100_000, capacity=1000, seed=7)
        b = sample_indices(100_000, capacity=1000, seed=8)
        assert not np.array_equal(a, b)


class TestTableSketch:
    def test_small_table_covers_all(self):
        sketch = TableSketch.build(make_table(500), capacity=4096)
        assert sketch.covers_all
        assert sketch.sample_size == 500

    def test_numeric_columns_only(self):
        sketch = TableSketch.build(make_table(500))
        assert set(sketch.columns) == {"a", "b", "gappy"}

    def test_moments_exact(self):
        table = make_table(5000)
        sketch = TableSketch.build(table, capacity=512)
        exact = summarize(table.column("b").numeric_values())
        assert sketch.columns["b"].moments == exact

    def test_sample_row_aligned(self):
        table = make_table(5000)
        sketch = TableSketch.build(table, capacity=512)
        assert not sketch.covers_all
        values = table.column("a").numeric_values()
        assert np.array_equal(sketch.columns["a"].sample,
                              values[sketch.row_indices], equal_nan=True)

    def test_sample_mask_shape_checked(self):
        sketch = TableSketch.build(make_table(1000), capacity=128)
        with pytest.raises(ValueError):
            sketch.sample_mask(np.ones(999, dtype=bool))

    def test_sample_matrix_aligned(self):
        table = make_table(3000)
        sketch = TableSketch.build(table, capacity=256)
        assert sketch.samples.shape == (256, 3)  # the numeric columns
        mat = sketch.samples[:, sketch.positions(("a", "b"))]
        assert np.array_equal(mat[:, 1], sketch.columns["b"].sample)
        assert np.shares_memory(sketch.columns["b"].sample, sketch.samples)

    def test_pickle_round_trip(self):
        sketch = TableSketch.build(make_table(5000), capacity=512)
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.fingerprint == sketch.fingerprint
        assert np.array_equal(clone.row_indices, sketch.row_indices)
        assert clone.columns["a"].moments == sketch.columns["a"].moments

    def test_pickle_holds_the_sample_matrix_once(self):
        sketch = TableSketch.build(make_table(5000), capacity=512)
        blob = pickle.dumps(sketch)
        # One copy of the samples, not one more per column view.
        assert len(blob) < (sketch.samples.nbytes
                            + sketch.row_indices.nbytes + 4096)
        clone = pickle.loads(blob)
        for column in clone.columns.values():
            assert np.shares_memory(column.sample, clone.samples)
            assert np.array_equal(column.sample,
                                  sketch.columns[column.name].sample,
                                  equal_nan=True)
