"""Exact distributed selection: parity with np.sort across domains
(narrow/wide/negative/duplicated), multi-round refinement, the
bw==1 direct-histogram path, and error cases."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from feast_ray.functions import selection
from feast_ray.functions.selection import exact_kth


def _ds(vals):
    return rd.from_arrow(pa.table({
        "v": pa.array(np.asarray(vals, dtype=np.int64))})).repartition(7)


def test_parity_narrow_domain_with_ties():
    rng = np.random.default_rng(0)
    vals = rng.integers(-50, 50, 5000)
    ds = _ds(vals)
    s = np.sort(vals)
    for k in (1, 2, 777, 2500, 5000):
        assert exact_kth(ds, "v", k) == s[k - 1]


def test_parity_wide_domain_multi_round(monkeypatch):
    rng = np.random.default_rng(1)
    vals = rng.integers(-(1 << 62), 1 << 62, 4000)
    ds = _ds(vals)
    s = np.sort(vals)
    # COLLECT_LIMIT=1 forces refinement until bw==1 or tiny range
    monkeypatch.setattr(selection, "COLLECT_LIMIT", 1)
    for k in (1, 1999, 4000):
        assert exact_kth(ds, "v", k) == s[k - 1]


def test_parity_collect_path():
    rng = np.random.default_rng(2)
    vals = rng.integers(0, 1 << 40, 3000)
    s = np.sort(vals)
    assert exact_kth(_ds(vals), "v", 1234) == s[1233]


def test_constant_column_and_bounds():
    ds = _ds(np.full(100, 42))
    assert exact_kth(ds, "v", 1) == 42
    assert exact_kth(ds, "v", 100) == 42
    with pytest.raises(ValueError):
        exact_kth(ds, "v", 101)
    with pytest.raises(ValueError):
        exact_kth(ds, "v", 0)
