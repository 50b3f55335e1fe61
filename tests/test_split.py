"""Leakage-safe split invariants (q106): a near-dup component never
straddles splits, buckets are hash-stable, fractions near 80/10/10."""

import numpy as np

from feast_ray.pipelines.queries import q106_leakage_safe_split

SF = "/root/testdata/sf0.001"


def test_split_component_atomicity_and_fractions():
    df = q106_leakage_safe_split(SF).to_pandas()
    assert set(df.columns) == {"doc_id", "source", "component", "split"}
    # the leakage guarantee: one split per component
    per_comp = df.groupby("component")["split"].nunique()
    assert (per_comp == 1).all()
    # some component has >1 member (the corpus has planted near-dups)
    assert (df.groupby("component").size() > 1).any()
    frac = df["split"].value_counts(normalize=True)
    assert 0.65 <= frac.get("train", 0) <= 0.92
    assert frac.get("val", 0) > 0 and frac.get("test", 0) > 0
    # deterministic across runs
    df2 = q106_leakage_safe_split(SF).to_pandas()
    a = df.sort_values("doc_id").reset_index(drop=True)
    b = df2.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    # splitmix bucketing matches the documented rule
    from feast_ray.functions.neardup import _splitmix64

    z = _splitmix64(a["component"].to_numpy(np.uint64)) % np.uint64(100)
    expect = np.where(z < 80, "train", np.where(z < 90, "val", "test"))
    assert (a["split"].to_numpy() == expect).all()
