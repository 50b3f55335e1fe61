"""Driver-contract smoke: entry() runs, queries()/oracle_sql() are
consistent, and a representative oracle pair matches DuckDB here too
(the full sweep lives in scripts/check_correctness.py)."""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import __ray_entry__ as entrymod
from feast_ray.pipelines.queries import _catalog


def test_entry_runs():
    res = entrymod.entry()
    import ray.data

    assert isinstance(res, ray.data.Dataset)
    assert res.count() >= 0


def test_every_oracle_key_has_a_query():
    qs = entrymod.queries()
    for name in entrymod.oracle_sql():
        assert name in qs, name
    assert len(qs) >= 30


def test_representative_oracle_pair(sf_small, duck):
    from scripts.check_correctness import compare, to_pandas

    qs = entrymod.queries()
    sql = entrymod.oracle_sql()
    for name in ["q01_pricing_summary", "q07_latest_event_per_user", "q16_quality_filter_docs"]:
        got = to_pandas(qs[name](sf_small))
        exp = duck.execute(sql[name]).fetchdf()
        assert compare(name, got, exp) == [], name


def test_catalog_pins_the_key_set_and_sql_map():
    names = "\n".join(sorted(entrymod.queries()))
    assert hashlib.sha256(names.encode()).hexdigest() == (
        "de5cde2c3dd6b613aed067093f7a716d60256441b1d77bca5adc0cb1fdfa2619")
    sql = json.dumps(entrymod.oracle_sql(), sort_keys=True)
    assert hashlib.sha256(sql.encode()).hexdigest() == (
        "9609a921ad198a0bb360846d1abd2371b40b9980e22afd6ec7f85541ca30c359")


def _f(sf_dir):
    return sf_dir


def test_catalog_pairs_queries_with_sql_by_number():
    def _q2_sql():
        return "select 2"

    queries, sql = _catalog({"q10_b": _f, "q2_a": _f, "_Q10_SQL": "select 10",
                             "_q2_sql": _q2_sql, "_Q10_N": 3, "__name__": "m"})
    assert list(queries) == ["q2_a", "q10_b"]
    assert sql == {"q2_a": _q2_sql, "q10_b": "select 10"}


@pytest.mark.parametrize("ns, match", [
    ({"q1_a": _f, "q2_b": _f, "_Q1_SQL": "x"}, r"no _Q<NN>_SQL .*q2_b"),
    ({"q1_a": _f, "q01_b": _f, "_Q1_SQL": "x"}, r"q1_a and q01_b share the number 1"),
    ({"q1_a": _f, "_Q1_SQL": "x", "_q3_sql": _f}, r"no query: \['_q3_sql'\]"),
])
def test_catalog_rejects_a_broken_registration(ns, match):
    with pytest.raises(RuntimeError, match=match):
        _catalog(ns)


def test_window_puts_least_recently_checked_first(tmp_path):
    (tmp_path / "CORRECTNESS_r01.json").write_text(json.dumps({"q1_a": {}, "q3_c": {}}))
    (tmp_path / "CORRECTNESS_r02.json").write_text(json.dumps({"q1_a": {}}))
    (tmp_path / "notes.json").write_text(json.dumps({"q10_j": {}}))
    names = ["q1_a", "q3_c", "q9_i", "q10_j"]
    assert entrymod.window_order(names, tmp_path) == ["q9_i", "q10_j", "q3_c", "q1_a"]


def test_window_opens_on_the_never_checked_queries():
    checked = set()
    for path in ROOT.glob("CORRECTNESS_r*.json"):
        checked |= json.loads(path.read_text()).keys()
    qs = entrymod.queries()
    never = sorted((k for k in qs if k not in checked),
                   key=lambda k: int(re.match(r"q(\d+)", k).group(1)))
    assert list(qs)[: len(never[:50])] == never[:50]
