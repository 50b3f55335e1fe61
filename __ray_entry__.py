"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported;
nothing here (or in feast_ray) calls ray.init()/ray.shutdown().

- ``entry()``     — flagship quality-filter pipeline on sf0.001.
- ``queries()``   — one entry per implemented operator/pipeline
                    (SURVEY.md §2 coverage; see feast_ray/pipelines/queries.py),
                    least recently gate-checked first.
- ``oracle_sql()``— DuckDB-equivalent SQL for every query.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

_ROOT = Path(__file__).resolve().parent


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (driver smoke check)."""
    from feast_ray.pipelines.quality_filter import quality_filter
    from feast_ray.sources import synth_webpages

    return quality_filter(synth_webpages("/root/testdata/sf0.001"))


def window_order(names: Iterable[str], records_dir: Path) -> list[str]:
    """``names`` (given in id order) least recently gate-checked first:
    by the last round whose ``CORRECTNESS_r<NN>.json`` in ``records_dir``
    names a query (0 if none does); ties keep id order."""
    last: dict[str, int] = {}
    for path in records_dir.iterdir():
        if m := re.fullmatch(r"CORRECTNESS_r(\d+)\.json", path.name):
            for name in json.loads(path.read_text()):
                last[name] = max(last.get(name, 0), int(m.group(1)))
    return sorted(names, key=lambda k: last.get(k, 0))


def queries() -> dict[str, Callable[[str], Any]]:
    """Every catalog query, in ``window_order``: the correctness gate
    records at most 50 entries per round from the front, so each new
    record rotates the window onto the least recently checked queries."""
    from feast_ray.pipelines.queries import QUERIES

    return {k: QUERIES[k] for k in window_order(QUERIES, _ROOT)}


def oracle_sql() -> dict[str, str]:
    from feast_ray.pipelines import queries as q

    return q.oracle_sql()
