"""Pins the simulated clock of the Coconut query path.

``data/query_snapshots.json`` holds, for each session index and each
query of the session workload, the ``DiskModel.snapshot()``, visited
records, SIMS candidates and answer of ``approximate_search`` (radius 1
and 5) and ``exact_search`` (radius 1 and 5), plus the first exact query
that pays the one-time summary load.  The values were captured from the
Spark-per-query implementation this driver-resident path replaced; a
change to any of them is a change to the paper-comparable cost model
and must be explained, not re-captured.
"""
import json
from pathlib import Path

import pytest

from repro.core.query import approximate_search, exact_search

PINNED = json.loads((Path(__file__).parent / "data" / "query_snapshots.json").read_text())


def _check(result, want: dict, *, exact: bool) -> None:
    assert result.disk.snapshot() == want["snapshot"]
    assert result.visited_records == want["visited"]
    assert result.id == want["id"]
    assert result.distance == pytest.approx(want["distance"], rel=1e-12)
    if exact:
        assert result.extra["candidates"] == want["candidates"]


@pytest.mark.parametrize("fixture", sorted(PINNED))
def test_query_charges_match_pinned(fixture, request, queries):
    idx = request.getfixturevalue(fixture)
    pinned = PINNED[fixture]
    assert len(pinned["queries"]) == len(queries)
    # The first exact query pays the summary load, whatever earlier tests
    # did with this session index.
    idx.summaries_loaded = False
    _check(exact_search(idx, queries[0]), pinned["first_exact"], exact=True)
    for q, want in zip(queries, pinned["queries"]):
        for radius in (1, 5):
            _check(approximate_search(idx, q, radius=radius), want[f"approx_r{radius}"], exact=False)
            _check(exact_search(idx, q, radius=radius), want[f"exact_r{radius}"], exact=True)
