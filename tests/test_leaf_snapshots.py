"""Pins the leaf layout of the Coconut bulk loads.

``data/leaf_snapshots.json`` holds, for each session index, every
series' ``rank`` and ``leaf_id`` (listed by ascending id), the leaf
directory's columns in directory order and the build's
``DiskModel.snapshot()``.  The values were captured from the build that
assigned Trie leaves through a per-subtree re-sort and a label join and
aggregated the directory with a Spark ``groupBy``; the single
leaf-assignment path that replaced both must reproduce them exactly.  A
change to any of them changes the index the paper's figures are built
from and must be explained, not re-captured.
"""
import json
from pathlib import Path

import pytest

PINNED = json.loads((Path(__file__).parent / "data" / "leaf_snapshots.json").read_text())
DIRECTORY_COLS = ["leaf_id", "min_zkey", "max_zkey", "count", "min_rank"]


@pytest.mark.parametrize("fixture", sorted(PINNED))
def test_leaves_match_pinned(fixture, request):
    idx = request.getfixturevalue(fixture)
    pinned = PINNED[fixture]
    rows = idx.summaries.select("id", "rank", "leaf_id").toPandas().sort_values("id")
    assert rows["id"].tolist() == pinned["id"]
    assert rows["rank"].tolist() == pinned["rank"]
    assert rows["leaf_id"].tolist() == pinned["leaf_id"]
    assert list(idx.directory.columns) == DIRECTORY_COLS
    assert {c: idx.directory[c].tolist() for c in DIRECTORY_COLS} == pinned["directory"]
    assert idx.build_disk.snapshot() == pinned["build_disk"]
