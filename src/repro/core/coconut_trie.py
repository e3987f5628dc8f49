"""Coconut-Trie: bottom-up bulk-loading of a prefix-split index (Algorithm 2).

Like Coconut-Tree, the build starts by summarizing and externally
sorting by invSAX, and it shares everything after the sort with it
(``repro.core.coconut_common``): only the ranks at which leaves start
differ.  Trie leaves are constrained to *prefix boundaries* of the
z-order key (= common iSAX prefixes across all segments, §4.2): within
each first-level subtree (1 bit per segment) a group splits on its next
interleaved bit until it fits the leaf capacity.  Stopping at the
shallowest fitting depth is exactly the fixpoint of the paper's
``insertBottomUp`` + ``CompactSubtree`` (build at full resolution, then
merge sibling leaves while they fit): both yield the minimal prefix
partition.  Because the keys are already sorted, every prefix node is a
contiguous run of ranks, so the partition is found on the driver with
binary searches over the full-width keys — one pass over the sorted
stream, as in Algorithm 2.

Because groups can only merge at prefix boundaries, leaves end up
sparse (paper: ~10% full) — the contrast Coconut-Tree removes.
"""
from __future__ import annotations

import time
from bisect import bisect_left

from pyspark.sql import DataFrame, SparkSession

from repro.core.coconut_common import (
    CoconutIndex,
    directory_from_summaries,
    ranked_zkeys,
    with_leaf_ids,
    write_index_files,
)
from repro.core.coconut_tree import _series_length, summarize_series
from repro.core.sort_rank import global_sort_with_rank
from repro.storage.disk_model import DiskConfig, DiskModel, external_sort_cost


def prefix_leaf_starts(zkeys, *, w: int, bits: int, capacity: int) -> list[int]:
    """Start ranks of the minimal prefix partition of *sorted* hex z-keys.

    A leaf is one node of the binary trie over the interleaved key bits.
    A node never holds keys of two depth-``w`` subtrees (the first trie
    level takes 1 bit from each segment); below that it splits on its
    next bit until it fits ``capacity``.  At depth ``w * bits`` all its
    keys are identical and it stays a leaf however many it holds.
    """
    keys = [int(z, 16) for z in zkeys]
    if not keys:
        return []
    width = 4 * len(zkeys[0])  # padded key bits
    max_depth = w * bits
    starts: list[int] = []
    stack = [(0, len(keys), 0, 0)]  # (lo, hi, depth, prefix)
    while stack:
        lo, hi, depth, prefix = stack.pop()
        if depth >= w and (hi - lo <= capacity or depth >= max_depth):
            starts.append(lo)
            continue
        # First key whose bit at position ``depth`` is 1 — the range is
        # sorted, so the 0-child precedes the 1-child contiguously.
        split = bisect_left(keys, (2 * prefix + 1) << (width - depth - 1), lo, hi)
        # Push the 1-child first so leaves come off the stack in rank order.
        if split < hi:
            stack.append((split, hi, depth + 1, 2 * prefix + 1))
        if split > lo:
            stack.append((lo, split, depth + 1, 2 * prefix))
    return starts


def charge_trie_build(disk: DiskModel, n: int, n_leaves: int, leaf_capacity: int, *, materialized: bool) -> None:
    """Disk-access-model cost of Algorithm 2.

    Both variants sort only the summaries.  The Full variant then pays
    the paper's "last pass": gathering raw series by offset into the
    sorted leaves — random reads once the raw file exceeds memory
    (Fig 8a: CTrieFull degrades steeply as memory shrinks).  Compaction
    adds two streaming passes over the summaries.  Leaves are allocated
    at full capacity, so sparse leaves inflate the final write.
    """
    c = disk.config
    raw_blocks = -(-n // c.block_series)
    sum_blocks = max(1, -(-n // c.summaries_per_block))
    disk.seq_read(raw_blocks)  # summarization scan
    disk.cpu_summarize(n)
    disk.cpu_sort(n)
    # CompactSubtree: repeated sibling-merge sweeps over the leaf level
    # (the paper: CTrie "spends a significant time in compacting").
    disk.charge_cpu(3 * n * c.cpu_insert_item_s)
    mem_summaries = max(1, c.memory_series * c.series_bytes // c.summary_bytes)
    external_sort_cost(disk, n, c.summaries_per_block, mem_summaries)
    disk.seq_read(sum_blocks)  # compaction pass over summaries
    disk.seq_write(sum_blocks)
    if materialized:
        uncached = max(0, n - c.memory_series)
        disk.rand_read(uncached)  # fetch raw series into sorted leaves
        alloc_blocks = n_leaves * max(1, -(-leaf_capacity // c.block_series))
        disk.seq_write(alloc_blocks)
    else:
        alloc_blocks = n_leaves * max(1, -(-leaf_capacity // c.summaries_per_block))
        disk.seq_write(alloc_blocks)


def build_coconut_trie(
    spark: SparkSession,
    series_df: DataFrame,
    *,
    path: str,
    w: int = 8,
    bits: int = 4,
    leaf_capacity: int = 100,
    materialized: bool = False,
    disk_config: DiskConfig | None = None,
) -> CoconutIndex:
    """Bulk-load a Coconut-Trie index over ``series_df`` (id, series)."""
    cfg = disk_config or DiskConfig()
    disk = DiskModel(config=cfg)
    t0 = time.perf_counter()
    length = _series_length(series_df)

    summaries = summarize_series(series_df, w, bits, keep_series=materialized)
    ranked = global_sort_with_rank(summaries, "zkey")
    zkeys = ranked_zkeys(ranked)
    n = len(zkeys)
    starts = prefix_leaf_starts(zkeys, w=w, bits=bits, capacity=leaf_capacity)
    with_leaf = with_leaf_ids(ranked, starts).persist()
    write_index_files(
        with_leaf, None if materialized else series_df, path, materialized=materialized
    )
    ranked.unpersist()  # the write has filled ``with_leaf``'s cache
    directory = directory_from_summaries(zkeys, starts)
    charge_trie_build(disk, n, len(directory), leaf_capacity, materialized=materialized)

    return CoconutIndex(
        spark=spark,
        variant="trie",
        path=path,
        w=w,
        bits=bits,
        length=length,
        leaf_capacity=leaf_capacity,
        materialized=materialized,
        n_series=n,
        directory=directory,
        summaries=with_leaf,
        build_disk=disk,
        disk_config=cfg,
        extra={"build_wall_s": time.perf_counter() - t0},
    )
