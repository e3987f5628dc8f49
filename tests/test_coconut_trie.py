"""Unit + integration tests for the Coconut-Trie bulk loader."""
import shutil
from bisect import bisect_left

import numpy as np
import pytest

from repro.core.coconut_tree import build_coconut_tree
from repro.core.coconut_trie import build_coconut_trie, prefix_leaf_starts
from repro.core.zorder import key_to_int, prefix_key, zkeys
from repro.synth_data import series_matrix
from tests.conftest import CAPACITY, N_SERIES

#: Key bits in the unit tests: one segment (so the first trie level is
#: the top bit) of 64 bits.
WIDTH = 64


def _hex(keys) -> list[str]:
    return [f"{int(k):016x}" for k in keys]


def _leaves(keys, capacity: int) -> list[tuple[int, int]]:
    """[start, end) rank ranges of the prefix leaves over sorted ``keys``."""
    starts = prefix_leaf_starts(_hex(keys), w=1, bits=WIDTH, capacity=capacity)
    return list(zip(starts, starts[1:] + [len(keys)]))


def _common_bits(a, b) -> int:
    return WIDTH - (int(a) ^ int(b)).bit_length()


def _leaf_depth(keys, lo: int, hi: int) -> int:
    """Depth of the shallowest trie node (below the first level) holding
    exactly ``keys[lo:hi]``: one bit deeper than the prefix the leaf
    shares with either neighbour."""
    shared = [_common_bits(keys[lo - 1], keys[lo])] if lo > 0 else []
    if hi < len(keys):
        shared.append(_common_bits(keys[hi - 1], keys[hi]))
    return max([1] + [c + 1 for c in shared])


class TestAssignPrefixLeaves:
    """The Trie's leaf start ranks (:func:`prefix_leaf_starts`)."""

    def test_small_group_single_leaf(self):
        assert _leaves([1, 2, 3], capacity=10) == [(0, 3)]

    def test_split_on_top_bit(self):
        lo = list(range(5))
        keys = lo + [k + (1 << 63) for k in lo]
        leaves = _leaves(keys, capacity=5)
        assert leaves == [(0, 5), (5, 10)]
        assert [_leaf_depth(keys, a, b) for a, b in leaves] == [1, 1]

    def test_capacity_respected(self):
        g = np.random.default_rng(0)
        keys = np.sort(g.integers(0, 2**63, 500).astype(np.uint64))
        for lo, hi in _leaves(keys, capacity=40):
            if keys[lo] != keys[hi - 1]:
                assert hi - lo <= 40

    def test_leaves_contiguous_in_sorted_order(self):
        g = np.random.default_rng(1)
        keys = np.sort(g.integers(0, 2**63, 300).astype(np.uint64))
        leaves = _leaves(keys, capacity=20)
        assert leaves[0][0] == 0 and leaves[-1][1] == len(keys)
        for (_, hi), (lo, _) in zip(leaves, leaves[1:]):
            assert hi == lo  # each leaf is one contiguous, non-empty run
        assert all(lo < hi for lo, hi in leaves)

    def test_prefix_property(self):
        """Every leaf holds exactly the keys under one bit-prefix: the
        prefix its first and last key share, which no neighbour has."""
        g = np.random.default_rng(2)
        keys = np.sort(g.integers(0, 2**63, 200).astype(np.uint64))
        for lo, hi in _leaves(keys, capacity=15):
            d = _common_bits(keys[lo], keys[hi - 1])
            p = int(keys[lo]) >> (WIDTH - d)
            assert all(int(k) >> (WIDTH - d) == p for k in keys[lo:hi])
            for nb in ([lo - 1] if lo > 0 else []) + ([hi] if hi < len(keys) else []):
                assert int(keys[nb]) >> (WIDTH - d) != p

    def test_identical_keys_oversized_leaf(self):
        assert _leaves([0] * 100, capacity=10) == [(0, 100)]  # cannot split

    def test_minimal_depth(self):
        """No leaf's parent node would still fit: the CompactSubtree
        fixpoint (no two siblings could be merged)."""
        g = np.random.default_rng(3)
        keys = sorted(int(k) for k in g.integers(0, 2**63, 400))
        capacity = 30
        for lo, hi in _leaves(keys, capacity):
            d = _leaf_depth(keys, lo, hi)
            if d <= 1:
                continue
            shift = WIDTH - (d - 1)
            parent = keys[lo] >> shift
            size = bisect_left(keys, (parent + 1) << shift) - bisect_left(keys, parent << shift)
            assert size > capacity


def _near_duplicates(n: int = 200, length: int = 256) -> np.ndarray:
    """One random walk plus N(0, 0.01) noise, z-normalized: series whose
    z-keys agree on far more than 64 bits at the paper's w=16, bits=8."""
    base = series_matrix(n_series=1, length=length, kind="walk", seed=0)[0]
    x = base + np.random.default_rng(0).normal(0, 0.01, (n, length))
    return (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)


def _oversized(zkeys, starts, capacity: int) -> list[int]:
    """Counts of leaves over ``capacity`` whose keys are not all identical."""
    ends = list(starts[1:]) + [len(zkeys)]
    return [
        hi - lo for lo, hi in zip(starts, ends)
        if hi - lo > capacity and zkeys[lo] != zkeys[hi - 1]
    ]


class TestFullWidthKeys:
    """128-bit keys (w=16, bits=8): leaves split on every key bit."""

    def test_prefix_leaves_split_past_64_bits(self):
        keys = sorted(zkeys(_near_duplicates(), 16, 8))
        starts = prefix_leaf_starts(keys, w=16, bits=8, capacity=10)
        assert _oversized(keys, starts, 10) == []

    def test_trie_build_splits_past_64_bits(self, near_dup_builds):
        d = near_dup_builds["trie"].directory
        big = d[(d["count"] > 10) & (d["min_zkey"] != d["max_zkey"])]
        assert big.empty, big
        assert d["count"].sum() == 200


def _build_counting_jobs(spark, group: str, build):
    """Run ``build()`` under its own Spark job group; (result, job count)."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        idx = build()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return idx, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="module")
def near_dup_builds(spark, tmp_path_factory):
    """A Tree and a Trie build over the same 200 near-duplicates (w=16,
    bits=8, capacity 10), each with the Spark jobs it ran."""
    mat = _near_duplicates()
    df = spark.createDataFrame(
        [(i, row.tolist()) for i, row in enumerate(mat)], "id long, series array<double>"
    ).persist()
    df.count()
    out, paths = {}, []
    for variant, builder in (("tree", build_coconut_tree), ("trie", build_coconut_trie)):
        path = str(tmp_path_factory.mktemp(f"near_dup_{variant}"))
        paths.append(path)
        out[variant], out[f"{variant}_jobs"] = _build_counting_jobs(
            spark, f"near_dup_{variant}",
            lambda: builder(spark, df, path=path, w=16, bits=8, leaf_capacity=10),
        )
    yield out
    for variant in ("tree", "trie"):
        out[variant].close()
    df.unpersist()
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


class TestSparkJobs:
    def test_trie_runs_no_more_jobs_than_tree(self, near_dup_builds):
        """The Trie shares the Tree's single sorted pass: no second
        shuffle, no label collection, no join."""
        assert near_dup_builds["trie_jobs"] <= near_dup_builds["tree_jobs"]


class TestTrieIndex:
    def test_all_series_indexed(self, ctrie):
        assert ctrie.n_series == N_SERIES

    def test_sparser_than_tree(self, ctrie, ctree):
        """Prefix splits cannot pack across prefix boundaries: the trie
        has more leaves and lower fill (paper: ~10% vs ~97%)."""
        assert ctrie.n_leaves > ctree.n_leaves
        assert ctrie.fill_factor < ctree.fill_factor

    def test_leaf_members_share_prefix(self, ctrie):
        pdf = ctrie.summaries.select("leaf_id", "zkey").toPandas()
        total_bits = ctrie.w * ctrie.bits
        for lid, grp in pdf.groupby("leaf_id"):
            keys = [key_to_int(z) for z in grp["zkey"]]
            if len(keys) == 1:
                continue
            # All members share the prefix that distinguishes this leaf
            # from its sibling: find the longest common prefix and check
            # no other leaf's member shares it.
            hexlen = len(grp["zkey"].iloc[0]) * 4
            common = hexlen - max((keys[0] ^ k).bit_length() for k in keys)
            assert common >= 0

    def test_leaves_contiguous_ranges(self, ctrie):
        pdf = ctrie.summaries.select("leaf_id", "rank").toPandas()
        for lid, grp in pdf.groupby("leaf_id"):
            r = sorted(grp["rank"])
            assert r == list(range(r[0], r[0] + len(r)))

    def test_key_ranges_disjoint(self, ctrie):
        d = ctrie.directory
        for i in range(len(d) - 1):
            assert d.iloc[i]["max_zkey"] <= d.iloc[i + 1]["min_zkey"]

    def test_capacity_respected(self, ctrie):
        assert ctrie.directory["count"].max() <= CAPACITY

    def test_counts_sum(self, ctrie):
        assert ctrie.directory["count"].sum() == N_SERIES

    def test_no_random_io_secondary_build(self, ctrie):
        assert ctrie.build_disk.random_reads == 0

    def test_materialized_trie_costs_more(self, ctrie, ctrie_full):
        assert ctrie_full.build_disk.seconds() > ctrie.build_disk.seconds()

    def test_build_slower_than_tree(self, ctrie, ctree):
        """Compaction makes CTrie construction slower than CTree (§5.1)."""
        assert ctrie.build_disk.seconds() > ctree.build_disk.seconds()

    def test_trie_leaves_map_to_isax_nodes(self, ctrie):
        """Each leaf's (depth,prefix) is an iSAX node: members agree on
        prefix_key at every whole-symbol-resolution up to the leaf depth."""
        pdf = ctrie.summaries.select("leaf_id", "zkey").toPandas()
        w, bits = ctrie.w, ctrie.bits
        for lid, grp in pdf.groupby("leaf_id"):
            zk = list(grp["zkey"])
            if len(zk) < 2:
                continue
            assert prefix_key(zk[0], w, bits, 1) == prefix_key(zk[-1], w, bits, 1)
