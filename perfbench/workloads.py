"""The benchmark's closed-loop workloads (one client each).

A workload prepares its inputs and prebuilt indexes in ``setup`` (timed
as ``setup_s``) and then runs *rounds* back to back; a round is the unit
the end-to-end ``round_s_p50`` times:

- ``build``  — one bulk load each of CTreeFull and CTrieFull over the
  same ``walk`` collection.  No queries.
- ``update`` — one ``merge_batch`` of a ``seismic`` batch into a
  secondary CTree (and ``insert_batch`` into the ADS+ comparator), then
  for each of two queries ``approximate_search``, ``exact_search`` and
  ``ISaxIndex.exact`` on the merged indexes.

Every operation's answer is checked against brute force on the
collection as it stands at that moment, outside the timed section.
Inputs come only from the seed: data from ``series_collection(seed)``,
queries from ``query_workload`` under a disjoint seed.
"""
from __future__ import annotations

import gc
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from pyspark.sql import functions as F

from repro.baselines.brute_force import exact_nn_numpy
from repro.baselines.isax_index import ISaxIndex
from repro.core.coconut_tree import build_coconut_tree, merge_batch
from repro.core.coconut_trie import build_coconut_trie
from repro.core.distance import euclidean
from repro.core.query import approximate_search, exact_search
from repro.storage.disk_model import DiskConfig
from repro.synth_data import query_workload, series_collection, series_matrix

# Fixed configuration (ROADMAP aim 1).
LENGTH, W, BITS, LEAF = 128, 8, 8, 100
SERIES_BYTES = LENGTH * 8
QUERY_SEED_BASE = 10_000_000     # query seeds never collide with data seeds
WARMUP_SEED_BASE = 20_000_000


def disk_config(n_series: int) -> DiskConfig:
    """Memory holds 10% of the collection: the paper's restricted regime."""
    return DiskConfig(
        block_series=32, memory_series=n_series // 10,
        series_bytes=SERIES_BYTES, summary_bytes=24,
    )


@dataclass
class Op:
    """One timed call into the system under test."""

    kind: str                    # build | merge | ads_insert | approx | exact | ads_exact | error
    label: str
    wall_s: float
    disk: dict | None            # DiskModel.snapshot() of the call
    problems: list[str]          # empty when the answer checked out
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Round:
    ops: list[Op]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.ops)


def dir_usage(path: str) -> tuple[int, int]:
    """(bytes, files) of every regular file under ``path``."""
    total = files = 0
    for p in Path(path).rglob("*"):
        if p.is_file():
            total += p.stat().st_size
            files += 1
    return total, files


def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_exact(res, series: np.ndarray, q: np.ndarray) -> list[str]:
    """Exact answer == brute force (id and distance; an exact tie on
    distance may return either id).  Ids are row numbers here."""
    oid, od = exact_nn_numpy(np.arange(len(series)), series, q)
    if not same(res.distance, od):
        return [f"distance {res.distance!r} != brute force {od!r} (id {oid})"]
    if res.id != oid and not (
        0 <= res.id < len(series) and same(float(euclidean(series[res.id], q)), od)
    ):
        return [f"id {res.id} != brute force id {oid}"]
    return []


def check_approx(res, series: np.ndarray, q: np.ndarray) -> list[str]:
    """An approximate answer's distance is the true distance of its id."""
    if not 0 <= res.id < len(series):
        return [f"approximate id {res.id} not in the collection"]
    true = float(euclidean(series[res.id], q))
    return [] if same(res.distance, true) else [
        f"approximate distance {res.distance!r} != true distance {true!r}"
    ]


def check_index(idx, n: int) -> list[str]:
    """Leaf-level invariants of a Coconut index holding ``n`` series."""
    d = idx.directory.sort_values("min_rank").reset_index(drop=True)
    counts = d["count"].to_numpy()
    problems = []
    if idx.n_series != n or counts.sum() != n:
        problems.append(f"holds {idx.n_series} series ({counts.sum()} in leaves), want {n}")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    if not np.array_equal(d["min_rank"].to_numpy(), starts):
        problems.append("leaves are not contiguous rank ranges")
    if not (d["max_zkey"].to_numpy()[:-1] <= d["min_zkey"].to_numpy()[1:]).all():
        problems.append("leaf key ranges overlap or are out of order")
    cap = idx.leaf_capacity
    if idx.variant == "tree" and (counts[:-1] != cap).any():
        problems.append("a tree leaf other than the last is not full")
    if idx.variant == "trie" and (
        (counts > cap) & (d["min_zkey"] != d["max_zkey"]).to_numpy()
    ).any():
        problems.append("a splittable trie leaf exceeds capacity")
    on_disk = sum(1 for _ in Path(idx.path, "leaves").glob("leaf_id=*"))
    if on_disk != idx.n_leaves:
        problems.append(f"{on_disk} leaf partitions on disk, directory has {idx.n_leaves}")
    return problems


class Workload:
    """Shared plumbing: a run-scoped work dir and timed operations."""

    name = ""
    min_rounds = 1                 # a run always completes this many rounds
    max_rounds: int | None = None  # ... and never more than this many

    def __init__(self, spark, seed: int, workdir: Path):
        self.spark = spark
        self.seed = seed
        self.workdir = workdir
        self._paths = 0

    def new_path(self, tag: str) -> str:
        self._paths += 1
        return str(self.workdir / f"{self.name}-{self._paths:04d}-{tag}")

    def collect_garbage(self) -> None:
        """Start each round from a collected heap on both sides."""
        gc.collect()
        self.spark.sparkContext._jvm.System.gc()

    @staticmethod
    def timed(tracer, kind: str, label: str, fn):
        with tracer.span(kind, label=label) as span:
            t = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t
        return out, wall, span

    @staticmethod
    def record(ops: list[Op], span, op: Op) -> None:
        ops.append(op)
        if span is not None:
            span.attrs.update(op.info, disk=op.disk, problems=op.problems)

    def reset(self) -> None:
        """Restore the state a pass starts from (for the traced replay)."""

    def measure(self, tracer, seconds: float, n_rounds: int | None = None) -> list[Round]:
        """Closed loop: rounds back to back until ``seconds`` have passed
        (at least ``min_rounds``, at most ``max_rounds``), or exactly
        ``n_rounds`` rounds when replaying a pass."""
        rounds = []
        t0 = time.perf_counter()
        while n_rounds is None or len(rounds) < n_rounds:
            i = len(rounds)
            if n_rounds is None and i >= self.min_rounds and (
                time.perf_counter() - t0 >= seconds or i == self.max_rounds
            ):
                break
            self.collect_garbage()
            ops: list[Op] = []
            rounds.append(Round(ops))
            try:
                self.run_round(i, tracer, ops)
            except Exception:  # a raising operation is a failed one; stop the pass
                traceback.print_exc()
                ops.append(Op("error", f"round {i}", 0.0, None, [traceback.format_exc(limit=1)]))
                break
        return rounds

    def index_bytes_ratio(self, rounds: list[Round]) -> float:
        raise NotImplementedError


class BuildWorkload(Workload):
    """Bulk-load CTreeFull and CTrieFull, once each per round."""

    name = "build"
    n_series = 4_000
    # The materialized Tree/Trie pair: it isolates Trie-only leaf
    # assignment, and the secondary CTree build already runs inside every
    # merge of the ``update`` workload.
    variants = [
        ("ctree_full", build_coconut_tree, True),
        ("ctrie_full", build_coconut_trie, True),
    ]

    def setup(self) -> None:
        self.cfg = disk_config(self.n_series)
        self.df = series_collection(
            self.spark, n_series=self.n_series, length=LENGTH, kind="walk",
            seed=self.seed,
        ).persist()
        self.df.count()
        # Warm-up: one small CTrieFull bulk load runs every stage a round
        # runs (summarize, sort+rank, write and directory, which the Tree
        # shares, plus the Trie's re-sort and label join), so the timed
        # round does not pay the JVM's and Spark's first-use costs.
        path = self.new_path("warmup")
        build_coconut_trie(
            self.spark, self.df.where(F.col("id") < 1000), path=path, w=W,
            bits=BITS, leaf_capacity=LEAF, materialized=True, disk_config=self.cfg,
        ).close()
        shutil.rmtree(path)

    def run_round(self, i: int, tracer, ops: list[Op]) -> None:
        for variant, builder, materialized in self.variants:
            self.collect_garbage()
            path = self.new_path(variant)
            idx, wall, span = self.timed(tracer, "build", variant, lambda: builder(
                self.spark, self.df, path=path, w=W, bits=BITS, leaf_capacity=LEAF,
                materialized=materialized, disk_config=self.cfg,
            ))
            nbytes, nfiles = dir_usage(path)
            self.record(ops, span, Op(
                "build", variant, wall, idx.build_disk.snapshot(),
                check_index(idx, self.n_series),
                info={
                    "variant": variant, "bytes": nbytes, "files": nfiles,
                    "user_bytes": self.n_series * SERIES_BYTES,
                    "leaves": idx.n_leaves, "fill": idx.fill_factor,
                },
            ))
            idx.close()
            shutil.rmtree(path)

    def index_bytes_ratio(self, rounds: list[Round]) -> float:
        last = rounds[-1].ops
        return sum(o.info["bytes"] for o in last) / sum(o.info["user_bytes"] for o in last)


class UpdateWorkload(Workload):
    """Merge a batch into a secondary CTree (and the ADS+ comparator), then
    answer queries on the merged index: writes beside reads."""

    name = "update"
    base_series = 2_000
    batch_series = 500
    n_batches = 2
    queries_per_batch = 2
    min_rounds = max_rounds = n_batches   # a pass always merges every batch

    def setup(self) -> None:
        final = self.base_series + self.n_batches * self.batch_series
        self.cfg = disk_config(final)
        df = series_collection(
            self.spark, n_series=final, length=LENGTH, kind="seismic", seed=self.seed,
        ).persist()
        df.count()
        # Brute-force ground truth, generated on the driver independently
        # of the Spark path the Coconut index reads.
        self.matrix = series_matrix(
            n_series=final, length=LENGTH, kind="seismic", seed=self.seed
        )
        self.base_df = df.where(F.col("id") < self.base_series)
        bounds = [self.base_series + b * self.batch_series for b in range(self.n_batches + 1)]
        self.batches = [
            (df.where((F.col("id") >= lo) & (F.col("id") < hi)), lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        self.queries = query_workload(
            n_queries=self.n_batches * self.queries_per_batch, length=LENGTH,
            kind="seismic", seed=QUERY_SEED_BASE + self.seed,
        )
        self.index = None
        self.reset()
        # Warm-up: the first round's operations on throwaway copies, with
        # a query of its own; the indexes the timed rounds start from
        # are left as they were.
        warm_df, lo, hi = self.batches[0]
        path = self.new_path("warmup")
        warm = merge_batch(self.index, warm_df, path=path)
        ads = ISaxIndex(
            np.arange(self.n), self.matrix[: self.n], w=W, bits=BITS,
            leaf_capacity=LEAF, materialized=False, disk_config=self.cfg,
        )
        ads.insert_batch(np.arange(lo, hi), self.matrix[lo:hi])
        q = query_workload(
            n_queries=1, length=LENGTH, kind="seismic", seed=WARMUP_SEED_BASE + self.seed
        )[0]
        approximate_search(warm, q, radius=1)
        exact_search(warm, q, radius=1)
        ads.exact(q)
        warm.close()
        shutil.rmtree(path)

    def reset(self) -> None:
        if self.index is not None:
            self.index.close()
            shutil.rmtree(self.index.path)
        self.index = build_coconut_tree(
            self.spark, self.base_df, path=self.new_path("base"), w=W, bits=BITS,
            leaf_capacity=LEAF, materialized=False, disk_config=self.cfg,
        )
        self.n = self.base_series
        self.ads = ISaxIndex(
            np.arange(self.n), self.matrix[: self.n], w=W, bits=BITS,
            leaf_capacity=LEAF, materialized=False, disk_config=self.cfg,
        )

    def run_round(self, b: int, tracer, ops: list[Op]) -> None:
        batch_df, lo, hi = self.batches[b]
        old, path = self.index, self.new_path(f"batch{b}")
        merged, wall, span = self.timed(
            tracer, "merge", f"b{b}", lambda: merge_batch(old, batch_df, path=path)
        )
        self.index, self.n = merged, hi
        shutil.rmtree(old.path)  # merge_batch leaves the old index on disk
        nbytes, _ = dir_usage(path)
        self.record(ops, span, Op(
            "merge", f"b{b}", wall, merged.build_disk.snapshot(),
            check_index(merged, self.n),
            info={"bytes": nbytes, "user_bytes": self.n * SERIES_BYTES},
        ))
        _, wall, span = self.timed(tracer, "ads_insert", f"b{b}", lambda: self.ads.insert_batch(
            np.arange(lo, hi), self.matrix[lo:hi]
        ))
        self.record(ops, span, Op(
            "ads_insert", f"b{b}", wall, self.ads.build_disk.snapshot(),
            [] if self.ads.n == self.n else [f"ADS+ holds {self.ads.n} series, want {self.n}"],
        ))
        series = self.matrix[: self.n]
        for k in range(self.queries_per_batch):
            q = self.queries[b * self.queries_per_batch + k]
            label = f"b{b}q{k}"
            a, wall, span = self.timed(
                tracer, "approx", label, lambda: approximate_search(merged, q, radius=1)
            )
            self.record(ops, span, Op(
                "approx", label, wall, a.disk.snapshot(), check_approx(a, series, q),
            ))
            e, wall, span = self.timed(
                tracer, "exact", label, lambda: exact_search(merged, q, radius=1)
            )
            self.record(ops, span, Op(
                "exact", label, wall, e.disk.snapshot(), check_exact(e, series, q),
                info={
                    "candidates": e.extra["candidates"], "visited": e.visited_records,
                    "n_series": self.n, "approx_ratio": e.approx_distance / e.distance,
                },
            ))
            d, wall, span = self.timed(tracer, "ads_exact", label, lambda: self.ads.exact(q))
            self.record(ops, span, Op(
                "ads_exact", label, wall, d.disk.snapshot(), check_exact(d, series, q),
                info={"visited": d.visited_records},
            ))

    def index_bytes_ratio(self, rounds: list[Round]) -> float:
        last = [o for o in rounds[-1].ops if o.kind == "merge"][-1]
        return last.info["bytes"] / last.info["user_bytes"]


WORKLOADS = {w.name: w for w in (BuildWorkload, UpdateWorkload)}
