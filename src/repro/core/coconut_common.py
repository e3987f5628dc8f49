"""Shared layout for Coconut indexes (Tree and Trie variants).

Both variants produce the same on-disk shape, which is what makes their
comparison (paper §4.2 vs §4.3) clean:

- ``<path>/leaves``  — Parquet, partitioned by ``leaf_id``, rows sorted
  by z-key: the contiguous leaf level ("columnar index structure").
- ``<path>/raw``     — Parquet (id, series): stands in for the paper's
  raw series file; only written for non-materialized (secondary)
  indexes, whose leaves hold ids ("offsets") instead of series.
- a driver-side *leaf directory* (min/max z-key, count, first rank):
  the in-memory internal levels of the tree/trie.
- a persisted Spark DataFrame of summaries in file order, written by
  the bulk load.

Queries run on the driver only.  On first use an index copies its
query-side data into :class:`ResidentData` — contiguous numpy arrays
in rank (file) order: the paper's "in-memory summarizations" plus the
series the queries refine with (leaf series for Full indexes, the raw
file for secondary ones).  ``read_leaves`` and ``fetch_raw`` are slices
of those arrays; no query runs a Spark job.

Both builds are one pass over the rank-ordered z-keys: they collect the
keys to the driver once (:func:`ranked_zkeys`), choose the rank at which
each leaf starts, tag every row with its leaf through one bucketize over
``rank`` (:func:`with_leaf_ids`) and build the directory on the driver
from the same keys and starts (:func:`directory_from_summaries`).  The
variants differ only in the start ranks (every ``capacity`` rows vs the
minimal prefix partition) and in construction cost accounting.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.functions import pandas_udf

from repro.storage.disk_model import DiskConfig, DiskModel

SUMMARY_COLS = ["id", "zkey", "sax", "paa", "rank", "leaf_id"]
#: Summary columns a query needs (plus ``series`` for Full indexes).
RESIDENT_COLS = ["rank", "id", "zkey", "sax", "leaf_id"]


@dataclass
class ResidentData:
    """An index's query-side data in driver memory; row ``r`` is rank ``r``.

    Ranks are dense 0..N-1, so a rank is a row number: a leaf is a
    contiguous run of rows and a skip-sequential scan visits rows in file
    order.
    """

    ids: np.ndarray          # (N,) int64
    zkeys: np.ndarray        # (N,) fixed-width str
    sax: np.ndarray          # (N, w) uint8 (uint16 above 8 bits)
    leaf_ids: np.ndarray     # (N,) int64, non-decreasing
    series: np.ndarray       # (N, n) float64: leaf series, or the raw file's
    sorted_ids: np.ndarray   # ids ascending ...
    id_ranks: np.ndarray     # ... and the rank of each

    def ranks_of(self, ids) -> np.ndarray:
        """Ranks of ``ids``, in the given order; ids not indexed are dropped."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.sorted_ids, ids).clip(max=len(self.sorted_ids) - 1)
        return self.id_ranks[pos[self.sorted_ids[pos] == ids]]


def _scatter(column, dest: np.ndarray, width: int, dtype) -> np.ndarray:
    """A fixed-width Arrow list column as a (len(dest), width) matrix whose
    row ``dest[i]`` holds list ``i``; filled one chunk at a time, so the
    only full-size copy is the result."""
    out = np.empty((len(dest), width), dtype=dtype)
    start = 0
    for chunk in column.chunks:
        n = len(chunk)
        values = chunk.flatten().to_numpy(zero_copy_only=False)
        out[dest[start : start + n]] = values.reshape(n, width)
        start += n
    return out


def load_resident(index: "CoconutIndex") -> ResidentData:
    """Copy the persisted summaries (and, for a secondary index, the raw
    file) into driver memory through Arrow, in rank order."""
    cols = RESIDENT_COLS + (["series"] if index.materialized else [])
    t = index.summaries.select(*cols).toArrow()
    rank = t.column("rank").to_numpy()
    order = np.argsort(rank)
    ids = t.column("id").to_numpy()[order]
    id_ranks = np.argsort(ids)
    sorted_ids = ids[id_ranks]
    if index.materialized:
        series = _scatter(t.column("series"), rank, index.length, np.float64)
    else:
        raw = index.spark.read.parquet(f"{index.path}/raw").toArrow()
        raw_ranks = id_ranks[np.searchsorted(sorted_ids, raw.column("id").to_numpy())]
        series = _scatter(raw.column("series"), raw_ranks, index.length, np.float64)
    return ResidentData(
        ids=ids,
        zkeys=t.column("zkey").to_numpy()[order].astype(str),
        sax=_scatter(t.column("sax"), rank, index.w, np.uint8 if index.bits <= 8 else np.uint16),
        leaf_ids=t.column("leaf_id").to_numpy()[order],
        series=series,
        sorted_ids=sorted_ids,
        id_ranks=id_ranks,
    )


@dataclass
class CoconutIndex:
    """A built Coconut index plus everything a query needs to run."""

    spark: SparkSession
    variant: str                 # "tree" | "trie"
    path: str
    w: int
    bits: int
    length: int                  # raw series length n
    leaf_capacity: int
    materialized: bool
    n_series: int
    directory: pd.DataFrame      # leaf_id,min_zkey,max_zkey,count,min_rank
    summaries: DataFrame         # persisted, file (rank) order
    build_disk: DiskModel        # construction I/O accounting
    disk_config: DiskConfig
    summaries_loaded: bool = False  # SIMS load charged (Algorithm 5 l.3-4)
    extra: dict = field(default_factory=dict)
    _resident: ResidentData | None = field(default=None, repr=False)

    # -- derived stats (Fig 8c) -------------------------------------------
    @property
    def n_leaves(self) -> int:
        return len(self.directory)

    @property
    def fill_factor(self) -> float:
        """Mean leaf occupancy relative to capacity (paper: ~0.97 for
        median splits, ~0.10 for prefix splits)."""
        return self.n_series / (self.n_leaves * self.leaf_capacity)

    @property
    def record_bytes(self) -> int:
        c = self.disk_config
        return c.series_bytes if self.materialized else c.summary_bytes

    @property
    def index_bytes(self) -> int:
        """Modeled on-disk footprint: leaves are allocated at full
        capacity (free space in sparse leaves is the paper's space
        amplification)."""
        return self.n_leaves * self.leaf_capacity * self.record_bytes

    def leaf_blocks(self, count: int) -> int:
        """Disk blocks occupied by ``count`` leaf records."""
        c = self.disk_config
        per_block = c.block_series if self.materialized else c.summaries_per_block
        return max(1, -(-count // per_block))

    # -- leaf access -------------------------------------------------------
    @property
    def resident(self) -> ResidentData:
        """The query-side arrays, loaded on first use (one Spark read)."""
        if self._resident is None:
            self._resident = load_resident(self)
        return self._resident

    def read_leaves(self, leaf_ids: list[int]) -> pd.DataFrame:
        """Records of the given leaves, in file (rank) order."""
        r = self.resident
        rows = np.flatnonzero(np.isin(r.leaf_ids, np.asarray(leaf_ids, dtype=np.int64)))
        out = {
            "rank": rows,
            "id": r.ids[rows],
            "zkey": r.zkeys[rows],
            "sax": list(r.sax[rows]),
            "leaf_id": r.leaf_ids[rows],
        }
        if self.materialized:
            out["series"] = list(r.series[rows])
        return pd.DataFrame(out)

    def fetch_raw(self, ids: list[int]) -> pd.DataFrame:
        """(id, series) of the given ids, in the given order (secondary
        indexes only): the paper's 'go to the raw data file' step."""
        r = self.resident
        rows = r.ranks_of(ids)
        return pd.DataFrame({"id": r.ids[rows], "series": list(r.series[rows])})

    def close(self) -> None:
        """Drop the resident arrays and the persisted summaries; idempotent."""
        self._resident = None
        self.summaries.unpersist()


def ranked_zkeys(ranked: DataFrame) -> np.ndarray:
    """The z-keys of a ranked DataFrame on the driver, in rank order."""
    t = ranked.select("rank", "zkey").toArrow()
    order = np.argsort(t.column("rank").to_numpy())
    return t.column("zkey").to_numpy(zero_copy_only=False)[order]


def with_leaf_ids(ranked: DataFrame, starts) -> DataFrame:
    """``ranked`` plus ``leaf_id``: leaf ``i`` holds ranks
    ``starts[i] .. starts[i+1]-1`` (``starts`` ascending, from 0)."""
    starts = np.asarray(starts, dtype=np.int64)

    @pandas_udf("long")
    def leaf_of(rank: pd.Series) -> pd.Series:
        return pd.Series(np.searchsorted(starts, rank.to_numpy(), side="right") - 1)

    return ranked.withColumn("leaf_id", leaf_of("rank"))


def directory_from_summaries(zkeys: np.ndarray, starts) -> pd.DataFrame:
    """The leaf directory, in ``leaf_id`` (= file) order: per-leaf z-key
    range, count and first rank, from the rank-ordered z-keys and the
    leaf start ranks."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.append(starts[1:], len(zkeys))
    return pd.DataFrame({
        "leaf_id": np.arange(len(starts), dtype=np.int64),
        "min_zkey": zkeys[starts],
        "max_zkey": zkeys[ends - 1],
        "count": ends - starts,
        "min_rank": starts,
    })


def write_index_files(
    summaries: DataFrame,
    raw_df: DataFrame | None,
    path: str,
    *,
    materialized: bool,
) -> None:
    """Write the leaf level (and the stand-in raw file for secondary
    indexes) to the local filesystem."""
    cols = list(SUMMARY_COLS)
    if materialized:
        cols.append("series")
    summaries.select(*cols).write.mode("overwrite").partitionBy("leaf_id").parquet(
        f"{path}/leaves"
    )
    if not materialized:
        if raw_df is None:
            raise ValueError("secondary index requires the raw series DataFrame")
        raw_df.select("id", "series").write.mode("overwrite").parquet(f"{path}/raw")
