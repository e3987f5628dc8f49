"""Query processing over Coconut indexes, on the driver.

``approximate_search`` is Algorithm 4: locate the leaf where the
query's invSAX key would be inserted (binary search over the leaf
directory — the in-memory internal levels) and scan ``radius``
neighboring leaves, which are *contiguous on disk* because the leaf
level is a sorted file; return the best true Euclidean distance found.

``exact_search`` is Algorithm 5 (CoconutTreeSIMS): seed a best-so-far
from the approximate answer, compute the MINDIST lower bound of every
in-memory summarization in one vectorised pass over the index's
resident ``sax`` matrix, then run :func:`sims_scan`, the skip-sequential
visit shared with the ADS baselines: refine the bsf only with records
whose bound beats the *running* bsf, in file (rank) order.

Both run on the arrays an index keeps in driver memory
(:class:`repro.core.coconut_common.ResidentData`), so a query runs no
Spark job.  Disk traffic — leaf reads, raw-file fetches, the one-time
summary load and the visited blocks (Fig 9f) — is charged to the
:class:`DiskModel` exactly as if it had been read from disk.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.coconut_common import CoconutIndex
from repro.core.distance import euclidean
from repro.core.mindist import mindist_paa_sax
from repro.core.paa import paa
from repro.core.sax import symbols_from_paa
from repro.core.zorder import interleave
from repro.storage.disk_model import DiskConfig, DiskModel


@dataclass
class SearchResult:
    """Outcome of one query: answer id/distance plus cost accounting."""

    id: int
    distance: float
    leaves_visited: int = 0
    visited_records: int = 0          # raw records touched (Fig 9f)
    approx_distance: float = float("nan")
    disk: DiskModel | None = None
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)


def query_summary(index: CoconutIndex, query: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """(paa, sax, zkey) of the query under the index's parameters."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape[-1] != index.length:
        raise ValueError(f"query length {q.shape[-1]} != index length {index.length}")
    if not np.isfinite(q).all():
        raise ValueError("query contains NaN or inf values")
    qp = paa(q, index.w)
    qs = symbols_from_paa(qp, index.bits)
    return qp, qs, interleave(qs[None, :], index.bits)[0]


def _check_radius(radius: int) -> None:
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")


def _target_leaf_pos(index: CoconutIndex, zkey: str) -> int:
    """Directory position of the leaf whose key range would hold ``zkey``."""
    mins = index.directory["min_zkey"].to_numpy()
    pos = int(np.searchsorted(mins, zkey, side="right")) - 1
    return max(0, pos)


def _leaf_window(index: CoconutIndex, pos: int, radius: int) -> list[int]:
    """``radius`` directory positions centered on ``pos`` (clamped)."""
    n = index.n_leaves
    lo = max(0, pos - (radius - 1) // 2)
    hi = min(n, lo + radius)
    lo = max(0, hi - radius)
    return list(range(lo, hi))


def _true_distances(
    index: CoconutIndex, leaf_pdf: pd.DataFrame, query: np.ndarray, disk: DiskModel
) -> pd.DataFrame:
    """(id, dist) for every record in ``leaf_pdf``, fetching raw series
    from the stand-in raw file when the index is secondary."""
    if index.materialized:
        mat = np.stack(leaf_pdf["series"].to_numpy())
        ids = leaf_pdf["id"].to_numpy()
    else:
        raw = index.fetch_raw(list(leaf_pdf["id"]))
        # Secondary leaves point into the raw file at arbitrary offsets:
        # each uncached fetch is a random block read.
        disk.rand_read(len(raw))
        mat = np.stack(raw["series"].to_numpy())
        ids = raw["id"].to_numpy()
    return pd.DataFrame({"id": ids, "dist": euclidean(mat, np.asarray(query))})


def approximate_search(
    index: CoconutIndex, query: np.ndarray, *, radius: int = 1
) -> SearchResult:
    """Algorithm 4: best true distance within ``radius`` contiguous leaves."""
    t0 = time.perf_counter()
    _check_radius(radius)
    disk = DiskModel(config=index.disk_config)
    _, _, qz = query_summary(index, query)
    window = _leaf_window(index, _target_leaf_pos(index, qz), radius)
    leaves = index.directory.iloc[window]
    # Contiguous leaves: one sequential run covering the window.
    disk.seq_read(sum(index.leaf_blocks(int(c)) for c in leaves["count"]))
    leaf_pdf = index.read_leaves(leaves["leaf_id"].tolist())
    if not index.materialized:
        # Secondary index: the paper retrieves "all data series in a
        # specific radius from this point ... usually a disk page" — a
        # page of raw records around the query's sorted position per
        # radius step, not every offset in the (densely packed) leaves.
        # ``read_leaves`` returns rank order, i.e. z-key order.
        pos = int(leaf_pdf["zkey"].searchsorted(qz))
        half = max(1, index.disk_config.block_series * radius // 2)
        lo = max(0, min(pos - half, len(leaf_pdf) - 2 * half))
        leaf_pdf = leaf_pdf.iloc[lo : lo + 2 * half]
    dists = _true_distances(index, leaf_pdf, query, disk)
    best = dists.loc[dists["dist"].idxmin()]
    return SearchResult(
        id=int(best["id"]),
        distance=float(best["dist"]),
        leaves_visited=len(window),
        visited_records=len(dists),
        approx_distance=float(best["dist"]),
        disk=disk,
        wall_s=time.perf_counter() - t0,
    )


def sims_scan(
    *,
    query: np.ndarray,
    mindists: np.ndarray,
    series: np.ndarray,
    ids: np.ndarray,
    bsf: float,
    bsf_id: int,
    disk: DiskModel,
    config: DiskConfig,
) -> tuple[int, float, int]:
    """Skip-sequential scan (SIMS [62] / Algorithm 5 lines 12–22).

    Walks positions in file order; for each record whose lower bound
    beats the *running* bsf, "reads" the raw series (counted as visited)
    and refines the bsf.  The distances of every record below the
    initial bsf are computed in one vectorised pass; the visit and its
    accounting follow the running bsf.  Disk charge: visited blocks in
    file order, one sequential run per contiguous stretch.  Returns
    (answer id, answer distance, visited record count).
    """
    cand = np.flatnonzero(mindists < bsf)
    dists = euclidean(series[cand], query)
    visited_rows = []
    for i, md, d in zip(cand.tolist(), mindists[cand].tolist(), dists.tolist()):
        if md >= bsf:
            continue
        visited_rows.append(i)
        if d < bsf:
            bsf = d
            bsf_id = int(ids[i])
    blocks = np.unique(np.asarray(visited_rows, dtype=np.int64) // config.block_series)
    for run in np.split(blocks, np.flatnonzero(np.diff(blocks) != 1) + 1):
        disk.seq_read(len(run))
    return bsf_id, bsf, len(visited_rows)


def _ensure_summaries_loaded(index: CoconutIndex, disk: DiskModel) -> None:
    """Algorithm 5 lines 3–4: the first exact query pays one sequential
    load of the summarizations into memory; afterwards they are resident.

    The charge is the model's; the arrays themselves may already be in
    driver memory from an earlier approximate query.
    """
    if not index.summaries_loaded:
        c = index.disk_config
        disk.seq_read(max(1, -(-index.n_series // c.summaries_per_block)))
        index.summaries_loaded = True


def exact_search(
    index: CoconutIndex, query: np.ndarray, *, radius: int = 1
) -> SearchResult:
    """Algorithm 5 (CoconutTreeSIMS): exact nearest neighbor."""
    t0 = time.perf_counter()
    _check_radius(radius)
    qp, _, _ = query_summary(index, query)
    resident = index.resident
    disk = DiskModel(config=index.disk_config)
    _ensure_summaries_loaded(index, disk)

    approx = approximate_search(index, query, radius=radius)
    disk.merge(approx.disk)
    # In-memory lower-bound computation over all N summaries (parallel
    # threads in the paper): CPU-only, one compare-scale op per summary.
    disk.charge_cpu(index.n_series * index.disk_config.cpu_sort_item_s)
    md = mindist_paa_sax(qp, resident.sax, index.length, index.bits)
    bsf_id, bsf, visited = sims_scan(
        query=np.asarray(query, dtype=np.float64), mindists=md,
        series=resident.series, ids=resident.ids, bsf=approx.distance,
        bsf_id=approx.id, disk=disk, config=index.disk_config,
    )
    return SearchResult(
        id=bsf_id,
        distance=bsf,
        leaves_visited=approx.leaves_visited,
        visited_records=visited,
        approx_distance=approx.distance,
        disk=disk,
        wall_s=time.perf_counter() - t0,
        extra={"candidates": int(np.count_nonzero(md < approx.distance))},
    )
