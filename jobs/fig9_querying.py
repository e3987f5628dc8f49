"""spark-submit entrypoint reproducing Figure 9 (querying).

Usage: spark-submit jobs/fig9_querying.py [n_series]
"""
import sys

sys.path.insert(0, ".")

from jobs._common import get_spark, workdir  # noqa: E402
from repro.experiments.fig9_querying import (  # noqa: E402
    quality_and_radius,
    query_vs_datasize,
)
from repro.experiments.harness import format_rows  # noqa: E402


def main(n_series: int = 4000) -> None:
    spark = get_spark("fig9")
    wd = workdir()
    rows = query_vs_datasize(
        spark,
        systems=["CTreeFull", "CTree", "ADSFull", "ADS+", "R-tree", "R-tree+"],
        sizes=(n_series // 4, n_series // 2, n_series),
        n_queries=20, length=128, w=8, bits=8, leaf_capacity=100, workdir=wd,
    )
    print(format_rows(
        rows, ["system", "n_series", "mode", "avg_sim_s", "avg_wall_s", "avg_distance", "avg_visited"],
        "\n== Fig 9a/9b: exact + approximate query time vs data size ==",
    ))
    rows = quality_and_radius(
        spark, n_series=n_series, n_queries=50, length=128, w=8, bits=8,
        leaf_capacity=100, radii=(1, 10), workdir=wd,
    )
    print(format_rows(
        rows,
        ["config", "mode", "avg_sim_s", "avg_wall_s", "avg_distance", "avg_visited",
         "beats_baseline_frac", "beats_or_ties_frac"],
        "\n== Fig 9c-9f: quality, radius, visited records (fixed size) ==",
    ))
    spark.stop()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4000)
