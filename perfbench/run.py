"""One-command Coconut benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {build,update} --seed N \
        --seconds S --trace {0,1}

It starts a local Spark session (``local[k]``, k = min(4, cores)) with
the test suite's session settings, prepares the workload from the seed,
then runs rounds back to back until ``--seconds`` have passed (always at
least the workload's ``min_rounds``).  Every answer is checked against
brute force; the exit code is non-zero if any check fails.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs the same rounds a second time with spans around each
layer's entry points, prints the per-layer metrics, and writes the spans
to ``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of
standard output is always the JSON result; the lines before it are a
readable summary, including the per-operation timings.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["build", "update"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def start_spark(workdir: Path):
    """Local Spark session; must run before anything imports pyspark."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(workdir / "spark")
    os.environ["TMPDIR"] = str(workdir)
    # No JVM perf-data file in the system temp dir, for the launcher JVM
    # either: a run writes only inside its checkout.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    # The driver heap is fixed at its maximum from the start (-Xms = the
    # driver memory), so the heap does not grow through the timed rounds,
    # nor shrink again after the full GC that starts each round.
    cores = min(4, os.cpu_count() or 1)
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.log.level": "ERROR",
        "spark.local.dir": str(workdir / "spark"),
        "spark.driver.extraJavaOptions": f"-Xms2g -XX:-UsePerfData -Djava.io.tmpdir={workdir}",
    }
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        ["--master", f"local[{cores}]", "--driver-memory", "2g"]
        + [a for k, v in conf.items() for a in ("--conf", f"{k}={v}")]
        + ["pyspark-shell"]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on end of its stdin
        proc.wait(timeout=60)


def ops_of(rounds):
    return [o for r in rounds for o in r.ops]


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


#: Summary-line name of each operation kind's median wall time.
SUMMARY_NAMES = {
    "merge": "merge_s_p50", "ads_insert": "ads_insert_s_p50",
    "approx": "approx_query_s_p50", "exact": "exact_query_s_p50",
    "ads_exact": "ads_exact_query_s_p50",
}


def op_summary(rounds) -> list[tuple[str, float, str, int]]:
    """Per-operation timings and answer quality, for the readable summary."""
    by = {}
    for o in ops_of(rounds):
        key = f"build_{o.label}_s" if o.kind == "build" else SUMMARY_NAMES.get(o.kind)
        if key:
            by.setdefault(key, []).append(o.wall_s)
    rows = [(k, statistics.median(v), "s", len(v)) for k, v in by.items()]
    ratios = [o.info["approx_ratio"] for o in ops_of(rounds) if "approx_ratio" in o.info]
    if ratios:
        rows.append(("approx_ratio_mean", mean(ratios), "ratio", len(ratios)))
    return rows


def end_to_end(wl, rounds, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "round_s_p50": statistics.median(r.wall_s for r in rounds),
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "index_bytes_ratio": wl.index_bytes_ratio(rounds),
    }


def per_layer(tracer, traced, untraced: list, variants: list[str]) -> dict:
    """Per-layer metrics from the traced pass; seconds are means per
    operation, so a layer's parts add up to its parent."""
    traced_s = sum(r.wall_s for r in traced)
    untraced_s = mean(sum(r.wall_s for r in rs) for rs in untraced)
    m = {
        "trace.overhead_frac": traced_s / untraced_s - 1,
        "trace.bookkeeping_frac": tracer.bookkeeping_s / traced_s,
    }
    ops = [s for s in tracer.spans if s.parent is None]

    def kids(s, name):
        return sum(c.wall_s for c in tracer.children(s, name))

    for variant in variants:
        b = [s for s in ops if s.name == "build" and s.attrs["variant"] == variant]
        m.update({
            f"sort_rank.s.{variant}": mean(kids(s, "sort_rank") for s in b),
            f"build_self.s.{variant}": mean(tracer.self_s(s) for s in b),
            f"write.s.{variant}": mean(kids(s, "write") for s in b),
            f"write.bytes.{variant}": mean(s.attrs["bytes"] for s in b),
            f"write.files.{variant}": mean(s.attrs["files"] for s in b),
            f"directory.s.{variant}": mean(kids(s, "directory") for s in b),
            f"spark.stages.{variant}": mean(s.stages for s in b),
            f"spark.shuffle_write_bytes.{variant}": mean(s.shuffle_write_bytes for s in b),
            f"spark.spill_bytes.{variant}": mean(s.spill_bytes for s in b),
            f"spark.executor_run_s.{variant}": mean(s.executor_run_s for s in b),
            f"leaves.{variant}": mean(s.attrs["leaves"] for s in b),
            f"fill.{variant}": mean(s.attrs["fill"] for s in b),
            f"disk.sim_s.{variant}": mean(s.attrs["disk"]["seconds"] for s in b),
            f"disk.rand_ios.{variant}": mean(
                s.attrs["disk"]["random_reads"] + s.attrs["disk"]["random_writes"] for s in b
            ),
            f"disk.seq_blocks.{variant}": mean(
                s.attrs["disk"]["seq_read_blocks"] + s.attrs["disk"]["seq_write_blocks"]
                for s in b
            ),
        })

    # Operations a workload never runs leave these at 0 (mean of nothing).
    approx = [s for s in ops if s.name == "approx"]
    exact = [s for s in ops if s.name == "exact"]
    merges = [s for s in ops if s.name == "merge"]
    ads = [s for s in ops if s.name == "ads_exact"]

    def in_build(s, name):  # spans under the rebuild nested in a merge
        return sum(kids(b, name) for b in tracer.children(s, "build_coconut_tree"))

    m.update({
        "approx.read_leaves.s": mean(kids(s, "read_leaves") for s in approx),
        "approx.fetch_raw.s": mean(kids(s, "fetch_raw") for s in approx),
        "approx.self.s": mean(tracer.self_s(s) for s in approx),
        "exact.approx.s": mean(kids(s, "approximate_search") for s in exact),
        "exact.fetch_raw.s": mean(kids(s, "fetch_raw") for s in exact),
        "exact.self.s": mean(tracer.self_s(s) for s in exact),
        "query.spark_jobs": mean(s.jobs for s in exact),
        "query.spark_stages": mean(s.stages for s in exact),
        "query.candidates_mean": mean(s.attrs["candidates"] for s in exact),
        "query.visited_mean": mean(s.attrs["visited"] for s in exact),
        "query.visited_frac": mean(s.attrs["visited"] / s.attrs["n_series"] for s in exact),
        "query.approx_ratio_mean": mean(s.attrs["approx_ratio"] for s in exact),
        "disk.query_sim_s_mean": mean(s.attrs["disk"]["seconds"] for s in exact),
        "merge.build.s": mean(kids(s, "build_coconut_tree") for s in merges),
        "merge.self.s": mean(tracer.self_s(s) for s in merges),
        "merge.sort_rank.s": mean(in_build(s, "sort_rank") for s in merges),
        "merge.write.s": mean(in_build(s, "write") for s in merges),
        "merge.directory.s": mean(in_build(s, "directory") for s in merges),
        "spark.stages.merge": mean(s.stages for s in merges),
        "disk.merge_sim_s_mean": mean(s.attrs["disk"]["seconds"] for s in merges),
        "ads.sims_scan.s": mean(kids(s, "sims_scan") for s in ads),
        "ads.visited_mean": mean(s.attrs["visited"] for s in ads),
        "disk.ads_query_sim_s_mean": mean(s.attrs["disk"]["seconds"] for s in ads),
    })
    return m


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """Attach units from BENCHMARK.json; the names must match it exactly."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def disk_mismatches(untraced, traced) -> list[str]:
    """The traced replay must charge the DiskModel exactly as the
    untraced pass did (tracing may not change what the system does)."""
    a = [(o.kind, o.label, o.disk) for o in ops_of(untraced)]
    b = [(o.kind, o.label, o.disk) for o in ops_of(traced)]
    return [] if a == b else [f"traced DiskModel counts differ: {a} vs {b}"]


def run(args) -> tuple[dict, list, int, int]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / ".tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".tmp"))
    try:
        spark = start_spark(workdir)
        try:
            sys.path.insert(0, str(SRC))
            from tracing import NullTracer, Tracer
            from workloads import WORKLOADS, BuildWorkload

            wl = WORKLOADS[args.workload](spark, args.seed, workdir)
            wl.setup()
            setup_s = time.perf_counter() - T_START
            rounds = wl.measure(NullTracer(), args.seconds)
            passes = [rounds]
            summary = op_summary(rounds)
            failed = sum(not o.ok for o in ops_of(rounds))
            if args.trace and not failed:
                # Traced replay of the same rounds, bracketed by the
                # untraced pass before it and another one after it.
                tracer = Tracer(spark)
                wl.reset()
                with tracer.installed():
                    traced = wl.measure(tracer, args.seconds, n_rounds=len(rounds))
                wl.reset()
                after = wl.measure(NullTracer(), args.seconds, n_rounds=len(rounds))
                passes += [traced, after]
                tracer.finish()
                (HERE / "out").mkdir(exist_ok=True)
                tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")
            ops = [o for rs in passes for o in ops_of(rs)]
            mismatches = [p for rs in passes[1:] for p in disk_mismatches(rounds, rs)]
            problems = [p for o in ops for p in o.problems] + mismatches
            attempted = len(ops)
            failed = sum(not o.ok for o in ops) + len(mismatches)
            if failed:
                out = {}
            elif args.trace:
                variants = [v for v, *_ in BuildWorkload.variants]
                out = with_units(
                    per_layer(tracer, traced, [rounds, after], variants), spec["per_layer"]
                )
            else:
                out = with_units(end_to_end(wl, rounds, setup_s), spec["end_to_end"])
            for p in problems:
                print(f"WRONG: {p}", file=sys.stderr)
            summary.append(("failed_ratio", failed / max(1, attempted), "ratio", attempted))
            return out, summary, attempted, failed
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind normally: stop the JVM and remove the work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "core" / "coconut_tree.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    metrics, summary, attempted, failed = run(args)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value, unit, n in summary:
        print(f"# {name:28s} {value:12.6g} {unit:6s} n={n}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
