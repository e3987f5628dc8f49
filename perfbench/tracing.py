"""Spans around the layer entry points of ``repro``, with Spark stage counters.

The traced run wraps the names each layer calls through (the *import
sites*, e.g. ``repro.core.coconut_tree.global_sort_with_rank``), so the
program itself is unchanged.  Every span records its wall interval, its
parent, the operation it belongs to, and a Spark stage/job id watermark
taken at entry and exit.  Stage counters are not read per span: the
listener that fills the status store runs asynchronously, so the spans
keep only the id ranges and :meth:`Tracer.finish` reads the store once,
after the listener bus has drained.  With the UI disabled the status
store still holds the stages (``AppStatusStore.stageList``).
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

#: (module, attribute, span name). ``approximate_search`` is wrapped so
#: the call nested in ``exact_search`` shows; ``build_coconut_tree`` so
#: the rebuild nested in ``merge_batch`` shows.  ``summarize_series`` is
#: lazy (a ``mapInPandas`` plan), so its cost lands in ``sort_rank``.
PATCH_POINTS = [
    ("repro.core.coconut_tree", "global_sort_with_rank", "sort_rank"),
    ("repro.core.coconut_trie", "global_sort_with_rank", "sort_rank"),
    ("repro.core.coconut_tree", "write_index_files", "write"),
    ("repro.core.coconut_trie", "write_index_files", "write"),
    ("repro.core.coconut_tree", "directory_from_summaries", "directory"),
    ("repro.core.coconut_trie", "directory_from_summaries", "directory"),
    ("repro.core.coconut_common:CoconutIndex", "read_leaves", "read_leaves"),
    ("repro.core.coconut_common:CoconutIndex", "fetch_raw", "fetch_raw"),
    ("repro.core.query", "approximate_search", "approximate_search"),
    ("repro.core.coconut_tree", "build_coconut_tree", "build_coconut_tree"),
    ("repro.baselines.isax_index", "sims_scan", "sims_scan"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int                       # id of the top-level span (one operation)
    start: float = 0.0
    end: float = 0.0
    stage_lo: int = 0             # [stage_lo, stage_hi): stage ids allocated inside
    stage_hi: int = 0
    job_lo: int = 0
    job_hi: int = 0
    attrs: dict = field(default_factory=dict)
    # Filled by Tracer.finish from the status store (stages that ran).
    stages: int = 0
    shuffle_write_bytes: int = 0
    spill_bytes: int = 0
    executor_run_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def jobs(self) -> int:
        return self.job_hi - self.job_lo


class NullTracer:
    """Untraced runs: operation spans cost one generator frame."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        yield None


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self, spark):
        self._jvm_sc = spark.sparkContext._jsc.sc()
        self._sc = spark.sparkContext
        self._dag = self._jvm_sc.dagScheduler()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.bookkeeping_s = 0.0      # time spent inside the tracer itself

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        t = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        s = Span(
            id=sid, name=name, parent=parent.id if parent else None,
            op=parent.op if parent else sid, attrs=dict(attrs),
            stage_lo=self._dag.nextStageId(), job_lo=self._dag.nextJobId(),
        )
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        self.bookkeeping_s += s.start - t
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.stage_hi = self._dag.nextStageId()
            s.job_hi = self._dag.nextJobId()
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - s.end

    def _wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for target, attr, name in PATCH_POINTS:
                mod_name, _, cls_name = target.partition(":")
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def finish(self) -> None:
        """Attach stage counters to every span (one status-store read)."""
        if not self.spans:
            return
        self._jvm_sc.listenerBus().waitUntilEmpty()
        jvm = self._sc._jvm
        stages = self._jvm_sc.statusStore().stageList(
            jvm.java.util.ArrayList(), False, False,
            self._sc._gateway.new_array(jvm.double, 0), jvm.java.util.ArrayList(),
        )
        lo = min(s.stage_lo for s in self.spans)
        ran = []
        for i in range(stages.length()):  # newest first
            st = stages.apply(i)
            if st.stageId() < lo:
                break
            if st.status().toString() in ("COMPLETE", "FAILED"):
                ran.append((
                    st.stageId(), st.shuffleWriteBytes(), st.diskBytesSpilled(),
                    st.executorRunTime() / 1000.0,
                ))
        for s in self.spans:
            for sid, shuffle, spill, run_s in ran:
                if s.stage_lo <= sid < s.stage_hi:
                    s.stages += 1
                    s.shuffle_write_bytes += shuffle
                    s.spill_bytes += spill
                    s.executor_run_s += run_s

    def children(self, span: Span, name: str | None = None) -> list[Span]:
        return [
            c for c in self.spans
            if c.parent == span.id and (name is None or c.name == name)
        ]

    def self_s(self, span: Span) -> float:
        """Span duration minus the part its direct children cover."""
        return span.wall_s - sum(c.wall_s for c in self.children(span))

    def dump(self, path) -> None:
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["wall_s"] = s.wall_s
            row["self_s"] = self.self_s(s)
            rows.append(row)
        with open(path, "w") as f:
            json.dump({"bookkeeping_s": self.bookkeeping_s, "spans": rows}, f, indent=1)
