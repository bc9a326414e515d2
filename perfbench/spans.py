"""Spans around the calls into each layer, recorded from outside the library.

:class:`Tracer` patches the public entry points of the ``repro.core``
modules and the pyspark calls that cross into the JVM, records one span
per call, and restores the originals when the ``with`` block ends. Fits
outside the block run the library untouched, so untraced timings carry
no tracing cost.

Spans sit on a per-thread stack, so calls the library makes from worker
threads (the random forest's trees) get spans without a parent on the
fit's thread. Spans are
kept in memory; :meth:`Tracer.dump` writes them out once the run is over.

A layer's time is the summed duration of its outermost spans (a
recursive ``message`` call is not counted twice); its self time is that
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: (module, attribute path, span name) — the layer map. Functions that a
#: module imported by name are patched in the importing module.
LAYERS = [
    ("repro.core.gbm", "GradientBoosting.fit", "gbm.fit"),
    ("repro.core.star_trainer", "StarTreeTrainer.__init__", "star_trainer.init"),
    ("repro.core.star_trainer", "StarTreeTrainer.train", "star_trainer.train"),
    ("repro.core.residual", "SnowflakeResidualUpdater.update", "residual.update"),
    ("repro.core.residual", "GalaxyAnnotationUpdater.update", "residual.update"),
    ("repro.core.residual", "leaf_condition", "residual.leaf_condition"),
    ("repro.core.trainer", "FactorizedTreeTrainer.train", "trainer.train"),
    ("repro.core.messages", "MessageEngine.message", "messages.message"),
    ("repro.core.messages", "MessageEngine.absorb", "messages.absorb"),
    ("repro.core.messages", "MessageEngine.total", "messages.total"),
    ("repro.core.star_trainer", "best_split_np", "split.best_split"),
    ("repro.core.trainer", "best_split_np", "split.best_split"),
    ("repro.core.trainer", "best_split_sql", "split.best_split"),
]

#: the pyspark boundary: (module, attribute path, span name)
SPARK_CALLS = [
    ("pyspark.sql.classic.column", "Column.isin", "spark.isin"),
    ("pyspark.sql.classic.dataframe", "DataFrame.toPandas", "spark.collect"),
    ("pyspark.sql.classic.dataframe", "DataFrame.collect", "spark.collect"),
    ("pyspark.sql.classic.dataframe", "DataFrame.count", "spark.count"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    parent: Optional[int] = None
    child_s: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.engines: list = []  # MessageEngine instances, for their stats
        self._local = threading.local()
        self._patches: list = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn: Callable, boundary: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a pyspark call made by another pyspark call (toPandas →
            # collect) is part of the outer one
            if boundary and stack and tracer.spans[stack[-1]].name.startswith("spark."):
                return fn(*args, **kwargs)
            span = Span(name, 0.0, thread=threading.get_ident(),
                        parent=stack[-1] if stack else None)
            if name == "spark.isin":
                vals = args[1:]
                if len(vals) == 1 and isinstance(vals[0], (list, tuple, set)):
                    vals = vals[0]
                span.attrs["literals"] = len(vals)
            with tracer._lock:
                tracer.spans.append(span)
                idx = len(tracer.spans) - 1
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.duration

        return traced

    def _patch(self, module: str, path: str, name: str, boundary: bool) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, boundary))

    def __enter__(self) -> "Tracer":
        for module, path, name in LAYERS:
            self._patch(module, path, name, boundary=False)
        for module, path, name in SPARK_CALLS:
            self._patch(module, path, name, boundary=True)
        from repro.core import messages

        engine_init = messages.MessageEngine.__init__
        engines = self.engines

        def init(obj, *args, **kwargs):
            engine_init(obj, *args, **kwargs)
            engines.append(obj)

        self._patches.append((messages.MessageEngine, "__init__", engine_init))
        messages.MessageEngine.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------
    def mark(self) -> tuple:
        """Position to pass to :meth:`layers` for what is recorded after now."""
        return len(self.spans), len(self.engines)

    def layers(self, mark: tuple) -> Dict[str, float]:
        """Per-layer totals over the spans recorded since ``mark``, plus
        the message engines' query and cache-hit counts."""
        since, first_engine = mark
        spans = self.spans[since:]
        out: Dict[str, float] = {}

        def nested_in_same(i: int) -> bool:
            p = spans[i].parent
            while p is not None and p >= since:
                if self.spans[p].name == spans[i].name:
                    return True
                p = self.spans[p].parent
            return False

        for i, s in enumerate(spans):
            out[s.name + ".calls"] = out.get(s.name + ".calls", 0) + 1
            out[s.name + ".self_s"] = out.get(s.name + ".self_s", 0.0) + s.self_s
            if not nested_in_same(i):
                out[s.name + ".s"] = out.get(s.name + ".s", 0.0) + s.duration
            for k, v in s.attrs.items():
                out[s.name + "." + k] = out.get(s.name + "." + k, 0) + v
        for engine in self.engines[first_engine:]:
            st = engine.stats
            out["engine.message_queries"] = out.get("engine.message_queries", 0) + st.message_queries
            out["engine.message_cache_hits"] = out.get("engine.message_cache_hits", 0) + st.message_cache_hits
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end,
                     "thread": s.thread, "parent": s.parent, **s.attrs}
                    for s in self.spans
                ],
                f,
            )

