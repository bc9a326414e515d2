"""Factorized decision-tree training — paper Algorithm 1 + Sections 3.3, 5.5.

:class:`FactorizedTreeTrainer` grows one tree with best-first growth
(priority queue on criteria reduction) over a :class:`JoinGraph`,
evaluating every candidate split from semi-ring aggregates produced by
the :class:`MessageEngine` — ``R⋈`` is never materialized.

Three modes reproduce the paper's Fig 16a ablation:

* ``joinboost`` — message passing with the cross-node message cache
  (Section 5.5.1): after a split on relation ``R``, every message whose
  subtree excludes ``R`` is reused by both children.
* ``batch``     — LMFAO-equivalent: messages shared between the
  group-by queries *within* one node, but the cache is dropped between
  nodes (no parent→child sharing).
* ``naive``     — no factorization: the join is materialized once and
  every node/feature query is a filter + group-by over the wide table
  (:class:`NaiveTreeTrainer`).

Split finding per feature uses the collected ``(value, c, s)`` stats
with the NumPy scorer by default (the "dataframe backend"), or the
pure-Spark-SQL window-function scorer when ``sql_splits=True``
(fidelity mode; both are tested to agree).

Inter-query parallelism (Section 5.5.3): with ``n_jobs > 1`` the
per-feature absorption queries of a node run on a thread pool —
Spark schedules concurrent jobs from threads — while message creation
is serialized under a lock (messages are the shared upstream
dependency, mirroring the paper's dependency-aware FIFO scheduler).
"""
from __future__ import annotations

import heapq
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from .join_graph import JoinGraph
from .messages import Context, MessageEngine, ctx_with
from .semiring import PREFIX, VarianceSemiring
from .split import Split, best_split_np, best_split_sql, pick
from .tree import DecisionTree, Node, Pred


@dataclass
class TrainParams:
    """LightGBM-style training parameters (paper §5.1 API compatibility)."""

    max_leaves: int = 8
    max_depth: int = 32
    min_gain: float = 1e-12  # α: minimum criteria reduction to split
    min_child: float = 1.0  # minimum c (count / hessian) per leaf
    reg_lambda: float = 0.0  # β in Appendix B
    n_jobs: int = 1
    sql_splits: bool = False


@dataclass
class _LeafTask:
    """Priority-queue entry: a grown leaf and its best candidate split."""

    node: Node
    context: Context
    c_total: float
    s_total: float
    split: Optional[Split]
    allowed: Tuple[Tuple[str, str, bool], ...]  # (feature, relation, numeric)


class FactorizedTreeTrainer:
    """Grow decision trees over normalized data via message passing."""

    def __init__(
        self,
        graph: JoinGraph,
        semiring: Optional[VarianceSemiring] = None,
        params: Optional[TrainParams] = None,
        mode: str = "joinboost",
    ) -> None:
        if mode not in ("joinboost", "batch"):
            raise ValueError(f"unknown mode {mode!r} (naive uses NaiveTreeTrainer)")
        self.graph = graph
        self.semiring = semiring or VarianceSemiring(track_q=False)
        self.params = params or TrainParams()
        self.mode = mode
        self.engine = MessageEngine(graph, self.semiring)
        self._msg_lock = threading.Lock()
        self._ids = itertools.count()

    # -- split evaluation ----------------------------------------------
    def _eval_feature(
        self,
        feature: str,
        numeric: bool,
        context: Context,
        c_total: float,
        s_total: float,
    ) -> Optional[Split]:
        stats_df = self.engine.aggregate_feature(feature, context)
        kw = dict(
            c_total=c_total,
            s_total=s_total,
            reg_lambda=self.params.reg_lambda,
            min_child=self.params.min_child,
        )
        if self.params.sql_splits:
            return best_split_sql(stats_df, feature, numeric, **kw)
        return best_split_np(stats_df.toPandas(), feature, numeric, **kw)

    def _warm_messages(
        self, context: Context, allowed: Sequence[Tuple[str, str, bool]]
    ) -> None:
        """Serially materialize every message a node's batch will need.

        This is the single-writer side of the scheduler: messages are
        the shared dependencies, so they are created under the lock and
        the per-feature absorptions can then fan out on threads.
        """
        roots = {rel for _, rel, _ in allowed}
        with self._msg_lock:
            for root in roots:
                for src, dst, _ in self.graph.message_schedule(root):
                    self.engine.message(src, dst, context)

    def _best_split(
        self,
        context: Context,
        c_total: float,
        s_total: float,
        allowed: Sequence[Tuple[str, str, bool]],
    ) -> Optional[Split]:
        """GetBestSplit (Algorithm 1, L11-16) across all allowed features."""
        self._warm_messages(context, allowed)
        if self.params.n_jobs > 1:
            with ThreadPoolExecutor(self.params.n_jobs) as ex:
                results = list(
                    ex.map(
                        lambda fr: self._eval_feature(
                            fr[0], fr[2], context, c_total, s_total
                        ),
                        allowed,
                    )
                )
        else:
            results = [
                self._eval_feature(f, num, context, c_total, s_total)
                for f, _, num in allowed
            ]
        best: Optional[Split] = None
        for s in results:
            if s is None or s.gain < self.params.min_gain:
                continue
            best = pick(best, s)
        return best

    # -- growth ---------------------------------------------------------
    def train(
        self,
        features: Optional[Sequence[str]] = None,
        context: Optional[Context] = None,
        cpt: bool = False,
    ) -> DecisionTree:
        """Train one tree (Algorithm 1). ``context`` pre-filters ``R⋈``.

        ``cpt=True`` applies Clustered Predicate Trees (Section 4.2.2):
        after the root split, candidate features are restricted to the
        cluster containing the root split's relation, and the chosen
        cluster fact is recorded on the tree for residual updates.
        """
        p = self.params
        if self.mode == "batch":
            self.engine.clear_cache()
        all_feats = [
            (f, r, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        ]
        ctx: Context = dict(context or {})
        c0, s0, *_ = self.engine.total(ctx)
        root = Node(next(self._ids), 0)
        tree = DecisionTree(root)
        split0 = self._best_split(ctx, c0, s0, all_feats)
        pq: List[Tuple[float, int, _LeafTask]] = []
        counter = itertools.count()
        task = _LeafTask(root, ctx, c0, s0, split0, tuple(all_feats))
        root.prediction = self._leaf_pred(c0, s0)
        if split0 is not None:
            heapq.heappush(pq, (-split0.gain, next(counter), task))
        n_leaves = 1
        cluster_fact: Optional[str] = None
        while pq and n_leaves < p.max_leaves:
            _, _, task = heapq.heappop(pq)
            node, split = task.node, task.split
            assert split is not None
            if node.depth + 1 > p.max_depth:
                continue
            if self.mode == "batch":
                self.engine.clear_cache()
            # CPT: lock the cluster on the first (root) split
            allowed = task.allowed
            if cpt and cluster_fact is None:
                rel = self.graph.feature_relation(split.feature)
                clusters = self.graph.clusters()
                candidates = sorted(f for f, m in clusters.items() if rel in m)
                cluster_fact = candidates[0]
                members = clusters[cluster_fact]
                allowed = tuple(
                    (f, r, num) for f, r, num in allowed if r in members
                )
                tree.cluster = cluster_fact
            node.split_feature = split.feature
            node.split_value = split.value
            node.split_numeric = split.numeric
            rel = self.graph.feature_relation(split.feature)
            for left in (True, False):
                pred = Pred(split.feature, split.value, split.numeric, left)
                child_ctx = ctx_with(task.context, rel, pred.sql())
                c = split.c_left if left else task.c_total - split.c_left
                s = split.s_left if left else task.s_total - split.s_left
                child = Node(
                    next(self._ids),
                    node.depth + 1,
                    preds=node.preds + [pred],
                    prediction=self._leaf_pred(c, s),
                )
                if left:
                    node.left = child
                else:
                    node.right = child
                if child.depth < p.max_depth and c > 2 * p.min_child:
                    csplit = self._best_split(child_ctx, c, s, allowed)
                else:
                    csplit = None
                if csplit is not None:
                    heapq.heappush(
                        pq,
                        (
                            -csplit.gain,
                            next(counter),
                            _LeafTask(child, child_ctx, c, s, csplit, allowed),
                        ),
                    )
            node.prediction = None
            n_leaves += 1
        if cpt and cluster_fact is None:
            # no root split: the constant shift goes through the first
            # cluster fact, which holds one row of every R⋈ row
            tree.cluster = min(self.graph.clusters())
        return tree

    def _leaf_pred(self, c: float, s: float) -> float:
        """Optimal leaf value ``Σs / (Σc + β)`` (Appendix B)."""
        denom = c + self.params.reg_lambda
        return 0.0 if denom == 0 else s / denom


class NaiveTreeTrainer:
    """Non-factorized comparator: materialize ``R⋈`` and query it.

    Used for the paper's Fig 16a "Naive" variant: the join result is
    computed (and cached) once, then every tree-node/feature candidate
    is a plain filter + group-by aggregation over the wide table — no
    message passing, no sharing.
    """

    def __init__(
        self,
        graph: JoinGraph,
        params: Optional[TrainParams] = None,
    ) -> None:
        self.graph = graph
        self.params = params or TrainParams()
        self._ids = itertools.count()
        self.wide = graph.materialize().cache()
        self.wide.count()

    def _node_stats(self, context_sql: List[str]) -> DataFrame:
        df = self.wide
        for pred in context_sql:
            df = df.filter(pred)
        return df

    def train(self, features: Optional[Sequence[str]] = None) -> DecisionTree:
        p = self.params
        y = self.graph.y_column
        feats = [
            (f, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        ]

        def totals(preds: List[str]) -> Tuple[float, float]:
            row = (
                self._node_stats(preds)
                .agg(F.count(F.lit(1)).alias("c"), F.sum(F.col(y)).alias("s"))
                .collect()[0]
            )
            return float(row["c"] or 0), float(row["s"] or 0.0)

        def best(preds: List[str], c0: float, s0: float) -> Optional[Split]:
            base = self._node_stats(preds)
            out: Optional[Split] = None
            for f, num in feats:
                stats = (
                    base.groupBy(f)
                    .agg(
                        F.count(F.lit(1)).cast("double").alias(PREFIX + "c"),
                        F.sum(F.col(y)).alias(PREFIX + "s"),
                    )
                    .toPandas()
                )
                s = best_split_np(
                    stats, f, num, c0, s0,
                    reg_lambda=p.reg_lambda, min_child=p.min_child,
                )
                if s is None or s.gain < p.min_gain:
                    continue
                out = pick(out, s)
            return out

        c0, s0 = totals([])
        root = Node(next(self._ids), 0, prediction=(s0 / c0 if c0 else 0.0))
        tree = DecisionTree(root)
        pq: List[Tuple[float, int, Node, List[str], float, float, Split]] = []
        counter = itertools.count()
        sp = best([], c0, s0)
        if sp is not None:
            heapq.heappush(pq, (-sp.gain, next(counter), root, [], c0, s0, sp))
        n_leaves = 1
        while pq and n_leaves < p.max_leaves:
            _, _, node, preds, c_t, s_t, split = heapq.heappop(pq)
            if node.depth + 1 > p.max_depth:
                continue
            node.split_feature = split.feature
            node.split_value = split.value
            node.split_numeric = split.numeric
            for left in (True, False):
                pr = Pred(split.feature, split.value, split.numeric, left)
                cpreds = preds + [pr.sql()]
                c = split.c_left if left else c_t - split.c_left
                s = split.s_left if left else s_t - split.s_left
                child = Node(
                    next(self._ids),
                    node.depth + 1,
                    preds=node.preds + [pr],
                    prediction=(s / c if c else 0.0),
                )
                if left:
                    node.left = child
                else:
                    node.right = child
                if child.depth < p.max_depth and c > 2 * p.min_child:
                    csp = best(cpreds, c, s)
                    if csp is not None:
                        heapq.heappush(
                            pq,
                            (-csp.gain, next(counter), child, cpreds, c, s, csp),
                        )
            node.prediction = None
            n_leaves += 1
        return tree

    def close(self) -> None:
        self.wide.unpersist()
