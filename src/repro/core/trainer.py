"""Factorized decision-tree training — paper Algorithm 1 + Sections 3.3, 5.5.

:class:`FactorizedTreeTrainer` grows one tree over a :class:`JoinGraph`
with the shared best-first loop :func:`~repro.core.tree.grow`
(Algorithm 1), supplying only how a node's candidate splits are scored:
from semi-ring aggregates produced by the :class:`MessageEngine` —
``R⋈`` is never materialized — and how a child's context is derived.

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

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from .join_graph import JoinGraph
from .messages import Context, MessageEngine, ctx_with
from .semiring import PREFIX, VarianceSemiring
from .split import Split, best_split_np, best_split_sql
from .tree import DecisionTree, Pred, grow, top_split


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


#: a node's state: its context and its allowed (feature, relation, numeric)
_State = Tuple[Context, Tuple[Tuple[str, str, bool], ...]]


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

    def _candidates(
        self, state: _State, c_total: float, s_total: float
    ) -> List[Optional[Split]]:
        """Each allowed feature's best split at one node (GetBestSplit)."""
        context, allowed = state
        self._warm_messages(context, allowed)
        if self.params.n_jobs > 1:
            with ThreadPoolExecutor(self.params.n_jobs) as ex:
                return list(
                    ex.map(
                        lambda fr: self._eval_feature(
                            fr[0], fr[2], context, c_total, s_total
                        ),
                        allowed,
                    )
                )
        return [
            self._eval_feature(f, num, context, c_total, s_total)
            for f, _, num in allowed
        ]

    # -- growth ---------------------------------------------------------
    def train(
        self, features: Optional[Sequence[str]] = None, cpt: bool = False
    ) -> DecisionTree:
        """Train one tree (Algorithm 1, :func:`~repro.core.tree.grow`).

        A node's state is its context and its allowed features.
        ``cpt=True`` applies Clustered Predicate Trees (Section 4.2.2):
        below the root, candidate features are restricted to the cluster
        :meth:`~repro.core.join_graph.JoinGraph.cpt_cluster` picks for
        the root split, and that cluster fact is recorded on the tree
        for residual updates.
        """
        g, p = self.graph, self.params
        if self.mode == "batch":
            self.engine.clear_cache()
        allowed = tuple(
            (f, r, num)
            for f, r, num in g.all_features()
            if features is None or f in features
        )
        c0, s0, *_ = self.engine.total({})

        def child(state: _State, pred: Pred) -> _State:
            ctx, feats = state
            if cpt and not ctx:  # a child of the root: lock its cluster
                members = g.clusters()[g.cpt_cluster(pred.feature)]
                feats = tuple(a for a in feats if a[1] in members)
            if self.mode == "batch" and pred.left:
                # LMFAO-like: no message sharing from one node to the next
                self.engine.clear_cache()
            return ctx_with(ctx, g.feature_relation(pred.feature), pred.sql()), feats

        root: _State = ({}, allowed)
        split0 = top_split(p, self._candidates(root, c0, s0))
        tree = grow(p, root, c0, s0, split0, self._candidates, child)
        if cpt:
            tree.cluster = g.cpt_cluster(tree.root.split_feature)
        return tree


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
        self.wide = graph.materialize().cache()
        self.wide.count()

    def _node_stats(self, context_sql: List[str]) -> DataFrame:
        df = self.wide
        for pred in context_sql:
            df = df.filter(pred)
        return df

    def train(self, features: Optional[Sequence[str]] = None) -> DecisionTree:
        """Train one tree; a node's state is its list of SQL predicates."""
        p = self.params
        y = self.graph.y_column
        feats = [
            (f, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        ]
        agg = (F.count(F.lit(1)).cast("double").alias(PREFIX + "c"),
               F.sum(F.col(y)).alias(PREFIX + "s"))

        def best(preds: List[str], c: float, s: float):
            base = self._node_stats(preds)
            for f, num in feats:
                stats = base.groupBy(f).agg(*agg).toPandas()
                yield best_split_np(
                    stats, f, num, c, s,
                    reg_lambda=p.reg_lambda, min_child=p.min_child,
                )

        row = self.wide.agg(*agg).collect()[0]
        c0, s0 = float(row[0] or 0), float(row[1] or 0.0)
        return grow(
            p, [], c0, s0, top_split(p, best([], c0, s0)), best,
            lambda preds, pred: preds + [pred.sql()],
        )

    def close(self) -> None:
        self.wide.unpersist()
