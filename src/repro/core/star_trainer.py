"""Batched star-schema trainer — LMFAO-style aggregate batching on Spark.

The fully general :class:`~repro.core.trainer.FactorizedTreeTrainer`
issues one Spark query per message and per feature absorption, exactly
mirroring the paper's query census (Fig 9). That fidelity is kept for
tests and the LMFAO ablation, but Spark's fixed per-query cost (~0.5s
of scheduling per job, vs ~10ms for DuckDB) would swamp the actual
aggregation work at laptop scale. This module is the batched
counterpart the paper itself describes ("rewrites the tree node split
algorithm into a batch of group-by aggregations", §1; LMFAO's batch of
queries, §3.3): for one tree node, **all** messages from the fact are
one ``GROUPING SETS`` aggregation —

    SELECT k₁, …, k_m, grouping_id(), SUM(c), SUM(s)
    FROM   σ_node(F)
    GROUP BY GROUPING SETS ((k₁), …, (k_m), ())

where ``k_i`` are the fact-side join keys (plus fact-local feature
columns) and the empty set yields the node totals. Absorption — joining
each per-key message with its (tiny, driver-resident) dimension table
and grouping by the feature — runs vectorized on the driver, the
paper's own "Pandas dataframe backend" (§5.1 lists dataframes as a
supported backend). Aggregation pushdown is identical: the fact is
aggregated by join key *before* any contact with the dimensions, and
``R⋈`` is never materialized.

Growth is the shared best-first loop :func:`~repro.core.tree.grow`
(Algorithm 1); this module supplies only a node's candidate splits,
from its one batched job, and its children's predicate contexts. A
right child's stats are derived as parent − left on the driver, and
only when that child is scored.

The hub is the fact the batch aggregates. Requirement (checked by
:func:`star_columns` from the graph alone, before any dimension is
collected): every feature relation of the hub's cluster is the hub
itself or directly adjacent to it, and only the hub carries
annotations. Deeper schemas use the general engine.

* **Snowflake** (§4.1): the hub is the single fact, and the caller
  installs its annotated copy (the residual column) with
  :meth:`StarTreeTrainer.set_fact`.
* **Galaxy** (§4.2.2): one trainer per CPT cluster, built with
  ``hub=`` the cluster fact and ``engine=`` the message engine that
  holds the galaxy's annotations. Under CPT every split below the root
  uses only the locked cluster's features, and that cluster is a star,
  so every node is a star problem over the cluster's *lifted* fact
  ``L_k`` — F_k's annotation ⊗ the message from each neighbour
  (:meth:`~repro.core.messages.MessageEngine.lifted`), which carries
  Y's lift and the other clusters' update annotations.
  :meth:`StarTreeTrainer.train`, called on one cluster's trainer with
  the others as ``others``, lifts each fact once per tree, runs one
  root job per cluster, keeps the best root split across clusters and
  grows on in that cluster from its memoized root stats.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from .join_graph import JoinGraph
from .messages import MessageEngine
from .residual import fact_condition
from .semiring import PREFIX
from .split import Split, best_split_np, pick
from .trainer import TrainParams
from .tree import DecisionTree, Pred, grow, top_split

#: node context for the star path: relation → predicates on its columns
PredContext = Dict[str, Tuple[Pred, ...]]


def _ctx_key(ctx: PredContext) -> frozenset:
    return frozenset((r, p) for r, preds in ctx.items() for p in preds)


def star_columns(graph: JoinGraph, hub: str) -> Dict[str, Tuple[str, Optional[str]]]:
    """feature → (hub-side grouping column, dimension or None) over the
    features of ``hub``'s cluster.

    Raises ``ValueError`` unless every feature relation of the cluster
    is the hub or adjacent to it — the star requirement, checked from
    the graph alone, before any dimension is collected.
    """
    members = graph.clusters()[hub]
    out: Dict[str, Tuple[str, Optional[str]]] = {}
    for f, rel, _ in graph.all_features():
        if rel == hub:
            out[f] = (f, None)
        elif rel in members:
            try:
                out[f] = (graph.edge(hub, rel).keys[0], rel)
            except ValueError:
                raise ValueError(
                    f"feature relation {rel!r} is not adjacent to the "
                    f"fact {hub!r} — use FactorizedTreeTrainer"
                ) from None
    return out


class StarTreeTrainer:
    """One-Spark-job-per-node factorized tree training on star schemas."""

    def __init__(
        self,
        graph: JoinGraph,
        params: Optional[TrainParams] = None,
        hub: Optional[str] = None,
        engine: Optional[MessageEngine] = None,
        tables: Optional[Dict[str, pd.DataFrame]] = None,
    ) -> None:
        """``hub`` defaults to the single fact of a snowflake; a galaxy
        names a cluster fact and passes the ``engine`` to lift it from.
        ``tables`` is a dict of driver-side relations to share between
        trainers; missing dimensions are collected into it."""
        graph.validate_tree()
        if hub is None:
            if not graph.is_snowflake():
                raise ValueError("StarTreeTrainer requires a snowflake schema")
            hub = next(iter(graph.clusters()))
        self.graph = graph
        self.params = params or TrainParams()
        self.hub = hub
        self.engine = engine
        self.feature_col = star_columns(graph, hub)
        # dimensions live on the driver: they are small by the paper's
        # own premise (<2MB each for Favorita)
        self.dim_pandas: Dict[str, pd.DataFrame] = {} if tables is None else tables
        for name in sorted(graph.clusters()[hub] - {hub}):
            if name not in self.dim_pandas:
                self.dim_pandas[name] = graph.relations[name].df.toPandas()
        self.fact: Optional[DataFrame] = None
        self._memo: Dict[frozenset, pd.DataFrame] = {}
        self.jobs_run = 0

    def clone(self) -> "StarTreeTrainer":
        """A cheap copy sharing the (read-only) driver-side dimensions.

        Used by the random forest to give each thread-parallel tree its
        own fact annotation and stats memo without re-collecting dims.
        """
        new = StarTreeTrainer.__new__(StarTreeTrainer)
        new.__dict__ = {**self.__dict__}
        new.fact = None
        new._memo = {}
        new.jobs_run = 0
        return new

    # -- annotation -----------------------------------------------------
    def set_fact(self, annotated: DataFrame) -> None:
        """Install the annotated fact (``__c``, ``__s`` columns present)."""
        self.fact = annotated
        self._memo.clear()

    # -- node evaluation -------------------------------------------------
    def _node_stats(self, ctx: PredContext, cols: Sequence[str]) -> pd.DataFrame:
        """The node's batched message table (memoized per context)."""
        key = _ctx_key(ctx)
        if key in self._memo:
            return self._memo[key]
        assert self.fact is not None, "set_fact() before training"
        df = self.fact.filter(
            fact_condition(self.graph, self.hub, ctx, self.dim_pandas)
        )
        sets = [[c] for c in cols] + [[]]
        out = (
            df.groupingSets(sets, *cols)
            .agg(
                F.sum(PREFIX + "c").alias(PREFIX + "c"),
                F.sum(PREFIX + "s").alias(PREFIX + "s"),
                F.grouping_id().alias("__gid"),
            )
            .toPandas()
        )
        self.jobs_run += 1
        self._memo[key] = out
        return out

    def _derive_sibling(
        self,
        parent_ctx: PredContext,
        left_ctx: PredContext,
        right_ctx: PredContext,
        cols: Sequence[str],
    ) -> None:
        """Right-child stats by subtraction: parent − left (driver-side).

        The split partitions ``R⋈``, so every per-key semi-ring sum of
        the right child is exactly the parent's minus the left child's —
        LightGBM's histogram-subtraction trick, here saving one Spark
        job per split. The result is installed into the memo so
        ``_best`` never issues a query for the right child.
        """
        parent = self._node_stats(parent_ctx, cols)
        left = self._node_stats(left_ctx, cols)
        on = ["__gid"] + list(cols)
        merged = parent.merge(left, on=on, how="left", suffixes=("", "_l"))
        for comp in ("c", "s"):
            lcol = PREFIX + comp + "_l"
            merged[lcol] = merged[lcol].fillna(0.0)
            merged[PREFIX + comp] = merged[PREFIX + comp] - merged[lcol]
        out = merged[[*on, PREFIX + "c", PREFIX + "s"]]
        out = out[out[PREFIX + "c"] > 0.5].reset_index(drop=True)
        self._memo[_ctx_key(right_ctx)] = out

    def _grouping_cols(self, features: Sequence[str]) -> List[str]:
        return sorted({self.feature_col[f][0] for f in features})

    def _totals(self, stats: pd.DataFrame, cols: Sequence[str]) -> Tuple[float, float]:
        gid_all = (1 << len(cols)) - 1
        row = stats[stats["__gid"] == gid_all]
        if row.empty or row[PREFIX + "c"].iloc[0] is None:
            return 0.0, 0.0
        return float(row[PREFIX + "c"].iloc[0] or 0), float(row[PREFIX + "s"].iloc[0] or 0)

    def _feature_stats(
        self, stats: pd.DataFrame, cols: Sequence[str], feature: str
    ) -> pd.DataFrame:
        col, dim = self.feature_col[feature]
        i = list(cols).index(col)
        gid = ((1 << len(cols)) - 1) ^ (1 << (len(cols) - 1 - i))
        slice_ = stats[stats["__gid"] == gid][[col, PREFIX + "c", PREFIX + "s"]]
        if dim is None:
            return slice_.rename(columns={col: feature}) if col != feature else slice_
        pdf = self.dim_pandas[dim][[col, feature]]
        merged = slice_.merge(pdf, on=col, how="inner")
        return (
            merged.groupby(feature, sort=False)[[PREFIX + "c", PREFIX + "s"]]
            .sum()
            .reset_index()
        )

    def _candidates(
        self,
        ctx: PredContext,
        c_tot: float,
        s_tot: float,
        allowed: Sequence[Tuple[str, str, bool]],
        cols: Sequence[str],
    ) -> List[Optional[Split]]:
        """Each allowed feature's best split at one node, from the node's
        one batched job."""
        p = self.params
        stats = self._node_stats(ctx, cols)
        return [
            best_split_np(
                self._feature_stats(stats, cols, f), f, num, c_tot, s_tot,
                reg_lambda=p.reg_lambda, min_child=p.min_child,
            )
            for f, _, num in allowed
        ]

    # -- growth -----------------------------------------------------------
    def train(
        self,
        features: Optional[Sequence[str]] = None,
        others: Sequence["StarTreeTrainer"] = (),
    ) -> DecisionTree:
        """Grow one tree best-first (Algorithm 1).

        ``others`` are the other clusters' trainers of a galaxy. The
        root split is then the best over every cluster, a feature of a
        relation shared by clusters being scored only in the first
        cluster by name, and the tree grows on in the cluster that split
        came from: the CPT lock, recorded as ``tree.cluster`` by
        :meth:`~repro.core.join_graph.JoinGraph.cpt_cluster`.
        """
        trainers = sorted([self, *others], key=lambda t: t.hub)
        try:
            scored: Set[str] = set()
            roots = [t._root(features, scored) for t in trainers]
            lead = 0
            for i, root in enumerate(roots[1:], 1):
                split = root[-1]
                if split is not None and pick(roots[lead][-1], split) is split:
                    lead = i
            tree = trainers[lead]._grow(*roots[lead])
            if self.engine is not None:
                tree.cluster = self.graph.cpt_cluster(tree.root.split_feature)
            return tree
        finally:
            for t in trainers:
                t._release()

    def _root(self, features: Optional[Sequence[str]], scored: Set[str]) -> tuple:
        """Root stats in one job, and the best root split over the
        features not yet in ``scored`` (which this extends).

        Returns ``(allowed, cols, c, s, split)``, the arguments of
        :meth:`_grow`. With an engine, first installs the lifted fact
        projected to the columns the batch groups by.
        """
        if self.engine is not None:
            keep = self._grouping_cols(list(self.feature_col))
            lifted = self.engine.lifted(self.hub)
            self.set_fact(lifted.select(*keep, PREFIX + "c", PREFIX + "s").cache())
        self._memo.clear()
        allowed = tuple(
            (f, r, num)
            for f, r, num in self.graph.all_features()
            if f in self.feature_col and (features is None or f in features)
        )
        cols = self._grouping_cols([f for f, _, _ in allowed])
        c0, s0 = self._totals(self._node_stats({}, cols), cols)
        fresh = [a for a in allowed if a[0] not in scored]
        scored.update(f for f, _, _ in allowed)
        split = top_split(self.params, self._candidates({}, c0, s0, fresh, cols))
        return allowed, cols, c0, s0, split

    def _release(self) -> None:
        """Drop the lifted fact once its tree is trained."""
        if self.engine is not None and self.fact is not None:
            self.fact.unpersist()
            self.fact = None

    def _grow(
        self,
        allowed: Sequence[Tuple[str, str, bool]],
        cols: Sequence[str],
        c0: float,
        s0: float,
        split0: Optional[Split],
    ) -> DecisionTree:
        """Grow on from the root's stats (:func:`~repro.core.tree.grow`).

        A node's state is its context plus, for a right child, the
        ``(parent, left)`` contexts it is derived from: its stats are
        parent − left, computed only if the child is scored.
        """

        def best(state, c: float, s: float) -> List[Optional[Split]]:
            ctx, sibling = state
            if sibling is not None and _ctx_key(ctx) not in self._memo:
                self._derive_sibling(*sibling, ctx, cols)
            return self._candidates(ctx, c, s, allowed, cols)

        def child(state, pred: Pred):
            ctx = state[0]
            rel = self.graph.feature_relation(pred.feature)
            cctx = {**ctx, rel: ctx.get(rel, ()) + (pred,)}
            if pred.left:
                return cctx, None
            left = replace(pred, left=True)
            return cctx, (ctx, {**ctx, rel: ctx.get(rel, ()) + (left,)})

        return grow(self.params, ({}, None), c0, s0, split0, best, child)
