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

Requirements (checked at init): a snowflake star where every feature
relation is the fact itself or directly adjacent to it, and only the
fact carries annotations. Deeper snowflakes and galaxy schemas use the
general engine.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from .join_graph import JoinGraph
from .residual import fact_condition
from .semiring import PREFIX
from .split import Split, best_split_np, pick
from .trainer import TrainParams
from .tree import DecisionTree, Node, Pred

#: node context for the star path: relation → predicates on its columns
PredContext = Dict[str, Tuple[Pred, ...]]


def _ctx_key(ctx: PredContext) -> frozenset:
    return frozenset((r, p) for r, preds in ctx.items() for p in preds)


class StarTreeTrainer:
    """One-Spark-job-per-node factorized tree training on star schemas."""

    def __init__(
        self,
        graph: JoinGraph,
        params: Optional[TrainParams] = None,
    ) -> None:
        graph.validate_tree()
        if not graph.is_snowflake():
            raise ValueError("StarTreeTrainer requires a snowflake schema")
        self.graph = graph
        self.params = params or TrainParams()
        self.hub = next(iter(graph.clusters()))
        # feature → (fact-side grouping column, dim name or None)
        self.feature_col: Dict[str, Tuple[str, Optional[str]]] = {}
        for f, rel, num in graph.all_features():
            if rel == self.hub:
                self.feature_col[f] = (f, None)
            else:
                try:
                    edge = graph.edge(self.hub, rel)
                except ValueError:
                    raise ValueError(
                        f"feature relation {rel!r} is not adjacent to the "
                        f"fact {self.hub!r} — use FactorizedTreeTrainer"
                    ) from None
                self.feature_col[f] = (edge.keys[0], rel)
        # dimensions live on the driver: they are small by the paper's
        # own premise (<2MB each for Favorita)
        self.dim_pandas: Dict[str, pd.DataFrame] = {
            name: rel.df.toPandas()
            for name, rel in graph.relations.items()
            if name != self.hub
        }
        self.fact: Optional[DataFrame] = None
        self._ids = itertools.count()
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
        new._ids = itertools.count()
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

    def _best(
        self,
        ctx: PredContext,
        c_tot: float,
        s_tot: float,
        allowed: Sequence[Tuple[str, str, bool]],
    ) -> Optional[Split]:
        p = self.params
        cols = self._grouping_cols([f for f, _, _ in allowed])
        stats = self._node_stats(ctx, cols)
        best: Optional[Split] = None
        for f, _, num in allowed:
            fs = self._feature_stats(stats, cols, f)
            s = best_split_np(
                fs, f, num, c_tot, s_tot,
                reg_lambda=p.reg_lambda, min_child=p.min_child,
            )
            if s is None or s.gain < p.min_gain:
                continue
            best = pick(best, s)
        return best

    # -- growth -----------------------------------------------------------
    def train(self, features: Optional[Sequence[str]] = None) -> DecisionTree:
        p = self.params
        self._memo.clear()
        allowed = tuple(
            (f, r, num)
            for f, r, num in self.graph.all_features()
            if features is None or f in features
        )
        cols = self._grouping_cols([f for f, _, _ in allowed])
        ctx: PredContext = {}
        stats0 = self._node_stats(ctx, cols)
        c0, s0 = self._totals(stats0, cols)
        root = Node(next(self._ids), 0, prediction=self._leaf(c0, s0))
        tree = DecisionTree(root)
        sp = self._best(ctx, c0, s0, allowed)
        pq: List[Tuple[float, int, Node, PredContext, float, float, Split]] = []
        counter = itertools.count()
        if sp is not None:
            heapq.heappush(pq, (-sp.gain, next(counter), root, ctx, c0, s0, sp))
        n_leaves = 1
        while pq and n_leaves < p.max_leaves:
            _, _, node, nctx, c_t, s_t, split = heapq.heappop(pq)
            if node.depth + 1 > p.max_depth:
                continue
            node.split_feature = split.feature
            node.split_value = split.value
            node.split_numeric = split.numeric
            rel = self.graph.feature_relation(split.feature)
            child_ctxs = {}
            for left in (True, False):
                pr = Pred(split.feature, split.value, split.numeric, left)
                cctx = dict(nctx)
                cctx[rel] = tuple(list(cctx.get(rel, ())) + [pr])
                child_ctxs[left] = cctx
                c = split.c_left if left else c_t - split.c_left
                s = split.s_left if left else s_t - split.s_left
                child = Node(
                    next(self._ids),
                    node.depth + 1,
                    preds=node.preds + [pr],
                    prediction=self._leaf(c, s),
                )
                if left:
                    node.left = child
                else:
                    node.right = child
                if child.depth < p.max_depth and c > 2 * p.min_child:
                    if not left and _ctx_key(cctx) not in self._memo:
                        # right child: derive stats from parent − left
                        # instead of running another Spark job
                        self._derive_sibling(
                            nctx, child_ctxs[True], cctx, cols
                        )
                    csp = self._best(cctx, c, s, allowed)
                    if csp is not None:
                        heapq.heappush(
                            pq, (-csp.gain, next(counter), child, cctx, c, s, csp)
                        )
            node.prediction = None
            n_leaves += 1
        return tree

    def _leaf(self, c: float, s: float) -> float:
        denom = c + self.params.reg_lambda
        return 0.0 if denom == 0 else s / denom
