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
columns) and the empty set yields the node totals. The result is split
once into per-column ``(keys, c, s)`` arrays (:class:`NodeStats`).
Absorption (§3.2) — joining each per-key message with its (tiny,
driver-resident) dimension and grouping by the feature — runs on the
driver on integer codes, LightGBM's pre-binned histograms (Ke et al.,
2017) applied to a message that is already aggregated: each dimension
is encoded once, as a key → row index and, per feature, the codes of
its sorted distinct values, so a node maps its keys to rows once per
dimension and absorbs each feature with one ``np.bincount`` of ``c``
and ``s``, already in value order for split scoring. Aggregation
pushdown is identical: the fact is aggregated by join key *before*
any contact with the dimensions, and ``R⋈`` is never materialized.
A dimension that repeats a join key raises ``ValueError``.

Growth is the shared best-first loop :func:`~repro.core.tree.grow`
(Algorithm 1); this module supplies only a node's candidate splits,
from its one batched job, and its children's predicate contexts. A
right child's stats are derived as parent − left on the aligned key
arrays, and only when that child is scored.

The hub is the fact the batch aggregates, and only the hub carries
annotations. Every other relation of its cluster is reached along
many→one edges, so each branch out of the hub is flattened into one
driver-side table (:func:`~repro.core.residual.flatten`) keyed by the
hub's first-hop key: a feature any number of hops away groups by that
key and filters through that table. Only a multi-column first-hop key
is refused, by :func:`star_columns` from the graph alone, before any
table is collected.

* **Fixed fact**: without an engine, the hub defaults to a
  snowflake's single fact, and the caller installs its annotated copy
  with :meth:`StarTreeTrainer.set_fact` (the random forest's samples,
  the table harnesses).
* **Boosting** (§4.2.2): one trainer per CPT cluster, built with
  ``hub=`` the cluster fact and ``engine=`` the message engine that
  holds the annotations; a snowflake is the one-cluster case, its fact
  annotated with the residual column. Under CPT every split below the
  root uses only the locked cluster's features, so every node is a star
  problem over the cluster's *lifted* fact
  ``L_k`` — F_k's annotation ⊗ the message from each neighbour
  (:meth:`~repro.core.messages.MessageEngine.lifted`), which carries
  Y's lift and the other clusters' update annotations.
  :meth:`StarTreeTrainer.train`, called on one cluster's trainer with
  the others as ``others``, lifts each fact once per tree, runs one
  root job per cluster, keeps the best root split across clusters and
  grows on in that cluster from its memoized root stats.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from .join_graph import JoinGraph
from .messages import MessageEngine
from .residual import branch, fact_condition, flatten
from .semiring import PREFIX
from .split import Split, best_split_np, pick
from .trainer import TrainParams
from .tree import DecisionTree, Pred, grow, top_split

#: node context for the star path: branch → predicates on its columns
PredContext = Dict[str, Tuple[Pred, ...]]


def _ctx_key(ctx: PredContext) -> frozenset:
    return frozenset((r, p) for r, preds in ctx.items() for p in preds)


@dataclass
class NodeStats:
    """One node's ``GROUPING SETS`` result as arrays: the totals and,
    per grouping column, its distinct keys with their ``(c, s)`` sums."""

    c: float
    s: float
    groups: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: dimension → the node's keys' rows in it and their ``(c, s)``,
    #: keys missing from the dimension dropped (filled by ``_absorb``;
    #: keyed by dimension, as dimensions may share a grouping column)
    rows: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    @classmethod
    def split(cls, out: pd.DataFrame, cols: Sequence[str]) -> "NodeStats":
        """Split the collected result by ``grouping_id`` once."""
        gid = out["__gid"].to_numpy()
        c = out[PREFIX + "c"].to_numpy(dtype="float64")
        s = out[PREFIX + "s"].to_numpy(dtype="float64")
        full = (1 << len(cols)) - 1
        groups = {}
        for i, col in enumerate(cols):
            at = gid == full ^ (1 << (len(cols) - 1 - i))
            groups[col] = (out[col].to_numpy()[at], c[at], s[at])
        at = np.flatnonzero(gid == full)
        c0, s0 = (c[at[0]], s[at[0]]) if len(at) else (0.0, 0.0)
        # an empty node's totals are NULL
        return cls(float(np.nan_to_num(c0)), float(np.nan_to_num(s0)), groups)


@dataclass(frozen=True)
class _Dim:
    """A dimension encoded once: its key → row index and, per feature,
    each row's code into the feature's sorted distinct values (−1 for
    NULL, so NULLs drop out of absorption as ``groupby`` drops them)."""

    index: pd.Index
    codes: Dict[str, Tuple[np.ndarray, np.ndarray]]

    @classmethod
    def encode(
        cls, name: str, key: str, pdf: pd.DataFrame, features: Sequence[str]
    ) -> "_Dim":
        """Raises ``ValueError`` on a repeated key: the dimension is the
        one-side of its edge, and a repeat would count fact rows twice."""
        index = pd.Index(pdf[key])
        if not index.is_unique:
            dup = index[index.duplicated()][0]
            raise ValueError(
                f"dimension {name!r} repeats its join key {key!r} "
                f"(e.g. {dup!r}); the one-side of an edge needs unique keys"
            )
        codes = {}
        for f in features:
            code, values = pd.factorize(pdf[f], sort=True)
            codes[f] = (code, values.to_numpy())
        return cls(index, codes)


def star_columns(graph: JoinGraph, hub: str) -> Dict[str, Tuple[str, Optional[str]]]:
    """feature → (hub-side grouping column, branch or None) over the
    features of ``hub``'s cluster: a fact-local feature groups by
    itself, any other by the hub's key to its :func:`branch`.

    Raises ``NotImplementedError`` on a multi-column first-hop key,
    checked from the graph alone, before any table is collected.
    """
    members = graph.clusters()[hub]
    out: Dict[str, Tuple[str, Optional[str]]] = {}
    for f, rel, _ in graph.all_features():
        if rel == hub:
            out[f] = (f, None)
        elif rel in members:
            dim = branch(graph, hub, rel)
            keys = graph.edge(hub, dim).keys
            if len(keys) != 1:
                raise NotImplementedError(
                    f"edge {hub!r} → {dim!r} joins on {list(keys)}: the star "
                    "path groups and filters by a single-column key"
                )
            out[f] = (keys[0], dim)
    return out


class StarTreeTrainer:
    """One-Spark-job-per-node factorized tree training over one cluster,
    its branches flattened into a star."""

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
        ``tables`` is a dict of flattened branches to share between
        trainers; missing ones are collected into it."""
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
        by_dim: Dict[str, List[str]] = {}
        for f, (col, dim) in self.feature_col.items():
            if dim is not None:
                by_dim.setdefault(dim, []).append(f)
        # branches live on the driver: a flattened branch has the rows of
        # its first-hop dimension, small by the paper's own premise
        # (<2MB each for Favorita)
        self.dim_pandas: Dict[str, pd.DataFrame] = {} if tables is None else tables
        for dim in sorted(by_dim):
            if dim not in self.dim_pandas:
                self.dim_pandas[dim] = flatten(graph, dim)
        self._dims = {
            dim: _Dim.encode(dim, self.feature_col[fs[0]][0], self.dim_pandas[dim], fs)
            for dim, fs in sorted(by_dim.items())
        }
        self.fact: Optional[DataFrame] = None
        self._memo: Dict[frozenset, NodeStats] = {}
        self.jobs_run = 0

    def clone(self) -> "StarTreeTrainer":
        """A cheap copy sharing the (read-only) driver-side dimensions
        and their encoding.

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
    def _node_stats(self, ctx: PredContext, cols: Sequence[str]) -> NodeStats:
        """The node's batched message table as arrays (memoized per context)."""
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
        stats = self._memo[key] = NodeStats.split(out, cols)
        return stats

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
        job per split. The left child's keys are a subset of the
        parent's; keys left with ``c <= 0.5`` have no rows and drop out.
        The result is installed into the memo so ``_best`` never issues
        a query for the right child.
        """
        parent = self._node_stats(parent_ctx, cols)
        left = self._node_stats(left_ctx, cols)
        groups = {}
        for col, (keys, c, s) in parent.groups.items():
            lkeys, lc, ls = left.groups[col]
            at = pd.Index(keys).get_indexer(lkeys)
            c, s = c.copy(), s.copy()
            c[at] -= lc
            s[at] -= ls
            keep = c > 0.5
            groups[col] = (keys[keep], c[keep], s[keep])
        self._memo[_ctx_key(right_ctx)] = NodeStats(
            parent.c - left.c, parent.s - left.s, groups
        )

    def _grouping_cols(self, features: Sequence[str]) -> List[str]:
        return sorted({self.feature_col[f][0] for f in features})

    def _absorb(
        self, stats: NodeStats, feature: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One feature's ``(values, c, s)`` at a node, in value order
        (§3.2 absorption).

        A dimension feature maps the node's keys to dimension rows (once
        per dimension, shared by the dimension's features) and
        sums ``c`` and ``s`` per value code with ``np.bincount``. Keys
        missing from the dimension and NULL values drop out. A fact-local
        feature's keys are its values, NULL ordered last.
        """
        col, dim = self.feature_col[feature]
        keys, c, s = stats.groups[col]
        if dim is None:
            codes, _ = pd.factorize(keys, sort=True)
            order = np.argsort(np.where(codes < 0, len(codes), codes), kind="stable")
            return keys[order], c[order], s[order]
        found = stats.rows.get(dim)
        if found is None:
            rows = self._dims[dim].index.get_indexer(keys)
            hit = rows >= 0
            found = stats.rows[dim] = (rows[hit], c[hit], s[hit])
        rows, c, s = found
        all_codes, values = self._dims[dim].codes[feature]
        codes = all_codes[rows]
        hit = codes >= 0
        codes, c, s = codes[hit], c[hit], s[hit]
        n = len(values)
        present = np.bincount(codes, minlength=n) > 0
        return (
            values[present],
            np.bincount(codes, c, n)[present],
            np.bincount(codes, s, n)[present],
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
                self._absorb(stats, f), f, num, c_tot, s_tot,
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
        projected to the columns the batch groups by. It is cached only
        when a message was multiplied in; otherwise it is the hub's own
        annotation, such as a snowflake's checkpointed residual copy.
        """
        if self.engine is not None:
            keep = self._grouping_cols(list(self.feature_col))
            lifted = self.engine.lifted(self.hub)
            fact = lifted.select(*keep, PREFIX + "c", PREFIX + "s")
            if lifted is not self.engine.annotated[self.hub]:
                fact = fact.cache()
            self.set_fact(fact)
        self._memo.clear()
        allowed = tuple(
            (f, r, num)
            for f, r, num in self.graph.all_features()
            if f in self.feature_col and (features is None or f in features)
        )
        cols = self._grouping_cols([f for f, _, _ in allowed])
        root = self._node_stats({}, cols)
        c0, s0 = root.c, root.s
        fresh = [a for a in allowed if a[0] not in scored]
        scored.update(f for f, _, _ in allowed)
        split = top_split(self.params, self._candidates({}, c0, s0, fresh, cols))
        return allowed, cols, c0, s0, split

    def _release(self) -> None:
        """Drop the lifted fact once its tree is trained."""
        if self.engine is not None and self.fact is not None:
            if self.fact.is_cached:
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
            rel = self.feature_col[pred.feature][1] or self.hub
            cctx = {**ctx, rel: ctx.get(rel, ()) + (pred,)}
            if pred.left:
                return cctx, None
            left = replace(pred, left=True)
            return cctx, (ctx, {**ctx, rel: ctx.get(rel, ()) + (left,)})

        return grow(self.params, ({}, None), c0, s0, split0, best, child)
