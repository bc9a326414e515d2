"""Factorized gradient boosting (paper Section 4).

One boosting loop serves both schemas, because a snowflake is a galaxy
with one cluster (§4.2 generalises §4.1). Each tree's predictions are
folded into one cluster fact's semi-ring annotation, so every aggregate
the next tree needs, and the model rmse ``√(q/c)`` read off the global
``(c, s, q)``, comes from message passing over the annotated graph. The
schemas differ only in how the base score and the updater are built:

* **Snowflake** (one cluster covering the graph, §4.1): the fact table
  is 1-1 with ``R⋈``, so residuals live as a real column on F. A
  :class:`~repro.core.residual.SnowflakeResidualUpdater` rewrites that
  column with one of the residual strategies (naive / create / swap)
  and annotates F with ``(c=1, s=ε, q=ε²)``.
* **Galaxy** (several clusters, §4.2): individual residuals are never
  materialized. Trees are **Clustered Predicate Trees**: after the root
  split, features are restricted to one cluster, and a
  :class:`~repro.core.residual.GalaxyAnnotationUpdater` multiplies that
  cluster fact's annotation by ``lift(−lr·p)`` (addition-to-
  multiplication preserving).

Trees grow on the batched star path over each cluster's lifted fact
(one :class:`StarTreeTrainer` per cluster), each branch out of a
cluster fact flattened into one driver-side table, however many hops
deep. Leaf predicates are pushed down to the cluster fact against those
same tables. A feature whose relation lies in no cluster raises
``ValueError`` before any table is collected.

Each update's copy is filled by the first job that reads it (see
:mod:`~repro.core.residual`): the next tree's root query, or the rmse
total when ``track_rmse`` is set. Without ``track_rmse`` nothing reads
the last tree's update, so the fit skips it. Iteration timings are
recorded per tree (train vs update split, see :class:`IterationLog`)
for the T2/T4/T5/T7 table harnesses.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import pyspark.sql.functions as F

from .join_graph import JoinGraph
from .messages import MessageEngine
from .residual import GalaxyAnnotationUpdater, SnowflakeResidualUpdater
from .semiring import VarianceSemiring
from .star_trainer import StarTreeTrainer
from .trainer import TrainParams
from .tree import TreeEnsemble


@dataclass
class IterationLog:
    """Wall-clock accounting for one boosting iteration.

    ``update_seconds`` is the driver work of building the tree's residual
    copy: its leaf conditions and its plan. The copy is filled by the
    first job that reads it. With ``track_rmse`` that is the rmse total,
    whose time ``update_seconds`` includes; otherwise it is the next
    tree's root query, so the write counts in the next iteration's
    ``tree_seconds``. A fit with ``track_rmse=False`` skips the last
    update, which nothing would read, and logs ``update_seconds == 0.0``
    for it.
    """

    tree_seconds: float
    update_seconds: float
    rmse: Optional[float] = None


@dataclass
class GradientBoostingResult:
    ensemble: TreeEnsemble
    logs: List[IterationLog] = field(default_factory=list)

    def total_seconds(self, upto: Optional[int] = None) -> float:
        logs = self.logs if upto is None else self.logs[:upto]
        return sum(l.tree_seconds + l.update_seconds for l in logs)


class GradientBoosting:
    """JoinBoost's ``train(objective="regression")`` for rmse."""

    def __init__(
        self,
        graph: JoinGraph,
        n_iters: int = 10,
        learning_rate: float = 0.1,
        params: Optional[TrainParams] = None,
        strategy: str = "swap",
        track_rmse: bool = False,
    ) -> None:
        graph.validate_tree()
        self.graph = graph
        self.n_iters = n_iters
        self.lr = learning_rate
        self.params = params or TrainParams()
        self.strategy = strategy
        self.track_rmse = track_rmse
        self.snowflake = graph.is_snowflake()

    # ------------------------------------------------------------------
    def fit(self) -> GradientBoostingResult:
        sr = VarianceSemiring(track_q=True)
        # one GROUPING SETS job per node over a cluster's lifted fact
        stars = self._cluster_stars(sr)
        engine, tables = stars[0].engine, stars[0].dim_pandas
        start = self._snowflake_start if self.snowflake else self._galaxy_start
        base, updater = start(engine, tables)
        ens = TreeEnsemble(base_score=base, learning_rate=self.lr)
        logs: List[IterationLog] = []
        try:
            for i in range(self.n_iters):
                t0 = time.perf_counter()
                tree = stars[0].train(others=stars[1:])
                t1 = time.perf_counter()
                ens.trees.append(tree)
                rmse, update_s = None, 0.0
                # the last update is read only by the rmse total
                if self.track_rmse or i < self.n_iters - 1:
                    engine.set_annotation(tree.cluster, updater.update(tree))
                    update_s = updater.last_update_seconds
                if self.track_rmse:  # the copy's first reader: it writes it
                    t2 = time.perf_counter()
                    c, _, q = engine.total({})
                    rmse = (q / c) ** 0.5
                    update_s += time.perf_counter() - t2
                logs.append(
                    IterationLog(
                        tree_seconds=t1 - t0, update_seconds=update_s, rmse=rmse
                    )
                )
        finally:  # the model needs none of the cached residuals/messages
            engine.clear_cache()
            updater.close()
        return GradientBoostingResult(ens, logs)

    def _cluster_stars(self, sr: VarianceSemiring) -> List[StarTreeTrainer]:
        """One star trainer per CPT cluster, sharing a message engine and
        the flattened branches. Raises ``ValueError``, before any table
        is collected, if a feature's relation lies in no cluster."""
        g = self.graph
        clusters = g.clusters()
        lost = [
            f for f, r, _ in g.all_features()
            if not any(r in m for m in clusters.values())
        ]
        if lost or not clusters:
            raise ValueError(
                f"features {lost} lie in no CPT cluster: their relations "
                "are reached only over M-N edges"
            )
        engine = MessageEngine(g, sr, eager=False)
        tables: dict = {}
        return [
            StarTreeTrainer(g, self.params, hub=h, engine=engine, tables=tables)
            for h in sorted(clusters)
        ]

    # -- snowflake (§4.1) -----------------------------------------------
    def _snowflake_start(
        self, engine: MessageEngine, tables: dict
    ) -> Tuple[float, SnowflakeResidualUpdater]:
        """Base score = mean of Y over F, which is 1-1 with ``R⋈``; the
        fact is annotated with its residual column."""
        g = self.graph
        fact, fact_y = self._fact_with_y()
        base = float(fact_y.agg(F.avg(F.col(g.y_column))).collect()[0][0])
        updater = SnowflakeResidualUpdater(
            graph=g,
            fact=fact,
            fact_df=fact_y,
            y=g.y_column,
            base_score=base,
            dim_pandas=tables,
            strategy=self.strategy,
            learning_rate=self.lr,
            needed_cols=self._needed_cols(fact, fact_y),
        )
        engine.set_annotation(fact, updater.annotated())
        return base, updater

    def _fact_with_y(self) -> tuple:
        """The fact DataFrame extended with Y (joined in if Y is in a dim).

        Paper §4.1: if ``R_Y ≠ F``, join the relations along the path
        from F to ``R_Y`` and project F's attributes plus Y.
        """
        g = self.graph
        fact = next(iter(g.clusters()))
        df = g.relations[fact].df
        y = g.y_column
        if g.y_relation != fact:
            path = g.path(fact, g.y_relation)
            for i in range(len(path) - 1):
                nxt = path[i + 1]
                edge = g.edge(path[i], nxt)
                nxt_df = g.relations[nxt].df
                proj = list(edge.keys) + (
                    [y] if nxt == g.y_relation else
                    [k for e2 in g.edges if e2.touches(nxt) for k in e2.keys]
                )
                df = df.join(
                    F.broadcast(nxt_df.select(*dict.fromkeys(proj))),
                    on=list(edge.keys),
                    how="inner",
                )
        return fact, df

    def _needed_cols(self, fact: str, fact_y) -> List[str]:
        """Slim fact projection: join keys + fact-local features."""
        g = self.graph
        cols = []
        for e in g.edges:
            if e.many == fact:
                cols.extend(e.keys)
        cols.extend(g.relations[fact].features)
        return [c for c in dict.fromkeys(cols) if c in fact_y.columns]

    # -- galaxy (§4.2) --------------------------------------------------
    def _galaxy_start(
        self, engine: MessageEngine, tables: dict
    ) -> Tuple[float, GalaxyAnnotationUpdater]:
        """Base score = mean of Y over ``R⋈`` (weighted by join
        multiplicity); Y's relation is then re-lifted centred at it, so
        annotations hold residuals."""
        g = self.graph
        y_rel, y = g.y_relation, g.y_column
        engine.lift_y()
        c0, s0, _ = engine.total({})
        base = s0 / c0
        centred = F.col(y).cast("double") - F.lit(base)
        y_lifted = g.relations[y_rel].df.withColumns(engine.semiring.lift_exprs(centred))
        engine.set_annotation(y_rel, y_lifted)
        # If R_Y is itself a cluster fact, its update annotations must
        # compose with (not replace) the Y lift.
        updater = GalaxyAnnotationUpdater(
            g, tables, learning_rate=self.lr, initial={y_rel: y_lifted}
        )
        return base, updater
