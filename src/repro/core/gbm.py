"""Factorized gradient boosting (paper Section 4).

Two schema paths, selected automatically from the join graph:

* **Snowflake** (single cluster covering the graph, §4.1): the fact
  table is 1-1 with ``R⋈``, so residuals live as a real column on F.
  Each iteration trains a factorized tree on the current residual
  annotation ``(c=1, s=ε)``, then rewrites the residual column with one
  of the :mod:`repro.core.residual` strategies (naive / create / swap).
* **Galaxy** (multiple clusters, §4.2): individual residuals are never
  materialized. Trees are **Clustered Predicate Trees** — after the
  root split, features are restricted to one cluster — and each tree's
  predictions are folded into its cluster fact's semi-ring annotation
  via ``⊗ lift(−lr·p)`` (addition-to-multiplication preserving). All
  aggregates the next tree needs come out of message passing over the
  annotated graph; model rmse is read off the global ``(C, S, Q)``.
  When every cluster is a star around its fact, trees grow on the
  batched star path over each cluster's lifted fact (one
  :class:`StarTreeTrainer` per cluster); otherwise, and with
  ``fast=False``, on the general :class:`FactorizedTreeTrainer`.
  Leaf predicates are pushed down to the cluster fact against the star
  path's driver-side dimensions.

Iteration timings are recorded per tree (train vs update split) for
the T2/T4/T5/T7 table harnesses.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import pyspark.sql.functions as F

from .join_graph import JoinGraph
from .messages import MessageEngine
from .residual import GalaxyAnnotationUpdater, SnowflakeResidualUpdater
from .semiring import PREFIX, VarianceSemiring
from .star_trainer import StarTreeTrainer, star_columns
from .trainer import FactorizedTreeTrainer, TrainParams
from .tree import DecisionTree, TreeEnsemble


@dataclass
class IterationLog:
    """Wall-clock accounting for one boosting iteration."""

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
        payload_cols: Sequence[str] = (),
        track_rmse: bool = False,
        fast: bool = True,
    ) -> None:
        graph.validate_tree()
        self.graph = graph
        self.n_iters = n_iters
        self.lr = learning_rate
        self.params = params or TrainParams()
        self.strategy = strategy
        self.payload_cols = tuple(payload_cols)
        self.track_rmse = track_rmse
        self.fast = fast
        self.snowflake = graph.is_snowflake()

    # ------------------------------------------------------------------
    def fit(self) -> GradientBoostingResult:
        return self._fit_snowflake() if self.snowflake else self._fit_galaxy()

    # -- snowflake ------------------------------------------------------
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
                keep_cols = df.columns
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

    def _fit_snowflake(self) -> GradientBoostingResult:
        g = self.graph
        fact, fact_y = self._fact_with_y()
        y = g.y_column
        base = float(fact_y.agg(F.avg(F.col(y))).collect()[0][0])
        needed = self._needed_cols(fact, fact_y)
        # Prefer the batched star path (one GROUPING SETS job per node,
        # see star_trainer.py); fall back to general message passing for
        # deeper snowflakes.
        star: Optional[StarTreeTrainer] = None
        if self.fast:
            try:
                star = StarTreeTrainer(g, self.params)
            except ValueError:
                star = None
        updater = SnowflakeResidualUpdater(
            graph=g,
            fact=fact,
            fact_df=fact_y,
            y=y,
            base_score=base,
            strategy=self.strategy,
            learning_rate=self.lr,
            payload_cols=self.payload_cols,
            needed_cols=needed,
            dim_pandas=star.dim_pandas if star is not None else None,
        )
        sr = VarianceSemiring(track_q=False)
        trainer = None if star is not None else FactorizedTreeTrainer(g, sr, self.params)
        ens = TreeEnsemble(base_score=base, learning_rate=self.lr)
        logs: List[IterationLog] = []
        for _ in range(self.n_iters):
            t0 = time.perf_counter()
            if star is not None:
                star.set_fact(updater.annotated())
                tree = star.train()
            else:
                trainer.engine.set_annotation(fact, updater.annotated())
                tree = trainer.train()
            t1 = time.perf_counter()
            updater.update(tree)
            ens.trees.append(tree)
            logs.append(
                IterationLog(
                    tree_seconds=t1 - t0,
                    update_seconds=updater.last_update_seconds,
                    rmse=updater.rmse() if self.track_rmse else None,
                )
            )
        if trainer is not None:
            trainer.engine.clear_cache()
        self._updater = updater  # kept for rmse() / inspection in tests
        return GradientBoostingResult(ens, logs)

    def _needed_cols(self, fact: str, fact_y) -> List[str]:
        """Slim fact projection: join keys + fact-local features."""
        g = self.graph
        cols = []
        for e in g.edges:
            if e.many == fact:
                cols.extend(e.keys)
        cols.extend(g.relations[fact].features)
        return [c for c in dict.fromkeys(cols) if c in fact_y.columns]

    # -- galaxy ---------------------------------------------------------
    def _cluster_stars(self, sr: VarianceSemiring) -> List[StarTreeTrainer]:
        """One star trainer per CPT cluster, sharing a message engine and
        the driver-side dimensions; empty unless every feature lies in a
        cluster whose feature relations are its fact or adjacent to it."""
        g = self.graph
        clusters = g.clusters()
        if not clusters or not all(
            any(r in m for m in clusters.values()) for _, r, _ in g.all_features()
        ):
            return []
        try:  # every cluster is a star, checked before any collect
            for h in clusters:
                star_columns(g, h)
        except ValueError:
            return []
        engine = MessageEngine(g, sr, eager=False)
        tables: dict = {}
        return [
            StarTreeTrainer(g, self.params, hub=h, engine=engine, tables=tables)
            for h in sorted(clusters)
        ]

    def _fit_galaxy(self) -> GradientBoostingResult:
        g = self.graph
        sr = VarianceSemiring(track_q=True)
        # Prefer the batched star path per cluster (one GROUPING SETS job
        # per node over the cluster's lifted fact, see star_trainer.py);
        # fall back to general message passing otherwise.
        stars = self._cluster_stars(sr) if self.fast else []
        trainer = None if stars else FactorizedTreeTrainer(g, sr, self.params)
        engine = stars[0].engine if stars else trainer.engine
        y_rel, y = g.y_relation, g.y_column
        # base score = mean of Y over R⋈ (weighted by join multiplicity)
        engine.lift_y()
        c0, s0, _ = engine.total({})
        base = s0 / c0
        # re-lift Y centred at the base score so annotations hold residuals
        y_df = g.relations[y_rel].df
        centred = F.col(y).cast("double") - F.lit(base)
        y_lifted = y_df.withColumns(sr.lift_exprs(centred))
        engine.set_annotation(y_rel, y_lifted)
        # If R_Y is itself a cluster fact, its update annotations must
        # compose with (not replace) the Y lift.
        updater = GalaxyAnnotationUpdater(
            g, learning_rate=self.lr, initial={y_rel: y_lifted},
            dim_pandas=stars[0].dim_pandas if stars else None,
        )
        ens = TreeEnsemble(base_score=base, learning_rate=self.lr)
        logs: List[IterationLog] = []
        for _ in range(self.n_iters):
            t0 = time.perf_counter()
            if stars:
                tree = stars[0].train(others=stars[1:])
            else:
                tree = trainer.train(cpt=True)
            t1 = time.perf_counter()
            new_ann = updater.update(tree)
            fact = tree.cluster
            assert fact is not None
            engine.set_annotation(fact, new_ann)
            rmse = None
            if self.track_rmse:
                c, _, q = engine.total({})
                rmse = (q / c) ** 0.5
            ens.trees.append(tree)
            logs.append(
                IterationLog(
                    tree_seconds=t1 - t0,
                    update_seconds=updater.last_update_seconds,
                    rmse=rmse,
                )
            )
        engine.clear_cache()
        self._updater = updater
        self._engine = engine
        return GradientBoostingResult(ens, logs)
