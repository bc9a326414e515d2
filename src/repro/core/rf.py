"""Random forests over normalized data (paper Section 5.5.2).

Each tree trains on (a) a row sample of ``R⋈`` and (b) a feature
sample, then predictions are averaged. Row sampling over the
*non-materialized* join uses:

* the paper's snowflake shortcut — the fact table is 1-1 with ``R⋈``,
  so sample F directly ("Minor Optimizations", §5.5.2); this is what
  the Favorita experiments use, or
* :func:`ancestral_sample` for general acyclic graphs — the paper's
  ancestral-sampling scheme made vectorized: walk the join tree from a
  root relation; at each relation draw the per-tuple multiplicities
  from the marginal COUNT annotations (computed factorized, without
  materializing ``R⋈``), conditioned on the keys sampled upstream.

Inter-query parallelism (paper §5.5.3 / Fig 18): trees are independent,
so with ``n_jobs > 1`` they train on a thread pool, each with its own
:class:`MessageEngine` (Spark happily runs concurrent jobs from
threads); this reproduces the paper's ~35% RF speed-up ablation (T11).
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from .join_graph import JoinGraph
from .semiring import PREFIX, VarianceSemiring
from .star_trainer import StarTreeTrainer, star_columns
from .trainer import FactorizedTreeTrainer, TrainParams
from .tree import DecisionTree, TreeEnsemble


@dataclass
class RandomForestResult:
    ensemble: TreeEnsemble
    tree_seconds: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0


class RandomForest:
    """Bagged factorized trees; snowflake schemas only (as in the paper's
    RF experiments — galaxy RF would need ancestral sampling over
    clusters, which the paper does not evaluate)."""

    def __init__(
        self,
        graph: JoinGraph,
        n_trees: int = 8,
        row_fraction: float = 0.1,
        feature_fraction: float = 0.8,
        params: Optional[TrainParams] = None,
        n_jobs: int = 1,
        seed: int = 0,
    ) -> None:
        graph.validate_tree()
        if not graph.is_snowflake():
            raise ValueError("RandomForest requires a snowflake schema")
        self.graph = graph
        self.n_trees = n_trees
        self.row_fraction = row_fraction
        self.feature_fraction = feature_fraction
        self.params = params or TrainParams()
        self.n_jobs = n_jobs
        self.seed = seed
        self.fact = next(iter(graph.clusters()))
        self._lifted_base: Optional[DataFrame] = None
        self._star_template: Optional[StarTreeTrainer] = None
        try:
            star_columns(graph, self.fact)
        except ValueError:  # not a star: general message passing
            pass
        else:
            self._star_template = StarTreeTrainer(graph, self.params)

    def _sample_features(self, rng: np.random.Generator) -> List[str]:
        feats = [f for f, _, _ in self.graph.all_features()]
        k = max(1, int(round(len(feats) * self.feature_fraction)))
        return sorted(rng.choice(feats, size=k, replace=False).tolist())

    def _train_one(self, i: int) -> Tuple[DecisionTree, float]:
        rng = np.random.default_rng(self.seed + i)
        t0 = time.perf_counter()
        g = self.graph
        sr = VarianceSemiring(track_q=False)
        # snowflake shortcut (§5.5.2): F is 1-1 with R⋈ — sample F directly
        assert self._lifted_base is not None
        sampled = self._lifted_base.sample(
            withReplacement=False, fraction=self.row_fraction, seed=self.seed + i
        )
        feats = self._sample_features(rng)
        # cache the sample: every node evaluation of this tree aggregates
        # it, and an uncached sample would re-draw from the base per query
        annotated = sampled.cache()
        annotated.count()
        try:
            if self._star_template is not None:
                star = self._star_template.clone()
                star.set_fact(annotated)
                tree = star.train(features=feats)
            else:
                # fresh trainer/engine per tree: samples differ, so messages
                # from the fact side cannot be shared between trees anyway
                trainer = FactorizedTreeTrainer(self.graph, sr, self.params)
                trainer.engine.set_annotation(self.fact, annotated)
                tree = trainer.train(features=feats)
                trainer.engine.clear_cache()
        finally:
            annotated.unpersist()
        return tree, time.perf_counter() - t0

    def fit(self) -> RandomForestResult:
        t0 = time.perf_counter()
        g = self.graph
        if g.y_relation != self.fact:
            raise ValueError("snowflake RF expects Y on the fact table")
        sr = VarianceSemiring(track_q=False)
        # lift + cache the fact once per forest; per-tree samples are
        # then narrow scans of the cached copy instead of full rescans
        self._lifted_base = sr.lift(
            g.relations[self.fact].df, g.y_column
        ).cache()
        self._lifted_base.count()
        try:
            if self.n_jobs > 1:
                with ThreadPoolExecutor(self.n_jobs) as ex:
                    results = list(ex.map(self._train_one, range(self.n_trees)))
            else:
                results = [self._train_one(i) for i in range(self.n_trees)]
        finally:
            self._lifted_base.unpersist()
            self._lifted_base = None
        wall = time.perf_counter() - t0
        ens = TreeEnsemble(trees=[t for t, _ in results], average=True)
        return RandomForestResult(ens, [s for _, s in results], wall)


# ----------------------------------------------------------------------
# Ancestral sampling over a join tree (general, non-snowflake case).
# ----------------------------------------------------------------------
def ancestral_sample(
    graph: JoinGraph, n: int, root: Optional[str] = None, seed: int = 0
) -> pd.DataFrame:
    """Draw ``n`` uniform samples of ``R⋈`` without materializing it.

    Vectorized version of the paper's ancestral sampling (§5.5.2):

    1. Annotate every relation with the COUNT semi-ring and compute, for
       each relation ``R`` visited root-outward, the *downstream weight*
       of each tuple — the number of ``R⋈`` rows it expands into below
       itself (the product of incoming child messages).
    2. Sample the root's tuples from their normalized weights, then walk
       each edge outward, sampling child tuples per drawn parent key
       from the child-side conditional weights.

    Returns a pandas DataFrame holding the sampled join keys and all
    feature/Y columns of every relation. Intended for modest ``n`` —
    it drives correctness tests and the galaxy-RF path, not bulk scans.
    """
    from .messages import MessageEngine  # local import to avoid cycle

    graph.validate_tree()
    root = root or graph.y_relation
    rng = np.random.default_rng(seed)
    sr = VarianceSemiring(track_q=False)
    engine = MessageEngine(graph, sr, eager=False)

    def weights(name: str, parent: Optional[str]) -> pd.DataFrame:
        """Tuples of ``name`` with their downstream ⊗-product counts."""
        df, ann = engine._gather(name, parent, {})
        if not ann:
            df = df.withColumns(sr.identity_exprs())
        return df.toPandas()

    out: Optional[pd.DataFrame] = None

    def visit(name: str, parent: Optional[str], parent_rows: Optional[pd.DataFrame]):
        nonlocal out
        pdf = weights(name, parent)
        w = pdf[PREFIX + "c"].to_numpy(dtype="float64")
        keep = [c for c in pdf.columns if not c.startswith(PREFIX)]
        if parent is None:
            p = w / w.sum()
            idx = rng.choice(len(pdf), size=n, replace=True, p=p)
            out = pdf.iloc[idx][keep].reset_index(drop=True)
        else:
            edge = graph.edge(name, parent)
            key = list(edge.keys)
            # conditional draw per sampled parent row, grouped by key
            chosen_rows = []
            grouped = {k: g for k, g in pdf.groupby(key[0] if len(key) == 1 else key)}
            for _, prow in out[key].iterrows():
                k = prow[key[0]] if len(key) == 1 else tuple(prow[c] for c in key)
                g = grouped[k]
                gw = g[PREFIX + "c"].to_numpy(dtype="float64")
                j = rng.choice(len(g), p=gw / gw.sum())
                chosen_rows.append(g.iloc[j][[c for c in keep if c not in out.columns]])
            extra = pd.DataFrame(chosen_rows).reset_index(drop=True)
            out = pd.concat([out, extra], axis=1)
        for _, child in graph.neighbors(name):
            if child != parent:
                visit(child, name, out)

    visit(root, None, None)
    assert out is not None
    return out
