"""Residual updates over the non-materialized join (paper §§4.1, 5.3, 5.4).

**Predicate push-down.** A leaf predicate references dimension
attributes; :func:`leaf_condition` translates it into a predicate over
the fact table alone by walking each referenced relation's join path
back to the fact and turning every hop into a semi-join
(``key IN (SELECT key FROM σ(D))``, paper §4.1). Dimensions are small
by assumption, so the matching key sets are collected to the driver and
inlined by :func:`key_filter` as one SQL ``key IN (v₁, v₂, …)`` string,
one JVM call however many keys. This keeps the final update a *single*
narrow expression over F, which is what makes the CREATE/SWAP
strategies cheap. :func:`fact_condition` is the one push-down shared by
the snowflake update, the galaxy update and the star trainer's node
filter.

**Update strategies** (paper Fig 5 / Fig 15):

* ``naive``  — materialize the update relation ``U`` (distinct
  referenced fact columns → −p) and rebuild ``F ⋈ U`` (paper §4.2.1's
  unoptimized form). Pays a join plus a full-table copy.
* ``create`` — rebuild F with a ``CASE WHEN`` residual column
  (paper §5.3.1's CREATE); pays a full-row copy, so its cost grows with
  the ``k`` payload columns carried along.
* ``swap``   — the paper's column-swap/projection idea (§5.4) mapped to
  immutable Spark DataFrames: the updater only ever carries the *slim*
  projection of F (join keys + fact-side features + residual), so each
  update materializes one column's worth of new data regardless of
  ``k`` — "adding the new residual column as a projection". The paper's
  note that only ``s`` must be materialized (tech report) is what makes
  the slim table sufficient for training.

The paper's ``SET`` (in-place UPDATE) has no Spark analogue —
DataFrames are immutable; EXPERIMENTS.md discusses the gap.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import Column, DataFrame

from .join_graph import JoinGraph
from .semiring import PREFIX
from .tree import DecisionTree, Node, Pred


def _sql_literal(column: str, value) -> str:
    """One join-key value as a Spark SQL literal.

    Integers render as decimal; strings single-quoted with ``\\`` and
    ``'`` escaped, and ``${`` broken up so the parser's variable
    substitution cannot rewrite the key (assumes the default
    ``spark.sql.parser.escapedStringLiterals=false``). Any other type
    raises rather than risk a filter that silently matches other rows.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return "'" + escaped.replace("${", "$\\{") + "'"
    raise TypeError(
        f"cannot push down a key filter on column {column!r}: unsupported "
        f"key type {type(value).__name__} ({value!r}); only integer and "
        "string keys are supported"
    )


def key_filter(column: str, values: Sequence) -> Column:
    """``column IN (values)`` as one parsed SQL expression.

    ``Column.isin`` crosses py4j once per literal; this builds the same
    ``In`` predicate (which Catalyst turns into ``InSet`` above 10
    literals either way) from a single string. An empty key set is
    FALSE, as ``isin([])`` is, since SQL ``k IN ()`` does not parse.
    """
    if len(values) == 0:
        return F.lit(False)
    name = "`" + column.replace("`", "``") + "`"
    literals = ", ".join(_sql_literal(column, v) for v in values)
    return F.expr(f"{name} IN ({literals})")


def push_keys_to(
    graph: JoinGraph,
    target: str,
    relation: str,
    preds: Sequence[Pred],
    tables: Optional[Dict[str, "pd.DataFrame"]] = None,
) -> Tuple[str, List]:
    """Push ``σ_preds(relation)`` to ``target`` as a key filter.

    Walks the unique join-tree path relation → … → target, at each hop
    collecting the matching join-key values (the semi-join rewrite
    ``D_{i-1} ⋉ σ(D_i)`` of §4.1). Returns ``(key_col, values)`` where
    ``key_col`` is a column of ``target``. Only single-column join keys
    are supported on this fast path (all schemas here comply); the
    general case would fall back to a left-semi join.

    ``tables`` optionally maps relation names to driver-resident pandas
    copies (dimensions are small by assumption); hops through those run
    vectorized on the driver instead of issuing collect jobs.
    """
    path = graph.path(relation, target)
    assert path[0] == relation and path[-1] == target

    def filtered_keys(name: str, key_in, key_vals, out_key: str) -> List:
        """σ over relation ``name`` (pred filter and/or key filter) → out keys."""
        if tables is not None and name in tables:
            pdf = tables[name]
            mask = np.ones(len(pdf), dtype=bool)
            if name == relation:
                for p in preds:
                    mask &= p.mask(pdf)
            if key_in is not None:
                mask &= pdf[key_in].isin(key_vals).to_numpy()
            return pd.unique(pdf.loc[mask, out_key]).tolist()
        df = graph.relations[name].df
        if name == relation:
            for p in preds:
                df = df.filter(p.col())
        if key_in is not None:
            df = df.filter(key_filter(key_in, key_vals))
        return [r[0] for r in df.select(out_key).distinct().collect()]

    key_in, key_vals = None, None
    for i in range(len(path) - 1):
        cur, nxt = path[i], path[i + 1]
        edge = graph.edge(cur, nxt)
        if len(edge.keys) != 1:
            raise NotImplementedError("multi-column join keys on semi-join path")
        key = edge.keys[0]
        values = filtered_keys(cur, key_in, key_vals, key)
        if i == len(path) - 2:
            return key, values
        key_in, key_vals = key, values
    # relation == target: predicates already reference target's columns
    raise AssertionError("unreachable: path has ≥2 relations when relation != target")


def fact_condition(
    graph: JoinGraph,
    fact: str,
    preds_by_relation: Mapping[str, Sequence[Pred]],
    tables: Optional[Dict[str, "pd.DataFrame"]] = None,
) -> Column:
    """Predicates grouped by their relation, as one predicate over ``fact``.

    Predicates on ``fact`` apply as they are; those on any other
    relation become a :func:`key_filter` on the keys
    :func:`push_keys_to` collects.
    """
    cond = F.lit(True)
    for rel, preds in sorted(preds_by_relation.items()):
        if rel == fact:
            for p in preds:
                cond = cond & p.col()
        else:
            key, values = push_keys_to(graph, fact, rel, preds, tables)
            cond = cond & key_filter(key, values)
    return cond


def leaf_condition(
    graph: JoinGraph,
    fact: str,
    leaf: Node,
    tables: Optional[Dict[str, "pd.DataFrame"]] = None,
) -> Column:
    """Leaf predicate ``l.σ`` rewritten as a predicate over ``fact`` only."""
    by_rel: Dict[str, List[Pred]] = {}
    for p in leaf.preds:
        by_rel.setdefault(graph.feature_relation(p.feature), []).append(p)
    return fact_condition(graph, fact, by_rel, tables)


def _case_new_s(
    conditions: List[Tuple[Column, float]], s_col: str, lr: float
) -> Column:
    """``CASE WHEN l₁.σ THEN s − lr·p₁ … ELSE s`` (paper §5.3.1 CREATE)."""
    expr: Optional[Column] = None
    s = F.col(s_col)
    for cond, p in conditions:
        upd = s - F.lit(lr * p)
        expr = F.when(cond, upd) if expr is None else expr.when(cond, upd)
    return s if expr is None else expr.otherwise(s)


@dataclass
class SnowflakeResidualUpdater:
    """Owns the fact table's residual column across boosting iterations.

    ``fact_df`` must already contain the target column ``y``; the
    residual ``__s`` is initialized to ``y − base_score`` (a lifted
    *copy* — user data is never modified, paper §5.2).

    ``payload_cols`` simulates the paper's ``CREATE-k`` microbenchmark:
    extra columns the create/naive strategies must carry through every
    rebuild, while ``swap`` sheds them up front.
    """

    graph: JoinGraph
    fact: str
    fact_df: DataFrame
    y: str
    base_score: float
    strategy: str = "swap"
    learning_rate: float = 0.1
    payload_cols: Sequence[str] = ()
    needed_cols: Sequence[str] = ()
    #: optional driver-side copies of the dimension tables, so leaf
    #: predicate push-down avoids per-leaf collect jobs
    dim_pandas: Optional[Dict[str, pd.DataFrame]] = None
    current: DataFrame = field(init=False)
    last_update_seconds: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.strategy not in ("naive", "create", "swap"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        cols = list(self.needed_cols)
        if self.strategy in ("naive", "create"):
            cols += [c for c in self.payload_cols if c not in cols]
        s = (F.col(self.y).cast("double") - F.lit(self.base_score)).alias(PREFIX + "s")
        self.current = self.fact_df.select(*cols, s).cache()
        self.current.count()

    # -- the engine-facing view ----------------------------------------
    def annotated(self) -> DataFrame:
        """Fact view with full semi-ring columns ``(c=1, s=ε, q=ε²)``."""
        s = F.col(PREFIX + "s")
        return self.current.withColumns({PREFIX + "c": F.lit(1.0), PREFIX + "q": s * s})

    # -- the per-iteration update ---------------------------------------
    def update(self, tree: DecisionTree) -> DataFrame:
        """Rewrite the residual column for one tree; returns
        :meth:`annotated`, the fact's new annotation."""
        conds = [
            (
                leaf_condition(self.graph, self.fact, leaf, self.dim_pandas),
                float(leaf.prediction),
            )
            for leaf in tree.leaves()
        ]
        t0 = time.perf_counter()
        old = self.current
        if self.strategy == "naive":
            self.current = self._update_naive(conds, tree)
        else:  # create and swap share the CASE WHEN; they differ in the
            # column set `current` carries (payload vs slim projection)
            new_s = _case_new_s(conds, PREFIX + "s", self.learning_rate)
            keep = [c for c in old.columns if c != PREFIX + "s"]
            self.current = old.select(*keep, new_s.alias(PREFIX + "s")).cache()
        self.current.count()
        old.unpersist()
        self.last_update_seconds = time.perf_counter() - t0
        return self.annotated()

    def _update_naive(
        self, conds: List[Tuple[Column, float]], tree: DecisionTree
    ) -> DataFrame:
        """Materialize U over the referenced fact columns, then F ⋈ U."""
        old = self.current
        ref_cols = sorted(
            set(self._referenced_columns(tree)) & set(old.columns)
        )
        if not ref_cols:  # tree with a single leaf: constant shift
            new_s = _case_new_s(conds, PREFIX + "s", self.learning_rate)
            return old.select(
                *[c for c in old.columns if c != PREFIX + "s"],
                new_s.alias(PREFIX + "s"),
            ).cache()
        # −lr·p per leaf, as a direct CASE (never via s−(s−lr·p), which
        # would leak per-row float error into U and break distinctness)
        neg_p: Optional[Column] = None
        for cond, p in conds:
            val = F.lit(-self.learning_rate * p)
            neg_p = F.when(cond, val) if neg_p is None else neg_p.when(cond, val)
        assert neg_p is not None
        u = (
            old.select(*ref_cols)
            .withColumn("__neg_p", neg_p.otherwise(F.lit(0.0)))
            .distinct()
            .cache()
        )
        u.count()
        keep = [c for c in old.columns if c != PREFIX + "s"]
        out = (
            old.join(u, on=ref_cols, how="inner")
            .select(*keep, (F.col(PREFIX + "s") + F.col("__neg_p")).alias(PREFIX + "s"))
            .cache()
        )
        out.count()
        u.unpersist()
        return out

    def _referenced_columns(self, tree: DecisionTree) -> List[str]:
        """Fact columns the update relation U projects (paper §4.2.1's A).

        A fact-local split feature references itself; a dimension split
        references the fact's join key on the first hop of the path
        toward that dimension (the column its semi-join filters on).
        """
        cols = set()
        for f in tree.referenced_features():
            rel = self.graph.feature_relation(f)
            if rel == self.fact:
                cols.add(f)
            else:
                path = self.graph.path(self.fact, rel)
                cols.add(self.graph.edge(path[0], path[1]).keys[0])
        return sorted(cols)

    def close(self) -> None:
        self.current.unpersist()


@dataclass
class GalaxyAnnotationUpdater:
    """Accumulate residual-update annotations on cluster fact tables (§4.2).

    Each cluster fact row carries ``(c, s, q)``, initially the ⊗-identity
    ``(1, 0, 0)`` (represented implicitly — no annotation installed).
    After a CPT tree with leaves ``(σ, p)``, matching rows are multiplied
    by ``lift(−lr·p) = (1, −lr·p, (lr·p)²)``:

        (c, s, q) ⊗ (1, −p̃, p̃²) = (c, s − p̃·c, q + p̃²·c − 2·p̃·s)

    Because annotations of joined relations multiply, any aggregate the
    next tree asks for automatically sees the updated residuals without
    referencing individual Y values — Proposition 4.1 in action.
    """

    graph: JoinGraph
    learning_rate: float = 0.1
    #: per-cluster-fact annotated DataFrame (None ⇒ identity)
    annotations: Dict[str, Optional[DataFrame]] = field(default_factory=dict)
    #: pre-existing annotations to compose with (e.g. the Y relation's
    #: lift when R_Y itself is a cluster fact)
    initial: Dict[str, DataFrame] = field(default_factory=dict)
    #: optional driver-side copies of small relations for predicate
    #: push-down without collect jobs
    dim_pandas: Optional[Dict[str, pd.DataFrame]] = None
    last_update_seconds: float = field(init=False, default=0.0)

    def annotation(self, fact: str) -> Optional[DataFrame]:
        return self.annotations.get(fact)

    def update(self, tree: DecisionTree) -> DataFrame:
        """Fold one CPT tree's predictions into its cluster fact."""
        fact = tree.cluster
        if fact is None:
            raise ValueError("tree has no cluster — was it trained with cpt=True?")
        t0 = time.perf_counter()
        base = self.annotations.get(fact)
        if base is None:
            base = self.initial.get(fact)
        if base is None:
            base = (
                self.graph.relations[fact]
                .df.withColumn(PREFIX + "c", F.lit(1.0))
                .withColumn(PREFIX + "s", F.lit(0.0))
                .withColumn(PREFIX + "q", F.lit(0.0))
            )
        c, s, q = (F.col(PREFIX + x) for x in ("c", "s", "q"))
        # p̃ per row: CASE WHEN over the leaf conditions (0 when no leaf
        # matches — cannot happen for exhaustive leaves, but safe).
        p_expr: Optional[Column] = None
        for leaf in tree.leaves():
            cond = leaf_condition(self.graph, fact, leaf, self.dim_pandas)
            val = F.lit(self.learning_rate * float(leaf.prediction))
            p_expr = F.when(cond, val) if p_expr is None else p_expr.when(cond, val)
        assert p_expr is not None
        p = p_expr.otherwise(F.lit(0.0))
        keep = [x for x in base.columns if x not in (PREFIX + "s", PREFIX + "q")]
        new = base.select(
            *keep,
            (s - p * c).alias(PREFIX + "s"),
            (q + p * p * c - 2 * p * s).alias(PREFIX + "q"),
        ).cache()
        new.count()
        old = self.annotations.get(fact)
        self.annotations[fact] = new
        if old is not None:
            old.unpersist()
        self.last_update_seconds = time.perf_counter() - t0
        return new

    def close(self) -> None:
        for df in self.annotations.values():
            if df is not None:
                df.unpersist()
        self.annotations.clear()
