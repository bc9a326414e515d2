"""Message passing with caching over a join tree (paper Sections 3.1–3.3, 5.5.1).

The :class:`MessageEngine` evaluates semi-ring aggregation queries
``γ_A(σ(R⋈))`` without materializing ``R⋈``: aggregations (⊕) are
pushed through joins (⊗) along the join tree, each hop emitting a
*message* — an aggregated annotated relation keyed by the join keys.
Every message is a small Spark DataFrame produced by a plain SPJA
query, cached via ``.cache()`` (the paper materializes messages as
DBMS tables).

**Message cache / cross-node sharing.** A message ``m_{src→dst}``
depends only on (a) the edge, (b) the annotations and (c) the selection
predicates of relations in the *subtree behind src* (away from dst).
We key the cache on exactly that, so:

* within one tree node, the messages for different feature group-bys
  share automatically (paper Example 3), and
* across parent/child tree nodes, a child's new predicate only touches
  subtrees containing the split relation — every other message is a
  cache hit (paper Section 5.5.1 / Example 7, the 3× win over LMFAO).

**Identity-message optimization** (paper Appendix D): a message from a
dimension-side subtree whose relations are unannotated and unfiltered
is the ⊗-identity per join key and is dropped (the join it feeds is
skipped), assuming no missing join keys — the paper's snowflake
"identity path" rule.

Predicates are passed as a *context*: ``{relation: (cond_sql, ...)}``
with each condition a Spark SQL boolean expression over that relation's
own columns. Tree-node predicates always live on single relations
(split attributes), so this is fully general for tree training.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame
import pyspark.sql.functions as F

from .join_graph import Edge, JoinGraph
from .semiring import PREFIX

#: context type: relation name → sorted tuple of predicate SQL strings
Context = Dict[str, Tuple[str, ...]]

_TMP = "__rhs_"  # temporary prefix for the right side of an ⊗ join


def ctx_key(context: Context) -> FrozenSet:
    return frozenset((r, p) for r, preds in context.items() for p in preds)


def ctx_with(context: Context, relation: str, pred: str) -> Context:
    """A copy of ``context`` with ``pred`` appended for ``relation``."""
    new = dict(context)
    new[relation] = tuple(sorted(new.get(relation, ()) + (pred,)))
    return new


@dataclass
class EngineStats:
    """Query census used by the Fig-9 reproduction (T3)."""

    message_queries: int = 0
    message_cache_hits: int = 0
    absorption_queries: int = 0

    def reset(self) -> None:
        self.message_queries = 0
        self.message_cache_hits = 0
        self.absorption_queries = 0


class MessageEngine:
    """Factorized SPJA evaluation over a :class:`JoinGraph`."""

    def __init__(self, graph: JoinGraph, semiring, eager: bool = True):
        graph.validate_tree()
        self.graph = graph
        self.semiring = semiring
        self.eager = eager
        #: per-relation annotation DataFrame; None ⇒ identity annotation
        self.annotated: Dict[str, Optional[DataFrame]] = {
            name: None for name in graph.relations
        }
        self._cache: Dict[Tuple, Optional[DataFrame]] = {}
        self.stats = EngineStats()

    # -- annotation management -----------------------------------------
    def set_annotation(self, name: str, df: Optional[DataFrame]) -> None:
        """Install an annotated copy of relation ``name`` (or identity).

        Invalidates every cached message whose subtree contains
        ``name`` — e.g. after a gradient-boosting residual update on a
        fact table.
        """
        if name not in self.graph.relations:
            raise ValueError(f"unknown relation {name!r}")
        self.annotated[name] = df
        stale = [k for k in self._cache if name in k[2]]  # k[2] = subtree
        for k in stale:
            m = self._cache.pop(k)
            if m is not None:
                m.unpersist()

    def lift_y(self) -> None:
        """Annotate the Y relation with ``lift(y)`` (others stay identity)."""
        rel = self.graph.relations[self.graph.y_relation]
        self.set_annotation(rel.name, self.semiring.lift(rel.df, rel.y))

    def clear_cache(self) -> None:
        for m in self._cache.values():
            if m is not None:
                m.unpersist()
        self._cache.clear()

    # -- internals ------------------------------------------------------
    def _subtree(self, src: str, dst: str) -> FrozenSet[str]:
        """Relations on ``src``'s side of edge (src, dst)."""
        members = {src}
        frontier = [src]
        while frontier:
            cur = frontier.pop()
            for _, o in self.graph.neighbors(cur):
                if o != dst and o not in members:
                    members.add(o)
                    frontier.append(o)
        return frozenset(members)

    def _local(self, name: str, context: Context) -> Tuple[DataFrame, bool]:
        """Relation ``name`` with its annotation and predicates applied.

        Returns ``(df, annotated)`` — ``annotated`` False means the
        frame carries no semi-ring columns (identity annotation).
        """
        base = self.annotated[name]
        if base is None:
            df, ann = self.graph.relations[name].df, False
        else:
            df, ann = base, True
        for pred in context.get(name, ()):
            df = df.filter(pred)
        return df, ann

    def _join_mult(
        self, left: DataFrame, lann: bool, right: DataFrame, rann: bool,
        keys: Sequence[str], broadcast_right: bool = True,
    ) -> Tuple[DataFrame, bool]:
        """Inner equi-join with semi-ring multiplication of annotations.

        Messages and dimension tables are small by construction (the
        whole point of factorization), so the right side is broadcast —
        the documented per-query re-enable of broadcast joins.
        """
        sr = self.semiring
        rhs = right
        if rann:
            for c in sr.cols():
                rhs = rhs.withColumnRenamed(c, _TMP + c[len(PREFIX):])
        if broadcast_right:
            rhs = F.broadcast(rhs)
        joined = left.join(rhs, on=list(keys), how="inner")
        if lann and rann:
            joined = joined.withColumns(sr.mult_exprs(PREFIX, _TMP))
            joined = joined.drop(*[_TMP + c[len(PREFIX):] for c in sr.cols()])
            return joined, True
        if rann and not lann:
            for c in sr.cols():
                joined = joined.withColumnRenamed(_TMP + c[len(PREFIX):], c)
            return joined, True
        return joined, lann

    def _gather(
        self, name: str, parent: Optional[str], context: Context
    ) -> Tuple[DataFrame, bool]:
        """Relation ``name`` joined with all messages from its children."""
        df, ann = self._local(name, context)
        for e, child in self.graph.neighbors(name):
            if child == parent:
                continue
            msg = self.message(child, name, context)
            if msg is None:  # identity message dropped
                continue
            msg_ann = self.semiring.cols()[0] in msg.columns
            df, ann = self._join_mult(df, ann, msg, msg_ann, e.keys)
        return df, ann

    # -- public API -----------------------------------------------------
    def message(
        self, src: str, dst: str, context: Context
    ) -> Optional[DataFrame]:
        """Compute (or fetch) message ``m_{src→dst}``.

        Returns None when the identity-message optimization applies.
        The message schema is ``edge keys + semi-ring columns``.
        """
        edge = self.graph.edge(src, dst)
        subtree = self._subtree(src, dst)
        key = (
            src,
            dst,
            subtree,
            frozenset(
                (r, p) for r, preds in context.items() if r in subtree for p in preds
            ),
        )
        if key in self._cache:
            self.stats.message_cache_hits += 1
            return self._cache[key]

        # identity-message drop: unannotated, unfiltered dimension-side
        # subtree ⇒ message is 1 per key (src must be a duplicate-free
        # 1-side, which only a declared N-to-1 edge guarantees).
        if (
            src == edge.one
            and edge.n_to_one
            and all(self.annotated[r] is None for r in subtree)
            and all(not context.get(r) for r in subtree)
        ):
            self._cache[key] = None
            return None

        df, ann = self._gather(src, dst, context)
        if not ann and src == edge.one and edge.n_to_one:
            # 1-side subtree, filtered but unannotated: the message is a
            # key filter (semi-join message, paper Appendix D) —
            # annotation stays implicit 1; emit distinct keys only.
            out = df.select(*edge.keys).distinct().cache()
        else:
            if not ann:
                # many-side subtree without explicit annotations: tuple
                # multiplicities matter, so materialize the implicit 1
                # annotation before aggregating (yields per-key COUNTs).
                df = df.withColumns(self.semiring.identity_exprs())
            out = (
                df.groupBy(*edge.keys)
                .agg(*self.semiring.sum_exprs())
                .cache()
            )
        if self.eager:
            out.count()
        self.stats.message_queries += 1
        self._cache[key] = out
        return out

    def absorb(
        self, root: str, group_by: Optional[str], context: Context
    ) -> DataFrame:
        """``γ_{group_by}(σ_context(R⋈))`` with root ``root``.

        ``group_by=None`` computes the full aggregate (single row).
        The result is a *tiny* DataFrame of semi-ring sums per group.
        """
        df, ann = self._gather(root, None, context)
        if not ann:
            # nothing annotated anywhere: aggregate identity = COUNT
            df = df.withColumns(self.semiring.identity_exprs())
        self.stats.absorption_queries += 1
        if group_by is None:
            return df.agg(*self.semiring.sum_exprs())
        return df.groupBy(group_by).agg(*self.semiring.sum_exprs())

    def lifted(self, name: str) -> DataFrame:
        """Relation ``name`` with every incoming message multiplied in.

        Each row's semi-ring columns are then the sum over the ``R⋈``
        rows it joins, so any group-by over ``name``'s own columns (its
        join keys included) equals that group-by over ``R⋈``: the lifted
        cluster fact the galaxy star path aggregates (paper §4.2).
        """
        df, ann = self._gather(name, None, {})
        return df if ann else df.withColumns(self.semiring.identity_exprs())

    def aggregate_feature(self, feature: str, context: Context) -> DataFrame:
        """Per-feature-value semi-ring sums: root at the feature's relation."""
        return self.absorb(self.graph.feature_relation(feature), feature, context)

    def total(self, context: Context) -> tuple:
        """Collected full aggregate ``(c, s, …)`` for the context."""
        row = self.absorb(self.graph.y_relation, None, context).collect()[0]
        return tuple(row[c] or 0.0 for c in self.semiring.cols())
