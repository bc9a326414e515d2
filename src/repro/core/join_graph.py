"""Join graph for factorized training (paper Sections 3.1, 4.2, 5.1).

A :class:`JoinGraph` mirrors JoinBoost's "training dataset" object: the
user registers relations (Spark DataFrames), equi-join edges, the
feature columns of each relation, and the target variable. The graph

* validates acyclicity (message passing needs a join *tree*; the paper
  pre-joins cycles away via hypertree decomposition — we require the
  caller to have done so and raise otherwise),
* orients edges toward any chosen root and yields the message schedule
  (post-order leaf→root walk, paper Section 3.1),
* discovers **Clustered Predicate Tree** clusters for galaxy schemas
  (paper Section 4.2.2): for every relation ``F`` that sits on the
  *many* side of at least one edge, ``cluster(F)`` is ``F`` plus every
  relation reachable from ``F`` along many→one edges. Within a cluster
  all leaf predicates can be pushed to ``F`` as semi-joins without
  creating cycles.

Edges are declared with a direction: ``add_edge(a, b, keys)`` states
that ``a`` is the *many* side and ``b`` the *one* side (fact → dim).
This is the only cardinality metadata the algorithms need; M-N
relationships in galaxy schemas arise from two fact tables sharing
dimensions, never from a single edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame


@dataclass
class Relation:
    """One registered relation and its training metadata."""

    name: str
    df: DataFrame
    features: List[str] = field(default_factory=list)
    #: numeric features use inequality splits; others use equality
    numeric: frozenset = frozenset()
    y: Optional[str] = None


@dataclass(frozen=True)
class Edge:
    """Equi-join edge; ``many`` is the fact/N side, ``one`` the dim/1 side.

    ``n_to_one=False`` declares a general M-N edge (neither side is
    key-unique, e.g. the paper's Fig 1 example relations): message
    passing stays correct, but the identity-message and semi-join
    optimizations (which require a duplicate-free one side) are
    disabled, and the edge does not contribute to CPT clusters.
    """

    many: str
    one: str
    keys: Tuple[str, ...]
    n_to_one: bool = True

    def other(self, name: str) -> str:
        return self.one if name == self.many else self.many

    def touches(self, name: str) -> bool:
        return name in (self.many, self.one)


class JoinGraph:
    """The normalized training dataset: relations + join edges + X/Y."""

    def __init__(self) -> None:
        self.relations: Dict[str, Relation] = {}
        self.edges: List[Edge] = []

    # -- construction --------------------------------------------------
    def add_relation(
        self,
        name: str,
        df: DataFrame,
        features: Sequence[str] = (),
        y: str | None = None,
        numeric: Sequence[str] = (),
    ) -> "JoinGraph":
        if name in self.relations:
            raise ValueError(f"duplicate relation {name!r}")
        self.relations[name] = Relation(
            name, df, list(features), frozenset(numeric), y
        )
        return self

    def add_edge(
        self, many: str, one: str, keys: Sequence[str], n_to_one: bool = True
    ) -> "JoinGraph":
        for n in (many, one):
            if n not in self.relations:
                raise ValueError(f"unknown relation {n!r}")
        e = Edge(many, one, tuple(keys), n_to_one)
        if any(set((x.many, x.one)) == {many, one} for x in self.edges):
            raise ValueError(f"duplicate edge {many}-{one}")
        self.edges.append(e)
        return self

    # -- basic queries --------------------------------------------------
    @property
    def y_relation(self) -> str:
        rels = [r.name for r in self.relations.values() if r.y is not None]
        if len(rels) != 1:
            raise ValueError(f"exactly one relation must carry Y, got {rels}")
        return rels[0]

    @property
    def y_column(self) -> str:
        return self.relations[self.y_relation].y  # type: ignore[return-value]

    def neighbors(self, name: str) -> List[Tuple[Edge, str]]:
        return [(e, e.other(name)) for e in self.edges if e.touches(name)]

    def edge(self, a: str, b: str) -> Edge:
        """The edge joining ``a`` and ``b``, whichever side each is on."""
        for e in self.edges:
            if {e.many, e.one} == {a, b}:
                return e
        raise ValueError(f"no edge between {a!r} and {b!r}")

    def feature_relation(self, feature: str) -> str:
        """The relation holding ``feature`` (features must be unique)."""
        rels = [r.name for r in self.relations.values() if feature in r.features]
        if len(rels) != 1:
            raise ValueError(f"feature {feature!r} found in {rels}")
        return rels[0]

    def all_features(self) -> List[Tuple[str, str, bool]]:
        """``(feature, relation, is_numeric)`` over the whole graph."""
        out = []
        for r in self.relations.values():
            for f in r.features:
                out.append((f, r.name, f in r.numeric))
        return out

    # -- structure ------------------------------------------------------
    def validate_tree(self) -> None:
        """Require the join graph to be a connected tree (acyclic).

        Cyclic graphs must be pre-joined via hypertree decomposition
        before registration (paper footnote 1); we surface that
        contract as an error instead of silently producing wrong
        aggregates.
        """
        n = len(self.relations)
        if len(self.edges) != n - 1:
            raise ValueError(
                f"join graph must be a tree: {n} relations need {n - 1} "
                f"edges, got {len(self.edges)} (cycles must be pre-joined "
                "via hypertree decomposition)"
            )
        seen = set()
        stack = [next(iter(self.relations))]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(o for _, o in self.neighbors(cur) if o not in seen)
        if len(seen) != n:
            raise ValueError("join graph is disconnected (cross products not supported)")

    def message_schedule(self, root: str) -> List[Tuple[str, str, Edge]]:
        """Leaf→root message order for message passing toward ``root``.

        Returns ``(src, dst, edge)`` triples such that every relation's
        incoming messages are scheduled before its outgoing one — the
        "blocks until all children have emitted" rule of Section 3.1.
        """
        self.validate_tree()
        if root not in self.relations:
            raise ValueError(f"unknown root {root!r}")
        order: List[Tuple[str, str, Edge]] = []

        def visit(node: str, parent: str | None) -> None:
            for e, o in self.neighbors(node):
                if o != parent:
                    visit(o, node)
                    order.append((o, node, e))

        visit(root, None)
        return order

    def path(self, src: str, dst: str) -> List[str]:
        """The unique relation path ``src → … → dst`` in the join tree."""
        self.validate_tree()

        def dfs(node: str, parent: str | None, trail: List[str]) -> Optional[List[str]]:
            trail = trail + [node]
            if node == dst:
                return trail
            for _, o in self.neighbors(node):
                if o != parent:
                    if (r := dfs(o, node, trail)) is not None:
                        return r
            return None

        r = dfs(src, None, [])
        assert r is not None, "tree is connected, path must exist"
        return r

    def materialize(self) -> DataFrame:
        """``R₁ ⋈ … ⋈ Rₙ`` as one wide DataFrame (shuffle joins).

        This is exactly what factorized training avoids; it exists for
        the non-factorized comparators ("Naive", the ML-library
        pipeline) and the correctness oracles.
        """
        self.validate_tree()
        root = self.y_relation
        df = self.relations[root].df
        # message_schedule is leaf→root post-order; reversed yields a
        # root-outward order where each edge's inner endpoint is already
        # part of the running join
        for src, dst, e in reversed(self.message_schedule(root)):
            df = df.join(self.relations[src].df, on=list(e.keys), how="inner")
        return df

    # -- Clustered Predicate Trees (galaxy schemas) ---------------------
    def clusters(self) -> Dict[str, frozenset]:
        """CPT clusters: ``{fact: members}`` per paper Section 4.2.2.

        A relation is a cluster fact iff it is the many-side of at
        least one edge; its cluster is the closure along many→one
        edges. Only *maximal* clusters are returned (a cluster fully
        contained in another adds no trainable features).
        """
        facts = {e.many for e in self.edges if e.n_to_one}
        out: Dict[str, frozenset] = {}
        for f in facts:
            members = {f}
            frontier = [f]
            while frontier:
                cur = frontier.pop()
                for e in self.edges:
                    if e.n_to_one and e.many == cur and e.one not in members:
                        members.add(e.one)
                        frontier.append(e.one)
            out[f] = frozenset(members)
        # drop non-maximal clusters
        maximal = {
            f: m
            for f, m in out.items()
            if not any(m < m2 for f2, m2 in out.items() if f2 != f)
        }
        return maximal

    def is_snowflake(self) -> bool:
        """True when a single fact reaches every relation (one cluster)."""
        cl = self.clusters()
        return len(cl) == 1 and len(next(iter(cl.values()))) == len(self.relations)

    def cluster_of_feature(self, feature: str) -> List[str]:
        """Cluster facts whose cluster contains ``feature``'s relation."""
        rel = self.feature_relation(feature)
        return sorted(f for f, m in self.clusters().items() if rel in m)

    def cpt_cluster(self, root_feature: Optional[str]) -> str:
        """The cluster fact a CPT tree locks (Section 4.2.2): the first
        cluster by name holding the root split's relation, or the first
        cluster when there is no root split (each cluster fact holds one
        row of every ``R⋈`` row, so a constant shift goes through it)."""
        if root_feature is None:
            return min(self.clusters())
        return self.cluster_of_feature(root_feature)[0]
