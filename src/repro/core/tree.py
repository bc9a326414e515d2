"""Decision tree model and its growth loop, shared by all trainers (paper §3.2).

A :class:`DecisionTree` is the *output* of training: a binary tree of
selection predicates with leaf predictions. It is engine-agnostic — the
factorized Spark trainer, the naive materialized trainer and the NumPy
baseline all emit this structure, which lets the parity tests assert
"returns models identical to LightGBM" (paper §5.1) by direct
comparison of ``to_dict()``.

:func:`grow` is Algorithm 1 (best-first growth over a priority queue of
leaves), written once: the factorized, star, naive and MADlib-like
trainers only supply how a node's candidate splits are scored and how
a child's context is derived, as LightGBM's leaf-wise growth does.

Prediction is offered three ways:

* :meth:`predict_expr` — one ``CASE WHEN`` Catalyst expression over the
  (possibly joined) feature columns: the pure-SQL inference path and the
  building block for snowflake residual updates;
* :meth:`predict_np` — vectorized NumPy over a pandas wide table;
* :meth:`leaves` — the leaf (predicate, prediction) list used by the
  update-relation / semi-join machinery of Section 4.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np
import pandas as pd
from pyspark.sql import Column
import pyspark.sql.functions as F

from .split import Split, pick


@dataclass(frozen=True)
class Pred:
    """One edge predicate: ``feature <= value`` (numeric, left side),
    ``feature > value`` (numeric, right), ``== value`` / ``!= value``
    (categorical)."""

    feature: str
    value: object
    numeric: bool
    left: bool  # True ⇒ σ side of the parent split, False ⇒ ¬σ

    def sql(self) -> str:
        v = repr(self.value) if isinstance(self.value, str) else self.value
        op = ("<=" if self.left else ">") if self.numeric else ("=" if self.left else "!=")
        return f"`{self.feature}` {op} {v}"

    def col(self) -> Column:
        c = F.col(self.feature)
        if self.numeric:
            return c <= F.lit(self.value) if self.left else c > F.lit(self.value)
        return c == F.lit(self.value) if self.left else c != F.lit(self.value)

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        v = pdf[self.feature].to_numpy()
        if self.numeric:
            return v <= self.value if self.left else v > self.value
        return v == self.value if self.left else v != self.value


@dataclass
class Node:
    """Tree node; ``split`` is None for leaves."""

    node_id: int
    depth: int
    preds: List[Pred] = field(default_factory=list)  # path conjunction from root
    prediction: Optional[float] = None
    split_feature: Optional[str] = None
    split_value: Optional[object] = None
    split_numeric: bool = False
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split_feature is None


@dataclass
class DecisionTree:
    """A trained tree; also records which CPT cluster it used (galaxy)."""

    root: Node
    cluster: Optional[str] = None

    # -- structure ------------------------------------------------------
    def leaves(self) -> List[Node]:
        out: List[Node] = []

        def rec(n: Node) -> None:
            if n.is_leaf:
                out.append(n)
            else:
                rec(n.left)  # type: ignore[arg-type]
                rec(n.right)  # type: ignore[arg-type]

        rec(self.root)
        return out

    def n_leaves(self) -> int:
        return len(self.leaves())

    def referenced_features(self) -> List[str]:
        feats = set()

        def rec(n: Node) -> None:
            if not n.is_leaf:
                feats.add(n.split_feature)
                rec(n.left)  # type: ignore[arg-type]
                rec(n.right)  # type: ignore[arg-type]

        rec(self.root)
        return sorted(feats)  # type: ignore[arg-type]

    def to_dict(self) -> Dict:
        """Canonical structure for model-parity assertions."""

        def rec(n: Node) -> Dict:
            if n.is_leaf:
                return {"leaf": round(float(n.prediction), 9)}
            return {
                "feature": n.split_feature,
                "value": n.split_value,
                "numeric": n.split_numeric,
                "left": rec(n.left),  # type: ignore[arg-type]
                "right": rec(n.right),  # type: ignore[arg-type]
            }

        return rec(self.root)

    # -- prediction -----------------------------------------------------
    def predict_expr(self) -> Column:
        """``CASE WHEN <leaf σ> THEN p …`` over joined feature columns."""

        def rec(n: Node) -> Column:
            if n.is_leaf:
                return F.lit(float(n.prediction))
            lpred = Pred(n.split_feature, n.split_value, n.split_numeric, True)
            return F.when(lpred.col(), rec(n.left)).otherwise(rec(n.right))

        return rec(self.root)

    def predict_np(self, pdf: pd.DataFrame) -> np.ndarray:
        out = np.empty(len(pdf), dtype="float64")

        def rec(n: Node, idx: np.ndarray) -> None:
            if n.is_leaf:
                out[idx] = float(n.prediction)
                return
            lpred = Pred(n.split_feature, n.split_value, n.split_numeric, True)
            m = lpred.mask(pdf.iloc[idx])
            rec(n.left, idx[m])
            rec(n.right, idx[~m])

        rec(self.root, np.arange(len(pdf)))
        return out


def top_split(params: Any, candidates: Iterable[Optional[Split]]) -> Optional[Split]:
    """GetBestSplit's fold (Algorithm 1, L11-16): the best candidate whose
    gain reaches ``params.min_gain``, with the shared tie-break."""
    best: Optional[Split] = None
    for s in candidates:
        if s is None or s.gain < params.min_gain:
            continue
        best = pick(best, s)
    return best


def grow(
    params: Any,
    root_state: Any,
    c0: float,
    s0: float,
    split0: Optional[Split],
    best: Callable[[Any, float, float], Iterable[Optional[Split]]],
    child: Callable[[Any, Pred], Any],
) -> DecisionTree:
    """Grow one tree best-first (Algorithm 1) from the root's totals
    ``(c0, s0)`` and best split ``split0``.

    The engine supplies only ``best(state, c, s)``, the candidate splits
    of a node (``None`` for a feature without one), and ``child(state,
    pred)``, the state of the child that ``pred`` selects. A state is
    whatever the engine needs to score a node. The left child is
    derived and scored before the right one. Every leaf holds the optimal
    value ``s / (c + λ)`` of Appendix B; ``params`` is a
    :class:`~repro.core.trainer.TrainParams`.
    """
    lam = params.reg_lambda
    ids = itertools.count()
    tie = itertools.count()  # FIFO among equal gains; never compares nodes

    def leaf(c: float, s: float) -> float:
        return 0.0 if c + lam == 0 else s / (c + lam)

    root = Node(next(ids), 0, prediction=leaf(c0, s0))
    heap: list = []
    if split0 is not None:
        heap.append((-split0.gain, next(tie), root, root_state, c0, s0, split0))
    n_leaves = 1
    while heap and n_leaves < params.max_leaves:
        _, _, node, state, c_t, s_t, split = heapq.heappop(heap)
        if node.depth + 1 > params.max_depth:
            continue
        node.split_feature = split.feature
        node.split_value = split.value
        node.split_numeric = split.numeric
        for left in (True, False):
            pred = Pred(split.feature, split.value, split.numeric, left)
            cstate = child(state, pred)
            c = split.c_left if left else c_t - split.c_left
            s = split.s_left if left else s_t - split.s_left
            kid = Node(next(ids), node.depth + 1, node.preds + [pred], leaf(c, s))
            if left:
                node.left = kid
            else:
                node.right = kid
            if kid.depth < params.max_depth and c > 2 * params.min_child:
                ksplit = top_split(params, best(cstate, c, s))
                if ksplit is not None:
                    entry = (-ksplit.gain, next(tie), kid, cstate, c, s, ksplit)
                    heapq.heappush(heap, entry)
        node.prediction = None
        n_leaves += 1
    return DecisionTree(root)


@dataclass
class TreeEnsemble:
    """Boosted or bagged ensemble with a shared base score."""

    trees: List[DecisionTree] = field(default_factory=list)
    base_score: float = 0.0
    learning_rate: float = 1.0
    average: bool = False  # True for random forests

    def predict_np(self, pdf: pd.DataFrame) -> np.ndarray:
        if not self.trees:
            return np.full(len(pdf), self.base_score)
        preds = np.stack([t.predict_np(pdf) for t in self.trees])
        if self.average:
            return self.base_score + preds.mean(axis=0)
        return self.base_score + self.learning_rate * preds.sum(axis=0)

    def predict_expr(self) -> Column:
        expr: Column = F.lit(float(self.base_score))
        if not self.trees:
            return expr
        total = self.trees[0].predict_expr()
        for t in self.trees[1:]:
            total = total + t.predict_expr()
        if self.average:
            return expr + total / F.lit(float(len(self.trees)))
        return expr + F.lit(float(self.learning_rate)) * total

    def rmse_np(self, pdf: pd.DataFrame, y: str) -> float:
        e = pdf[y].to_numpy(dtype="float64") - self.predict_np(pdf)
        return float(np.sqrt(np.mean(e * e)))
