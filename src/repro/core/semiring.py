"""Commutative semi-rings for factorized tree training (paper Table 1).

A semi-ring annotation is stored as a set of ordinary DataFrame columns
named ``{prefix}{component}`` (default prefix ``__``, so the variance
semi-ring occupies ``__c``, ``__s``, ``__q``). Joins multiply
annotations (⊗) and group-bys sum them (⊕); both are emitted as
Catalyst column expressions so the whole computation stays inside
Spark SQL — the paper's "pure SQL" constraint.

:class:`VarianceSemiring` — ``(c, s, q) = (count, Σy, Σy²)`` — supports
the rmse criterion and, crucially, is *addition-to-multiplication
preserving* (paper Definition 1), which is what makes factorized
gradient boosting possible: ``lift(y − p) = lift(y) ⊗ lift(−p)``.

It also exposes NumPy twins of lift/⊗ so the in-memory baseline
(``repro.baselines.npgbm``) and the property tests share one algebra
definition with the SQL path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
from pyspark.sql import Column, DataFrame
import pyspark.sql.functions as F

#: default column-name prefix for semi-ring components
PREFIX = "__"


@dataclass(frozen=True)
class VarianceSemiring:
    """The variance semi-ring ``(Z, R, R)`` of paper Table 1.

    ``track_q=False`` drops the ``q`` component: the reduction-in-
    variance criterion cancels Q (paper Appendix A), so training only
    needs ``(c, s)`` — the paper's own optimization ("only s is needed
    ... c and q are not necessary to materialize"). Model-quality
    reporting (rmse) re-enables ``q``.
    """

    track_q: bool = True
    prefix: str = PREFIX

    # ------------------------------------------------------------------
    @property
    def components(self) -> tuple:
        return ("c", "s", "q") if self.track_q else ("c", "s")

    def cols(self, prefix: str | None = None) -> list:
        p = self.prefix if prefix is None else prefix
        return [p + c for c in self.components]

    # -- lift ----------------------------------------------------------
    def lift_exprs(self, y: str | Column) -> Dict[str, Column]:
        """``lift(y) = (1, y, y²)`` as named Catalyst expressions."""
        ycol = F.col(y) if isinstance(y, str) else y
        ycol = ycol.cast("double")
        out = {
            self.prefix + "c": F.lit(1.0),
            self.prefix + "s": ycol,
        }
        if self.track_q:
            out[self.prefix + "q"] = ycol * ycol
        return out

    def identity_exprs(self) -> Dict[str, Column]:
        """The ⊗-identity ``1 = (1, 0, 0)`` used for non-Y relations."""
        out = {self.prefix + "c": F.lit(1.0), self.prefix + "s": F.lit(0.0)}
        if self.track_q:
            out[self.prefix + "q"] = F.lit(0.0)
        return out

    def lift(self, df: DataFrame, y: str | None) -> DataFrame:
        """Annotate ``df``: lift on column ``y``, or with 1 if ``y`` is None.

        Creates a *copy* with extra columns — user data is never
        modified in place (paper Section 5.2, "Safety").
        """
        exprs = self.lift_exprs(y) if y is not None else self.identity_exprs()
        return df.withColumns(exprs)

    # -- ⊗ (join) ------------------------------------------------------
    def mult_exprs(self, a: str, b: str) -> Dict[str, Column]:
        """⊗ of two annotations held under column prefixes ``a`` and ``b``.

        ``(c₁,s₁,q₁) ⊗ (c₂,s₂,q₂) =
        (c₁c₂, s₁c₂ + s₂c₁, q₁c₂ + q₂c₁ + 2s₁s₂)`` — paper Table 1.
        """
        c1, s1 = F.col(a + "c"), F.col(a + "s")
        c2, s2 = F.col(b + "c"), F.col(b + "s")
        out = {
            self.prefix + "c": c1 * c2,
            self.prefix + "s": s1 * c2 + s2 * c1,
        }
        if self.track_q:
            q1, q2 = F.col(a + "q"), F.col(b + "q")
            out[self.prefix + "q"] = q1 * c2 + q2 * c1 + 2 * s1 * s2
        return out

    # -- ⊕ (group-by) --------------------------------------------------
    def sum_exprs(self, prefix: str | None = None) -> list:
        """⊕-aggregation: component-wise SUM, aliased back to the prefix."""
        p = self.prefix if prefix is None else prefix
        return [F.sum(F.col(p + c)).alias(self.prefix + c) for c in self.components]

    # -- numpy twins ---------------------------------------------------
    def lift_np(self, y: np.ndarray) -> np.ndarray:
        """Row-wise lift of a vector → ``(n, len(components))`` matrix."""
        cols = [np.ones_like(y, dtype="float64"), y.astype("float64")]
        if self.track_q:
            cols.append((y * y).astype("float64"))
        return np.stack(cols, axis=1)

    def mult_np(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """⊗ on ``(..., k)`` stacked annotations (broadcasting)."""
        c = a[..., 0] * b[..., 0]
        s = a[..., 1] * b[..., 0] + b[..., 1] * a[..., 0]
        if self.track_q:
            q = a[..., 2] * b[..., 0] + b[..., 2] * a[..., 0] + 2 * a[..., 1] * b[..., 1]
            return np.stack([c, s, q], axis=-1)
        return np.stack([c, s], axis=-1)
