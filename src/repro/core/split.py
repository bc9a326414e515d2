"""Best-split search from per-feature-value semi-ring sums (paper §3.3, Ex. 2).

Split evaluation never touches individual rows: given the tiny table of
``(value, c, s)`` sums produced by message passing, the criterion for
a candidate split σ is

    gain(σ) = s_σ²/(c_σ+λ) + (S−s_σ)²/(C−c_σ+λ) − S²/(C+λ)

which is the reduction-in-variance of Appendix A when λ=0 and the
second-order gain of Appendix B otherwise (up to the constant −α).

Two interchangeable implementations:

* :func:`best_split_sql` — the paper's pure-SQL formulation: window
  function ``SUM(...) OVER (ORDER BY value)`` for the numeric prefix
  sums, ``ORDER BY criteria DESC LIMIT 1`` on top (Example 2). Runs on
  Spark SQL; used by the fidelity trainer mode and oracle tests.
* :func:`best_split_np` — vectorized NumPy twin over the collected
  stats (the paper's "Pandas/R dataframe backend"); used by the fast
  trainer paths. It takes a stats frame, or the star trainer's
  ``(values, c, s)`` arrays already in value order, which skip the
  sort. Tests assert both return the same split.

Numeric features split as ``X <= v`` / ``X > v`` (inclusive prefix
sums, last value excluded so no empty side); categorical features split
one-vs-rest ``X == v`` / ``X != v``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
import pyspark.sql.functions as F

from .semiring import PREFIX


@dataclass(frozen=True)
class Split:
    """One evaluated candidate split of a tree node."""

    feature: str
    value: object
    numeric: bool  # numeric ⇒ predicate `feature <= value`, else `== value`
    gain: float
    c_left: float  # c (or h) mass on the σ side
    s_left: float  # s (or g) mass on the σ side


def better(a: float, b: float) -> bool:
    """Is gain ``a`` strictly better than ``b``?

    Tolerant to floating summation-order noise (Spark partial
    aggregates vs pandas groupby): gains within 1e-9 relative are
    considered tied and fall through to the lexicographic feature-name
    tie-break, which keeps the factorized trainer and the in-memory
    baseline choosing identical splits (the model-parity guarantee).
    """
    return a > b + 1e-9 * max(1.0, abs(b))


def pick(best: Optional[Split], cand: Optional[Split]) -> Optional[Split]:
    """Fold one candidate into the running best, with the shared tie-break."""
    if cand is None:
        return best
    if best is None or better(cand.gain, best.gain):
        return cand
    if not better(best.gain, cand.gain) and cand.feature < best.feature:
        return cand
    return best


def _gain(
    c_l: np.ndarray, s_l: np.ndarray, c_tot: float, s_tot: float, lam: float
) -> np.ndarray:
    c_r = c_tot - c_l
    s_r = s_tot - s_l
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (
            (s_l / (c_l + lam)) * s_l
            + (s_r / (c_r + lam)) * s_r
            - (s_tot / (c_tot + lam)) * s_tot
        )
    return g


def best_split_np(
    stats: Union[pd.DataFrame, Tuple[np.ndarray, np.ndarray, np.ndarray]],
    feature: str,
    numeric: bool,
    c_total: float,
    s_total: float,
    reg_lambda: float = 0.0,
    min_child: float = 1.0,
) -> Optional[Split]:
    """Best split for one feature from its ``(value, __c, __s)`` stats:
    a DataFrame, or a ``(values, c, s)`` tuple of arrays already in
    value order."""
    if isinstance(stats, pd.DataFrame):
        # deterministic tie-break: smallest value wins, matching the SQL
        # variant's ORDER BY criteria DESC, value
        stats = stats.sort_values(feature, kind="stable")
        vals = stats[feature].to_numpy()
        c = stats[PREFIX + "c"].to_numpy(dtype="float64")
        s = stats[PREFIX + "s"].to_numpy(dtype="float64")
    else:
        vals, c, s = stats
    if len(vals) == 0:
        return None
    if numeric:
        if len(vals) < 2:
            return None
        # never an empty right side
        vals, c, s = vals[:-1], np.cumsum(c)[:-1], np.cumsum(s)[:-1]
    gains = _gain(c, s, c_total, s_total, reg_lambda)
    ok = (c >= min_child) & (c_total - c >= min_child) & np.isfinite(gains)
    if not ok.any():
        return None
    gains = np.where(ok, gains, -np.inf)
    i = int(np.argmax(gains))
    return Split(
        feature=feature,
        value=vals[i].item() if hasattr(vals[i], "item") else vals[i],
        numeric=numeric,
        gain=float(gains[i]),
        c_left=float(c[i]),
        s_left=float(s[i]),
    )


def best_split_sql(
    stats_df: DataFrame,
    feature: str,
    numeric: bool,
    c_total: float,
    s_total: float,
    reg_lambda: float = 0.0,
    min_child: float = 1.0,
) -> Optional[Split]:
    """Same as :func:`best_split_np`, but as a Spark SQL query.

    This is the paper's Example 2 rendered in the DataFrame API: window
    prefix sums for numeric splits, then ``ORDER BY criteria DESC
    LIMIT 1``. The stats table is tiny (≤ #distinct feature values), so
    the query is driver-light regardless of data scale.
    """
    c, s = F.col(PREFIX + "c"), F.col(PREFIX + "s")
    df = stats_df
    if numeric:
        w = (
            Window.orderBy(feature)
            .rowsBetween(Window.unboundedPreceding, Window.currentRow)
        )
        df = df.select(
            feature, F.sum(c).over(w).alias(PREFIX + "c"), F.sum(s).over(w).alias(PREFIX + "s")
        )
        # drop the max value: `X <= max` has an empty complement
        mx = df.agg(F.max(feature)).collect()[0][0]
        if mx is None:
            return None
        df = df.filter(F.col(feature) < F.lit(mx))
    lam = F.lit(float(reg_lambda))
    C, S = F.lit(float(c_total)), F.lit(float(s_total))
    c, s = F.col(PREFIX + "c"), F.col(PREFIX + "s")
    df = df.select(
        feature,
        c,
        s,
        (
            (s / (c + lam)) * s
            + ((S - s) / (C - c + lam)) * (S - s)
            - (S / (C + lam)) * S
        ).alias("criteria"),
    ).filter((c >= F.lit(float(min_child))) & (C - c >= F.lit(float(min_child))))
    row = df.orderBy(F.desc("criteria"), feature).limit(1).collect()
    if not row:
        return None
    r = row[0]
    if r["criteria"] is None or not np.isfinite(r["criteria"]):
        return None
    return Split(
        feature=feature,
        value=r[feature],
        numeric=numeric,
        gain=float(r["criteria"]),
        c_left=float(r[PREFIX + "c"]),
        s_left=float(r[PREFIX + "s"]),
    )
