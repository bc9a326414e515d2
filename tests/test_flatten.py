"""Flattened dimension branches (paper §3.2, Appendix D).

Every branch out of a cluster fact is N-to-1 at every hop, so it joins
into one driver-side table keyed by the fact's first-hop key. Past the
first hop the join must keep ``R⋈``'s rows: a key that dangles or
repeats there raises. A multi-column first-hop key raises before any
table is collected.
"""
import pandas as pd
import pytest

from repro.core.gbm import GradientBoosting
from repro.core.join_graph import JoinGraph
from repro.core.residual import flatten
from repro.core.rf import RandomForest
from repro.core.trainer import TrainParams


def _chain(spark, customer: pd.DataFrame) -> JoinGraph:
    """``lineitem → orders → customer``, Y on ``lineitem``."""
    lineitem = pd.DataFrame(
        {"o_key": [1, 2, 3, 4, 1, 2], "l_f": [1, 2, 3, 4, 5, 6], "y": [1.0, 2, 3, 4, 5, 6]}
    )
    orders = pd.DataFrame({"o_key": [1, 2, 3, 4], "c_key": [7, 8, 9, 7], "o_f": [10, 20, 30, 40]})
    g = JoinGraph()
    g.add_relation("lineitem", spark.createDataFrame(lineitem), features=["l_f"], numeric=["l_f"], y="y")
    g.add_relation("orders", spark.createDataFrame(orders), features=["o_f"], numeric=["o_f"])
    g.add_relation("customer", spark.createDataFrame(customer), features=["c_f"], numeric=["c_f"])
    g.add_edge("lineitem", "orders", ["o_key"])
    g.add_edge("orders", "customer", ["c_key"])
    return g


class TestFlatten:
    def test_branch_keeps_the_first_hop_rows(self, spark):
        g = _chain(spark, pd.DataFrame({"c_key": [9, 8, 7], "c_f": [3, 2, 1]}))
        orders = flatten(g, "orders").sort_values("o_key").reset_index(drop=True)
        expect = pd.DataFrame(
            {"o_key": [1, 2, 3, 4], "c_key": [7, 8, 9, 7], "o_f": [10, 20, 30, 40], "c_f": [1, 2, 3, 1]}
        )
        pd.testing.assert_frame_equal(orders, expect, check_dtype=False)
        customer = flatten(g, "customer")
        assert list(customer.columns) == ["c_key", "c_f"]

    @pytest.mark.parametrize(
        "customer, defect",
        [
            # orders.c_key 9 is missing from customer
            (pd.DataFrame({"c_key": [7, 8], "c_f": [1, 2]}), "dangles"),
            # customer repeats c_key 8
            (pd.DataFrame({"c_key": [7, 8, 8, 9], "c_f": [1, 2, 3, 4]}), "repeats"),
        ],
        ids=["dangling", "repeated"],
    )
    def test_gradient_boosting_and_random_forest_raise(self, spark, customer, defect):
        g = _chain(spark, customer)
        match = r"'orders' → 'customer' on \['c_key'\].*dangles or repeats"
        with pytest.raises(ValueError, match=match):
            GradientBoosting(g, n_iters=1, params=TrainParams(max_leaves=2)).fit()
        with pytest.raises(ValueError, match=match):
            RandomForest(g, n_trees=1)


class TestMultiColumnKeys:
    """The star path groups and filters by one fact column per branch."""

    @pytest.fixture(scope="class")
    def two_key(self, spark):
        fact = pd.DataFrame(
            {"k1": [1, 1, 2, 2], "k2": [1, 2, 1, 2], "f_loc": [1, 2, 3, 4], "y": [1.0, 2, 3, 4]}
        )
        dim = pd.DataFrame({"k1": [1, 1, 2, 2], "k2": [1, 2, 1, 2], "fd": [5, 6, 7, 8]})
        g = JoinGraph()
        g.add_relation("fact", spark.createDataFrame(fact), features=["f_loc"], numeric=["f_loc"], y="y")
        g.add_relation("dim", spark.createDataFrame(dim), features=["fd"], numeric=["fd"])
        g.add_edge("fact", "dim", ["k1", "k2"])
        return g

    @pytest.fixture
    def collects(self, two_key, monkeypatch):
        frame = type(two_key.relations["fact"].df)
        calls = []
        for name in ("toPandas", "collect"):
            orig = getattr(frame, name)
            monkeypatch.setattr(
                frame, name, lambda df, _orig=orig: calls.append(df) or _orig(df)
            )
        return calls

    def test_gradient_boosting_raises_before_any_collect(self, two_key, collects):
        with pytest.raises(NotImplementedError, match=r"\['k1', 'k2'\]"):
            GradientBoosting(two_key, n_iters=1, params=TrainParams(max_leaves=2)).fit()
        assert collects == []

    def test_random_forest_raises_before_any_collect(self, two_key, collects):
        with pytest.raises(NotImplementedError, match=r"\['k1', 'k2'\]"):
            RandomForest(two_key, n_trees=1)
        assert collects == []
