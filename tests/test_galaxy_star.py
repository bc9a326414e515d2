"""Galaxy GB on the star path: one lifted fact per CPT cluster (§4.2.2).

Every test compares against the general message-passing path
(``fast=False``) or against the materialized join ``R⋈``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pytest

from repro.core.gbm import GradientBoosting
from repro.core.join_graph import JoinGraph
from repro.core.messages import MessageEngine
from repro.core.residual import GalaxyAnnotationUpdater, leaf_condition
from repro.core.semiring import PREFIX, VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import TrainParams
from repro.core.tree import DecisionTree, Node, Pred
from repro.oracle import assert_equivalent


@dataclass
class Galaxy:
    """A generated galaxy: its join graph and materialized ``R⋈``."""

    graph: JoinGraph
    wide: pd.DataFrame
    y: str


def _two_cluster_galaxy(spark, two_hop: bool = False) -> Galaxy:
    """``store ← sale → item ← review → user``, Y on ``item``.

    Y is driven by a sale-side level (weight 100) and a review-side level
    (weight 80), and ``item`` has no feature, so the first tree locks the
    ``sale`` cluster and, once its effect is shrunk, a later tree locks
    ``review``. With ``two_hop``, ``store`` joins a ``region`` dimension
    that holds a feature two hops from ``sale``.
    """
    rng = np.random.default_rng(3)
    n = 40
    a, b = rng.integers(0, 2, n), rng.integers(0, 2, n)
    n_sale, n_rev = rng.integers(1, 4, n), rng.integers(1, 4, n)
    item = pd.DataFrame(
        {
            "item_id": np.arange(1, n + 1),
            "y": (100 * a + 80 * b + rng.integers(-5, 6, n)).astype("float64"),
        }
    )
    sale = pd.DataFrame(
        {
            "item_id": np.repeat(item["item_id"], n_sale),
            "store_id": rng.integers(1, 9, n_sale.sum()),
            "s_lvl": np.repeat(10 * a, n_sale) + rng.integers(0, 5, n_sale.sum()),
        }
    )
    review = pd.DataFrame(
        {
            "item_id": np.repeat(item["item_id"], n_rev),
            "user_id": rng.integers(1, 13, n_rev.sum()),
            "r_lvl": np.repeat(10 * b, n_rev) + rng.integers(0, 5, n_rev.sum()),
        }
    )
    store = pd.DataFrame(
        {
            "store_id": np.arange(1, 9),
            "region_id": rng.integers(1, 4, 8),
            "st_size": rng.integers(1, 100, 8),
        }
    )
    user = pd.DataFrame({"user_id": np.arange(1, 13), "u_age": rng.integers(18, 80, 12)})
    region = pd.DataFrame({"region_id": [1, 2, 3], "rg_pop": [5, 7, 9]})
    g = JoinGraph()
    g.add_relation("item", spark.createDataFrame(item), y="y")
    g.add_relation("sale", spark.createDataFrame(sale), features=["s_lvl"], numeric=["s_lvl"])
    g.add_relation("review", spark.createDataFrame(review), features=["r_lvl"], numeric=["r_lvl"])
    g.add_relation("store", spark.createDataFrame(store), features=["st_size"], numeric=["st_size"])
    g.add_relation("user", spark.createDataFrame(user), features=["u_age"], numeric=["u_age"])
    g.add_edge("sale", "item", ["item_id"])
    g.add_edge("review", "item", ["item_id"])
    g.add_edge("sale", "store", ["store_id"])
    g.add_edge("review", "user", ["user_id"])
    if two_hop:
        g.add_relation("region", spark.createDataFrame(region), features=["rg_pop"], numeric=["rg_pop"])
        g.add_edge("store", "region", ["region_id"])
    wide = sale.merge(store, on="store_id").merge(item, on="item_id")
    wide = wide.merge(review, on="item_id").merge(user, on="user_id")
    if two_hop:
        wide = wide.merge(region, on="region_id")
    return Galaxy(g, wide, "y")


@pytest.fixture(scope="module")
def two_clusters(spark):
    return _two_cluster_galaxy(spark)


@pytest.fixture(scope="module")
def two_hop(spark):
    return _two_cluster_galaxy(spark, two_hop=True)


@pytest.fixture(scope="module")
def imdb_galaxy(imdb_tiny):
    return Galaxy(imdb_tiny.graph, imdb_tiny.wide_pandas(), "rating")


def _fit(data: Galaxy, fast: bool, **params):
    return GradientBoosting(
        data.graph, n_iters=params.pop("n_iters", 4), learning_rate=0.5,
        params=TrainParams(**params), track_rmse=True, fast=fast,
    ).fit()


def _assert_fast_equals_slow_and_oracle(data: Galaxy, **params):
    fast = _fit(data, True, **params)
    slow = _fit(data, False, **params)
    assert [t.to_dict() for t in fast.ensemble.trees] == [
        t.to_dict() for t in slow.ensemble.trees
    ]
    assert [t.cluster for t in fast.ensemble.trees] == [
        t.cluster for t in slow.ensemble.trees
    ]
    for res in (fast, slow):
        expect = res.ensemble.rmse_np(data.wide, data.y)
        assert res.logs[-1].rmse == pytest.approx(expect, rel=1e-9)
    return fast


class TestStarPathParity:
    @pytest.mark.parametrize("max_leaves", [3, 4])
    def test_imdb_fast_equals_slow(self, imdb_galaxy, max_leaves):
        _assert_fast_equals_slow_and_oracle(imdb_galaxy, max_leaves=max_leaves)

    def test_trees_lock_both_clusters(self, two_clusters):
        res = _assert_fast_equals_slow_and_oracle(two_clusters, max_leaves=3)
        assert {t.cluster for t in res.ensemble.trees} == {"review", "sale"}

    def test_two_hop_dimension_falls_back(self, two_hop):
        gb = GradientBoosting(two_hop.graph, params=TrainParams(max_leaves=3))
        assert gb._cluster_stars(VarianceSemiring(track_q=True)) == []
        _assert_fast_equals_slow_and_oracle(two_hop, max_leaves=3)

    @pytest.mark.parametrize(
        "name, hubs",
        [("imdb_galaxy", ["cast_info", "movie_company"]), ("two_clusters", ["review", "sale"])],
    )
    def test_uses_star_path(self, request, name, hubs):
        gb = GradientBoosting(request.getfixturevalue(name).graph)
        stars = gb._cluster_stars(VarianceSemiring(track_q=True))
        assert [t.hub for t in stars] == hubs
        assert stars[0].engine is stars[1].engine
        assert stars[0].dim_pandas is stars[1].dim_pandas


class TestSingleLeafTree:
    """A galaxy tree without a root split shifts every R⋈ row once."""

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize(
        "params", [dict(max_leaves=1), dict(max_leaves=4, min_gain=1e18)]
    )
    def test_rmse_matches_materialized(self, imdb_galaxy, fast, params):
        res = _fit(imdb_galaxy, fast, n_iters=2, **params)
        clusters = sorted(imdb_galaxy.graph.clusters())
        for t in res.ensemble.trees:
            assert t.n_leaves() == 1
            assert t.cluster == clusters[0]
        expect = res.ensemble.rmse_np(imdb_galaxy.wide, "rating")
        assert res.logs[-1].rmse == pytest.approx(expect, rel=1e-9)


class TestLiftedFactOracle:
    """Per-feature root ``(c, s)`` from each lifted fact ``L_k`` equals
    ``GROUP BY feature`` over the materialized join (DuckDB), after a
    tree in one cluster has annotated its fact."""

    def test_root_stats_match_duckdb(self, spark, imdb_galaxy):
        g = imdb_galaxy.graph
        lr = 0.5
        engine = MessageEngine(g, VarianceSemiring(track_q=True), eager=False)
        engine.lift_y()
        stars = [
            StarTreeTrainer(g, TrainParams(), hub=h, engine=engine)
            for h in sorted(g.clusters())
        ]
        # one tree in the cast_info cluster: its leaf preds sit on a
        # fact-local and a dimension feature
        root = Node(0, 0, split_feature="ci_role", split_value=500, split_numeric=True)
        left, right = Pred("ci_role", 500, True, True), Pred("ci_role", 500, True, False)
        root.left = Node(1, 1, preds=[left], prediction=3.0)
        root.right = Node(
            2, 1, preds=[right], split_feature="p_age", split_value=400,
            split_numeric=True,
        )
        root.right.left = Node(3, 2, preds=[right, Pred("p_age", 400, True, True)], prediction=-7.0)
        root.right.right = Node(4, 2, preds=[right, Pred("p_age", 400, True, False)], prediction=11.0)
        tree = DecisionTree(root, cluster="cast_info")
        updater = GalaxyAnnotationUpdater(g, learning_rate=lr)
        engine.set_annotation("cast_info", updater.update(tree))
        wide = imdb_galaxy.wide.copy()
        wide["resid"] = wide["rating"] - lr * tree.predict_np(wide)
        try:
            for star in stars:
                star._root(None, set())
                cols = star._grouping_cols(list(star.feature_col))
                stats = star._node_stats({}, cols)
                for f in star.feature_col:
                    fs = star._feature_stats(stats, cols, f).rename(
                        columns={f: "value", PREFIX + "c": "c", PREFIX + "s": "s"}
                    )
                    assert_equivalent(
                        spark.createDataFrame(fs[["value", "c", "s"]]),
                        f"SELECT {f} AS value, CAST(COUNT(*) AS DOUBLE) AS c, "
                        f"SUM(resid) AS s FROM wide GROUP BY {f}",
                        wide=wide,
                    )
        finally:
            for star in stars:
                star._release()
            updater.close()
            engine.clear_cache()


class TestGalaxyLeafPushDown:
    def test_driver_tables_select_same_rows(self, imdb_tiny):
        """``leaf_condition`` picks the same cluster-fact rows with the
        driver-side dimensions as through Spark collects."""
        g = imdb_tiny.graph
        dims = {n: t for n, t in imdb_tiny.tables.items() if n not in g.clusters()}
        leaves = [
            Node(0, 1, preds=[Pred("m_year", 500, True, True)]),
            Node(1, 2, preds=[Pred("m_year", 500, True, False), Pred("p_age", 300, True, True)]),
            Node(2, 2, preds=[Pred("ci_role", 200, True, False), Pred("m_year", 600, True, True)]),
            Node(3, 2, preds=[Pred("mc_deal", 100, True, True), Pred("co_size", 600, True, False)]),
        ]
        for fact, members in g.clusters().items():
            df = g.relations[fact].df
            for leaf in leaves:
                if any(g.feature_relation(p.feature) not in members for p in leaf.preds):
                    continue
                with_tables = df.filter(leaf_condition(g, fact, leaf, dims))
                without = df.filter(leaf_condition(g, fact, leaf))
                a = sorted(map(tuple, with_tables.toPandas().to_numpy().tolist()))
                b = sorted(map(tuple, without.toPandas().to_numpy().tolist()))
                assert a == b and len(a) > 0
