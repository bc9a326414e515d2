"""Galaxy GB on the star path: one lifted fact per CPT cluster (§4.2.2).

Every test compares against a CPT reference over the materialized join
``R⋈`` (:func:`_cpt_reference`), against ``R⋈`` itself, or against
DuckDB over ``R⋈``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pytest

from repro.baselines.npgbm import NpTreeTrainer
from repro.core.gbm import GradientBoosting
from repro.core.join_graph import JoinGraph
from repro.core.messages import MessageEngine
from repro.core.residual import GalaxyAnnotationUpdater, flatten, leaf_condition
from repro.core.semiring import VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import TrainParams
from repro.core.tree import DecisionTree, Node, Pred, TreeEnsemble
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


LR = 0.5


def _fit(data: Galaxy, **params):
    return GradientBoosting(
        data.graph, n_iters=params.pop("n_iters", 4), learning_rate=LR,
        params=TrainParams(**params), track_rmse=True,
    ).fit()


def _cpt_reference(data: Galaxy, n_iters: int, params: TrainParams):
    """Galaxy GB over the materialized ``R⋈`` with the CPT rule spelled
    out: each tree's root split is picked over all features, and the
    tree grows on the features of the cluster that split locks
    (``graph.cpt_cluster``). Returns the ensemble and the final rmse."""
    g = data.graph
    feats = g.all_features()
    trainer = NpTreeTrainer(
        data.wide, [f for f, _, _ in feats], [f for f, _, num in feats if num], params
    )
    y = data.wide[data.y].to_numpy(dtype="float64")
    ens = TreeEnsemble(base_score=float(y.mean()), learning_rate=LR)
    resid = y - ens.base_score
    for _ in range(n_iters):
        cluster = g.cpt_cluster(trainer.train(resid).root.split_feature)
        members = g.clusters()[cluster]
        tree = trainer.train(resid, [f for f, r, _ in feats if r in members])
        tree.cluster = cluster
        resid -= LR * tree.predict_np(data.wide)
        ens.trees.append(tree)
    return ens, float(np.sqrt(np.mean(resid**2)))


def _assert_equals_cpt_reference(data: Galaxy, **params):
    n_iters = params.pop("n_iters", 4)
    res = _fit(data, n_iters=n_iters, **params)
    ref, ref_rmse = _cpt_reference(data, n_iters, TrainParams(**params))
    assert [t.to_dict() for t in res.ensemble.trees] == [t.to_dict() for t in ref.trees]
    assert [t.cluster for t in res.ensemble.trees] == [t.cluster for t in ref.trees]
    expect = res.ensemble.rmse_np(data.wide, data.y)
    assert res.logs[-1].rmse == pytest.approx(expect, rel=1e-9)
    assert ref_rmse == pytest.approx(expect, rel=1e-9)
    return res


def _m_to_n_galaxy(spark) -> JoinGraph:
    """``store ← sale → item``, Y on ``item``, and a ``tag`` relation
    joined to ``item`` over an M-N edge: ``t_lvl`` lies in no cluster."""
    item = pd.DataFrame({"item_id": [1, 2, 3], "y": [1.0, 5.0, 9.0]})
    sale = pd.DataFrame({"item_id": [1, 2, 3, 3], "store_id": [1, 2, 1, 2], "s_lvl": [1, 2, 3, 4]})
    store = pd.DataFrame({"store_id": [1, 2], "st_size": [10, 20]})
    tag = pd.DataFrame({"item_id": [1, 1, 2, 3], "t_lvl": [4, 5, 6, 7]})
    g = JoinGraph()
    g.add_relation("item", spark.createDataFrame(item), y="y")
    g.add_relation("sale", spark.createDataFrame(sale), features=["s_lvl"], numeric=["s_lvl"])
    g.add_relation("store", spark.createDataFrame(store), features=["st_size"], numeric=["st_size"])
    g.add_relation("tag", spark.createDataFrame(tag), features=["t_lvl"], numeric=["t_lvl"])
    g.add_edge("sale", "item", ["item_id"])
    g.add_edge("sale", "store", ["store_id"])
    g.add_edge("tag", "item", ["item_id"], n_to_one=False)
    return g


class TestStarPathParity:
    @pytest.mark.parametrize("max_leaves", [3, 4])
    def test_imdb_equals_cpt_reference(self, imdb_galaxy, max_leaves):
        _assert_equals_cpt_reference(imdb_galaxy, max_leaves=max_leaves)

    def test_trees_lock_both_clusters(self, two_clusters):
        res = _assert_equals_cpt_reference(two_clusters, max_leaves=3)
        assert {t.cluster for t in res.ensemble.trees} == {"review", "sale"}

    @pytest.mark.parametrize("max_leaves", [3, 4])
    def test_two_hop_takes_star_path(self, two_hop, max_leaves):
        """``rg_pop``, two hops from ``sale``, groups by ``sale.store_id``
        and filters through ``store`` flattened with ``region``."""
        gb = GradientBoosting(two_hop.graph, params=TrainParams(max_leaves=max_leaves))
        stars = gb._cluster_stars(VarianceSemiring(track_q=True))
        assert [t.hub for t in stars] == ["review", "sale"]
        assert stars[1].feature_col["rg_pop"] == ("store_id", "store")
        assert sorted(stars[0].dim_pandas) == ["store", "user"]
        assert "rg_pop" in stars[0].dim_pandas["store"].columns
        _assert_equals_cpt_reference(two_hop, max_leaves=max_leaves)

    def test_feature_in_no_cluster_raises_before_collect(self, spark, monkeypatch):
        """A feature reached only over an M-N edge has no cluster fact to
        push its predicates to: the fit raises before any collect."""
        g = _m_to_n_galaxy(spark)
        frame = type(g.relations["item"].df)
        calls = []
        to_pandas = frame.toPandas
        monkeypatch.setattr(
            frame, "toPandas", lambda df: calls.append(df) or to_pandas(df)
        )
        with pytest.raises(ValueError, match=r"\['t_lvl'\].*no CPT cluster"):
            GradientBoosting(g, params=TrainParams(max_leaves=3)).fit()
        assert calls == []

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
    """A galaxy tree without a root split shifts every R⋈ row once; on
    the star path (``star``) and in the CPT reference it locks the first
    cluster by name."""

    @pytest.mark.parametrize("star", [True, False])
    @pytest.mark.parametrize(
        "params", [dict(max_leaves=1), dict(max_leaves=4, min_gain=1e18)]
    )
    def test_rmse_matches_materialized(self, imdb_galaxy, star, params):
        if star:
            res = _fit(imdb_galaxy, n_iters=2, **params)
            ens, rmse = res.ensemble, res.logs[-1].rmse
        else:
            ens, rmse = _cpt_reference(imdb_galaxy, 2, TrainParams(**params))
        clusters = sorted(imdb_galaxy.graph.clusters())
        for t in ens.trees:
            assert t.n_leaves() == 1
            assert t.cluster == clusters[0]
        expect = ens.rmse_np(imdb_galaxy.wide, "rating")
        assert rmse == pytest.approx(expect, rel=1e-9)


def _two_level_tree(cluster: str, f1: str, v1, f2: str, v2) -> DecisionTree:
    """``f1 <= v1`` at the root, ``f2 <= v2`` under its right child."""
    left, right = Pred(f1, v1, True, True), Pred(f1, v1, True, False)
    root = Node(0, 0, split_feature=f1, split_value=v1, split_numeric=True)
    root.left = Node(1, 1, preds=[left], prediction=3.0)
    root.right = Node(
        2, 1, preds=[right], split_feature=f2, split_value=v2, split_numeric=True
    )
    root.right.left = Node(3, 2, preds=[right, Pred(f2, v2, True, True)], prediction=-7.0)
    root.right.right = Node(4, 2, preds=[right, Pred(f2, v2, True, False)], prediction=11.0)
    return DecisionTree(root, cluster=cluster)


def _assert_root_stats_match_duckdb(spark, data: Galaxy, tree: DecisionTree):
    g = data.graph
    engine = MessageEngine(g, VarianceSemiring(track_q=True), eager=False)
    engine.lift_y()
    tables: dict = {}
    stars = [
        StarTreeTrainer(g, TrainParams(), hub=h, engine=engine, tables=tables)
        for h in sorted(g.clusters())
    ]
    updater = GalaxyAnnotationUpdater(g, tables, learning_rate=LR)
    engine.set_annotation(tree.cluster, updater.update(tree))
    wide = data.wide.copy()
    wide["resid"] = wide[data.y] - LR * tree.predict_np(wide)
    try:
        for star in stars:
            star._root(None, set())
            cols = star._grouping_cols(list(star.feature_col))
            stats = star._node_stats({}, cols)
            for f in star.feature_col:
                fs = pd.DataFrame(dict(zip(("value", "c", "s"), star._absorb(stats, f))))
                assert_equivalent(
                    spark.createDataFrame(fs),
                    f"SELECT {f} AS value, CAST(COUNT(*) AS DOUBLE) AS c, "
                    f"SUM(resid) AS s FROM wide GROUP BY {f}",
                    wide=wide,
                )
    finally:
        for star in stars:
            star._release()
        updater.close()
        engine.clear_cache()


class TestLiftedFactOracle:
    """Per-feature root ``(c, s)`` from each lifted fact ``L_k`` equals
    ``GROUP BY feature`` over the materialized join (DuckDB), after a
    tree in one cluster has annotated its fact."""

    def test_root_stats_match_duckdb(self, spark, imdb_galaxy):
        # leaf preds on a fact-local and a dimension feature
        tree = _two_level_tree("cast_info", "ci_role", 500, "p_age", 400)
        _assert_root_stats_match_duckdb(spark, imdb_galaxy, tree)

    def test_flattened_branch_root_stats_match_duckdb(self, spark, two_hop):
        """The tree splits on ``rg_pop``, two hops from ``sale``: its
        stats and leaf filters come from the flattened ``store`` branch."""
        tree = _two_level_tree("sale", "rg_pop", 7, "s_lvl", 5)
        _assert_root_stats_match_duckdb(spark, two_hop, tree)


def _assert_driver_tables_select_same_rows(data: Galaxy, leaves):
    """``leaf_condition`` over the flattened branches picks exactly the
    cluster-fact rows whose ``R⋈`` rows satisfy the leaf."""
    g = data.graph
    for fact, members in g.clusters().items():
        tables = {d: flatten(g, d) for d in members - {fact}}
        cols = g.relations[fact].df.columns
        rows = list(data.wide[cols].itertuples(index=False, name=None))
        for preds in leaves:
            if any(g.feature_relation(p.feature) not in members for p in preds):
                continue
            leaf = Node(0, len(preds), preds=preds)
            df = g.relations[fact].df.filter(leaf_condition(g, fact, leaf, tables))
            picked = set(df.toPandas().itertuples(index=False, name=None))
            mask = np.ones(len(data.wide), dtype=bool)
            for p in preds:
                mask &= p.mask(data.wide)
            assert [r in picked for r in rows] == mask.tolist()
            assert mask.any()


class TestGalaxyLeafPushDown:
    def test_driver_tables_select_same_rows(self, imdb_galaxy):
        _assert_driver_tables_select_same_rows(
            imdb_galaxy,
            [
                [Pred("m_year", 500, True, True)],
                [Pred("m_year", 500, True, False), Pred("p_age", 300, True, True)],
                [Pred("ci_role", 200, True, False), Pred("m_year", 600, True, True)],
                [Pred("mc_deal", 100, True, True), Pred("co_size", 600, True, False)],
            ],
        )

    def test_two_hop_driver_tables_select_same_rows(self, two_hop):
        _assert_driver_tables_select_same_rows(
            two_hop,
            [
                [Pred("rg_pop", 7, True, True)],
                [Pred("rg_pop", 5, True, False), Pred("st_size", 50, True, True)],
                [Pred("s_lvl", 6, True, False), Pred("rg_pop", 7, True, False)],
                [Pred("u_age", 40, True, True), Pred("r_lvl", 3, True, False)],
            ],
        )
