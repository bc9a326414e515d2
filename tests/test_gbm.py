"""Factorized gradient boosting (paper §4): snowflake and galaxy paths."""
import numpy as np
import pytest

from repro.core.gbm import GradientBoosting
from repro.core.trainer import TrainParams
from repro.baselines.npgbm import NpGBM

PARAMS = TrainParams(max_leaves=4)


@pytest.fixture(scope="module")
def gbm_pair(star_int):
    """Factorized GBM and NumPy GBM with identical hyper-parameters on
    the exact-arithmetic star — models must be identical."""
    g = star_int.graph
    gb = GradientBoosting(
        g, n_iters=3, learning_rate=0.1, params=PARAMS, strategy="swap",
        track_rmse=True,
    )
    res = gb.fit()
    wide = star_int.wide_pandas()
    feats = [f for f, _, _ in g.all_features()]
    npgb = NpGBM(
        wide, feats, feats, "y", n_iters=3, learning_rate=0.1, params=PARAMS,
        track_rmse=True,
    )
    res_np = npgb.fit()
    return res, res_np, wide


class TestSnowflakeGBM:
    def test_models_identical(self, gbm_pair):
        res, res_np, _ = gbm_pair
        assert len(res.ensemble.trees) == 3
        for a, b in zip(res.ensemble.trees, res_np.ensemble.trees):
            assert a.to_dict() == b.to_dict()

    def test_base_score_is_mean(self, gbm_pair):
        res, _, wide = gbm_pair
        assert res.ensemble.base_score == pytest.approx(wide["y"].mean(), rel=1e-9)

    def test_rmse_decreases(self, gbm_pair):
        res, _, _ = gbm_pair
        rmses = [l.rmse for l in res.logs]
        assert all(b < a for a, b in zip(rmses, rmses[1:]))

    def test_rmse_matches_numpy(self, gbm_pair):
        res, res_np, _ = gbm_pair
        for a, b in zip(res.logs, res_np.logs):
            assert a.rmse == pytest.approx(b.rmse, rel=1e-9)

    def test_rmse_matches_prediction_oracle(self, gbm_pair):
        """Tracked rmse == rmse of ensemble predictions over R⋈."""
        res, _, wide = gbm_pair
        assert res.ensemble.rmse_np(wide, "y") == pytest.approx(
            res.logs[-1].rmse, rel=1e-9
        )

    def test_iteration_logs(self, gbm_pair):
        res, _, _ = gbm_pair
        assert len(res.logs) == 3
        assert all(l.tree_seconds > 0 and l.update_seconds > 0 for l in res.logs)
        assert res.total_seconds(2) < res.total_seconds()

    @pytest.mark.parametrize("strategy", ["naive", "create"])
    def test_strategies_train_identical_models(self, star_int, strategy):
        g = star_int.graph
        gb = GradientBoosting(
            g, n_iters=2, learning_rate=0.1, params=PARAMS, strategy=strategy
        )
        res = gb.fit()
        gb2 = GradientBoosting(
            g, n_iters=2, learning_rate=0.1, params=PARAMS, strategy="swap"
        )
        res2 = gb2.fit()
        for a, b in zip(res.ensemble.trees, res2.ensemble.trees):
            assert a.to_dict() == b.to_dict()

    def test_slow_path_matches_fast(self, star_int):
        """General message-passing GBM == batched-star GBM."""
        g = star_int.graph
        p = TrainParams(max_leaves=3)
        fast = GradientBoosting(g, n_iters=2, params=p, fast=True).fit()
        slow = GradientBoosting(g, n_iters=2, params=p, fast=False).fit()
        for a, b in zip(fast.ensemble.trees, slow.ensemble.trees):
            assert a.to_dict() == b.to_dict()

    def test_favorita_runs_and_improves(self, favorita_tiny):
        gb = GradientBoosting(
            favorita_tiny.graph, n_iters=3, learning_rate=0.3,
            params=TrainParams(max_leaves=4), track_rmse=True,
        )
        res = gb.fit()
        wide = favorita_tiny.wide_pandas()
        baseline_rmse = float(wide["y"].std())
        assert res.logs[-1].rmse < baseline_rmse


class TestRegLambda:
    def test_gbm_matches_numpy(self, star_int):
        g = star_int.graph
        p = TrainParams(max_leaves=3, reg_lambda=50.0)
        res = GradientBoosting(g, n_iters=2, params=p).fit()
        wide = star_int.wide_pandas()
        feats = [f for f, _, _ in g.all_features()]
        res_np = NpGBM(wide, feats, feats, "y", n_iters=2, params=p).fit()
        assert [t.to_dict() for t in res.ensemble.trees] == [
            t.to_dict() for t in res_np.ensemble.trees
        ]


class TestYInDimension:
    """§4.1's second case: Y lives in a dimension, joined into F first."""

    @pytest.fixture(scope="class")
    def y_in_dim_graph(self, spark):
        from repro.core.join_graph import JoinGraph
        import pandas as pd

        rng = np.random.default_rng(5)
        n, nd = 2000, 30
        fact = pd.DataFrame(
            {
                "k": rng.integers(1, nd + 1, n),
                "f_local": rng.integers(1, 100, n),
            }
        )
        dim = pd.DataFrame(
            {
                "k": np.arange(1, nd + 1),
                "fd": rng.integers(1, 100, nd),
                "target": rng.integers(0, 50, nd).astype("float64"),
            }
        )
        g = JoinGraph()
        g.add_relation(
            "fact", spark.createDataFrame(fact),
            features=["f_local"], numeric=["f_local"],
        )
        g.add_relation(
            "dim", spark.createDataFrame(dim),
            features=["fd"], numeric=["fd"], y="target",
        )
        g.add_edge("fact", "dim", ["k"])
        return g, fact.merge(dim, on="k")

    def test_gbm_matches_numpy(self, y_in_dim_graph):
        g, wide = y_in_dim_graph
        p = TrainParams(max_leaves=3)
        res = GradientBoosting(g, n_iters=2, params=p, track_rmse=True).fit()
        npgb = NpGBM(
            wide, ["f_local", "fd"], ["f_local", "fd"], "target",
            n_iters=2, params=p, track_rmse=True,
        )
        res_np = npgb.fit()
        for a, b in zip(res.ensemble.trees, res_np.ensemble.trees):
            assert a.to_dict() == b.to_dict()
        assert res.logs[-1].rmse == pytest.approx(res_np.logs[-1].rmse, rel=1e-9)


class TestGalaxyGBM:
    @pytest.fixture(scope="class")
    def galaxy_fit(self, imdb_tiny):
        gb = GradientBoosting(
            imdb_tiny.graph, n_iters=4, learning_rate=0.3,
            params=TrainParams(max_leaves=3), track_rmse=True,
        )
        res = gb.fit()
        return gb, res

    def test_uses_galaxy_path(self, imdb_tiny):
        gb = GradientBoosting(imdb_tiny.graph, n_iters=1)
        assert not gb.snowflake

    def test_trees_have_clusters(self, galaxy_fit, imdb_tiny):
        _, res = galaxy_fit
        clusters = imdb_tiny.graph.clusters()
        for t in res.ensemble.trees:
            assert t.cluster in clusters

    def test_cpt_restriction(self, galaxy_fit, imdb_tiny):
        """After the root split, features stay within the tree's cluster."""
        _, res = galaxy_fit
        g = imdb_tiny.graph
        clusters = g.clusters()
        for t in res.ensemble.trees:
            members = clusters[t.cluster]
            for f in t.referenced_features():
                assert g.feature_relation(f) in members

    def test_rmse_matches_materialized_oracle(self, galaxy_fit, imdb_tiny):
        """The factorized residual aggregates (never materialized) must
        equal the rmse computed over the materialized R⋈ — the heart of
        Proposition 4.1 / the update-relation machinery."""
        _, res = galaxy_fit
        wide = imdb_tiny.wide_pandas()
        expect = res.ensemble.rmse_np(wide, "rating")
        assert res.logs[-1].rmse == pytest.approx(expect, rel=1e-6)

    def test_rmse_decreases(self, galaxy_fit):
        _, res = galaxy_fit
        rmses = [l.rmse for l in res.logs]
        assert rmses[-1] < rmses[0]

    def test_never_materializes(self, galaxy_fit, imdb_tiny):
        """Galaxy training touches only base-table-sized frames; the
        blow-up factor documents why the library baseline is gated."""
        assert imdb_tiny.join_rows > len(imdb_tiny.tables["cast_info"])
