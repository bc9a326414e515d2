"""Star-path absorption on integer codes (paper §3.2).

Each dimension is encoded once; a node's per-key message is absorbed
per feature with ``np.bincount``. Every check here compares against
pandas ``merge`` + ``groupby`` or against :class:`NpGBM` over ``R⋈``.
"""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.npgbm import NpGBM
from repro.core.gbm import GradientBoosting
from repro.core.join_graph import JoinGraph
from repro.core.rf import RandomForest
from repro.core.semiring import VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import TrainParams
from repro.core.tree import Pred


def _star(spark, fact: pd.DataFrame, dim: pd.DataFrame, numeric) -> JoinGraph:
    g = JoinGraph()
    g.add_relation(
        "fact", spark.createDataFrame(fact), features=["f_loc"], numeric=["f_loc"], y="y"
    )
    feats = [c for c in dim.columns if c != "k"]
    g.add_relation(
        "dim", spark.createDataFrame(dim), features=feats,
        numeric=[f for f in feats if f in numeric],
    )
    g.add_edge("fact", "dim", ["k"])
    return g


@pytest.fixture(scope="module")
def dirty(spark):
    """A NULL numeric and a NULL string dimension feature, and fact keys
    21–25 that the dimension does not hold."""
    rng = np.random.default_rng(13)
    n, nd = 600, 20
    fact = pd.DataFrame(
        {
            "k": rng.integers(1, nd + 6, n),
            "f_loc": rng.integers(1, 9, n),
            "y": rng.integers(0, 50, n).astype("float64"),
        }
    )
    fd = rng.integers(1, 30, nd).astype("float64")
    fd[[2, 7, 11]] = np.nan
    fs = rng.choice(np.array(["a", "b", "c"], dtype=object), nd)
    fs[[0, 5]] = None
    dim = pd.DataFrame({"k": np.arange(1, nd + 1), "fd": fd, "fs": fs})
    return _star(spark, fact, dim, numeric=["fd"]), fact, dim


class TestAbsorbMatchesPandas:
    @pytest.mark.parametrize("ctx", [{}, {"dim": (Pred("fd", 10.0, True, True),)}])
    def test_per_feature_stats(self, dirty, ctx):
        g, fact, dim = dirty
        star = StarTreeTrainer(g)
        star.set_fact(VarianceSemiring(track_q=False).lift(g.relations["fact"].df, "y"))
        cols = star._grouping_cols(list(star.feature_col))
        stats = star._node_stats(ctx, cols)
        wide = fact.merge(dim, on="k", how="inner")
        for p in ctx.get("dim", ()):
            wide = wide[p.mask(wide)]
        # dimension features only: a fact-local feature still counts the
        # fact rows whose key dangles (ROADMAP item 5)
        for f in ("fd", "fs"):
            values, c, s = star._absorb(stats, f)
            expect = wide.groupby(f)["y"].agg(["count", "sum"])
            assert list(values) == list(expect.index), f
            np.testing.assert_array_equal(c, expect["count"].to_numpy(dtype="float64"))
            np.testing.assert_array_equal(s, expect["sum"].to_numpy())


class TestSharedKey:
    """Two dimensions join the fact on the same key: ``db`` holds its
    rows in another order and lacks some keys ``da`` holds, so each
    dimension must map the node's keys to its own rows."""

    @pytest.fixture(scope="class")
    def shared(self, spark):
        rng = np.random.default_rng(29)
        n, nd = 700, 24
        fact = pd.DataFrame(
            {
                "k": rng.integers(1, nd + 4, n),
                "f_loc": rng.integers(1, 9, n),
                "y": rng.integers(0, 50, n).astype("float64"),
            }
        )
        da = pd.DataFrame({"k": np.arange(1, nd + 1), "fa": rng.integers(1, 40, nd)})
        db = pd.DataFrame({"k": np.arange(1, nd + 1), "fb": rng.integers(1, 40, nd)})
        db = db[~db["k"].isin([3, 8, 14, 20])].sample(frac=1.0, random_state=5)
        g = JoinGraph()
        g.add_relation(
            "fact", spark.createDataFrame(fact), features=["f_loc"], numeric=["f_loc"], y="y"
        )
        for name, dim in (("da", da), ("db", db)):
            f = "f" + name[1]
            g.add_relation(name, spark.createDataFrame(dim), features=[f], numeric=[f])
            g.add_edge("fact", name, ["k"])
        return g, fact, {"da": da, "db": db}

    @pytest.mark.parametrize("order", [("fa", "fb"), ("fb", "fa")])
    @pytest.mark.parametrize(
        "ctx",
        [
            {},
            {"db": (Pred("fb", 20.0, True, True),)},
            {"da": (Pred("fa", 20.0, False, True),)},
        ],
    )
    def test_per_feature_stats(self, shared, ctx, order):
        g, fact, dims = shared
        star = StarTreeTrainer(g)
        star.set_fact(VarianceSemiring(track_q=False).lift(g.relations["fact"].df, "y"))
        stats = star._node_stats(ctx, star._grouping_cols(list(star.feature_col)))
        node = fact
        for rel, preds in ctx.items():
            dim = dims[rel]
            for p in preds:
                dim = dim[p.mask(dim)]
            node = node[node["k"].isin(dim["k"])]
        for f in order:
            wide = node.merge(dims["d" + f[1]], on="k", how="inner")
            values, c, s = star._absorb(stats, f)
            expect = wide.groupby(f)["y"].agg(["count", "sum"])
            assert list(values) == list(expect.index), f
            np.testing.assert_array_equal(c, expect["count"].to_numpy(dtype="float64"))
            np.testing.assert_array_equal(s, expect["sum"].to_numpy())


class TestDuplicateKeys:
    @pytest.fixture(scope="class")
    def dup(self, spark):
        fact = pd.DataFrame(
            {"k": [1, 2, 3, 2, 1, 3], "f_loc": [1, 2, 3, 4, 5, 6], "y": [1.0, 2, 3, 4, 5, 6]}
        )
        dim = pd.DataFrame({"k": [1, 2, 2, 3], "fd": [10, 20, 30, 40]})
        return _star(spark, fact, dim, numeric=["fd"])

    def test_gradient_boosting_raises(self, dup):
        with pytest.raises(ValueError, match=r"'dim'.*'k'"):
            GradientBoosting(dup, n_iters=1, params=TrainParams(max_leaves=2)).fit()

    def test_random_forest_raises(self, dup):
        with pytest.raises(ValueError, match=r"'dim'.*'k'"):
            RandomForest(dup, n_trees=1)


class TestExactTie:
    """``fz`` is an exact copy of ``fa``: their gains tie exactly, and
    the split goes to the smaller name, as in :class:`NpGBM`."""

    def test_gbm_matches_numpy_and_splits_on_smaller_name(self, spark):
        rng = np.random.default_rng(17)
        n, nd = 800, 30
        fa = rng.integers(1, 100, nd)
        dim = pd.DataFrame({"k": np.arange(1, nd + 1), "fa": fa, "fz": fa.copy()})
        k = rng.integers(1, nd + 1, n)
        fact = pd.DataFrame(
            {
                "k": k,
                "f_loc": rng.integers(1, 5, n),
                "y": (3 * fa[k - 1] + rng.integers(0, 4, n)).astype("float64"),
            }
        )
        g = _star(spark, fact, dim, numeric=["fa", "fz"])
        p = TrainParams(max_leaves=4)
        res = GradientBoosting(g, n_iters=2, params=p).fit()
        feats = [f for f, _, _ in g.all_features()]
        wide = fact.merge(dim, on="k")
        res_np = NpGBM(wide, feats, feats, "y", n_iters=2, params=p).fit()
        assert [t.to_dict() for t in res.ensemble.trees] == [
            t.to_dict() for t in res_np.ensemble.trees
        ]
        split_on = {f for t in res.ensemble.trees for f in t.referenced_features()}
        assert "fa" in split_on and "fz" not in split_on
