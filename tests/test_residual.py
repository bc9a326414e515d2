"""Residual updates (paper §§4.1, 5.3, 5.4): push-down and strategies."""
import datetime

import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.baselines.npgbm import NpGBM
from repro.core.gbm import GradientBoosting
from repro.core.join_graph import JoinGraph
from repro.core.residual import (
    SnowflakeResidualUpdater,
    key_filter,
    leaf_condition,
    push_keys_to,
)
from repro.core.semiring import PREFIX, VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer
from repro.core.trainer import TrainParams
from repro.core.tree import DecisionTree, Node, Pred

#: string join keys a naive SQL rendering would mangle
ODD_KEYS = [
    "a'b", "c\\d", "it\\'s", "''", "\\", "${spark.app.name}", "$\\{x}", "plain",
    "tab\there", "é ✓",
]


@pytest.fixture(scope="module")
def fav_tree(favorita_tiny):
    """One 4-leaf tree trained on the tiny Favorita star."""
    g = favorita_tiny.graph
    sr = VarianceSemiring(track_q=False)
    st = StarTreeTrainer(g, TrainParams(max_leaves=4))
    st.set_fact(sr.lift(g.relations["sales"].df, "y"))
    return st.train()


class TestPushDown:
    def test_push_one_hop(self, favorita_tiny):
        g = favorita_tiny.graph
        preds = [Pred("f_store", 500, True, True)]
        key, values = push_keys_to(g, "sales", "stores", preds)
        assert key == "store_id"
        dim = favorita_tiny.dims["stores"]
        expect = set(dim.loc[dim["f_store"] <= 500, "store_id"])
        assert set(values) == expect

    def test_push_with_pandas_tables(self, favorita_tiny):
        g = favorita_tiny.graph
        preds = [Pred("f_item", 300, True, False)]
        k1, v1 = push_keys_to(g, "sales", "items", preds)
        k2, v2 = push_keys_to(
            g, "sales", "items", preds, tables=favorita_tiny.dims
        )
        assert k1 == k2 and set(v1) == set(v2)

    def test_push_two_hops(self, chain_graph):
        """customer predicate → orders keys → lineitem keys (§4.1 chain)."""
        preds = [Pred("c_acctbal", 0.0, True, False)]  # c_acctbal > 0
        key, values = push_keys_to(chain_graph, "lineitem", "customer", preds)
        assert key == "l_orderkey"
        wide = chain_graph.materialize().toPandas()
        expect = set(wide.loc[wide["c_acctbal"] > 0, "l_orderkey"])
        # the pushed keys are a *filter*: they may include orders with no
        # lineitems (harmless), but must cover exactly the matching fact rows
        assert expect <= set(values)
        fact = chain_graph.relations["lineitem"].df
        n = fact.filter(F.col(key).isin(list(values))).count()
        assert n == int((wide["c_acctbal"] > 0).sum())

    def test_leaf_condition_matches_wide_semantics(self, favorita_tiny, fav_tree):
        """Fact rows matching the pushed condition == wide rows matching
        the original leaf predicate (1-1 fact↔R⋈ on snowflakes)."""
        g = favorita_tiny.graph
        wide = favorita_tiny.wide_pandas()
        fact_df = g.relations["sales"].df
        total = 0
        for leaf in fav_tree.leaves():
            cond = leaf_condition(g, "sales", leaf, favorita_tiny.dims)
            n_fact = fact_df.filter(cond).count()
            m = np.ones(len(wide), dtype=bool)
            for p in leaf.preds:
                m &= p.mask(wide)
            assert n_fact == int(m.sum())
            total += n_fact
        assert total == len(wide)  # leaves partition the fact


@pytest.fixture(scope="module")
def star_str(spark):
    """A one-dimension star joined on string keys containing ``'``, ``\\``
    and ``${…}``."""
    rng = np.random.default_rng(5)
    dim = pd.DataFrame({"k": ODD_KEYS, "fd": np.arange(1, len(ODD_KEYS) + 1)})
    fact = pd.DataFrame(
        {"k": rng.choice(ODD_KEYS, 300), "y": rng.integers(0, 50, 300).astype(float)}
    )
    g = JoinGraph()
    g.add_relation("fact", spark.createDataFrame(fact), y="y")
    g.add_relation("dim", spark.createDataFrame(dim), features=["fd"], numeric=["fd"])
    g.add_edge("fact", "dim", ["k"])
    return g, fact.merge(dim, on="k")


class TestKeyFilter:
    """The one SQL ``IN`` builder every pushed-down key set goes through."""

    def test_string_keys_count_like_isin(self, star_str):
        g, wide = star_str
        fact = g.relations["fact"].df
        subsets = [[k] for k in ODD_KEYS] + [ODD_KEYS, ODD_KEYS[::2], ODD_KEYS[1::3]]
        for keys in subsets:
            n = fact.filter(key_filter("k", keys)).count()
            assert n == fact.filter(F.col("k").isin(keys)).count()
            assert n == int(wide["k"].isin(keys).sum())

    def test_string_keys_through_leaf_and_star_filters(self, star_str):
        g, wide = star_str
        pred = Pred("fd", 5, True, True)
        sel = wide[wide["fd"] <= 5]
        leaf = Node(0, 1, preds=[pred])
        for tables in (None, {"dim": g.relations["dim"].df.toPandas()}):
            cond = leaf_condition(g, "fact", leaf, tables)
            assert g.relations["fact"].df.filter(cond).count() == len(sel)
        st = StarTreeTrainer(g, TrainParams(max_leaves=4))
        st.set_fact(VarianceSemiring(track_q=False).lift(g.relations["fact"].df, "y"))
        cols = st._grouping_cols(["fd"])
        stats = st._node_stats({"dim": (pred,)}, cols)
        c, s = stats.c, stats.s
        assert (c, s) == (len(sel), sel["y"].sum())

    def test_integer_keys(self, favorita_tiny):
        fact = favorita_tiny.graph.relations["sales"].df
        keys = [3, 17, 2**40, -1]
        expect = fact.filter(F.col("store_id").isin(keys)).count()
        assert expect > 0
        assert fact.filter(key_filter("store_id", keys)).count() == expect
        np_keys = list(np.array(keys, dtype="int64"))
        assert fact.filter(key_filter("store_id", np_keys)).count() == expect

    def test_backticked_column_name(self, spark):
        df = spark.createDataFrame([(1,), (2,), (3,)], ["k`ey"])
        assert df.filter(key_filter("k`ey", [1, 3])).count() == 2

    @pytest.mark.parametrize(
        "bad",
        [1.5, np.float64(2.0), float("nan"), None, datetime.date(2020, 1, 1), True],
    )
    def test_unsupported_key_type_raises(self, bad):
        with pytest.raises(TypeError, match=rf"'store_id'.*{type(bad).__name__}"):
            key_filter("store_id", [1, bad])

    def test_empty_key_set_selects_nothing(self, favorita_tiny):
        """``f_store`` is in [1, 1000], so ``f_store <= 0`` pushes down no
        store keys: the fact filter must be FALSE, not a parse error."""
        g = favorita_tiny.graph
        pred = Pred("f_store", 0, True, True)
        _, values = push_keys_to(g, "sales", "stores", [pred], favorita_tiny.dims)
        assert values == []
        cond = leaf_condition(g, "sales", Node(0, 1, preds=[pred]), favorita_tiny.dims)
        assert g.relations["sales"].df.filter(cond).count() == 0
        st = StarTreeTrainer(g, TrainParams(max_leaves=4))
        st.set_fact(VarianceSemiring(track_q=False).lift(g.relations["sales"].df, "y"))
        cols = st._grouping_cols([f for f, _, _ in g.all_features()])
        stats = st._node_stats({"stores": (pred,)}, cols)
        assert (stats.c, stats.s) == (0.0, 0.0)

    def test_empty_intermediate_hop(self, chain_graph):
        """An empty key set mid-path (Spark hop, no driver tables)."""
        preds = [Pred("c_acctbal", -1e12, True, True)]
        key, values = push_keys_to(chain_graph, "lineitem", "customer", preds)
        assert key == "l_orderkey" and values == []


class TestNoPerLiteralMarshalling:
    """With ``Column.isin`` unusable, fits still run and stay exact: no
    key set reaches Spark one py4j call per literal."""

    @pytest.fixture
    def no_isin(self, monkeypatch):
        from pyspark.sql.classic.column import Column

        def refuse(self, *cols):
            raise AssertionError("Column.isin called")

        monkeypatch.setattr(Column, "isin", refuse)

    def test_snowflake_gbm_matches_npgbm(self, no_isin, star_int):
        params = TrainParams(max_leaves=4)
        res = GradientBoosting(
            star_int.graph, n_iters=2, learning_rate=0.1, params=params,
            strategy="swap",
        ).fit()
        feats = [f for f, _, _ in star_int.graph.all_features()]
        res_np = NpGBM(
            star_int.wide_pandas(), feats, feats, "y", n_iters=2,
            learning_rate=0.1, params=params,
        ).fit()
        for a, b in zip(res.ensemble.trees, res_np.ensemble.trees):
            assert a.to_dict() == b.to_dict()

    def test_galaxy_update_runs(self, no_isin, imdb_tiny):
        """The galaxy annotation update pushes keys through Spark hops."""
        res = GradientBoosting(
            imdb_tiny.graph, n_iters=1, learning_rate=0.3,
            params=TrainParams(max_leaves=3), track_rmse=True,
        ).fit()
        assert res.ensemble.trees[0].n_leaves() > 1
        expect = res.ensemble.rmse_np(imdb_tiny.wide_pandas(), "rating")
        assert res.logs[-1].rmse == pytest.approx(expect, rel=1e-6)


def _make_updater(favorita_tiny, strategy, payload=(), dim_pandas=None):
    g = favorita_tiny.graph
    fact_df = g.relations["sales"].df
    needed = ["store_id", "item_id", "date_id"]
    return SnowflakeResidualUpdater(
        graph=g,
        fact="sales",
        fact_df=fact_df,
        y="y",
        base_score=0.0,
        strategy=strategy,
        learning_rate=0.1,
        payload_cols=payload,
        needed_cols=needed,
        dim_pandas=dim_pandas,
    )


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["naive", "create", "swap"])
    def test_residual_matches_oracle(self, favorita_tiny, fav_tree, strategy):
        """After one update, per-row residual == y − lr·p(leaf)."""
        upd = _make_updater(favorita_tiny, strategy, dim_pandas=favorita_tiny.dims)
        upd.update(fav_tree)
        got = (
            upd.current.select("store_id", "item_id", "date_id", PREFIX + "s")
            .toPandas()
            .sort_values(["store_id", "item_id", "date_id", PREFIX + "s"])
            .reset_index(drop=True)
        )
        wide = favorita_tiny.wide_pandas()
        expect_s = wide["y"].to_numpy() - 0.1 * fav_tree.predict_np(wide)
        expect = (
            pd.DataFrame(
                {
                    "store_id": wide["store_id"],
                    "item_id": wide["item_id"],
                    "date_id": wide["date_id"],
                    PREFIX + "s": expect_s,
                }
            )
            .sort_values(["store_id", "item_id", "date_id", PREFIX + "s"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, expect, check_dtype=False, atol=1e-9)
        upd.close()

    def test_strategies_agree(self, favorita_tiny, fav_tree):
        results = {}
        for strategy in ("naive", "create", "swap"):
            upd = _make_updater(favorita_tiny, strategy, dim_pandas=favorita_tiny.dims)
            upd.update(fav_tree)
            results[strategy] = (
                upd.current.select(PREFIX + "s")
                .toPandas()[PREFIX + "s"]
                .sort_values()
                .to_numpy()
            )
            upd.close()
        np.testing.assert_allclose(results["naive"], results["create"], atol=1e-9)
        np.testing.assert_allclose(results["create"], results["swap"], atol=1e-9)

    def test_swap_sheds_payload(self, favorita_tiny, spark):
        """swap carries only needed columns; create keeps the payload."""
        g = favorita_tiny.graph
        fact_df = g.relations["sales"].df.withColumn("payload_0", F.lit(1.0))
        kw = dict(
            graph=g, fact="sales", fact_df=fact_df, y="y", base_score=0.0,
            payload_cols=["payload_0"],
            needed_cols=["store_id", "item_id", "date_id"],
        )
        swap = SnowflakeResidualUpdater(strategy="swap", **kw)
        create = SnowflakeResidualUpdater(strategy="create", **kw)
        assert "payload_0" not in swap.current.columns
        assert "payload_0" in create.current.columns
        swap.close()
        create.close()

    def test_initial_residual_is_centred_y(self, favorita_tiny):
        g = favorita_tiny.graph
        upd = SnowflakeResidualUpdater(
            graph=g, fact="sales", fact_df=g.relations["sales"].df, y="y",
            base_score=100.0, strategy="swap",
            needed_cols=["store_id", "item_id", "date_id"],
        )
        s = upd.current.agg(F.sum(PREFIX + "s")).collect()[0][0]
        expect = favorita_tiny.fact["y"].sum() - 100.0 * len(favorita_tiny.fact)
        assert s == pytest.approx(expect, rel=1e-9)
        upd.close()

    def test_unknown_strategy(self, favorita_tiny):
        with pytest.raises(ValueError, match="unknown strategy"):
            _make_updater(favorita_tiny, "set")

    def test_single_leaf_tree_constant_shift(self, favorita_tiny):
        tree = DecisionTree(Node(0, 0, prediction=5.0))
        for strategy in ("naive", "create", "swap"):
            upd = _make_updater(favorita_tiny, strategy)
            before = upd.current.agg(F.sum(PREFIX + "s")).collect()[0][0]
            upd.update(tree)
            after = upd.current.agg(F.sum(PREFIX + "s")).collect()[0][0]
            n = len(favorita_tiny.fact)
            assert after == pytest.approx(before - 0.1 * 5.0 * n, rel=1e-9)
            upd.close()

    def test_update_timing_recorded(self, favorita_tiny, fav_tree):
        upd = _make_updater(favorita_tiny, "swap", dim_pandas=favorita_tiny.dims)
        upd.update(fav_tree)
        assert upd.last_update_seconds > 0
        upd.close()
