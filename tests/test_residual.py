"""Residual updates (paper §§4.1, 5.3, 5.4): push-down and strategies."""
import datetime
import time

import numpy as np
import pandas as pd
import pytest

import pyspark.sql.functions as F

from repro.baselines.npgbm import NpGBM
from repro.core.gbm import GradientBoosting
from repro.core.join_graph import JoinGraph
from repro.core.residual import (
    SnowflakeResidualUpdater,
    branch,
    fact_condition,
    flatten,
    key_filter,
    leaf_condition,
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


def _leaf(*preds: Pred) -> Node:
    return Node(0, len(preds), preds=list(preds))


def _wide_matches(wide: pd.DataFrame, preds) -> int:
    """``R⋈`` rows that satisfy every predicate."""
    m = np.ones(len(wide), dtype=bool)
    for p in preds:
        m &= p.mask(wide)
    return int(m.sum())


class TestPushDown:
    """A pushed-down predicate selects, on a snowflake's fact (1-1 with
    ``R⋈``), exactly the rows whose ``R⋈`` rows the predicate masks."""

    def test_push_one_hop(self, favorita_tiny):
        g = favorita_tiny.graph
        preds = [Pred("f_store", 500, True, True)]
        cond = fact_condition(g, "sales", {"stores": preds}, favorita_tiny.dims)
        n = g.relations["sales"].df.filter(cond).count()
        assert n == _wide_matches(favorita_tiny.wide_pandas(), preds) > 0

    def test_push_with_pandas_tables(self, favorita_tiny):
        """A flattened one-hop branch is the dimension projected to its
        keys and features, and filters like the whole dimension."""
        g = favorita_tiny.graph
        items = flatten(g, "items")
        assert list(items.columns) == ["item_id", *g.relations["items"].features]
        leaf = _leaf(Pred("f_item", 300, True, False))
        fact = g.relations["sales"].df
        n1 = fact.filter(leaf_condition(g, "sales", leaf, {"items": items})).count()
        n2 = fact.filter(leaf_condition(g, "sales", leaf, favorita_tiny.dims)).count()
        assert n1 == n2 == _wide_matches(favorita_tiny.wide_pandas(), leaf.preds)

    def test_push_two_hops(self, chain_graph):
        """A customer predicate filters lineitem by ``l_orderkey`` through
        ``orders`` flattened with ``customer`` (§4.1 chain)."""
        assert branch(chain_graph, "lineitem", "customer") == "orders"
        assert branch(chain_graph, "lineitem", "lineitem") == "lineitem"
        orders = flatten(chain_graph, "orders")
        assert len(orders) == chain_graph.relations["orders"].df.count()
        tables = {"orders": orders}
        wide = chain_graph.materialize().toPandas()
        fact = chain_graph.relations["lineitem"].df
        for preds in (
            [Pred("c_acctbal", 0.0, True, False)],
            [Pred("c_acctbal", 0.0, True, False), Pred("o_totalprice", 2e5, True, True)],
        ):
            n = fact.filter(leaf_condition(chain_graph, "lineitem", _leaf(*preds), tables)).count()
            assert n == _wide_matches(wide, preds) > 0

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
        cond = leaf_condition(g, "fact", _leaf(pred), {"dim": flatten(g, "dim")})
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
        cond = leaf_condition(g, "sales", _leaf(pred), favorita_tiny.dims)
        assert g.relations["sales"].df.filter(cond).count() == 0
        st = StarTreeTrainer(g, TrainParams(max_leaves=4))
        st.set_fact(VarianceSemiring(track_q=False).lift(g.relations["sales"].df, "y"))
        cols = st._grouping_cols([f for f, _, _ in g.all_features()])
        stats = st._node_stats({"stores": (pred,)}, cols)
        assert (stats.c, stats.s) == (0.0, 0.0)

    def test_empty_intermediate_hop(self, chain_graph):
        """A two-hop predicate no customer meets leaves no ``orders`` key
        in the flattened branch: the fact filter is FALSE."""
        leaf = _leaf(Pred("c_acctbal", -1e12, True, True))
        tables = {"orders": flatten(chain_graph, "orders")}
        cond = leaf_condition(chain_graph, "lineitem", leaf, tables)
        assert chain_graph.relations["lineitem"].df.filter(cond).count() == 0


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
        """The galaxy annotation update pushes its leaf keys through
        driver-side tables as SQL ``IN`` strings."""
        res = GradientBoosting(
            imdb_tiny.graph, n_iters=1, learning_rate=0.3,
            params=TrainParams(max_leaves=3), track_rmse=True,
        ).fit()
        assert res.ensemble.trees[0].n_leaves() > 1
        expect = res.ensemble.rmse_np(imdb_tiny.wide_pandas(), "rating")
        assert res.logs[-1].rmse == pytest.approx(expect, rel=1e-6)


def _make_updater(favorita_tiny, strategy, payload=()):
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
        dim_pandas=favorita_tiny.dims,
    )


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["naive", "create", "swap"])
    def test_residual_matches_oracle(self, favorita_tiny, fav_tree, strategy):
        """After one update, per-row residual == y − lr·p(leaf)."""
        upd = _make_updater(favorita_tiny, strategy)
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
            upd = _make_updater(favorita_tiny, strategy)
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
            dim_pandas=favorita_tiny.dims, payload_cols=["payload_0"],
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
            base_score=100.0, dim_pandas=favorita_tiny.dims, strategy="swap",
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
        upd = _make_updater(favorita_tiny, "swap")
        upd.update(fav_tree)
        assert upd.last_update_seconds > 0
        upd.close()

    @pytest.mark.parametrize("strategy", ["naive", "create", "swap"])
    def test_two_updates_then_one_read(self, favorita_tiny, fav_tree, strategy):
        """A copy nothing has read yet still feeds the next update: the
        read after two updates fills both and sees y − 2·lr·p(leaf)."""
        upd = _make_updater(favorita_tiny, strategy)
        upd.update(fav_tree)
        upd.update(fav_tree)
        keys = ["store_id", "item_id", "date_id"]
        got = (
            upd.current.select(*keys, PREFIX + "s").toPandas()
            .sort_values(keys + [PREFIX + "s"]).reset_index(drop=True)
        )
        wide = favorita_tiny.wide_pandas()
        expect = wide[keys].assign(
            **{PREFIX + "s": wide["y"].to_numpy() - 2 * 0.1 * fav_tree.predict_np(wide)}
        ).sort_values(keys + [PREFIX + "s"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect, check_dtype=False, atol=1e-9)
        upd.close()

    @pytest.mark.parametrize("strategy", ["create", "swap"])
    def test_update_runs_no_spark_job(
        self, next_job_id, favorita_tiny, fav_tree, strategy
    ):
        """With driver-side dimensions an update (the centring one in the
        constructor too) only plans its copy; the copy's first reader
        fills it."""
        first = next_job_id()
        upd = _make_updater(favorita_tiny, strategy)
        upd.update(fav_tree)
        assert next_job_id() == first
        assert upd.current.count() == len(favorita_tiny.fact)
        assert next_job_id() > first
        upd.close()

    def test_update_seconds_include_leaf_conditions(
        self, monkeypatch, favorita_tiny, fav_tree
    ):
        import repro.core.residual as residual

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return leaf_condition(*args, **kwargs)

        upd = _make_updater(favorita_tiny, "swap")
        monkeypatch.setattr(residual, "leaf_condition", slow)
        upd.update(fav_tree)
        assert upd.last_update_seconds >= 0.05 * fav_tree.n_leaves()
        upd.close()


def test_t8_facts_share_one_partition_count(spark):
    """T8 builds every k's fact with the same partition count, so a
    write's task count does not depend on the payload width. Small Arrow
    batches and a local-relation threshold between the k=0 and k=10
    frames' sizes make the wide frame many partitions and the narrow one
    a local relation, as at T8's 1M rows."""
    from repro.experiments.tables import _synthetic_update_setup

    conf = {
        "spark.sql.execution.arrow.maxRecordsPerBatch": "100",
        "spark.sql.execution.arrow.localRelationThreshold": "200000",
    }
    saved = {k: spark.conf.get(k, None) for k in conf}
    try:
        for k, v in conf.items():
            spark.conf.set(k, v)
        parts = {
            k: _synthetic_update_setup(spark, 4000, k)[0]
            .relations["F"].df.rdd.getNumPartitions()
            for k in (0, 10)
        }
    finally:
        for k, v in saved.items():
            spark.conf.unset(k) if v is None else spark.conf.set(k, v)
    assert parts[0] == parts[10] == spark.sparkContext.defaultParallelism
