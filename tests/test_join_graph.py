"""JoinGraph structure tests: trees, schedules, clusters, materialize."""
import pytest

from repro.core.join_graph import JoinGraph
from repro.oracle import assert_equivalent


def _mini_graph(spark):
    g = JoinGraph()
    g.add_relation("f", spark.createDataFrame([(1, 1, 2.0)], "ka int, kb int, y double"), y="y")
    g.add_relation("a", spark.createDataFrame([(1, 10)], "ka int, fa int"), features=["fa"])
    g.add_relation("b", spark.createDataFrame([(1, 20)], "kb int, fb int"), features=["fb"])
    g.add_edge("f", "a", ["ka"])
    g.add_edge("f", "b", ["kb"])
    return g


class TestConstruction:
    def test_duplicate_relation(self, spark):
        g = JoinGraph()
        g.add_relation("r", spark.range(1))
        with pytest.raises(ValueError, match="duplicate relation"):
            g.add_relation("r", spark.range(1))

    def test_unknown_relation_edge(self, spark):
        g = JoinGraph()
        g.add_relation("r", spark.range(1))
        with pytest.raises(ValueError, match="unknown relation"):
            g.add_edge("r", "nope", ["id"])

    def test_duplicate_edge(self, spark):
        g = _mini_graph(spark)
        with pytest.raises(ValueError, match="duplicate edge"):
            g.add_edge("a", "f", ["ka"])

    def test_y_relation(self, spark):
        g = _mini_graph(spark)
        assert g.y_relation == "f"
        assert g.y_column == "y"

    def test_no_y_raises(self, spark):
        g = JoinGraph()
        g.add_relation("r", spark.range(1))
        with pytest.raises(ValueError, match="exactly one relation"):
            g.y_relation

    def test_feature_relation(self, spark):
        g = _mini_graph(spark)
        assert g.feature_relation("fa") == "a"
        with pytest.raises(ValueError):
            g.feature_relation("nope")

    def test_all_features(self, spark):
        g = _mini_graph(spark)
        assert {(f, r) for f, r, _ in g.all_features()} == {("fa", "a"), ("fb", "b")}


class TestStructure:
    def test_validate_tree_ok(self, spark):
        _mini_graph(spark).validate_tree()

    def test_cycle_rejected(self, spark):
        g = _mini_graph(spark)
        g.add_relation("c", spark.createDataFrame([(1, 1)], "ka int, kb int"))
        g.add_edge("c", "a", ["ka"])
        g.add_edge("c", "b", ["kb"])
        with pytest.raises(ValueError, match="must be a tree"):
            g.validate_tree()

    def test_disconnected_rejected(self, spark):
        g = JoinGraph()
        g.add_relation("r1", spark.range(1))
        g.add_relation("r2", spark.range(1))
        with pytest.raises(ValueError):
            g.validate_tree()  # 2 relations, 0 edges

    def test_message_schedule_order(self, chain_graph):
        sched = chain_graph.message_schedule("lineitem")
        # leaf-to-root: customer → orders must come before orders → lineitem
        pairs = [(s, d) for s, d, _ in sched]
        assert pairs.index(("customer", "orders")) < pairs.index(("orders", "lineitem"))

    def test_message_schedule_root_validation(self, chain_graph):
        with pytest.raises(ValueError, match="unknown root"):
            chain_graph.message_schedule("nope")

    def test_path(self, chain_graph):
        assert chain_graph.path("lineitem", "customer") == [
            "lineitem",
            "orders",
            "customer",
        ]
        assert chain_graph.path("customer", "customer") == ["customer"]

    def test_edge_either_direction(self, spark):
        g = _mini_graph(spark)
        e = g.edge("f", "a")
        assert (e.many, e.one, e.keys) == ("f", "a", ("ka",))
        assert g.edge("a", "f") is e

    def test_edge_missing(self, spark):
        g = _mini_graph(spark)
        with pytest.raises(ValueError, match="no edge between 'a' and 'b'"):
            g.edge("a", "b")
        with pytest.raises(ValueError, match="no edge"):
            g.edge("f", "f")

    def test_schedule_covers_all_edges(self, favorita_tiny):
        g = favorita_tiny.graph
        sched = g.message_schedule("sales")
        assert len(sched) == len(g.edges)


class TestClusters:
    def test_snowflake_single_cluster(self, favorita_tiny):
        g = favorita_tiny.graph
        cl = g.clusters()
        assert set(cl) == {"sales"}
        assert cl["sales"] == frozenset(g.relations)
        assert g.is_snowflake()

    def test_chain_is_snowflake(self, chain_graph):
        cl = chain_graph.clusters()
        assert chain_graph.is_snowflake()
        assert set(cl) == {"lineitem"}

    def test_galaxy_clusters(self, imdb_tiny):
        g = imdb_tiny.graph
        cl = g.clusters()
        assert set(cl) == {"cast_info", "movie_company"}
        assert cl["cast_info"] == frozenset({"cast_info", "person", "movie"})
        assert cl["movie_company"] == frozenset({"movie_company", "movie", "company"})
        assert not g.is_snowflake()

    def test_cluster_of_feature(self, imdb_tiny):
        g = imdb_tiny.graph
        assert g.cluster_of_feature("p_age") == ["cast_info"]
        assert g.cluster_of_feature("co_size") == ["movie_company"]
        # movie is shared: features on it belong to both clusters
        assert g.cluster_of_feature("m_year") == ["cast_info", "movie_company"]


class TestMaterialize:
    def test_star_row_count(self, favorita_tiny):
        # snowflake with guaranteed-matching FKs: |R⋈| == |fact|
        wide = favorita_tiny.graph.materialize()
        assert wide.count() == len(favorita_tiny.fact)

    def test_star_matches_pandas_oracle(self, favorita_tiny):
        wide = favorita_tiny.graph.materialize()
        agg = wide.groupBy("f_store").count().withColumnRenamed("count", "n")
        assert_equivalent(
            agg,
            "SELECT f_store, COUNT(*) AS n FROM wide GROUP BY f_store",
            wide=favorita_tiny.wide_pandas(),
        )

    def test_galaxy_blowup(self, imdb_tiny):
        wide = imdb_tiny.graph.materialize()
        assert wide.count() == imdb_tiny.join_rows
        assert imdb_tiny.join_rows > len(imdb_tiny.tables["cast_info"])
