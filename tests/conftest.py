"""Shared fixtures: tiny datasets reused across the whole test session.

Scale discipline: unit tests run at SF≈0.002 (≈6k fact rows) so the
whole suite stays minutes, while the DuckDB oracle still exercises real
shuffle joins (broadcast disabled by the session fixture; the star fast
path re-broadcasts per-query where documented).
"""
import os

# Smaller shuffle fan-out for tiny test data — must be set before the
# root conftest's session fixture builds the SparkSession.
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import numpy as np
import pytest

from repro.core.join_graph import JoinGraph
from repro.data.favorita import favorita
from repro.data.imdb import imdb
from repro.data.star import DimSpec, build_star


@pytest.fixture(scope="session")
def favorita_tiny(spark):
    """Float-y Favorita-lite: 6k fact rows, 5 predictive features."""
    return favorita(spark, sf=0.002, n_extra_features=0, seed=7)


@pytest.fixture(scope="session")
def star_int(spark):
    """Star schema with an *integer* target and zero noise.

    Integer y ⇒ every semi-ring sum is exact in float64 ⇒ all trainers
    (factorized, star-batched, naive, NumPy) are bit-identical — the
    fixture behind the exact model-parity tests.
    """
    dims = [
        DimSpec("da", "ka", 40, "fa", 1),
        DimSpec("db", "kb", 25, "fb", 0),
        DimSpec("dc", "kc", 15, "fc", 0),
    ]

    def target(f):
        return (2 * f["fa"] + 3 * f["fb"] - f["fc"]).astype("float64")

    return build_star(
        spark, "fact", 4000, dims, target, noise_sigma=0.0, seed=11
    )


@pytest.fixture(scope="session")
def chain_graph(spark):
    """A 3-deep snowflake chain (lineitem → orders → customer) from the
    provided TPC-H-lite generators; exercises multi-hop messages and
    predicate push-down through an intermediate dimension."""
    from repro import synth_data

    li = synth_data.lineitem(spark, sf=0.002, seed=3)
    o = synth_data.orders(spark, sf=0.002, seed=4).withColumnRenamed(
        "o_orderkey", "l_orderkey"
    )
    c = synth_data.customer(spark, sf=0.002, seed=5).withColumnRenamed(
        "c_custkey", "o_custkey"
    )
    g = JoinGraph()
    g.add_relation(
        "lineitem",
        li.select("l_orderkey", "l_quantity", "l_discount"),
        features=["l_discount"],
        numeric=["l_discount"],
        y="l_quantity",
    )
    g.add_relation(
        "orders",
        o.select("l_orderkey", "o_custkey", "o_totalprice"),
        features=["o_totalprice"],
        numeric=["o_totalprice"],
    )
    g.add_relation(
        "customer",
        c.select("o_custkey", "c_acctbal", "c_mktsegment"),
        features=["c_acctbal", "c_mktsegment"],
        numeric=["c_acctbal"],
    )
    g.add_edge("lineitem", "orders", ["l_orderkey"])
    g.add_edge("orders", "customer", ["o_custkey"])
    return g


@pytest.fixture(scope="session")
def imdb_tiny(spark):
    """Galaxy schema small enough to materialize for oracles."""
    return imdb(spark, n_movies=60, mean_cast=4.0, mean_companies=2.0, seed=13)


@pytest.fixture(scope="session")
def next_job_id(spark):
    """Returns the id the next Spark job gets; job ids are sequential, so
    a difference of two readings counts the jobs run in between."""
    sched = spark.sparkContext._jsc.sc().dagScheduler()
    return lambda: int(sched.nextJobId())
