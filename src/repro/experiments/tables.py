"""One harness per reproduced evaluation table (paper Figs 5, 8–16, 18).

Each ``t*_…(spark, …)`` function runs the experiment at a laptop scale
and returns an :class:`ExperimentResult` with the same row structure the
paper's figure reports. Its signature's defaults are the table's run
arguments. :data:`TABLES` registers every harness under its table id
(``"t1"`` … ``"t11"``) with the flags the command line exposes; both
``python -m repro.experiments tN`` and ``benchmarks/bench_tables.py``
(timed, captured into bench_output.txt) run from it. Paper-vs-measured
comparisons live in EXPERIMENTS.md.
"""
from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from ..baselines.madlib_like import MadlibLikeTrainer
from ..baselines.materialize import MemoryGateError, estimate_wide_bytes, export_load
from ..baselines.npgbm import NpGBM, NpRandomForest
from ..core.gbm import GradientBoosting
from ..core.rf import RandomForest
from ..core.semiring import PREFIX, VarianceSemiring
from ..core.star_trainer import StarTreeTrainer
from ..core.trainer import FactorizedTreeTrainer, NaiveTreeTrainer, TrainParams
from ..core.tree import DecisionTree, Node, Pred
from ..data.favorita import favorita
from ..data.imdb import imdb
from ..data.tpcds import tpcds
from .common import ExperimentResult


def _features(graph) -> List[str]:
    return [f for f, _, _ in graph.all_features()]


def _cum(logs, idxs):
    """Cumulative seconds at 1-based iteration checkpoints."""
    csum = np.cumsum([l.tree_seconds + l.update_seconds for l in logs])
    return {i: float(csum[i - 1]) for i in idxs if i <= len(csum)}


def _trees_equivalent(a: DecisionTree, b: DecisionTree, rel: float = 1e-6) -> bool:
    """Structural equality with leaf tolerance.

    The library baseline trains on the CSV-round-tripped export (exactly
    what the paper's pipeline does), which perturbs float values in the
    last ulps — identical structure with ≤rel leaf drift is the
    'identical models' claim at pipeline precision.
    """

    def rec(x, y):
        if ("leaf" in x) != ("leaf" in y):
            return False
        if "leaf" in x:
            return abs(x["leaf"] - y["leaf"]) <= rel * max(1.0, abs(y["leaf"]))
        return (
            x["feature"] == y["feature"]
            and x["value"] == y["value"]
            and rec(x["left"], y["left"])
            and rec(x["right"], y["right"])
        )

    return rec(a.to_dict(), b.to_dict())


# ----------------------------------------------------------------------
# T1 — Fig 8a: random forest training time vs iterations
# ----------------------------------------------------------------------
def t1_random_forest(
    spark: SparkSession, sf: float = 0.5, n_trees: int = 8, seed: int = 0
) -> ExperimentResult:
    data = favorita(spark, sf=sf, n_extra_features=8, seed=seed)
    params = TrainParams(max_leaves=8)
    res = ExperimentResult("T1", f"Random forest on Favorita-lite SF={sf} "
                                 f"({len(data.fact)} fact rows), {n_trees} trees")
    jb = RandomForest(
        data.graph, n_trees=n_trees, row_fraction=0.1, feature_fraction=0.8,
        params=params, n_jobs=4, seed=seed,
    )
    fit = jb.fit()
    wide = data.wide_pandas()
    jb_rmse = fit.ensemble.rmse_np(wide, "y")
    # library baseline: charged the materialize→export→load pipeline
    pipe = export_load(data.graph)
    lib = NpRandomForest(
        pipe.pdf, _features(data.graph), _features(data.graph), "y",
        n_trees=n_trees, row_fraction=0.1, feature_fraction=0.8,
        params=params, n_jobs=4, seed=seed,
    )
    ens, times, wall = lib.fit()
    lib_rmse = ens.rmse_np(wide, "y")
    cum_jb = np.cumsum(fit.tree_seconds)
    cum_lib = pipe.total_seconds + np.cumsum(times)
    for i in sorted({1, 2, 4, n_trees}):
        res.rows.append(
            {
                "iteration": i,
                "joinboost_s": float(cum_jb[i - 1]) if jb.n_jobs == 1 else None,
                "joinboost_wall_s": float(fit.wall_seconds * i / n_trees),
                "library_s": float(cum_lib[i - 1]),
            }
        )
    res.rows.append(
        {"iteration": "final_rmse", "joinboost_s": jb_rmse,
         "joinboost_wall_s": None, "library_s": lib_rmse}
    )
    res.notes.append(
        f"library pipeline (materialize+export {pipe.materialize_export_seconds:.1f}s, "
        f"load {pipe.load_seconds:.1f}s) = the paper's 0th iteration"
    )
    res.notes.append("both sides: 8 leaves, 10% row / 80% feature sampling, 4 threads")
    return res


# ----------------------------------------------------------------------
# T2 — Fig 8b,c: gradient boosting time + rmse vs iterations
# ----------------------------------------------------------------------
def t2_gradient_boosting(
    spark: SparkSession, sf: float = 0.5, n_iters: int = 6, seed: int = 0
) -> ExperimentResult:
    data = favorita(spark, sf=sf, n_extra_features=8, seed=seed)
    params = TrainParams(max_leaves=8)
    res = ExperimentResult(
        "T2", f"Gradient boosting on Favorita-lite SF={sf} "
              f"({len(data.fact)} fact rows), lr=0.1, 8 leaves"
    )
    gb = GradientBoosting(
        data.graph, n_iters=n_iters, learning_rate=0.1, params=params,
        strategy="swap", track_rmse=True,
    )
    fit = gb.fit()
    pipe = export_load(data.graph)
    lib = NpGBM(
        pipe.pdf, _features(data.graph), _features(data.graph), "y",
        n_iters=n_iters, learning_rate=0.1, params=params, track_rmse=True,
    )
    fit_np = lib.fit()
    cj = _cum(fit.logs, range(1, n_iters + 1))
    cl = _cum(fit_np.logs, range(1, n_iters + 1))
    for i in sorted({1, 2, 4, n_iters}):
        res.rows.append(
            {
                "iteration": i,
                "joinboost_s": cj[i],
                "library_s": pipe.total_seconds + cl[i],
                "joinboost_rmse": fit.logs[i - 1].rmse,
                "library_rmse": fit_np.logs[i - 1].rmse,
            }
        )
    identical = all(
        _trees_equivalent(a, b)
        for a, b in zip(fit.ensemble.trees, fit_np.ensemble.trees)
    )
    res.notes.append(
        f"models identical across engines (at CSV-pipeline precision): {identical}"
    )
    res.notes.append(
        f"library pipeline cost {pipe.total_seconds:.1f}s charged as 0th iteration"
    )
    return res


# ----------------------------------------------------------------------
# T3 — Fig 9: query census of the 1st GB iteration
# ----------------------------------------------------------------------
def t3_query_census(
    spark: SparkSession, sf: float = 0.005, seed: int = 0
) -> ExperimentResult:
    data = favorita(spark, sf=sf, n_extra_features=8, seed=seed)
    g = data.graph
    sr = VarianceSemiring(track_q=False)
    trainer = FactorizedTreeTrainer(g, sr, TrainParams(max_leaves=8))
    trainer.engine.lift_y()
    timings: List[tuple] = []

    eng = trainer.engine
    orig_msg, orig_abs = eng.message, eng.absorb

    def timed_msg(src, dst, ctx):
        n0 = eng.stats.message_queries
        t0 = time.perf_counter()
        out = orig_msg(src, dst, ctx)
        if eng.stats.message_queries > n0:  # ran, not cache hit / drop
            timings.append(("message", time.perf_counter() - t0))
        return out

    def timed_abs(root, group_by, ctx):
        t0 = time.perf_counter()
        out = orig_abs(root, group_by, ctx)
        # force execution so the timing covers the query, not plan building
        out = out.cache()
        out.count()
        timings.append(("split", time.perf_counter() - t0))
        return out

    eng.message, eng.absorb = timed_msg, timed_abs
    trainer.train()
    eng.message, eng.absorb = orig_msg, orig_abs
    eng.clear_cache()
    res = ExperimentResult(
        "T3", f"Query census, 1 tree of 8 leaves on Favorita-lite SF={sf} "
              "(general message-passing engine)"
    )
    for kind in ("split", "message"):
        ts = [t for k, t in timings if k == kind]
        res.rows.append(
            {
                "query_kind": kind,
                "count": len(ts),
                "median_ms": float(np.median(ts) * 1000),
                "p95_ms": float(np.percentile(ts, 95) * 1000),
                "max_ms": float(np.max(ts) * 1000),
            }
        )
    n_feats = len(g.all_features())
    res.notes.append(
        f"{n_feats} features, {len(g.edges)} join edges, 15 node evaluations: "
        f"paper expects #split = nodes×features, #message ≤ nodes×edges "
        "(cross-node caching removes reruns)"
    )
    return res


# ----------------------------------------------------------------------
# T4 — Fig 10: scaling the number of features
# ----------------------------------------------------------------------
def _gb_vs_library(graph, n_iters: int, lib_budget_mb: float) -> tuple:
    """GB seconds per iteration, JoinBoost vs the library pipeline under
    a memory gate: ``(jb_s, lib_s, gated)``, ``lib_s`` None when gated."""
    params = TrainParams(max_leaves=8)
    fit = GradientBoosting(
        graph, n_iters=n_iters, learning_rate=0.1, params=params
    ).fit()
    jb_s = fit.total_seconds() / n_iters
    try:
        pipe = export_load(graph, memory_budget_bytes=int(lib_budget_mb * 1e6))
    except MemoryGateError:
        return jb_s, None, True
    lib = NpGBM(
        pipe.pdf, _features(graph), _features(graph), "y",
        n_iters=n_iters, learning_rate=0.1, params=params,
    ).fit()
    return jb_s, (pipe.total_seconds + lib.total_seconds()) / n_iters, False


def t4_feature_scaling(
    spark: SparkSession,
    sf: float = 0.05,
    feature_counts: Sequence[int] = (5, 15, 30, 50),
    n_iters: int = 2,
    lib_budget_mb: float = 50.0,
    seed: int = 0,
) -> ExperimentResult:
    res = ExperimentResult(
        "T4", f"GB per-iteration time vs #features (Favorita-lite SF={sf}, "
              f"{n_iters} iters, library memory budget {lib_budget_mb:.0f} MB)"
    )
    for k in feature_counts:
        data = favorita(spark, sf=sf, n_extra_features=k - 5, seed=seed)
        jb_s, lib_s, gated = _gb_vs_library(data.graph, n_iters, lib_budget_mb)
        res.rows.append(
            {
                "n_features": k,
                "joinboost_s_per_iter": jb_s,
                "library_s_per_iter": lib_s,
                "library_oom": gated,
            }
        )
    res.notes.append(
        "library_oom=True reproduces 'LightGBM runs out of memory when "
        "imputing 50 features' via the scaled memory gate"
    )
    return res


# ----------------------------------------------------------------------
# T5 — Fig 11: scaling the database size (TPC-DS-lite)
# ----------------------------------------------------------------------
def t5_size_scaling(
    spark: SparkSession,
    sfs: Sequence[float] = (0.02, 0.05, 0.1),
    n_features: int = 10,
    n_iters: int = 2,
    lib_budget_mb: float = 30.0,
    seed: int = 0,
) -> ExperimentResult:
    res = ExperimentResult(
        "T5", f"GB per-iteration time vs TPC-DS-lite SF ({n_features} features, "
              f"{n_iters} iters, library memory budget {lib_budget_mb:.0f} MB)"
    )
    for sf in sfs:
        data = tpcds(spark, sf=sf, n_features=n_features, seed=seed)
        jb_s, lib_s, gated = _gb_vs_library(data.graph, n_iters, lib_budget_mb)
        res.rows.append(
            {
                "sf": sf,
                "fact_rows": len(data.fact),
                "joinboost_s_per_iter": jb_s,
                "library_s_per_iter": lib_s,
                "library_oom": gated,
            }
        )
    res.notes.append(
        "library_oom=True reproduces 'LightGBM runs out of memory at SF=25'"
    )
    return res


# ----------------------------------------------------------------------
# T6 — Figs 12/13: parallelism scaling (shuffle partitions as "machines")
# ----------------------------------------------------------------------
def t6_parallelism(
    spark: SparkSession,
    sf: float = 0.05,
    partitions: Sequence[int] = (1, 4, 16),
    seed: int = 0,
) -> ExperimentResult:
    res = ExperimentResult(
        "T6", f"Decision tree (depth 3) train time vs shuffle parallelism "
              f"(TPC-DS-lite SF={sf}) — single-box stand-in for Figs 12/13"
    )
    data = tpcds(spark, sf=sf, n_features=10, seed=seed)
    sr = VarianceSemiring(track_q=False)
    old = spark.conf.get("spark.sql.shuffle.partitions")
    try:
        for p in partitions:
            spark.conf.set("spark.sql.shuffle.partitions", str(p))
            st = StarTreeTrainer(data.graph, TrainParams(max_leaves=8, max_depth=3))
            fact = sr.lift(data.graph.relations[data.fact_name].df, "y").cache()
            fact.count()
            st.set_fact(fact)
            t0 = time.perf_counter()
            st.train()
            dt = time.perf_counter() - t0
            fact.unpersist()
            res.rows.append({"shuffle_partitions": p, "train_s": dt})
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)
    res.notes.append(
        "no cluster available: partitions sweep shows engine-level scaling; "
        "paper numbers (10%/25% reduction at 4/6 machines) in EXPERIMENTS.md"
    )
    return res


# ----------------------------------------------------------------------
# T7 — Fig 14: galaxy schema GB with Clustered Predicate Trees
# ----------------------------------------------------------------------
def t7_galaxy(
    spark: SparkSession,
    n_movies: int = 400,
    mean_cast: float = 30.0,
    mean_companies: float = 20.0,
    n_iters: int = 3,
    lib_budget_mb: float = 4.0,
    seed: int = 0,
) -> ExperimentResult:
    data = imdb(
        spark, n_movies=n_movies, mean_cast=mean_cast,
        mean_companies=mean_companies, seed=seed,
    )
    base_rows = sum(len(t) for t in data.tables.values())
    res = ExperimentResult(
        "T7", f"Galaxy GB with CPT on IMDB-lite (|R⋈|={data.join_rows} rows vs "
              f"{base_rows} base rows, blow-up {data.join_rows / base_rows:.1f}×)"
    )
    gb = GradientBoosting(
        data.graph, n_iters=n_iters, learning_rate=0.3,
        params=TrainParams(max_leaves=4), track_rmse=True,
    )
    fit = gb.fit()
    for i, log in enumerate(fit.logs, 1):
        res.rows.append(
            {
                "iteration": i,
                "cluster": fit.ensemble.trees[i - 1].cluster,
                "tree_s": log.tree_seconds,
                "update_s": log.update_seconds,
                "rmse": log.rmse,
            }
        )
    est = estimate_wide_bytes(data.graph, join_rows=data.join_rows)
    try:
        export_load(
            data.graph, memory_budget_bytes=int(lib_budget_mb * 1e6),
            join_rows=data.join_rows,
        )
        res.notes.append("library gate UNEXPECTEDLY passed")
    except MemoryGateError:
        res.notes.append(
            f"library baseline gated: estimated wide table {est / 1e6:.1f} MB > "
            f"{lib_budget_mb:.0f} MB budget — 'ML libraries do not run because "
            "the join is too large to materialize'"
        )
    return res


# ----------------------------------------------------------------------
# T8 — Figs 5/15: residual-update strategy microbenchmark
# ----------------------------------------------------------------------
def _synthetic_update_setup(spark, n_rows: int, k: int, seed: int = 0):
    """Paper §5.3.2 workload: F(s, d, c1..ck), 8-leaf tree over d ranges."""
    import pandas as pd
    from ..core.join_graph import JoinGraph

    rng = np.random.default_rng(seed)
    n_keys = 10_000
    fact = pd.DataFrame({"d": rng.integers(1, n_keys + 1, n_rows)})
    fact["y"] = rng.random(n_rows)
    for i in range(k):
        fact[f"payload_{i}"] = rng.random(n_rows)
    dim = pd.DataFrame({"d": np.arange(1, n_keys + 1)})
    dim["fd"] = dim["d"]  # feature == key: leaves are key ranges
    g = JoinGraph()
    g.add_relation("F", spark.createDataFrame(fact), y="y")
    g.add_relation("D", spark.createDataFrame(dim), features=["fd"], numeric=["fd"])
    g.add_edge("F", "D", ["d"])

    # hand-built 8-leaf tree over fd ranges of width 1250 (paper workload)
    def build(lo, hi, depth):
        node = Node(0, depth)
        if hi - lo == 1250:
            node.prediction = float(rng.random())
            return node
        mid = (lo + hi) // 2
        node.split_feature, node.split_value, node.split_numeric = "fd", mid, True
        node.left = build(lo, mid, depth + 1)
        node.right = build(mid, hi, depth + 1)
        for side, child in ((True, node.left), (False, node.right)):
            child.preds = node.preds + [Pred("fd", mid, True, side)]
        return node

    root = build(0, n_keys, 0)

    # fix up path predicates (build() sets them only one level deep)
    def fix(node):
        if node.split_feature is None:
            return
        for side, child in ((True, node.left), (False, node.right)):
            child.preds = node.preds + [
                Pred(node.split_feature, node.split_value, True, side)
            ]
            fix(child)

    fix(root)
    return g, fact, dim, DecisionTree(root)


def t8_residual_update(
    spark: SparkSession, n_rows: int = 1_000_000, seed: int = 0
) -> ExperimentResult:
    from ..core.residual import SnowflakeResidualUpdater

    res = ExperimentResult(
        "T8", f"Residual-update time, synthetic F(s,d,c1..ck) with {n_rows} rows, "
              "8-leaf tree (paper Fig 5 workload, 100M→scaled)"
    )
    configs = [
        ("naive", 0), ("create", 0), ("create", 5), ("create", 10), ("swap", 10),
    ]
    # The leading ("create", 0) run is an unreported global warm-up: the
    # first Spark queries of a session pay one-off JVM/codegen/arrow
    # costs that would otherwise be misattributed to whichever strategy
    # happens to run first.
    for i, (strategy, k) in enumerate([("create", 0)] + configs):
        warmup_config = i == 0
        g, fact_pdf, dim_pdf, tree = _synthetic_update_setup(spark, n_rows, k, seed)
        upd = SnowflakeResidualUpdater(
            graph=g, fact="F", fact_df=g.relations["F"].df, y="y",
            base_score=0.0, strategy=strategy, learning_rate=0.1,
            payload_cols=[f"payload_{i}" for i in range(k)],
            needed_cols=["d"],
            dim_pandas={"D": dim_pdf},
        )
        # per-config warm-up update, then the measured one: boosting is a
        # steady-state workload, and the first query of each new plan
        # shape additionally pays whole-stage-codegen compilation. An
        # update's copy is written by its first reader, so each times
        # update() plus that read.
        for _ in range(2):
            t0 = time.perf_counter()
            upd.update(tree)
            upd.current.count()
            update_s = time.perf_counter() - t0
        if not warmup_config:
            res.rows.append({"method": f"{strategy}-k{k}", "update_s": update_s})
        upd.close()
    # the in-memory reference: LightGBM-style parallel array write
    rng = np.random.default_rng(seed)
    resid = rng.random(n_rows)
    pred = rng.random(n_rows)
    t0 = time.perf_counter()
    resid -= 0.1 * pred
    res.rows.append({"method": "numpy-array-write (LightGBM ref)",
                     "update_s": time.perf_counter() - t0})
    res.notes.append(
        "expected ordering (paper Fig 5): naive ≫ create (grows with k) > "
        "swap ≈ in-memory write; SET has no Spark analogue (immutable DFs)"
    )
    return res


# ----------------------------------------------------------------------
# T9 — Fig 16a: JoinBoost vs LMFAO-like Batch vs Naive (decision tree)
# ----------------------------------------------------------------------
def t9_lmfao(
    spark: SparkSession, sf: float = 0.02, max_leaves: int = 6, seed: int = 0
) -> ExperimentResult:
    data = favorita(spark, sf=sf, n_extra_features=0, seed=seed)
    g = data.graph
    params = TrainParams(max_leaves=max_leaves)
    sr = VarianceSemiring(track_q=False)
    res = ExperimentResult(
        "T9", f"Decision tree ({max_leaves} leaves) on Favorita-lite SF={sf}: "
              "message-caching ablation (Fig 16a)"
    )
    trees = {}
    # JoinBoost's batched-aggregate form (one GROUPING SETS job per node,
    # the LMFAO "batch of group-bys" idea adapted to Spark's per-query
    # cost model) — the production path used by T1/T2.
    st = StarTreeTrainer(g, params)
    st.set_fact(sr.lift(g.relations["sales"].df, "y"))
    t0 = time.perf_counter()
    trees["star"] = st.train()
    res.rows.append(
        {
            "method": "joinboost (batched aggregates)",
            "train_s": time.perf_counter() - t0,
            "message_queries": st.jobs_run,
            "cache_hits": None,
        }
    )
    for mode in ("joinboost", "batch"):
        tr = FactorizedTreeTrainer(g, sr, params, mode=mode)
        tr.engine.lift_y()
        t0 = time.perf_counter()
        trees[mode] = tr.train()
        dt = time.perf_counter() - t0
        stats = tr.engine.stats
        tr.engine.clear_cache()
        res.rows.append(
            {
                "method": mode,
                "train_s": dt,
                "message_queries": stats.message_queries,
                "cache_hits": stats.message_cache_hits,
            }
        )
    t0 = time.perf_counter()
    nv = NaiveTreeTrainer(g, params)
    trees["naive"] = nv.train()
    dt = time.perf_counter() - t0
    nv.close()
    res.rows.append(
        {"method": "naive (materialized)", "train_s": dt,
         "message_queries": None, "cache_hits": None}
    )
    same = (
        trees["star"].to_dict()
        == trees["joinboost"].to_dict()
        == trees["batch"].to_dict()
        == trees["naive"].to_dict()
    )
    res.notes.append(f"all four trained the identical model: {same}")
    res.notes.append(
        "joinboost/batch rows use the per-query message-passing engine "
        "(faithful to the paper's query census); Spark's ~0.5s fixed "
        "per-query cost penalizes it vs DuckDB — see EXPERIMENTS.md"
    )
    return res


# ----------------------------------------------------------------------
# T10 — Fig 16b: JoinBoost vs MADLib-like (10k rows)
# ----------------------------------------------------------------------
def t10_madlib(
    spark: SparkSession, n_rows: int = 10_000, max_leaves: int = 4, seed: int = 0
) -> ExperimentResult:
    sf = n_rows / 3_000_000
    data = favorita(spark, sf=sf, n_extra_features=0, seed=seed)
    g = data.graph
    params = TrainParams(max_leaves=max_leaves)
    res = ExperimentResult(
        "T10", f"Decision tree ({max_leaves} leaves) on {len(data.fact)}-row "
               "Favorita-lite: JoinBoost vs MADLib-like (Fig 16b)"
    )
    sr = VarianceSemiring(track_q=False)
    st = StarTreeTrainer(g, params)
    st.set_fact(sr.lift(g.relations["sales"].df, "y"))
    t0 = time.perf_counter()
    st.train()
    res.rows.append(
        {"method": "joinboost", "train_s": time.perf_counter() - t0,
         "queries": st.jobs_run}
    )
    tr = MadlibLikeTrainer(g, params, max_candidates=8)
    t0 = time.perf_counter()
    tr.train()
    res.rows.append(
        {"method": "madlib-like", "train_s": time.perf_counter() - t0,
         "queries": tr.queries_issued}
    )
    tr.close()
    res.notes.append(
        "madlib-like = non-factorized, one filter+aggregate query per "
        "candidate split (the UDF execution pattern); paper reduced MADLib "
        "to 10k rows after a 1h timeout on full data"
    )
    return res


# ----------------------------------------------------------------------
# T11 — Fig 18: inter-query parallelism ablation
# ----------------------------------------------------------------------
def t11_parallelism_ablation(
    spark: SparkSession, sf: float = 0.02, n_trees: int = 4, seed: int = 0
) -> ExperimentResult:
    data = favorita(spark, sf=sf, n_extra_features=0, seed=seed)
    res = ExperimentResult(
        "T11", f"Inter-query parallelism on/off (Favorita-lite SF={sf})"
    )
    params = TrainParams(max_leaves=8)
    # unreported warm-up fit: the first RF of a session pays dim
    # collection + codegen costs that would skew whichever setting runs
    # first
    RandomForest(
        data.graph, n_trees=2, row_fraction=0.1, params=params, seed=seed
    ).fit()
    for jobs in (1, 4):
        rf = RandomForest(
            data.graph, n_trees=n_trees, row_fraction=0.1, params=params,
            n_jobs=jobs, seed=seed,
        )
        fit = rf.fit()
        res.rows.append(
            {"workload": f"random_forest({n_trees} trees)", "n_jobs": jobs,
             "wall_s": fit.wall_seconds}
        )
    sr = VarianceSemiring(track_q=False)
    for jobs in (1, 4):
        tr = FactorizedTreeTrainer(
            data.graph, sr, TrainParams(max_leaves=6, n_jobs=jobs)
        )
        tr.engine.lift_y()
        t0 = time.perf_counter()
        tr.train()
        dt = time.perf_counter() - t0
        tr.engine.clear_cache()
        res.rows.append(
            {"workload": "decision_tree(6 leaves, general engine)",
             "n_jobs": jobs, "wall_s": dt}
        )
    res.notes.append(
        "paper Fig 18: inter-query parallelism cuts GB by 28% and RF by 35%"
    )
    return res


# ----------------------------------------------------------------------
# The registry: table id → (harness, the keyword parameters the command
# line exposes as flags). Defaults and types come from the signature.
# ----------------------------------------------------------------------
TABLES = {
    "t1": (t1_random_forest, ("sf", "n_trees")),
    "t2": (t2_gradient_boosting, ("sf", "n_iters")),
    "t3": (t3_query_census, ("sf",)),
    "t4": (t4_feature_scaling, ("sf", "n_iters")),
    "t5": (t5_size_scaling, ("n_iters",)),
    "t6": (t6_parallelism, ("sf",)),
    "t7": (t7_galaxy, ("n_iters",)),
    "t8": (t8_residual_update, ("n_rows",)),
    "t9": (t9_lmfao, ("sf", "max_leaves")),
    "t10": (t10_madlib, ("n_rows",)),
    "t11": (t11_parallelism_ablation, ("sf",)),
}
