"""Warm fit time of the factorized tree trainer, end to end and by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gb_favorita --seed 0 --seconds 20 --trace 0

One run starts Spark, sets up (builds the tables from the seed, the join
graph and the estimator, three times; then one cold fit and the
correctness reference), makes one untimed warm-up fit, then repeats warm
fits until ``--seconds`` have passed (at least ``MIN_FITS``). Before each
fit it records what the previous fit left cached and clears Spark's
cache, so fits are independent. Every fit passes the workload's
correctness gate.

``--trace 0`` reports the end-to-end metrics (untraced fits).
``--trace 1`` alternates untraced and traced fits and reports the
per-layer metrics of the traced ones, plus the tracing overhead; on a
workload with a forest it then fits that forest twice for the ``rf``
layer.

Details go to stderr; the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
#: the median of three fits drops one that a burst of host load slowed;
#: a traced run needs three to put an untraced fit on either side of a
#: traced one
MIN_FITS = 3
#: span name of the timed call
ROOT_SPAN = "gbm.fit"
#: the named layers must cover at least this share of a traced fit
MIN_COVERAGE = 0.95


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"perfbench: no library source under {ROOT / 'src'}; run from a checkout")
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import spark_env
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spark, start_s = spark_env.start(str(tmp))
    try:
        result, samples = run(spark, WORKLOADS[args.workload], args, spec, start_s)
    finally:
        spark_env.stop(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(
        f"{args.workload} seed={args.seed}: attempted={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:12.4f} {m['unit']:6s} ({samples[name]})")
    print(json.dumps(result), flush=True)
    return 0


def run(spark, w, args, spec: dict, start_s: float) -> tuple:
    import spark_env
    from workloads import gate_rejects_perturbed, same_model

    env = spark_env.environment(spark)
    log(f"perfbench: {w.name} seed={args.seed} env={json.dumps(env)}")

    # -- set-up: tables, join graph and estimator, several times -------
    rep_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        data = w.build(spark, args.seed)
        est = w.estimator(data)
        rep_s.append(time.perf_counter() - t0)
    attempted = failed = 0
    t0 = time.perf_counter()
    try:
        cold = w.cold(data).fit()
    except Exception:  # a failed fit is counted, not fatal
        log(f"perfbench: cold fit raised\n{traceback.format_exc()}")
        cold = None
    cold_s = time.perf_counter() - t0
    attempted += 1
    ref = w.reference(data, cold) if cold is not None else None
    setup_ok = ref is not None and ref.ok and same_model(cold.ensemble, ref.ensemble)
    failed += 0 if setup_ok else 1
    self_test_ok = gate_rejects_perturbed(ref)
    setup_s = start_s + statistics.median(rep_s) + cold_s
    counters = spark_env.SparkCounters(spark)

    # one untimed warm-up fit: after the cold fit the JVM is still
    # compiling hot code, and the next fits run up to 30% slower
    attempted += 1
    counters.clear_cache()
    try:
        ok = same_model(est.fit().ensemble, ref.ensemble) if ref else False
    except Exception:
        log(f"perfbench: warm-up fit raised\n{traceback.format_exc()}")
        ok = False
    failed += 0 if ok else 1
    log(
        f"perfbench: setup spark_start={start_s:.3f}s tables+graph+estimator="
        f"{[round(x, 3) for x in rep_s]} cold_fit={cold_s:.3f}s "
        f"reference={ref.detail if ref else None} reference_ok={setup_ok} "
        f"gate_self_test_ok={self_test_ok}"
    )

    # -- timed warm fits ------------------------------------------------
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    fits, traced_layers, job_counts = [], [], []  # fits: (traced, seconds)
    left_mb = []  # storage left by each untraced fit
    # traced runs alternate untraced, traced, ..., untraced, so each traced
    # fit has an untraced fit on either side to compare with
    t_loop = time.perf_counter()
    i = 0
    while True:
        # start another fit only if a typical one still ends in time
        expected = statistics.median(dt for _, dt in fits) if fits else 0.0
        enough = i >= MIN_FITS and (tracer is None or i % 2 == 1)
        if enough and time.perf_counter() - t_loop + expected > args.seconds:
            break
        traced = tracer is not None and i % 2 == 1
        counters.clear_cache()
        j0 = counters.next_job_id()
        mark = tracer.mark() if traced else None
        ticks0 = cpu_ticks()
        try:
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                res = est.fit()
                dt = time.perf_counter() - t0
            ok = same_model(res.ensemble, ref.ensemble) if ref else False
        except Exception:
            log(f"perfbench: fit raised\n{traceback.format_exc()}")
            res, ok, dt = None, False, float("nan")
        ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
        steal = ticks[0] / ticks[1] if ticks[1] else 0.0
        j1 = counters.next_job_id()
        left = counters.storage()
        attempted += 1
        failed += 0 if ok else 1
        job_counts.append(j1 - j0)
        fits.append((traced, dt))
        if traced:
            traced_layers.append(layer_metrics(tracer, mark, dt, counters.jobs(j0, j1), left))
        else:
            left_mb.append(left[1] / 2**20)
        log(
            f"perfbench: fit {i} {'traced' if traced else 'untraced'} {dt:.3f}s "
            f"host_steal={steal:.0%} jobs={j1 - j0} left_blocks={left[0]} left_bytes={left[1]} ok={ok}"
        )
        i += 1

    untraced = [dt for traced, dt in fits if not traced]
    jobs_repeat = len(set(job_counts)) == 1
    correct = failed == 0 and self_test_ok and jobs_repeat
    fit_s = statistics.median(untraced)
    log(
        f"perfbench: fit_s median={fit_s:.4f} n={len(untraced)} "
        f"sorted={[round(x, 3) for x in sorted(untraced)]} jobs={job_counts} "
        f"jobs_repeat={jobs_repeat}"
    )
    if tracer is None:
        metrics = {
            "fit_s": fit_s,
            "setup_s": setup_s,
            "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cache_left_mb": statistics.median(left_mb),
        }
        samples = {
            "fit_s": f"median of {len(untraced)} warm fits",
            "setup_s": f"start + median of {SETUP_REPS} builds + cold fit",
            "driver_peak_rss_mb": "peak over the run",
            "cache_left_mb": f"median of {len(untraced)} warm fits",
        }
    else:
        metrics = median_layers(traced_layers)
        metrics["trace.fit_s"] = statistics.median(dt for traced, dt in fits if traced)
        # traced fit minus the mean of the untraced fits on either side,
        # which cancels a steady warm-up trend
        metrics["trace.overhead_s"] = statistics.median(
            dt - (fits[k - 1][1] + fits[k + 1][1]) / 2
            for k, (traced, dt) in enumerate(fits[:-1])
            if traced
        )
        samples = {k: f"median of {len(traced_layers)} traced fits" for k in metrics}
        coverage_ok = metrics["trace.coverage"] >= MIN_COVERAGE
        correct = correct and coverage_ok
        rf, rf_attempted, rf_failed = forest_metrics(counters, w, data)
        attempted += rf_attempted
        failed += rf_failed
        correct = correct and rf_failed == 0
        metrics.update(rf)
        samples.update({k: "warm forest fit" if w.forest else "no forest" for k in rf})
        log(f"perfbench: trace.coverage={metrics['trace.coverage']:.4f} ok={coverage_ok}")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(str(out / f"spans-{w.name}-{args.seed}.json"))
    wanted = spec["per_layer" if tracer else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }, samples


# -- per-layer metrics of one traced fit ------------------------------------
def layer_metrics(tracer, mark, fit_s: float, jobs, left) -> dict:
    t = tracer.layers(mark)
    g = lambda k: float(t.get(k, 0.0))  # noqa: E731
    queries, hits = g("engine.message_queries"), g("engine.message_cache_hits")
    m = {
        "spark.jobs": jobs.jobs,
        "spark.stages": jobs.stages,
        "spark.tasks": jobs.tasks,
        "spark.busy_s": jobs.busy_s,
        "spark.driver_gap_s": fit_s - jobs.busy_s,
        "spark.isin_s": g("spark.isin.s"),
        "spark.isin_calls": g("spark.isin.calls"),
        "spark.isin_literals": g("spark.isin.literals"),
        "spark.collect_s": g("spark.collect.s"),
        "spark.collect_calls": g("spark.collect.calls"),
        "spark.count_s": g("spark.count.s"),
        "spark.count_calls": g("spark.count.calls"),
        "spark.cache_left_blocks": left[0],
        "spark.cache_left_mb": left[1] / 2**20,
        "star_trainer.init_s": g("star_trainer.init.s"),
        "star_trainer.train_s": g("star_trainer.train.s"),
        "star_trainer.train_calls": g("star_trainer.train.calls"),
        "star_trainer.train_self_s": g("star_trainer.train.self_s"),
        "residual.update_s": g("residual.update.s"),
        "residual.update_calls": g("residual.update.calls"),
        "residual.leaf_condition_s": g("residual.leaf_condition.s"),
        "residual.leaf_condition_calls": g("residual.leaf_condition.calls"),
        "trainer.train_s": g("trainer.train.s"),
        "messages.message_s": g("messages.message.s"),
        "messages.message_calls": g("messages.message.calls"),
        "messages.queries": queries,
        "messages.cache_hits": hits,
        "messages.lookups": queries + hits,
        "messages.hit_ratio": hits / (queries + hits) if queries + hits else 0.0,
        "messages.absorb_s": g("messages.absorb.s"),
        "messages.total_s": g("messages.total.s"),
        "split.best_split_s": g("split.best_split.s"),
        "split.best_split_calls": g("split.best_split.calls"),
        "gbm.fit_self_s": g("gbm.fit.self_s"),
        # share of the fit inside a named layer: all but the root's self time
        "trace.coverage": (fit_s - g(ROOT_SPAN + ".self_s")) / fit_s,
    }
    return m


def forest_metrics(counters, w, data) -> tuple:
    """The ``rf`` layer: fit the workload's forest twice (untraced; the
    trees' own timings come from ``RandomForestResult.tree_seconds``) and
    report the warm fit's tree times and concurrency. Returns ``(metrics,
    fits attempted, fits failed)``; zeros when the workload has no forest."""
    from workloads import forest_check

    zero = {"rf.tree_s.p50": 0.0, "rf.tree_s.p90": 0.0, "rf.concurrency": 0.0}
    if w.forest is None:
        return zero, 0, 0
    fits, jobs = [], []
    try:
        for _ in range(2):
            counters.clear_cache()
            j0 = counters.next_job_id()
            t0 = time.perf_counter()
            res = w.forest(data).fit()
            fits.append((res, time.perf_counter() - t0))
            jobs.append(counters.next_job_id() - j0)
        check = forest_check(data, fits[0][0], fits[1][0])
        ok = check.ok and jobs[0] == jobs[1]
    except Exception:
        log(f"perfbench: forest fit raised\n{traceback.format_exc()}")
        return zero, 2, 2
    res, wall = fits[1]
    p50, p90 = np.percentile(res.tree_seconds, [50, 90])
    log(
        f"perfbench: forest fits {[round(dt, 3) for _, dt in fits]}s jobs={jobs} "
        f"tree_s={[round(x, 3) for x in res.tree_seconds]} {check.detail} ok={ok}"
    )
    metrics = {
        "rf.tree_s.p50": float(p50),
        "rf.tree_s.p90": float(p90),
        "rf.concurrency": sum(res.tree_seconds) / wall,
    }
    return metrics, 2, 0 if ok else 2


def cpu_ticks() -> tuple:
    """``(steal, total)`` CPU ticks since boot; steal is time the host gave
    our virtual CPUs to other tenants."""
    with open("/proc/stat") as f:
        cpu = [int(x) for x in f.readline().split()[1:]]
    return (cpu[7] if len(cpu) > 7 else 0), sum(cpu)


def median_layers(per_fit) -> dict:
    return {k: statistics.median(f[k] for f in per_fit) for k in per_fit[0]}


if __name__ == "__main__":
    sys.exit(main())
