"""The Spark session the benchmark runs in, and the counters read from it.

Every workload runs under the same settings: one Python driver, a
``local[4]`` master, 8 shuffle partitions, broadcast joins off unless a
query asks for one, and Arrow on, as in ``jobs/``. Spark's scratch space
and the JVM's temp dir live under the checkout, so a run writes nothing
outside it.

Spark counters are read from outside the library: job ids are
sequential, so the jobs of one fit are the ids handed out between two
reads of the scheduler's next id. Their stages, tasks and submit and
complete times come from the application status store. Job groups are
not used because the random forest's worker threads do not inherit
local properties.
"""
from __future__ import annotations

import os
import shlex
import time
from dataclasses import dataclass
from typing import List, Tuple

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SQL_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def start(tmp_dir: str):
    """Launch the JVM and return ``(spark, seconds it took)``.

    Must run before anything imports pyspark: ``PYSPARK_SUBMIT_ARGS`` is
    read once, when the JVM is launched.
    """
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    # the launcher JVM that spark-submit starts first writes no
    # hsperfdata file under /tmp either
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp_dir}"
    q = shlex.quote
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            # no hsperfdata file under /tmp
            f"--driver-java-options {q('-XX:-UsePerfData -Djava.io.tmpdir=' + tmp_dir)}",
            f"--conf {q('spark.local.dir=' + tmp_dir)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    t0 = time.perf_counter()
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SQL_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop(spark) -> None:
    """Stop Spark and wait until the JVM process has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    try:
        gateway.shutdown()
    finally:
        if proc is not None:
            # the JVM exits when its stdin closes
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except Exception:
                proc.kill()
                proc.wait()


def environment(spark) -> dict:
    import platform

    import pyspark

    sc = spark.sparkContext
    return {
        "cores": os.cpu_count(),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": DRIVER_MEMORY,
        "spark_conf": dict(SQL_CONF),
    }


@dataclass
class JobStats:
    jobs: int
    stages: int
    tasks: int
    busy_s: float


class SparkCounters:
    """Job and storage counters of one SparkContext, read via py4j."""

    def __init__(self, spark) -> None:
        self.spark = spark
        self._sc = spark.sparkContext._jsc.sc()

    def settle(self) -> None:
        """Wait until the status store has seen every event posted so far."""
        self._sc.listenerBus().waitUntilEmpty()

    def next_job_id(self) -> int:
        nxt = self._sc.dagScheduler().nextJobId()
        return int(nxt if isinstance(nxt, int) else nxt.get())

    def jobs(self, first: int, end: int) -> JobStats:
        """Counters of the jobs with ids in ``[first, end)``."""
        self.settle()
        store = self._sc.statusStore()
        stages = tasks = 0
        spans: List[Tuple[float, float]] = []
        for jid in range(first, end):
            jd = store.job(jid)
            stages += int(jd.numCompletedStages())
            tasks += int(jd.numCompletedTasks())
            sub, done = jd.submissionTime(), jd.completionTime()
            if sub.isDefined() and done.isDefined():
                spans.append((sub.get().getTime() / 1e3, done.get().getTime() / 1e3))
        return JobStats(end - first, stages, tasks, _union_length(spans))

    def storage(self) -> Tuple[int, int]:
        """``(cached blocks, cached bytes)`` Spark holds right now."""
        self.settle()
        blocks = size = 0
        for info in self._sc.getRDDStorageInfo():
            blocks += int(info.numCachedPartitions())
            size += int(info.memSize()) + int(info.diskSize())
        return blocks, size

    def clear_cache(self) -> None:
        self.spark.catalog.clearCache()


def _union_length(spans: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(spans):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
