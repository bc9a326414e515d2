"""Benchmark-session knobs.

Each bench of ``bench_tables.py`` runs its table harness exactly once
(``benchmark.pedantic`` with rounds=1), with the harness defaults: these
are end-to-end experiment reproductions, not microbenchmarks to be
statistically resampled. Tables print through
``capsys.disabled()`` so they land in bench_output.txt, and each
harness also persists its rows to ``results/*.json``.
"""
import os

# must be set before the root conftest's session fixture builds Spark
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import pytest  # noqa: E402


@pytest.fixture
def run_table(benchmark, capsys):
    """Run one table harness under pytest-benchmark and emit its table."""

    def _run(harness, spark):
        res = benchmark.pedantic(
            lambda: harness(spark), rounds=1, iterations=1, warmup_rounds=0
        )
        res.save()
        with capsys.disabled():
            print("\n" + res.format(), flush=True)
        return res

    return _run
