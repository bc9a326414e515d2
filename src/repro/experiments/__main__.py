"""Reproduce one evaluation table of EXPERIMENTS.md (T1–T11).

Usage:
    python -m repro.experiments tN [options]
or under spark-submit:
    spark-submit src/repro/experiments/__main__.py tN [options]

Each table's options and their defaults are its harness's keyword
parameters listed in ``repro.experiments.tables.TABLES``.
"""
import argparse
import inspect

from pyspark.sql import SparkSession

# absolute imports: spark-submit runs this file as a script
from repro.experiments.tables import TABLES


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="table", metavar="table", required=True)
    for name, (harness, flags) in TABLES.items():
        sp = sub.add_parser(name, help=harness.__name__)
        params = inspect.signature(harness).parameters
        for flag in flags:
            default = params[flag].default
            sp.add_argument(
                "--" + flag.replace("_", "-"), dest=flag,
                type=type(default), default=default,
                help="default: %(default)s",
            )
    return p


def main(argv=None) -> None:
    args = vars(parser().parse_args(argv))
    harness, _ = TABLES[args.pop("table")]
    spark = (
        SparkSession.builder.appName(harness.__name__)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    res = harness(spark, **args)
    print(res.format())
    out = res.save()
    print(f"rows saved to {out}")
    spark.stop()


if __name__ == "__main__":
    main()
