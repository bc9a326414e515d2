"""Source-structure guards.

Algorithm 1 (best-first growth) exists once. The shared loop is
:func:`repro.core.tree.grow`; the NumPy baseline keeps its own loop as
the independent reference the parity tests compare it against. Any
other module importing ``heapq`` is a further copy.

The star trainer absorbs messages on integer codes, not with per-node
pandas relational operations. Boosting and forests use only the star
engine, and predicate push-down collects nothing from Spark.
"""
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAPQ = re.compile(r"^\s*(import heapq|from heapq import)", re.MULTILINE)


def test_heapq_only_in_the_two_growth_loops():
    users = sorted(
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py")
        if HEAPQ.search(p.read_text())
    )
    assert users == ["repro/baselines/npgbm.py", "repro/core/tree.py"]


def test_star_trainer_absorbs_without_pandas_relational_ops():
    """Star-node absorption runs on integer codes: no per-node pandas
    ``merge``, ``groupby`` or frame sort."""
    src = (SRC / "repro" / "core" / "star_trainer.py").read_text()
    assert re.findall(r"\.(merge|groupby|sort_values)\(", src) == []


def test_boosting_and_forest_use_only_the_star_engine():
    """GB and RF grow every tree on the star path; the general engine
    serves only the query-census and ablation tables."""
    for name in ("gbm.py", "rf.py"):
        src = (SRC / "repro" / "core" / name).read_text()
        assert "FactorizedTreeTrainer" not in src, name


def test_push_down_runs_no_spark_job():
    """Predicate push-down masks driver-side tables; no key set is
    collected from Spark."""
    src = (SRC / "repro" / "core" / "residual.py").read_text()
    assert ".collect(" not in src
