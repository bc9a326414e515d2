"""Source-structure guards.

Algorithm 1 (best-first growth) exists once. The shared loop is
:func:`repro.core.tree.grow`; the NumPy baseline keeps its own loop as
the independent reference the parity tests compare it against. Any
other module importing ``heapq`` is a further copy.

The star trainer absorbs messages on integer codes, not with per-node
pandas relational operations.
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
