"""One bench per reproduced table (paper Figs 5, 8–16, 18).

Each runs its harness from :data:`repro.experiments.tables.TABLES` with
the harness defaults, the arguments ``python -m repro.experiments tN``
runs, then checks the paper's claim for that table.
"""
import pytest

from repro.experiments.tables import TABLES


def _by(res, key):
    return {r[key]: r for r in res.rows}


def check_t1(res):  # Fig 8a: random forest vs the ML-library pipeline
    assert len(res.rows) >= 4


def check_t2(res):  # Fig 8b,c: rmse must improve monotonically
    rmses = [r["joinboost_rmse"] for r in res.rows]
    assert rmses == sorted(rmses, reverse=True)


def check_t3(res):  # Fig 9: query census of one boosting iteration
    by_kind = _by(res, "query_kind")
    # 15 node evaluations x 13 features of split queries, plus totals
    assert by_kind["split"]["count"] >= 15 * 13
    assert by_kind["message"]["count"] > 0


def check_t4(res):  # Fig 10: the library runs out of memory at 50 features
    assert res.rows[-1]["library_oom"] is True


def check_t5(res):  # Fig 11: ... and at the largest SF
    assert res.rows[-1]["library_oom"] is True


def check_t6(res):  # Figs 12/13: one row per shuffle-partition setting
    assert len(res.rows) == 3


def check_t7(res):  # Fig 14: galaxy GB with CPT; the library cannot run
    assert any("gated" in n for n in res.notes)
    rmses = [r["rmse"] for r in res.rows]
    assert rmses[-1] < rmses[0]


def check_t8(res):  # Figs 5/15: the paper's headline ordering
    t = {r["method"]: r["update_s"] for r in res.rows}
    assert t["naive-k0"] > t["swap-k10"]


def check_t9(res):  # Fig 16a: cross-node caching issues fewer messages
    t = _by(res, "method")
    assert t["joinboost"]["message_queries"] < t["batch"]["message_queries"]


def check_t10(res):  # Fig 16b: JoinBoost vs the MADLib-like comparator
    t = _by(res, "method")
    assert t["madlib-like"]["train_s"] > t["joinboost"]["train_s"]
    assert t["madlib-like"]["queries"] > t["joinboost"]["queries"]


def check_t11(res):  # Fig 18: inter-query parallelism on/off
    assert len(res.rows) == 4


CHECKS = {
    "t1": check_t1, "t2": check_t2, "t3": check_t3, "t4": check_t4,
    "t5": check_t5, "t6": check_t6, "t7": check_t7, "t8": check_t8,
    "t9": check_t9, "t10": check_t10, "t11": check_t11,
}


@pytest.mark.parametrize("name", list(TABLES))
def test_table(name, spark, run_table):
    CHECKS[name](run_table(TABLES[name][0], spark))
