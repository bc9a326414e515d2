"""Best-split scoring: NumPy vs pure-SQL window variant (paper Ex. 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.semiring import PREFIX
from repro.core.split import Split, best_split_np, best_split_sql, better, pick


def stats_df(values, counts, sums, feature="f"):
    return pd.DataFrame(
        {feature: values, PREFIX + "c": counts, PREFIX + "s": sums}
    )


def to_spark(spark, pdf):
    return spark.createDataFrame(pdf)


class TestGainFormula:
    def test_hand_computed_categorical(self):
        # values: a → (c=2, s=10), b → (c=2, s=2); total (4, 12)
        st = stats_df(["a", "b"], [2.0, 2.0], [10.0, 2.0])
        s = best_split_np(st, "f", numeric=False, c_total=4, s_total=12)
        # gain(a) = 100/2 + 4/2 − 144/4 = 50+2−36 = 16; gain(b) symmetric
        assert s is not None
        assert s.gain == pytest.approx(16.0)
        assert s.value == "a"  # tie broken by smallest value

    def test_hand_computed_numeric(self):
        st = stats_df([1, 2, 3], [1.0, 1.0, 1.0], [1.0, 2.0, 9.0])
        s = best_split_np(st, "f", numeric=True, c_total=3, s_total=12)
        # split f<=2: left (2,3), right (1,9): 9/2 + 81 − 48 = 37.5
        # split f<=1: left (1,1), right (2,11): 1 + 60.5 − 48 = 13.5
        assert s.value == 2
        assert s.gain == pytest.approx(37.5)
        assert s.c_left == 2.0 and s.s_left == 3.0

    def test_last_numeric_value_excluded(self):
        st = stats_df([5], [3.0], [9.0])
        assert best_split_np(st, "f", True, 3, 9) is None

    def test_min_child_blocks(self):
        st = stats_df([1, 2], [1.0, 9.0], [1.0, 9.0])
        s = best_split_np(st, "f", True, 10, 10, min_child=2.0)
        assert s is None  # only candidate f<=1 leaves c_left=1 < 2

    def test_reg_lambda_shrinks_gain(self):
        st = stats_df(["a", "b"], [2.0, 2.0], [10.0, 2.0])
        g0 = best_split_np(st, "f", False, 4, 12, reg_lambda=0.0).gain
        g1 = best_split_np(st, "f", False, 4, 12, reg_lambda=5.0).gain
        assert g1 < g0

    def test_empty_stats(self):
        st = stats_df([], [], [])
        assert best_split_np(st, "f", True, 0, 0) is None

    def test_variance_reduction_equivalence(self):
        """Gain equals the Appendix-A reduction in variance (Q cancels)."""
        rng = np.random.default_rng(0)
        y = rng.normal(size=100)
        f = rng.integers(0, 5, 100)
        st = (
            pd.DataFrame({"f": f, "y": y})
            .groupby("f")["y"]
            .agg(["count", "sum"])
            .reset_index()
        )
        st.columns = ["f", PREFIX + "c", PREFIX + "s"]
        st[PREFIX + "c"] = st[PREFIX + "c"].astype(float)
        s = best_split_np(st, "f", numeric=False, c_total=100, s_total=y.sum())
        # brute-force variance reduction for the chosen one-vs-rest split
        mask = f == s.value
        var = lambda v: ((v - v.mean()) ** 2).sum() if len(v) else 0.0
        reduction = var(y) - var(y[mask]) - var(y[~mask])
        assert s.gain == pytest.approx(reduction, rel=1e-9)


class TestSqlVariant:
    @pytest.mark.parametrize("numeric", [True, False])
    def test_sql_matches_numpy(self, spark, numeric):
        rng = np.random.default_rng(42)
        vals = rng.integers(1, 30, 200)
        y = rng.normal(10, 3, 200)
        st = (
            pd.DataFrame({"f": vals, "y": y})
            .groupby("f")["y"]
            .agg(["count", "sum"])
            .reset_index()
        )
        st.columns = ["f", PREFIX + "c", PREFIX + "s"]
        st[PREFIX + "c"] = st[PREFIX + "c"].astype(float)
        c_tot, s_tot = 200.0, float(y.sum())
        a = best_split_np(st, "f", numeric, c_tot, s_tot)
        b = best_split_sql(to_spark(spark, st), "f", numeric, c_tot, s_tot)
        assert a is not None and b is not None
        assert a.value == b.value
        assert a.gain == pytest.approx(b.gain, rel=1e-9)
        assert a.c_left == pytest.approx(b.c_left)
        assert a.s_left == pytest.approx(b.s_left)

    def test_sql_empty(self, spark):
        df = to_spark(spark, stats_df([1.0], [1.0], [1.0])).filter("f > 99")
        assert best_split_sql(df, "f", True, 0, 0) is None

    def test_sql_min_child(self, spark):
        st = stats_df([1, 2], [1.0, 9.0], [1.0, 9.0])
        assert best_split_sql(to_spark(spark, st), "f", True, 10, 10, min_child=2.0) is None


class TestComparator:
    def test_better_strict(self):
        assert better(2.0, 1.0)
        assert not better(1.0, 2.0)

    def test_better_tolerates_noise(self):
        assert not better(1.0 + 1e-12, 1.0)
        assert not better(1.0, 1.0 + 1e-12)

    def test_pick_tie_breaks_lexicographic(self):
        a = Split("a", 1, True, 5.0, 1, 1)
        b = Split("b", 1, True, 5.0 + 1e-12, 1, 1)
        assert pick(b, a) is a  # tie → smaller feature name
        assert pick(a, b) is a

    def test_pick_none_handling(self):
        a = Split("a", 1, True, 5.0, 1, 1)
        assert pick(None, a) is a
        assert pick(a, None) is a
        assert pick(None, None) is None
