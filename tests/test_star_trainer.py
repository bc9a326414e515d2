"""StarTreeTrainer internals: grouping sets, sibling subtraction, memo."""
import numpy as np
import pandas as pd
import pytest

from repro.core.semiring import VarianceSemiring
from repro.core.star_trainer import StarTreeTrainer, _ctx_key
from repro.core.trainer import TrainParams
from repro.core.tree import Pred

SR = VarianceSemiring(track_q=False)


@pytest.fixture(scope="module")
def star(star_int):
    st = StarTreeTrainer(star_int.graph, TrainParams(max_leaves=4))
    st.set_fact(SR.lift(star_int.graph.relations["fact"].df, "y"))
    return st


class TestNodeStats:
    def test_total_row(self, star, star_int):
        cols = star._grouping_cols(["fa", "fb", "fc"])
        stats = star._node_stats({}, cols)
        c, s = stats.c, stats.s
        wide = star_int.wide_pandas()
        assert c == pytest.approx(len(wide))
        assert s == pytest.approx(wide["y"].sum())

    def test_feature_slice_matches_oracle(self, star, star_int):
        cols = star._grouping_cols(["fa", "fb", "fc"])
        stats = star._node_stats({}, cols)
        values, c, s = star._absorb(stats, "fb")
        wide = star_int.wide_pandas()
        oracle = (
            wide.groupby("fb")["y"].agg(["count", "sum"]).reset_index().sort_values("fb")
        )
        np.testing.assert_array_equal(values, oracle["fb"])
        np.testing.assert_allclose(c, oracle["count"])
        np.testing.assert_allclose(s, oracle["sum"])

    def test_memoization(self, star):
        cols = star._grouping_cols(["fa"])
        star._memo.clear()
        n0 = star.jobs_run
        star._node_stats({}, cols)
        star._node_stats({}, cols)
        assert star.jobs_run == n0 + 1

    def test_filtered_context(self, star, star_int):
        cols = star._grouping_cols(["fa", "fb", "fc"])
        ctx = {"da": (Pred("fa", 500, True, True),)}
        stats = star._node_stats(ctx, cols)
        c, s = stats.c, stats.s
        wide = star_int.wide_pandas()
        sel = wide[wide["fa"] <= 500]
        assert c == pytest.approx(len(sel))
        assert s == pytest.approx(sel["y"].sum())


class TestSiblingSubtraction:
    def test_derived_equals_direct(self, star, star_int):
        """parent − left must equal the directly computed right child."""
        cols = star._grouping_cols(["fa", "fb", "fc"])
        lctx = {"da": (Pred("fa", 500, True, True),)}
        rctx = {"da": (Pred("fa", 500, True, False),)}
        star._memo.clear()
        star._derive_sibling({}, lctx, rctx, cols)
        derived = star._memo[_ctx_key(rctx)]
        direct = star._node_stats(rctx, cols)
        assert (derived.c, derived.s) == pytest.approx((direct.c, direct.s))
        for col in cols:
            a, b = (
                pd.DataFrame(dict(zip(("k", "c", "s"), st.groups[col]))).sort_values("k")
                for st in (derived, direct)
            )
            np.testing.assert_array_equal(a["k"], b["k"])
            np.testing.assert_allclose(a["c"], b["c"])
            np.testing.assert_allclose(a["s"], b["s"], rtol=1e-9)
        for f in ("fa", "fb", "fc"):
            for x, y in zip(star._absorb(derived, f), star._absorb(direct, f)):
                np.testing.assert_allclose(x, y, rtol=1e-9)

    def test_clone_is_independent(self, star):
        c = star.clone()
        assert c.fact is None and c._memo == {}
        assert c.dim_pandas is star.dim_pandas  # shared read-only dims
        assert c._dims is star._dims  # and their encoding
