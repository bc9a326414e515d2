"""Semi-ring algebra tests (paper Tables 1–2, Definition 1)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pyspark.sql.functions as F

from repro.core.semiring import (
    PREFIX,
    ClassCountSemiring,
    GradientSemiring,
    VarianceSemiring,
    loss_grad_hess,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _rounding(a, b, c):
    """float64 rounding on the largest intermediate term of a product of
    three lifts: ``q`` sums terms up to ``(|a|+|b|+|c|)²``, so a small
    ``q`` can carry an absolute error far above ``rtol·|q|``."""
    return 1e-12 * (abs(a) + abs(b) + abs(c)) ** 2


def v3(y):
    return VarianceSemiring(track_q=True).lift_np(np.array([y], dtype="float64"))[0]


class TestVarianceAlgebra:
    sr = VarianceSemiring(track_q=True)

    def test_lift_shape(self):
        out = self.sr.lift_np(np.array([1.0, 2.0]))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out[1], [1.0, 2.0, 4.0])

    def test_identity_element(self):
        one = np.array([1.0, 0.0, 0.0])
        a = v3(3.5)
        np.testing.assert_allclose(self.sr.mult_np(a, one), a)
        np.testing.assert_allclose(self.sr.mult_np(one, a), a)

    def test_zero_annihilates(self):
        zero = np.array([0.0, 0.0, 0.0])
        np.testing.assert_allclose(self.sr.mult_np(v3(7.0), zero), zero)

    @given(finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_mult_commutative(self, a, b):
        x, y = v3(a), v3(b)
        np.testing.assert_allclose(
            self.sr.mult_np(x, y), self.sr.mult_np(y, x), rtol=1e-12
        )

    @given(finite, finite, finite)
    @example(1.099609375, 988966.0, -988601.0)  # q ≈ 1.3e5 from terms ≈ 1e12
    @settings(max_examples=50, deadline=None)
    def test_mult_associative(self, a, b, c):
        x, y, z = v3(a), v3(b), v3(c)
        lhs = self.sr.mult_np(self.sr.mult_np(x, y), z)
        rhs = self.sr.mult_np(x, self.sr.mult_np(y, z))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=_rounding(a, b, c))

    @given(finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_mult_distributes_over_add(self, a, b, c):
        x, y, z = v3(a), v3(b), v3(c)
        lhs = self.sr.mult_np(x, y + z)
        rhs = self.sr.mult_np(x, y) + self.sr.mult_np(x, z)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=_rounding(a, b, c))

    @given(finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_addition_to_multiplication_preserving(self, y, p):
        """Definition 1: lift(y1+y2) == lift(y1) ⊗ lift(y2)."""
        assert self.sr.is_add_to_mult_preserving(y, p, atol=1e-3)

    def test_residual_update_identity(self):
        """Proposition 4.1's scalar core: lift(y−p) = lift(y) ⊗ lift(−p)."""
        y, p = 4.0, 1.5
        np.testing.assert_allclose(
            v3(y - p), self.sr.mult_np(v3(y), v3(-p)), rtol=1e-12
        )

    def test_mae_sign_not_preservable(self):
        """The paper's mae counterexample: Σ sign(y−p) is not a function
        of (Σ1, Σ sign(y), p) — two multisets with equal sign-sums can
        diverge after the shift."""

        def agg(ys, p):
            return sum(np.sign(y - p) for y in ys)

        ys1, ys2 = [1.0, -1.0], [5.0, -1.0]  # same count, same sign-sum
        assert agg(ys1, 0) == agg(ys2, 0)
        assert agg(ys1, 2.0) != agg(ys2, 2.0)

    def test_track_q_false_drops_q(self):
        sr = VarianceSemiring(track_q=False)
        assert sr.components == ("c", "s")
        assert sr.cols() == ["__c", "__s"]

    def test_cols_prefix(self):
        assert self.sr.cols("m_") == ["m_c", "m_s", "m_q"]


class TestVarianceSpark:
    def test_lift_spark(self, spark):
        sr = VarianceSemiring(track_q=True)
        df = spark.createDataFrame([(2.0,), (3.0,)], "y double")
        out = sr.lift(df, "y").toPandas()
        assert list(out["__c"]) == [1.0, 1.0]
        assert sorted(out["__s"]) == [2.0, 3.0]
        assert sorted(out["__q"]) == [4.0, 9.0]

    def test_lift_identity_spark(self, spark):
        sr = VarianceSemiring(track_q=True)
        df = spark.createDataFrame([(1,)], "k int")
        row = sr.lift(df, None).collect()[0]
        assert (row["__c"], row["__s"], row["__q"]) == (1.0, 0.0, 0.0)

    def test_mult_exprs_match_numpy(self, spark):
        sr = VarianceSemiring(track_q=True)
        a, b = v3(2.0), v3(5.0)
        df = spark.createDataFrame(
            [tuple(float(x) for x in (*a, *b))],
            "__c double, __s double, __q double, r_c double, r_s double, r_q double",
        )
        row = df.withColumns(sr.mult_exprs(PREFIX, "r_")).collect()[0]
        expect = sr.mult_np(a, b)
        np.testing.assert_allclose(
            [row["__c"], row["__s"], row["__q"]], expect, rtol=1e-12
        )

    def test_sum_exprs(self, spark):
        sr = VarianceSemiring(track_q=False)
        df = spark.createDataFrame([(1.0, 2.0), (1.0, 3.0)], "__c double, __s double")
        row = df.agg(*sr.sum_exprs()).collect()[0]
        assert (row["__c"], row["__s"]) == (2.0, 5.0)

    def test_variance_from_aggregate(self):
        """Paper Example 1 numbers: γ(R⋈) = (8,16,36) ⇒ variance Q−S²/C = 4."""
        c, s, q = 8.0, 16.0, 36.0
        assert q - s * s / c == pytest.approx(4.0)


class TestGradientSemiring:
    sr = GradientSemiring()

    def test_identity(self, spark):
        df = spark.createDataFrame([(1,)], "k int")
        row = df.withColumns(self.sr.identity_exprs()).collect()[0]
        assert (row["__h"], row["__g"]) == (1.0, 0.0)

    def test_mult(self, spark):
        df = spark.createDataFrame(
            [(2.0, 3.0, 5.0, 7.0)], "__h double, __g double, r_h double, r_g double"
        )
        row = df.withColumns(self.sr.mult_exprs(PREFIX, "r_")).collect()[0]
        # (h1,g1)⊗(h2,g2) = (h1h2, g1h2+g2h1)
        assert (row["__h"], row["__g"]) == (10.0, 3.0 * 5.0 + 7.0 * 2.0)

    @pytest.mark.parametrize(
        "loss,eps,expect_g,expect_h",
        [
            ("l2", 3.0, 3.0, 1.0),
            ("l2", -2.0, -2.0, 1.0),
            ("l1", 3.0, 1.0, 1.0),
            ("l1", -3.0, -1.0, 1.0),
            ("huber", 0.5, 0.5, 1.0),
            ("huber", 5.0, 1.0, 1.0),  # delta=1 default
            ("quantile", 1.0, 0.5, 1.0),  # alpha=0.5
            ("quantile", -1.0, -0.5, 1.0),
        ],
    )
    def test_loss_grad_hess(self, spark, loss, eps, expect_g, expect_h):
        df = spark.createDataFrame([(eps,)], "e double")
        g, h = loss_grad_hess(loss, F.col("e"))
        row = df.select(g.alias("g"), h.alias("h")).collect()[0]
        assert row["g"] == pytest.approx(expect_g)
        assert row["h"] == pytest.approx(expect_h)

    def test_fair_loss(self, spark):
        df = spark.createDataFrame([(1.0,)], "e double")
        g, h = loss_grad_hess("fair", F.col("e"), fair_c=2.0)
        row = df.select(g.alias("g"), h.alias("h")).collect()[0]
        assert row["g"] == pytest.approx(2.0 * 1.0 / 3.0)
        assert row["h"] == pytest.approx(4.0 / 9.0)

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            loss_grad_hess("nope", F.lit(0.0))


class TestClassCountSemiring:
    def test_lift(self, spark):
        sr = ClassCountSemiring(k=3)
        df = spark.createDataFrame([(0,), (2,)], "y int")
        out = sr.lift(df, "y").toPandas().sort_values("y")
        assert list(out["__c0"]) == [1.0, 0.0]
        assert list(out["__c2"]) == [0.0, 1.0]
        assert list(out["__c"]) == [1.0, 1.0]

    def test_mult_counts_blowup(self, spark):
        """⊗ mirrors the join: counts multiply, class counts scale."""
        sr = ClassCountSemiring(k=2)
        df = spark.createDataFrame(
            [(1.0, 1.0, 0.0, 3.0, 0.0, 0.0)],
            "__c double, __c0 double, __c1 double, r_c double, r_c0 double, r_c1 double",
        )
        row = df.withColumns(sr.mult_exprs(PREFIX, "r_")).collect()[0]
        assert row["__c"] == 3.0
        assert row["__c0"] == 3.0  # the single class-0 tuple joins 3 rows
        assert row["__c1"] == 0.0

    def test_sum_exprs(self, spark):
        sr = ClassCountSemiring(k=2)
        df = spark.createDataFrame(
            [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0)], "__c double, __c0 double, __c1 double"
        )
        row = df.agg(*sr.sum_exprs()).collect()[0]
        assert (row["__c"], row["__c0"], row["__c1"]) == (2.0, 1.0, 1.0)

    def test_gini_from_aggregate(self):
        """Appendix A: gini = 1 − Σ (Cᵏ/C)²."""
        c, c0, c1 = 4.0, 3.0, 1.0
        gini = 1 - (c0 / c) ** 2 - (c1 / c) ** 2
        assert gini == pytest.approx(1 - 9 / 16 - 1 / 16)
