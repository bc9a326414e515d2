"""Semi-ring algebra tests (paper Table 1, Definition 1)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.semiring import PREFIX, VarianceSemiring

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
        lift = self.sr.lift_np
        lhs = lift(np.array([y + p]))[0]
        rhs = self.sr.mult_np(lift(np.array([y]))[0], lift(np.array([p]))[0])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-3)

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
