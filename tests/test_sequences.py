import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comspect.errors import NumericalError
from comspect.sequences import (
    DERIVED_SLACK,
    FactorialPowerTail,
    GeometricTail,
    PowerTail,
    ScalarSequence,
    frac_index,
    merge_decreasing,
    round_sig,
)


class TestFracIndex:
    def test_integer_index(self):
        s = ScalarSequence.finite([4, 2, 1])
        assert frac_index(s, 2) == 2

    def test_fractional_index_rounds_up(self):
        s = ScalarSequence.finite([4, 2, 1])
        assert frac_index(s, 1.5) == 2

    def test_zero_tail(self):
        s = ScalarSequence.finite([4, 2, 1])
        assert frac_index(s, 3.5) == 0

    def test_rejects_nonpositive(self):
        s = ScalarSequence.finite([1])
        with pytest.raises(ValueError):
            frac_index(s, 0)

    @given(st.floats(min_value=0.01, max_value=20))
    def test_matches_ceiling_position(self, r):
        s = ScalarSequence.finite([8, 4, 2, 1, 0.5])
        assert frac_index(s, r) == s.value(math.ceil(r))


class TestValidation:
    def test_rejects_increasing_prefix(self):
        with pytest.raises(ValueError):
            ScalarSequence.finite([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ScalarSequence.finite([1, -1])

    def test_rejects_tail_above_junction(self):
        with pytest.raises(ValueError):
            ScalarSequence(np.array([0.1]), PowerTail(10.0, 1.0))

    def test_power_law_values(self):
        s = ScalarSequence.power_law(2.0, 1.0)
        assert s.value(4) == pytest.approx(0.5)

    def test_geometric_law_values(self):
        s = ScalarSequence.geometric_law(1.0, 0.5)
        assert s.value(3) == pytest.approx(0.125)


class TestCounting:
    def test_prefix_count_includes_boundary(self):
        s = ScalarSequence.finite([2, 1, 0.5])
        assert s.count_ge(1.0) == 2

    def test_power_tail_count(self):
        # values 3/m: entries >= 0.5 are m <= 6
        s = ScalarSequence(np.array([3.0]), PowerTail(3.0, 1.0))
        assert s.count_ge(0.5) == 6

    def test_repeat_scales_counts(self):
        s = ScalarSequence.finite([2, 1]).repeated(4)
        assert s.count_ge(1.0) == 8
        assert s.value(5) == 1.0
        assert s.value(8) == 1.0
        assert s.value(9) == 0.0

    def test_count_at_exact_tail_value(self):
        s = ScalarSequence.power_law(1.0, 1.0)
        # threshold exactly 1/7 must include position 7
        assert s.count_ge(1.0 / 7.0) == 7

    @pytest.mark.parametrize(
        "tail",
        [GeometricTail(2.0, 0.7), FactorialPowerTail(1.0, 2.0), PowerTail(1.0, 2.0), PowerTail(1.0, 0.5)],
        ids=["geometric", "factorial", "power-a2", "power-a0.5"],
    )
    def test_other_tails_raise_one_error(self, tail):
        # the queries take a finite sequence or the harmonic tail c/m only
        s = ScalarSequence(np.empty(0), tail)
        for query in (lambda: s.count_ge(0.5), lambda: s.sum_plog(2.0), s.harmonic_coefficient):
            with pytest.raises(ValueError, match="^witness must be finite or have a harmonic tail c/m$"):
                query()

    def test_tail_laws_have_no_query_methods(self):
        # the tail laws carry no counting or log-mass query the sequence could bypass
        assert not hasattr(GeometricTail, "count_ge") and not hasattr(GeometricTail, "sum_plog")
        assert not hasattr(FactorialPowerTail, "count_ge") and not hasattr(FactorialPowerTail, "sum_plog")
        assert not hasattr(PowerTail, "sum_plog")

    def test_harmonic_coefficient(self):
        assert ScalarSequence.finite([2, 1]).harmonic_coefficient() is None
        assert ScalarSequence(np.array([3.0]), PowerTail(3.0, 1.0), 4).harmonic_coefficient() == 3.0


class TestHarmonicClosedFormsTotal:
    """The harmonic closed forms give a value, or NumericalError when a tail
    position leaves the float range, at every threshold and scale."""

    # alpha*c whose 12-digit rounding lands just below and just above 2**53
    # (9007199254740992): int64 positions below, Python integers above
    @pytest.mark.parametrize("lead", [9.00719925474e15, 9.00719925475e15], ids=["below-2**53", "above-2**53"])
    def test_sum_plog_across_2_53(self, lead):
        from scipy.special import gammaln

        s = ScalarSequence.power_law(1.0, 1.0)
        m = math.floor(round_sig(lead) + DERIVED_SLACK)
        assert (m < 2**53) == (lead < 2.0**53)
        got = s.sum_plog(lead)
        if m < 2**53:  # the int64 form of the closed form, bit for bit
            assert got == m * math.log(lead) - (gammaln(np.int64(m) + 1) - gammaln(1))
        import mpmath

        mpmath.mp.dps = 40
        exact = m * mpmath.log(lead) - mpmath.loggamma(m + 1)
        assert got == pytest.approx(float(exact), rel=1e-9)
        assert s.count_ge(1.0 / lead) == m
        assert type(s.count_ge(1.0 / lead)) is int

    def test_sum_plog_at_1e300(self):
        s = ScalarSequence.power_law(1.0, 1.0)
        got = s.sum_plog(1e300)
        # sum_{m <= M} log(M/m) ~ M for M = 1e300: a value, not a TypeError
        assert math.isfinite(got) and got == pytest.approx(1e300, rel=1e-6)

    def test_overflowing_positions_are_numerical_errors(self):
        msg = r"^a tail position bound \(c/x or alpha\*c\) overflows the float range$"
        with pytest.raises(NumericalError, match=msg):
            ScalarSequence(np.array([2.0]), PowerTail(1.0, 1.0)).count_ge(1e-310)
        s = ScalarSequence.power_law(1e10, 1.0)
        with pytest.raises(NumericalError, match=msg):
            s.sum_plog(1e300)
        with pytest.raises(NumericalError, match=msg):
            s.sum_plog_bounds(np.array([1.0, math.inf]))


class TestAggregates:
    def test_sum_plog_matches_direct(self, rng):
        vals = np.sort(rng.uniform(0.01, 5.0, 40))[::-1]
        s = ScalarSequence(vals)
        alpha = 1.7
        direct = float(np.sum(np.maximum(np.log(alpha * vals), 0.0)))
        assert s.sum_plog(alpha) == pytest.approx(direct, abs=1e-12)

    def test_power_tail_plog_matches_direct(self):
        s = ScalarSequence(np.empty(0), PowerTail(5.0, 1.0))
        alpha = 3.0
        m = np.arange(1, 200)
        vals = 5.0 / m
        direct = float(np.sum(np.maximum(np.log(alpha * vals), 0.0)))
        assert s.sum_plog(alpha) == pytest.approx(direct, rel=1e-12)

    def test_schatten_sum_hurwitz(self):
        s = ScalarSequence.power_law(1.0, 1.0)
        # sum 1/n^2 = pi^2/6
        assert s.schatten_sum(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_schatten_divergence(self):
        assert math.isinf(ScalarSequence.power_law(1.0, 1.0).schatten_sum(1.0))

    def test_weak_sup_power_boundary(self):
        s = ScalarSequence.power_law(1.0, 0.5)
        assert s.weak_sup(2.0) == pytest.approx(1.0)

    def test_weak_sup_divergent(self):
        assert math.isinf(ScalarSequence.power_law(1.0, 0.5).weak_sup(1.0))

    def test_geometric_sums(self):
        s = ScalarSequence.geometric_law(1.0, 0.5)
        assert s.schatten_sum(1.0) == pytest.approx(1.0)  # sum 2^-n
        assert math.isfinite(s.weak_sup(0.5))

    def test_factorial_tail_between_power_bounds(self):
        tail = FactorialPowerTail(1.0, 2.0)
        m = np.arange(1, 50, dtype=float)
        vals = tail.value_at(m)
        assert np.all(vals <= (math.e / m) ** 2 + 1e-15)
        assert np.all(vals >= m**-2.0 - 1e-15)


class TestMergeAndScale:
    def test_merge_example(self):
        merged = merge_decreasing(ScalarSequence.finite([3, 1]), ScalarSequence.finite([2]))
        assert list(merged.prefix) == [3, 2, 1]

    def test_merge_with_empty(self):
        s = ScalarSequence.finite([2, 1])
        merged = merge_decreasing(s, ScalarSequence.finite([]))
        assert list(merged.prefix) == [2, 1]

    def test_scaled_tail(self):
        s = ScalarSequence(np.array([4.0]), PowerTail(2.0, 1.0)).scaled(3.0)
        assert s.value(1) == 12.0
        assert s.value(10) == pytest.approx(0.6)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=0, max_size=12),
        st.lists(st.floats(min_value=0, max_value=100), min_size=0, max_size=12),
    )
    def test_merge_is_sorted_union(self, a, b):
        sa = ScalarSequence(np.sort(np.asarray(a, float))[::-1])
        sb = ScalarSequence(np.sort(np.asarray(b, float))[::-1])
        merged = merge_decreasing(sa, sb)
        expected = np.sort(np.concatenate([sa.prefix, sb.prefix]))[::-1]
        assert np.array_equal(merged.prefix, expected)


class TestRoundSig:
    def test_noop_on_round_values(self):
        assert round_sig(2.0) == 2.0

    def test_rounds_near_ties(self):
        assert round_sig(1.0 + 1e-14) == 1.0

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        assert round_sig(lo) <= round_sig(hi)

    @pytest.mark.parametrize("x", [1e-297, 3.3e-298, 1e-300, 2.2250738585072014e-308, 1e-320, 5e-324])
    def test_tiny_values_round_without_warnings(self, x):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = round_sig(x)
            both = round_sig(np.array([-x, x]))
        assert math.isfinite(out) and out > 0
        assert out == pytest.approx(x, rel=1e-11, abs=5e-324)
        assert both.tolist() == [-out, out]

    def test_finite_scales_unchanged(self):
        # bitwise the plain formula wherever 10**(digits-1-exp) is finite
        x = np.concatenate([10.0 ** np.linspace(-297, 308, 4001), [1.0 + 1e-14, 123456.7890123456]])
        exp = np.floor(np.log10(x))
        scale = 10.0 ** (11 - exp)
        plain = np.round(x * scale) / scale
        assert np.array_equal(round_sig(x).view(np.uint64), plain.view(np.uint64))


class TestSlackPolicy:
    def test_slack_literals_live_in_the_policy_block(self):
        # comparison slacks are the named constants of sequences.py; the only
        # other such literal is the Chebyshev fit tolerance of the cutoff pair,
        # a construction tolerance rather than a comparison slack
        import ast
        import pathlib

        import comspect

        policy = {1e-9, 1e-12, 1e-300}
        allowed = {("sequences.py", "STORED_SLACK"), ("sequences.py", "DERIVED_SLACK"), ("sequences.py", "TINY"),
                   ("cutoffs.py", "_INTERP_TOL")}
        found = []
        for path in sorted(pathlib.Path(comspect.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = {
                id(node.value)
                for node in tree.body
                if isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and (path.name, getattr(node.targets[0], "id", None)) in allowed
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and type(node.value) is float
                    and node.value in policy
                    and id(node) not in exempt
                ):
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
        assert found == []
