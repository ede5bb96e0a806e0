"""Operator identities: closed forms, intertwining, round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    RationalComplex,
    TaylorSeries,
    add,
    derivative,
    lift_approximant,
    monomial,
    multiply,
    nth_antiderivative,
    nth_derivative,
    scale,
    shift,
    shift_plus_volterra,
    volterra,
    zero,
)
from hardylab import operators, series
from hardylab.operators import _antiderivative
from hardylab.verify import max_rel_coeff_error, random_rational_series, zero_head

import exact_reference as ref

# every k/d in [-4, 4] with d <= 16, the values st.fractions(min_value=-4,
# max_value=4, max_denominator=16) draws, at a fraction of its generation cost
rationals = st.integers(1, 16).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda k: Fraction(k, d))
)
rc_scalars = st.builds(RationalComplex, rationals, rationals)
exact_series = st.lists(rc_scalars, min_size=1, max_size=10).map(TaylorSeries)
orders = st.integers(1, 5)


class TestShiftAndVolterra:
    def test_shift_known(self):
        assert shift(TaylorSeries([1, 2])) == TaylorSeries([0, 1, 2])
        assert shift(zero()) == zero()

    def test_shift_preserves_mode(self):
        assert shift(TaylorSeries([1])).exact
        assert not shift(TaylorSeries([1.0])).exact

    def test_volterra_known(self):
        # f = 1, g = z^2: integral of 2w dw = z^2
        out = volterra(TaylorSeries([1]), monomial(2))
        assert out == TaylorSeries([0, 0, 1])

    def test_volterra_with_coordinate_symbol_is_antiderivative(self):
        f = TaylorSeries([Fraction(1, 2), 3])
        assert volterra(f, monomial(1)) == TaylorSeries([0, Fraction(1, 2), Fraction(3, 2)])

    def test_constant_symbol_gives_canonical_zero(self):
        out = volterra(TaylorSeries([1.0, 2.0, 3.0]), TaylorSeries([7.0]))
        assert out.is_zero and out.order == 0


class TestCombinedOperator:
    def test_closed_form_frozen_example(self):
        out = shift_plus_volterra(TaylorSeries([1, 1]), 3)
        assert out == TaylorSeries([0, 4, Fraction(5, 2)])

    def test_float_matches_exact(self):
        out = shift_plus_volterra(TaylorSeries([1.0, 1.0]), 3)
        assert out.coeffs[1] == pytest.approx(4.0)
        assert out.coeffs[2] == pytest.approx(2.5)

    @given(exact_series, orders)
    def test_closed_equals_composed(self, f, n):
        assert shift_plus_volterra(f, n) == add(shift(f), scale(volterra(f, monomial(1)), n))

    def test_composed_is_the_sum_the_intertwine_suite_checks(self):
        # the suite builds shift(f) and volterra(f, z) once per sample and
        # checks the closed form against their sum at each n
        rng = np.random.default_rng(47)
        for _ in range(100):
            f = random_rational_series(rng, 64)
            shifted, integrated = shift(f), volterra(f, monomial(1))
            for n in range(1, 6):
                assert shift_plus_volterra(f, n) == add(shifted, scale(integrated, n))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shift_plus_volterra(TaylorSeries([1]), 0)
        with pytest.raises(ValueError):
            nth_antiderivative(TaylorSeries([1]), -2)


class TestIntertwining:
    @given(exact_series, orders)
    def test_intertwining_on_zero_initial_data(self, f, n):
        g = zero_head(f, n)
        lhs = nth_derivative(shift(g), n)
        rhs = shift_plus_volterra(nth_derivative(g, n), n)
        assert lhs == rhs

    def test_intertwining_needs_zero_initial_data(self):
        # with f = 1, n = 1: d/dz(z*f) = 1 while the combined operator
        # applied to f' = 0 gives 0; the identity only holds when the
        # first n coefficients vanish
        f = TaylorSeries([1])
        lhs = nth_derivative(shift(f), 1)
        rhs = shift_plus_volterra(nth_derivative(f, 1), 1)
        assert lhs != rhs

    @given(exact_series, orders)
    def test_leibniz_form_for_every_polynomial(self, f, n):
        lhs = nth_derivative(shift(f), n)
        rhs = add(shift(nth_derivative(f, n)), scale(derivative(f, n - 1), n))
        assert lhs == rhs


    def test_nth_derivative_checks_its_count_once(self, monkeypatch):
        calls = []
        check = series._check_count

        def spy(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(series, "_check_count", spy)
        monkeypatch.setattr(operators, "_check_count", spy)
        f = TaylorSeries([1.0, 2.0, 3.0, 4.0])
        for n in (1, 2, 3, 4, 5, 2.0):
            want = derivative(f, n)
            calls.clear()
            assert nth_derivative(f, n) == want
            assert calls == [(n, "operator parameter n", 1)]


class TestRoundTrips:
    @given(exact_series, orders)
    def test_derivative_inverts_antiderivative_exactly(self, f, n):
        assert nth_derivative(nth_antiderivative(f, n), n) == f

    @given(exact_series, orders)
    def test_antiderivative_inverts_on_zero_initial_data(self, f, n):
        g = zero_head(f, n)
        assert nth_antiderivative(nth_derivative(g, n), n) == g

    def test_float_round_trip_within_tolerance(self):
        f = TaylorSeries([0.3 - 0.7j, 1.0 / 49.0, -0.25, 0.8j, 1.1])
        for n in (1, 2, 3, 4, 5):
            back = nth_derivative(nth_antiderivative(f, n), n)
            assert max_rel_coeff_error(back, f) <= 1e-13

    def test_antiderivative_known(self):
        assert nth_antiderivative(TaylorSeries([1]), 2) == TaylorSeries(
            [0, 0, Fraction(1, 2)]
        )


class TestLiftApproximant:
    @given(exact_series, st.integers(1, 3))
    def test_exact_reconstruction_from_own_derivative(self, f, n):
        assert lift_approximant(f, nth_derivative(f, n), n) == f

    def test_head_padding_for_short_series(self):
        # f shorter than the head: missing head entries are zero
        f = TaylorSeries([3.0])
        out = lift_approximant(f, TaylorSeries([1.0]), 2)
        assert out == TaylorSeries([3.0, 0.0, 0.5])

    def test_difference_has_zero_initial_data(self):
        f = TaylorSeries([1.0, 2.0, 3.0, 4.0, 5.0])
        pm = TaylorSeries([1.0, -1.0])
        diff = lift_approximant(f, pm, 2) - f
        assert abs(diff.coeffs[0]) == 0.0 and abs(diff.coeffs[1]) == 0.0


class TestExactAgainstFractions:
    """Every exact operator against the plain-Fraction reference."""

    @given(ref.references)
    def test_shift(self, a):
        assert ref.pairs(shift(ref.series(a))) == ref.shift(a)

    @given(ref.references, orders)
    def test_nth_derivative(self, a, n):
        assert ref.pairs(nth_derivative(ref.series(a), n)) == ref.derivative(a, n)

    @given(ref.references, orders)
    def test_shift_plus_volterra(self, a, n):
        out = shift_plus_volterra(ref.series(a), n)
        assert ref.pairs(out) == ref.shift_plus_volterra(a, n)

    @given(ref.references, orders)
    def test_nth_antiderivative(self, a, n):
        out = nth_antiderivative(ref.series(a), n)
        assert ref.pairs(out) == ref.nth_antiderivative(a, n)

    @given(ref.references, ref.references, orders)
    def test_lift_approximant(self, a, p, n):
        out = lift_approximant(ref.series(a), ref.series(p), n)
        assert ref.pairs(out) == ref.lift_approximant(a, p, n)

    @given(ref.references, orders)
    def test_zero_head(self, a, n):
        out = zero_head(ref.series(a), n)
        assert ref.pairs(out) == [ref.ZERO] * min(n, len(a)) + a[n:]

    @given(ref.references, orders)
    def test_wrong_multiple_stays_unequal_on_nonzero_input(self, a, n):
        f = ref.series(a)
        g = zero_head(f, n)
        if not g.is_zero:
            lhs = nth_derivative(shift(g), n)
            assert lhs == shift_plus_volterra(nth_derivative(g, n), n)
            assert lhs != shift_plus_volterra(nth_derivative(g, n), n + 1)
        if not f.is_zero:
            composed = add(shift(f), scale(volterra(f, monomial(1)), n + 1))
            assert shift_plus_volterra(f, n) != composed
            leibniz = add(shift(nth_derivative(f, n)), scale(derivative(f, n - 1), n + 1))
            assert (nth_derivative(shift(f), n) == leibniz) == derivative(f, n - 1).is_zero

    @pytest.mark.parametrize("warm", [False, True], ids=["cold-tables", "warm-tables"])
    def test_degree_200_against_fractions(self, warm):
        # the drawn series above stop at 11 coefficients; at degree 200 the
        # cached weight tables run to 300 bits
        rng = np.random.default_rng(200)
        a = [(Fraction(int(x), 64), Fraction(int(y), 64)) for x, y in rng.integers(-64, 65, (201, 2))]
        p = a[::-1]
        f, pm = ref.series(a), ref.series(p)
        series._tables.cache_clear()
        for _ in range(1 + warm):
            for n in range(1, 6):
                assert ref.pairs(nth_antiderivative(f, n)) == ref.nth_antiderivative(a, n)
                assert ref.pairs(shift_plus_volterra(f, n)) == ref.shift_plus_volterra(a, n)
                assert ref.pairs(nth_derivative(f, n)) == ref.derivative(a, n)
                assert ref.pairs(lift_approximant(f, pm, n)) == ref.lift_approximant(a, p, n)


class TestDeepAntiderivative:
    def test_float_divisor_beyond_double_range_is_value_error(self):
        # perm(300 + 200, 200) leaves double range
        f = TaylorSeries([1.0] * 301)
        for call in (lambda: nth_antiderivative(f, 200), lambda: lift_approximant(f, f, 200)):
            with pytest.raises(ValueError, match=r"perm\(500, 200\), which exceeds double range"):
                call()
        # the exact mode has no such limit
        g = nth_antiderivative(TaylorSeries([1] * 301), 200)
        assert g.exact and g.coeffs[-1] == RationalComplex(Fraction(1, math.perm(500, 200)))


class TestFloatFormulas:
    """Each float operator equals its per-coefficient formula under float
    ``==``: the shared coefficient map must not change a rounding."""

    def test_operators_match_their_formulas(self):
        rng = np.random.default_rng(4)
        for order in range(301):
            c = tuple(complex(x, y) for x, y in rng.uniform(-1, 1, (order + 1, 2)))
            f = TaylorSeries(c)
            assert shift(f).coeffs == (0j,) + c
            assert _antiderivative(f).coeffs == (0j,) + tuple(
                x / (k + 1) for k, x in enumerate(c)
            )
            for n in range(1, 6):
                want = tuple(c[k + n] * math.perm(k + n, n) for k in range(order + 1 - n))
                assert derivative(f, n).coeffs == (want or (0j,))
                assert shift_plus_volterra(f, n).coeffs == (0j,) + tuple(
                    x * ((k + 1 + n) / (k + 1)) for k, x in enumerate(c)
                )
                assert nth_antiderivative(f, n).coeffs == (0j,) * n + tuple(
                    x / math.perm(k + n, n) for k, x in enumerate(c)
                )
