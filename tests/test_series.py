"""Coefficient algebra: mode handling, exact identities, serialization."""

import cmath
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    RationalComplex,
    TaylorSeries,
    add,
    subtract,
    scale,
    multiply,
    derivative,
    evaluate,
    zero,
    monomial,
    shift_plus_volterra,
    hardy_sum,
    hp_norm,
    lift_approximant,
    nth_antiderivative,
    shift,
    sup_norm,
)
from hardylab.operators import _antiderivative
from hardylab.report import _Tracker
from hardylab.series import (
    _FFT_PRODUCT_LEN,
    _PY_LOOP_LEN,
    _exact_series,
    _is_integral,
    _kronecker_product,
    dumps,
    from_dict,
    loads,
    to_dict,
)
from hardylab.verify import max_rel_coeff_error, random_rational_series, zero_head

import exact_reference as ref

# every k/d in [-4, 4] with d <= 16, the values st.fractions(min_value=-4,
# max_value=4, max_denominator=16) draws, at a fraction of its generation cost
rationals = st.integers(1, 16).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).map(lambda k: Fraction(k, d))
)
rc_scalars = st.builds(RationalComplex, rationals, rationals)
exact_series = st.lists(rc_scalars, min_size=1, max_size=8).map(TaylorSeries)
float_scalars = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
float_series = st.lists(float_scalars, min_size=1, max_size=12).map(TaylorSeries)


class TestRationalComplex:
    """The exact value type; exact arithmetic runs on exact series."""

    def test_scale_round_trip_is_exact(self):
        f = TaylorSeries([1, RationalComplex(Fraction(1, 3), -2)])
        assert scale(scale(f, Fraction(1, 49)), 49) == f
        # the float analogue is not exact, which is why exact mode exists
        assert (1.0 / 49.0) * 49.0 != 1.0

    def test_scale_by_minus_i_divides_by_i(self):
        f = TaylorSeries([RationalComplex(1, 1), 3])
        out = scale(f, RationalComplex(0, -1))
        assert out.exact and out == TaylorSeries([RationalComplex(1, -1), RationalComplex(0, -3)])

    def test_scale_by_float_promotes(self):
        f = TaylorSeries([RationalComplex(Fraction(1, 2), Fraction(1, 3))])
        out = scale(f, 0.5)
        assert not out.exact and out == TaylorSeries([complex(0.25, 1 / 6)])
        assert scale(f, 2) == TaylorSeries([RationalComplex(1, Fraction(2, 3))])

    def test_equality(self):
        half = RationalComplex(Fraction(1, 2))
        assert half == Fraction(2, 4) and half == RationalComplex(Fraction(2, 4), 0)
        assert half == 0.5 and 0.5 == half
        assert RationalComplex(3) == 3 and 3 == RationalComplex(3)
        assert RationalComplex(0, 1) != 1 and RationalComplex(3, 1) != 3
        # float and complex compare after rounding through complex(); the
        # exact types compare exactly
        third = RationalComplex(Fraction(1, 3))
        assert third == 1 / 3 and third != Fraction(1 / 3)
        assert RationalComplex(1) != "1"

    def test_complex_equality(self):
        assert RationalComplex(Fraction(1, 2)) == 0.5 + 0j
        assert RationalComplex(0, 1) == 1j

    def test_bool(self):
        assert not RationalComplex() and not RationalComplex(0, Fraction(0, 5))
        assert RationalComplex(0, Fraction(1, 10**30))

    def test_abs(self):
        assert abs(RationalComplex(3, 4)) == pytest.approx(5.0)

    def test_complex_and_repr(self):
        c = RationalComplex(Fraction(1, 4), -3)
        assert complex(c) == complex(0.25, -3.0) and type(complex(c)) is complex
        assert repr(c) == "RationalComplex(Fraction(1, 4), Fraction(-3, 1))"

    def test_no_arithmetic(self):
        with pytest.raises(TypeError):
            RationalComplex(1) + 1
        with pytest.raises(TypeError):
            2 * RationalComplex(1)

    @given(float_series, rc_scalars)
    def test_float_series_takes_exact_scalar_through_complex(self, f, s):
        # repr tells signed zeros apart, so this is bit for bit
        assert repr(scale(f, s)) == repr(scale(f, complex(s)))
        assert repr(evaluate(f, s)) == repr(evaluate(f, complex(s)))


class TestConstruction:
    def test_exact_mode_detection(self):
        f = TaylorSeries([1, Fraction(1, 2), RationalComplex(0, 1)])
        assert f.exact
        g = TaylorSeries([1, 0.5])
        assert not g.exact
        assert all(isinstance(c, complex) for c in g.coeffs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaylorSeries([])

    def test_zero_is_canonical(self):
        z = zero()
        assert z.order == 0 and z.is_zero and not z.exact
        assert zero(exact=True).exact

    def test_monomial(self):
        m = monomial(3)
        assert m.exact and m.coeffs[3] == 1 and m.order == 3
        assert not monomial(2, 1.0).exact

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.complex128])
    def test_array_input_matches_list_input_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        values = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        values[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
        arr = (values.real if dtype is np.float64 else values).astype(dtype)
        a, b = TaylorSeries(arr), TaylorSeries(list(arr))
        assert not a.exact and all(type(c) is complex for c in a.coeffs)
        # repr tells the signed zeros apart, == does not
        assert repr(a.coeffs) == repr(b.coeffs)

    def test_int_and_object_arrays_keep_the_scanning_path(self):
        assert not TaylorSeries(np.array([1, 2])).exact
        assert TaylorSeries(np.array([1, 2])) == TaylorSeries([1.0, 2.0])
        assert TaylorSeries(np.array([1, Fraction(1, 2)], dtype=object)).exact
        with pytest.raises(ValueError):
            TaylorSeries(np.zeros(0))

    def test_integral_check_takes_ints_bools_and_integral_floats(self):
        assert all(map(_is_integral, (2, True, 2.0, np.int64(3), Fraction(4))))
        assert not any(map(_is_integral, (1.7, math.inf, None, "2", Fraction(1, 2))))

    def test_polynomial_equality_ignores_trailing_zeros(self):
        assert TaylorSeries([1, 2]) == TaylorSeries([1, 2, 0, 0])
        assert TaylorSeries([1]) == TaylorSeries([RationalComplex(1), RationalComplex(0)])
        assert TaylorSeries([1, 2]) != TaylorSeries([1, 2, 1])


class TestArithmetic:
    def test_add_aligns_orders(self):
        s = add(TaylorSeries([1, 1]), TaylorSeries([1, 1, 1]))
        assert s.order == 2 and s == TaylorSeries([2, 2, 1])

    def test_multiply_known_product(self):
        f = TaylorSeries([1, 1])
        g = TaylorSeries([1, -1])
        assert multiply(f, g) == TaylorSeries([1, 0, -1])

    def test_multiply_identity(self):
        f = TaylorSeries([2.0, -1.0, 3.5])
        assert multiply(f, TaylorSeries([1])) == f

    @pytest.mark.parametrize("one", [1, 1.0], ids=["exact", "float"])
    def test_multiply_order_is_the_sum_of_orders(self, one):
        # the product keeps every degree, trailing zeros included
        f, g = TaylorSeries([one, 0]), TaylorSeries([one, one, 0])
        out = multiply(f, g)
        assert out.order == 3 and out == TaylorSeries([1, 1])

    def test_scale_takes_numbers_only(self):
        # complex() would read "2" and Decimal("2"); a product with them never could
        for bad in ("2", Decimal("2"), None):
            with pytest.raises(TypeError):
                scale(TaylorSeries([1.0, 2.0]), bad)

    def test_scale_modes(self):
        f = TaylorSeries([1, Fraction(1, 3)])
        assert scale(f, 3).exact and scale(f, 3) == TaylorSeries([3, 1])
        assert not scale(f, 0.5).exact

    @given(exact_series, exact_series, exact_series)
    def test_add_associative_exact(self, f, g, h):
        assert add(add(f, g), h) == add(f, add(g, h))

    @given(exact_series, exact_series, exact_series)
    @settings(max_examples=50)
    def test_multiply_associative_exact(self, f, g, h):
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))

    @given(exact_series, exact_series)
    def test_product_rule_exact(self, f, g):
        lhs = derivative(multiply(f, g), 1)
        rhs = add(multiply(derivative(f, 1), g), multiply(f, derivative(g, 1)))
        assert lhs == rhs


class TestDerivativeEvaluate:
    def test_derivative_known(self):
        f = TaylorSeries([5, 3, 2, 1])  # 5 + 3z + 2z^2 + z^3
        assert derivative(f, 1) == TaylorSeries([3, 4, 3])
        assert derivative(f, 2) == TaylorSeries([4, 6])
        assert derivative(f, 0) is f

    def test_derivative_beyond_order_is_zero(self):
        f = TaylorSeries([1.0, 2.0])
        d = derivative(f, 5)
        assert d.is_zero and d.order == 0

    def test_derivative_rejects_negative(self):
        with pytest.raises(ValueError):
            derivative(TaylorSeries([1]), -1)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda f: derivative(f, math.inf), id="derivative-inf"),
        pytest.param(lambda f: derivative(f, None), id="derivative-None"),
        pytest.param(lambda f: monomial(math.inf), id="monomial-inf"),
        pytest.param(lambda f: shift_plus_volterra(f, math.inf), id="combined-inf"),
        pytest.param(lambda f: shift_plus_volterra(f, None), id="combined-None"),
    ])
    def test_bad_integer_argument_is_value_error(self, call):
        # int(inf) overflows and None does not compare with 0: both must
        # surface as ValueError, which the command line reports with exit 2
        for f in (TaylorSeries([1.0, 2.0]), TaylorSeries([1, 2])):
            with pytest.raises(ValueError, match="integer"):
                call(f)

    @given(exact_series, st.integers(0, 3), st.integers(0, 3))
    def test_derivative_composes_exact(self, f, a, b):
        assert derivative(f, a + b) == derivative(derivative(f, a), b)

    def test_evaluate_known(self):
        f = TaylorSeries([1, 2, 3])
        assert evaluate(f, 2) == 17
        assert evaluate(f, 0) == 1

    def test_evaluate_exact_stays_exact(self):
        f = TaylorSeries([Fraction(1, 3), 1])
        out = evaluate(f, Fraction(1, 2))
        assert isinstance(out, RationalComplex)
        assert out == RationalComplex(Fraction(5, 6))

    @pytest.mark.parametrize("coeffs, z", [
        pytest.param([1.0, 1.0, 1.0], math.inf, id="inf-point"),
        pytest.param([1.0, 1.0, 1.0], complex(math.nan, 0), id="nan-point"),
        pytest.param([1.0, 1.0, 1.0], 1e200, id="overflow"),
        pytest.param([1, 2], math.inf, id="exact-series-inf-point"),
    ])
    def test_non_finite_value_is_value_error(self, coeffs, z):
        # an infinite or NaN point, or a sum beyond double range, has no
        # finite value to return
        with pytest.raises(ValueError, match=r"order-\d+ series at z=.* no finite value"):
            evaluate(TaylorSeries(coeffs), z)

    @given(float_series, float_series, st.floats(0, 2 * math.pi))
    @settings(max_examples=50)
    def test_multiply_evaluate_consistency(self, f, g, theta):
        z = cmath.exp(1j * theta)
        lhs = complex(evaluate(multiply(f, g), z))
        rhs = complex(evaluate(f, z)) * complex(evaluate(g, z))
        # relative to the cancellation-free coefficient-mass scale
        cap = sum(abs(c) for c in f.coeffs) * sum(abs(c) for c in g.coeffs)
        assert abs(lhs - rhs) <= 1e-12 * cap + 1e-12


class TestSerialization:
    def test_round_trip_exact_floats(self):
        f = TaylorSeries([0.1 + 0.2j, -1.0 / 3.0, 2.0**-40])
        g = loads(dumps(f))
        assert g.order == f.order
        assert all(a == b for a, b in zip(f.coeffs, g.coeffs))

    def test_dict_shape(self):
        d = to_dict(TaylorSeries([1.0, 2.0]))
        assert d == {"order": 1, "coeffs": [[1.0, 0.0], [2.0, 0.0]]}

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"order": 3, "coeffs": [[1.0, 0.0]]})

    @pytest.mark.parametrize("order, message", [
        (True, "order must be an integer >= 0, got True"),
        ("1", "order must be an integer >= 0, got '1'"),
        (1.5, "order must be an integer >= 0, got 1.5"),
        (None, "order must be an integer >= 0, got None"),
        (-1, "order must be an integer >= 0, got -1"),
    ], ids=["bool", "string", "fraction", "none", "negative"])
    def test_order_that_is_not_a_count_rejected(self, order, message):
        # True used to load as order 1, and "1" to say it did not match 2 coefficients
        with pytest.raises(ValueError) as exc:
            from_dict({"order": order, "coeffs": [[1.0, 0.0], [2.0, 0.0]]})
        assert str(exc.value) == message

    def test_integral_float_order_is_read(self):
        assert from_dict({"order": 1.0, "coeffs": [[1.0, 0.0], [2.0, 0.0]]}).order == 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            from_dict({"coeffs": [[1.0, 0.0]]})
        with pytest.raises(ValueError):
            from_dict({"order": 0, "coeffs": [[1.0]]})
        with pytest.raises(ValueError):
            from_dict({"order": 0, "coeffs": []})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            from_dict({"order": 1, "coeffs": [[1.0, 0.0], [0.0, bad]]})
        with pytest.raises(ValueError, match="not finite"):
            loads(json.dumps({"order": 0, "coeffs": [[bad, 0.0]]}))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_series_is_not_written(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            to_dict(TaylorSeries([1.0, complex(0.0, bad)]))

    @pytest.mark.parametrize("coeffs", [
        [["12", "3"]], [[True, 0.0]], [[1.0, False]], [[1.0]], [[1.0, 2.0, 3.0]], ["12"],
        [[None, 0.0]], [[[1.0], 0.0]], [[10**400, 0.0]],
    ])
    def test_only_json_numbers_in_pairs_are_read(self, coeffs):
        with pytest.raises(ValueError):
            from_dict({"order": 0, "coeffs": coeffs})

    def test_json_is_plain(self):
        payload = json.loads(dumps(TaylorSeries([1.5, -2.25j])))
        assert payload["coeffs"] == [[1.5, 0.0], [0.0, -2.25]]


class TestExactAgainstFractions:
    """Every exact series operation against the plain-Fraction reference."""

    @given(ref.references)
    def test_construction_and_coeffs_view(self, a):
        f = ref.series(a)
        assert f.exact and f.order == len(a) - 1
        assert all(isinstance(c, RationalComplex) for c in f.coeffs)
        assert ref.pairs(f) == a
        assert f.is_zero == all(x == ref.ZERO for x in a)

    def test_int_and_fraction_inputs_are_exact(self):
        f = TaylorSeries([1, Fraction(-2, 6), True])
        assert ref.pairs(f) == [(1, 0), (Fraction(-1, 3), 0), (1, 0)]
        assert ref.pairs(zero(exact=True)) == [ref.ZERO]

    @given(ref.references, ref.references)
    def test_equality_ignores_trailing_zeros(self, a, b):
        assert (ref.series(a) == ref.series(b)) == (ref.trimmed(a) == ref.trimmed(b))
        assert ref.series(a) == ref.series(a + [ref.ZERO] * 3)

    @given(ref.references, ref.references)
    def test_equal_series_through_different_denominators(self, a, b):
        f, g = ref.series(a), ref.series(b)
        assert subtract(add(f, g), g) == f
        assert scale(scale(f, Fraction(7, 3)), Fraction(3, 7)) == f
        assert subtract(f, f) == zero(exact=True)

    @given(ref.references, ref.references)
    def test_add_subtract(self, a, b):
        f, g = ref.series(a), ref.series(b)
        assert ref.pairs(add(f, g)) == ref.add(a, b)
        assert ref.pairs(subtract(f, g)) == ref.add(a, b, -1)

    @given(ref.references, ref.scalars)
    def test_scale_by_int_fraction_and_rational_complex(self, a, s):
        out = scale(ref.series(a), s)
        assert out.exact and ref.pairs(out) == ref.scale(a, s)

    @given(ref.references, ref.references)
    def test_multiply(self, a, b):
        assert ref.pairs(multiply(ref.series(a), ref.series(b))) == ref.multiply(a, b)

    @given(ref.references, ref.scalars, st.booleans())
    def test_multiply_by_a_constant_is_scale_and_the_kronecker_product(
            self, a, s, constant_first):
        f, c = ref.series(a), TaylorSeries([s])
        out = multiply(c, f) if constant_first else multiply(f, c)
        (fr, fi, fd), (cr, ci, cd) = f._c, c._c
        kron = _exact_series(*_kronecker_product(fr, fi, cr, ci), fd * cd)
        # the full product, in canonical form
        assert out._c == kron._c == scale(f, s)._c
        assert ref.pairs(out) == ref.scale(a, s)
        assert math.gcd(out._c[2], *out._c[0], *out._c[1]) == 1

    @given(ref.references)
    def test_multiply_by_zero_is_the_canonical_zero(self, a):
        out = multiply(ref.series(a), zero(exact=True))
        assert out._c == ((0,) * len(a), (0,) * len(a), 1)

    @given(ref.references, st.integers(0, 10))
    def test_derivative(self, a, m):
        assert ref.pairs(derivative(ref.series(a), m)) == ref.derivative(a, m)

    @given(ref.references, ref.scalars)
    def test_evaluate(self, a, z):
        out = evaluate(ref.series(a), z)
        assert isinstance(out, RationalComplex)
        assert (out.re, out.im) == ref.evaluate(a, z)

    @given(ref.references, ref.references)
    def test_exact_plus_float_promotes_to_float(self, a, b):
        f = ref.series(a)
        g = TaylorSeries([complex(float(x), float(y)) for x, y in b])
        for out in (add(f, g), subtract(g, f), multiply(f, g), scale(f, 0.5)):
            assert not out.exact
        for c, (x, y) in zip(add(f, g).coeffs, ref.add(a, b), strict=True):
            assert abs(c - complex(float(x), float(y))) <= 1e-12
        assert isinstance(evaluate(f, 0.5), complex)


class TestDeepDerivative:
    def test_float_factor_beyond_double_range_is_value_error(self):
        f = TaylorSeries([1.0] * 301)
        with pytest.raises(ValueError, match="exceeds double range"):
            derivative(f, 200)
        # the exact mode has no such limit
        d = derivative(TaylorSeries([0] * 300 + [1]), 200)
        assert d.exact and d.coeffs[-1] == math.perm(300, 200)

    @pytest.mark.parametrize("read", [
        pytest.param(to_dict, id="to_dict"),
        pytest.param(lambda f: hp_norm(f, 2.0), id="hp_norm"),
        pytest.param(sup_norm, id="sup_norm"),
        pytest.param(lambda f: add(f, TaylorSeries([1.0])), id="add"),
        pytest.param(lambda f: scale(f, 0.5), id="scale"),
        pytest.param(lambda f: multiply(f, TaylorSeries([1.0, 2.0])), id="multiply"),
        pytest.param(lambda f: evaluate(f, 0.5), id="evaluate"),
    ])
    def test_exact_value_beyond_double_range_read_as_floats_is_value_error(self, read):
        with pytest.raises(ValueError, match="beyond double range"):
            read(TaylorSeries([10**400, 1]))


class TestFloatProduct:
    @pytest.mark.parametrize("lengths", [
        (_FFT_PRODUCT_LEN, _FFT_PRODUCT_LEN + 200),      # np.convolve
        (_FFT_PRODUCT_LEN + 1, _FFT_PRODUCT_LEN + 1),    # FFT
        (_FFT_PRODUCT_LEN + 50, 3 * _FFT_PRODUCT_LEN),   # FFT, unequal
    ])
    def test_full_product_matches_convolve(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        a, b = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for n in lengths)
        want = np.convolve(a, b)
        for f, g in ((a, b), (b, a)):
            got = np.asarray(multiply(TaylorSeries(f), TaylorSeries(g)).coeffs)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _signed_zero_coeffs(rng, size):
    """Random unit-box coefficients with about a quarter of the parts
    replaced by +0.0 or -0.0, as Python complex."""
    parts = rng.uniform(-1, 1, (size, 2))
    mask = rng.random((size, 2)) < 0.25
    parts[mask] = rng.choice([0.0, -0.0], mask.sum())
    return [complex(x, y) for x, y in parts.tolist()]


def _python_reference(a, b):
    """Every float op on the coefficient lists a and b by the Python-complex
    formulas the README's rounding rule states, keyed like
    ``_hardylab_outputs``."""
    a_head = a[:2]
    out = {
        "construct": a,
        "add": [x + y for x, y in zip_longest(a, b, fillvalue=0j)],
        "subtract": [x - y for x, y in zip_longest(a, b, fillvalue=0j)],
        "negate": [x * -1 for x in a],
        "shift": [0j] + a,
        "zero_head": [0j] * min(3, len(a)) + a[3:],
        "multiply": np.convolve(np.array(a), np.array(b)).tolist(),
        "lift": [x + y for x, y in zip_longest(
            a_head, [0j] * 2 + [x / math.perm(k + 2, 2) for k, x in enumerate(b)],
            fillvalue=0j)],
    }
    for s in SCALE_FACTORS:
        out[f"scale {s!r}"] = [x * s for x in a]
    for m in DERIVATIVE_COUNTS:
        out[f"derivative {m}"] = (
            [x * math.perm(k, m) for k, x in enumerate(a) if k >= m] if m < len(a) else [0j])
    for n in ANTIDERIVATIVE_COUNTS:
        out[f"antiderivative {n}"] = [0j] * n + [x / math.perm(k + n, n) for k, x in enumerate(a)]
    for n in COMBINED_MULTIPLES:
        out[f"combined {n}"] = [0j] + [x * ((k + 1 + n) / (k + 1)) for k, x in enumerate(a)]
    return out


SCALE_FACTORS = (3, -1, 0.3, 2.5 - 1.5j, complex(0.7, -0.0), Fraction(1, 3))
DERIVATIVE_COUNTS = (1, 2, 3, 6, 7, 10)        # perm(300, 7) and up pass 2**53
ANTIDERIVATIVE_COUNTS = (1, 2, 3, 10)
COMBINED_MULTIPLES = (1, 2, 5, 2**60)          # weights from 2**60 pass 2**53


def _hardylab_outputs(f, g):
    out = {
        "construct": f,
        "add": add(f, g),
        "subtract": subtract(f, g),
        "negate": -f,
        "shift": shift(f),
        "zero_head": zero_head(f, 3),
        "multiply": multiply(f, g),
        "lift": lift_approximant(f, g, 2),
    }
    for s in SCALE_FACTORS:
        out[f"scale {s!r}"] = scale(f, s)
    for m in DERIVATIVE_COUNTS:
        out[f"derivative {m}"] = derivative(f, m)
    for n in ANTIDERIVATIVE_COUNTS:
        out[f"antiderivative {n}"] = nth_antiderivative(f, n)
    for n in COMBINED_MULTIPLES:
        out[f"combined {n}"] = shift_plus_volterra(f, n)
    return out


def _scalar_max_rel_coeff_error(a, b):
    worst = 0.0
    for x, y in zip_longest(a, b, fillvalue=0j):
        denom = max(abs(x), abs(y))
        if denom > 0:
            worst = max(worst, abs(x - y) / denom)
    return worst


def _bits(values):
    """The bit patterns of complex values: equal exactly when their reprs
    are, signed zeros included, and much cheaper to compare."""
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def _horner_reference(a, z):
    acc = a[-1]
    for x in reversed(a[:-1]):
        acc = acc * z + x
    return acc


class TestFloatBitIdentity:
    """Float series on one complex128 array give, bit for bit, what Python
    complex arithmetic gives on the same coefficients, signed zeros
    included."""

    def test_every_float_op_matches_python_complex_orders_0_to_300(self):
        rng = np.random.default_rng(41)
        for order in range(301):
            a = _signed_zero_coeffs(rng, order + 1)
            b = _signed_zero_coeffs(rng, int(rng.integers(1, 302)))
            f = TaylorSeries(np.array(a)) if order % 2 else TaylorSeries(a)
            g = TaylorSeries(b)
            want = _python_reference(a, b)
            for name, got in _hardylab_outputs(f, g).items():
                assert _bits(got.coeffs) == _bits(want[name]), (order, name)
            assert (f == g) == all(x == y for x, y in zip_longest(a, b, fillvalue=0j))
            assert f.is_zero == all(x == 0 for x in a)
            z = complex(*rng.uniform(-1, 1, 2))
            assert repr(evaluate(f, z)) == repr(_horner_reference(a, z))
            assert to_dict(f)["coeffs"] == [[x.real, x.imag] for x in a]
            assert _bits(loads(dumps(f)).coeffs) == _bits(a)
            assert hardy_sum(f) == math.fsum(abs(x) / (k + 1) for k, x in enumerate(a))
            assert max_rel_coeff_error(f, g) == _scalar_max_rel_coeff_error(a, b)

    def test_vectorized_helpers_match_the_scalar_loops_on_exact_series(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = random_rational_series(rng, 40)
            g = scale(random_rational_series(rng, 40), Fraction(1, 3))
            # the references read the exact values rounded to complex
            a, b = [complex(x) for x in f.coeffs], [complex(x) for x in g.coeffs]
            assert hardy_sum(f) == math.fsum(abs(x) / (k + 1) for k, x in enumerate(a))
            assert max_rel_coeff_error(f, g) == _scalar_max_rel_coeff_error(a, b)
        assert max_rel_coeff_error(zero(), zero(exact=True)) == 0.0

    def test_max_rel_error_where_a_modulus_leaves_double_range_fails_its_check(self):
        # |1.5e308 + 1.5e308j| and its distance from 0 are beyond double range
        big = 1.5e308 + 1.5e308j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = max_rel_coeff_error(TaylorSeries([big, 1.0]), TaylorSeries([0j, 1.0]))
            same = max_rel_coeff_error(TaylorSeries([big, 1.0]), TaylorSeries([big, 2.0]))
        assert err == math.inf
        tracker = _Tracker()
        tracker.record(1e-9 - err)
        assert not tracker.ok
        # equal overflowed coefficients still read 0; the max is the 0.5 after
        assert same == 0.5

    def test_storage_is_one_read_only_array_and_coeffs_a_tuple(self):
        values = np.array([1.0, 2.0 - 1j, -0.0])
        f = TaylorSeries(values)
        values[0] = 7.0  # the constructor copied its input
        assert f._c.dtype == np.complex128 and not f._c.flags.writeable
        assert type(f.coeffs) is tuple and f.coeffs == (1 + 0j, 2 - 1j, 0j)
        assert all(type(c) is complex for c in f.coeffs)
        assert not derivative(f)._c.flags.writeable

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: derivative(TaylorSeries([0, 0, 1e308]), 2), id="derivative"),
        pytest.param(lambda: shift_plus_volterra(TaylorSeries([1e308, 1e308]), 2), id="combined"),
        pytest.param(lambda: add(TaylorSeries([1e308]), TaylorSeries([1e308, 1.0])), id="add"),
        pytest.param(lambda: subtract(TaylorSeries([1e308]), TaylorSeries([-1e308])),
                     id="subtract"),
        pytest.param(lambda: scale(TaylorSeries([1e308]), 1e10j), id="scale"),
        pytest.param(lambda: multiply(TaylorSeries([1e200]), TaylorSeries([1e200])),
                     id="multiply"),
        pytest.param(lambda: multiply(TaylorSeries([1e200] * 400), TaylorSeries([1e200] * 400)),
                     id="multiply-fft"),
        pytest.param(lambda: TaylorSeries([1.0, complex(0.0, math.inf)]), id="construct-inf"),
        pytest.param(lambda: TaylorSeries(np.array([math.nan])), id="construct-nan"),
    ])
    def test_a_result_that_is_not_finite_is_a_value_error(self, call):
        # every float series passes one finite check where it is built, and
        # the overflow that feeds it raises no NumPy warning first
        with pytest.raises(ValueError, match="not finite"):
            call()


class TestFiniteScanGuardMap:
    """Only results that arithmetic can push out of double range are scanned
    for non-finite values: products with weights, sums, scale and products.
    Copies and quotients by integers d >= 1 skip the scan and stay finite."""

    SIZES = (3, _PY_LOOP_LEN, _PY_LOOP_LEN + 1, 400)  # both sides of the Python path

    @staticmethod
    def _huge(size):
        rng = np.random.default_rng(size)
        parts = 1.7e308 * rng.uniform(-1, 1, (size, 2))
        parts[0] = (1.7e308, -1.7e308)
        parts[-1] = (-0.0, 1.7e308)
        return [complex(x, y) for x, y in parts.tolist()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("call", [
        pytest.param(lambda f: derivative(f, 2), id="derivative"),
        pytest.param(lambda f: shift_plus_volterra(f, 2), id="combined"),
        pytest.param(lambda f: scale(f, 2), id="scale"),
        pytest.param(lambda f: add(f, f), id="add"),
        pytest.param(lambda f: multiply(f, f), id="multiply"),
    ])
    def test_ops_that_can_overflow_still_raise(self, size, call):
        with pytest.raises(ValueError, match="not finite"):
            call(TaylorSeries(self._huge(size)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", SIZES)
    def test_copies_and_integer_quotients_stay_finite_and_exact(self, size):
        a, b = self._huge(size), self._huge(size + 1)
        f, g = TaylorSeries(a), TaylorSeries(b)
        want = _python_reference(a, b)
        outputs = {
            "shift": shift(f),
            "zero_head": zero_head(f, 3),
            "antiderivative 1": _antiderivative(f),
            "antiderivative 3": nth_antiderivative(f, 3),
            "lift": lift_approximant(f, g, 2),
        }
        want["antiderivative 1"] = [0j] + [x / (k + 1) for k, x in enumerate(a)]
        want["antiderivative 3"] = [0j] * 3 + [x / math.perm(k + 3, 3) for k, x in enumerate(a)]
        for name, got in outputs.items():
            assert np.isfinite(got._c).all() and not got._c.flags.writeable, name
            assert _bits(got.coeffs) == _bits(want[name]), name
