"""Plain-``Fraction`` reference model of exact series for the property tests.

A reference series is a list of ``(re, im)`` Fraction pairs, lowest degree
first.  Every function here is the schoolbook definition, one coefficient
at a time, so the property tests can hold hardylab's exact mode to it.
"""

import math
from fractions import Fraction

from hypothesis import strategies as st

from hardylab import RationalComplex, TaylorSeries

ZERO = (Fraction(0), Fraction(0))

rationals = st.builds(Fraction, st.integers(-256, 256), st.integers(1, 64))
pairs_strategy = st.tuples(rationals, rationals)
# trailing zeros and the all-zero series are drawn on purpose
references = st.builds(
    lambda body, zeros: body + [ZERO] * zeros,
    st.lists(pairs_strategy, min_size=1, max_size=9),
    st.integers(0, 2),
) | st.lists(st.just(ZERO), min_size=1, max_size=3)
scalars = st.one_of(
    st.integers(-5, 5),
    rationals,
    st.builds(RationalComplex, rationals, rationals),
)


def series(ref):
    return TaylorSeries([RationalComplex(re, im) for re, im in ref])


def pairs(f):
    """The coefficients of an exact series as (re, im) Fraction pairs."""
    return [(c.re, c.im) for c in f.coeffs]


def as_pair(value):
    if isinstance(value, RationalComplex):
        return (value.re, value.im)
    return (Fraction(value), Fraction(0))


def trimmed(ref):
    out = list(ref)
    while len(out) > 1 and out[-1] == ZERO:
        out.pop()
    return out


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def add(a, b, sign=1):
    size = max(len(a), len(b))
    a = a + [ZERO] * (size - len(a))
    b = b + [ZERO] * (size - len(b))
    return [(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(a, b)]


def scale(a, s):
    return [cmul(x, as_pair(s)) for x in a]


def multiply(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p = cmul(x, y)
            out[i + j] = (out[i + j][0] + p[0], out[i + j][1] + p[1])
    return out


def evaluate(a, z):
    acc = ZERO
    for c in reversed(a):
        acc = cmul(acc, as_pair(z))
        acc = (acc[0] + c[0], acc[1] + c[1])
    return acc


def times(x, q):
    return (x[0] * q, x[1] * q)


def shift(a):
    return [ZERO] + a


def derivative(a, m):
    if m > len(a) - 1:
        return [ZERO]
    return [times(a[k], math.perm(k, m)) for k in range(m, len(a))]


def shift_plus_volterra(a, n):
    return [ZERO] + [times(x, Fraction(k + 1 + n, k + 1)) for k, x in enumerate(a)]


def nth_antiderivative(a, n):
    return [ZERO] * n + [times(x, Fraction(1, math.perm(k + n, n))) for k, x in enumerate(a)]


def lift_approximant(a, p, n):
    return add(a[:n], nth_antiderivative(p, n))
