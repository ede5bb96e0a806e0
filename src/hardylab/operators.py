"""Coefficient-level operators on series.

The operator set: multiplication by the coordinate (shift), Volterra-type
integration against a symbol, their closed-form combination
``z*f + n * integral_0^z f``, and the n-fold derivative / antiderivative
pair that intertwines the combined operator with the shift.

Order accounting: shift and the combined operator grow the truncation
order by one, the n-fold antiderivative by n, Volterra by order(g); the
n-fold derivative shrinks it by n (floored at the zero series).
"""

from __future__ import annotations

from .series import (
    _check_count,
    _check_perm_range,
    _derivative,
    _reweighted,
    add,
    derivative,
    multiply,
    zero,
)

__all__ = [
    "shift",
    "volterra",
    "shift_plus_volterra",
    "nth_derivative",
    "nth_antiderivative",
    "lift_approximant",
]


def shift(f):
    """Multiplication by the coordinate: ``(c_0, ..., c_N) -> (0, c_0, ..., c_N)``."""
    return _reweighted(f, offset=1)


def _antiderivative(f):
    """Term-by-term antiderivative with value 0 at the origin."""
    if f.is_zero:
        return zero(exact=f.exact)
    return _reweighted(f, divisors=(range(1, f.order + 2), 1), offset=1)


def volterra(f, g):
    """Volterra-type operator: ``z -> integral_0^z f * g'``.

    A constant symbol gives the zero operator; the result is returned as
    the canonical zero series in that case.
    """
    gp = derivative(g, 1)
    if gp.is_zero:
        return zero(exact=f.exact and g.exact)
    return _antiderivative(multiply(f, gp))


def shift_plus_volterra(f, n):
    """The combined operator ``z*f + n * integral_0^z f`` in one pass.

    Closed form: the output coefficient at degree k+1 is
    ``c_k * (k + 1 + n) / (k + 1)`` and the constant term is 0.
    """
    n = _check_count(n, "operator parameter n", 1)
    weights, divisors = (range(n + 1, f.order + n + 2), 1), (range(1, f.order + 2), 1)
    return _reweighted(f, weights, divisors, offset=1)


def nth_derivative(f, n):
    """The n-fold derivative, n >= 1."""
    return _derivative(f, _check_count(n, "operator parameter n", 1))


def nth_antiderivative(f, n):
    """The n-fold antiderivative whose first n derivatives vanish at 0.

    Coefficient c_k lands at degree k+n scaled by ``k!/(k+n)!``.  This
    inverts :func:`nth_derivative` exactly on series whose first n
    coefficients vanish, and it is the coefficient form of the iterated
    kernel integral ``(1/(n-1)!) * integral_0^z (z - w)^(n-1) f(w) dw``.
    In float mode a divisor beyond double range raises ValueError.
    """
    n = _check_count(n, "operator parameter n", 1)
    _check_perm_range(f, f"antiderivative {n}", f.order + n, n)
    return _reweighted(f, divisors=(range(n, f.order + n + 1), n), offset=n)


def lift_approximant(f, pm, n):
    """Order-n approximant of f built from an approximant pm of its n-th
    derivative: the degree-(n-1) Taylor head of f plus the n-fold
    antiderivative of pm.

    The difference to f then has zero initial data and n-th derivative
    ``pm - f^(n)``, so its derivative-space distance to f equals the H^p
    distance of pm to f^(n) exactly; that identity transfers polynomial
    density from H^p up to the derivative spaces.
    """
    n = _check_count(n, "operator parameter n", 1)
    return add(_reweighted(f, stop=n), nth_antiderivative(pm, n))

