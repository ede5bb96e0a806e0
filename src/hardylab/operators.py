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

from dataclasses import dataclass

from .series import (
    TaylorSeries,
    _check_perm_range,
    _is_integral,
    _reweighted,
    add,
    derivative,
    monomial,
    multiply,
    scale,
    zero,
)

__all__ = [
    "shift",
    "volterra",
    "shift_plus_volterra",
    "shift_plus_volterra_composed",
    "nth_derivative",
    "nth_antiderivative",
    "lift_approximant",
    "OperatorDescriptor",
    "apply_operator",
]


def _check_multiple(n):
    if not _is_integral(n) or n < 1:
        raise ValueError(f"operator parameter n must be a positive integer, got {n!r}")
    return int(n)


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
    n = _check_multiple(n)
    weights, divisors = (range(n + 1, f.order + n + 2), 1), (range(1, f.order + 2), 1)
    return _reweighted(f, weights, divisors, offset=1)


def shift_plus_volterra_composed(f, n):
    """The same operator assembled from its parts; cross-check for the
    closed form."""
    n = _check_multiple(n)
    return add(shift(f), scale(volterra(f, monomial(1)), n))


def nth_derivative(f, n):
    """The n-fold derivative, n >= 1."""
    n = _check_multiple(n)
    return derivative(f, n)


def nth_antiderivative(f, n):
    """The n-fold antiderivative whose first n derivatives vanish at 0.

    Coefficient c_k lands at degree k+n scaled by ``k!/(k+n)!``.  This
    inverts :func:`nth_derivative` exactly on series whose first n
    coefficients vanish, and it is the coefficient form of the iterated
    kernel integral ``(1/(n-1)!) * integral_0^z (z - w)^(n-1) f(w) dw``.
    In float mode a divisor beyond double range raises ValueError.
    """
    n = _check_multiple(n)
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
    n = _check_multiple(n)
    return add(_reweighted(f, stop=n), nth_antiderivative(pm, n))


_KINDS = ("shift", "volterra", "combined", "diff", "integrate")


@dataclass(frozen=True)
class OperatorDescriptor:
    """Operator selector used by the command-line front end."""

    kind: str
    n: int = 1
    g: TaylorSeries | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"operator kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind in ("combined", "diff", "integrate"):
            _check_multiple(self.n)
        if self.kind == "volterra" and self.g is None:
            raise ValueError("the volterra operator needs its symbol series g")


def apply_operator(f, descriptor):
    """Dispatch a descriptor onto a series."""
    kind = descriptor.kind
    if kind == "shift":
        return shift(f)
    if kind == "volterra":
        return volterra(f, descriptor.g)
    if kind == "combined":
        return shift_plus_volterra(f, descriptor.n)
    if kind == "diff":
        return nth_derivative(f, descriptor.n)
    return nth_antiderivative(f, descriptor.n)
