"""Boundary-quadrature integral means and the recursive derivative-space norms.

Norm evaluation never searches over radii: a stored series is a polynomial,
continuous up to the closed disk, and its integral means are nondecreasing
in the radius, so the boundary radius r = 1 realises the sup.  Every norm
call still checks that monotonicity on a three-point radius grid as a
sanity assertion on the quadrature itself; the three means come from one
coefficient transform per row length.

Quadrature modes:

``parseval``
    p = 2 only; the mean is the coefficient sum ``sum |c_k|^2 r^(2k)``.
``power-trick``
    even integer p; reduces to the Parseval sum of ``f**(p/2)``, built by
    direct ``np.convolve`` in O(N^2).
``trapezoid``
    any p >= 1; uniform boundary samples via one batched FFT per row
    length, each row ``c_k r^k`` cut where ``r^k`` underflows to 0.0.  For
    trigonometric polynomials the uniform trapezoid rule is exact once the
    node count exceeds the top frequency (Trefethen & Weideman, SIAM Review
    56 (2014) 385-458), so a row of degree d has the node floor
    ``4 * (d + 1)``, and ``(p/2) * d + 1`` for even integer p.  A request at
    or above the floor is used as given; below it, the count is the least
    2*3*5-smooth integer at or above the floor (no Bluestein FFT).
``auto``
    ``parseval`` at p = 2; at even p = 2q >= 4, ``power-trick`` while its
    ``(N+1)**2 * q(q-1)/2`` multiply-adds are at most 144 per trapezoid
    node, the exact O(M log M) ``trapezoid`` above; ``trapezoid`` otherwise.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .series import (
    TaylorSeries,
    _check_count,
    _check_perm_range,
    _complex_coeffs,
    _quietly,
    _smooth_size,
    derivative,
)

__all__ = [
    "SpaceParams",
    "QuadratureConfig",
    "boundary_values",
    "boundary_scale",
    "integral_mean",
    "hp_norm",
    "sn_norm",
    "sn_norm_unrolled",
    "derivative_sum_norm",
    "sup_sum_norm",
    "sup_norm",
    "sup_bracket",
    "hardy_sum",
]

_MODES = ("auto", "parseval", "power-trick", "trapezoid")
_SANITY_RADII = (0.5, 0.75, 1.0)
# power trick and trapezoid took equal time at (order+1)**2 = 144 M (M nodes)
# at p = 4, 48 M at p = 6
_POWER_TRICK_PER_NODE = 144


@dataclass(frozen=True)
class SpaceParams:
    """Space selector (n, p): functions whose n-th derivative lies in H^p."""

    n: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n, "derivative depth n"))
        _check_exponent(self.p)


@dataclass(frozen=True)
class QuadratureConfig:
    """Boundary quadrature knobs.

    ``num_points`` is a floor request, not an exact count: quadrature
    oversamples to at least ``4 * (order + 1)`` nodes so the configured
    count can never undersample the integrand.  ``sup_bracket`` samples
    ``max(num_points, 4 * (order + 1))`` nodes; the trapezoid rounds a
    raised count up to a 2*3*5-smooth size (see the module docstring).
    """

    num_points: int = 4096
    mode: str = "auto"

    def __post_init__(self):
        _check_count(self.num_points, "num_points", 4)
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


def _effective_points(f, requested):
    return max(int(requested), 4 * (f.order + 1))


def _stack(rows, m, dtype):
    """The rows, each at most m long, zero-filled into a ``(len(rows), m)`` array."""
    buf = np.zeros((len(rows), m), dtype=dtype)
    for i, row in enumerate(rows):
        buf[i, : row.size] = row
    return buf


def _transform(rows, m):
    """``sum_k c_k w^k`` at the m-th roots of unity w for each coefficient row
    c (m >= c.size), in one batched FFT whose contiguous rows transform as in
    1-D; unchecked: a value beyond double range comes back inf or NaN."""
    buf = _stack(rows, m, complex)
    np.fft.ifft(buf, out=buf)
    buf *= m
    return buf


def _grid_abs(c, m):
    """|f| at the m-th roots of unity, f with coefficients c."""
    return _quietly(lambda: np.abs(_transform([c], m)[0]))


def boundary_values(f, num_points):
    """Values of f at ``num_points`` uniform samples of the unit circle.

    FFT-based: the j-th entry is ``f(exp(2*pi*1j*j/num_points))``.
    Sampling a degree-N polynomial needs ``num_points >= N + 1``.  Values
    beyond double range raise ValueError.
    """
    if type(num_points) is not int:  # an int is checked against the order below
        num_points = _check_count(num_points, "num_points")
    c = _complex_coeffs(f)
    if num_points < c.size:
        raise ValueError(f"need at least order+1 = {c.size} sample points, got {num_points}")
    vals = _quietly(_transform, [c], num_points)[0]
    if not np.isfinite(vals).all():
        raise ValueError(f"a boundary value of the order-{f.order} series is not finite "
                         "in double precision")
    return vals


def boundary_scale(f):
    """Max of |f| over ``max(256, 4 * (order + 1))`` boundary samples; 0.0
    for the zero series.

    Used as the natural magnitude reference when a residual has to be
    compared scale-free against f itself.
    """
    return _boundary_scales([f])[0]


def _boundary_scales(series):
    """:func:`boundary_scale` of each series, the nonzero ones sampled in one
    batched transform per node count; each row's ``abs`` and ``max`` are
    elementwise, so every scale is the one-series value bit for bit."""
    groups = {}
    for i, f in enumerate(series):
        if not f.is_zero:
            groups.setdefault(_effective_points(f, 256), []).append(i)
    peaks = [0.0] * len(series)

    def sample():
        for m, idx in groups.items():
            rows = np.abs(_transform([_complex_coeffs(series[i]) for i in idx], m))
            for i, peak in zip(idx, rows.max(axis=1).tolist()):
                peaks[i] = peak

    _quietly(sample)
    return [_finite_sum([peak]) for peak in peaks]


def _check_exponent(p):
    if not (isinstance(p, (float, numbers.Real)) and 1 <= p < math.inf):  # float: no ABC lookup
        raise ValueError(f"exponent p must satisfy 1 <= p < inf, got {p}")


def _is_even(p):
    return float(p).is_integer() and int(p) % 2 == 0


def _resolve_mode(p, mode, order, num_points):
    if mode == "auto":
        if p == 2:
            return "parseval"
        q = int(p) // 2
        work = (order + 1) ** 2 * q * (q - 1) // 2
        if _is_even(p) and work <= _POWER_TRICK_PER_NODE * _node_count(order, p, num_points):
            return "power-trick"
        return "trapezoid"
    if mode == "parseval" and p != 2:
        raise ValueError("parseval mode is only valid for p = 2")
    if mode == "power-trick" and not _is_even(p):
        raise ValueError("power-trick mode needs an even integer exponent")
    return mode


def _node_count(order, p, requested):
    """Trapezoid nodes: the request, or the least 2*3*5-smooth size at or
    above the exactness floor when the request is below that floor."""
    floor = 4 * (order + 1)
    if _is_even(p):
        floor = max(floor, int(p) // 2 * order + 1)
    return int(requested) if requested >= floor else _smooth_size(floor)


def _underflow_index(r, step):
    """A k from which ``r ** (step * k)``, 0 < r < 1, is at most 2**-1100: 0.0."""
    return math.ceil(1100 / (step * -math.log2(r)))


@functools.cache
def _power_row(r, step):
    """``r ** (step * k)`` for k up to past its underflow to 0.0: <= 2651 entries."""
    row = r ** (step * np.arange(_underflow_index(r, step)))
    row.flags.writeable = False  # callers share it
    return row


def _radius_row(c, r, step):
    """``c_k r^(step*k)``, cut where the power underflows to 0.0; c itself at
    r = 1.  The sanity radii read their cached power row, the same powers
    bit for bit, as the power is taken elementwise."""
    if r == 1.0:
        return c
    powers = (_power_row(r, step) if r in _SANITY_RADII
              else r ** (step * np.arange(min(c.size, _underflow_index(r, step)))))
    return c[: powers.size] * powers[: c.size]


def _means(f, p, radii, mode, num_points):
    """The p-th integral means of f on the circles |z| = r, r in ascending
    ``radii``, in a resolved ``mode``, from one transform per row length.

    The sums form ``|f|^p`` directly.  When that could leave double range,
    they run on ``f / 2**e``, where ``2**(e-1) <= max |c_k| < 2**e``, an
    exact rescaling, and the means are scaled back by ``2**e``.  A mean
    that is still not finite raises ValueError.
    """
    c = _complex_coeffs(f)
    e = math.frexp(float(np.abs(c).max()))[1]
    if p * max(e + c.size.bit_length(), -e) > 1000:
        c = np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e)
    else:
        e = 0
    if mode == "trapezoid":
        rows = [_radius_row(c, r, 1) for r in radii]
        sums = []
        for k in sorted({row.size for row in rows}):  # row lengths ascend with r
            m = _node_count(k - 1, p, num_points)
            mag = np.abs(_transform([row for row in rows if row.size == k], m))
            mag **= p
            # a contiguous row sum is the same pairwise sum as the 1-D one
            sums += (mag.sum(axis=1) / m).tolist()
        means = [s ** (1.0 / p) for s in sums]
    else:
        g = c
        for _ in range(int(p) // 2 - 1):
            g = np.convolve(g, c)
        mag = np.abs(g)
        sq = mag * mag
        # the terms a cut drops are 0.0: each full-length row sums as before
        rows = _stack([_radius_row(sq, r, 2.0) for r in radii], sq.size, float)
        root = math.sqrt if mode == "parseval" else lambda s: s ** (1.0 / p)
        means = [root(s) for s in rows.sum(axis=1).tolist()]
    try:
        means = [math.ldexp(x, e) for x in means]
    except OverflowError:
        means = [math.inf]
    if not all(map(math.isfinite, means)):
        raise ValueError(f"an integral mean of the order-{f.order} series is not finite in "
                         "double precision")
    return means


def integral_mean(f, p, r=1.0, cfg=None):
    """The p-th integral mean of f on the circle of radius r.

    Parameters
    ----------
    f : TaylorSeries
    p : float
        Exponent, 1 <= p < inf.
    r : float, optional
        Radius in (0, 1]; defaults to the boundary circle, 1.
    cfg : QuadratureConfig, optional

    Returns
    -------
    float
        ``( (1/2pi) * integral |f(r e^{i t})|^p dt )^(1/p)``.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    _check_exponent(p)
    if not (isinstance(r, numbers.Real) and 0 < r <= 1):
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    mode = _resolve_mode(p, cfg.mode, f.order, cfg.num_points)
    return _means(f, p, (r,), mode, cfg.num_points)[0]


def hp_norm(f, p, cfg=None):
    """The H^p norm of the stored polynomial.

    Returns the boundary integral mean, after asserting that the means on
    the radius grid (0.5, 0.75, 1.0) are nondecreasing; a violation means
    the quadrature itself is broken and raises RuntimeError.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    _check_exponent(p)
    mode = _resolve_mode(p, cfg.mode, f.order, cfg.num_points)
    means = _means(f, p, _SANITY_RADII, mode, cfg.num_points)
    for lo, hi in zip(means, means[1:]):
        if lo > hi + 1e-12 * max(1.0, hi):
            raise RuntimeError(
                f"integral means {means} are not nondecreasing in the radius"
            )
    return means[-1]


def _depth(f, n):
    """``min(n, order + 1)``: a derivative past the order adds exactly 0.0."""
    return min(n, f.order + 1)


def sn_norm(f, params, cfg=None):
    """Recursive derivative-space norm: ``|f(0)| + norm(f', n-1)``, base H^p.

    The recursion is unwound innermost first, so the sum is the recursive
    one.  A float series whose n-th derivative factor ``perm(order, n)``
    exceeds double range is rejected up front with ValueError, as
    :func:`derivative` rejects it.
    """
    _check_perm_range(f, f"derivative {params.n}", f.order, params.n)
    heads = []
    for _ in range(_depth(f, params.n)):
        heads.append(abs(complex(_complex_coeffs(f)[0])))
        f = derivative(f, 1)
    total = hp_norm(f, params.p, cfg)
    for head in reversed(heads):
        total = head + total
    return _finite_sum([total])


def sn_norm_unrolled(f, params, cfg=None):
    """Unrolled form: ``sum_{k<n} |f^(k)(0)| + hp_norm(f^(n))``.

    Agrees with :func:`sn_norm` up to float summation order.
    """
    n = _depth(f, params.n)
    heads = _finite_sum(abs(complex(_complex_coeffs(derivative(f, k))[0])) for k in range(n))
    return _finite_sum([heads + hp_norm(derivative(f, n), params.p, cfg)])


def derivative_sum_norm(f, params, cfg=None):
    """Equivalent norm: sum of the H^p norms of the first n+1 derivatives."""
    return _finite_sum(
        hp_norm(derivative(f, k), params.p, cfg) for k in range(_depth(f, params.n) + 1)
    )


def sup_sum_norm(f, params, cfg=None):
    """Equivalent norm: boundary sups of the first n derivatives plus the
    H^p norm of the n-th."""
    n = _depth(f, params.n)
    total = _finite_sum(sup_norm(derivative(f, k), cfg) for k in range(n))
    return _finite_sum([total + hp_norm(derivative(f, n), params.p, cfg)])


def _finite_sum(terms):
    """``math.fsum(terms)``; ValueError when a norm sum leaves double range
    (a NaN sum comes from an infinite term)."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"a norm of the series is {total} in double precision")
    return total


def _sup_slack(f, cfg):
    """``hi`` over the grid max in :func:`sup_bracket`: 1 / sqrt(cos(pi N / m))."""
    return 1.0 / math.sqrt(math.cos(math.pi * f.order / _effective_points(f, cfg.num_points)))


def _peak_walk(c, t, h):
    """Largest |f(e^{is})| on a walk from t to the zero of (|f|^2)' in
    [t - h, t + h]: a Newton step where |f|^2 is concave and the step stays
    inside the bracket of the signs seen so far, else bisection."""
    k = np.arange(c.size, dtype=float)
    lo, hi, best = t - h, t + h, 0.0
    # bisection alone meets the 1e-9 h stop within 31 steps
    for _ in range(40):
        w = c * np.exp(1j * t * k)
        g, g1, g2 = w.sum(), 1j * (k * w).sum(), -(k * k * w).sum()
        best = max(best, abs(g))
        d1, d2 = (g.conjugate() * g1).real, abs(g1) ** 2 + (g.conjugate() * g2).real
        lo, hi = (t, hi) if d1 > 0 else (lo, t)
        step = -d1 / d2 if d2 < 0 else math.inf
        if min(abs(step), hi - lo) <= 1e-9 * h:
            break
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    return float(best)


def sup_bracket(f, cfg=None):
    """Certified bounds ``(lo, hi)`` on the sup of |f| over the closed disk,
    which the maximum principle puts on the boundary circle.

    Both come from the max of |f| on m = max(num_points, 4(N + 1)) boundary
    nodes, N = order.  ``lo`` walks from the best node to its peak
    (:func:`_peak_walk`), so it is at least that grid max.  T = |f|^2 is a
    trigonometric polynomial of degree N, so T(t + h) >= max(T) cos(N h)
    near a peak t (Bernstein-Szego); every angle lies within pi/m of a
    node, so ``hi = grid max / sqrt(cos(pi N / m))``.  Boundary values
    beyond double range raise ValueError, and so does an ``hi`` beyond it.
    """
    cfg = cfg if cfg is not None else QuadratureConfig()
    lo, grid = _sup_walk(f, cfg)
    return lo, _sup_upper(f, cfg, grid)


def _sup_upper(f, cfg, grid):
    """``hi`` of :func:`sup_bracket` from the grid max: ``grid / sqrt(cos(pi N / m))``."""
    return _finite_sum([grid * _sup_slack(f, cfg)])


def _sup_grid(f, cfg):
    """``(grid max, j, m, c)``: the max of |f| on the m = max(num_points,
    4(N + 1)) boundary nodes of :func:`sup_bracket`, its node j, and the
    coefficients c."""
    m, c = _effective_points(f, cfg.num_points), _complex_coeffs(f)
    vals = _grid_abs(c, m)
    j = int(np.argmax(vals))
    return _finite_sum([vals[j]]), j, m, c


def _sup_walk(f, cfg):
    """``(lo, grid max)`` of :func:`sup_bracket`."""
    if f.is_zero:
        return 0.0, 0.0
    grid, j, m, c = _sup_grid(f, cfg)
    t, h = 2 * math.pi * j / m, 2 * math.pi / m
    # a constant's grid max is its sup and its hi: no walk to round past it
    peak = _quietly(_peak_walk, c, t, h) if f.order else grid
    return max(grid, peak), grid


def sup_norm(f, cfg=None):
    """Boundary sup of |f|, from below: the lower end of :func:`sup_bracket`,
    which stays finite where only the upper end leaves double range."""
    return _sup_walk(f, cfg if cfg is not None else QuadratureConfig())[0]


def hardy_sum(f):
    """``sum |c_k| / (k+1)``: the coefficient side of the classical H^1
    coefficient inequality (bounded by pi times the H^1 norm)."""
    c = _complex_coeffs(f)
    # np.hypot is the abs of Python complex; np.abs rounds otherwise
    return _finite_sum((_quietly(np.hypot, c.real, c.imag) / np.arange(1, c.size + 1)).tolist())
