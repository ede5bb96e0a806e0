"""Boundary-quadrature integral means and the recursive derivative-space norms.

Norm evaluation never searches over radii: a stored series is a polynomial,
continuous up to the closed disk, and its integral means are nondecreasing
in the radius, so the boundary radius r = 1 realises the sup.  Means are
taken on one radius grid only, (0.5, 0.75, 1), and every norm checks that
monotonicity on it as a sanity assertion on the quadrature itself.
Every public H^p norm goes through :func:`_hp_norms`: the three means of
a series come from batched coefficient transforms per row length, shared
by the series of one length in a batch of norms, in buffers of at most
``_BLOCK_ELEMS`` entries so that a batch of any size holds a bounded
amount of memory.  Every derivative-space norm, the recursive one
included, reads one derivative ladder ``f, f', ..., f^(n)``
(:func:`_ladder`), each rung one direct :func:`derivative`, and the four
norms of one series (H^p, recursive, derivative-sum, sup-sum) come from
one ladder and one batch of means (:func:`_norm_family`).
The ``_*_parts`` functions split a derivative norm into the rows it
measures and the function of their norms, so that a caller can batch the
rows of many series; a batch of S^n_p norms ``sum_{k<n} |f^(k)(0)| +
||f^(n)||_p`` of any series and depths comes from :func:`_sn_parts`.
The same budget blocks the battery's draws
(:func:`_blocks`), and every boundary maximum (:func:`boundary_scale`,
each sup's grid max) comes from one batched sampler, :func:`_grid_peaks`.

Quadrature modes:

``parseval``
    p = 2 only; the mean is the coefficient sum ``sum |c_k|^2 r^(2k)``.
``power-trick``
    even integer p; reduces to the Parseval sum of ``f**(p/2)``, built by
    direct ``np.convolve`` in O(N^2).
``trapezoid``
    any p >= 1; uniform boundary samples via batched FFTs per row
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
# entries in one batched buffer of means, and coefficients in one block of
# battery samples, to bound their memory: 8192 complex values are 128 KiB,
# the size of glibc's default mmap threshold
_BLOCK_ELEMS = 8192


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
        object.__setattr__(self, "num_points", _check_count(self.num_points, "num_points", 4))
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


def _transform(buf):
    """``sum_k c_k w^k`` at the m-th roots of unity w for each coefficient row
    c of the zero-filled ``(..., m)`` complex ``buf``, in place, in one
    batched FFT whose contiguous rows transform as in 1-D; unchecked: a
    value beyond double range comes back inf or NaN."""
    m = buf.shape[-1]
    np.fft.ifft(buf, out=buf)
    buf *= m
    return buf


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
    vals = _quietly(lambda: _transform(_stack([c], num_points, complex))[0])
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
    return _grid_peaks([f])[0][0]


def _grid_peaks(series, floor=256):
    """``(peak, j, m)`` of each series: the max of |f| on m = max(floor,
    4(N + 1)) boundary nodes, at node j.  The nonzero series are sampled in
    batched transforms per m (:func:`_fit`), each row's ``abs`` and
    ``argmax`` elementwise, so every peak is the one-series value bit for
    bit; the zero series takes no row and reads ``(0.0, 0, m)``."""
    groups, peaks = {}, []
    for i, f in enumerate(series):
        peaks.append((0.0, 0, _effective_points(f, floor)))
        if not f.is_zero:
            groups.setdefault(peaks[i][2], []).append(i)

    def sample():
        for m, idx in groups.items():
            step = _fit(m)
            for a in range(0, len(idx), step):
                chunk = idx[a:a + step]
                rows = np.abs(_transform(_stack([_complex_coeffs(series[i]) for i in chunk],
                                                m, complex)))
                for i, row, j in zip(chunk, rows, rows.argmax(axis=1).tolist()):
                    peaks[i] = (row[j], j, m)

    _quietly(sample)
    return [(_finite_sum([peak]), j, m) for peak, j, m in peaks]


def _check_exponent(p):
    """ValueError unless p is a real number in [1, inf); a bool is not an exponent."""
    # float first: no ABC lookup
    if not (isinstance(p, (float, numbers.Real)) and type(p) is not bool and 1 <= p < math.inf):
        raise ValueError(f"exponent p must satisfy 1 <= p < inf, got {p}")


def _is_even(p):
    return float(p).is_integer() and int(p) % 2 == 0


def _resolve_mode(p, mode, order, num_points):
    if mode == "auto":
        if p == 2:
            return "parseval"
        if not _is_even(p):
            return "trapezoid"
        q = int(p) // 2
        work = (order + 1) ** 2 * q * (q - 1) // 2
        if work <= _POWER_TRICK_PER_NODE * _node_count(order, p, num_points):
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
def _sanity_table(step):
    """The powers ``r ** (step * k)`` of the radius grid as the rows of one
    read-only table, as long as the longest cut row (2651 at step 1, 1326
    at step 2.0): zero past their cut, ones at r = 1.  A prefix of a row is
    a fresh ``r ** arange`` bit for bit, as the power is taken elementwise."""
    width = max(_underflow_index(r, step) for r in _SANITY_RADII if r != 1.0)
    rows = [np.ones(width) if r == 1.0 else r ** (step * np.arange(_underflow_index(r, step)))
            for r in _SANITY_RADII]
    table = _stack(rows, width, float)
    table.flags.writeable = False  # its slices are shared
    return table


# a kept plan holds a few views of the table, under 1 KB
@functools.lru_cache(maxsize=2048)
def _plan(size, step):
    """How :func:`_means` weighs a block of ``size`` columns by the powers
    of the radius grid, step 1 for the trapezoid and 2.0 for the sums:
    ``((width, powers, lo, hi), ...)`` by ascending width, the rows of
    ``powers`` being those of the radii ``_SANITY_RADII[lo:hi]``; kept, as
    an :func:`hp_norm` call at a small order is mostly this fixed cost.

    The powers of r < 1 are cut where they underflow to 0.0, so the radii
    group by row width, which ascends with r.  The powers are slices of
    :func:`_sanity_table`, or past it the scalar 1.0 of r = 1.
    """
    table, runs = _sanity_table(step), {}
    for j, r in enumerate(_SANITY_RADII):
        runs.setdefault(size if r == 1.0 else min(size, _underflow_index(r, step)), []).append(j)
    plan = []
    for width, js in runs.items():
        lo, hi = js[0], js[-1] + 1
        # past every cut only r = 1 is left
        plan.append((width, table[lo:hi, :width] if width <= table.shape[1] else 1.0, lo, hi))
    return tuple(plan)


def _scaled_block(cs, p):
    """The equal-length coefficient rows ``cs`` as one 2-D block (one row is
    a view, not a copy), its ``abs``, and ``(row, e)`` for each rescaled row.

    The sums form ``|f|^p`` directly.  Where that could leave double range,
    the row is ``c / 2**e``, with ``2**(e-1) <= max |c_k| < 2**e``, an exact
    rescaling whose means are scaled back by ``2**e``.
    """
    block = cs[0][np.newaxis] if len(cs) == 1 else np.stack(cs)
    mag = np.abs(block)
    bits, scaled = block.shape[1].bit_length(), []
    for i, peak in enumerate(np.maximum.reduce(mag, axis=1).tolist()):
        e = math.frexp(peak)[1]
        if p * max(e + bits, -e) > 1000:
            if not block.flags.writeable:  # a float series's own coefficients
                block = block.copy()
            block[i] = np.ldexp(block[i].real, -e) + 1j * np.ldexp(block[i].imag, -e)
            mag[i] = np.abs(block[i])
            scaled.append((i, e))
    return block, mag, scaled


def _means(series, p, mode, num_points):
    """The p-th integral means of each series on the circles |z| = r of the
    radius grid ``_SANITY_RADII`` (0.5, 0.75, 1), in a resolved ``mode``
    that all of them share: one list of three means per series.

    Series of one length form one block (:func:`_scaled_block`), and each
    row width of its radius plan (:func:`_plan`) multiplies the block by
    that width's powers, into zero-filled buffers of as many series as
    ``_BLOCK_ELEMS`` entries hold, and at least one (:func:`_fit`).  The
    trapezoid's buffers hold the width's radii at m nodes a row, and get
    one transform, ``abs``, ``**p`` and row sum each; the coefficient sums'
    hold every radius at full length (the terms a cut drops are 0.0), and
    get one row sum each.  Each step works elementwise or per contiguous
    row, so every mean is the one-series mean bit for bit.  The work runs
    without NumPy's overflow warnings, and the first series with a mean
    that is not finite, or nonzero with an r = 1 mean of 0.0 (``|f|^p``
    underflowed at a large p), raises ValueError.
    """
    means = _quietly(_unchecked_means, series, p, mode, num_points)
    for f, row in zip(series, means):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"an integral mean of the order-{f.order} series is not finite "
                             "in double precision")
        # ||f||_p >= max |c_k|, so the r = 1 mean of a nonzero series is 0.0
        # only where |f|^p underflowed
        if row[-1] == 0.0 and not f.is_zero:
            raise ValueError(f"an integral mean of the order-{f.order} series underflows to 0.0 "
                             f"in double precision at p = {p}")
    return means


def _unchecked_means(series, p, mode, num_points):
    """:func:`_means` before its checks: a mean beyond double range reads inf."""
    by_size = {}
    for i, f in enumerate(series):
        by_size.setdefault(f.order, []).append(i)
    means, q = [None] * len(series), 1.0 / p
    for idx in by_size.values():
        block, mag, scaled = _scaled_block([_complex_coeffs(series[i]) for i in idx], p)
        sums = np.empty((len(idx), len(_SANITY_RADII)))
        if mode == "trapezoid":
            size = block.shape[1]
            for width, powers, lo, hi in _plan(size, 1):
                m = _node_count(width - 1, p, num_points)
                step = _fit((hi - lo) * m)
                for a in range(0, len(idx), step):
                    chunk = block[a:a + step]
                    buf = np.zeros((len(chunk), hi - lo, m), complex)
                    np.multiply(chunk[:, np.newaxis, :width], powers, out=buf[:, :, :width])
                    # rebinding frees the complex buffer before the next one is made
                    buf = np.abs(_transform(buf))
                    if p != 1:  # x ** 1.0 is x
                        buf **= p
                    # a contiguous row sum is the same pairwise sum as the 1-D one
                    sums[a:a + step, lo:hi] = np.add.reduce(buf, axis=2) / m
        else:
            if mode == "power-trick":
                gs = []
                for k in range(len(idx)):
                    g = c = block[k]
                    for _ in range(int(p) // 2 - 1):
                        g = np.convolve(g, c)
                    gs.append(g)
                mag = np.abs(gs[0][np.newaxis] if len(gs) == 1 else np.stack(gs))
            mag *= mag
            size = mag.shape[1]
            step = _fit(len(_SANITY_RADII) * size)
            for a in range(0, len(idx), step):
                chunk = mag[a:a + step]
                prods = np.zeros((len(chunk), len(_SANITY_RADII), size))
                for width, powers, lo, hi in _plan(size, 2.0):
                    np.multiply(chunk[:, np.newaxis, :width], powers,
                                out=prods[:, lo:hi, :width])
                sums[a:a + step] = np.add.reduce(prods, axis=2)
        for i, row in zip(idx, sums.tolist()):
            means[i] = [math.sqrt(s) for s in row] if mode == "parseval" else [s**q for s in row]
        for k, e in scaled:
            try:
                means[idx[k]] = [math.ldexp(x, e) for x in means[idx[k]]]
            except OverflowError:
                means[idx[k]] = [math.inf]
    return means


def _fit(entries):
    """How many items of ``entries`` entries one buffer takes: as many as
    ``_BLOCK_ELEMS`` entries hold, and at least one."""
    return max(1, _BLOCK_ELEMS // entries)


def _blocks(draws):
    """The draws, tuples holding their series, in consecutive lists whose
    series hold at most ``_BLOCK_ELEMS`` coefficients, or one larger draw:
    a battery suite holds one block at a time, its rows and per-sample scalars."""
    block, held = [], 0
    for draw in draws:
        size = sum(x.order + 1 for x in draw if isinstance(x, TaylorSeries))
        if block and held + size > _BLOCK_ELEMS:
            yield block
            block, held = [], 0
        block.append(draw)
        held += size
    if block:
        yield block


def hp_norm(f, p, cfg=None):
    """The H^p norm of the stored polynomial.

    Returns the boundary integral mean, after asserting that the means on
    the radius grid (0.5, 0.75, 1.0) are nondecreasing; a violation means
    the quadrature itself is broken and raises RuntimeError.  A mean
    beyond double range raises ValueError, and so does a nonzero series
    whose norm would read 0.0 because ``|f|^p`` underflows (possible from
    p of about 1075 on); a mean inside the disk may underflow to 0.0.
    """
    return _hp_norms([f], p, cfg)[0]


def _hp_norms(series, p, cfg=None):
    """:func:`hp_norm` of each series, from one :func:`_means` call per
    resolved mode."""
    cfg = cfg if cfg is not None else QuadratureConfig()
    _check_exponent(p)
    by_mode = {}
    for i, f in enumerate(series):
        by_mode.setdefault(_resolve_mode(p, cfg.mode, f.order, cfg.num_points), []).append(i)
    norms = [0.0] * len(series)
    for mode, idx in by_mode.items():
        for i, means in zip(idx, _means([series[i] for i in idx], p, mode, cfg.num_points)):
            norms[i] = _boundary_mean(means)
    return norms


def _boundary_mean(means):
    """The last of the means on the radius grid, after asserting that they
    are nondecreasing."""
    for lo, hi in zip(means, means[1:]):
        if lo > hi + 1e-12 * max(1.0, hi):
            raise RuntimeError(
                f"integral means {means} are not nondecreasing in the radius"
            )
    return means[-1]


def _ladder(f, n):
    """``[f, derivative(f, 1), ..., derivative(f, d)]``, d = ``min(n, order + 1)``:
    each rung one direct derivative of f, the one form in which every
    derivative norm reads f^(k).  A float series whose factor
    ``perm(order, n)`` exceeds double range is rejected before any rung is
    built, with the error :func:`derivative` gives at n."""
    top = f.order
    _check_perm_range(f, "derivative", top, n)
    # rungs past order + 1 would be zero series too, adding exactly 0.0
    return [derivative(f, k) for k in range(min(n, top + 1) + 1)]


def _heads(ladder):
    """``|f^(k)(0)|`` of each rung of a :func:`_ladder` but the last: a
    tuple, whose full slice is itself, so a draw's heads copy nothing."""
    return tuple(abs(complex(_complex_coeffs(g)[0])) for g in ladder[:-1])


def _sn_sum(heads, tail):
    """:func:`sn_norm` from its heads and the H^p norm of its last
    derivative: the recursion unwound innermost first."""
    total = tail
    for head in reversed(heads):
        total = head + total
    return _finite_sum([total])


def sn_norm(f, params, cfg=None):
    """Recursive derivative-space norm: ``|f(0)| + norm(f', n-1)``, base H^p.

    The recursion is unwound innermost first, so the sum is the recursive
    one.  A float series whose n-th derivative factor ``perm(order, n)``
    exceeds double range is rejected up front with ValueError, as
    :func:`derivative` rejects it.
    """
    rows, finish = _sn_parts([(f, (params.n,))])
    return finish(_hp_norms(rows, params.p, cfg))[0]


def _sn_parts(asks):
    """:func:`sn_norm` of each ask ``(f, depths)`` at each of its depths as
    ``(rows, finish)``: per ask one :func:`_ladder` and one row per distinct
    depth ``min(d, order + 1)``, and the sn_norms, in ask and depth order,
    as a function of the rows' H^p norms.  At depth 0 the sn_norm is the
    H^p norm.  Neither depends on p."""
    rows, heads, tails = [], [], []  # per sn_norm its heads and its tail's row
    for f, depths in asks:
        ladder = _ladder(f, max(depths))
        top, at = _heads(ladder), {}  # the row of each distinct depth
        for d in depths:
            k = min(d, len(top))
            if k not in at:
                at[k] = len(rows)
                rows.append(ladder[k])
            heads.append(top[:k])
            tails.append(at[k])

    def finish(norms):
        return [_sn_sum(h, norms[i]) for h, i in zip(heads, tails)]

    return rows, finish


def _unrolled_parts(f, n):
    """``(sn_norm, sn_norm_unrolled)`` of f at depth n as ``(rows, finish)``,
    as :func:`_sn_parts`: one ladder, whose last rung is the one row."""
    ladder = _ladder(f, n)
    heads = _heads(ladder)
    total = _finite_sum(heads)
    return [ladder[-1]], lambda norms: (_sn_sum(heads, norms[0]),
                                        _finite_sum([total + norms[0]]))


def sn_norm_unrolled(f, params, cfg=None):
    """Unrolled form: ``sum_{k<n} |f^(k)(0)| + hp_norm(f^(n))``.

    Agrees with :func:`sn_norm` up to float summation order.
    """
    rows, finish = _unrolled_parts(f, params.n)
    return finish(_hp_norms(rows, params.p, cfg))[1]


def derivative_sum_norm(f, params, cfg=None):
    """Equivalent norm: sum of the H^p norms of the first n+1 derivatives,
    the rungs of one :func:`_ladder`, from one batch of means."""
    return _finite_sum(_hp_norms(_ladder(f, params.n), params.p, cfg))


def sup_sum_norm(f, params, cfg=None):
    """Equivalent norm: boundary sups of the first n derivatives plus the
    H^p norm of the n-th, the rungs of one :func:`_ladder`."""
    ladder = _ladder(f, params.n)
    tail = hp_norm(ladder[-1], params.p, cfg)
    return _finite_sum([_sups(ladder, cfg) + tail])


def _sups(ladder, cfg):
    """The sum of the boundary sups of a ladder's rungs but the last, from
    one :func:`_sup_walks` call."""
    return _finite_sum(lo for lo, _ in _sup_walks(ladder[:-1], cfg))


def _family_parts(f, params, cfg):
    """:func:`_norm_family` as ``(rows, finish)``, as :func:`_sn_parts`: the
    rows are the ladder's rungs, and the sups are taken here, so ``finish``
    holds no derivative."""
    ladder = _ladder(f, params.n)
    heads, sups = _heads(ladder), _sups(ladder, cfg)

    def finish(norms):
        return (norms[0], _sn_sum(heads, norms[-1]), _finite_sum(norms),
                _finite_sum([sups + norms[-1]]))

    return ladder, finish


def _norm_family(f, params, cfg):
    """``(hp_norm, sn_norm, derivative_sum_norm, sup_sum_norm)`` of f, each
    equal to its public call bit for bit, from one :func:`_ladder` and one
    :func:`_hp_norms` batch of its rungs: the first rung's norm is the H^p
    norm and the last's the tail that the other three share."""
    rows, finish = _family_parts(f, params, cfg)
    return finish(_hp_norms(rows, params.p, cfg))


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
    lo, grid = _sup_walks([f], cfg)[0]
    return lo, _sup_upper(f, cfg, grid)


def _sup_upper(f, cfg, grid):
    """``hi`` of :func:`sup_bracket` from the grid max: ``grid / sqrt(cos(pi N / m))``."""
    return _finite_sum([grid * _sup_slack(f, cfg)])


def _sup_walks(series, cfg):
    """``(lo, grid max)`` of :func:`sup_bracket` for each series, from one
    :func:`_grid_peaks` call: ``lo`` walks from the best node j."""
    cfg, out = cfg if cfg is not None else QuadratureConfig(), []
    for f, (grid, j, m) in zip(series, _grid_peaks(series, cfg.num_points)):
        # a constant's grid max is its sup and its hi: no walk to round past it
        peak = (_quietly(_peak_walk, _complex_coeffs(f), 2 * math.pi * j / m, 2 * math.pi / m)
                if f.order and not f.is_zero else grid)
        out.append((max(grid, peak), grid))
    return out


def sup_norm(f, cfg=None):
    """Boundary sup of |f|, from below: the lower end of :func:`sup_bracket`,
    which stays finite where only the upper end leaves double range."""
    return _sup_walks([f], cfg)[0][0]


def hardy_sum(f):
    """``sum |c_k| / (k+1)``: the coefficient side of the classical H^1
    coefficient inequality (bounded by pi times the H^1 norm)."""
    c = _complex_coeffs(f)
    # np.hypot is the abs of Python complex; np.abs rounds otherwise
    return _finite_sum((_quietly(np.hypot, c.real, c.imag) / np.arange(1, c.size + 1)).tolist())
