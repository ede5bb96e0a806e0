"""Dense truncated Taylor series and their coefficient algebra.

Everything else in the package works on these objects: a series is a plain
polynomial ``c_0 + c_1 z + ... + c_N z**N`` stored densely.  Truncating an
infinite Taylor expansion down to one of these is the caller's modelling
decision; the arithmetic here is exact polynomial arithmetic.

Two coefficient modes exist.  The default is double-precision complex,
stored as one read-only, finite ``complex128`` array (a result that
overflows raises ValueError); ``coeffs`` builds a tuple of Python
``complex`` from it.  If every coefficient passed in is
an ``int``, a ``Fraction``, or a ``RationalComplex``, the series is kept in
exact form instead, which makes the coefficient-level operator identities
testable with zero tolerance.  Any operation that mixes the two modes
promotes to float.  The storage of both modes is private to this module:
other modules read ``coeffs``, ``order`` and ``exact`` and build series
through the functions here, so a change of storage stays inside it.

Every operator that moves and reweights coefficients (derivative, shift,
antiderivatives, the combined operator, heads) goes through one map,
:func:`_reweighted`, which puts ``c_k * w / d`` at degree ``k + offset``.
In float mode its rounding is fixed per call: ``c * w`` without divisors,
``c / d`` without weights, ``c * (w / d)`` with both, and a plain copy with
neither.  Float results are bit-identical to Python ``complex`` arithmetic,
signed zeros included: where NumPy rounds otherwise (``complex / real``,
``complex * complex``) the parts follow Python's formulas.  Its integer
tables depend only on the shape of the call and are built once per shape
(:func:`_tables`).

Exact storage follows FLINT's ``fmpq_poly`` layout: a tuple of Python-int
real numerators, a tuple of imaginary numerators, and one positive int
denominator, so coefficient k is ``(re[k] + 1j * im[k]) / den``.  The form
is canonical, ``gcd(den, *re, *im) == 1``: the zero series has denominator
1, and two exact series are equal exactly when their denominators agree
and their numerator tuples agree once trailing zeros are trimmed.  Sums go
through one ``lcm`` of the two denominators, the product through Kronecker
substitution (each numerator vector packed into one big int; a
one-coefficient factor takes the scalar product instead), and every
result is reduced back to canonical form.  ``RationalComplex`` is the value
type of exact mode, with no arithmetic of its own: ``coeffs`` of an exact
series is a tuple of them, built on each access, and exact ``evaluate``
returns one.  A RationalComplex meeting a float series (as a ``scale``
factor or an ``evaluate`` point) promotes through ``complex()``.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
from fractions import Fraction
from itertools import chain, repeat, zip_longest
from pathlib import Path

import numpy as np

__all__ = [
    "RationalComplex",
    "TaylorSeries",
    "add",
    "subtract",
    "scale",
    "multiply",
    "derivative",
    "evaluate",
    "zero",
    "monomial",
    "to_dict",
    "from_dict",
    "dumps",
    "loads",
    "save_series",
    "load_series",
]


def _is_integral(value):
    """True for an integer-valued number (2 or 2.0), False for 1.7, inf,
    None or "2"."""
    if type(value) is int or isinstance(value, numbers.Integral):
        return True
    return isinstance(value, numbers.Real) and float(value).is_integer()


def _check_count(value, what, minimum=0):
    """``value`` as an int; ValueError unless it is an integer >= ``minimum``
    (a bool is not a count)."""
    if isinstance(value, bool) or not _is_integral(value) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class RationalComplex:
    """Exact complex value with ``Fraction`` parts and no arithmetic (that
    runs on exact series); ``==`` is exact against int, Fraction and
    RationalComplex, and goes through ``complex()`` against float and complex."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = _gaussian(other)
        if o is not None:
            return _gaussian(self) == o
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"


def _gaussian(value):
    """An exact scalar as ``(re, im, den)`` Gaussian-integer numerators over
    a positive denominator, in lowest terms, so equal scalars give equal
    triples; None when the value is inexact."""
    if isinstance(value, RationalComplex):
        re, im = value.re, value.im
        den = math.lcm(re.denominator, im.denominator)
        return (re.numerator * (den // re.denominator),
                im.numerator * (den // im.denominator), den)
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    return None


class TaylorSeries:
    """A polynomial ``c_0 + c_1 z + ... + c_N z**N``, immutable, densely stored.

    ``order`` is N and ``len(coeffs) == order + 1`` always, trailing zeros
    included; the canonical zero series is the single coefficient ``[0]``.
    Equality is polynomial equality: trailing zero coefficients are ignored.
    """

    # float mode: ``_c`` is a read-only complex128 array; exact mode: ``_c``
    # is ``(re, im, den)``.  Two slots keep the many short-lived float
    # series small.
    __slots__ = ("exact", "_c")

    def __init__(self, coeffs):
        # a float or complex array converts in one call, without the scan
        arr = type(coeffs) is np.ndarray and coeffs.ndim == 1 and coeffs.dtype.kind in "fc"
        items = coeffs if arr else list(coeffs)
        if not len(items):
            raise ValueError("a series needs at least the degree-0 coefficient")
        self.exact = not arr and all(
            isinstance(c, (RationalComplex, int, Fraction)) for c in items)
        if not self.exact:
            self._c = _finite(np.array(items, complex) if arr else list(map(complex, items)))
            return
        parts = [c.re if isinstance(c, RationalComplex) else c for c in items]
        parts += [c.im if isinstance(c, RationalComplex) else 0 for c in items]
        dens = [x.denominator for x in parts]
        # the Fractions are reduced, so numerators over the lcm of their
        # denominators are already canonical
        den = math.lcm(*dens)
        nums = [x.numerator * (den // d) for x, d in zip(parts, dens)]
        self._c = (tuple(nums[: len(items)]), tuple(nums[len(items):]), den)

    @property
    def coeffs(self):
        """The coefficients: ``complex`` in float mode, ``RationalComplex``
        in exact mode (built on each access in both)."""
        if not self.exact:
            return tuple(self._c.tolist())
        re, im, d = self._c
        return tuple(
            RationalComplex(Fraction(r, d), Fraction(i, d)) for r, i in zip(re, im)
        )

    @property
    def order(self):
        return len(self._c[0] if self.exact else self._c) - 1

    @property
    def is_zero(self):
        if self.exact:
            return not any(self._c[0]) and not any(self._c[1])
        return not np.count_nonzero(self._c)

    def __eq__(self, other):
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        if self.exact and other.exact:
            return self._c[2] == other._c[2] and _trimmed(self) == _trimmed(other)
        return not np.count_nonzero(np.not_equal(*_aligned(self, other)))

    def __add__(self, other):
        if isinstance(other, TaylorSeries):
            return add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TaylorSeries):
            return subtract(self, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TaylorSeries):
            return multiply(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self):
        return scale(self, -1)

    def __repr__(self):
        return f"TaylorSeries({list(self.coeffs)!r})"


def _exact_series(re, im, den):
    """Exact series with numerators ``re``, ``im`` over ``den > 0``, reduced
    to canonical form."""
    g = math.gcd(den, *re, *im)
    if g != 1:
        re = [x // g for x in re]
        im = [x // g for x in im]
        den //= g
    f = object.__new__(TaylorSeries)
    f.exact = True
    f._c = (tuple(re), tuple(im), den)
    return f


@np.errstate(over="ignore", invalid="ignore")
def _quietly(fn, *args):
    """``fn(*args)`` without NumPy's overflow warnings: a float result that
    overflowed then fails the finite check of its series with ValueError."""
    return fn(*args)


def _finite(c):
    """c, a fresh complex128 array or a list of Python complex, as a
    read-only array; ValueError unless every entry is finite.  Every float
    series that arithmetic could push out of double range passes this one
    check (on a short list, cmath's is cheaper)."""
    if type(c) is list:
        finite, c = all(map(cmath.isfinite, c)), np.array(c, dtype=complex)
    else:
        finite = np.count_nonzero(np.isfinite(c)) == c.size
    if not finite:
        raise ValueError(f"a coefficient of the order-{c.size - 1} series is not finite")
    c.setflags(write=False)
    return c


def _float_series(c, scan=True):
    """Float series over ``c`` as :func:`_finite` takes it; ``scan=False``
    skips the finite check, for a result that cannot overflow."""
    f = object.__new__(TaylorSeries)
    f.exact = False
    if scan:
        f._c = _finite(c)
    else:
        f._c = c = np.array(c, dtype=complex) if type(c) is list else c
        c.setflags(write=False)
    return f


def _perm_ints(ks, m):
    """``perm(k, m)`` for k in the range ks, as Python ints."""
    return ks if m == 1 else [math.perm(k, m) for k in ks]


def _perm_floats(ks, m):
    """``float(perm(k, m))`` for k in the range ks: a product of m rows of
    integers, exact below 2**53, else each exact int converted."""
    if ks and math.perm(ks[-1], m) >= 2**53:
        return np.array([float(w) for w in _perm_ints(ks, m)])
    w = k = np.arange(ks.start, ks.stop, dtype=float)
    for i in range(1, m):
        w = w * (k - i)
    return w


# up to this many coefficients a loop over Python complex beats the fixed
# cost of the array kernels: 3 us against 6 us for a reweighting at order 8
_PY_LOOP_LEN = 48

# :func:`_tables` keeps this many shapes; the default order-256 battery at
# seed 7 asks for 1469.  An exact entry grows with the square of its degree
# (200 shapes at degree 1000 held 45 MB), so exact tables of more than
# _TABLE_LEN coefficients are built per call: kept ones take at most 22 KB
# for n <= 5, a full cache about 45 MB
_TABLE_SHAPES = 2048
_TABLE_LEN = 257


@functools.lru_cache(maxsize=_TABLE_SHAPES)
def _tables(weights, divisors, exact):
    """The tables of one :func:`_reweighted` shape, built once per shape:
    tuples, since every call of that shape shares them.

    Exact: ``(folded, common)``, where ``common`` is the lcm of the
    divisors (1 without them) and ``folded[i] = w_i * (common // d_i)``.
    Float: the row the short loop applies, the quotients ``w_i / d_i``
    when both are given, else the one given as ints.
    """
    w = None if weights is None else _perm_ints(*weights)
    d = None if divisors is None else _perm_ints(*divisors)
    if not exact:
        if w is not None and d is not None:
            return tuple([a / b for a, b in zip(w, d)])
        return tuple(w if d is None else d)
    if d is None:
        return tuple(w), 1
    common = math.lcm(*d)
    return tuple([a * (common // b) for a, b in zip(repeat(1) if w is None else w, d)]), common


def _reweighted(f, weights=None, divisors=None, offset=0, start=None, stop=None):
    """The series with ``c_k * w_i / d_i`` at degree ``k + offset`` for the
    source degrees ``start <= k < stop``, where ``i = k - start``, and zeros
    below degree ``start + offset``.

    ``weights`` and ``divisors`` are pairs ``(ks, m)`` meaning
    ``perm(ks[i], m)``; one left out counts as all ones.  ``start`` defaults
    to ``max(0, -offset)`` and ``stop`` to the end of f; ``start + offset``
    must not be negative.  Exact mode puts the divisors over one ``lcm``;
    float mode rounds as the module docstring states.  Without weights a
    float result is a copy of finite values or their quotients by integers
    d >= 1, so it skips the finite check.
    """
    if start is None:
        start = max(0, -offset)
    pad = start + offset
    if not f.exact:
        c = f._c[start:stop]
        if c.size <= _PY_LOOP_LEN:
            # the same rounding on Python complex, which beats the array
            # kernels' fixed cost on short series and overflows without a warning
            out = c.tolist()
            if weights is not None or divisors is not None:
                only = weights if divisors is None else divisors if weights is None else None
                # a single m = 1 row is its range: nothing to build
                row = only[0] if only and only[1] == 1 else _tables(weights, divisors, False)
                if divisors is None:
                    out = [x * a for x, a in zip(out, row)]
                elif weights is None:
                    out = [x / b for x, b in zip(out, row)]
                else:
                    out = [x * q for x, q in zip(out, row)]
            return _float_series([0j] * pad + out, scan=weights is not None)
        out = c
        w = None if weights is None else _perm_floats(*weights)
        d = None if divisors is None else _perm_floats(*divisors)
        if w is None and d is not None:
            # Python's complex / real, which cannot overflow here; NumPy's
            # multiplies by a reciprocal
            out = np.empty_like(c)
            out.real = (c.real + c.imag * 0.0) / d
            out.imag = (c.imag - c.real * 0.0) / d
        elif w is not None:
            if d is not None:
                # int / int rounds once, as the quotient of exact floats does
                w = w / d if max(w[-1], d[-1]) < 2**53 else np.array(
                    [a / b for a, b in zip(_perm_ints(*weights), _perm_ints(*divisors))])
            out = _quietly(np.multiply, c, w)
        if pad or out is c:
            out = np.concatenate((np.zeros(pad, dtype=complex), out))
        return _float_series(out, scan=weights is not None)
    re, im, den = f._c
    re, im = re[start:stop], im[start:stop]
    if divisors is None and (weights is None or weights[1] == 1):
        # a weights-only m = 1 row is its range: nothing to build
        weights = None if weights is None else weights[0]
    else:
        tables = _tables if len(re) <= _TABLE_LEN else _tables.__wrapped__
        weights, common = tables(weights, divisors, True)
        den *= common
    if weights is not None:
        re = tuple([x * w for x, w in zip(re, weights)])
        im = tuple([x * w for x, w in zip(im, weights)])
    pad = (0,) * pad
    return _exact_series(pad + re, pad + im, den)


def _trimmed(f):
    """Exact numerators without trailing zero coefficients (one kept)."""
    re, im, _ = f._c
    k = len(re)
    while k > 1 and not re[k - 1] and not im[k - 1]:
        k -= 1
    return re[:k], im[:k]


def _complex_coeffs(f):
    """The coefficients as a complex128 array: a float series's own
    read-only one, or the exact values rounded to double; ValueError when
    an exact value is beyond double range."""
    if not f.exact:
        return f._c
    re, im, d = f._c
    try:
        return np.array([complex(r / d, i / d) for r, i in zip(re, im)])
    except OverflowError:
        raise ValueError(f"a coefficient of the order-{f.order} exact series is "
                         "beyond double range") from None


def zero(exact=False):
    """The canonical zero series in the requested coefficient mode."""
    return _exact_series((0,), (0,), 1) if exact else _float_series(np.zeros(1, dtype=complex))


def monomial(degree, coeff=1):
    """The series ``coeff * z**degree``; coefficient mode follows ``coeff``."""
    return TaylorSeries([0] * _check_count(degree, "degree") + [coeff])


def _aligned(f, g):
    """The complex coefficient arrays of f and g, the shorter padded with
    +0j (``-0.0 + 0.0`` is ``0.0``: the padding signs a zero sum)."""
    a, b = _complex_coeffs(f), _complex_coeffs(g)
    if a.size == b.size:
        return a, b
    size = max(a.size, b.size)
    return [c if c.size == size else np.concatenate((c, np.zeros(size - c.size, complex)))
            for c in (a, b)]


def _exact_sum(f, g, sign):
    """``f + sign * g`` for exact f and g, over the lcm of their denominators."""
    (fr, fi, fd), (gr, gi, gd) = f._c, g._c
    den = math.lcm(fd, gd)
    a, b = den // fd, sign * (den // gd)
    re = [x * a + y * b for x, y in zip_longest(fr, gr, fillvalue=0)]
    im = [x * a + y * b for x, y in zip_longest(fi, gi, fillvalue=0)]
    return _exact_series(re, im, den)


def add(f, g):
    """Coefficient-wise sum; output order is max(order(f), order(g))."""
    if f.exact and g.exact:
        return _exact_sum(f, g, 1)
    return _float_series(_quietly(np.add, *_aligned(f, g)))


def subtract(f, g):
    """Coefficient-wise difference; output order is max(order(f), order(g))."""
    if f.exact and g.exact:
        return _exact_sum(f, g, -1)
    return _float_series(_quietly(np.subtract, *_aligned(f, g)))


def scale(f, factor):
    """Multiply every coefficient by a scalar."""
    s = _gaussian(factor) if f.exact else None
    if s is None:
        if not isinstance(factor, (numbers.Complex, RationalComplex)):
            raise TypeError(f"cannot scale a series by {factor!r}")
        z, c = complex(factor), _complex_coeffs(f)
        # Python's complex product; NumPy's complex multiply rounds differently
        re, im = _quietly(lambda: (c.real * z.real - c.imag * z.imag,
                                   c.real * z.imag + c.imag * z.real))
        out = re.astype(complex)
        out.imag = im
        return _float_series(out)
    (sr, si, sd), (fr, fi, fd) = s, f._c
    return _exact_scaled(fr, fi, sr, si, fd * sd)


def _exact_scaled(fr, fi, sr, si, den):
    """Exact series ``(fr + i fi) * (sr + i si)`` over ``den``: numerators
    times one Gaussian integer."""
    re = [x * sr - y * si for x, y in zip(fr, fi)]
    im = [x * si + y * sr for x, y in zip(fr, fi)]
    return _exact_series(re, im, den)


def _pack(values, width, bias):
    """``sum values[k] * 2**(8*width*k)`` for signed ``|values[k]| < bias``,
    where ``bias = 2**(8*width - 1)``."""
    raw = b"".join((v + bias).to_bytes(width, "little") for v in values)
    return int.from_bytes(raw, "little") - int.from_bytes(
        bias.to_bytes(width, "little") * len(values), "little"
    )


def _unpack(value, count, width, bias):
    """Inverse of :func:`_pack` for ``count`` slots."""
    raw = (value + int.from_bytes(bias.to_bytes(width, "little") * count, "little")
           ).to_bytes(width * count, "little")
    return [int.from_bytes(raw[k:k + width], "little") - bias
            for k in range(0, width * count, width)]


def _kronecker_product(fr, fi, gr, gi):
    """Real and imaginary numerators of ``(fr + i fi) * (gr + i gi)``.

    Kronecker substitution: each integer vector is evaluated at ``2**s`` as
    one big int, with ``s`` wide enough that every output coefficient fits
    a signed slot; the complex product takes three big-int products
    (Karatsuba's trick), and the two outputs are read back slot by slot.
    """
    mf = max(map(abs, fr)) + max(map(abs, fi))
    mg = max(map(abs, gr)) + max(map(abs, gi))
    bound = max(min(len(fr), len(gr)) * mf * mg, mf, mg)
    width = (bound.bit_length() + 8) // 8
    bias = 1 << (8 * width - 1)
    pr, pi = _pack(fr, width, bias), _pack(fi, width, bias)
    qr, qi = _pack(gr, width, bias), _pack(gi, width, bias)
    rr, ii = pr * qr, pi * qi
    mixed = (pr + pi) * (qr + qi)
    count = len(fr) + len(gr) - 1
    return (_unpack(rr - ii, count, width, bias),
            _unpack(mixed - rr - ii, count, width, bias))


# float products go through the FFT once both factors have more
# coefficients than this; below it ``np.convolve`` is faster
_FFT_PRODUCT_LEN = 384


def _smooth_size(n):
    """The least 2*3*5-smooth integer >= n (n >= 1): an FFT length pocketfft
    handles without falling back to Bluestein's algorithm."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def multiply(f, g):
    """Cauchy product, of order ``f.order + g.order``.

    The product is exact for polynomials.  Exact mode multiplies by
    Kronecker substitution, or by a one-coefficient factor as ``scale``
    does.  Float mode goes through ``np.convolve``, or, once both factors
    have more than ``_FFT_PRODUCT_LEN`` coefficients, through an FFT of
    2*3*5-smooth length; the FFT's rounding error is relative to the
    largest output coefficient, not to each one.
    """
    if f.exact and g.exact:
        if g.order and not f.order:
            f, g = g, f
        (fr, fi, fd), (gr, gi, gd) = f._c, g._c
        if not g.order:  # a constant factor needs no Kronecker packing
            return _exact_scaled(fr, fi, gr[0], gi[0], fd * gd)
        return _exact_series(*_kronecker_product(fr, fi, gr, gi), fd * gd)
    fa, ga = _complex_coeffs(f), _complex_coeffs(g)
    if min(fa.size, ga.size) > _FFT_PRODUCT_LEN:
        full = fa.size + ga.size - 1
        m = _smooth_size(full)
        conv = _quietly(lambda: np.fft.ifft(np.fft.fft(fa, m) * np.fft.fft(ga, m)))
        return _float_series(conv[:full])
    return _float_series(np.convolve(fa, ga))  # np.convolve overflows without warning


def _check_perm_range(f, what, top, m):
    """Raise ValueError when f is a float series and ``perm(top, m)``, the
    largest factor of ``what`` applied to f, exceeds double range."""
    if f.exact:
        return
    try:
        float(math.perm(top, m))
    except OverflowError:
        raise ValueError(
            f"{what} of an order-{f.order} float series needs the factor "
            f"perm({top}, {m}), which exceeds double range"
        ) from None


def derivative(f, m=1):
    """The m-th formal derivative; degree drops by m, floored at the zero series.

    Coefficient k of the result is ``c_{k+m} * perm(k+m, m)``.  In float
    mode a factor beyond double range raises ValueError, and so does a
    product that overflows.
    """
    return _derivative(f, _check_count(m, "derivative count"))


def _derivative(f, m):
    """:func:`derivative` of a count m already checked."""
    if m == 0:
        return f
    if m > f.order:
        return zero(exact=f.exact)
    _check_perm_range(f, f"derivative {m}", f.order, m)
    return _reweighted(f, (range(m, f.order + 1), m), offset=-m)


def _horner(cs, z):
    """``sum cs[k] * z**k`` by Horner's rule, from the top coefficient down."""
    it = reversed(cs)
    acc = next(it)
    for c in it:
        acc = acc * z + c
    return acc


def evaluate(f, z):
    """Horner evaluation of the stored polynomial at z.

    Exact coefficients with an exact z give an exact ``RationalComplex``,
    computed by Gaussian-integer Horner with one final division; any float
    or complex operand degrades the result to complex, and a complex value
    that is not finite (an infinite or NaN point, or an overflow) raises
    ValueError.
    """
    w = _gaussian(z) if f.exact else None
    if w is None:  # an exact point meets float coefficients as complex()
        z = complex(z) if isinstance(z, RationalComplex) else z
        value = _horner(_complex_coeffs(f).tolist(), z)
        if not cmath.isfinite(value):
            raise ValueError(f"the order-{f.order} series at z={z!r} has no finite value")
        return value
    (zr, zi, zd), (re, im, fd) = w, f._c
    ar, ai, power = re[-1], im[-1], 1
    for k in range(len(re) - 2, -1, -1):
        power *= zd
        ar, ai = ar * zr - ai * zi + re[k] * power, ar * zi + ai * zr + im[k] * power
    den = fd * power
    return RationalComplex(Fraction(ar, den), Fraction(ai, den))


def _json_numbers(rows, width, what):
    """``rows``, a JSON array of ``width``-number arrays, as a float array of
    shape ``(len(rows), width)``: the one number reader of every input file.
    Each number must be an int or a float, not a bool or a string, finite and
    in double range; types are checked once per distinct type, not per row."""
    ok = isinstance(rows, (list, tuple)) and set(map(type, rows)) <= {list, tuple}
    ok = ok and set(map(len, rows)) <= {width}
    kinds = set(map(type, chain.from_iterable(rows))) if ok else {str}
    if bool in kinds or not all(issubclass(t, (int, float)) for t in kinds):
        raise ValueError(f"{what} must be {width} finite real numbers: {rows!r:.80}")
    try:
        out = np.fromiter(chain.from_iterable(rows), float, width * len(rows))
    except OverflowError:  # an int beyond double range
        out = np.array([math.inf])
    if not np.isfinite(out).all():
        raise ValueError(f"{what} is not finite real numbers in double range")
    return out.reshape(-1, width)


def to_dict(f):
    """JSON-ready form ``{"order": N, "coeffs": [[re, im], ...]}``, all finite."""
    return {"order": f.order, "coeffs": _complex_coeffs(f).view(float).reshape(-1, 2).tolist()}


def from_dict(data):
    """Inverse of :func:`to_dict`; malformed input, including a NaN or
    infinite coefficient or a part that is not a number, raises ValueError."""
    if not isinstance(data, dict) or "order" not in data or "coeffs" not in data:
        raise ValueError("series object needs 'order' and 'coeffs' fields")
    pairs = data["coeffs"]
    if not isinstance(pairs, list) or not pairs:
        raise ValueError("'coeffs' must be a non-empty list of [re, im] pairs")
    order = _check_count(data["order"], "order")
    if order != len(pairs) - 1:
        raise ValueError(f"order {order} does not match {len(pairs)} coefficients")
    return _float_series(_json_numbers(pairs, 2, "a coefficient").view(complex).ravel())


def dumps(f):
    """Serialize to a JSON string; floats round-trip exactly via repr."""
    return json.dumps(to_dict(f))


def loads(text):
    """Parse a series from a JSON string."""
    return from_dict(json.loads(text))


def save_series(f, path):
    Path(path).write_text(dumps(f) + "\n", encoding="utf-8")


def load_series(path):
    return loads(Path(path).read_text(encoding="utf-8"))
