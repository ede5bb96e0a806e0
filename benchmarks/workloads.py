"""The four benchmark workloads.

Each workload is built from a seed in set-up and then runs a fixed *pass*
of calls into hardylab's public functions, timing each one through a
:class:`spans.Recorder`.  After each pass, outside the timed region, every
output is checked against what its construction implies or against an
oracle computed directly with NumPy/SciPy or plain integer arithmetic.

- ``battery``: ``hardylab verify --suite all`` through ``cli.main``.
- ``float-highorder``: float series kernels at orders 4096 to 16384.
- ``membership-small``: many small membership, inner-function and CLI calls.
- ``exact-ops``: exact Gaussian-rational series at degrees 64 to 256.

The op count of every pass is fixed; the seed only changes the inputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

import hardylab
from hardylab import cli, report, verify
from hardylab.inner import InnerFunction
from hardylab.membership import SubspaceSpec
from hardylab.norms import SpaceParams

# relative tolerances of the float oracles
COEFF_RTOL = 1e-9        # coefficient arrays, relative to their largest entry
EXACT_NORM_RTOL = 1e-9   # p = 2 and p = 4: both sides are exact up to rounding
QUAD_NORM_RTOL = 1e-4    # other p: |f|^p is not a trigonometric polynomial
SUP_RTOL = 1e-7          # sup norm against a densely sampled, polished maximum
SAMPLED_RTOL = 1e-12     # sup norm against the max of hardylab's own sample grid
DEFECT_TOL = 1e-9        # boundary |G| - 1 of an inner function

# the default battery (order 256) is one ~30 s pass whose time moved by
# ~20% between runs on a 2-core shared host; at order 8 a pass takes ~4 s
BATTERY_ARGS = ("--order", "8", "--points", "256", "--samples", "20")
FLOAT_ORDERS = (4096, 8192, 16384)
HP_EXPONENTS = (1.5, 2.0, 3.0, 4.0)
SN_PARAMS = SpaceParams(2, 3.0)
FLOAT_N = 2              # operator parameter of the float operators
EXACT_DEGREES = (64, 128, 192, 256)
EXACT_N = (1, 2, 3, 4, 5)
DENOM = 64               # exact coefficients are Gaussian rationals over 64
POINT_DENOM = 8          # exact evaluation point is a Gaussian rational over 8


@dataclass
class Tally:
    """Checked and failed outputs, plus named counters."""

    attempted: int = 0
    failed: int = 0
    counters: dict = field(default_factory=dict)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, ok, counter):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.count(counter)


@dataclass(frozen=True)
class Op:
    """One timed call: span name, callable, arguments, and output check.

    ``note`` is an optional ``(counter, predicate)`` pair: an output that
    fails the predicate bumps the counter without failing the op.
    """

    name: str
    fn: object
    args: tuple
    check: object
    counter: str
    note: tuple = ()


class OpList:
    """A workload whose pass is a fixed list of independently checked ops."""

    def __init__(self, ops):
        self.ops = tuple(ops)

    def run_pass(self, rec):
        results = []
        for op in self.ops:
            try:
                results.append(rec.call(op.name, op.fn, *op.args))
            except Exception as exc:  # a failing op is counted, the run goes on
                results.append(exc)
        return results

    def check(self, results, tally):
        for op, result in zip(self.ops, results):
            try:
                ok = not isinstance(result, Exception) and bool(op.check(result))
            except Exception:  # an output the check cannot read is wrong
                ok = False
            tally.record(ok, op.counter)
            if ok and op.note and not op.note[1](result):
                tally.count(op.note[0])


def run_cli(argv):
    """``cli.main(argv)`` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code
    return code, out.getvalue()


# --------------------------------------------------------------------------
# battery


@contextlib.contextmanager
def battery_spans(rec):
    """Route each suite and the report rendering through ``rec``.

    ``cli.main`` reaches the suites through the ``verify.SUITES`` registry,
    so wrapping its entries times every suite from outside the package.
    """
    suites = dict(verify.SUITES)
    render = report.VerificationReport.render
    for name, fn in suites.items():
        verify.SUITES[name] = functools.partial(rec.call, f"verify.{name}", fn)
    report.VerificationReport.render = lambda self: rec.call("report.render", render, self)
    try:
        yield
    finally:
        verify.SUITES.update(suites)
        report.VerificationReport.render = render


class Battery:
    """``hardylab verify --suite all`` through ``cli.main``: every suite and
    every claim, at a small order so several passes fit in one run.

    Timed ops are the nine suites and the report rendering; the checked
    outputs are the report's claims, each of which must PASS.
    """

    def __init__(self, seed, extra_args=BATTERY_ARGS):
        self.argv = ("verify", "--suite", "all", "--seed", str(seed), *extra_args)
        self.report_sha256 = None

    def run_pass(self, rec):
        with battery_spans(rec):
            try:
                return rec.call("cli.verify", run_cli, self.argv, op=False)
            except Exception as exc:  # counted as a failed claim
                return exc

    def check(self, result, tally):
        if isinstance(result, Exception):
            tally.record(False, "verify.claims_failed")
            return
        code, text = result
        self.report_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        claims = [line for line in text.splitlines() if line and not line.startswith("#")]
        verdicts = [line.split()[1] == "PASS" for line in claims]
        for ok in verdicts:
            tally.record(ok, "verify.claims_failed")
        tally.count("verify.claims", len(claims))
        if not claims:
            tally.record(False, "verify.claims_failed")
        if code != (0 if claims and all(verdicts) else 1):
            tally.failed += 1
            tally.count("cli.exit_mismatch")


def battery(seed, workdir=None, extra_args=BATTERY_ARGS):
    return Battery(seed, extra_args)


def battery_warmup(seed, workdir=None):
    return Battery(seed, ("--suite", "hardy-sum", "--order", "4", "--points", "64"))


# --------------------------------------------------------------------------
# float oracles


def boundary_samples(c, m):
    """``f(exp(2*pi*1j*j/m))`` for j < m, by a forward FFT."""
    buf = np.zeros(m, dtype=complex)
    buf[: c.size] = c
    return np.conj(np.fft.fft(np.conj(buf)))


def falling(k, n):
    """``(k+1)(k+2)...(k+n)``, elementwise: the derivative's coefficient factor."""
    return np.prod([k + j for j in range(1, n + 1)], axis=0)


def series_array(f):
    return np.asarray(f.coeffs, dtype=complex)


class FloatOracle:
    """Direct NumPy/SciPy computations the float outputs are held against."""

    def product(self, c, d):
        size = c.size + d.size - 1
        m = 1 << (size - 1).bit_length()
        return np.fft.ifft(np.fft.fft(c, m) * np.fft.fft(d, m))[:size]

    def hp_norm(self, c, p):
        if p == 2:
            return math.sqrt(float(np.sum(np.abs(c) ** 2)))
        m = max(8 * c.size, 16384)
        return float(np.mean(np.abs(boundary_samples(c, m)) ** p)) ** (1.0 / p)

    def derivative(self, c, n):
        return c[n:] * falling(np.arange(c.size - n, dtype=float), n)

    def sn_norm(self, c, params):
        head = sum(abs(self.derivative(c, j)[0]) for j in range(params.n))
        return head + self.hp_norm(self.derivative(c, params.n), params.p)

    def sup_norm(self, c, peaks=5):
        # imported here: SciPy is only needed by the checks, not in set-up
        from scipy.optimize import minimize_scalar

        m = 16 * max(c.size, 64)
        mag = np.abs(boundary_samples(c, m))
        local = np.flatnonzero((mag >= np.roll(mag, 1)) & (mag >= np.roll(mag, -1)))
        best = float(mag.max())
        h = 2.0 * math.pi / m
        for j in local[np.argsort(mag[local])[-peaks:]]:
            t0 = h * j
            res = minimize_scalar(
                lambda t: -abs(self.on_circle(c, np.array([t]))[0]),
                bounds=(t0 - h, t0 + h), method="bounded", options={"xatol": 1e-14},
            )
            best = max(best, -float(res.fun))
        return best

    def grid_max(self, c, m):
        return float(np.max(np.abs(boundary_samples(c, m))))

    def on_circle(self, c, theta, chunk=8):
        """f(exp(1j * theta)) by direct summation, a few angles at a time so
        the check adds little to the process's peak memory."""
        k = np.arange(c.size)
        return np.concatenate([
            np.exp(1j * np.outer(theta[i:i + chunk], k)) @ c for i in range(0, len(theta), chunk)
        ])

    def shift_plus_volterra(self, c, n):
        k = np.arange(c.size, dtype=float)
        return np.concatenate(([0j], c * (k + 1 + n) / (k + 1)))

    def nth_antiderivative(self, c, n):
        k = np.arange(c.size, dtype=float)
        return np.concatenate((np.zeros(n, dtype=complex), c / falling(k, n)))


def close_arrays(got, want, rtol=COEFF_RTOL):
    got = np.asarray(got, dtype=complex)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want), initial=0.0) <= rtol * max(np.max(np.abs(want)), 1e-300)
    )


def close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def sup_within_method(r, c, oracle):
    """``sup_norm`` samples |f| on max(4096, 4 * (order + 1)) boundary nodes
    and polishes the best one, so its answer lies between that grid's max
    and the true sup.  Whether it reaches the true sup is counted apart."""
    grid = oracle.grid_max(c, max(4096, 4 * c.size))
    return grid * (1 - SAMPLED_RTOL) <= r <= oracle.sup_norm(c) * (1 + SUP_RTOL)


def _float_ops(rng, order, oracle):
    c = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    d = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    f, g = hardylab.TaylorSeries(c), hardylab.TaylorSeries(d)
    counter = "float.oracle_mismatch"
    ops = [
        Op("series.TaylorSeries", hardylab.TaylorSeries, (c,),
           lambda r: np.array_equal(series_array(r), c), counter),
        Op("series.multiply", hardylab.multiply, (f, g),
           lambda r: close_arrays(series_array(r), oracle.product(c, d)), counter),
    ]
    for p in HP_EXPONENTS:
        rtol = EXACT_NORM_RTOL if p in (2.0, 4.0) else QUAD_NORM_RTOL
        ops.append(Op(
            "norms.hp_norm.p" + f"{p:g}".replace(".", "_"),
            hardylab.hp_norm, (f, p),
            lambda r, p=p, rtol=rtol: close(r, oracle.hp_norm(c, p), rtol), counter,
        ))
    m = 4 * (order + 1)
    probe = rng.integers(0, m, 64)
    ops += [
        Op("norms.sn_norm", hardylab.sn_norm, (f, SN_PARAMS),
           lambda r: close(r, oracle.sn_norm(c, SN_PARAMS), QUAD_NORM_RTOL), counter),
        Op("norms.sup_norm", hardylab.sup_norm, (f,),
           lambda r: sup_within_method(r, c, oracle), counter,
           note=("float.sup_below_true_max", lambda r: close(r, oracle.sup_norm(c), SUP_RTOL))),
        Op("norms.boundary_values", hardylab.boundary_values, (f, m),
           lambda r: r.shape == (m,) and bool(np.all(
               np.abs(r[probe] - oracle.on_circle(c, 2 * np.pi * probe / m))
               <= COEFF_RTOL * np.sum(np.abs(c))
           )), counter),
        Op("operators.shift_plus_volterra", hardylab.shift_plus_volterra, (f, FLOAT_N),
           lambda r: close_arrays(series_array(r), oracle.shift_plus_volterra(c, FLOAT_N)),
           counter),
        Op("operators.nth_antiderivative", hardylab.nth_antiderivative, (f, FLOAT_N),
           lambda r: close_arrays(series_array(r), oracle.nth_antiderivative(c, FLOAT_N)),
           counter),
        Op("series.json_roundtrip", lambda s: hardylab.loads(hardylab.dumps(s)), (f,),
           lambda r: np.array_equal(series_array(r), c), counter),
    ]
    return ops


def float_highorder(seed, workdir=None, orders=FLOAT_ORDERS, oracle=None):
    oracle = oracle or FloatOracle()
    rng = np.random.default_rng([seed, 2])
    ops = []
    for order in orders:
        ops += _float_ops(rng, order, oracle)
    return OpList(ops)


def float_highorder_warmup(seed, workdir=None):
    return float_highorder(seed, orders=(64,))


# --------------------------------------------------------------------------
# membership-small


def atom_spec(theta=math.pi / 2):
    """Depth-1 spec whose inner factor is one singular atom at ``theta``;
    no nonzero polynomial is divisible by it."""
    w = complex(math.cos(theta), math.sin(theta))
    return SubspaceSpec(((w,),), InnerFunction(atoms=((theta, 1.0),)), SpaceParams(1, 2.0))


def vanishes(f, spec, rtol=1e-9):
    """Independent check that f satisfies the vanishing conditions of a
    spec without atoms: derivatives on the boundary sets, Blaschke zeros to
    their multiplicity, and zero initial data in zero mode."""
    c = series_array(f)

    def zero_at(z, m):
        d = npoly.polyder(c, m) if m else c
        return abs(npoly.polyval(z, d)) <= rtol * float(np.sum(np.abs(d)))

    ok = all(zero_at(z, j) for j, ks in enumerate(spec.boundary_sets) for z in ks)
    ok &= all(zero_at(a, i) for a, mult in spec.inner.zeros for i in range(mult))
    if spec.zero_mode:
        ok &= bool(np.all(np.abs(c[: spec.n]) <= rtol * float(np.sum(np.abs(c)))))
    return ok


def _small_poly(rng, max_degree=6):
    deg = int(rng.integers(2, max_degree + 1))
    return hardylab.TaylorSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


def _bumped(f):
    bump = 1e-3 * max(float(np.sum(np.abs(series_array(f)))), 1.0)
    return hardylab.add(f, hardylab.TaylorSeries([bump + 0j]))


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as out:
        out.write(text + "\n")
    return path


def _cli_norm_ok(result, c, params, oracle):
    code, text = result
    values = [float(line.split()[-1]) for line in text.splitlines() if not line.startswith("#")]
    p = params.p
    d1 = oracle.derivative(c, 1)
    want = [
        oracle.hp_norm(c, p),
        abs(c[0]) + oracle.hp_norm(d1, p),
        oracle.hp_norm(c, p) + oracle.hp_norm(d1, p),
        oracle.sup_norm(c) + oracle.hp_norm(d1, p),
    ]
    return code == 0 and len(values) == 4 and all(
        close(v, w, QUAD_NORM_RTOL) for v, w in zip(values, want)
    )


def _cli_apply_ok(result, want):
    code, text = result
    return code == 0 and close_arrays(series_array(hardylab.loads(text)), want)


def _cli_membership_ok(result, member):
    code, text = result
    expect = ("member: yes", 0) if member else ("member: no", 1)
    return text.startswith(expect[0]) and code == expect[1]


def membership_small(seed, workdir, members_per_spec=12, cli_per_spec=8, atom_polys=8,
                     harness_samples=8):
    rng = np.random.default_rng([seed, 3])
    oracle = FloatOracle()
    os.makedirs(workdir, exist_ok=True)
    m_count, cli_count = "membership.verdict_mismatch", "cli.exit_mismatch"
    ops = []

    def verdict(f, spec, member):
        ops.append(Op("membership.membership", hardylab.membership, (f, spec),
                      lambda r: r.member is member, m_count))

    def cli_membership(f, spec_path, member, tag):
        path = _write(workdir, f"{tag}.json", hardylab.dumps(f))
        ops.append(Op("cli.membership", run_cli, (("membership", path, spec_path),),
                      lambda r: _cli_membership_ok(r, member), cli_count))

    for name, spec in verify.fixed_specs():
        spec_path = _write(workdir, f"spec-{name}.json", json.dumps(hardylab.spec_to_dict(spec)))
        sample_seed = int(rng.integers(0, 2**31))
        ops.append(Op(
            "membership.sampled_members", hardylab.sampled_members, (spec, 4, sample_seed),
            lambda r, spec=spec: len(r) == 4 and all(vanishes(f, spec) for f in r), m_count,
        ))
        members = hardylab.sampled_members(spec, members_per_spec, sample_seed + 1)
        for f in members:
            verdict(f, spec, True)
            verdict(hardylab.shift(f), spec, True)
            verdict(_bumped(f), spec, False)
        for i, f in enumerate(members[:cli_per_spec]):
            cli_membership(f, spec_path, True, f"{name}-member-{i}")
            cli_membership(_bumped(f), spec_path, False, f"{name}-bumped-{i}")
        for check in (hardylab.shift_invariance_check, hardylab.combined_invariance_check):
            ops.append(Op(
                f"membership.{check.__name__}", check,
                (spec, harness_samples, 1e-9, sample_seed), lambda r: r.passed, m_count,
            ))

    spec = atom_spec()
    w = spec.boundary_sets[0][0]
    spec_path = _write(workdir, "spec-atom.json", json.dumps(hardylab.spec_to_dict(spec)))
    for i in range(atom_polys):
        f = hardylab.multiply(_small_poly(rng), hardylab.TaylorSeries([-w, 1.0]))
        verdict(f, spec, False)
        if i % 2:
            cli_membership(f, spec_path, False, f"atom-{i}")
            ops.append(Op("inner.singular_division_heuristic",
                          hardylab.singular_division_heuristic, (f, spec.inner),
                          lambda r: r == "not-divisible", m_count))

    zeros = tuple((complex(*rng.uniform(-0.6, 0.6, 2)), 1) for _ in range(3))
    inners = [s.inner for _, s in verify.fixed_specs() if s.inner.zeros]
    inners += [spec.inner, InnerFunction(zeros=zeros, atoms=((1.0, 0.5),))]
    for inner in inners:
        ops.append(Op("inner.boundary_unimodularity_defect",
                      hardylab.boundary_unimodularity_defect, (inner,),
                      lambda r: 0.0 <= r <= DEFECT_TOL, m_count))

    params = SpaceParams(1, 3.0)
    for i in range(4):
        f = _small_poly(rng, 20)
        c = series_array(f)
        path = _write(workdir, f"series-{i}.json", hardylab.dumps(f))
        ops.append(Op("cli.norm", run_cli, (("norm", path, "--n", "1", "--p", "3"),),
                      lambda r, c=c: _cli_norm_ok(r, c, params, oracle), cli_count))
        ops.append(Op("cli.apply", run_cli, (("apply", path, "combined", "--n", "2"),),
                      lambda r, c=c: _cli_apply_ok(r, oracle.shift_plus_volterra(c, 2)),
                      cli_count))
        ops.append(Op("cli.apply", run_cli, (("apply", path, "integrate", "--n", "3"),),
                      lambda r, c=c: _cli_apply_ok(r, oracle.nth_antiderivative(c, 3)),
                      cli_count))
    return OpList(ops)


def membership_small_warmup(seed, workdir):
    return membership_small(seed, workdir, members_per_spec=1, cli_per_spec=1, atom_polys=2,
                            harness_samples=1)


# --------------------------------------------------------------------------
# exact-ops


def gaussian(re, im, denom):
    return hardylab.RationalComplex(Fraction(re, denom), Fraction(im, denom))


def pairs(f):
    """Exact coefficients of f as (re, im) Fraction pairs."""
    return [(Fraction(c.re), Fraction(c.im)) for c in f.coeffs]


def _scaled(ints, factor):
    return [(Fraction(a) * factor, Fraction(b) * factor) for a, b in ints]


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exact_ops(rng, degree):
    a = [tuple(int(v) for v in rng.integers(-DENOM, DENOM + 1, 2)) for _ in range(degree + 1)]
    b = [tuple(int(v) for v in rng.integers(-DENOM, DENOM + 1, 2)) for _ in range(degree + 1)]
    s = tuple(int(v) for v in rng.integers(1, 8, 2))
    u = tuple(int(v) for v in rng.integers(-POINT_DENOM + 1, POINT_DENOM, 2))
    fa, fb = _scaled(a, Fraction(1, DENOM)), _scaled(b, Fraction(1, DENOM))
    coeffs = [gaussian(x, y, DENOM) for x, y in a]
    f = hardylab.TaylorSeries(coeffs)
    g = hardylab.TaylorSeries([gaussian(x, y, DENOM) for x, y in b])
    factor = gaussian(s[0], s[1], 7)
    z = gaussian(u[0], u[1], POINT_DENOM)
    zero = (Fraction(0), Fraction(0))
    counter = "exact.identity_failed"

    ops = [
        Op("series.exact.TaylorSeries", hardylab.TaylorSeries, (coeffs,),
           lambda r: r.exact and pairs(r) == fa, counter),
        Op("operators.exact.shift", hardylab.shift, (f,),
           lambda r: pairs(r) == [zero] + fa, counter),
    ]
    for n in EXACT_N:
        perm = [math.perm(k + n, n) for k in range(degree + 1)]
        anti = hardylab.nth_antiderivative(f, n)
        ops += [
            Op("operators.exact.nth_derivative", hardylab.nth_derivative, (f, n),
               lambda r, n=n: pairs(r) == [
                   (x * math.perm(k + n, n), y * math.perm(k + n, n))
                   for k, (x, y) in enumerate(fa[n:])], counter),
            Op("operators.exact.shift_plus_volterra", hardylab.shift_plus_volterra, (f, n),
               lambda r, n=n: pairs(r) == [zero] + [
                   (x * Fraction(k + 1 + n, k + 1), y * Fraction(k + 1 + n, k + 1))
                   for k, (x, y) in enumerate(fa)], counter),
            Op("operators.exact.nth_antiderivative", hardylab.nth_antiderivative, (f, n),
               lambda r, n=n, perm=perm: pairs(r) == [zero] * n + [
                   (x / q, y / q) for (x, y), q in zip(fa, perm)], counter),
            Op("operators.exact.nth_derivative", hardylab.nth_derivative, (anti, n),
               lambda r: pairs(r) == fa, counter),
            Op("series.exact.eq", operator.eq, (hardylab.nth_derivative(anti, n), f),
               lambda r: r is True, counter),
            Op("operators.exact.lift_approximant", hardylab.lift_approximant, (f, g, n),
               lambda r, n=n, perm=perm: pairs(r) == fa[:n] + [
                   (x / q, y / q) for (x, y), q in zip(fb, perm)], counter),
        ]

    product = [[0, 0] for _ in range(2 * degree + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            re, im = _cmul(x, y)
            product[i + j][0] += re
            product[i + j][1] += im
    # f(z) * DENOM * POINT_DENOM**degree as a Gaussian integer, by Horner
    acc = (0, 0)
    for k in range(degree, -1, -1):
        acc = _cmul(acc, u)
        acc = (acc[0] + a[k][0] * POINT_DENOM ** (degree - k),
               acc[1] + a[k][1] * POINT_DENOM ** (degree - k))
    value_denom = DENOM * POINT_DENOM**degree
    ops += [
        Op("series.exact.add", hardylab.add, (f, g),
           lambda r: pairs(r) == [(x + p, y + q) for (x, y), (p, q) in zip(fa, fb)], counter),
        Op("series.exact.scale", hardylab.scale, (f, factor),
           lambda r: pairs(r) == [_cmul(x, (Fraction(s[0], 7), Fraction(s[1], 7))) for x in fa],
           counter),
        Op("series.exact.multiply", hardylab.multiply, (f, g),
           lambda r: pairs(r) == [(Fraction(x, DENOM**2), Fraction(y, DENOM**2))
                                  for x, y in product], counter),
        Op("series.exact.evaluate", hardylab.evaluate, (f, z),
           lambda r: (Fraction(r.re), Fraction(r.im))
           == (Fraction(acc[0], value_denom), Fraction(acc[1], value_denom)), counter),
    ]
    return ops


def exact_ops(seed, workdir=None, degrees=EXACT_DEGREES):
    rng = np.random.default_rng([seed, 4])
    ops = []
    for degree in degrees:
        ops += _exact_ops(rng, degree)
    return OpList(ops)


def exact_ops_warmup(seed, workdir=None):
    return exact_ops(seed, degrees=(8,))


# span names the benchmark records, in the order they are reported
SPAN_NAMES = (
    "cli.verify",
    *(f"verify.{name}" for name in verify.SUITES),
    "report.render",
    *("norms.hp_norm.p" + f"{p:g}".replace(".", "_") for p in HP_EXPONENTS),
    "norms.sn_norm",
    "norms.sup_norm",
    "norms.boundary_values",
    "series.TaylorSeries",
    "series.multiply",
    "series.json_roundtrip",
    "operators.shift_plus_volterra",
    "operators.nth_antiderivative",
    *(f"series.exact.{fn}" for fn in ("TaylorSeries", "add", "scale", "multiply", "evaluate", "eq")),
    *(f"operators.exact.{fn}" for fn in (
        "shift", "nth_derivative", "shift_plus_volterra", "nth_antiderivative", "lift_approximant",
    )),
    "cli.norm",
    "cli.apply",
    "cli.membership",
    "membership.membership",
    "membership.sampled_members",
    "membership.shift_invariance_check",
    "membership.combined_invariance_check",
    "inner.boundary_unimodularity_defect",
    "inner.singular_division_heuristic",
)

COUNTERS = (
    "verify.claims",
    "verify.claims_failed",
    "membership.verdict_mismatch",
    "cli.exit_mismatch",
    "exact.identity_failed",
    "float.oracle_mismatch",
    "float.sup_below_true_max",
)

WORKLOADS = {
    "battery": (battery, battery_warmup),
    "float-highorder": (float_highorder, float_highorder_warmup),
    "membership-small": (membership_small, membership_small_warmup),
    "exact-ops": (exact_ops, exact_ops_warmup),
}
