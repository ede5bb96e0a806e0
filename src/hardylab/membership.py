"""Invariant-subspace membership for truncated series.

A subspace spec bundles nested finite boundary sets K_0 ⊇ ... ⊇ K_{n-1} on
the unit circle, an inner divisor, the ambient space parameters (n, p), and
an optional zero-initial-data flag.  Membership of a polynomial means: its
j-th derivative vanishes on K_j for every j < n, the inner function divides
it, and in zero mode the first n Taylor coefficients vanish.  Division is
decided exactly: by zero multiplicities for the Blaschke part, and as never
for a singular factor, since the inner factor of a nonzero polynomial is a
finite Blaschke product.  All vanishing thresholds are relative to the
boundary scale of the derivative being tested, so verdicts are invariant
under rescaling the function; the scales of all the derivatives come from
batched boundary transforms.  Each derivative's coefficients become one
list of Python ``complex``, and every boundary condition and Blaschke
residual ``|f^(i)(a)|`` runs Horner's rule on it (``series._horner``); the
value at 0 is read off as ``c_0``.

A spec cannot change once built, so its structural validation, the
generator of its constructed members and the labels of its boundary and
zero-mode conditions are computed once per spec object and kept on it:
:func:`membership` and :func:`sample_element` re-check a spec by reading
those cached claims, and :func:`membership` reads the cached labels.

Every verdict is about the truncated coefficient data as given, never about
an idealised infinite expansion.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .inner import InnerFunction, inner_from_dict, inner_to_dict
from .norms import SpaceParams, _grid_peaks, boundary_scale
from .operators import nth_antiderivative, nth_derivative, shift, shift_plus_volterra
from .report import VerificationReport, _Tracker
from .series import (TaylorSeries, _check_count, _complex_coeffs, _derivative, _float_series,
                     _horner, _json_numbers, add, monomial, multiply)

__all__ = [
    "SubspaceSpec",
    "ConditionResult",
    "MembershipResult",
    "validate_spec",
    "ensure_valid",
    "membership",
    "sample_element",
    "random_series",
    "sampled_members",
    "log_distance_integral",
    "shift_invariance_check",
    "combined_invariance_check",
    "spec_to_dict",
    "spec_from_dict",
]

_POINT_EPS = 1e-9
_CIRCLE_EPS = 1e-12


@dataclass(frozen=True)
class SubspaceSpec:
    """Membership structure: boundary sets, inner divisor, ambient space.

    ``boundary_sets`` is an ordered tuple (K_0, ..., K_{n-1}) of tuples of
    boundary points; ordering is fixed so that downstream reports are
    deterministic.  Construction only enforces shape and rejects a NaN or
    infinite boundary point; the structural properties are checked by
    :func:`validate_spec` and reported, not raised.

    Every field is immutable, so the structural claims, the generator of
    :func:`sample_element` and the condition labels of :func:`membership`
    are computed once per spec object, at first use, and kept on it;
    ``==``, ``hash`` and ``repr`` read the fields alone.
    """

    boundary_sets: tuple
    inner: InnerFunction
    space: SpaceParams
    zero_mode: bool = False

    def __post_init__(self):
        sets = tuple(tuple(complex(z) for z in ks) for ks in self.boundary_sets)
        if not all(cmath.isfinite(z) for ks in sets for z in ks):
            raise ValueError(f"boundary points must be finite, got {sets}")
        object.__setattr__(self, "boundary_sets", sets)
        if self.space.n < 1:
            raise ValueError("a subspace spec needs derivative depth n >= 1")
        if len(sets) != self.space.n:
            raise ValueError(
                f"expected n = {self.space.n} boundary sets, got {len(sets)}"
            )

    @property
    def n(self):
        return self.space.n

    @functools.cached_property
    def _claims(self):
        return _structural_claims(self)

    @functools.cached_property
    def _generator(self):
        return _generator_of(self)

    @functools.cached_property
    def _labels(self):
        return _condition_labels(self)


def _contains(points, z, eps=_POINT_EPS):
    return any(abs(z - w) <= eps for w in points)


def _fmt_point(z):
    return format(complex(z), "g")


def validate_spec(spec):
    """Check the structural properties of a spec; failures are report
    entries, not exceptions.

    The isolation and zero-clustering constraints of the general theory are
    automatic for the finite sets handled here, and the report says so
    rather than claiming generality.  Each call returns a fresh report over
    the spec's claims, which are computed once per spec object.
    """
    return VerificationReport(claims=list(spec._claims))


def _structural_claims(spec):
    """The claims of :func:`validate_spec`, in report order, as a tuple."""
    report = VerificationReport()
    n = spec.n

    ok, witness = True, None
    for j in range(n - 1):
        for z in spec.boundary_sets[j + 1]:
            if not _contains(spec.boundary_sets[j], z):
                ok = False
                witness = f"K_{j + 1} point {_fmt_point(z)} missing from K_{j}"
                break
        if not ok:
            break
    report.add("properties.nesting", ok, 0.0, f"n={n} eps={_POINT_EPS}", witness)

    report.add(
        "properties.gap-isolated", True, 0.0,
        "finite boundary sets: isolation is automatic, generality not claimed",
    )
    report.add(
        "properties.zero-clustering", True, 0.0,
        "finite Blaschke zero set: clustering constraint is vacuous",
    )

    ok, witness, worst = True, None, 0.0
    for theta, _ in spec.inner.atoms:
        w = cmath.exp(1j * theta)
        dist = min((abs(w - z) for z in spec.boundary_sets[n - 1]), default=math.inf)
        worst = max(worst, dist)
        if dist > _POINT_EPS:
            ok = False
            witness = f"atom direction exp({theta}j) not in K_{n - 1}"
    report.add(
        "properties.atom-support", ok, _POINT_EPS - worst,
        f"atoms={len(spec.inner.atoms)} eps={_POINT_EPS}", witness,
    )

    dev, witness = 0.0, None
    for j, ks in enumerate(spec.boundary_sets):
        for z in ks:
            d = abs(abs(z) - 1.0)
            if d > dev:
                dev = d
                witness = f"K_{j} point {_fmt_point(z)} off the unit circle by {d}"
    ok = dev <= _CIRCLE_EPS
    report.add(
        "properties.unit-modulus", ok, _CIRCLE_EPS - dev,
        f"eps={_CIRCLE_EPS}", None if ok else witness,
    )
    return tuple(report.claims)


def ensure_valid(spec):
    """Raise ValueError when :func:`validate_spec` reports any failure."""
    failures = [c for c in spec._claims if not c.passed]
    if failures:
        reasons = "; ".join(c.witness or c.claim for c in failures)
        raise ValueError(f"invalid subspace spec: {reasons}")
    return spec


@dataclass(frozen=True)
class ConditionResult:
    """One membership condition with its measured residual and threshold."""

    condition: str
    passed: bool
    residual: float
    threshold: float
    note: str = ""


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    conditions: tuple
    truncation_order: int

    def __bool__(self):
        return self.member


def _check_tol(tol):
    """ValueError unless tol is a finite positive real number; a bool is not a tolerance."""
    # float first: a float tol skips the slower numbers.Real ABC check
    if type(tol) is bool or not (isinstance(tol, (float, numbers.Real)) and 0 < tol < math.inf):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


def membership(f, spec, tol=1e-9):
    """Decide membership of f in the subspace, one condition at a time.

    Residual thresholds are ``tol`` times the boundary scale of the
    derivative under test (the function itself for the inner-divisor
    conditions), so the verdict does not change when f is rescaled.  The
    zero series is a member of every subspace and short-circuits.
    """
    _check_tol(tol)
    ensure_valid(spec)
    if f.is_zero:
        cond = ConditionResult(
            "zero-function", True, 0.0, 0.0,
            "the zero series belongs to every subspace",
        )
        return MembershipResult(True, (cond,), f.order)

    # a zero of multiplicity m reads f^(i), i < m, up to the order of f
    depth = max([spec.n] + [min(m, f.order + 1) for _, m in spec.inner.zeros])
    derivs = [_derivative(f, j) for j in range(depth)]
    scales = [peak for peak, _, _ in _grid_peaks(derivs[:spec.n])]
    coeffs = [_complex_coeffs(d).tolist() for d in derivs]
    vanishing, heads = spec._labels

    conditions = []
    for j, z, label in vanishing:
        residual = abs(_horner(coeffs[j], z))
        cap = tol * scales[j]
        conditions.append(ConditionResult(label, residual <= cap, residual, cap))

    cap0 = tol * scales[0]
    for a, m in spec.inner.zeros:  # labels per call: a multiplicity may be huge
        for i in range(min(m, f.order + 1)):
            residual = abs(_horner(coeffs[i], a))
            conditions.append(ConditionResult(f"blaschke-zero-{_fmt_point(a)}-order-{i}",
                                              residual <= cap0, residual, cap0))
    if spec.inner.has_atoms:
        conditions.append(
            ConditionResult(
                "singular-factor-division", False, 0.0, 0.0,
                "a nonzero polynomial's inner factor is a finite Blaschke "
                "product, so no singular factor divides it",
            )
        )

    # |f^(m)(0)| is |c_0|, the modulus Horner at 0 returns bit for bit
    for m, label in enumerate(heads):
        residual = abs(coeffs[m][0])
        cap = tol * scales[m]
        conditions.append(ConditionResult(label, residual <= cap, residual, cap))

    member = all(c.passed for c in conditions)
    return MembershipResult(member, tuple(conditions), f.order)


def _condition_labels(spec):
    """The labels of :func:`membership`'s conditions that depend on the spec
    alone: ``(j, z, label)`` for each point z of each K_j, and in zero mode
    the label of each order m < n of vanishing at 0."""
    vanishing = tuple((j, z, f"derivative-{j}-vanishes-at-{_fmt_point(z)}")
                      for j, ks in enumerate(spec.boundary_sets) for z in ks)
    heads = tuple(f"vanishing-at-0-order-{m}" for m in range(spec.n)) if spec.zero_mode else ()
    return vanishing, heads


def _generator_of(spec):
    """The generator of :func:`sample_element`: the Blaschke numerators, each
    boundary-set factor to its nesting depth, and z^n in zero mode."""
    out = TaylorSeries([1.0 + 0j])
    for a, m in spec.inner.zeros:
        for _ in range(m):
            out = multiply(out, TaylorSeries([-a, 1.0]))
    for z in spec.boundary_sets[0]:
        depth = 1 + max(
            j for j in range(spec.n) if _contains(spec.boundary_sets[j], z)
        )
        for _ in range(depth):
            out = multiply(out, TaylorSeries([-z, 1.0]))
    if spec.zero_mode:
        out = multiply(out, monomial(spec.n, 1.0))
    return out


def sample_element(spec, h, tol=1e-9):
    """Constructive member: the spec's generator (the Blaschke numerator,
    boundary-set factors to their nesting depth, the z^n head when zero mode
    is on) times h.  The generator is built once per spec object.

    The result is self-checked through :func:`membership`; a failure there
    is an implementation bug and raises RuntimeError.  Specs with singular
    atoms cannot be sampled by polynomials and are rejected.
    """
    _check_tol(tol)
    ensure_valid(spec)
    if spec.inner.has_atoms:
        raise ValueError(
            "no polynomial is divisible by a singular inner factor; "
            "drop the atoms to sample"
        )
    if h.is_zero:
        return TaylorSeries([0j])
    out = multiply(spec._generator, h)
    result = membership(out, spec, tol)
    if not result.member:
        failing = [c.condition for c in result.conditions if not c.passed]
        raise RuntimeError(
            f"constructed sample failed its own membership check ({failing}); "
            "this is a bug"
        )
    return out


def random_series(rng, max_degree):
    """Random polynomial with unit-box complex coefficients: the real parts,
    then the imaginary parts, drawn in one call, the same stream that two
    calls of ``deg + 1`` draws each would take."""
    deg = int(rng.integers(0, max_degree + 1))
    v = rng.uniform(-1, 1, 2 * (deg + 1))
    c = np.empty(deg + 1, complex)
    c.real, c.imag = v[:deg + 1], v[deg + 1:]
    # uniform draws are finite: no scan
    return _float_series(c, scan=False)


def sampled_members(spec, count, seed=0, tol=1e-9):
    """Deterministic batch of constructed members, each the generator times
    a random polynomial of degree at most 8; the shared sample pool for the
    invariance harnesses and the scale-invariance checks."""
    rng = np.random.default_rng([_check_count(seed, "seed"), 77])
    _check_tol(tol)
    return [
        sample_element(spec, random_series(rng, 8), tol)
        for _ in range(_check_count(count, "count"))
    ]


def log_distance_integral(spec):
    """Boundary integral of ``log dist(z, K_0 ∪ Blaschke zeros)`` by the
    trapezoid rule on 4096 nodes; +inf when that union is empty.

    The nodes are shifted, as a whole, to the middle of the widest gap
    between the points' angles counted in node steps mod 1, so no point
    lands on a node (a node on the set would force the integrand to -inf);
    points on the node grid give the midpoint rule.  The integrand's log
    singularities are integrable, so the estimate converges as the node
    count grows, at first order rather than spectrally.
    """
    m = 4096
    pts = list(spec.boundary_sets[0]) + [a for a, _ in spec.inner.zeros]
    if not pts:
        return math.inf
    step = 2.0 * math.pi / m
    ts = sorted(cmath.phase(a) / step % 1.0 for a in pts)
    gap, start = max((b - a, a) for a, b in zip(ts, ts[1:] + [ts[0] + 1.0]))
    nodes = np.exp(1j * ((np.arange(m) + (start + gap / 2) % 1.0) * step))
    dist = np.min(np.abs(nodes[:, None] - np.asarray(pts, dtype=complex)[None, :]), axis=1)
    return float(np.sum(np.log(dist)) * step)


def _perturbed(f):
    """Adversarial mutation: add a constant big enough to break vanishing."""
    bump = 1e-3 * max(boundary_scale(f), 1.0)
    return add(f, TaylorSeries([bump + 0j]))


def _membership_margin(result):
    return min(
        (c.threshold - c.residual for c in result.conditions),
        default=0.0,
    )


def _invariance_claim(spec, samples, tol, seed, negative_control, claim, probes, extra=""):
    """One claim over the sampled members of spec: ``probes(f)`` gives
    ``(g, fields)`` pairs, and each g must be a member.  The slack is the
    least membership margin, the witness the first non-member; ``extra``
    goes into the claim's config before the negative-control flag."""
    samples, seed = _check_count(samples, "samples", 1), _check_count(seed, "seed")
    if not isinstance(negative_control, bool):
        raise ValueError(f"negative_control must be True or False, got {negative_control!r}")
    config = (f"samples={samples} tol={tol} seed={seed} {extra}"
              f"negative-control={'on' if negative_control else 'off'}")
    t = _Tracker()
    for idx, f in enumerate(sampled_members(spec, samples, seed, tol)):
        for g, fields in probes(f):
            res = membership(g, spec, tol)
            failing = [c.condition for c in res.conditions if not c.passed]
            t.record(_membership_margin(res), res.member,
                     sample=idx, **fields, failing=failing, coeffs=f)
    return VerificationReport(claims=[t.claim(claim, config)])


def shift_invariance_check(
    spec,
    samples=100,
    tol=1e-9,
    seed=0,
    negative_control=False,
    claim="shift-invariance",
):
    """Sampled check that members stay members under multiplication by the
    coordinate.

    With ``negative_control`` every sample is mutated by a constant bump
    before testing; the resulting claim is expected to fail, and the report
    records that failure with its witness.
    """

    def probes(f):
        g = _perturbed(f) if negative_control else f
        return (g, {"stage": "element"}), (shift(g), {"stage": "shifted"})

    return _invariance_claim(spec, samples, tol, seed, negative_control, claim, probes)


def combined_invariance_check(
    spec,
    samples=100,
    tol=1e-9,
    seed=0,
    negative_control=False,
    claim="combined-invariance",
):
    """Pull each sampled member down by n derivatives, apply the combined
    shift-plus-n-Volterra operator, lift back up, and re-test membership.

    Requires zero mode: the lift only inverts the derivative on series with
    zero initial data.  ``negative_control`` applies the operator with the
    wrong multiple n+1, which must surface as membership failures.
    """
    if not spec.zero_mode:
        raise ValueError(
            "the pullback harness needs the zero-initial-data subspace "
            "(zero_mode=True)"
        )
    multiple = spec.n + (1 if negative_control else 0)

    def probes(f):
        downstairs = nth_derivative(f, spec.n)
        pulled = nth_antiderivative(shift_plus_volterra(downstairs, multiple), spec.n)
        return ((pulled, {"multiple": multiple}),)

    return _invariance_claim(spec, samples, tol, seed, negative_control, claim, probes,
                             f"multiple={multiple} ")


def spec_to_dict(spec):
    """JSON-ready form of a subspace spec."""
    return {
        "n": spec.n,
        "p": spec.space.p,
        "zero_mode": spec.zero_mode,
        "K": [[[z.real, z.imag] for z in ks] for ks in spec.boundary_sets],
        "inner": inner_to_dict(spec.inner),
    }


def spec_from_dict(data):
    """Inverse of :func:`spec_to_dict`; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("subspace spec must be a JSON object")
    try:
        n = data["n"]
        p = _json_numbers([[data["p"]]], 1, "'p'").item()
        zero_mode = data["zero_mode"]
        if not isinstance(zero_mode, bool):
            raise ValueError(f"'zero_mode' must be true or false, got {zero_mode!r}")
        ksets = [_json_numbers(ks, 2, "a boundary point").view(complex).ravel()
                 for ks in data["K"]]
        inner = inner_from_dict(data["inner"])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed subspace spec: {exc}") from exc
    return SubspaceSpec(ksets, inner, SpaceParams(n, p), zero_mode)
