"""Subspace membership, constructive samples, and the invariance harnesses."""

import cmath
import importlib
import json
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hardylab import (
    InnerFunction,
    QuadratureConfig,
    RationalComplex,
    RunConfig,
    SpaceParams,
    SubspaceSpec,
    TaylorSeries,
    boundary_scale,
    boundary_unimodularity_defect,
    combined_invariance_check,
    derivative,
    ensure_valid,
    evaluate,
    log_distance_integral,
    membership,
    monomial,
    multiply,
    nth_antiderivative,
    nth_derivative,
    sample_element,
    sampled_members,
    shift,
    shift_invariance_check,
    shift_plus_volterra,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from hardylab.membership import ConditionResult, MembershipResult, random_series
from hardylab.verify import fixed_specs

# the package's ``membership`` is the function; the module holds the caches
membership_module = importlib.import_module("hardylab.membership")

TRIVIAL = InnerFunction()

NESTED = SubspaceSpec(
    boundary_sets=((1 + 0j, -1 + 0j), (1 + 0j,)),
    inner=TRIVIAL,
    space=SpaceParams(2, 2.0),
)

ONE_ZERO = SubspaceSpec(
    boundary_sets=((1 + 0j,),),
    inner=InnerFunction(zeros=((0.5 + 0j, 1),)),
    space=SpaceParams(1, 2.0),
    zero_mode=True,
)


def _poly_with_roots(*roots):
    out = TaylorSeries([1.0 + 0j])
    for r in roots:
        out = multiply(out, TaylorSeries([-r, 1.0]))
    return out


class TestSpecConstruction:
    def test_set_count_must_match_depth(self):
        with pytest.raises(ValueError):
            SubspaceSpec(((1 + 0j,),), TRIVIAL, SpaceParams(2, 2.0))

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            SubspaceSpec((), TRIVIAL, SpaceParams(0, 2.0))


class TestValidation:
    def test_nested_spec_passes(self):
        assert validate_spec(NESTED).passed

    def test_broken_nesting_reported(self):
        spec = SubspaceSpec(
            ((1 + 0j,), (-1 + 0j,)), TRIVIAL, SpaceParams(2, 2.0)
        )
        rep = validate_spec(spec)
        assert not rep.passed
        assert [c.claim for c in rep.failures] == ["properties.nesting"]
        assert "missing from K_0" in rep.failures[0].witness

    def test_off_circle_point_reported(self):
        spec = SubspaceSpec(((0.5 + 0j,),), TRIVIAL, SpaceParams(1, 2.0))
        rep = validate_spec(spec)
        assert [c.claim for c in rep.failures] == ["properties.unit-modulus"]

    def test_atom_off_the_last_set_reported(self):
        spec = SubspaceSpec(
            ((1 + 0j,),),
            InnerFunction(atoms=((1.0, 1.0),)),  # direction e^{1j}, not 1
            SpaceParams(1, 2.0),
        )
        rep = validate_spec(spec)
        assert [c.claim for c in rep.failures] == ["properties.atom-support"]

    def test_atom_on_the_last_set_accepted(self):
        spec = SubspaceSpec(
            ((1 + 0j,),), InnerFunction(atoms=((0.0, 1.0),)), SpaceParams(1, 2.0)
        )
        assert validate_spec(spec).passed

    def test_ensure_valid_raises_with_reason(self):
        spec = SubspaceSpec(((0.5 + 0j,),), TRIVIAL, SpaceParams(1, 2.0))
        with pytest.raises(ValueError, match="off the unit circle"):
            ensure_valid(spec)

    def test_membership_refuses_invalid_spec(self):
        spec = SubspaceSpec(((0.5 + 0j,),), TRIVIAL, SpaceParams(1, 2.0))
        with pytest.raises(ValueError):
            membership(TaylorSeries([1.0]), spec)


class TestMembership:
    def test_nested_member(self):
        f = _poly_with_roots(1.0, 1.0, -1.0)  # (z-1)^2 (z+1)
        res = membership(f, NESTED)
        assert res.member
        assert all(c.passed for c in res.conditions)

    def test_nested_non_member_names_the_failing_condition(self):
        g = _poly_with_roots(1.0, -1.0)  # simple zeros only
        res = membership(g, NESTED)
        assert not res.member
        failing = [c for c in res.conditions if not c.passed]
        assert len(failing) == 1
        assert failing[0].condition.startswith("derivative-1-vanishes-at")
        # g' = 2z has |g'(1)| = 2, far above the scale-relative threshold
        assert failing[0].residual == pytest.approx(2.0)
        assert failing[0].threshold < 1e-6

    @pytest.mark.parametrize("tol", ["1e-9", None, 1j, True, math.nan],
                             ids=["str", "none", "complex", "bool", "nan"])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda tol: membership(_poly_with_roots(1.0, 1.0, -1.0), NESTED, tol),
                     id="membership"),
        pytest.param(lambda tol: membership(TaylorSeries([0j]), NESTED, tol),
                     id="membership-zero"),
        pytest.param(lambda tol: sample_element(NESTED, TaylorSeries([1.0]), tol),
                     id="sample-element"),
        pytest.param(lambda tol: sample_element(NESTED, TaylorSeries([0.0]), tol),
                     id="sample-element-zero-h"),
        pytest.param(lambda tol: sampled_members(NESTED, 2, 0, tol), id="sampled-members"),
        pytest.param(lambda tol: sampled_members(NESTED, 0, 0, tol), id="sampled-members-none"),
        pytest.param(lambda tol: shift_invariance_check(NESTED, 2, tol), id="shift-harness"),
        pytest.param(lambda tol: combined_invariance_check(ONE_ZERO, 2, tol),
                     id="combined-harness"),
    ])
    def test_tolerance_that_is_not_a_positive_real_is_a_value_error(self, call, tol):
        # "1e-9", None and 1j used to raise TypeError from math.isfinite, and
        # True passed as a tolerance of 1
        with pytest.raises(ValueError) as exc:
            call(tol)
        assert str(exc.value) == f"tolerance must be finite and positive, got {tol!r}"

    def test_zero_series_short_circuits(self):
        res = membership(TaylorSeries([0.0, 0.0]), NESTED)
        assert res.member
        assert res.conditions[0].condition == "zero-function"

    def test_zero_mode_requires_vanishing_at_origin(self):
        base = _poly_with_roots(1.0, 0.5)
        res = membership(base, ONE_ZERO)
        assert not res.member
        failing = [c.condition for c in res.conditions if not c.passed]
        assert failing == ["vanishing-at-0-order-0"]
        assert membership(multiply(base, TaylorSeries([0.0, 1.0])), ONE_ZERO).member

    def test_verdict_survives_rescaling(self):
        f = _poly_with_roots(1.0, 1.0, -1.0)
        g = _poly_with_roots(1.0, -1.0)
        for factor in (1e8, 1e-8):
            assert membership(factor * f, NESTED).member
            assert not membership(factor * g, NESTED).member

    @pytest.mark.parametrize("factor", [1.0, 1e6, 1e-6])
    def test_blaschke_zero_multiplicity_is_honoured(self, factor):
        # the inner divisor has the zero 1/2 twice; no boundary condition applies
        spec = SubspaceSpec(
            ((),), InnerFunction(zeros=((0.5 + 0j, 2),)), SpaceParams(1, 2.0)
        )
        once = _poly_with_roots(0.5)
        res = membership(factor * once, spec)
        assert not res.member
        failing = [c.condition for c in res.conditions if not c.passed]
        assert failing == ["blaschke-zero-0.5+0j-order-1"]
        twice = multiply(multiply(once, once), TaylorSeries([0.3, 1.0, 0.8]))
        assert membership(factor * twice, spec).member

    @pytest.mark.parametrize("factor", [1.0, 1e6, 1e-6])
    def test_polynomial_without_the_blaschke_zero_fails_order_zero(self, factor):
        spec = SubspaceSpec(
            ((),), InnerFunction(zeros=((0.5 + 0j, 1),)), SpaceParams(1, 2.0)
        )
        res = membership(factor * _poly_with_roots(-1.0), spec)
        assert not res.member
        failing = [c.condition for c in res.conditions if not c.passed]
        assert failing == ["blaschke-zero-0.5+0j-order-0"]

    @pytest.mark.parametrize("coeffs, zeros, expected", [
        pytest.param([-0.5, 1.0], ((0.5, 1),), [(0.5, 0, 0.0)], id="simple-zero"),
        pytest.param([-0.5, 1.0], ((0.5, 2),), [(0.5, 0, 0.0), (0.5, 1, 1.0)],
                     id="multiplicity-not-met"),
        pytest.param([0.25, -1.0, 1.0], ((0.5, 2),), [(0.5, 0, 0.0), (0.5, 1, 0.0)],
                     id="double-zero"),
        pytest.param([0.0, 0.0, 1.0], ((0.0, 2),), [(0.0, 0, 0.0), (0.0, 1, 0.0)],
                     id="zero-at-origin"),
        pytest.param([1.0, 1.0], ((0.5, 1),), [(0.5, 0, 1.5)], id="non-vanishing"),
        pytest.param([3.0], ((0.5, 3),), [(0.5, 0, 3.0)], id="capped-at-order"),
        pytest.param([-0.25, 0.0, 1.0], ((0.5, 1), (-0.5j, 1)),
                     [(0.5, 0, 0.0), (-0.5j, 0, 0.5)], id="zeros-in-order"),
        pytest.param([1.0, 2.0], (), [], id="no-zeros"),
    ])
    def test_blaschke_residuals(self, coeffs, zeros, expected):
        # with no boundary point the conditions are the residuals |f^(i)(a)|
        # of each zero a and order i below its multiplicity, up to the order
        # of f, each against tol times the boundary scale of f
        spec = SubspaceSpec(((),), InnerFunction(zeros=zeros), SpaceParams(1, 2.0))
        f = TaylorSeries(coeffs)
        res = membership(f, spec)
        assert [(c.condition, c.residual) for c in res.conditions] == [
            (f"blaschke-zero-{format(complex(a), 'g')}-order-{i}", r) for a, i, r in expected]
        cap = 1e-9 * boundary_scale(f)
        assert all(c.threshold == cap and c.passed == (c.residual <= cap)
                   for c in res.conditions)
        assert res.member == all(r <= cap for _, _, r in expected)

    def test_singular_condition_is_labeled_heuristic(self):
        spec = SubspaceSpec(
            ((1 + 0j,),), InnerFunction(atoms=((0.0, 1.0),)), SpaceParams(1, 2.0)
        )
        res = membership(_poly_with_roots(1.0), spec)
        singular = [
            c for c in res.conditions if c.condition == "singular-factor-division"
        ]
        assert len(singular) == 1
        assert singular[0].note == (
            "a nonzero polynomial's inner factor is a finite Blaschke product, "
            "so no singular factor divides it"
        )

    @pytest.mark.parametrize("mass", [1.0, 1e-3, 1e-6])
    def test_no_polynomial_is_divisible_by_a_singular_factor(self, mass):
        # the radial growth probe that decided this read z - 1 as a member
        # at masses 1e-3 and 1e-6
        spec = SubspaceSpec(
            ((1 + 0j,),), InnerFunction(atoms=((0.0, mass),)), SpaceParams(1, 2.0)
        )
        res = membership(_poly_with_roots(1.0), spec)
        assert not res.member
        failing = [c.condition for c in res.conditions if not c.passed]
        assert failing == ["singular-factor-division"]
        assert membership(TaylorSeries([0.0]), spec).member


class TestSampling:
    def test_sample_satisfies_all_conditions(self):
        h = TaylorSeries([0.7, -0.2j, 0.1])
        f = sample_element(NESTED, h)
        res = membership(f, NESTED)
        assert res.member
        # (z-1) appears to nesting depth 2, (z+1) to depth 1
        assert abs(complex(evaluate(f, 1.0))) < 1e-12
        assert abs(complex(evaluate(derivative(f, 1), 1.0))) < 1e-12

    def test_zero_mode_sample_has_zero_head(self):
        f = sample_element(ONE_ZERO, TaylorSeries([1.0]))
        assert complex(f.coeffs[0]) == 0j

    def test_zero_h_gives_zero_series(self):
        assert sample_element(NESTED, TaylorSeries([0.0])).is_zero

    def test_atoms_cannot_be_sampled(self):
        spec = SubspaceSpec(
            ((1 + 0j,),), InnerFunction(atoms=((0.0, 1.0),)), SpaceParams(1, 2.0)
        )
        with pytest.raises(ValueError, match="singular"):
            sample_element(spec, TaylorSeries([1.0]))

    def test_sampled_members_deterministic(self):
        a = sampled_members(ONE_ZERO, 5, seed=3)
        b = sampled_members(ONE_ZERO, 5, seed=3)
        assert a == b
        assert all(membership(f, ONE_ZERO).member for f in a)


def _reference_membership(f, spec, tol=1e-9):
    """membership with one boundary_scale call per derivative and the
    structural claims built afresh: the conditions as built before the
    scales were batched and the claims cached."""
    claims = membership_module._structural_claims(spec)
    assert all(c.passed for c in claims)
    if f.is_zero:
        cond = ConditionResult("zero-function", True, 0.0, 0.0,
                               "the zero series belongs to every subspace")
        return MembershipResult(True, (cond,), f.order)
    derivs = [derivative(f, j) for j in range(spec.n)]
    scales = [boundary_scale(d) for d in derivs]
    conditions = []
    for j, ks in enumerate(spec.boundary_sets):
        for z in ks:
            residual, cap = abs(complex(evaluate(derivs[j], z))), tol * scales[j]
            conditions.append(ConditionResult(
                f"derivative-{j}-vanishes-at-{format(z, 'g')}", residual <= cap, residual, cap))
    for a, m in spec.inner.zeros:
        for i in range(min(m, f.order + 1)):
            residual, cap = abs(complex(evaluate(derivative(f, i), a))), tol * scales[0]
            conditions.append(ConditionResult(
                f"blaschke-zero-{format(a, 'g')}-order-{i}", residual <= cap, residual, cap))
    if spec.inner.has_atoms:
        conditions.append(ConditionResult(
            "singular-factor-division", False, 0.0, 0.0,
            "a nonzero polynomial's inner factor is a finite Blaschke product, "
            "so no singular factor divides it"))
    if spec.zero_mode:
        for m in range(spec.n):
            residual, cap = abs(complex(evaluate(derivs[m], 0))), tol * scales[m]
            conditions.append(ConditionResult(
                f"vanishing-at-0-order-{m}", residual <= cap, residual, cap))
    return MembershipResult(all(c.passed for c in conditions), tuple(conditions), f.order)


def _reference_sample(spec, h):
    """sample_element's product, rebuilt factor by factor on each call."""
    out = TaylorSeries([1.0 + 0j])
    for a, m in spec.inner.zeros:
        for _ in range(m):
            out = multiply(out, TaylorSeries([-a, 1.0]))
    for z in spec.boundary_sets[0]:
        depth = 1 + max(j for j, ks in enumerate(spec.boundary_sets)
                        if any(abs(z - w) <= 1e-9 for w in ks))
        for _ in range(depth):
            out = multiply(out, TaylorSeries([-z, 1.0]))
    if spec.zero_mode:
        out = multiply(out, monomial(spec.n, 1.0))
    return multiply(out, h)


ATOM = SubspaceSpec(((1j,),), InnerFunction(atoms=((math.pi / 2, 0.5),)), SpaceParams(1, 2.0))

DEPTH_3 = SubspaceSpec(((1 + 0j, -1 + 0j, 1j), (1 + 0j, -1 + 0j), (1 + 0j,)),
                       InnerFunction(zeros=((0.4 - 0.2j, 2),)), SpaceParams(3, 2.0),
                       zero_mode=True)

# a triple zero: its order-2 residual reads derivative(f, 2)
TRIPLE = SubspaceSpec(((1j,), (1j,), (1j,)), InnerFunction(zeros=((0.5 + 0.3j, 3),)),
                      SpaceParams(3, 2.0))

# n = 1 with a zero of multiplicity 4: its residuals read derivatives past
# the n that the boundary conditions and scales read
QUADRUPLE = SubspaceSpec(((1j,),), InnerFunction(zeros=((0.3 - 0.4j, 4),)),
                         SpaceParams(1, 2.0))


def _random_poly(rng, degree):
    """A unit-box complex polynomial of exactly the given degree."""
    return TaylorSeries(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))


def _exact_copy(f):
    """The exact series with f's coefficients, each double as a Fraction."""
    return TaylorSeries([RationalComplex(Fraction(c.real), Fraction(c.imag)) for c in f.coeffs])


class TestSpecCache:
    """A spec's claims, generator and condition labels are computed once;
    every result is the one the uncached formulas give."""

    @pytest.mark.parametrize("name, spec", [*fixed_specs(), ("nested-free", NESTED),
                                            ("depth-3-double-zero", DEPTH_3),
                                            ("depth-3-triple-zero", TRIPLE),
                                            ("quadruple-zero", QUADRUPLE)])
    def test_membership_matches_the_uncached_reference(self, name, spec):
        rng = np.random.default_rng(41)
        # the degree-300 h puts every derivative past the 256-node floor
        hs = [random_series(rng, 8) for _ in range(6)] + [_random_poly(rng, 300)]
        for h in hs:
            f = sample_element(spec, h)
            assert f == _reference_sample(spec, h)
            for g in (f, shift(f), membership_module._perturbed(f), 1e-7 * shift(f)):
                assert membership(g, spec) == _reference_membership(g, spec)
                # the same values as exact coefficients, Fractions of the doubles
                exact = _exact_copy(g)
                assert membership(exact, spec) == _reference_membership(exact, spec)
        zero = TaylorSeries([0.0, 0.0])
        assert membership(zero, spec) == _reference_membership(zero, spec)
        exact = TaylorSeries([3, 0, -3])  # 3(1 - z^2), a member of none of these specs
        assert membership(exact, spec) == _reference_membership(exact, spec)

    def test_atom_spec_matches_the_uncached_reference(self):
        rng = np.random.default_rng(42)
        for degree in (0, 1, 5, 40):
            f = multiply(TaylorSeries([-1j, 1.0]), random_series(rng, degree))
            for g in (f, shift(f), membership_module._perturbed(f)):
                assert membership(g, ATOM) == _reference_membership(g, ATOM)

    def test_invalid_spec_raises_the_same_message_on_every_call(self):
        spec = SubspaceSpec(((1 + 0j,), (-1 + 0j,)), TRIVIAL, SpaceParams(2, 2.0))
        messages = set()
        for call in (lambda: membership(TaylorSeries([1.0]), spec),
                     lambda: sample_element(spec, TaylorSeries([1.0])),
                     lambda: ensure_valid(spec)) * 3:
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        assert messages == {"invalid subspace spec: K_1 point -1+0j missing from K_0"}
        assert not validate_spec(spec).passed and not validate_spec(spec).passed

    def test_validation_and_generator_run_once_per_spec(self, monkeypatch):
        calls = Counter()
        for name in ("_structural_claims", "_generator_of", "_condition_labels"):
            def counted(spec, name=name, real=getattr(membership_module, name)):
                calls[name] += 1
                return real(spec)
            monkeypatch.setattr(membership_module, name, counted)
        spec = SubspaceSpec(((1 + 0j, -1 + 0j), (1 + 0j,)), TRIVIAL, SpaceParams(2, 2.0))
        members = [sample_element(spec, TaylorSeries([1.0, 0.1 * k])) for k in range(10)]
        for k in range(50):
            membership(members[k % 10], spec)
        assert calls == {"_structural_claims": 1, "_generator_of": 1, "_condition_labels": 1}
        # the cache is kept on the object: equality and hashing read the fields
        twin = SubspaceSpec(((1 + 0j, -1 + 0j), (1 + 0j,)), TRIVIAL, SpaceParams(2, 2.0))
        assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
        validate_spec(twin)
        assert calls["_structural_claims"] == 2

    def test_validation_reports_are_independent(self):
        first, second = validate_spec(NESTED), validate_spec(NESTED)
        assert first.claims == second.claims and first.claims is not second.claims
        first.add("extra", True, 0.0, "")
        assert len(second.claims) == len(first.claims) - 1
        assert validate_spec(NESTED).claims == second.claims


class TestLogDistanceIntegral:
    def test_single_point_integral_is_zero(self):
        # exact value 0 by the mean value property of log|z - 1|;
        # the midpoint rule carries an O(log(2)/M) discretization bias
        spec = SubspaceSpec(((1 + 0j,),), TRIVIAL, SpaceParams(1, 2.0))
        assert abs(log_distance_integral(spec)) < 2e-3

    def test_antipodal_pair_matches_closed_form(self):
        # 4 * integral_0^{pi/2} log(2 sin(t/2)) dt = -4 * Catalan
        spec = SubspaceSpec(((1 + 0j, -1 + 0j),), TRIVIAL, SpaceParams(1, 2.0))
        catalan = 0.915965594177219
        assert log_distance_integral(spec) == pytest.approx(
            -4.0 * catalan, abs=5e-3
        )

    def test_point_on_a_midpoint_node_gives_a_finite_value(self):
        # exp(i * 2pi * 7.5 / 4096) is the eighth midpoint node; a node on
        # it would give log(0) = -inf, so the nodes move half a gap off it
        point = cmath.exp(1j * 2 * math.pi * 7.5 / 4096)
        spec = SubspaceSpec(((point,),), TRIVIAL, SpaceParams(1, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = log_distance_integral(spec)
        assert math.isfinite(value) and abs(value) < 2e-3

    def test_points_on_the_node_grid_keep_the_midpoint_rule(self):
        # 1 and i sit on the unshifted node grid, so the nodes land halfway
        # between grid points, as in the plain midpoint rule
        spec = SubspaceSpec(((1 + 0j, 1j),), TRIVIAL, SpaceParams(1, 2.0))
        nodes = np.exp(1j * (np.arange(4096) + 0.5) * (2 * math.pi / 4096))
        dist = np.minimum(np.abs(nodes - 1), np.abs(nodes - 1j))
        midpoint = float(np.sum(np.log(dist)) * (2 * math.pi / 4096))
        assert log_distance_integral(spec) == pytest.approx(midpoint, rel=1e-9)

    def test_empty_union_is_infinite(self):
        spec = SubspaceSpec(((),), TRIVIAL, SpaceParams(1, 2.0))
        assert log_distance_integral(spec) == math.inf

    def test_blaschke_zero_counts_toward_the_distance(self):
        spec = SubspaceSpec(((),), ONE_ZERO.inner, SpaceParams(1, 2.0))
        assert math.isfinite(log_distance_integral(spec))


class TestInvarianceHarnesses:
    def test_shift_invariance_passes(self):
        rep = shift_invariance_check(NESTED, samples=10, seed=1)
        assert rep.passed

    def test_shift_invariance_negative_control_fails_with_witness(self):
        rep = shift_invariance_check(NESTED, samples=10, seed=1, negative_control=True)
        assert not rep.passed
        assert "sample=" in rep.failures[0].witness

    def test_combined_invariance_passes(self):
        rep = combined_invariance_check(ONE_ZERO, samples=10, seed=1)
        assert rep.passed

    def test_combined_invariance_negative_control_fails(self):
        rep = combined_invariance_check(
            ONE_ZERO, samples=10, seed=1, negative_control=True
        )
        assert not rep.passed
        assert "multiple=2" in rep.failures[0].witness

    @pytest.mark.parametrize("check, spec", [
        (shift_invariance_check, NESTED), (combined_invariance_check, ONE_ZERO)])
    @pytest.mark.parametrize("flag", ["no", 0.0, 1, None], ids=["str", "float", "int", "none"])
    def test_negative_control_that_is_not_a_bool_is_a_value_error(self, check, spec, flag):
        # "no" used to run the twisted harness and 0.0 the plain one
        with pytest.raises(ValueError) as exc:
            check(spec, 3, 1e-9, 0, flag)
        assert str(exc.value) == f"negative_control must be True or False, got {flag!r}"

    def test_combined_harness_needs_zero_mode(self):
        with pytest.raises(ValueError, match="zero"):
            combined_invariance_check(NESTED, samples=2)

    def test_pullback_identity_exact_on_rational_members(self):
        # with zero initial data the lift inverts the derivative exactly,
        # so the pullback of the combined operator is literally shift(f)
        f = TaylorSeries(
            [0, Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(4, 9)]
        )
        n = 1
        pulled = nth_antiderivative(shift_plus_volterra(nth_derivative(f, n), n), n)
        assert pulled == shift(f)
        g = TaylorSeries([0, 0, Fraction(1, 2), Fraction(-5, 11)])
        pulled2 = nth_antiderivative(shift_plus_volterra(nth_derivative(g, 2), 2), 2)
        assert pulled2 == shift(g)


class TestSpecSerialization:
    def test_round_trip_through_json(self):
        blob = json.dumps(spec_to_dict(ONE_ZERO))
        spec = spec_from_dict(json.loads(blob))
        assert spec.boundary_sets == ONE_ZERO.boundary_sets
        assert spec.zero_mode is True
        assert spec.space.n == 1 and spec.space.p == 2.0
        assert spec.inner.zeros == ONE_ZERO.inner.zeros

    def test_missing_key_rejected(self):
        data = spec_to_dict(NESTED)
        del data["n"]
        with pytest.raises(ValueError, match="malformed"):
            spec_from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            spec_from_dict([1, 2, 3])


class TestCountArguments:
    # (call, its exact message where the test pins it)
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: RunConfig(order=8.5), None, id="config-order-8.5"),
        pytest.param(lambda: RunConfig(order=math.inf), None, id="config-order-inf"),
        pytest.param(lambda: RunConfig(samples=2.5), None, id="config-samples-2.5"),
        pytest.param(lambda: RunConfig(samples=0), None, id="config-samples-0"),
        pytest.param(lambda: RunConfig(points=4.5), None, id="config-points-4.5"),
        pytest.param(lambda: RunConfig(seed=1.5), None, id="config-seed-1.5"),
        pytest.param(lambda: RunConfig(tol="1e-9"), None, id="config-tol-string"),
        pytest.param(lambda: RunConfig(negative_control=1), None,
                     id="config-negative-control-1"),
        pytest.param(lambda: RunConfig(order=True), None, id="config-order-bool"),
        pytest.param(lambda: SpaceParams(True, 2.0), None, id="space-depth-bool"),
        pytest.param(lambda: derivative(TaylorSeries([1.0, 2.0]), True), None,
                     id="derivative-count-bool"),
        pytest.param(lambda: nth_derivative(TaylorSeries([1.0, 2.0]), True), None,
                     id="operator-n-bool"),
        pytest.param(lambda: sampled_members(ONE_ZERO, 2.5), None, id="members-count-2.5"),
        pytest.param(lambda: sampled_members(ONE_ZERO, 2, seed=1.5), None,
                     id="members-seed-1.5"),
        pytest.param(lambda: shift_invariance_check(ONE_ZERO, samples=2.5), None,
                     id="shift-samples-2.5"),
        pytest.param(lambda: shift_invariance_check(ONE_ZERO, samples=0), None,
                     id="shift-samples-0"),
        pytest.param(lambda: combined_invariance_check(ONE_ZERO, samples=2.5), None,
                     id="combined-samples-2.5"),
        pytest.param(lambda: boundary_unimodularity_defect(ONE_ZERO.inner, 16.5), None,
                     id="defect-samples-16.5"),
        pytest.param(lambda: boundary_unimodularity_defect(ONE_ZERO.inner, math.inf), None,
                     id="defect-samples-inf"),
        # a bool is not a count, nor is a negative integer
        pytest.param(lambda: RunConfig(seed=-1), "seed must be an integer >= 0, got -1",
                     id="config-seed--1"),
        pytest.param(lambda: QuadratureConfig(num_points=True),
                     "num_points must be an integer >= 4, got True", id="quadrature-points-bool"),
        pytest.param(lambda: monomial(-1), "degree must be an integer >= 0, got -1",
                     id="monomial--1"),
        pytest.param(lambda: derivative(TaylorSeries([1.0, 2.0]), -1),
                     "derivative count must be an integer >= 0, got -1", id="derivative-count--1"),
        pytest.param(lambda: shift_plus_volterra(TaylorSeries([1.0, 2.0]), True),
                     "operator parameter n must be an integer >= 1, got True",
                     id="combined-n-bool"),
        pytest.param(lambda: nth_antiderivative(TaylorSeries([1.0, 2.0]), -1),
                     "operator parameter n must be an integer >= 1, got -1",
                     id="antiderivative-n--1"),
        pytest.param(lambda: InnerFunction(zeros=((0.5, True),)),
                     "zero multiplicity must be an integer >= 1, got True",
                     id="zero-multiplicity-bool"),
        pytest.param(lambda: sampled_members(ONE_ZERO, -1),
                     "count must be an integer >= 0, got -1", id="members-count--1"),
        pytest.param(lambda: combined_invariance_check(ONE_ZERO, samples=1, seed=True),
                     "seed must be an integer >= 0, got True", id="combined-seed-bool"),
    ])
    def test_non_integral_or_empty_count_is_a_value_error(self, call, message):
        # most used to truncate, or raise OverflowError or ZeroDivisionError
        with pytest.raises(ValueError) as exc:
            call()
        assert message is None or str(exc.value) == message

    def test_integral_counts_are_stored_as_ints(self):
        cfg = RunConfig(order=8.0, points=256.0, seed=7.0, samples=2.0)
        assert [type(v) for v in (cfg.order, cfg.points, cfg.seed, cfg.samples)] == [int] * 4
        report = shift_invariance_check(ONE_ZERO, samples=2.0, seed=3.0)
        assert report.claims[0].config.startswith("samples=2 tol=1e-09 seed=3 ")
        for points in (4096.0, np.int64(4096)):
            stored = QuadratureConfig(num_points=points).num_points
            assert type(stored) is int and stored == 4096
