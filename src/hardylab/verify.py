"""The verification battery: seeded, deterministic suites that re-measure
the package's mathematical claims and render them as a report.

Each suite draws its randomness from a generator seeded by (run seed,
suite index), so a suite produces identical draws whether it runs alone or
inside ``all``.  With ``negative_control`` enabled every suite twists its
own check (wrong constant, wrong operator multiple, biased quadrature, or
mutated sample) and the twisted claims are expected to fail; that is the
battery's own falsifiability check.

A suite that measures norms reads each draw back with its values from
:func:`_measured`, which takes the draws in blocks of at most the norms
module's budget of 8192 coefficients (``norms._blocks``; one larger draw is
a block of its own) and measures a block in one ``_hp_norms`` or
``_grid_peaks`` call per key.  No draw depends on a result, and a batched
value equals its one-series value bit for bit, so each claim's tracker sees
the margins a sample-by-sample loop makes, in its order; no suite sums a
norm of its own, each S^n_p norm coming from ``norms._sn_parts``.  The
coefficient identities have nothing to batch and loop over their draws directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .membership import (
    SubspaceSpec,
    _perturbed,
    combined_invariance_check,
    log_distance_integral,
    membership,
    random_series,
    sampled_members,
    shift_invariance_check,
    validate_spec,
)
from .inner import InnerFunction
from .norms import (
    QuadratureConfig,
    SpaceParams,
    _blocks,
    _family_parts,
    _grid_peaks,
    _hp_norms,
    _sn_parts,
    _sup_slack,
    _sup_upper,
    _unrolled_parts,
    hardy_sum,
)
from .operators import (
    lift_approximant,
    nth_antiderivative,
    nth_derivative,
    shift,
    shift_plus_volterra,
    volterra,
)
from .report import ClaimResult, VerificationReport, _Tracker
from .series import (
    TaylorSeries,
    _aligned,
    _check_count,
    _exact_series,
    _reweighted,
    add,
    monomial,
    multiply,
    scale,
    subtract,
)

__all__ = [
    "RunConfig",
    "SUITES",
    "run_suites",
    "fixed_specs",
    "random_series",
    "random_rational_series",
    "zero_head",
    "max_rel_coeff_error",
]

_P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite; defaults match the command line."""

    order: int = 256
    points: int = 4096
    tol: float = 1e-9
    seed: int = 0
    samples: int = 100
    negative_control: bool = False

    def __post_init__(self):
        for name, minimum in (("order", 0), ("points", 4), ("seed", 0), ("samples", 1)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, minimum))
        if not (isinstance(self.tol, numbers.Real) and 0 < self.tol < 1):
            raise ValueError(f"tol must be a real number in (0, 1), got {self.tol!r}")
        if not isinstance(self.negative_control, bool):
            raise ValueError(
                f"negative_control must be True or False, got {self.negative_control!r}")


def random_rational_series(rng, max_degree):
    """Random exact-mode polynomial, coefficients in the unit box with
    denominator 64."""
    deg = int(rng.integers(0, max_degree + 1))
    re, im = [], []
    for _ in range(deg + 1):
        re.append(int(rng.integers(-64, 65)))
        im.append(int(rng.integers(-64, 65)))
    return _exact_series(re, im, 64)


def zero_head(f, n):
    """Project into zero initial data: blank the first n coefficients."""
    return _reweighted(f, start=min(n, f.order + 1))


@np.errstate(over="ignore", invalid="ignore")
def max_rel_coeff_error(f, g):
    """Worst per-coefficient relative difference between two series; where
    a difference and a modulus both leave double range it is inf, so that the
    check it feeds fails."""
    a, b = _aligned(f, g)
    d = a - b
    # np.hypot is the abs of Python complex; np.abs rounds otherwise
    denom = np.maximum(np.hypot(a.real, a.imag), np.hypot(b.real, b.imag))
    # where denom is 0 so are a, b and their difference: the 0 stays
    err = np.hypot(d.real, d.imag)
    worst = float(np.divide(err, denom, out=err, where=denom > 0).max())
    # inf / inf, an overflowed difference over an overflowed modulus
    return math.inf if math.isnan(worst) else worst


def _exact_eq_margin(a, b):
    return 0.0 if a == b else -1.0


def _measured(draws, measure):
    """``(draw, values)`` for each draw, in draw order.  ``measure(*draw)``
    lists the draw's requests ``(key, rows, finish)``, with key
    ``(_hp_norms, p, cfg)`` or ``(_grid_peaks, floor)``.  The draws come in
    :func:`_blocks` blocks, pulled at most one draw ahead of the block
    yielded; a block's rows are measured in one ``key[0](rows, *key[1:])``
    call per key, and ``values`` holds each request's slice of them in
    request order, passed through ``finish`` unless that is None."""
    for block in _blocks(draws):
        groups, asked = {}, []
        for draw in block:
            spans = []
            for key, rows, finish in measure(*draw):
                group = groups.setdefault(key, [])
                spans.append((group, len(group), len(group) + len(rows), finish))
                group += rows
            asked.append(spans)
        for key, group in groups.items():  # each group's rows give way to their values
            group[:] = key[0](group, *key[1:])
        for draw, spans in zip(block, asked):
            yield draw, [group[lo:hi] if finish is None else finish(group[lo:hi])
                         for group, lo, hi, finish in spans]


def suite_hardy_sum(cfg):
    """Coefficient-sum inequality: sum |c_k|/(k+1) <= pi * H^1 norm."""
    samples = 1000
    rng = np.random.default_rng([cfg.seed, 1])
    qcfg = QuadratureConfig(num_points=cfg.points)
    const = 1.0 if cfg.negative_control else math.pi
    t = _Tracker()
    key = (_hp_norms, 1.0, qcfg)
    draws = ((idx, random_series(rng, cfg.order)) for idx in range(samples))
    for (idx, f), ((norm,),) in _measured(draws, lambda idx, f: [(key, [f], None)]):
        t.record(const * norm + cfg.tol - hardy_sum(f), sample=idx, coeffs=f)
    claims = [
        t.claim(
            "hardy-sum.random",
            f"samples={samples} degree<={cfg.order} points={cfg.points} "
            f"tol={cfg.tol} seed={cfg.seed} const={const!r}",
        )
    ]
    t = _Tracker()
    family = [TaylorSeries([float(math.comb(d, k)) for k in range(d + 1)]) for d in range(33)]
    for d, (f, norm) in enumerate(zip(family, _hp_norms(family, 1.0, qcfg))):
        ratio = hardy_sum(f) / norm
        t.record(const - ratio, d=d, ratio=ratio)
    claims.append(
        t.claim(
            "hardy-sum.binomial-family",
            f"family=(1+z)^d d<=32 points={cfg.points} const={const!r}",
        )
    )
    return claims


def suite_sup_chain(cfg):
    """Sup-norm bound and the one-step chain between derivative-space norms."""
    samples = 500
    rng = np.random.default_rng([cfg.seed, 2])
    qcfg = QuadratureConfig(num_points=cfg.points)
    const = 1.0 / math.pi if cfg.negative_control else math.pi
    t_sup, t_chain = _Tracker(), _Tracker()
    draws = ((idx, random_series(rng, cfg.order), 1 + idx % 4, _P_GRID[idx % len(_P_GRID)])
             for idx in range(samples))
    # the sup-bound reads only hi: the grid max, with no walk to the peak
    peaks = (_grid_peaks, cfg.points)

    def measure(idx, f, n, p):
        return [((_hp_norms, p, qcfg), *_sn_parts([(f, (1, n - 1, n))])), (peaks, [f], None)]

    for (idx, f, n, p), ((at_one, lower, upper), ((grid, _, _),)) in _measured(draws, measure):
        witness = dict(sample=idx, n=n, p=p, coeffs=f)
        t_sup.record(const * at_one + cfg.tol - _sup_upper(f, qcfg, grid), **witness)
        t_chain.record(const * upper + cfg.tol - lower, **witness)
    shared = (
        f"samples={samples} degree<={cfg.order} points={cfg.points} "
        f"tol={cfg.tol} seed={cfg.seed} const={const!r}"
    )
    return [
        t_sup.claim("sup-chain.sup-bound", shared),
        t_chain.claim("sup-chain.norm-chain", shared),
    ]


def suite_norm_equivalence(cfg):
    """Equivalent-norm comparisons, with the two-sided empirical ratio
    recorded (only the pi-power side is proved one-sided)."""
    samples = 200
    rng = np.random.default_rng([cfg.seed, 3])
    qcfg = QuadratureConfig(num_points=cfg.points)
    factor = 0.1 if cfg.negative_control else 1.0
    t_a, t_b, t_c = _Tracker(), _Tracker(), _Tracker()
    ratio1 = [math.inf, 0.0]
    ratio2 = [math.inf, 0.0]
    draws = ((idx, random_series(rng, cfg.order), 1 + idx % 3, _P_GRID[idx % len(_P_GRID)])
             for idx in range(samples))

    def measure(idx, f, n, p):
        return [((_hp_norms, p, qcfg), *_family_parts(f, SpaceParams(n, p), qcfg))]

    for (idx, f, n, p), ((_, base, dsum, ssum),) in _measured(draws, measure):
        witness = dict(sample=idx, n=n, p=p, coeffs=f)
        # ssum adds each sup's lower end, at least its grid max.  f's slack
        # 1/sqrt(cos(pi N/m)), m = max(points, 4(N + 1)), bounds every
        # derivative's, as N/m does not grow as N drops, so ssum times it
        # bounds the sup-sum above
        ssum_hi = ssum * _sup_slack(f, qcfg)
        chain_const = 1.0 + math.fsum(math.pi**k for k in range(1, n + 1))
        t_a.record(factor * dsum + cfg.tol - base, **witness)
        t_b.record(factor * ssum + cfg.tol - dsum, **witness)
        t_c.record(factor * chain_const * base + cfg.tol - ssum_hi, **witness)
        if base > 1e-300:
            ratio1[0] = min(ratio1[0], dsum / base)
            ratio1[1] = max(ratio1[1], dsum / base)
            ratio2[0] = min(ratio2[0], ssum / base)
            ratio2[1] = max(ratio2[1], ssum / base)
    shared = (
        f"samples={samples} degree<={cfg.order} points={cfg.points} "
        f"tol={cfg.tol} seed={cfg.seed} factor={factor!r}"
    )
    claims = [
        t_a.claim("norm-equivalence.recursive-le-derivative-sum", shared),
        t_b.claim("norm-equivalence.derivative-sum-le-sup-sum", shared),
        t_c.claim("norm-equivalence.sup-sum-le-pi-power-bound", shared),
        ClaimResult(
            "norm-equivalence.empirical-ratio-range", True, 0.0,
            f"{shared} derivative-sum/recursive=[{ratio1[0]!r}, {ratio1[1]!r}] "
            f"sup-sum/recursive=[{ratio2[0]!r}, {ratio2[1]!r}] "
            "note=only the upper pi-power side is proved; the range is empirical",
        ),
    ]
    return claims


def suite_algebra(cfg):
    """Algebra bound for products and the exact approximant norm transfer."""
    pairs, density_samples = 300, 100
    rng = np.random.default_rng([cfg.seed, 4])
    qcfg = QuadratureConfig(num_points=cfg.points)
    factor = 0.1 if cfg.negative_control else 1.0
    t_alg = _Tracker()
    draws = ((idx, random_series(rng, cfg.order), random_series(rng, cfg.order),
              1 + idx % 3, _P_GRID[idx % len(_P_GRID)]) for idx in range(pairs))

    def measure(idx, f, g, n, p):
        return [((_hp_norms, p, qcfg), *_sn_parts([(h, (n,)) for h in (f, g, multiply(f, g))]))]

    for (idx, f, g, n, p), ((sn_f, sn_g, sn_fg),) in _measured(draws, measure):
        bound = (2.0**n * (1.0 + math.pi**n) - 1.0) * sn_f * sn_g
        margin = factor * bound + cfg.tol - sn_fg
        t_alg.record(margin, pair=idx, n=n, p=p, f=f, g=g)
    claims = [
        t_alg.claim(
            "algebra.product-bound",
            f"pairs={pairs} degree<={cfg.order} points={cfg.points} "
            f"tol={cfg.tol} seed={cfg.seed} factor={factor!r}",
        )
    ]

    # the transfer identity is checked at moderate degree: the absolute
    # tolerance 1e-10 is only meaningful while the n-th derivative keeps
    # its coefficients (and hence the norms) near unit scale
    t_den, t_dex = _Tracker(), _Tracker()
    density_tol = 1e-10
    density_degree = min(cfg.order, 16)

    def density_draw(idx):
        f = random_series(rng, density_degree)
        pm = random_series(rng, density_degree)
        # negative control: lift a different polynomial, the transfer identity must break
        lift_pm = random_series(rng, 4) if cfg.negative_control else pm
        return (idx, f, pm, lift_pm, random_rational_series(rng, 32),
                random_rational_series(rng, 32), 1 + idx % 3, _P_GRID[idx % len(_P_GRID)])

    def density_measure(idx, f, pm, lift_pm, fr, pr, n, p):
        # the right side's H^p norm is its sn_norm at depth 0
        asks = [(subtract(lift_approximant(f, lift_pm, n), f), (n,)),
                (subtract(pm, nth_derivative(f, n)), (0,))]
        return [((_hp_norms, p, qcfg), *_sn_parts(asks))]

    measured = _measured((density_draw(idx) for idx in range(density_samples)), density_measure)
    for (idx, f, pm, lift_pm, fr, pr, n, p), ((lhs, rhs),) in measured:
        t_den.record(density_tol - abs(lhs - rhs), sample=idx, n=n, p=p, f=f, pm=pm)
        # exact arithmetic collapses the identity at the coefficient level
        diff = subtract(lift_approximant(fr, pr, n), fr)
        t_dex.record(
            _exact_eq_margin(nth_derivative(diff, n), subtract(pr, nth_derivative(fr, n))),
            sample=idx, n=n, f=fr, pm=pr,
        )
    claims += [
        t_den.claim("algebra.approximant-norm-transfer",
                    f"samples={density_samples} degree<={density_degree} "
                    f"points={cfg.points} tol={density_tol} seed={cfg.seed}"),
        t_dex.claim("algebra.approximant-transfer-exact",
                    f"samples={density_samples} degree<=32 seed={cfg.seed} mode=exact"),
    ]

    t_rec, t_recf = _Tracker(), _Tracker()
    draws = ((idx, random_rational_series(rng, 32), random_series(rng, cfg.order))
             for idx in range(50))
    for idx, fr, ff in draws:
        n = 1 + idx % 3
        rebuilt = lift_approximant(fr, nth_derivative(fr, n), n)
        t_rec.record(_exact_eq_margin(rebuilt, fr), sample=idx, n=n, f=fr)
        rebuilt = lift_approximant(ff, nth_derivative(ff, n), n)
        t_recf.record(1e-13 - max_rel_coeff_error(rebuilt, ff), sample=idx, n=n, f=ff)
    return claims + [
        t_rec.claim("algebra.reconstruction.rational",
                    f"samples=50 degree<=32 seed={cfg.seed} mode=exact"),
        t_recf.claim("algebra.reconstruction.float",
                     f"samples=50 degree<={cfg.order} seed={cfg.seed} rel-tol=1e-13"),
    ]


def suite_parseval(cfg):
    """Quadrature cross-validation: trapezoid vs coefficient-sum branches."""
    samples = 500
    rng = np.random.default_rng([cfg.seed, 5])
    bias = 1.0 + 1e-6 if cfg.negative_control else 1.0
    rel_tol = 1e-12
    two_trap = (_hp_norms, 2.0, QuadratureConfig(num_points=cfg.points, mode="trapezoid"))
    two_pars = (_hp_norms, 2.0, QuadratureConfig(num_points=cfg.points, mode="parseval"))
    t_two, t_even = _Tracker(), _Tracker()
    draws = ((idx, random_series(rng, cfg.order), (4.0, 6.0, 8.0)[idx % 3])
             for idx in range(samples))

    def measure(idx, f, p):
        pts = max(cfg.points, int(p) * f.order + 1)
        return [(two_trap, [f], None), (two_pars, [f], None),
                ((_hp_norms, p, QuadratureConfig(num_points=pts, mode="trapezoid")), [f], None),
                ((_hp_norms, p, QuadratureConfig(num_points=pts, mode="power-trick")), [f], None)]

    for (idx, f, p), ((a2,), (b2,), (ap,), (bp,)) in _measured(draws, measure):
        for t, a, b in ((t_two, a2, b2 * bias), (t_even, ap, bp * bias)):
            t.record(rel_tol - abs(a - b) / max(a, b, 1e-300), sample=idx, coeffs=f)
    shared = (
        f"samples={samples} degree<={cfg.order} points>={cfg.points} "
        f"rel-tol={rel_tol} seed={cfg.seed} bias={bias!r}"
    )
    return [
        t_two.claim("parseval.p2-trapezoid-vs-coefficients", shared),
        t_even.claim("parseval.even-p-trapezoid-vs-power-trick", shared),
    ]


def suite_intertwine(cfg):
    """The derivative intertwining, its Leibniz form, round trips, the
    closed-form cross-check, and the norm isometry of the n-fold
    antiderivative."""
    intertwine_samples, isometry_samples = 500, 200
    rng = np.random.default_rng([cfg.seed, 6])
    qcfg = QuadratureConfig(num_points=cfg.points)
    wrong = 1 if cfg.negative_control else 0
    rational_degree = min(cfg.order, 64)
    rel_tol = 1e-13

    t_rat, t_flt = _Tracker(), _Tracker()
    t_leib, t_closed = _Tracker(), _Tracker()
    t_rt, t_rtf = _Tracker(), _Tracker()
    draws = ((idx, random_rational_series(rng, rational_degree), random_series(rng, cfg.order))
             for idx in range(intertwine_samples))
    for idx, fr, ff in draws:
        # the operands that do not depend on n, built once per sample; the
        # composed operator is their sum shift(f) + n * volterra(f, z)
        shifted, integrated = shift(fr), volterra(fr, monomial(1))
        lower = fr  # derivative(fr, n - 1): the previous n's nth_derivative
        for n in range(1, 6):
            wit_r = dict(sample=idx, n=n, f=fr)
            wit_f = dict(sample=idx, n=n, f=ff)
            # intertwining lives on the zero-initial-data subspace; the n-th
            # derivative drops the n coefficients zero_head blanks, so dg is
            # also nth_derivative(fr, n), the same canonical exact series
            g = zero_head(fr, n)
            dg = nth_derivative(g, n)
            lhs = nth_derivative(shift(g), n)
            rhs = shift_plus_volterra(dg, n + wrong)
            t_rat.record(_exact_eq_margin(lhs, rhs), **wit_r)
            gf = zero_head(ff, n)
            lhs = nth_derivative(shift(gf), n)
            rhs = shift_plus_volterra(nth_derivative(gf, n), n + wrong)
            t_flt.record(rel_tol - max_rel_coeff_error(lhs, rhs), **wit_f)
            # Leibniz form holds for every polynomial, no projection
            lhs = nth_derivative(shifted, n)
            rhs = add(shift(dg), scale(lower, n + wrong))
            t_leib.record(_exact_eq_margin(lhs, rhs), **wit_r)
            lower = dg
            t_closed.record(
                _exact_eq_margin(
                    shift_plus_volterra(fr, n), add(shifted, scale(integrated, n))
                ),
                **wit_r,
            )
            t_rt.record(
                _exact_eq_margin(nth_derivative(nth_antiderivative(fr, n), n), fr),
                **wit_r,
            )
            t_rt.record(_exact_eq_margin(nth_antiderivative(dg, n), g), **wit_r)
            t_rtf.record(
                rel_tol
                - max_rel_coeff_error(nth_derivative(nth_antiderivative(ff, n), n), ff),
                **wit_f,
            )
    shared = (
        f"samples={intertwine_samples} n=1..5 rational-degree<={rational_degree} "
        f"float-degree<={cfg.order} seed={cfg.seed} wrong-multiple={wrong}"
    )
    claims = [
        t_rat.claim("intertwine.rational", f"{shared} mode=exact"),
        t_flt.claim("intertwine.float", f"{shared} rel-tol={rel_tol}"),
        t_leib.claim("intertwine.leibniz-all-polynomials", f"{shared} mode=exact"),
        t_closed.claim("intertwine.closed-vs-composed", f"{shared} mode=exact"),
        t_rt.claim("intertwine.roundtrip.rational", f"{shared} mode=exact"),
        t_rtf.claim("intertwine.roundtrip.float", f"{shared} rel-tol={rel_tol}"),
    ]

    t_iso = _Tracker()
    iso_tol = 1e-9
    depths = (1, 2, 3, 4)
    keys = [(_hp_norms, p, qcfg) for p in _P_GRID]

    def measure(idx, f):
        # the ladders do not depend on p: build them once, f's H^p norm
        # being its sn_norm at depth 0
        rows, finish = _sn_parts([(f, (0,))] + [(nth_antiderivative(f, n + wrong), (n,))
                                                for n in depths])
        return [(key, rows, finish) for key in keys]

    draws = ((idx, random_series(rng, cfg.order)) for idx in range(isometry_samples))
    for (idx, f), values in _measured(draws, measure):
        for p, (rhs, *lifted) in zip(_P_GRID, values):
            for n, lhs in zip(depths, lifted):
                t_iso.record(iso_tol - abs(lhs - rhs), sample=idx, n=n, p=p, coeffs=f)
    claims.append(
        t_iso.claim(
            "intertwine.antiderivative-isometry",
            f"samples={isometry_samples} n=1..4 p={_P_GRID} degree<={cfg.order} "
            f"points={cfg.points} tol={iso_tol} seed={cfg.seed} "
            f"wrong-multiple={wrong}",
        )
    )
    return claims


def fixed_specs():
    """The three fixed invariance-harness subspaces."""
    one_zero = SubspaceSpec(
        ((1.0 + 0j,),),
        InnerFunction(zeros=((0.5 + 0j, 1),)),
        SpaceParams(1, 2.0),
        zero_mode=True,
    )
    nested = SubspaceSpec(
        ((1.0 + 0j, -1.0 + 0j), (1.0 + 0j,)),
        InnerFunction(),
        SpaceParams(2, 2.0),
        zero_mode=True,
    )
    two_zero = SubspaceSpec(
        ((1.0 + 0j,),),
        InnerFunction(zeros=((0.3 + 0j, 1), (-0.5j, 1))),
        SpaceParams(1, 2.0),
        zero_mode=True,
    )
    return (("one-zero", one_zero), ("nested", nested), ("two-zero", two_zero))


def suite_invariance(cfg):
    """Structural validation plus both invariance harnesses on the three
    fixed subspaces."""
    claims = []
    for name, spec in fixed_specs():
        for c in validate_spec(spec).claims:
            claims.append(replace(c, claim=f"invariance.{name}.{c.claim}"))
        rho = log_distance_integral(spec)
        claims.append(
            ClaimResult(
                f"invariance.{name}.log-distance-finite",
                math.isfinite(rho),
                0.0,
                f"value={rho!r} points=4096 "
                "note=finite point sets make integrability automatic",
                None if math.isfinite(rho) else f"integral={rho!r}",
            )
        )
        claims.extend(
            shift_invariance_check(
                spec, cfg.samples, cfg.tol, cfg.seed, cfg.negative_control,
                claim=f"invariance.{name}.shift-invariance",
            ).claims
        )
        claims.extend(
            combined_invariance_check(
                spec, cfg.samples, cfg.tol, cfg.seed, cfg.negative_control,
                claim=f"invariance.{name}.pullback-invariance",
            ).claims
        )
    return claims


def suite_scale(cfg):
    """Membership verdicts must not move under rescaling by 1e6 or 1e-6."""
    claims = []
    for spec_index, (name, spec) in enumerate(fixed_specs()):
        t = _Tracker()
        members = sampled_members(spec, cfg.samples, cfg.seed, cfg.tol)
        for idx, f in enumerate(members):
            for stage, g in (("element", f), ("shifted", shift(f))):
                variants = [g, scale(g, 1e6), scale(g, 1e-6)]
                if cfg.negative_control:
                    variants[1] = scale(_perturbed(g), 1e6)
                verdicts = [membership(v, spec, cfg.tol).member for v in variants]
                t.record(0.0, len(set(verdicts)) == 1,
                         sample=idx, stage=stage, verdicts=verdicts, coeffs=f)
        claims.append(
            t.claim(
                f"scale.{name}.verdict-invariance",
                f"samples={cfg.samples} factors=(1e6,1e-6) tol={cfg.tol} "
                f"seed={cfg.seed} spec-index={spec_index} "
                f"negative-control={'on' if cfg.negative_control else 'off'}",
            )
        )
    return claims


def suite_norms_consistency(cfg):
    """Recursive vs unrolled derivative-space norm agreement."""
    samples = 200
    rng = np.random.default_rng([cfg.seed, 9])
    qcfg = QuadratureConfig(num_points=cfg.points)
    bias = 1.0 + 1e-6 if cfg.negative_control else 1.0
    rel_tol = 1e-12
    t = _Tracker()
    draws = ((idx, random_series(rng, cfg.order), 1 + idx % 4, _P_GRID[idx % len(_P_GRID)])
             for idx in range(samples))

    def measure(idx, f, n, p):
        return [((_hp_norms, p, qcfg), *_unrolled_parts(f, n))]

    for (idx, f, n, p), ((a, b),) in _measured(draws, measure):
        b *= bias
        t.record(rel_tol - abs(a - b) / max(a, b, 1e-300), sample=idx, n=n, p=p, coeffs=f)
    return [
        t.claim(
            "norms.recursive-vs-unrolled",
            f"samples={samples} degree<={cfg.order} points={cfg.points} "
            f"rel-tol={rel_tol} seed={cfg.seed} bias={bias!r}",
        )
    ]


SUITES = {
    "hardy-sum": suite_hardy_sum,
    "sup-chain": suite_sup_chain,
    "norm-equivalence": suite_norm_equivalence,
    "algebra": suite_algebra,
    "parseval": suite_parseval,
    "norms": suite_norms_consistency,
    "intertwine": suite_intertwine,
    "invariance": suite_invariance,
    "scale": suite_scale,
}


def run_suites(names, cfg):
    """Run the named suites in registry order and collect one report."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite names {unknown}; valid names: {list(SUITES)}"
        )
    ordered = [n for n in SUITES if n in set(names)]
    report = VerificationReport(
        header=(
            ("order", cfg.order),
            ("points", cfg.points),
            ("tol", repr(cfg.tol)),
            ("seed", cfg.seed),
            ("samples", cfg.samples),
            ("negative-control", "on" if cfg.negative_control else "off"),
            ("suites", ",".join(ordered)),
        )
    )
    for name in ordered:
        report.claims.extend(SUITES[name](cfg))
    return report
