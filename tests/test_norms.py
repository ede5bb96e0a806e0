"""Boundary-quadrature norms against closed-form values and invariants."""

import math
from collections import Counter

import numpy as np
import pytest

from hardylab import (
    QuadratureConfig,
    SpaceParams,
    TaylorSeries,
    boundary_values,
    boundary_scale,
    derivative_sum_norm,
    hardy_sum,
    hp_norm,
    integral_mean,
    sn_norm,
    sn_norm_unrolled,
    sup_bracket,
    sup_norm,
    sup_sum_norm,
    zero,
)
from hardylab import norms
from hardylab.series import _smooth_size

ONE_PLUS_Z = TaylorSeries([1.0, 1.0])


class TestClosedFormValues:
    def test_h1_of_one_plus_z(self):
        # (1/2pi) int |1+e^it| dt = 4/pi; the integrand has a corner at
        # t=pi so the trapezoid rule converges polynomially, not spectrally
        assert hp_norm(ONE_PLUS_Z, 1.0) == pytest.approx(4.0 / math.pi, abs=1e-6)

    def test_h2_of_one_plus_z(self):
        assert hp_norm(ONE_PLUS_Z, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_h4_of_one_plus_z(self):
        # mean of |1+e^it|^4 is 6, via the coefficient sum of (1+z)^2
        assert hp_norm(ONE_PLUS_Z, 4.0) == pytest.approx(6.0**0.25, abs=1e-12)

    def test_space_norm_of_quadratic(self):
        f = TaylorSeries([1.0, 1.0, 1.0])
        expected = 1.0 + math.sqrt(5.0)  # |f(0)| + ||1 + 2z||_2
        assert sn_norm(f, SpaceParams(1, 2.0)) == pytest.approx(expected, abs=1e-12)

    def test_equivalent_norms_of_one_plus_z(self):
        params = SpaceParams(1, 2.0)
        assert derivative_sum_norm(ONE_PLUS_Z, params) == pytest.approx(
            math.sqrt(2.0) + 1.0, abs=1e-12
        )
        # sup |1+z| = 2 on the boundary plus the H^2 norm of the derivative
        assert sup_sum_norm(ONE_PLUS_Z, params) == pytest.approx(3.0, abs=1e-9)

    def test_hardy_sum_known(self):
        assert hardy_sum(ONE_PLUS_Z) == pytest.approx(1.5, abs=1e-15)

    def test_monomial_norms(self):
        f = TaylorSeries([0.0, 0.0, 1.0])  # z^2
        for p in (1.0, 1.5, 2.0, 3.0, 4.0):
            assert hp_norm(f, p) == pytest.approx(1.0, abs=1e-12)
        assert sup_norm(f) == pytest.approx(1.0, abs=1e-12)


class TestQuadratureMachinery:
    def test_boundary_values_match_direct_evaluation(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        f = TaylorSeries(c)
        m = 64
        vals = boundary_values(f, m)
        theta = 2.0 * math.pi * np.arange(m) / m
        direct = np.polyval(c[::-1], np.exp(1j * theta))
        assert np.max(np.abs(vals - direct)) < 1e-12

    def test_boundary_values_undersampling_rejected(self):
        f = TaylorSeries([1.0] * 10)
        with pytest.raises(ValueError):
            boundary_values(f, 8)

    def test_oversampling_floor_protects_small_configs(self):
        # the configured 4 points are silently raised to 4*(order+1)
        f = TaylorSeries([1.0] * 11)
        cfg = QuadratureConfig(num_points=4)
        assert hp_norm(f, 2.0, cfg) == pytest.approx(math.sqrt(11.0), abs=1e-12)

    def test_interior_radius_mean(self):
        f = TaylorSeries([3.0, 4.0])
        expected = math.sqrt(9.0 + 16.0 * 0.25)
        assert integral_mean(f, 2.0, 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("points", [4.5, math.inf, math.nan, "8"])
    def test_num_points_must_be_an_integer(self, points):
        with pytest.raises(ValueError, match="num_points"):
            QuadratureConfig(num_points=points)

    @pytest.mark.parametrize("points", [4.5, math.inf, math.nan, "8", -8.0])
    def test_boundary_sample_count_must_be_an_integer(self, points):
        # 4.5 used to give 4 samples, "8" a TypeError, inf an OverflowError
        with pytest.raises(ValueError, match="num_points"):
            boundary_values(ONE_PLUS_Z, points)

    def test_boundary_value_overflow_is_a_value_error(self):
        # used to come back inf or NaN after an FFT overflow warning
        with pytest.raises(ValueError, match="boundary value .* double precision"):
            boundary_values(TaylorSeries([1e308] * 3), 4096)

    def test_integral_boundary_count_stays_accepted(self):
        assert boundary_values(ONE_PLUS_Z, 8.0).size == 8

    def test_boundary_scale_is_the_max_of_its_boundary_values(self):
        rng = np.random.default_rng(36)
        for order in [*range(301), 1023, 4096]:
            f = _random_series(rng, order)
            m = max(256, 4 * (order + 1))
            assert boundary_scale(f) == np.abs(boundary_values(f, m)).max()

    def test_batched_boundary_scales_are_the_one_series_scales(self):
        # below order 64 the rows share 256 nodes, above it each order has
        # its own count; a zero series in a batch takes no row and reads 0.0
        rng = np.random.default_rng(38)
        fs = [_random_series(rng, order) for order in [*range(301), 1023, 4096]]
        fs += [_random_series(rng, order) for order in (1023, 1023, 4096)] + [zero()]
        fs = [fs[i] for i in rng.permutation(len(fs))]
        batches = [fs, fs[:7], fs[-40:], [fs[0]], []]
        for batch in batches:
            scales = norms._boundary_scales(batch)
            assert [type(s) for s in scales] == [float] * len(batch)
            for f, s in zip(batch, scales):
                m = max(256, 4 * (f.order + 1))
                ref = 0.0 if f.is_zero else np.abs(boundary_values(f, m)).max()
                assert s == boundary_scale(f) == ref

    @pytest.mark.filterwarnings("error")
    def test_batched_boundary_scale_beyond_double_range_is_the_one_series_error(self):
        bad = TaylorSeries([1e308, 1e308])
        with pytest.raises(ValueError) as one:
            boundary_scale(bad)
        with pytest.raises(ValueError) as batched:
            norms._boundary_scales([ONE_PLUS_Z, zero(), bad, TaylorSeries([0.5] * 90)])
        assert str(batched.value) == str(one.value)

    @pytest.mark.parametrize("p", ["3", None, 3j])
    def test_exponent_that_is_not_a_number_is_a_value_error(self, p):
        # "3" used to raise TypeError from the comparison
        with pytest.raises(ValueError, match="exponent"):
            hp_norm(ONE_PLUS_Z, p)
        with pytest.raises(ValueError, match="exponent"):
            SpaceParams(1, p)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(mode="fft")
        with pytest.raises(ValueError):
            integral_mean(ONE_PLUS_Z, 3.0, cfg=QuadratureConfig(mode="parseval"))
        with pytest.raises(ValueError):
            integral_mean(ONE_PLUS_Z, 3.0, cfg=QuadratureConfig(mode="power-trick"))

    def test_exponent_and_radius_validation(self):
        with pytest.raises(ValueError):
            integral_mean(ONE_PLUS_Z, 0.5)
        with pytest.raises(ValueError):
            integral_mean(ONE_PLUS_Z, math.inf)
        with pytest.raises(ValueError):
            integral_mean(ONE_PLUS_Z, 2.0, 1.5)
        with pytest.raises(ValueError, match="radius"):
            integral_mean(ONE_PLUS_Z, 2.0, "0.5")
        with pytest.raises(ValueError):
            SpaceParams(-1, 2.0)
        with pytest.raises(ValueError):
            SpaceParams(1, 0.99)

    def test_trapezoid_agrees_with_parseval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            deg = int(rng.integers(0, 40))
            f = TaylorSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
            a = hp_norm(f, 2.0, QuadratureConfig(mode="trapezoid"))
            b = hp_norm(f, 2.0, QuadratureConfig(mode="parseval"))
            assert abs(a - b) <= 1e-12 * max(a, b, 1e-300)

    def test_power_mean_monotone_in_exponent(self):
        # on a fixed sample grid the discrete power mean is monotone in p
        rng = np.random.default_rng(12)
        cfg = QuadratureConfig(mode="trapezoid")
        for _ in range(10):
            f = TaylorSeries(rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12))
            means = [integral_mean(f, p, 1.0, cfg) for p in (1.0, 2.0, 3.0, 4.0)]
            for lo, hi in zip(means, means[1:]):
                assert lo <= hi + 1e-12


class TestSpaceNorms:
    def test_zero_series_norms(self):
        z = zero()
        assert hp_norm(z, 3.0) == 0.0
        assert sn_norm(z, SpaceParams(3, 2.0)) == 0.0
        assert sup_norm(z) == 0.0
        assert boundary_scale(z) == 0.0

    def test_recursive_matches_unrolled(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            deg = int(rng.integers(0, 30))
            f = TaylorSeries(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
            n = int(rng.integers(1, 5))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
            a = sn_norm(f, SpaceParams(n, p))
            b = sn_norm_unrolled(f, SpaceParams(n, p))
            assert abs(a - b) <= 1e-12 * max(a, b, 1e-300)

    @pytest.mark.parametrize("norm", [sn_norm, sn_norm_unrolled, derivative_sum_norm,
                                      sup_sum_norm])
    @pytest.mark.parametrize("f", [TaylorSeries([1.0, 2.0, 3.0]), TaylorSeries([1, 2, 3])])
    def test_depth_past_the_order_stops_at_the_zero_derivative(self, norm, f, monkeypatch):
        # every derivative past the order is the zero series: n = 10**4 used
        # to take 10**4 derivatives and norms, linear in n
        calls = Counter()
        for name in ("derivative", "hp_norm", "sup_norm"):
            fn = getattr(norms, name)
            monkeypatch.setattr(norms, name,
                                lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a))
        value = norm(f, SpaceParams(10**4, 2.0))
        assert max(calls.values()) <= f.order + 2
        assert value == norm(f, SpaceParams(f.order + 1, 2.0))

    def test_n_zero_is_plain_hp(self):
        f = TaylorSeries([1.0, 2.0, 3.0])
        assert sn_norm(f, SpaceParams(0, 2.0)) == hp_norm(f, 2.0)

    def test_triangle_inequality_p2(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = TaylorSeries(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
            g = TaylorSeries(rng.uniform(-1, 1, 13) + 1j * rng.uniform(-1, 1, 13))
            params = SpaceParams(2, 2.0)
            lhs = sn_norm(f + g, params)
            assert lhs <= sn_norm(f, params) + sn_norm(g, params) + 1e-9

    @pytest.mark.parametrize("points", [4, 4096])
    @pytest.mark.parametrize("order", [1, 2, 7, 64, 1023])
    def test_sup_bracket_holds_the_dirichlet_peak(self, order, points):
        # sum_k (w z)^k, w = exp(-i pi/m), peaks at N + 1 halfway between
        # two of the m grid nodes, as far from the grid as a peak can be;
        # the walk from the best node reaches it
        cfg = QuadratureConfig(num_points=points)
        m = max(points, 4 * (order + 1))
        f = TaylorSeries(np.exp(-1j * np.pi * np.arange(order + 1) / m))
        lo, hi = sup_bracket(f, cfg)
        assert np.abs(boundary_values(f, m)).max() < order + 1 <= hi
        assert lo == pytest.approx(order + 1, rel=1e-13)

    @pytest.mark.parametrize("points", [4, 4096])
    def test_sup_bracket_holds_the_dense_max(self, points):
        rng = np.random.default_rng(27)
        cfg = QuadratureConfig(num_points=points)
        for order in (0, 1, 2, 5, 16, 100, 257, 1024):
            for _ in range(3):
                f = _random_series(rng, order)
                lo, hi = sup_bracket(f, cfg)
                m = max(points, 4 * (order + 1))
                dense = float(np.abs(boundary_values(f, 64 * m)).max())
                # the sup lies within dense's own slack of the dense max
                top = dense / math.sqrt(math.cos(math.pi * order / (64 * m)))
                assert sup_norm(f, cfg) == lo and np.abs(boundary_values(f, m)).max() <= lo <= hi
                # the sup-chain suite reads hi without the walk
                assert norms._sup_upper(f, cfg, norms._sup_grid(f, cfg)[0]) == hi
                # both FFTs and the walk's sums round
                assert lo <= top * (1 + 1e-12) and dense <= hi * (1 + 1e-12)

    def test_sup_norm_dominates_hp(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = TaylorSeries(rng.uniform(-1, 1, 17) + 1j * rng.uniform(-1, 1, 17))
            assert hp_norm(f, 3.0) <= sup_norm(f) + 1e-9


def _random_series(rng, order):
    return TaylorSeries(
        rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    )


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestFastPaths:
    def test_smooth_size_is_least_235_smooth_at_or_above(self):
        def smooth(k):
            for q in (2, 3, 5):
                while k % q == 0:
                    k //= q
            return k == 1

        expected, nxt = [], 2000 * 2
        for n in range(2000, 0, -1):
            if smooth(n):
                nxt = n
            expected.append(nxt)
        expected.reverse()
        assert [_smooth_size(n) for n in range(1, 2001)] == expected

    def test_auto_resolves_large_even_p_to_trapezoid(self):
        # at the default 4096 nodes, (order+1)**2 * q(q-1)/2 passes
        # 144 * 4096 after order 767 at p = 4 and after 442 at p = 6
        for p, top in ((4.0, 767), (6.0, 442)):
            assert norms._resolve_mode(p, "auto", top, 4096) == "power-trick"
            assert norms._resolve_mode(p, "auto", top + 1, 4096) == "trapezoid"
            assert norms._resolve_mode(p, "power-trick", top + 1, 4096) == "power-trick"
        assert norms._resolve_mode(2.0, "auto", 1025, 4096) == "parseval"

    def test_auto_resolves_on_the_node_count_it_will_use(self, monkeypatch):
        # order 2048 on 65536 nodes: one convolution took 2.0 ms, the
        # trapezoid 10.7; order 1000 on 4096 nodes (4050 used): the reverse
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
        rng = np.random.default_rng(26)
        hp_norm(_random_series(rng, 2048), 4.0, QuadratureConfig(num_points=65536))
        assert len(calls) == 1
        hp_norm(_random_series(rng, 1000), 4.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_auto_above_crossover_matches_power_trick(self, p):
        rng = np.random.default_rng(21)
        f = _random_series(rng, 1061)
        auto = hp_norm(f, p)
        direct = hp_norm(f, p, QuadratureConfig(mode="power-trick"))
        assert _rel(auto, direct) <= 1e-12

    def test_power_trick_convolves_once_per_call_and_auto_not_above_crossover(
        self, monkeypatch
    ):
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
        rng = np.random.default_rng(25)
        f = _random_series(rng, 1025)
        hp_norm(f, 4.0, QuadratureConfig(mode="power-trick"))
        assert len(calls) == 1
        hp_norm(f, 4.0)
        assert len(calls) == 1

    def test_node_count_rounds_a_raised_floor_to_a_smooth_size(self):
        # floor 4 * 4097 = 16388 = 2^2 * 17 * 241 is not 2*3*5-smooth
        assert norms._node_count(4096, 3.0, 4096) == _smooth_size(16388) == 16875
        # a request at or above the floor is used as given
        assert norms._node_count(4096, 3.0, 16389) == 16389
        # even p needs more than (p/2) * order nodes to stay exact
        assert norms._node_count(100, 10.0, 4) == _smooth_size(501)

    def test_smooth_trapezoid_stays_exact_for_even_p(self):
        rng = np.random.default_rng(22)
        for order, p in ((300, 2.0), (300, 4.0), (200, 10.0)):
            f = _random_series(rng, order)
            cfg = QuadratureConfig(num_points=4, mode="trapezoid")
            exact = "parseval" if p == 2 else "power-trick"
            assert _rel(hp_norm(f, p, cfg), hp_norm(f, p, QuadratureConfig(mode=exact))) <= 1e-12

    @pytest.mark.parametrize("mode", ["parseval", "power-trick", "trapezoid", "auto"])
    def test_integral_mean_equals_per_radius_mean_of_hp_norm(self, mode):
        rng = np.random.default_rng(23)
        p = 2.0 if mode == "parseval" else 4.0
        # rows below 1 are cut from order 1100 (r = 0.5) and 2651 (r = 0.75)
        for order in (0, 7, 60, 1100, 1101, 2651, 2652, 4096, 16384):
            f = _random_series(rng, order)
            cfg = QuadratureConfig(num_points=64, mode=mode)
            resolved = norms._resolve_mode(p, mode, f.order, cfg.num_points)
            means = norms._means(f, p, norms._SANITY_RADII, resolved, cfg.num_points)
            assert means == [integral_mean(f, p, r, cfg) for r in norms._SANITY_RADII]
            assert hp_norm(f, p, cfg) == means[-1]

    def test_decreasing_means_still_raise(self, monkeypatch):
        monkeypatch.setattr(norms, "_means", lambda *args: [1.0, 0.5, 0.25])
        with pytest.raises(RuntimeError, match="nondecreasing"):
            hp_norm(ONE_PLUS_Z, 3.0)

    def test_sn_norm_rejects_derivative_factor_beyond_double_range(self):
        f = TaylorSeries([1.0] * 301)
        with pytest.raises(ValueError, match="exceeds double range"):
            sn_norm(f, SpaceParams(200, 2.0))

    @pytest.mark.parametrize("mode", ["parseval", "power-trick", "trapezoid"])
    def test_means_beyond_double_range_of_the_power_stay_finite(self, mode):
        # |c|^4 leaves double range at |c| ~ 1e77 and 1e-78; the norm itself
        # is representable and scales with the coefficients
        rng = np.random.default_rng(24)
        c = rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50)
        p = 2.0 if mode == "parseval" else 4.0
        cfg = QuadratureConfig(mode=mode)
        unit = hp_norm(TaylorSeries(c), p, cfg)
        for scale in (1e200, 1e-200):
            assert _rel(hp_norm(TaylorSeries(c * scale), p, cfg), unit * scale) <= 1e-12

    @pytest.mark.parametrize("norm, top", [
        pytest.param(lambda f: sn_norm(f, SpaceParams(1, 2.0)), 1e308, id="sn_norm"),
        pytest.param(lambda f: sn_norm_unrolled(f, SpaceParams(1, 2.0)), 1e308,
                     id="sn_norm_unrolled"),
        pytest.param(lambda f: derivative_sum_norm(f, SpaceParams(1, 2.0)), 1e308,
                     id="derivative_sum_norm"),
        pytest.param(lambda f: sup_sum_norm(f, SpaceParams(1, 2.0)), 1e308, id="sup_sum_norm"),
        pytest.param(hardy_sum, 1.7e308, id="hardy_sum"),
    ])
    def test_sum_beyond_double_range_is_a_value_error(self, norm, top):
        # each H^p norm is finite, their sum is not: it must neither come
        # back as inf nor raise OverflowError
        with pytest.raises(ValueError, match="double precision"):
            norm(TaylorSeries([top, top]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("norm", [sup_norm, boundary_scale])
    def test_boundary_values_beyond_double_range_are_a_value_error(self, norm):
        # the coefficients are finite, the boundary values 2e308 are not:
        # no inf and no NumPy warning, as hp_norm for the same series
        with pytest.raises(ValueError, match="double precision"):
            norm(TaylorSeries([1e308, 1e308]))

    def test_sup_upper_bound_beyond_double_range_is_a_value_error(self):
        # the grid max is finite, hi = grid / sqrt(cos(pi N / m)) = 1.18 * grid
        # is not: it must not come back as inf; lo is the finite sup
        f = TaylorSeries([1.6e308] + [0.0] * 1000)
        with pytest.raises(ValueError, match="double precision"):
            sup_bracket(f)
        assert sup_norm(f) == 1.6e308

    def test_mean_beyond_double_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="not finite"):
            hp_norm(TaylorSeries([1e308] * 4), 3.0)
        with pytest.raises(ValueError, match="not finite"):
            hp_norm(TaylorSeries([1.0, math.inf]), 2.0)


def _reference_means(f, p, radii, mode, num_points, cut=True):
    """The integral means by the formulas the fixed-cost cuts replaced:
    ``np.mean``, ``np.sum`` and a fresh ``r ** arange`` row on every call.

    The trapezoid transforms each row on its own.  With ``cut``, the row
    ``c_k r^k`` of a radius r < 1 ends before the first k with
    ``r**k <= 2**-1100`` and takes the node count of its own degree; without
    it, every row is transformed in full on the node count of f's order,
    the formula before the rows were cut."""
    c = np.asarray([complex(x) for x in f.coeffs], dtype=complex)
    e = math.frexp(float(np.max(np.abs(c))))[1]
    if p * max(e + c.size.bit_length(), -e) > 1000:
        c = np.ldexp(c.real, -e) + 1j * np.ldexp(c.imag, -e)
    else:
        e = 0
    if mode == "trapezoid":
        means = []
        for r in radii:
            row = c if r == 1.0 else c * r ** np.arange(c.size)
            if cut and r < 1:
                row = row[: math.ceil(1100 / -math.log2(r))]
            m = norms._node_count(row.size - 1, p, num_points)
            buf = np.zeros(m, dtype=complex)
            buf[: row.size] = row
            mag = np.abs(np.fft.ifft(buf) * m)
            mag **= p
            means.append(float(np.mean(mag)) ** (1.0 / p))
    else:
        g = c
        for _ in range(int(p) // 2 - 1):
            g = np.convolve(g, c)
        mag = np.abs(g)
        sq = mag * mag
        sums = [
            float(np.sum(sq if r == 1.0 else sq * r ** (2.0 * np.arange(sq.size))))
            for r in radii
        ]
        root = math.sqrt if mode == "parseval" else lambda s: s ** (1.0 / p)
        means = [root(s) for s in sums]
    return [math.ldexp(x, e) for x in means]


def _modes(p):
    """Every quadrature mode valid at exponent p."""
    return ["auto", "trapezoid"] + ["parseval"] * (p == 2) + ["power-trick"] * (p in (2, 4))


class TestBitIdentity:
    """hp_norm and integral_mean are bit-identical to the reference formulas."""

    RADII = (0.3, 0.5, 0.75, 1.0)

    def _check(self, f, p, mode, points=64):
        cfg = QuadratureConfig(num_points=points, mode=mode)
        resolved = norms._resolve_mode(p, mode, f.order, points)
        ref = _reference_means(f, p, norms._SANITY_RADII, resolved, points)
        assert hp_norm(f, p, cfg) == ref[-1]
        for r in self.RADII:
            assert integral_mean(f, p, r, cfg) == _reference_means(f, p, (r,), resolved, points)[0]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_orders_0_to_300_every_mode(self, p):
        rng = np.random.default_rng([31, int(2 * p)])
        for order in range(301):
            f = _random_series(rng, order)
            for mode in _modes(p):
                self._check(f, p, mode)

    @pytest.mark.parametrize("p, mode", [(2.0, "parseval"), (4.0, "power-trick"),
                                         (3.0, "trapezoid"), (1.0, "auto")])
    def test_orders_past_the_cached_rows(self, p, mode):
        # the longest cached row has 2651 entries; above it the powers are 0.0
        rng = np.random.default_rng(32)
        for order in (538, 1074, 1075, 1296, 2590, 2651, 3000):
            self._check(_random_series(rng, order), p, mode)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
    def test_hp_norm_is_the_uncut_rows_boundary_mean(self, p):
        # cutting the rows below r = 1 leaves the r = 1 row and its node
        # count as they were, so the norm is the full-row formula's, bit for bit
        rng = np.random.default_rng([35, int(2 * p)])
        for order in (1100, 1101, 2651, 2652, 4096, 16384):
            f = _random_series(rng, order)
            full = _reference_means(f, p, norms._SANITY_RADII, "trapezoid", 4096, cut=False)
            assert hp_norm(f, p, QuadratureConfig(mode="trapezoid")) == full[-1]
            self._check(f, p, "trapezoid", points=4096)

    def test_cut_rows_that_share_the_full_rows_node_count(self):
        # at 65536 points every row's floor is below the request: the rows
        # of r = 0.5, 0.75 and 1 differ in length but not in node count
        rng = np.random.default_rng(37)
        for order in (1200, 3000):
            self._check(_random_series(rng, order), 3.0, "trapezoid", points=65536)

    def test_rescaled_series_stay_bit_identical(self):
        rng = np.random.default_rng(33)
        c = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
        for scale in (1e200, 1e-200):
            for p, mode in ((2.0, "parseval"), (4.0, "power-trick"), (3.0, "trapezoid")):
                self._check(TaylorSeries(c * scale), p, mode)

    def test_power_rows_stay_bounded(self):
        rng = np.random.default_rng(34)
        for order in (8, 4096, 16384):
            f = _random_series(rng, order)
            for p in (1.5, 2.0, 3.0, 4.0):
                hp_norm(f, p)
        assert norms._power_row.cache_info().currsize <= 4
        for r in (0.5, 0.75):
            for step in (1, 2.0):
                row = norms._power_row(r, step)
                assert row.size <= 2651 and row[-1] == 0.0
                for size in (0, 1, 40, 301, row.size, row.size + 1, 16385):
                    c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
                    full = c * r ** (step * np.arange(size))
                    cut = norms._radius_row(c, r, step)
                    assert np.array_equal(cut, full[: cut.size])
                    assert not full[cut.size:].any()
