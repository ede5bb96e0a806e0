"""Boundary-quadrature norms against closed-form values and invariants."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hardylab import (
    QuadratureConfig,
    SpaceParams,
    TaylorSeries,
    boundary_values,
    boundary_scale,
    derivative,
    derivative_sum_norm,
    hardy_sum,
    hp_norm,
    monomial,
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
        # the first mean of the radius grid is the one at r = 0.5
        assert norms._means([f], 2.0, "parseval", 4096)[0][0] == pytest.approx(expected, abs=1e-12)

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

    def test_batched_grid_peaks_are_the_one_series_boundary_scale(self):
        # below order 64 the rows share 256 nodes, above it each order has
        # its own count; a zero series in a batch takes no row and reads 0.0
        rng = np.random.default_rng(38)
        fs = [_random_series(rng, order) for order in [*range(301), 1023, 4096]]
        fs += [_random_series(rng, order) for order in (1023, 1023, 4096)] + [zero()]
        fs = [fs[i] for i in rng.permutation(len(fs))]
        batches = [fs, fs[:7], fs[-40:], [fs[0]], []]
        for batch in batches:
            scales = [peak for peak, _, _ in norms._grid_peaks(batch)]
            assert [type(s) for s in scales] == [float] * len(batch)
            for f, s in zip(batch, scales):
                m = max(256, 4 * (f.order + 1))
                ref = 0.0 if f.is_zero else np.abs(boundary_values(f, m)).max()
                assert s == boundary_scale(f) == ref

    @pytest.mark.parametrize("floor", [4, 256, 5000])
    def test_grid_peaks_are_the_max_and_argmax_of_the_boundary_values(self, floor):
        # several node counts and zero series of two orders in one batch; at
        # 5000 nodes a group takes one row a buffer
        rng = np.random.default_rng(39)
        fs = [_random_series(rng, order) for order in (0, 3, 8, 8, 63, 64, 1023, 1300)]
        fs[2:2] = [zero(), TaylorSeries([0j] * 7)]
        for f, (peak, j, m) in zip(fs, norms._grid_peaks(fs, floor)):
            assert m == max(floor, 4 * (f.order + 1))
            vals = np.abs(boundary_values(f, m))
            assert (peak, j) == ((0.0, 0) if f.is_zero else (vals.max(), int(vals.argmax())))
            assert type(peak) is float and type(j) is int

    @pytest.mark.filterwarnings("error")
    def test_batched_boundary_scale_beyond_double_range_is_the_one_series_error(self):
        bad = TaylorSeries([1e308, 1e308])
        with pytest.raises(ValueError) as one:
            boundary_scale(bad)
        with pytest.raises(ValueError) as batched:
            norms._grid_peaks([ONE_PLUS_Z, zero(), bad, TaylorSeries([0.5] * 90)])
        assert str(batched.value) == str(one.value)

    @pytest.mark.parametrize("p", ["3", None, 3j])
    def test_exponent_that_is_not_a_number_is_a_value_error(self, p):
        # "3" used to raise TypeError from the comparison
        with pytest.raises(ValueError, match="exponent"):
            hp_norm(ONE_PLUS_Z, p)
        with pytest.raises(ValueError, match="exponent"):
            SpaceParams(1, p)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: hp_norm(TaylorSeries([1.0, 2.0]), True), id="hp_norm"),
        pytest.param(lambda: SpaceParams(1, True), id="SpaceParams"),
        pytest.param(lambda: norms._hp_norms([ONE_PLUS_Z], True, QuadratureConfig()),
                     id="_hp_norms"),
    ])
    def test_bool_exponent_is_a_value_error(self, call):
        # True was read as p = 1: hp_norm returned the H^1 norm 2.1270888199467297
        with pytest.raises(ValueError, match="exponent"):
            call()

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(mode="fft")
        with pytest.raises(ValueError):
            hp_norm(ONE_PLUS_Z, 3.0, cfg=QuadratureConfig(mode="parseval"))
        with pytest.raises(ValueError):
            hp_norm(ONE_PLUS_Z, 3.0, cfg=QuadratureConfig(mode="power-trick"))

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            hp_norm(ONE_PLUS_Z, 0.5)
        with pytest.raises(ValueError):
            hp_norm(ONE_PLUS_Z, math.inf)
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
            means = [hp_norm(f, p, cfg) for p in (1.0, 2.0, 3.0, 4.0)]
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
                grid = np.abs(boundary_values(f, m)).max()
                dense = float(np.abs(boundary_values(f, 64 * m)).max())
                # the sup lies within dense's own slack of the dense max
                top = dense / math.sqrt(math.cos(math.pi * order / (64 * m)))
                assert sup_norm(f, cfg) == lo and grid <= lo <= hi
                # the sup-chain suite reads hi from the grid max, without the walk
                assert norms._sup_upper(f, cfg, grid) == hi
                # both FFTs and the walk's sums round
                assert lo <= top * (1 + 1e-12) and dense <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("cfg", [None, QuadratureConfig(num_points=8)], ids=["4096", "8"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sup_sum_norm_is_the_rung_sups_plus_the_tail_norm(self, n, cfg):
        # the rungs' sups come from one batch of grid peaks, at 8 points one
        # node count per rung; each is the rung's own sup_norm
        rng = np.random.default_rng(40)
        for order in (0, 1, 2, 5, 64, 300):
            f = _random_series(rng, order)
            ladder = [derivative(f, k) for k in range(min(n, order + 1) + 1)]
            sups = math.fsum(sup_norm(g, cfg) for g in ladder[:-1])
            for p in (1.0, 2.0, 3.0):
                expected = sups + hp_norm(ladder[-1], p, cfg)
                assert sup_sum_norm(f, SpaceParams(n, p), cfg).hex() == expected.hex()

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
    def test_grid_means_are_the_reference_means_ending_in_hp_norm(self, mode):
        rng = np.random.default_rng(23)
        p = 2.0 if mode == "parseval" else 4.0
        # rows below 1 are cut from order 1100 (r = 0.5) and 2651 (r = 0.75)
        for order in (0, 7, 60, 1100, 1101, 2651, 2652, 4096, 16384):
            f = _random_series(rng, order)
            cfg = QuadratureConfig(num_points=64, mode=mode)
            resolved = norms._resolve_mode(p, mode, f.order, cfg.num_points)
            means = norms._means([f], p, resolved, cfg.num_points)[0]
            assert means == _reference_means(f, p, norms._SANITY_RADII, resolved, cfg.num_points)
            assert hp_norm(f, p, cfg) == means[-1]

    def test_decreasing_means_still_raise(self, monkeypatch):
        monkeypatch.setattr(norms, "_means", lambda *args: [[1.0, 0.5, 0.25]])
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["auto", "trapezoid"])
    @pytest.mark.parametrize("p", [1076, 2000])
    def test_norm_that_underflows_at_large_p_is_a_value_error(self, mode, p):
        # the rescaled coefficient is 0.5 and 0.5^p is 0.0, but the norm is 2,
        # and ||f||_p >= max |c_k| for every p: 0.0 is never a norm here
        cfg = QuadratureConfig(mode=mode)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            hp_norm(TaylorSeries([2.0]), p, cfg)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            derivative_sum_norm(TaylorSeries([2.0]), SpaceParams(1, p), cfg)
        assert hp_norm(zero(), p, cfg) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_power_beyond_double_range_at_large_p_warns_nothing(self):
        # |f|^2000 on the boundary of an order-8 series leaves double range:
        # the named error, with no NumPy overflow warning before it
        f = _random_series(np.random.default_rng(8), 8)
        with pytest.raises(ValueError, match="not finite"):
            hp_norm(f, 2000)

    def test_interior_means_that_underflow_keep_the_norm(self):
        # the r = 0.5 and r = 0.75 means of z^1200 at p = 3 are 0.0 because
        # they are that small (0.5^1200, 0.75^3600); only the r = 1 mean counts
        f = monomial(1200, 1.0)
        assert norms._means([f], 3, "trapezoid", 4096)[0][:2] == [0.0, 0.0]
        assert hp_norm(f, 3) == pytest.approx(1.0, rel=1e-12)


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
    """hp_norm and the means on the radius grid are bit-identical to the
    reference formulas."""

    def _check(self, f, p, mode, points=64):
        cfg = QuadratureConfig(num_points=points, mode=mode)
        resolved = norms._resolve_mode(p, mode, f.order, points)
        ref = _reference_means(f, p, norms._SANITY_RADII, resolved, points)
        assert norms._means([f], p, resolved, points)[0] == ref
        assert hp_norm(f, p, cfg) == ref[-1]

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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_derivative_norms_end_in_the_reference_mean(self, n, p):
        # sn_norm and sn_norm_unrolled measure their last derivative through
        # _hp_norms, as hp_norm does, so they are checked against the
        # reference formulas; orders 1100/1101 and 2651/2652 straddle the cuts
        rng = np.random.default_rng([48, n, int(2 * p)])
        cfg, params = QuadratureConfig(), SpaceParams(n, p)

        def tail(g):
            mode = norms._resolve_mode(p, cfg.mode, g.order, cfg.num_points)
            return _reference_means(g, p, norms._SANITY_RADII, mode, cfg.num_points)[-1]

        for order in (0, 8, 1100, 1101, 2651, 2652):
            f = _random_series(rng, order)
            heads, chain = norms._sn_chain(f, n)
            assert sn_norm(f, params).hex() == norms._sn_sum(heads, tail(chain[-1])).hex()
            depth = min(n, order + 1)
            unrolled = math.fsum(abs(derivative(f, k).coeffs[0]) for k in range(depth))
            want = unrolled + tail(derivative(f, depth))
            assert sn_norm_unrolled(f, params).hex() == want.hex()

    def test_power_rows_stay_bounded(self):
        # every kept plan holds slices of one table of the sanity radii's
        # powers, at most 2651 long, or the scalar 1.0 of r = 1 past it: no
        # kept plan holds powers of its own, whatever the order
        rng = np.random.default_rng(34)
        for order in (8, 4096, 16384):
            f = _random_series(rng, order)
            for p in (1.5, 2.0, 3.0, 4.0):
                hp_norm(f, p)
        assert norms._plan.cache_info().maxsize == 2048
        for step in (1, 2.0):
            table = norms._sanity_table(step)
            assert table.shape == (3, 2651 if step == 1 else 1326)
            for size in (1, 40, 301, 550, 551, 1100, 1101, 1326, 1327, 2651, 2652, 16385):
                plan = norms._plan(size, step)
                # the runs tile the three radii
                assert [lo for _, _, lo, _ in plan] + [3] == [0] + [hi for *_, hi in plan]
                for width, powers, lo, hi in plan:
                    assert (powers == 1.0 if width > table.shape[1]
                            else np.shares_memory(powers, table))
                    for row, r in zip(np.broadcast_to(powers, (hi - lo, width)),
                                      norms._SANITY_RADII[lo:hi]):
                        full = r ** (step * np.arange(size))
                        assert np.array_equal(row, full[:width])
                        # a cut drops only powers that are 0.0
                        assert not full[width:].any()


class TestBatchedMeans:
    """One batched ``_means`` call gives each series its one-series means
    and the reference formulas' values, bit for bit."""

    # 550/551 and 1326/1327: the cut of r = 0.5 and 0.75 in the coefficient
    # sums; 1100/1101 and 2651/2652: the same in the trapezoid
    SIZES = (1, 9, 550, 551, 1100, 1101, 1326, 1327, 2651, 2652)
    CASES = [("parseval", 2.0), ("power-trick", 4.0), ("power-trick", 6.0),
             ("power-trick", 8.0), ("trapezoid", 1.0), ("trapezoid", 1.5),
             ("trapezoid", 3.0)]

    @staticmethod
    def _batch():
        rng = np.random.default_rng(41)
        batch = [_random_series(rng, size - 1) for size in TestBatchedMeans.SIZES]
        # repeated lengths share a block; the zero series is a row of its own
        batch += [_random_series(rng, 8), zero(), _random_series(rng, 550)]
        for scale in (1e200, 1e-300):  # rows that take the 2**e rescale
            for size in (9, 1101):
                c = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
                batch.append(TaylorSeries(c * scale))
        # at p = 2 the r = 0.5 row's sum is carried by its last 50 terms
        # before the cut at 550, of one magnitude (|c_k| doubles as 0.5**(2k)
        # quarters): summed without the zero fill, over 550 terms instead
        # of 600, they round otherwise
        for _ in range(4):
            c = np.zeros(600, dtype=complex)
            c[500:550] = ((rng.uniform(0.5, 1, 50) + 1j * rng.uniform(-1, 1, 50))
                          * 2.0 ** np.arange(421.0, 471.0))
            batch.append(TaylorSeries(c))
        return batch

    @pytest.mark.parametrize("mode, p", CASES)
    @pytest.mark.parametrize("points", [4, 12000])  # below and above every floor
    def test_batch_is_each_series_alone(self, mode, p, points):
        batch = self._batch()
        means = norms._means(batch, p, mode, points)
        cfg = QuadratureConfig(num_points=points, mode=mode)
        for f, row in zip(batch, means):
            assert row == norms._means([f], p, mode, points)[0]
            assert row == _reference_means(f, p, norms._SANITY_RADII, mode, points)
            assert row[-1] == hp_norm(f, p, cfg)
        assert norms._hp_norms(batch, p, cfg) == [hp_norm(f, p, cfg) for f in batch]

    @pytest.mark.parametrize("mode, p", [("parseval", 2.0), ("power-trick", 4.0),
                                         ("trapezoid", 3.0)])
    def test_a_mean_beyond_double_range_is_the_one_series_error(self, mode, p):
        bad = TaylorSeries([1e308] * 4)
        with pytest.raises(ValueError, match="not finite") as one:
            hp_norm(bad, p, QuadratureConfig(mode=mode))
        for batch in ([ONE_PLUS_Z, zero(), bad, TaylorSeries([0.5] * 90)], [bad, ONE_PLUS_Z]):
            with pytest.raises(ValueError) as batched:
                norms._means(batch, p, mode, 4096)
            assert str(batched.value) == str(one.value)

    def test_auto_batch_resolves_each_series_mode(self):
        # at p = 4 and 64 nodes, order 8 uses the power trick and order 600
        # the trapezoid: one batch, one _means call per mode
        rng = np.random.default_rng(42)
        batch = [_random_series(rng, 8), _random_series(rng, 600), _random_series(rng, 8)]
        cfg = QuadratureConfig(num_points=64)
        assert [norms._resolve_mode(4.0, "auto", f.order, 64) for f in batch] == [
            "power-trick", "trapezoid", "power-trick"]
        assert norms._hp_norms(batch, 4.0, cfg) == [hp_norm(f, 4.0, cfg) for f in batch]

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_sn_norms_of_one_chain_are_sn_norm(self, p):
        rng = np.random.default_rng(43)
        cfg = QuadratureConfig(num_points=256)
        for order in (0, 1, 2, 8, 40):
            f = _random_series(rng, order)
            depths = (1, 0, 1, 3, 4, 7)
            rows, finish = norms._sn_parts(f, depths)
            # one row per distinct depth, min(d, order + 1)
            assert len(rows) == len({min(d, order + 1) for d in depths})
            assert finish(norms._hp_norms(rows, p, cfg)) == [
                sn_norm(f, SpaceParams(d, p), cfg) for d in depths]


class TestBlockedMeans:
    """A same-length group larger than ``_BLOCK_ELEMS`` is measured in
    buffers within that budget, one series over it alone, and every mean
    is still its one-series mean."""

    CASES = [("parseval", 2.0), *(("power-trick", p) for p in (2.0, 4.0, 6.0)),
             *(("trapezoid", p) for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0))]

    @pytest.mark.parametrize("mode, p", CASES)
    @pytest.mark.parametrize("points", [256, 12000])  # 10 series a buffer, and one
    def test_blocked_group_is_each_series_alone(self, monkeypatch, mode, p, points):
        rng = np.random.default_rng(46)
        # 300 series of 31 coefficients, 30 of 2 and a few alone: each large
        # group holds far more than the budget, in rows and in products
        batch = [_random_series(rng, 30) for _ in range(300)]
        batch += [_random_series(rng, 1) for _ in range(30)] + [zero(), _random_series(rng, 8)]
        batch = [batch[i] for i in rng.permutation(len(batch))]
        cfg = QuadratureConfig(num_points=points, mode=mode)
        shapes = []
        transform = norms._transform

        def spy(buf):
            shapes.append(buf.shape)
            return transform(buf)

        monkeypatch.setattr(norms, "_transform", spy)
        got = norms._hp_norms(batch, p, cfg)
        if mode == "trapezoid":
            assert len(shapes) > 3  # the large group took several buffers
            for rows, radii, m in shapes:  # series, radii, nodes
                assert rows == 1 or rows * radii * m <= norms._BLOCK_ELEMS, (rows, radii, m)
        else:
            assert shapes == []
        monkeypatch.undo()
        want = [hp_norm(f, p, cfg) for f in batch]
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_many_rows_at_many_nodes_stay_small(self):
        # unblocked, these 111 series' 333 rows of 65536 nodes were one 349 MB buffer
        rng = np.random.default_rng(47)
        batch = [_random_series(rng, 8) for _ in range(111)]
        cfg = QuadratureConfig(num_points=65536)
        tracemalloc.start()
        try:
            norms._hp_norms(batch, 1.0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestNormFamily:
    """``_norm_family`` returns the four public norms bit for bit, from one
    chain, one ladder and one batch of means."""

    PS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)

    @staticmethod
    def _public(f, params, cfg):
        return (hp_norm(f, params.p, cfg), sn_norm(f, params, cfg),
                derivative_sum_norm(f, params, cfg), sup_sum_norm(f, params, cfg))

    def test_family_is_the_four_public_norms(self):
        rng = np.random.default_rng(44)
        cfg = QuadratureConfig(num_points=256)
        for order in [*range(301), 1023]:
            f = _random_series(rng, order)
            # every n up to 6 at each order, n > order + 1 included; p cycles
            for n in range(7):
                params = SpaceParams(n, self.PS[(order + n) % len(self.PS)])
                got = norms._norm_family(f, params, cfg)
                want = self._public(f, params, cfg)
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (order, params)

    @pytest.mark.parametrize("p", PS)
    def test_family_where_the_chain_tail_rounds_otherwise(self, p):
        # at order 2000 and depth 3 the chain's repeated single steps round
        # otherwise than one derivative(f, 3) in over a thousand coefficients
        rng = np.random.default_rng(2000)
        f = _random_series(rng, 2000)
        chain_tail = norms._sn_chain(f, 3)[1][-1]
        assert np.count_nonzero(chain_tail._c != derivative(f, 3)._c) > 0
        cfg = QuadratureConfig()
        params = SpaceParams(3, p)
        got = norms._norm_family(f, params, cfg)
        assert list(map(float.hex, got)) == list(map(float.hex, self._public(f, params, cfg)))

    def test_family_measures_each_series_once(self, monkeypatch):
        measured = []
        means = norms._means

        def spy(series, *args):
            measured.extend(series)
            return means(series, *args)

        monkeypatch.setattr(norms, "_means", spy)
        rng = np.random.default_rng(45)
        cfg = QuadratureConfig(num_points=256)
        for order, n in [(0, 0), (0, 3), (1, 1), (8, 1), (8, 2), (8, 5), (40, 6)]:
            f = _random_series(rng, order)
            measured.clear()
            norms._norm_family(f, SpaceParams(n, 3.0), cfg)
            depth = min(n, order + 1)
            # the ladder's rungs, plus the chain's tail from depth 2 on
            assert len(measured) == depth + 1 + (depth >= 2)
            assert len({id(g) for g in measured}) == len(measured)
