"""Inner functions: construction, unimodularity, singular division, JSON."""

import cmath
import math

import numpy as np
import pytest

from hardylab import (
    InnerFunction,
    TaylorSeries,
    boundary_unimodularity_defect,
    inner_from_dict,
    inner_to_dict,
    singular_division_heuristic,
)
from hardylab.inner import zero_residuals
from hardylab.verify import fixed_specs

BLASCHKE_HALF = InnerFunction(zeros=((0.5 + 0j, 1),))
ATOMIC_ONE = InnerFunction(atoms=((0.0, 1.0),))


def _inner_at(G, z):
    """G at one point z from the formula ``const * B * S`` of the module
    docstring; each Blaschke factor is taken as (z - a) / (1 - conj(a) z),
    which differs from the package's only by a unimodular constant."""
    val = G.const
    for a, m in G.zeros:
        val *= ((z - a) / (1.0 - a.conjugate() * z)) ** m
    for theta, mass in G.atoms:
        w = cmath.exp(1j * theta)
        val *= cmath.exp(-mass * (w + z) / (w - z))
    return val


class TestConstruction:
    def test_defaults_give_constant_one(self):
        G = InnerFunction()
        assert (G.zeros, G.const, G.atoms) == ((), 1, ())

    def test_zero_inside_disk_required(self):
        with pytest.raises(ValueError):
            InnerFunction(zeros=((1.0 + 0j, 1),))

    def test_multiplicity_positive(self):
        with pytest.raises(ValueError):
            InnerFunction(zeros=((0.5 + 0j, 0),))

    def test_const_unimodular(self):
        InnerFunction(const=cmath.exp(0.7j))
        with pytest.raises(ValueError):
            InnerFunction(const=0.5)

    def test_atom_mass_positive(self):
        with pytest.raises(ValueError):
            InnerFunction(atoms=((0.0, -1.0),))

    def test_atom_angle_normalized(self):
        G = InnerFunction(atoms=((2.0 * math.pi + 1.0, 1.0),))
        assert G.atoms[0][0] == pytest.approx(1.0)


class TestUnimodularity:
    def test_blaschke_defect_at_machine_precision(self):
        assert boundary_unimodularity_defect(BLASCHKE_HALF, 1024) < 1e-12

    def test_product_with_atom_defect(self):
        G = InnerFunction(zeros=((0.3 + 0.2j, 1),), atoms=((math.pi / 3, 0.7),))
        assert boundary_unimodularity_defect(G, 1024) < 1e-9

    @staticmethod
    def _scalar_defect(G, num_samples=4096):
        """The defect by one scalar evaluation per boundary sample."""
        worst = 0.0
        for j in range(num_samples):
            theta = 2.0 * math.pi * j / num_samples
            gaps = [abs((theta - tk + math.pi) % (2.0 * math.pi) - math.pi) for tk, _ in G.atoms]
            if any(gap < 1e-3 for gap in gaps):
                continue
            worst = max(worst, abs(abs(_inner_at(G, cmath.exp(1j * theta))) - 1.0))
        return worst

    @pytest.mark.parametrize("G", [
        *(spec.inner for _, spec in fixed_specs()),
        InnerFunction(zeros=((0.3 + 0.2j, 2), (0j, 1)), const=cmath.exp(0.4j),
                      atoms=((math.pi / 3, 0.7), (0.0, 2.0))),
    ])
    def test_vectorized_defect_matches_the_scalar_loop(self, G):
        assert abs(boundary_unimodularity_defect(G) - self._scalar_defect(G)) <= 1e-15

    def test_all_samples_near_atoms_give_zero(self):
        atoms = tuple((2.0 * math.pi * j / 16, 1.0) for j in range(16))
        assert boundary_unimodularity_defect(InnerFunction(atoms=atoms), 16) == 0.0

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            boundary_unimodularity_defect(BLASCHKE_HALF, 8)


class TestZeroResiduals:
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
    def test_residuals(self, coeffs, zeros, expected):
        G = InnerFunction(zeros=zeros)
        assert zero_residuals(TaylorSeries(coeffs), G) == expected


def _taylor_of_inner(G, order, sample_radius=0.95, points=2048):
    """Taylor coefficients recovered by FFT sampling on an interior circle.

    The radius balances aliasing (r**points, negligible here) against the
    r**-k amplification of rounding noise in the high-order coefficients.
    """
    theta = 2.0 * math.pi * np.arange(points) / points
    vals = np.array([_inner_at(G, sample_radius * cmath.exp(1j * t)) for t in theta])
    coeffs = np.fft.fft(vals)[: order + 1] / points
    coeffs = coeffs / sample_radius ** np.arange(order + 1)
    return TaylorSeries(coeffs)


class TestSingularHeuristic:
    def test_plain_polynomial_not_divisible(self):
        # |1 / G| grows like exp((1+r)/(1-r)) along the atom ray
        verdict = singular_division_heuristic(TaylorSeries([1.0]), ATOMIC_ONE)
        assert verdict == "not-divisible"

    def test_truncated_expansion_of_g_itself_recorded(self):
        # a high-order truncation of G tracks G well inside the disk, but
        # it is a polynomial and so never carries the singular factor
        f = _taylor_of_inner(ATOMIC_ONE, 160)
        assert singular_division_heuristic(f, ATOMIC_ONE) == "not-divisible"

    def test_requires_atoms_and_nonzero_input(self):
        with pytest.raises(ValueError):
            singular_division_heuristic(TaylorSeries([1.0]), BLASCHKE_HALF)
        with pytest.raises(ValueError):
            singular_division_heuristic(TaylorSeries([0.0]), ATOMIC_ONE)


class TestSerialization:
    def test_round_trip(self):
        G = InnerFunction(
            zeros=((0.25 - 0.5j, 2), (0j, 1)),
            const=cmath.exp(0.3j),
            atoms=((1.25, 0.75),),
        )
        H = inner_from_dict(inner_to_dict(G))
        assert H.zeros == G.zeros
        assert H.const == G.const
        assert H.atoms == G.atoms

    @pytest.mark.parametrize("data", [
        {"zeros": [["0.5", 0.0, 1]]}, {"zeros": [[0.5, 0.0, True]]},
        {"zeros": [[0.5, 0.0, 1, 7]]}, {"const": ["1", 0]}, {"const": [1.0, 0.0, 0.0]},
        {"atoms": [[0.0, "1"]]}, {"atoms": [[0.0, 1.0, 9.0]]}, {"atoms": ["01"]},
    ])
    def test_only_json_numbers_are_read(self, data):
        with pytest.raises(ValueError, match="malformed"):
            inner_from_dict(data)

    def test_large_multiplicity_is_read_exactly(self):
        G = inner_from_dict({"zeros": [[0.5, 0.0, 10**17 + 1]]})
        assert G.zeros == ((0.5 + 0j, 10**17 + 1),)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            inner_from_dict({"zeros": [[0.5]]})
        with pytest.raises(ValueError):
            inner_from_dict("not an object")
