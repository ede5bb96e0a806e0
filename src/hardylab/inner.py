"""Finite Blaschke products with atomic singular factors.

An inner function here is ``const * B * S`` with ``|const| = 1``, B a finite
Blaschke product given by its zeros with multiplicity, and S an atomic
singular factor ``exp(-sum_k c_k (w_k + z)/(w_k - z))`` supported on finitely
many boundary directions ``w_k = exp(i theta_k)`` with masses ``c_k > 0``.

Membership decides whether such a function divides a polynomial from two
things kept here: the zeros with their multiplicities for the Blaschke part,
whose residuals ``|f^(i)(a)|`` ``membership`` reads off its own derivatives,
and ``has_atoms`` for the singular part, which divides no nonzero polynomial
because a polynomial's inner factor is a finite Blaschke product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .series import _check_count, _json_numbers

__all__ = [
    "InnerFunction",
    "boundary_unimodularity_defect",
    "singular_division_heuristic",
    "inner_to_dict",
    "inner_from_dict",
]

_TWO_PI = 2.0 * math.pi
_ATOM_EXCLUSION = 1e-3


@dataclass(frozen=True)
class InnerFunction:
    """``const * Blaschke(zeros) * atomic_singular(atoms)``.

    ``zeros`` holds ``(a, multiplicity)`` pairs with |a| < 1, ``atoms``
    holds ``(theta, mass)`` pairs with finite theta and finite mass > 0
    (theta is reduced mod 2pi).  The defaults give the constant inner
    function 1.  A NaN or infinite number anywhere raises ValueError.
    """

    zeros: tuple = ()
    const: complex = 1.0 + 0j
    atoms: tuple = ()

    def __post_init__(self):
        # the negated comparisons reject NaN as well
        for a, m in self.zeros:
            if not abs(complex(a)) < 1:
                raise ValueError(f"Blaschke zeros must lie inside the disk, got {a}")
            _check_count(m, "zero multiplicity", 1)
        zs = tuple((complex(a), int(m)) for a, m in self.zeros)
        object.__setattr__(self, "zeros", zs)
        c = complex(self.const)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise ValueError(f"leading constant must be unimodular, got |c| = {abs(c)}")
        object.__setattr__(self, "const", c)
        ats = tuple((float(t) % _TWO_PI, float(mass)) for t, mass in self.atoms)
        for t, mass in ats:
            # a NaN or infinite angle is NaN once reduced
            if not (math.isfinite(t) and 0 < mass < math.inf):
                raise ValueError(f"atom needs a finite angle and mass > 0, got ({t}, {mass})")
        object.__setattr__(self, "atoms", ats)

    @property
    def has_atoms(self):
        return bool(self.atoms)


def _blaschke_factor(a, z):
    # the a = 0 factor is the plain coordinate by convention
    if a == 0:
        return z
    return (abs(a) / a) * (a - z) / (1.0 - a.conjugate() * z)


def _angle_gap(a, b):
    return abs((a - b + math.pi) % _TWO_PI - math.pi)


def boundary_unimodularity_defect(G, num_samples=4096):
    """Max deviation of |G| from 1 over uniform boundary samples.

    Samples closer than 1e-3 radians to a singular atom are excluded; the
    modulus is not continuous there.  It stays because the benchmark's
    ``membership-small`` workload times it as an op.
    """
    count = _check_count(num_samples, "num_samples", 16)
    theta = _TWO_PI * np.arange(count) / count
    for tk, _ in G.atoms:
        theta = theta[_angle_gap(theta, tk) >= _ATOM_EXCLUSION]
    z = np.exp(1j * theta)
    values = G.const
    for a, m in G.zeros:
        values *= _blaschke_factor(a, z) ** m
    if G.atoms:
        expo = 0j
        for tk, mass in G.atoms:
            w = cmath.exp(1j * tk)
            expo -= mass * (w + z) / (w - z)
        values *= np.exp(expo)
    return float(np.abs(np.abs(values) - 1.0).max(initial=0.0))


def singular_division_heuristic(f, G):
    """Whether the singular factor of G divides the nonzero polynomial f:
    never, so the verdict is always ``"not-divisible"``.

    A polynomial's inner factor is a finite Blaschke product, so no
    nonconstant singular inner factor divides it.  It stays because the
    benchmark's ``membership-small`` workload times
    ``hardylab.singular_division_heuristic(f, spec.inner)`` as an op and
    checks for ``"not-divisible"``.
    """
    if not G.has_atoms:
        raise ValueError("singular division needs at least one singular atom")
    if f.is_zero:
        raise ValueError("the zero series is rejected")
    return "not-divisible"


def inner_to_dict(G):
    """JSON-ready form with zeros as [re, im, mult] and atoms as [theta, mass]."""
    return {
        "zeros": [[a.real, a.imag, m] for a, m in G.zeros],
        "const": [G.const.real, G.const.imag],
        "atoms": [[t, m] for t, m in G.atoms],
    }


def inner_from_dict(data):
    """Inverse of :func:`inner_to_dict`; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("inner-function object must be a JSON object")
    try:
        zeros = data.get("zeros", [])
        parts = _json_numbers(zeros, 3, "a zero").tolist()
        # the multiplicity is read as given, so a large int stays exact
        zeros = [(complex(re, im), e[2]) for (re, im, _), e in zip(parts, zeros)]
        const = _json_numbers([data.get("const", [1.0, 0.0])], 2, "'const'")
        atoms = _json_numbers(data.get("atoms", []), 2, "an atom")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed inner-function object: {exc}") from exc
    return InnerFunction(zeros=zeros, const=const.view(complex)[0, 0], atoms=atoms)
