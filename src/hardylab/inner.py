"""Finite Blaschke products with atomic singular factors, and desk-scale
divisibility tests against them.

An inner function here is ``const * B * S`` with ``|const| = 1``, B a finite
Blaschke product given by its zeros with multiplicity, and S an atomic
singular factor ``exp(-sum_k c_k (w_k + z)/(w_k - z))`` supported on finitely
many boundary directions ``w_k = exp(i theta_k)`` with masses ``c_k > 0``.

Blaschke divisibility of a polynomial is decidable (zero multiplicities).
Division by a singular factor is decided too: a polynomial's inner factor is
a finite Blaschke product, so no nonzero polynomial is divisible by one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .norms import boundary_scale
from .series import _check_count, _is_integral, _json_numbers, derivative, evaluate

__all__ = [
    "InnerFunction",
    "eval_inner",
    "log_abs_inner",
    "boundary_unimodularity_defect",
    "blaschke_divisibility",
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
            if not _is_integral(m) or m < 1:
                raise ValueError(f"zero multiplicity must be an integer >= 1, got {m!r}")
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

    def __call__(self, z):
        return eval_inner(self, z)


def _blaschke_factor(a, z):
    # the a = 0 factor is the plain coordinate by convention
    if a == 0:
        return z
    return (abs(a) / a) * (a - z) / (1.0 - a.conjugate() * z)


def eval_inner(G, z):
    """Evaluate G at z with |z| <= 1; atoms themselves are rejected."""
    z = complex(z)
    if abs(z) > 1 + 1e-12:
        raise ValueError(f"evaluation needs |z| <= 1, got |z| = {abs(z)}")
    for theta, _ in G.atoms:
        if abs(z - cmath.exp(1j * theta)) < 1e-12:
            raise ValueError("evaluation at a singular atom is undefined")
    return _inner_values(G, z)


def _inner_values(G, z, exp=cmath.exp):
    """G at z unchecked; z may be an array of points when ``exp`` is np.exp."""
    val = G.const
    for a, m in G.zeros:
        val *= _blaschke_factor(a, z) ** m
    if G.atoms:
        expo = 0j
        for theta, mass in G.atoms:
            w = cmath.exp(1j * theta)
            expo -= mass * (w + z) / (w - z)
        val *= exp(expo)
    return val


def log_abs_inner(G, z):
    """``log |G(z)|`` computed in the log domain.

    Near an atom the modulus underflows double precision long before the
    geometry gets interesting; the log stays finite there, where
    :func:`eval_inner` returns 0.
    """
    z = complex(z)
    total = math.log(abs(G.const))
    for a, m in G.zeros:
        mag = abs(_blaschke_factor(a, z))
        total += m * (math.log(mag) if mag > 0 else -math.inf)
    for theta, mass in G.atoms:
        w = cmath.exp(1j * theta)
        total -= mass * ((w + z) / (w - z)).real
    return total


def _angle_gap(a, b):
    return abs((a - b + math.pi) % _TWO_PI - math.pi)


def boundary_unimodularity_defect(G, num_samples=4096):
    """Max deviation of |G| from 1 over uniform boundary samples.

    Samples closer than 1e-3 radians to a singular atom are excluded; the
    modulus is not continuous there.
    """
    m = _check_count(num_samples, "num_samples", 16)
    theta = _TWO_PI * np.arange(m) / m
    for tk, _ in G.atoms:
        theta = theta[_angle_gap(theta, tk) >= _ATOM_EXCLUSION]
    values = _inner_values(G, np.exp(1j * theta), np.exp)
    return float(np.abs(np.abs(values) - 1.0).max(initial=0.0))


def zero_residuals(f, G):
    """``(a, i, |f^(i)(a)|)`` for every Blaschke zero a and order i below its
    multiplicity, up to the order of f (higher derivatives vanish)."""
    out = []
    for a, m in G.zeros:
        d = f
        for i in range(min(m, f.order + 1)):
            if i:
                d = derivative(d, 1)
            out.append((a, i, abs(complex(evaluate(d, a)))))
    return out


def blaschke_divisibility(f, G, tol=1e-9):
    """Whether f vanishes at every Blaschke zero of G to its multiplicity.

    For polynomials this is exactly divisibility by the Blaschke part.
    Residuals are compared against ``tol`` times the boundary max of |f|,
    so the verdict is invariant under rescaling f.  The zero series is
    rejected (every divisibility question about it is vacuous).
    """
    if G.has_atoms:
        raise ValueError(
            "Blaschke divisibility is undefined with singular atoms present; "
            "no nonzero polynomial is divisible by a singular factor"
        )
    if f.is_zero:
        raise ValueError("divisibility of the zero series is undefined")
    cap = tol * boundary_scale(f)
    return all(res <= cap for _, _, res in zero_residuals(f, G))


def singular_division_heuristic(f, G):
    """Whether the singular factor of G divides the nonzero polynomial f:
    never, so the verdict is always ``"not-divisible"``.

    A polynomial's inner factor is a finite Blaschke product, so no
    nonconstant singular inner factor divides it.  The name is kept because
    ``benchmarks/workloads.py`` calls
    ``hardylab.singular_division_heuristic(f, spec.inner)`` and checks for
    ``"not-divisible"``.
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
