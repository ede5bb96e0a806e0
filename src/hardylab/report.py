"""Structured pass/fail records for the verification battery.

A report renders deterministically: fixed claim order, fixed float
formatting, and configuration snapshots identified by a truncated SHA-256
digest, so two runs with the same inputs produce byte-identical text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .series import TaylorSeries, _complex_coeffs

__all__ = ["ClaimResult", "VerificationReport"]


@dataclass(frozen=True)
class ClaimResult:
    """One checked claim: id, verdict, margin to its threshold, and the
    configuration snapshot it was measured under.

    ``slack`` is the worst margin to the claim's threshold (negative means
    violated).  A failed claim must carry the witness input that broke it.
    """

    claim: str
    passed: bool
    slack: float
    config: str
    witness: str | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError(f"failed claim {self.claim!r} must carry its witness input")

    def render(self):
        verdict = "PASS" if self.passed else "FAIL"
        digest = hashlib.sha256(self.config.encode("utf-8")).hexdigest()[:12]
        line = f"{self.claim} {verdict} slack={self.slack:.6e} config={digest}"
        if not self.passed:
            line += f" witness={self.witness}"
        return line


@dataclass
class VerificationReport:
    """Ordered collection of claim results plus the run configuration."""

    header: tuple = ()
    claims: list = field(default_factory=list)

    def add(self, *args, **kwargs):
        self.claims.append(ClaimResult(*args, **kwargs))

    def extend(self, other):
        self.claims.extend(other.claims)

    @property
    def passed(self):
        return all(c.passed for c in self.claims)

    @property
    def failures(self):
        return [c for c in self.claims if not c.passed]

    def render(self):
        lines = ["# hardylab verification report"]
        if self.header:
            pairs = " ".join(f"{key}={value}" for key, value in self.header)
            lines.append(f"# config: {pairs}")
        lines.extend(c.render() for c in self.claims)
        failed = len(self.failures)
        verdict = "PASS" if failed == 0 else "FAIL"
        lines.append(f"# result: {verdict} ({len(self.claims)} claims, {failed} failed)")
        return "\n".join(lines) + "\n"


def _coeff_repr(f, head=4):
    """Compact, deterministic witness form; seed and sample index make the
    full input reproducible."""
    parts = [repr(complex(c)) for c in _complex_coeffs(f)[:head]]
    if f.order + 1 > head:
        parts.append(f"...<order {f.order}>")
    return "[" + ", ".join(parts) + "]"


def _witness(**fields):
    """Witness text: ``key=value`` in call order, a series through
    :func:`_coeff_repr` and any other value through ``str``."""
    return " ".join(
        f"{key}={_coeff_repr(v) if isinstance(v, TaylorSeries) else v}"
        for key, v in fields.items()
    )


class _Tracker:
    """Builds one claim from many checks: the least margin is its slack, the
    first failing check its witness."""

    def __init__(self):
        self.ok = True
        self.slack = math.inf
        self.witness = None

    def record(self, margin, passed=None, **fields):
        """Fold in one check.  It fails when ``passed`` is false or, left
        out, when ``margin < 0``; the first failure keeps ``fields`` as the
        witness."""
        if margin < self.slack:
            self.slack = margin
        if passed is None:
            passed = not margin < 0
        if not passed:
            if self.ok:
                self.witness = _witness(**fields)
            self.ok = False

    def claim(self, claim_id, config):
        return ClaimResult(claim_id, self.ok, self.slack, config, self.witness)
