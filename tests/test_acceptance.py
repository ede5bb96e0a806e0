"""Acceptance battery: one test per advertised guarantee, each printing a
PASS/FAIL line (run with ``-s`` to see them).

The suites run at their default sample counts, which are the counts the
guarantees are stated at; only the max degree and seed are pinned here.
"""

import hashlib
import subprocess
import sys

import pytest

from hardylab import RunConfig, SUITES, combined_invariance_check, fixed_specs, run_suites
from hardylab import norms, report

CFG = RunConfig(order=64, seed=7)
SPEC_NAMES = ("one-zero", "nested", "two-zero")
# sha256 of the default `verify --suite all --seed 7` report; a change that
# moves a draw, a slack value or the report format must re-pin it on purpose
REPORT_SHA256 = "721d0f48a53ba657460078d69d6bb334b42af7e5edfe777aca394ee3ab7c9e1c"
# sha256 of every raw margin the order-8 battery records, as float.hex, one
# a line, negative control off then on.  A report prints each slack to 7
# digits and cannot show a 1-ulp change in a margin; this digest does
MARGIN_SHA256 = "057092c322fce4648cadffb5a409a27ee1b41169d89216894c9b4dc58d235fb8"


@pytest.fixture(scope="module")
def battery():
    claims = {}
    for fn in SUITES.values():
        for c in fn(CFG):
            claims[c.claim] = c
    return claims


@pytest.fixture(scope="module")
def pullback_negative():
    return {
        name: combined_invariance_check(
            spec, samples=CFG.samples, tol=CFG.tol, seed=CFG.seed,
            negative_control=True,
        )
        for name, spec in fixed_specs()
    }


def _check(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def _all_pass(battery, names):
    return all(battery[name].passed for name in names)


class TestAcceptance:
    def test_01_derivative_intertwining(self, battery):
        _check(
            "1 derivative-intertwining (exact and float)",
            _all_pass(
                battery, ["intertwine.rational", "intertwine.float"]
            ),
        )

    def test_02_antiderivative_isometry(self, battery):
        _check(
            "2 antiderivative-isometry",
            battery["intertwine.antiderivative-isometry"].passed,
        )

    def test_03_coefficient_sum_inequality(self, battery):
        _check(
            "3 coefficient-sum-inequality (random and binomial family)",
            _all_pass(
                battery, ["hardy-sum.random", "hardy-sum.binomial-family"]
            ),
        )

    def test_04_sup_bound_and_chain(self, battery):
        _check(
            "4 sup-bound-and-chain",
            _all_pass(battery, ["sup-chain.sup-bound", "sup-chain.norm-chain"]),
        )

    def test_05_algebra_bound(self, battery):
        _check("5 product-algebra-bound", battery["algebra.product-bound"].passed)

    def test_06_approximant_transfer(self, battery):
        _check(
            "6 approximant-norm-transfer-and-reconstruction",
            _all_pass(
                battery,
                [
                    "algebra.approximant-norm-transfer",
                    "algebra.approximant-transfer-exact",
                    "algebra.reconstruction.rational",
                    "algebra.reconstruction.float",
                ],
            ),
        )

    def test_07_quadrature_cross_validation(self, battery):
        _check(
            "7 quadrature-cross-validation",
            _all_pass(
                battery,
                [
                    "parseval.p2-trapezoid-vs-coefficients",
                    "parseval.even-p-trapezoid-vs-power-trick",
                ],
            ),
        )

    def test_08_pullback_invariance_with_negative_control(
        self, battery, pullback_negative
    ):
        positive = _all_pass(
            battery,
            [f"invariance.{name}.pullback-invariance" for name in SPEC_NAMES],
        )
        # the twisted multiple n+1 must surface at least one failure per spec
        negative = all(
            not pullback_negative[name].passed for name in SPEC_NAMES
        )
        _check("8 pullback-invariance (with negative control)", positive and negative)

    def test_09_membership_scale_invariance(self, battery):
        _check(
            "9 membership-scale-invariance",
            _all_pass(
                battery,
                [f"scale.{name}.verdict-invariance" for name in SPEC_NAMES],
            ),
        )

    def test_10_deterministic_reports(self, tmp_path):
        outs = []
        for run in range(2):
            path = tmp_path / f"report-{run}.txt"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "hardylab", "verify",
                    "--suite", "all", "--seed", "7", "--out", str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        _check("10 byte-identical-reports", outs[0] == outs[1])
        assert hashlib.sha256(outs[0]).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "budget-1"])
def test_raw_margins_are_pinned(monkeypatch, budget):
    # at budget 1 every draw is its own block and every buffer holds one
    # series: how the draws and norms are blocked moves no margin
    if budget is not None:
        monkeypatch.setattr(norms, "_BLOCK_ELEMS", budget)
    margins = []
    record = report._Tracker.record

    def spy(self, margin, *args, **fields):
        margins.append(float(margin).hex())
        return record(self, margin, *args, **fields)

    monkeypatch.setattr(report._Tracker, "record", spy)
    for negative in (False, True):
        run_suites(list(SUITES), RunConfig(order=8, points=256, samples=20, seed=7,
                                           negative_control=negative))
    assert len(margins) == 52466
    assert hashlib.sha256("\n".join(margins).encode()).hexdigest() == MARGIN_SHA256
