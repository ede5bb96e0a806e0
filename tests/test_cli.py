"""Command-line interface: output shape and exit-code contract."""

import json

import pytest

from hardylab import (
    InnerFunction,
    SpaceParams,
    SubspaceSpec,
    TaylorSeries,
    loads,
    multiply,
    save_series,
    spec_to_dict,
)
from hardylab.cli import main

NESTED = SubspaceSpec(
    boundary_sets=((1 + 0j, -1 + 0j), (1 + 0j,)),
    inner=InnerFunction(),
    space=SpaceParams(2, 2.0),
)


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "series.json"
    save_series(TaylorSeries([1.0, 1.0]), path)
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(NESTED)), encoding="utf-8")
    return str(path)


class TestNormCommand:
    def test_prints_norms_and_succeeds(self, series_file, capsys):
        assert main(["norm", series_file, "--p", "2", "--points", "512"]) == 0
        out = capsys.readouterr().out
        assert "hp-norm" in out
        assert "space-norm" in out
        # |1 + z| in the p = 2 space is sqrt(2)
        hp_line = next(l for l in out.splitlines() if l.startswith("hp-norm"))
        assert float(hp_line.split()[-1]) == pytest.approx(2.0 ** 0.5, rel=1e-12)

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["norm", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_derivative_factor_beyond_double_range_is_usage_error(self, tmp_path, capsys):
        # perm(300, k) leaves double range long before k = 200
        path = tmp_path / "order300.json"
        save_series(TaylorSeries([1.0] * 301), path)
        assert main(["norm", str(path), "--n", "200"]) == 2
        captured = capsys.readouterr()
        assert "exceeds double range" in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestApplyCommand:
    def test_shift_to_stdout(self, series_file, capsys):
        assert main(["apply", series_file, "shift"]) == 0
        result = loads(capsys.readouterr().out.strip())
        assert result == TaylorSeries([0.0, 1.0, 1.0])

    def test_out_file(self, series_file, tmp_path, capsys):
        dest = tmp_path / "out.json"
        assert main(["apply", series_file, "diff", "--out", str(dest)]) == 0
        assert loads(dest.read_text()) == TaylorSeries([1.0])

    def test_volterra_needs_symbol(self, series_file, capsys):
        assert main(["apply", series_file, "volterra"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_order_parameter_capped(self, series_file, capsys):
        assert main(["apply", series_file, "combined", "--n", "17"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_unknown_operator_rejected_by_parser(self, series_file):
        with pytest.raises(SystemExit) as exc:
            main(["apply", series_file, "frobnicate"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code = main(
            ["verify", "--suite", "norms", "--order", "16", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# result: PASS" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_negative_control_fails_with_exit_1(self, capsys, tmp_path):
        dest = tmp_path / "report.txt"
        code = main(
            [
                "verify", "--suite", "norms", "--order", "16", "--seed", "1",
                "--negative-control", "--out", str(dest),
            ]
        )
        assert code == 1
        text = dest.read_text()
        assert "# result: FAIL" in text
        assert "witness=" in text


class TestMembershipCommand:
    def test_member_exits_zero(self, tmp_path, spec_file, capsys):
        f = TaylorSeries([1.0])
        for root in (1.0, 1.0, -1.0):
            f = multiply(f, TaylorSeries([-root, 1.0]))
        path = tmp_path / "member.json"
        save_series(f, path)
        assert main(["membership", str(path), spec_file]) == 0
        out = capsys.readouterr().out
        assert "member: yes" in out
        assert "PASS" in out

    def test_non_member_exits_one(self, tmp_path, spec_file, capsys):
        path = tmp_path / "almost.json"
        save_series(TaylorSeries([-1.0, 0.0, 1.0]), path)  # z^2 - 1
        assert main(["membership", str(path), spec_file]) == 1
        out = capsys.readouterr().out
        assert "member: no" in out
        assert "FAIL" in out

    def test_invalid_spec_is_usage_error(self, tmp_path, series_file, capsys):
        bad = spec_to_dict(NESTED)
        bad["K"][0][0] = [0.5, 0.0]  # interior point breaks unit modulus
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["membership", series_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_is_usage_error(self, series_file, tmp_path, capsys):
        missing = str(tmp_path / "ghost.json")
        assert main(["membership", series_file, missing]) == 2
        assert "error:" in capsys.readouterr().err
