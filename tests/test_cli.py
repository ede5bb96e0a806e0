"""Command-line interface: output shape and exit-code contract."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    InnerFunction,
    QuadratureConfig,
    SpaceParams,
    SubspaceSpec,
    TaylorSeries,
    derivative_sum_norm,
    dumps,
    hp_norm,
    load_series,
    loads,
    monomial,
    multiply,
    from_dict,
    nth_antiderivative,
    nth_derivative,
    save_series,
    shift,
    shift_plus_volterra,
    sn_norm,
    spec_from_dict,
    spec_to_dict,
    sup_sum_norm,
    volterra,
)
from hardylab import cli, series
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

    def test_header_names_the_method_used(self, series_file, tmp_path, capsys):
        big = tmp_path / "order1100.json"
        save_series(TaylorSeries([1.0] * 1101), big)
        cases = [
            ([series_file, "--p", "2"], "hp-norm mode=parseval, sup nodes=4096"),
            ([series_file, "--p", "3", "--points", "512"],
             "hp-norm mode=trapezoid nodes=512, sup nodes=512"),
            # 4 * 1101 = 4404 nodes is the floor; 4500 = 2**2 * 3**2 * 5**3 the smooth size
            ([str(big), "--p", "3"], "hp-norm mode=trapezoid nodes=4500, sup nodes=4404"),
        ]
        for argv, used in cases:
            assert main(["norm", *argv]) == 0
            header = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
            assert header[-1] == f"# used on f: {used}"

    def test_norm_lines_are_the_four_public_norms(self, tmp_path, capsys):
        rng = np.random.default_rng(46)
        cfg = QuadratureConfig(num_points=512)
        for order, n, p in [(0, 3, 2.0), (8, 2, 3.0), (40, 4, 1.5), (300, 3, 4.0),
                            (1023, 1, 6.0), (2000, 3, 3.0)]:
            path = tmp_path / f"order{order}.json"
            save_series(TaylorSeries(rng.uniform(-1, 1, order + 1)
                                     + 1j * rng.uniform(-1, 1, order + 1)), path)
            f, params = load_series(path), SpaceParams(n, p)
            assert main(["norm", str(path), "--n", str(n), "--p", f"{p:g}",
                         "--points", "512"]) == 0
            assert capsys.readouterr().out.splitlines()[3:] == [
                f"hp-norm (p={p:g}):            {hp_norm(f, p, cfg):.15g}",
                f"space-norm (n={n}, p={p:g}):    {sn_norm(f, params, cfg):.15g}",
                f"derivative-sum norm:         {derivative_sum_norm(f, params, cfg):.15g}",
                f"sup-sum norm:                {sup_sum_norm(f, params, cfg):.15g}",
            ]

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["norm", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_derivative_factor_beyond_double_range_is_usage_error(self, tmp_path, capsys):
        # perm(300, k) leaves double range long before k = 200
        path = tmp_path / "order300.json"
        save_series(TaylorSeries([1.0] * 301), path)
        assert main(["norm", str(path), "--n", "200"]) == 2
        captured = capsys.readouterr()
        # the depth asked for, checked before any rung of the ladder is built
        assert captured.err == ("error: derivative 200 of an order-300 float series needs "
                                "the factor perm(300, 200), which exceeds double range\n")
        assert "Traceback" not in captured.out + captured.err

    def test_space_norm_rejects_deep_n_instead_of_printing_nan(self, tmp_path, capsys):
        # the coefficients of the 200th derivative would reach inf; the
        # ladder checks perm(order, n) up front
        path = tmp_path / "order300.json"
        save_series(TaylorSeries([1.0] * 301), path)
        assert main(["norm", str(path), "--n", "200"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "nan" not in captured.out
        assert "space-norm" not in captured.out

    def test_failing_norm_prints_no_partial_report(self, tmp_path, capsys):
        # hp-norm alone would succeed on this series; the ladder fails first
        path = tmp_path / "order300.json"
        save_series(TaylorSeries([1.0] * 301), path)
        assert main(["norm", str(path), "--n", "200"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs", [[[2.0, 0.0]], [[1.0, 0.5]] * 9],
                             ids=["order-0", "order-8"])
    def test_norm_at_large_p_is_usage_error(self, tmp_path, capsys, coeffs):
        # at p = 2000 the order-0 series's norm 2 underflowed to 0 and exited
        # 0; the order-8 series's power overflowed with a NumPy warning
        path = tmp_path / "large-p.json"
        path.write_text(json.dumps({"order": len(coeffs) - 1, "coeffs": coeffs}),
                        encoding="utf-8")
        assert main(["norm", str(path), "--p", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "double precision" in captured.err

    def test_space_norm_near_double_range_is_finite(self, tmp_path, capsys):
        # perm(300, 120) ~ 1e284 fits a double but its square does not
        path = tmp_path / "order300.json"
        save_series(TaylorSeries([1.0] * 301), path)
        assert main(["norm", str(path), "--n", "120"]) == 0
        values = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("#")]
        assert len(values) == 4 and all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coefficient_is_usage_error(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"order": 1, "coeffs": [[1.0, 0.0], [{bad}, 0.0]]}}',
                        encoding="utf-8")
        assert main(["norm", str(path)]) == 2
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert "nan" not in captured.out and "inf" not in captured.out

    @pytest.mark.parametrize("order", ["true", '"1"'], ids=["bool", "string"])
    def test_order_that_is_not_a_count_is_usage_error(self, tmp_path, capsys, order):
        # {"order": true} used to load as order 1 and exit 0
        path = tmp_path / "bad.json"
        path.write_text(f'{{"order": {order}, "coeffs": [[1.0, 0.0], [2.0, 0.0]]}}',
                        encoding="utf-8")
        assert main(["norm", str(path)]) == 2
        captured = capsys.readouterr()
        assert "order must be an integer >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("part", ["null", "[1.0]", '{"re": 1.0}', "1" + "0" * 400, '"12"',
                                      "true"],
                             ids=["null", "list", "object", "int-beyond-double",
                                  "numeric-string", "bool"])
    def test_non_number_coefficient_part_is_usage_error(self, tmp_path, capsys, part):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"order": 0, "coeffs": [[{part}, 0.0]]}}', encoding="utf-8")
        assert main(["norm", str(path)]) == 2
        captured = capsys.readouterr()
        assert "finite real numbers" in captured.err
        assert captured.out == ""

    def test_norm_sum_beyond_double_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_series(TaylorSeries([1e308, 1e308]), path)
        assert main(["norm", str(path)]) == 2
        captured = capsys.readouterr()
        assert "double precision" in captured.err
        assert captured.out == ""

    def test_deeply_nested_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        assert main(["norm", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_point_count_is_usage_error(self, series_file, capsys):
        # the sup grid of 10**14 nodes (1.42 PiB) exceeds any 47-bit address
        # space, so it fails at once; it used to print a NumPy traceback
        assert main(["norm", series_file, "--points", str(10**14)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: input too large: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestApplyCommand:
    def test_shift_to_stdout(self, series_file, capsys):
        assert main(["apply", series_file, "shift"]) == 0
        result = loads(capsys.readouterr().out.strip())
        assert result == TaylorSeries([0.0, 1.0, 1.0])

    def test_out_file(self, series_file, tmp_path, capsys):
        dest = tmp_path / "out.json"
        assert main(["apply", series_file, "diff", "--out", str(dest)]) == 0
        assert loads(dest.read_text()) == TaylorSeries([1.0])

    # each kind's --n and the library call it must print
    DIRECT_CALLS = {
        "shift": (1, lambda f, g: shift(f)),
        "volterra": (1, lambda f, g: volterra(f, g)),
        "combined": (3, lambda f, g: shift_plus_volterra(f, 3)),
        "diff": (1, lambda f, g: nth_derivative(f, 1)),
        "integrate": (2, lambda f, g: nth_antiderivative(f, 2)),
    }

    @pytest.mark.parametrize("kind", DIRECT_CALLS)
    def test_each_kind_prints_the_direct_call(self, series_file, tmp_path, capsys, kind):
        n, call = self.DIRECT_CALLS[kind]
        g_file = tmp_path / "g.json"
        save_series(monomial(2, 1.0), g_file)
        assert main(["apply", series_file, kind, "--n", str(n), "--g", str(g_file)]) == 0
        want = call(load_series(series_file), load_series(g_file))
        assert capsys.readouterr().out == dumps(want) + "\n"

    def test_order_parameter_zero_is_usage_error(self, series_file, capsys):
        # refused by the operator's own check on n
        assert main(["apply", series_file, "diff", "--n", "0"]) == 2
        captured = capsys.readouterr()
        assert "operator parameter n" in captured.err
        assert captured.out == ""

    def test_volterra_needs_symbol(self, series_file, capsys):
        assert main(["apply", series_file, "volterra"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_order_parameter_capped(self, series_file, capsys):
        assert main(["apply", series_file, "combined", "--n", "17"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_non_finite_result_is_usage_error(self, tmp_path, capsys):
        # the coefficients are finite, the combined operator's weights overflow them
        path = tmp_path / "big.json"
        path.write_text('{"order": 1, "coeffs": [[1e308, 0], [1e308, 0]]}', encoding="utf-8")
        assert main(["apply", str(path), "combined", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing/out.json", ""], ids=["no-parent", "directory"])
    def test_unwritable_out_is_usage_error(self, series_file, tmp_path, capsys, where):
        assert main(["apply", series_file, "shift", "--out", str(tmp_path / where)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("where", ["missing/report.txt", ""], ids=["no-parent", "directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, where):
        # exit 1 would read as "claims failed"
        code = main(["verify", "--suite", "norms", "--order", "16", "--seed", "1",
                     "--out", str(tmp_path / where)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        # 10**14 nodes a trapezoid row (4.26 PiB for three radii)
        pytest.param(["--order", "4", "--points", str(10**14)], id="points"),
        # the first drawn degree at seed 0 is 889738791278135 (6.32 PiB of floats)
        pytest.param(["--order", str(10**15)], id="order"),
    ])
    def test_unallocatable_size_is_usage_error(self, capsys, flags):
        # both sizes exceed any 47-bit address space, so the allocation fails
        # at once; exit 1 would read as "claims failed"
        assert main(["verify", "--suite", "hardy-sum", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: input too large: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("flags, exit_code, digest", [
        pytest.param([], 0,
                     "ee29b5a97e5f586c9caf06c4bace603845525e231f7ac916174c69b55c2ba760",
                     id="positive"),
        # 25 failing claims: a witness in every format the battery writes
        pytest.param(["--negative-control"], 1,
                     "152dff0558f391ce623fdac11bc3775041a96fc9a70f1bd3905e1741a3491db8",
                     id="negative"),
    ])
    def test_order8_report_is_pinned(self, tmp_path, flags, exit_code, digest):
        # the benchmark's battery workload runs these order-8 arguments
        dest = tmp_path / "report.txt"
        code = main([
            "verify", "--suite", "all", "--seed", "7", *flags,
            "--order", "8", "--points", "256", "--samples", "20", "--out", str(dest),
        ])
        assert code == exit_code
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == digest


class TestConsoleScript:
    @pytest.mark.parametrize("argv, first_line", [
        pytest.param(["--help"], "usage: hardylab", id="help"),
        pytest.param(["verify", "--suite", "norms", "--order", "4", "--points", "64"],
                     "# hardylab verification report", id="verify"),
    ])
    def test_project_script_exits_0(self, monkeypatch, capsys, argv, first_line):
        # the [project.scripts] target, resolved and called as an installed
        # script calls it: no arguments, sys.argv read, the exit code raised
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hardylab"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["hardylab", *argv])
        with pytest.raises(SystemExit) as exit_:
            entry()
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(first_line)
        assert argv == ["--help"] or out.endswith("# result: PASS (1 claims, 0 failed)\n")


class TestRepeatedCalls:
    def test_in_process_calls_match_fresh_processes(self, series_file):
        # the parser is built once per process; no call may leave state in it
        argvs = [
            ["verify", "--suite", "norms", "--order", "6", "--points", "64",
             "--negative-control"],
            ["verify", "--suite", "norms", "--order", "6", "--points", "64"],
            ["norm", series_file, "--p", "3"],
        ]
        in_process = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                in_process.append((main(argv), out.getvalue()))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        for argv, (code, text) in zip(argvs, in_process):
            fresh = subprocess.run([sys.executable, "-m", "hardylab", *argv],
                                   capture_output=True, text=True, env=env, check=False)
            assert (code, text) == (fresh.returncode, fresh.stdout)
        assert in_process[0][0] == 1 and in_process[1][0] == 0
        assert cli.build_parser() is cli.build_parser()

    def test_cold_and_warm_table_cache_give_the_pinned_report(self, tmp_path):
        # the operators' weight tables are built once per shape and shared
        series._tables.cache_clear()
        for run in ("cold", "warm"):
            dest = tmp_path / f"{run}.txt"
            assert main(["verify", "--suite", "all", "--seed", "7", "--order", "8",
                         "--points", "256", "--samples", "20", "--out", str(dest)]) == 0
            assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
                "ee29b5a97e5f586c9caf06c4bace603845525e231f7ac916174c69b55c2ba760")
        # two shapes the battery asked for: the 2-fold antiderivative and
        # the n = 1 combined operator of an order-8 series
        hits = series._tables.cache_info().hits
        folded, common = series._tables(None, (range(2, 11), 2), True)
        quotients = series._tables((range(2, 11), 1), (range(1, 10), 1), False)
        assert series._tables.cache_info().hits == hits + 2
        assert type(folded) is tuple and type(quotients) is tuple
        # exact tables above degree 256 are built per call, not kept
        info = series._tables.cache_info()
        series.derivative(TaylorSeries([1] * 301), 2)
        assert series._tables.cache_info() == info
        bound = info.maxsize
        for k in range(bound + 10):
            series._tables(None, (range(k + 2, k + 4), 2), True)
        assert series._tables.cache_info().currsize == bound


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

    def test_singular_atom_spec_has_no_polynomial_member(self, tmp_path, capsys):
        # z - 1 meets every other condition; the atom is light enough that
        # the former radial growth probe read it as a member
        spec = SubspaceSpec(((1 + 0j,),), InnerFunction(atoms=((0.0, 1e-3),)),
                            SpaceParams(1, 2.0))
        series = tmp_path / "z-minus-one.json"
        save_series(TaylorSeries([-1.0, 1.0]), series)
        assert self._run_with_spec(tmp_path, str(series), spec_to_dict(spec)) == 1
        out = capsys.readouterr().out
        assert "member: no" in out
        assert "  singular-factor-division: FAIL" in out
        assert "derivative-0-vanishes-at-1+0j: PASS" in out

    def test_invalid_spec_is_usage_error(self, tmp_path, series_file, capsys):
        bad = spec_to_dict(NESTED)
        bad["K"][0][0] = [0.5, 0.0]  # interior point breaks unit modulus
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["membership", series_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_spec_file_is_usage_error(self, series_file, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n": ' + "[" * 100000, encoding="utf-8")
        assert main(["membership", series_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_value_beyond_double_range_is_usage_error(self, tmp_path, spec_file, capsys):
        # both parts are finite, the modulus of the value at 1 is not
        path = tmp_path / "huge.json"
        save_series(TaylorSeries([1.3e308 + 1.3e308j]), path)
        assert main(["membership", str(path), spec_file]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_huge_multiplicity_is_decided_promptly(self, tmp_path, series_file, capsys):
        # 1 + z has no derivative of order above 1 left to test, so only two
        # of the 10**5 residuals can fail
        spec = spec_to_dict(NESTED)
        spec["inner"]["zeros"] = [[0.5, 0.0, 10**5]]
        assert self._run_with_spec(tmp_path, series_file, spec) == 1
        assert capsys.readouterr().out.count("blaschke-zero") == 2

    def test_missing_spec_file_is_usage_error(self, series_file, tmp_path, capsys):
        missing = str(tmp_path / "ghost.json")
        assert main(["membership", series_file, missing]) == 2
        assert "error:" in capsys.readouterr().err

    def _run_with_spec(self, tmp_path, series_file, spec, *flags):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return main(["membership", series_file, str(path), *flags])

    def test_string_zero_mode_is_usage_error(self, tmp_path, series_file, capsys):
        # bool("false") is True: the string must not be read as a flag
        spec = spec_to_dict(NESTED)
        spec["zero_mode"] = "false"
        assert self._run_with_spec(tmp_path, series_file, spec) == 2
        assert "zero_mode" in capsys.readouterr().err

    def test_non_integral_depth_is_usage_error(self, tmp_path, series_file, capsys):
        spec = spec_to_dict(NESTED)
        spec["n"] = 1.7
        assert self._run_with_spec(tmp_path, series_file, spec) == 2
        assert "1.7" in capsys.readouterr().err

    def test_non_integral_multiplicity_is_usage_error(self, tmp_path, series_file, capsys):
        spec = spec_to_dict(NESTED)
        spec["inner"]["zeros"] = [[0.5, 0.0, 1.7]]
        assert self._run_with_spec(tmp_path, series_file, spec) == 2
        assert "multiplicity" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, series_file, spec_file, capsys, tol):
        assert main(["membership", series_file, spec_file, f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
        assert "member:" not in captured.out

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda spec: spec["inner"].update(const=[math.nan, 0.0]),
                     id="const-nan"),
        pytest.param(lambda spec: spec["inner"].update(atoms=[[math.nan, 1.0]]),
                     id="atom-angle-nan"),
        pytest.param(lambda spec: spec["inner"].update(atoms=[[0.0, math.inf]]),
                     id="atom-mass-inf"),
        pytest.param(lambda spec: spec["inner"].update(zeros=[[math.nan, 0.0, 1]]),
                     id="zero-nan"),
        pytest.param(lambda spec: spec["K"][0].append([math.nan, 0.0]),
                     id="boundary-point-nan"),
        pytest.param(lambda spec: spec.update(p=10**400), id="p-beyond-double"),
        pytest.param(lambda spec: spec["inner"].update(zeros=[[10**400, 0.0, 1]]),
                     id="zero-beyond-double"),
        pytest.param(lambda spec: spec["K"][0].append([0.0, 10**400]),
                     id="boundary-point-beyond-double"),
    ])
    def test_non_finite_spec_number_is_usage_error(self, tmp_path, series_file,
                                                   capsys, edit):
        spec = spec_to_dict(NESTED)
        edit(spec)
        assert self._run_with_spec(tmp_path, series_file, spec) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "member:" not in captured.out


# JSON-shaped values; the keys include the field names of both file formats,
# and the slots of the two formats mostly hold numbers, so many documents get
# past the shape checks
_KEYS = st.sampled_from(
    ["order", "coeffs", "n", "p", "zero_mode", "K", "inner", "zeros", "const", "atoms"]
) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=5),
    max_leaves=8,
)
_NUMERIC_TEXT = st.from_regex(r"-?[0-9]{1,3}(\.[0-9])?", fullmatch=True)
_SLOT = st.integers() | st.floats() | st.booleans() | _NUMERIC_TEXT | _JSON


def _tuples(length, max_size):
    # mostly the stated length, sometimes one entry short or long
    sizes = st.just(length) | st.sampled_from([length - 1, length + 1])
    return st.lists(sizes.flatmap(lambda k: st.lists(_SLOT, min_size=k, max_size=k)),
                    max_size=max_size)


_SERIES_DOCS = _JSON | st.just({"order": 0, "coeffs": [["12", "3"]]}) | _tuples(2, 3).filter(
    len).map(lambda pairs: {"order": len(pairs) - 1, "coeffs": pairs})
_SPEC_DOCS = _JSON | st.fixed_dictionaries({
    "n": st.just(1) | _JSON,
    "p": st.just(2.0) | _SLOT,
    "zero_mode": st.booleans() | _JSON,
    "K": st.just([[[1.0, 0.0]]]) | st.just([["10"]]) | _tuples(2, 2).map(lambda points: [points])
    | _JSON,
    "inner": _JSON | st.fixed_dictionaries({}, optional={
        "zeros": _tuples(3, 2), "const": st.lists(_SLOT, min_size=2, max_size=2),
        "atoms": _tuples(2, 2),
    }),
})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a valid series and spec file, to pair with the
    fuzzed ones."""
    path = tmp_path_factory.mktemp("fuzz")
    save_series(TaylorSeries([1.0, 1.0]), path / "valid-series.json")
    (path / "valid-spec.json").write_text(json.dumps(spec_to_dict(NESTED)), encoding="utf-8")
    return path


class TestFuzzedFiles:
    @given(series=_SERIES_DOCS, spec=_SPEC_DOCS)
    @settings(max_examples=150, deadline=None)
    def test_any_json_gives_an_exit_code_and_no_traceback(self, fuzz_dir, series, spec):
        for parse, doc in ((from_dict, series), (spec_from_dict, spec)):
            try:
                parse(doc)
            except ValueError:
                continue
            # whatever is accepted holds only pairs of JSON numbers
            rows = doc["coeffs"] if parse is from_dict else [z for ks in doc["K"] for z in ks]
            assert all(type(row) is list and len(row) == 2 for row in rows)
            assert all(type(x) in (int, float) for row in rows for x in row)
        series_path, spec_path = fuzz_dir / "series.json", fuzz_dir / "spec.json"
        series_path.write_text(json.dumps(series), encoding="utf-8")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        for argv in (
            ["norm", series_path],
            ["apply", series_path, "combined", "--n", "2"],
            ["membership", series_path, fuzz_dir / "valid-spec.json"],
            ["membership", fuzz_dir / "valid-series.json", spec_path],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([str(arg) for arg in argv])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda spec: spec.update(K=[["10"]]), id="point-as-string"),
        pytest.param(lambda spec: spec.update(K=[[["1", "0"]]]), id="numeric-strings"),
        pytest.param(lambda spec: spec.update(K=[[[True, False]]]), id="bools"),
        pytest.param(lambda spec: spec.update(K=[[[1.0, 0.0, 5.0]]]), id="point-too-long"),
        pytest.param(lambda spec: spec.update(p="2"), id="p-string"),
        pytest.param(lambda spec: spec.update(p=True), id="p-bool"),
        pytest.param(lambda spec: spec.update(n=True), id="n-bool"),
        pytest.param(lambda spec: spec["inner"].update(zeros=[[0.5, 0.0, 1, 7]]),
                     id="zero-too-long"),
        pytest.param(lambda spec: spec["inner"].update(atoms=[[1.0, "0.5"]]),
                     id="atom-mass-string"),
    ])
    def test_spec_numbers_must_be_json_numbers(self, fuzz_dir, tmp_path, capsys, edit):
        # z - 1 vanishes at the point 1 that "10" was once read as
        series_path = tmp_path / "z-minus-1.json"
        save_series(TaylorSeries([-1.0, 1.0]), series_path)
        spec = {"n": 1, "p": 2.0, "zero_mode": False, "K": [[[1.0, 0.0]]],
                "inner": {"zeros": [], "const": [1.0, 0.0], "atoms": []}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["membership", str(series_path), str(spec_path)]) == 0
        edit(spec)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        capsys.readouterr()
        assert main(["membership", str(series_path), str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "member:" not in captured.out
