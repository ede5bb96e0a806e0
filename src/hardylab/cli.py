"""Command-line front end.

Subcommands: ``norm`` (print the norms of a series file), ``apply`` (apply
an operator and emit the result series), ``verify`` (run the verification
battery), and ``membership`` (test a series against a subspace spec file).

Exit codes: 0 on success / pass, 1 on a verification or membership failure,
2 on usage or configuration errors (bad flags, malformed files, invalid
specs, an unwritable ``--out`` path), on inputs whose values leave
double range (OverflowError) and on sizes too large to allocate
(MemoryError).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .membership import membership, spec_from_dict
from .norms import (
    QuadratureConfig,
    SpaceParams,
    _effective_points,
    _node_count,
    _norm_family,
    _resolve_mode,
)
from .operators import (nth_antiderivative, nth_derivative, shift, shift_plus_volterra,
                        volterra)
from .series import dumps, from_dict
from .verify import SUITES, RunConfig, run_suites

# factorial-ratio coefficients stay inside double range up to here; the cap
# also spares the exact perm(order + n, n) an operator computes to refuse a huge n
_MAX_CLI_ORDER_PARAM = 16

_DEFAULTS = RunConfig()

# each `apply` kind and its call on the series f, parameter n and symbol g;
# the operators check n themselves
_APPLY = {
    "shift": lambda f, n, g: shift(f),
    "volterra": lambda f, n, g: volterra(f, g),
    "combined": lambda f, n, g: shift_plus_volterra(f, n),
    "diff": lambda f, n, g: nth_derivative(f, n),
    "integrate": lambda f, n, g: nth_antiderivative(f, n),
}


class _UsageError(ValueError):
    pass


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description=(
            "Numerical laboratory for Hardy-type spaces on the unit disk: "
            "norms, shift and Volterra operators, inner functions, and "
            "invariant-subspace membership."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="print the norms of a series JSON file")
    norm.add_argument("series", help="path to a series JSON file")
    norm.add_argument("--n", dest="order_n", type=int, default=1,
                      help="derivative depth n of the space (default 1)")
    norm.add_argument("--p", type=float, default=2.0,
                      help="integrability exponent p (default 2)")
    norm.add_argument("--points", type=int, default=_DEFAULTS.points,
                      help="boundary quadrature points (default %(default)s)")
    norm.set_defaults(func=cmd_norm)

    app = sub.add_parser("apply", help="apply an operator to a series file")
    app.add_argument("series", help="path to a series JSON file")
    app.add_argument("operator", choices=_APPLY)
    app.add_argument("--n", dest="order_n", type=int, default=1,
                     help="operator parameter n (default 1, capped at "
                          f"{_MAX_CLI_ORDER_PARAM})")
    app.add_argument("--g", help="series file with the volterra symbol g")
    app.add_argument("--out", help="output path (stdout when omitted)")
    app.set_defaults(func=cmd_apply)

    ver = sub.add_parser("verify", help="run the verification battery")
    ver.add_argument("--suite", default="all",
                     help=f"suite name or 'all'; names: {', '.join(SUITES)}")
    ver.add_argument("--order", type=int, default=_DEFAULTS.order,
                     help="max sample degree (default %(default)s)")
    ver.add_argument("--points", type=int, default=_DEFAULTS.points,
                     help="quadrature points (default %(default)s)")
    ver.add_argument("--tol", type=float, default=_DEFAULTS.tol,
                     help="inequality slack (default %(default)s)")
    ver.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                     help="run seed (default %(default)s)")
    ver.add_argument("--samples", type=int, default=_DEFAULTS.samples,
                     help="sample count for the invariance harnesses "
                          "(default %(default)s)")
    ver.add_argument("--negative-control", action="store_true",
                     help="twist every suite's check; failures are expected")
    ver.add_argument("--out", help="write the report here instead of stdout")
    ver.set_defaults(func=cmd_verify)

    mem = sub.add_parser("membership",
                         help="test a series file against a subspace spec file")
    mem.add_argument("series", help="path to a series JSON file")
    mem.add_argument("spec", help="path to a subspace spec JSON file")
    mem.add_argument("--tol", type=float, default=_DEFAULTS.tol,
                     help="residual tolerance, scale-relative (default %(default)s)")
    mem.set_defaults(func=cmd_membership)
    return parser


def _load(path, from_json):
    """``from_json`` of the JSON in file ``path``; an unreadable file, bad JSON
    (too deep nesting raises RecursionError) or a rejected document is a usage error."""
    try:
        return from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _emit(text, path):
    """Write ``text`` to file ``path``, or to stdout when no path is given; an
    unwritable path is a usage error."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def cmd_norm(args):
    f = _load(args.series, from_dict)
    params = SpaceParams(args.order_n, args.p)
    cfg = QuadratureConfig(num_points=args.points)
    mode = _resolve_mode(args.p, cfg.mode, f.order, cfg.num_points)
    nodes = (f" nodes={_node_count(f.order, args.p, cfg.num_points)}"
             if mode == "trapezoid" else "")
    # every norm is computed before anything is printed, so a norm that
    # fails leaves no partial report on stdout
    hp, sn, dsum, ssum = _norm_family(f, params, cfg)
    lines = [
        f"# series: {args.series} (order {f.order})",
        f"# quadrature: points={cfg.num_points} mode={cfg.mode}",
        f"# used on f: hp-norm mode={mode}{nodes}, sup nodes="
        f"{_effective_points(f, cfg.num_points)}",
        f"hp-norm (p={args.p:g}):            {hp:.15g}",
        f"space-norm (n={params.n}, p={args.p:g}):    {sn:.15g}",
        f"derivative-sum norm:         {dsum:.15g}",
        f"sup-sum norm:                {ssum:.15g}",
    ]
    print("\n".join(lines))
    return 0


def cmd_apply(args):
    f = _load(args.series, from_dict)
    if args.order_n > _MAX_CLI_ORDER_PARAM:
        raise _UsageError(
            f"operator parameter n is capped at {_MAX_CLI_ORDER_PARAM} on the "
            "command line to keep factorial ratios inside double range"
        )
    g = _load(args.g, from_dict) if args.g else None
    if args.operator == "volterra" and g is None:
        raise _UsageError("the volterra operator needs its symbol series --g")
    _emit(dumps(_APPLY[args.operator](f, args.order_n, g)) + "\n", args.out)
    return 0


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = RunConfig(
        order=args.order,
        points=args.points,
        tol=args.tol,
        seed=args.seed,
        samples=args.samples,
        negative_control=args.negative_control,
    )
    report = run_suites(names, cfg)
    _emit(report.render(), args.out)
    return 0 if report.passed else 1


def cmd_membership(args):
    f = _load(args.series, from_dict)
    spec = _load(args.spec, spec_from_dict)
    result = membership(f, spec, args.tol)
    print(f"member: {'yes' if result.member else 'no'} "
          f"(truncation order {result.truncation_order})")
    for cond in result.conditions:
        verdict = "PASS" if cond.passed else "FAIL"
        line = (f"  {cond.condition}: {verdict} residual={cond.residual:.6e} "
                f"threshold={cond.threshold:.6e}")
        if cond.note:
            line += f" [{cond.note}]"
        print(line)
    return 0 if result.member else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:  # _UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an order or point count too large to allocate
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())
