"""The ramforge command line: JSON in, JSON out, deterministic output.

Exit codes: 0 success, 2 input validation failure, 3 precision
insufficiency (retry with a larger truncation or coefficient precision),
4 a failed internal cross-check (the answer is withheld; a toolkit defect).
Error documents are structured JSON with a machine-readable reason.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import InvariantError, PrecisionError
from .herbrand import phi_from_breaks, pl_compose, psi_from_breaks, validate_breaks
from .nottingham import depth, index_of, lower_breaks, p_iterate, upper_from_lower
from .pdyn import analyze, newton_polygon, qn_divide
from .ramcheck import check_conditions, f_shift, f_shift_sum_check, m0, proot_check, tame_params
from .truncation import compose_morphism, is_extension, is_isomorphism, r_equivalent


def _load(source):
    """Parse inline JSON or read it from a file path."""
    text = source.strip()
    if not text.startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _frac_list(text):
    return [jsonio.frac_in(tok.strip()) for tok in text.split(",") if tok.strip()]


def _emit(doc, fmt):
    if fmt == "table":
        for line in _tabulate(doc):
            print(line)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _tabulate(doc, prefix=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _tabulate(doc[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(doc, list):
        yield f"{prefix[:-1]}: {json.dumps(doc)}"
    else:
        yield f"{prefix[:-1]}: {doc}"


# -- handlers ---------------------------------------------------------------


def _series_cmd(args):
    if args.op == "compose":
        out = jsonio.series_in(_load(args.outer)).compose(jsonio.series_in(_load(args.inner)))
        return jsonio.series_out(out)
    if args.op == "iterate":
        return jsonio.series_out(p_iterate(jsonio.series_in(_load(args.series)), args.n))
    if args.op == "depth":
        return {"depth": jsonio.depth_out(depth(jsonio.series_in(_load(args.series))))}
    if args.op == "inverse":
        return jsonio.series_out(jsonio.series_in(_load(args.series)).comp_inverse())
    raise AssertionError(args.op)


def _breaks_cmd(args):
    if args.op == "lower":
        rs = lower_breaks(jsonio.series_in(_load(args.series)), args.n_max)
        return jsonio.ram_sequence_out(rs)
    if args.op == "upper":
        return {"upper": list(upper_from_lower(args.p, _int_list(args.lower)))}
    if args.op == "index":
        return jsonio.index_report_out(index_of(args.p, _frac_list(args.upper)))
    if args.op == "validate":
        return jsonio.verdict_out(validate_breaks(jsonio.break_data_in(_load(args.input))))
    raise AssertionError(args.op)


def _herbrand_cmd(args):
    if args.op == "psi":
        return jsonio.plfunc_out(psi_from_breaks(jsonio.break_data_in(_load(args.input))))
    if args.op == "phi":
        return jsonio.plfunc_out(phi_from_breaks(jsonio.break_data_in(_load(args.input))))
    if args.op == "eval":
        f = jsonio.plfunc_in(_load(args.plfunc))
        return {"value": jsonio.frac_out(f(jsonio.frac_in(args.x)))}
    if args.op == "compose":
        f = jsonio.plfunc_in(_load(args.outer))
        g = jsonio.plfunc_in(_load(args.inner))
        return jsonio.plfunc_out(pl_compose(f, g))
    raise AssertionError(args.op)


def _trunc_cmd(args):
    if args.op == "compose":
        g = jsonio.morphism_in(_load(args.g))
        f = jsonio.morphism_in(_load(args.f))
        return jsonio.morphism_out(compose_morphism(g, f))
    if args.op == "extension":
        return {"is_extension": is_extension(jsonio.morphism_in(_load(args.f)))}
    if args.op == "requiv":
        f = jsonio.morphism_in(_load(args.f))
        f2 = jsonio.morphism_in(_load(args.f2))
        return {"r_equivalent": r_equivalent(f, f2, args.c)}
    if args.op == "iso":
        return {"is_isomorphism": is_isomorphism(jsonio.morphism_in(_load(args.f)))}
    raise AssertionError(args.op)


def _check_cmd(args):
    if args.op == "main":
        return jsonio.condition_report_out(check_conditions(jsonio.theorem_inputs_in(_load(args.input))))
    if args.op == "proot":
        return jsonio.condition_report_out(proot_check(jsonio.theorem_inputs_in(_load(args.input))))
    if args.op == "m0":
        return {"m0": m0(jsonio.theorem_inputs_in(_load(args.input)))}
    if args.op == "fshift":
        tp = tame_params(args.p, args.e)
        if args.sum_check:
            return {"sum_check": f_shift_sum_check(tp, args.m)}
        return {"f": f_shift(tp, args.m, args.t)}
    raise AssertionError(args.op)


def _dynamics_cmd(args):
    if args.op == "analyze":
        u = jsonio.padic_in(_load(args.series))
        return jsonio.dynamics_report_out(analyze(u, args.levels))
    if args.op == "newton":
        f = jsonio.padic_in(_load(args.series))
        return jsonio.polygon_out(newton_polygon(f, args.degree))
    if args.op == "qn":
        u = jsonio.padic_in(_load(args.series))
        return jsonio.divided_out(qn_divide(u, args.n))
    raise AssertionError(args.op)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ramforge",
        description="Exact computations on power-series groups, break data, "
        "truncated valuation rings, and p-adic dynamics.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="group", required=True)

    series = sub.add_parser("series", help="truncated series operations")
    sser = series.add_subparsers(dest="op", required=True)
    c = sser.add_parser("compose")
    c.add_argument("--outer", required=True)
    c.add_argument("--inner", required=True)
    c = sser.add_parser("iterate")
    c.add_argument("--series", required=True)
    c.add_argument("--n", type=int, required=True, help="compose p^n times")
    c = sser.add_parser("depth")
    c.add_argument("--series", required=True)
    c = sser.add_parser("inverse")
    c.add_argument("--series", required=True)
    series.set_defaults(func=_series_cmd)

    breaks = sub.add_parser("breaks", help="ramification break sequences")
    sbr = breaks.add_subparsers(dest="op", required=True)
    c = sbr.add_parser("lower")
    c.add_argument("--series", required=True)
    c.add_argument("--n-max", type=int, required=True)
    c = sbr.add_parser("upper")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--lower", required=True, help="comma-separated lower breaks")
    c = sbr.add_parser("index")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--upper", required=True, help="comma-separated upper breaks")
    c = sbr.add_parser("validate")
    c.add_argument("--input", required=True, help="break-data JSON")
    breaks.set_defaults(func=_breaks_cmd)

    herb = sub.add_parser("herbrand", help="piecewise-linear transfer functions")
    sh = herb.add_subparsers(dest="op", required=True)
    c = sh.add_parser("psi")
    c.add_argument("--input", required=True)
    c = sh.add_parser("phi")
    c.add_argument("--input", required=True)
    c = sh.add_parser("eval")
    c.add_argument("--func", dest="plfunc", required=True)
    c.add_argument("--x", required=True, help="rational evaluation point, e.g. 13/4")
    c = sh.add_parser("compose")
    c.add_argument("--outer", required=True)
    c.add_argument("--inner", required=True)
    herb.set_defaults(func=_herbrand_cmd)

    trunc = sub.add_parser("trunc", help="truncated valuation ring morphisms")
    st = trunc.add_subparsers(dest="op", required=True)
    c = st.add_parser("compose")
    c.add_argument("--g", required=True)
    c.add_argument("--f", required=True)
    c = st.add_parser("extension")
    c.add_argument("--f", required=True)
    c = st.add_parser("requiv")
    c.add_argument("--f", required=True)
    c.add_argument("--f2", required=True)
    c.add_argument("--c", type=int, required=True)
    c = st.add_parser("iso")
    c.add_argument("--f", required=True)
    trunc.set_defaults(func=_trunc_cmd)

    check = sub.add_parser("check", help="theorem-condition evaluation")
    sc = check.add_subparsers(dest="op", required=True)
    c = sc.add_parser("main")
    c.add_argument("--input", required=True, help="theorem-inputs JSON")
    c = sc.add_parser("proot")
    c.add_argument("--input", required=True)
    c = sc.add_parser("m0")
    c.add_argument("--input", required=True)
    c = sc.add_parser("fshift")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--e", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--t", type=int, default=0)
    c.add_argument("--sum-check", action="store_true")
    check.set_defaults(func=_check_cmd)

    dyn = sub.add_parser("dynamics", help="p-adic dynamical systems")
    sd = dyn.add_subparsers(dest="op", required=True)
    c = sd.add_parser("analyze")
    c.add_argument("--series", required=True)
    c.add_argument("--levels", type=int, required=True)
    c = sd.add_parser("newton")
    c.add_argument("--series", required=True)
    c.add_argument("--degree", type=int, required=True)
    c = sd.add_parser("qn")
    c.add_argument("--series", required=True)
    c.add_argument("--n", type=int, required=True)
    dyn.set_defaults(func=_dynamics_cmd)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except PrecisionError as exc:
        _emit({"error": {"type": "precision", "reason": str(exc)}}, args.format)
        return 3
    except InvariantError as exc:
        _emit({"error": {"type": "invariant", "reason": str(exc)}}, args.format)
        return 4
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": "input", "reason": str(exc)}}, args.format)
        return 2
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
