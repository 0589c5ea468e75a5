"""The ramforge command line: JSON in, JSON out, deterministic output.

Exit codes: 0 success, 2 input validation failure (including a usage
error and input nested too deeply to parse), 3 precision insufficiency
(retry with a larger truncation or coefficient precision), 4 a toolkit
defect: a failed internal cross-check (type ``invariant``) or any other
exception (type ``internal``, with its traceback on stderr); either way
the answer is withheld.  Error documents are structured JSON with a type and a
machine-readable reason; a precision document also names the quantity that
failed, its level and the partial data certified before it, each null when
unknown.  A reader that closes stdout early (``| head``) ends the output
quietly, with the command's own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import cache

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
    return json.loads(text, parse_int=jsonio.parse_decimal)


def _emit(doc, fmt):
    # rendered whole before printing, so a document that fails to render
    # prints nothing before the error document
    lines = list(_tabulate(doc)) if fmt == "table" else [json.dumps(doc, indent=2, sort_keys=True)]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: the rest of the
        # document goes to devnull, so that neither an error document nor
        # the flush at exit writes to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _tabulate(doc, prefix=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _tabulate(doc[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(doc, list):
        yield f"{prefix[:-1]}: {json.dumps(doc)}"
    else:
        yield f"{prefix[:-1]}: {doc}"


# -- the command table --------------------------------------------------------
#
# Each flag is read from its text after parsing, inside main's error
# handling: integers and rationals as a document's are, documents (inline
# JSON or a file path) by their wire-format reader.


def _doc(read):
    """The reader of a document: inline JSON or a file path."""
    return lambda text: read(_load(text))


def _each(read):
    """The reader of a comma-separated list."""
    return lambda text: [read(tok.strip()) for tok in text.split(",") if tok.strip()]


_INT, _FRAC = jsonio.int_in, jsonio.frac_in
_INTS, _FRACS = _each(_INT), _each(_FRAC)
_SERIES = _doc(jsonio.series_in)
_BREAKS, _INPUTS = _doc(jsonio.break_data_in), _doc(jsonio.theorem_inputs_in)
_PLFUNC, _MORPHISM = _doc(jsonio.plfunc_in), _doc(jsonio.morphism_in)


def _fshift(p, e, m, t, sum_check):
    tp = tame_params(p, e)
    if sum_check:
        return {"sum_check": f_shift_sum_check(tp, m)}
    return {"f": jsonio.int_out(f_shift(tp, m, t))}


# group -> (help, {command -> (handler, *flags)}); a flag is (name, reader)
# or (name, reader, argparse keywords), and is required unless it has a
# default.  The handler takes each flag's value by its argparse dest.
_COMMANDS = {
    "series": ("truncated series operations", {
        "compose": (lambda outer, inner: jsonio.series_out(outer.compose(inner)),
                    ("--outer", _SERIES), ("--inner", _SERIES)),
        "iterate": (lambda series, n: jsonio.series_out(p_iterate(series, n)),
                    ("--series", _SERIES), ("--n", _INT, {"help": "compose p^n times"})),
        "depth": (lambda series: {"depth": jsonio.depth_out(depth(series))}, ("--series", _SERIES)),
        "inverse": (lambda series: jsonio.series_out(series.comp_inverse()), ("--series", _SERIES)),
    }),
    "breaks": ("ramification break sequences", {
        "lower": (lambda series, n_max: jsonio.ram_sequence_out(lower_breaks(series, n_max)),
                  ("--series", _SERIES), ("--n-max", _INT)),
        "upper": (lambda p, lower: {"upper": [jsonio.int_out(b) for b in upper_from_lower(p, lower)]},
                  ("--p", _INT), ("--lower", _INTS, {"help": "comma-separated lower breaks"})),
        "index": (lambda p, upper: jsonio.index_report_out(index_of(p, upper)),
                  ("--p", _INT), ("--upper", _FRACS, {"help": "comma-separated upper breaks"})),
        "validate": (lambda input: jsonio.verdict_out(validate_breaks(input)),
                     ("--input", _BREAKS, {"help": "break-data JSON"})),
    }),
    "herbrand": ("piecewise-linear transfer functions", {
        "psi": (lambda input: jsonio.plfunc_out(psi_from_breaks(input)), ("--input", _BREAKS)),
        "phi": (lambda input: jsonio.plfunc_out(phi_from_breaks(input)), ("--input", _BREAKS)),
        "eval": (lambda plfunc, x: {"value": jsonio.frac_out(plfunc(x))},
                 ("--func", _PLFUNC, {"dest": "plfunc"}),
                 ("--x", _FRAC, {"help": "rational evaluation point, e.g. 13/4"})),
        "compose": (lambda outer, inner: jsonio.plfunc_out(pl_compose(outer, inner)),
                    ("--outer", _PLFUNC), ("--inner", _PLFUNC)),
    }),
    "trunc": ("truncated valuation ring morphisms", {
        "compose": (lambda g, f: jsonio.morphism_out(compose_morphism(g, f)),
                    ("--g", _MORPHISM), ("--f", _MORPHISM)),
        "extension": (lambda f: {"is_extension": is_extension(f)}, ("--f", _MORPHISM)),
        "requiv": (lambda f, f2, c: {"r_equivalent": r_equivalent(f, f2, c)},
                   ("--f", _MORPHISM), ("--f2", _MORPHISM), ("--c", _INT)),
        "iso": (lambda f: {"is_isomorphism": is_isomorphism(f)}, ("--f", _MORPHISM)),
    }),
    "check": ("theorem-condition evaluation", {
        "main": (lambda input: jsonio.condition_report_out(check_conditions(input)),
                 ("--input", _INPUTS, {"help": "theorem-inputs JSON"})),
        "proot": (lambda input: jsonio.condition_report_out(proot_check(input)), ("--input", _INPUTS)),
        "m0": (lambda input: {"m0": jsonio.int_out(m0(input))}, ("--input", _INPUTS)),
        "fshift": (_fshift, ("--p", _INT), ("--e", _INT), ("--m", _INT), ("--t", _INT, {"default": "0"}),
                   ("--sum-check", bool, {"action": "store_true", "default": False})),
    }),
    "dynamics": ("p-adic dynamical systems", {
        "analyze": (lambda series, levels: jsonio.dynamics_report_out(analyze(series, levels)),
                    ("--series", _SERIES), ("--levels", _INT)),
        "newton": (lambda series, degree: jsonio.polygon_out(newton_polygon(series, degree)),
                   ("--series", _SERIES), ("--degree", _INT)),
        "qn": (lambda series, n: jsonio.divided_out(qn_divide(series, n)),
               ("--series", _SERIES), ("--n", _INT)),
    }),
}


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, which main writes as an input error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@cache
def _build_parser():
    """The parser of every subcommand, built on first use and shared by
    later calls of main: parsing leaves it unchanged."""
    parser = _Parser(
        prog="ramforge",
        description="Exact computations on power-series groups, break data, "
        "truncated valuation rings, and p-adic dynamics.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (help_, commands) in _COMMANDS.items():
        ops = groups.add_parser(group, help=help_).add_subparsers(dest="op", required=True)
        for op, (handler, *flags) in commands.items():
            cmd = ops.add_parser(op)
            readers = {}
            for name, read, *kw in flags:
                kw = dict(*kw)
                readers[cmd.add_argument(name, required="default" not in kw, **kw).dest] = read
            cmd.set_defaults(command=(handler, readers))
    return parser


def main(argv=None):
    fmt = "json"
    try:
        args = _build_parser().parse_args(argv)
        fmt = args.format
        handler, readers = args.command
        _emit(handler(**{dest: read(getattr(args, dest)) for dest, read in readers.items()}), fmt)
    except PrecisionError as exc:
        partial = None if exc.partial is None else [jsonio.int_out(v) for v in exc.partial]
        _emit({"error": {"type": "precision", "reason": str(exc), "quantity": exc.quantity,
                         "level": jsonio.int_out(exc.level), "partial": partial}}, fmt)
        return 3
    except InvariantError as exc:
        _emit({"error": {"type": "invariant", "reason": str(exc)}}, fmt)
        return 4
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as exc:
        _emit({"error": {"type": "input", "reason": str(exc)}}, fmt)
        return 2
    except Exception as exc:
        traceback.print_exc()
        _emit({"error": {"type": "internal", "reason": f"{type(exc).__name__}: {exc}"}}, fmt)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
