"""JSON wire formats for every public value type.

Writers are canonical so identical inputs produce byte-identical
documents: rationals are emitted as "num/den" strings (break data keeps
its [num, den] pair layout), and integers are emitted as JSON numbers only
below 2^53, as strings otherwise.  Readers are liberal and accept every
form a writer can emit, so emitted documents round-trip unchanged.

A series document names its ring: "p", then "w" and "modulus" for
F_{p^w} or "prec" for Z/p^P.  One reader, ``series_in``, reads every
series document in the ring it names, and a command that cannot work in
that ring refuses it.  A series over Z/p^P is written with "prec" and
without "w", by ``series_out`` as by ``padic_out``; ``padic_out`` also
writes "prec" for P = 1, the form of every dynamics document.
"""

from __future__ import annotations

import os
import sys
from dataclasses import fields
from fractions import Fraction

from .gfseries import FiniteField, TruncSeries, _check_length, _from_packed, _plain_packed
from .herbrand import BreakData, PLFunc, frac_in, int_in, parse_decimal
from .nottingham import AtLeast, IndexReport
from .pdyn import NewtonPolygon
from .ramcheck import TheoremInputs
from .truncation import TruncMorphism, TruncObject

_SAFE_INT = 2**53
_DEFAULT_BUDGET = 10**6
# Rabin's irreducibility test of a degree-w modulus over F_p takes about
# w^3 * bits(p) operations; at this bound the slowest field it admits, w =
# 37 over an 82-bit p, builds in about 1.1 s on a 2-vCPU VM
_MAX_FIELD_WORK = 2**22


def check_budget(digits):
    """Enforce the RAMFORGE_MAX_PRECISION cap on total coefficient-digits."""
    cap = int(os.environ.get("RAMFORGE_MAX_PRECISION", _DEFAULT_BUDGET))
    if digits > cap:
        raise ValueError(
            f"requested precision ({digits} coefficient-digits) exceeds the "
            f"RAMFORGE_MAX_PRECISION cap of {cap}"
        )


def _decimal(v):
    """The decimal text of int v.  Past Python's limit on int-to-decimal
    conversion the ValueError names the cause, not Python's remedy."""
    try:
        return str(v)
    except ValueError:
        raise ValueError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} digits, "
            "too long to print"
        ) from None


def int_out(v):
    """An integer field: a JSON number below 2^53, a decimal string from
    there on; an absent value (None) stays null."""
    if v is None:
        return None
    v = int(v)
    return v if abs(v) < _SAFE_INT else _decimal(v)


# -- document fields ---------------------------------------------------------------

_KINDS = {bool: "a boolean", int: "a number", float: "a number", str: "a string", list: "a list",
          type(None): "null"}
_REQUIRED = object()


def _kind(value):
    return _KINDS.get(type(value), "an object")


def _field(doc, key, kind=None, path=(), default=_REQUIRED):
    """doc[key], where doc is the object at path (the keys leading to it
    from the document).  The input error names the field by its path when
    doc is not an object, when the field is absent and has no default, or
    when its value is not of the JSON kind given; a field whose default is
    None may also be null."""
    if not isinstance(doc, dict):
        where = f'field "{".".join(path)}"' if path else "the document"
        raise ValueError(f"{where} must be an object, not {_kind(doc)}")
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f'missing field "{".".join((*path, key))}"')
    if kind is None or isinstance(value, kind) or (value is None and default is None):
        return value
    raise ValueError(f'field "{".".join((*path, key))}" must be {_KINDS[kind]}, not {_kind(value)}')


def _coeff_in(c):
    """A prime-field coefficient (an integer) or an extension-field vector."""
    return tuple(int_in(x) for x in c) if isinstance(c, list) else int_in(c)


def _ratio_out(num, den):
    """The text "num/den" of a rational given in lowest terms."""
    try:
        return f"{num}/{den}"
    except ValueError:
        return f"{_decimal(num)}/{_decimal(den)}"


def frac_out(x):
    if type(x) is not Fraction:
        x = Fraction(x)
    return _ratio_out(x.numerator, x.denominator)


def frac_pair_out(x):
    x = Fraction(x)
    return [int_out(x.numerator), int_out(x.denominator)]


# -- series over F_p, Z/p^P and F_{p^w} ------------------------------------


def field_out(f):
    if f.prec > 1:
        return {"p": int_out(f.p), "prec": int_out(f.prec)}
    doc = {"p": int_out(f.p), "w": int_out(f.w)}
    if f.modulus is not None:
        doc["modulus"] = [int_out(c) for c in f.modulus]
    return doc


def field_in(doc, n_coeffs=0, path=()):
    """The ring of doc, the object at path: F_{p^w} from "p", "w" and
    "modulus", or Z/p^P from "p" and "prec" (P > 1).  It is built once
    n_coeffs coefficients over it are within the budget and its
    irreducibility test within _MAX_FIELD_WORK; FiniteField refuses a
    document that names both kinds of ring."""
    p, w = int_in(_field(doc, "p", path=path)), int_in(_field(doc, "w", path=path, default=1))
    prec = int_in(_field(doc, "prec", path=path, default=1))
    check_budget(n_coeffs * w * prec * len(str(p)))
    if (work := w**3 * p.bit_length()) > _MAX_FIELD_WORK:
        raise ValueError(f"checking the modulus of F_{p}^{w} takes about w^3*bits(p) = {work} "
                         f"operations, past the bound of {_MAX_FIELD_WORK}")
    modulus = _field(doc, "modulus", list, path, None)
    return FiniteField(p, w, tuple(int_in(c) for c in modulus) if modulus else None, prec)


def series_out(s):
    doc = field_out(s.field)
    doc["trunc"] = int_out(s.trunc)
    w, packed = s.field.w, s.packed
    if w == 1:
        doc["coeffs"] = [int_out(c) for c in packed]
    else:
        doc["coeffs"] = [[int_out(x) for x in packed[i : i + w]] for i in range(0, len(packed), w)]
    return doc


def series_in(doc):
    trunc = int_in(_field(doc, "trunc"))
    f = field_in(doc, trunc)
    coeffs = _field(doc, "coeffs", list)
    packed = _plain_packed(f, coeffs)
    if packed is None:
        # digit strings, bools, floats and vectors longer than w are read,
        # or refused, one by one
        return TruncSeries(f, [c if type(c) is int else _coeff_in(c) for c in coeffs], trunc)
    _check_length(len(coeffs), trunc)
    return _from_packed(f, packed, trunc)


# -- break sequences and transfer functions ---------------------------------


def index_report_out(r):
    return {
        "d": int_out(r.d) if r.d is not None else f"undetermined({r.n_max})",
        "status": r.status,
        "stabilized_at": int_out(r.stabilized_at),
        "evidence": [frac_out(d) for d in r.evidence],
        "n_max": int_out(r.n_max),
    }


def break_data_out(bd):
    return {
        "p": int_out(bd.p),
        "e": frac_pair_out(bd.e),
        "upper": [frac_pair_out(b) for b in bd.upper],
    }


def break_data_in(doc):
    # BreakData reads e and each break with frac_in
    return BreakData(int_in(_field(doc, "p")), _field(doc, "e"), tuple(_field(doc, "upper", list)))


def plfunc_out(f):
    """Each rational written from its reduced pair, without a Fraction."""
    bps, sls, v0 = f._pairs()
    return {
        "breakpoints": [_ratio_out(*b) for b in bps],
        "slopes": [_ratio_out(*s) for s in sls],
        "value_at_origin": _ratio_out(*v0),
    }


def plfunc_in(doc):
    # PLFunc reads each breakpoint, slope and the value at 0 as a reduced pair
    return PLFunc(_field(doc, "breakpoints", list), _field(doc, "slopes", list),
                  _field(doc, "value_at_origin"))


# -- truncated valuation rings ----------------------------------------------


def trunc_object_in(doc, path=()):
    e = int_in(_field(doc, "e", path=path))
    return TruncObject(field_in(_field(doc, "field", path=path), e, (*path, "field")), e)


def morphism_out(f):
    return {
        "source": trunc_object_out(f.source),
        "target": trunc_object_out(f.target),
        "r": int_out(f.r),
        "res_twist": int_out(f.res_twist),
        "eta_coeff": series_out(f.eta_coeff)["coeffs"],
        "mu_image": series_out(f.mu_image)["coeffs"],
    }


def morphism_in(doc):
    src = trunc_object_in(_field(doc, "source"), ("source",))
    dst = trunc_object_in(_field(doc, "target"), ("target",))
    eta = dst.element([_coeff_in(c) for c in _field(doc, "eta_coeff", list)])
    mu = _field(doc, "mu_image", list, default=None)
    if mu is not None:
        mu = dst.element([_coeff_in(c) for c in mu])
    return TruncMorphism(src, dst, int_in(_field(doc, "r")), int_in(_field(doc, "res_twist")), eta, mu)


# -- theorem inputs and reports ----------------------------------------------


def theorem_inputs_in(doc):
    bd = break_data_in(doc)
    a, m = _field(doc, "a", default=None), _field(doc, "m", default=None)
    return TheoremInputs(bd, a if a is None else int_in(a), m if m is None else int_in(m),
                         _field(doc, "contained_in_zp", bool, default=True))


def condition_report_out(r):
    doc = {
        "p": int_out(r.p), "e": int_out(r.e), "n": int_out(r.n), "a": int_out(r.a),
        "m": int_out(r.m), "m0": int_out(r.m0),
        "status": r.status, "path": r.path, "guarantee": r.guarantee,
        "contained_in_zp": r.contained_in_zp,
    }
    if r.y is not None:
        doc["y"] = frac_out(r.y)
        doc["h"] = int_out(r.h)
        doc["z"] = frac_out(r.z)
        doc["q"] = int_out(r.q)
        doc["r"] = int_out(r.r)
        doc["t_examined"] = [int_out(t) for t in r.t_examined]
        doc["cond1"] = {
            "ok": r.cond1,
            "details": [
                {
                    "t": int_out(it.t),
                    "lower_bound": frac_out(it.bound),
                    "threshold": int_out(it.threshold),
                    "ok": it.ok,
                }
                for it in r.cond1_details
            ],
        }
        doc["psi_ml_lower_bound"] = frac_out(r.psi_ml_lower_bound)
        doc["cond2"] = {"ok": r.cond2, "lhs": frac_out(r.cond2_lhs), "rhs": frac_out(r.cond2_rhs)}
        doc["cond3"] = {"ok": r.cond3, "lhs": int_out(r.cond3_lhs), "rhs": frac_out(r.cond3_rhs)}
    if r.l is not None:
        doc["l"] = int_out(r.l)
    if r.proot is not None:
        doc["proot"] = condition_report_out(r.proot)
    if r.notes:
        doc["notes"] = list(r.notes)
    return doc


# -- p-adic dynamics ----------------------------------------------------------


def padic_out(u):
    return {
        "p": int_out(u.field.p),
        "prec": int_out(u.field.prec),
        "trunc": int_out(u.trunc),
        "coeffs": [int_out(c) for c in u.packed],
    }


# the dyn-analyze workload of perfbench reads its series by this name
padic_in = series_in


def divided_out(q):
    doc = padic_out(q.series)
    doc["coeff_prec"] = [int_out(c) for c in q.coeff_prec]
    return doc


def polygon_out(np_):
    """Its fields, and each segment's derived root valuation."""
    return {
        "vertices": report_out(np_.vertices),
        "segments": [{**report_out(s), "root_valuation": frac_out(s.root_valuation)} for s in np_.segments],
    }


def depth_out(d):
    return f"at_least({d.bound})" if isinstance(d, AtLeast) else int_out(d)


# -- reports, written field by field --------------------------------------------


def report_out(v):
    """A report value written by its type: a dataclass as {field: value},
    so its wire keys are its field names, and a tuple as a list.  A type
    whose format differs from its fields has its own writer."""
    write = _WRITERS.get(type(v))
    if write is not None:
        return write(v)
    return {f.name: report_out(getattr(v, f.name)) for f in fields(v)}


def _as_is(v):
    return v


# keyed by exact type, so a bool is not written as an int
_WRITERS = {
    type(None): _as_is, bool: _as_is, str: _as_is,
    int: int_out, Fraction: frac_out,
    tuple: lambda v: [report_out(x) for x in v],
    NewtonPolygon: polygon_out, IndexReport: index_report_out, FiniteField: field_out,
}

# their wire keys are their field names
ram_sequence_out = verdict_out = dynamics_report_out = trunc_object_out = report_out
