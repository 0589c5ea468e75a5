"""JSON wire formats for every public value type.

Writers are canonical so identical inputs produce byte-identical
documents: rationals are emitted as "num/den" strings (break data keeps
its [num, den] pair layout), and integers are emitted as JSON numbers only
below 2^53, as strings otherwise.  Readers are liberal and accept every
form a writer can emit, so emitted documents round-trip unchanged.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .gfseries import FiniteField, TruncSeries
from .herbrand import BreakData, PLFunc, frac_in
from .nottingham import AtLeast
from .pdyn import PadicSeries
from .ramcheck import TheoremInputs
from .truncation import TruncMorphism, TruncObject

_SAFE_INT = 2**53
_DEFAULT_BUDGET = 10**6


def check_budget(digits):
    """Enforce the RAMFORGE_MAX_PRECISION cap on total coefficient-digits."""
    cap = int(os.environ.get("RAMFORGE_MAX_PRECISION", _DEFAULT_BUDGET))
    if digits > cap:
        raise ValueError(
            f"requested precision ({digits} coefficient-digits) exceeds the "
            f"RAMFORGE_MAX_PRECISION cap of {cap}"
        )


def int_out(v):
    v = int(v)
    return v if abs(v) < _SAFE_INT else str(v)


def int_in(v):
    return int(v)


def frac_out(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def frac_pair_out(x):
    x = Fraction(x)
    return [int_out(x.numerator), int_out(x.denominator)]


# -- finite-field series ----------------------------------------------------


def field_out(f):
    doc = {"p": f.p, "w": f.w}
    if f.modulus is not None:
        doc["modulus"] = [int(c) for c in f.modulus]
    return doc


def field_in(doc):
    return FiniteField(
        int_in(doc["p"]),
        int_in(doc.get("w", 1)),
        tuple(int(c) for c in doc["modulus"]) if doc.get("modulus") else None,
    )


def series_out(s):
    doc = field_out(s.field)
    doc["trunc"] = s.trunc
    if s.field.w == 1:
        doc["coeffs"] = [c.rep[0] for c in s.coeffs]
    else:
        doc["coeffs"] = [list(c.rep) for c in s.coeffs]
    return doc


def series_in(doc):
    f = field_in(doc)
    trunc = int_in(doc["trunc"])
    check_budget(trunc * f.w * len(str(f.p)))
    coeffs = [
        c if isinstance(c, int) else tuple(int(x) for x in c) for c in doc["coeffs"]
    ]
    return TruncSeries(f, coeffs, trunc)


# -- break sequences and transfer functions ---------------------------------


def ram_sequence_out(rs):
    return {
        "p": rs.p,
        "lower": [int_out(i) for i in rs.lower],
        "upper": [int_out(b) for b in rs.upper],
        "certified_to": rs.certified_to,
    }


def index_report_out(r):
    return {
        "d": r.d if r.d is not None else f"undetermined({r.n_max})",
        "status": r.status,
        "stabilized_at": r.stabilized_at,
        "evidence": [frac_out(d) for d in r.evidence],
        "n_max": r.n_max,
    }


def break_data_out(bd):
    return {
        "p": bd.p,
        "e": frac_pair_out(bd.e),
        "upper": [frac_pair_out(b) for b in bd.upper],
    }


def break_data_in(doc):
    return BreakData(
        int_in(doc["p"]), frac_in(doc["e"]), tuple(frac_in(b) for b in doc["upper"])
    )


def plfunc_out(f):
    return {
        "breakpoints": [frac_out(b) for b in f.breakpoints],
        "slopes": [frac_out(s) for s in f.slopes],
        "value_at_origin": frac_out(f.value_at_origin),
    }


def plfunc_in(doc):
    return PLFunc(
        tuple(frac_in(b) for b in doc["breakpoints"]),
        tuple(frac_in(s) for s in doc["slopes"]),
        frac_in(doc["value_at_origin"]),
    )


def verdict_out(v):
    return {
        "valid": v.valid,
        "violations": [
            {"rule": x.rule, "index": x.index, "detail": x.detail} for x in v.violations
        ],
    }


# -- truncated valuation rings ----------------------------------------------


def trunc_object_out(obj):
    return {"field": field_out(obj.field), "e": obj.e}


def trunc_object_in(doc):
    return TruncObject(field_in(doc["field"]), int_in(doc["e"]))


def morphism_out(f):
    return {
        "source": trunc_object_out(f.source),
        "target": trunc_object_out(f.target),
        "r": f.r,
        "res_twist": f.res_twist,
        "eta_coeff": series_out(f.eta_coeff)["coeffs"],
        "mu_image": series_out(f.mu_image)["coeffs"],
    }


def morphism_in(doc):
    src = trunc_object_in(doc["source"])
    dst = trunc_object_in(doc["target"])
    eta = dst.element(
        [c if isinstance(c, int) else tuple(c) for c in doc["eta_coeff"]]
    )
    mu = None
    if doc.get("mu_image") is not None:
        mu = dst.element([c if isinstance(c, int) else tuple(c) for c in doc["mu_image"]])
    return TruncMorphism(src, dst, int_in(doc["r"]), int_in(doc["res_twist"]), eta, mu)


# -- theorem inputs and reports ----------------------------------------------


def theorem_inputs_in(doc):
    bd = break_data_in(doc)
    p = int_in(doc["p"])
    e_frac = frac_in(doc["e"])
    if e_frac.denominator != 1:
        raise ValueError("the tame index e must be an integer for condition checks")
    kwargs = {}
    if doc.get("a") is not None:
        kwargs["a"] = int_in(doc["a"])
    if doc.get("m") is not None:
        kwargs["m"] = int_in(doc["m"])
    return TheoremInputs(
        p, int(e_frac), len(bd.upper), bd,
        contained_in_zp=bool(doc.get("contained_in_zp", True)), **kwargs,
    )


def condition_report_out(r):
    doc = {
        "p": r.p, "e": r.e, "n": r.n, "a": int_out(r.a), "m": r.m, "m0": r.m0,
        "status": r.status, "path": r.path, "guarantee": r.guarantee,
        "contained_in_zp": r.contained_in_zp,
    }
    if r.y is not None:
        doc["y"] = frac_out(r.y)
        doc["h"] = r.h
        doc["z"] = frac_out(r.z)
        doc["q"] = int_out(r.q)
        doc["r"] = int_out(r.r)
        doc["t_examined"] = list(r.t_examined)
        doc["cond1"] = {
            "ok": r.cond1,
            "details": [
                {
                    "t": it.t,
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
        "p": u.p,
        "prec": u.prec,
        "trunc": u.trunc,
        "coeffs": [int_out(c) for c in u.coeffs],
    }


def padic_in(doc):
    p = int_in(doc["p"])
    prec = int_in(doc["prec"])
    trunc = int_in(doc["trunc"])
    check_budget(trunc * prec * len(str(p)))
    return PadicSeries(p, prec, trunc, tuple(int_in(c) for c in doc["coeffs"]))


def divided_out(q):
    doc = padic_out(q.series)
    doc["coeff_prec"] = list(q.coeff_prec)
    return doc


def polygon_out(np_):
    return {
        "vertices": [[i, frac_out(v)] for i, v in np_.vertices],
        "segments": [
            {
                "slope": frac_out(s.slope),
                "length": s.length,
                "root_valuation": frac_out(s.root_valuation),
            }
            for s in np_.segments
        ],
    }


def depth_out(d):
    return f"at_least({d.bound})" if isinstance(d, AtLeast) else d


def dynamics_report_out(rep):
    return {
        "p": rep.p,
        "prec": rep.prec,
        "trunc": rep.trunc,
        "depths": [int_out(i) for i in rep.depths],
        "depth_uncertified_at": rep.depth_uncertified_at,
        "upper": [int_out(b) for b in rep.upper],
        "fixed_point_counts": [int_out(c) for c in rep.fixed_point_counts],
        "index": index_report_out(rep.index) if rep.index is not None else None,
        "levels": [
            {
                "n": lv.n,
                "weierstrass_degree": lv.weierstrass_degree,
                "expected_wd": lv.expected_wd,
                "wd_matches": lv.wd_matches,
                "constant_valuation": lv.constant_valuation,
                "expected_constant_valuation": lv.expected_constant_valuation,
                "constant_matches": lv.constant_matches,
                "polygon": polygon_out(lv.polygon) if lv.polygon is not None else None,
                "predicted_root_valuation": (
                    frac_out(lv.predicted_root_valuation)
                    if lv.predicted_root_valuation is not None
                    else None
                ),
                "single_segment_matches": lv.single_segment_matches,
                "note": lv.note,
            }
            for lv in rep.levels
        ],
        "rn": [int_out(r) for r in rep.rn],
        "snbound": list(rep.snbound) if rep.snbound is not None else None,
        "notes": list(rep.notes),
    }
