"""Correctness checks that do not trust the code under test.

Each check reads a job's generated input and the output document it
printed, and recomputes what it can from first principles: closed forms for
the cyclotomic family, Sen's divisibility law, brute-force power expansion
over F_{p^w} with field arithmetic written here, and piecewise-linear
evaluation over Fractions.  A check returns ``(problems, flagged)``:
problems is a list of strings (empty when the output is right) and flagged
says whether the job ended in a documented flag, which is not a failure.
Every job is built to certify, so a PrecisionError (an error document, or
the breaks of a sweep job still uncertified after its retry) is a
failure; the one allowed flag is the null-with-note level a dyn-analyze
job names in ``meta["rejected"]``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import FIELDS, phi_doc, psi_doc

# -- shared ------------------------------------------------------------------


def sen_upper(p, lower):
    """Upper breaks from lower ones, or None when p^n does not divide i_n - i_(n-1)."""
    upper = [Fraction(lower[0])]
    for n in range(1, len(lower)):
        diff = lower[n] - lower[n - 1]
        if diff <= 0 or diff % p**n:
            return None
        upper.append(upper[-1] + Fraction(diff, p**n))
    return upper


def _frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _check_breaks(p, lower, upper_doc, problems):
    upper = sen_upper(p, lower)
    if upper is None:
        problems.append(f"Sen integrality fails for lower breaks {lower} at p={p}")
    elif [Fraction(b) for b in upper_doc] != upper:
        problems.append(f"upper breaks {upper_doc} differ from {upper}")
    return upper


# -- dyn-analyze ---------------------------------------------------------------


def check_analyze(meta, inp, out):
    problems = []
    p, levels, perturbed = meta["p"], meta["levels"], meta["perturbed"]
    expected = [p ** (n + 1) - 1 for n in range(levels + 1)]
    depths = out["depths"]
    if depths != expected or out["depth_uncertified_at"] is not None or out["notes"]:
        problems.append(f"depths {depths} != p^(n+1)-1 = {expected} or uncertified")
    else:
        _check_breaks(p, depths, out["upper"], problems)
    if out["fixed_point_counts"] != [i + 1 for i in depths]:
        problems.append("fixed_point_counts != depths + 1")
    flagged = False
    for lv in out["levels"]:
        n = lv["n"]
        if lv["note"] is not None:
            if n != meta["rejected"]:
                problems.append(f"level {n} is not certified: {lv['note']}")
            flagged = True
        wd = lv["weierstrass_degree"]
        if wd is not None and wd != p**n * (p - 1):
            problems.append(f"level {n}: Weierstrass degree {wd} != p^n(p-1)")
        cv = lv["constant_valuation"]
        if cv is not None and cv != 1:
            problems.append(f"level {n}: constant-term valuation {cv} != 1")
        poly = lv["polygon"]
        if poly is not None and not perturbed:
            want = _frac_str(Fraction(1, (p - 1) * p**n))
            segs = poly["segments"]
            if len(segs) != 1 or segs[0]["root_valuation"] != want or segs[0]["length"] != wd:
                problems.append(f"level {n}: polygon {segs} is not one segment at {want}")
        if wd is None and poly is None and lv["note"] is None:
            problems.append(f"level {n}: null without a note")
    return problems, flagged


# -- break-sweep, and the breaks jobs of ext-field ------------------------------


def check_breaks(meta, inp, out):
    problems = []
    p, d = meta["p"], meta["depth"]
    first, full = inp["first_trunc"], inp["series"]["trunc"]
    br = out["breaks"]
    if "error" in br:
        return [f"uncertified after the retry at {full}: {br['error']['reason']}"], False
    lower = br["lower"]
    if not lower or lower[0] != d:
        problems.append(f"lower breaks {lower} do not start at the built depth {d}")
        return problems, False
    if len(lower) != inp["n_max"] + 1:
        problems.append(f"{len(lower)} lower breaks for n_max={inp['n_max']}")
    upper = _check_breaks(p, lower, out["upper"], problems)
    # a depth is certifiable at truncation N only when it is at most N-2
    trunc = out["truncation"]
    if trunc not in (first, full) or lower[-1] > trunc - 2:
        problems.append(f"breaks {lower} reported as certified at truncation {trunc}")
    if upper is not None and len(upper) >= 2:
        diffs = [_frac_str(b - a) for a, b in zip(upper, upper[1:])]
        if out["index"] is None or out["index"]["evidence"] != diffs:
            problems.append(f"index evidence differs from upper-break differences {diffs}")
    return problems, False


# -- ext-field: F_{p^w} arithmetic written here ------------------------------------


class GF:
    """F_{p^w} with elements as coefficient tuples, low degree first."""

    def __init__(self, p, w, modulus):
        self.p, self.w, self.mod = p, w, tuple(modulus)
        self.zero = (0,) * w
        self.one = (1,) + (0,) * (w - 1)

    def elem(self, c):
        c = [c] if isinstance(c, int) else list(c)
        return tuple(x % self.p for x in c) + (0,) * (self.w - len(c))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, w = self.p, self.w
        prod = [0] * (2 * w - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * w - 2, w - 1, -1):  # X^w = -(mod[0] + ... + mod[w-1] X^(w-1))
            c = prod[k] % p
            if c:
                for j in range(w):
                    prod[k - w + j] -= c * self.mod[j]
        return tuple(x % p for x in prod[:w])

    def pow(self, a, e):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


def _series(gf, coeffs):
    return [gf.elem(c) for c in coeffs]


def _smul(gf, a, b, n):
    out = [gf.zero] * n
    for i, x in enumerate(a[:n]):
        if any(x):
            for j in range(n - i):
                if any(b[j]):
                    out[i + j] = gf.add(out[i + j], gf.mul(x, b[j]))
    return out


def brute_compose(gf, outer, inner, n):
    """outer(inner) mod X^n as the sum of c_k * inner^k, k ascending."""
    out = [gf.zero] * n
    power = [gf.one] + [gf.zero] * (n - 1)
    for c in outer[:n]:
        if any(c):
            out = [gf.add(o, gf.mul(c, q)) for o, q in zip(out, power)]
        power = _smul(gf, power, inner, n)
    return out


def _field(name):
    return GF(*FIELDS[name])


def _out_series(gf, doc, trunc, problems):
    if doc["trunc"] != trunc or len(doc["coeffs"]) != trunc:
        problems.append(f"output truncation {doc['trunc']} != {trunc}")
        return None
    return _series(gf, doc["coeffs"])


def check_compose(meta, inp, out):
    problems = []
    gf = _field(meta["field"])
    outer = _series(gf, inp["outer"]["coeffs"])
    inner = _series(gf, inp["inner"]["coeffs"])
    n = len(outer)
    got = _out_series(gf, out, n, problems)
    if got is not None and got != brute_compose(gf, outer, inner, n):
        problems.append("compose differs from brute-force power expansion")
    return problems, False


def check_inverse(meta, inp, out):
    problems = []
    gf = _field(meta["field"])
    g = _series(gf, inp["series"]["coeffs"])
    n = len(g)
    h = _out_series(gf, out, n, problems)
    if h is not None:
        x = [gf.zero, gf.one] + [gf.zero] * (n - 2)
        if brute_compose(gf, g, h, n) != x:
            problems.append("g o g^-1 != X")
    return problems, False


def check_frobenius(meta, inp, out):
    problems = []
    gf = _field(meta["field"])
    g = _series(gf, inp["series"]["coeffs"])
    got = _out_series(gf, out, len(g), problems)
    power = gf.p ** (inp["j"] % gf.w)
    if got is not None and got != [gf.pow(c, power) for c in g]:
        problems.append(f"coefficients are not raised to the p^{inp['j']} power")
    return problems, False


def _trunc_elem(gf, coeffs, e):
    c = _series(gf, coeffs)[:e]
    return c + [gf.zero] * (e - len(c))


def _ring_map(gf, m, a, e_dst):
    """Image of a = sum a_k pi^k under pi -> eta*pi^r with the residue twist."""
    eta = _trunc_elem(gf, m["eta_coeff"], e_dst)
    image = [gf.zero] * m["r"] + eta[: max(0, e_dst - m["r"])]
    twist = gf.p ** (m["res_twist"] % gf.w)
    out = [gf.zero] * e_dst
    power = [gf.one] + [gf.zero] * (e_dst - 1)
    for c in a:
        ct = gf.pow(c, twist)
        out = [gf.add(o, gf.mul(ct, q)) for o, q in zip(out, power)]
        power = _smul(gf, power, image, e_dst)
    return out


def check_morphism(meta, inp, out):
    problems = []
    gf = _field(meta["field"])
    f, f2, g, c = inp["f"], inp["f2"], inp["g"], inp["c"]
    e3 = g["target"]["e"]

    def composite_eta(ff):
        eta = _ring_map(gf, g, _trunc_elem(gf, ff["eta_coeff"], ff["target"]["e"]), e3)
        eta_g = _trunc_elem(gf, g["eta_coeff"], e3)
        for _ in range(ff["r"]):
            eta = _smul(gf, eta, eta_g, e3)
        return eta

    eta = composite_eta(f)
    r = g["r"] * f["r"]
    comp = out["composite"]
    if comp["r"] != r or comp["res_twist"] != (g["res_twist"] + f["res_twist"]) % gf.w:
        problems.append("composite r or residue twist is wrong")
    if _series(gf, comp["eta_coeff"]) != eta:
        problems.append("composite eta differs from direct substitution")
    if _series(gf, comp["mu_image"]) != ([gf.zero] * r + eta)[:e3]:
        problems.append("composite mu(pi) != eta * pi^r")
    diff = [gf.sub(a, b) for a, b in zip(eta, composite_eta(f2))]
    v = next((k for k, x in enumerate(diff) if any(x)), None)
    if out["r_equivalent"] != (v is None or v >= r * c):
        problems.append(f"r_equivalent is {out['r_equivalent']} at eta-difference valuation {v}")
    return problems, False


# -- conditions: piecewise-linear functions evaluated here -----------------------


def pl_eval(doc, x):
    bps = [Fraction(b) for b in doc["breakpoints"]]
    slopes = [Fraction(s) for s in doc["slopes"]]
    value = Fraction(doc["value_at_origin"])
    for i, left in enumerate(bps):
        right = bps[i + 1] if i + 1 < len(bps) else None
        if right is None or x <= right:
            return value + slopes[i] * (x - left)
        value += slopes[i] * (right - left)
    raise AssertionError("unreachable")


def psi_of(bd, x):
    p, edges = bd["p"], [0] + bd["upper"]
    value = Fraction(0)
    for j in range(1, len(edges)):
        if x <= edges[j]:
            return value + p ** (j - 1) * (x - edges[j - 1])
        value += p ** (j - 1) * (edges[j] - edges[j - 1])
    return value + p ** (len(edges) - 1) * (x - edges[-1])


def phi_of(bd, y):
    # invert psi_of by bisection-free segment search
    p, edges = bd["p"], [0] + bd["upper"]
    value = Fraction(0)
    for j in range(1, len(edges)):
        nxt = value + p ** (j - 1) * (edges[j] - edges[j - 1])
        if y <= nxt:
            return edges[j - 1] + (y - value) / p ** (j - 1)
        value = nxt
    return edges[-1] + (y - value) / p ** (len(edges) - 1)


def yhz_of(bd):
    p, e, upper = bd["p"], bd["e"], bd["upper"]
    h = next((j for j, b in enumerate(upper) if b > Fraction(e, p - 1)), len(upper) - 1)
    return upper[h], h, psi_of(bd, upper[h])


def m0_of(bd):
    p, e, n = bd["p"], bd["e"], len(bd["upper"])
    best, k = None, 0
    while psi_of(bd, (k + 1 + Fraction(1, p - 1)) * e) < e * p**n:
        best, k = k, k + 1
    return best


def _sample_points(*docs):
    pts = {Fraction(0)}
    for doc in docs:
        bps = [Fraction(b) for b in doc["breakpoints"]]
        pts.update(bps)
        pts.update((a + b) / 2 for a, b in zip(bps, bps[1:]))
        pts.add(bps[-1] + Fraction(7, 3))
    return sorted(pts)


def check_check(meta, inp, out):
    problems = []
    bd = meta["bd"]
    p, e, n = bd["p"], bd["e"], len(bd["upper"])
    m0 = m0_of(bd)
    if out["m0"] != m0:
        problems.append(f"m0 {out['m0']} != {m0}")
    if m0 is None or m0 == 0:
        if out["status"] != ("no_m" if m0 is None else "m0_zero") or out["guarantee"] != "none":
            problems.append(f"vacuous case reported as {out['status']} / {out['guarantee']}")
        return problems, False
    a = e * p**n
    y, h, z = yhz_of(bd)
    got = (out["m"], out["a"], out["h"], out["y"], out["z"])
    if got != (m0, a, h, _frac_str(y), _frac_str(z)):
        problems.append("m, a, y, h or z differs from the closed forms")
    if out["cond3"]["rhs"] != _frac_str(psi_of(bd, bd["upper"][-1])):
        problems.append("condition 3 rhs != psi(b_(n-1))")
    if out["cond2"]["lhs"] != _frac_str(phi_of(bd, a)):
        problems.append("condition 2 lhs != phi(e p^n)")
    if inp["contained_in_zp"]:
        # all three conditions hold at (a = e p^n, m = m0) on admissible data
        if not (out["cond1"]["ok"] and out["cond2"]["ok"] and out["cond3"]["ok"]):
            problems.append("a condition fails at (a = e p^n, m = m0)")
        if out["guarantee"] != f"p^{m0}":
            problems.append(f"guarantee {out['guarantee']} != p^{m0}")
    else:
        proot = out.get("proot")
        if proot is None:
            problems.append("no fallback report without Z_p containment")
        elif n >= 3 and m0 >= 2:
            l = math.ceil(Fraction(p - 1, p) * psi_of(bd, bd["upper"][-1]))
            if proot.get("l") != l or proot["m"] != m0 - 1:
                problems.append(f"fallback cutoff {proot.get('l')} != {l} or level != m0-1")
            if out["guarantee"] != proot["guarantee"]:
                problems.append("guarantee differs from the fallback's")
        elif proot["status"] != "not_applicable" or out["guarantee"] != "none":
            problems.append("fallback ran where it does not apply")
    return problems, False


def check_m0(meta, inp, out):
    m0 = m0_of(meta["bd"])
    return ([] if out["m0"] == m0 else [f"m0 {out['m0']} != {m0}"]), False


def check_transfer(meta, inp, out):
    problems = []
    bd = meta["bd"]
    e = bd["e"]
    if out["psi"] != psi_doc(bd) or out["phi"] != phi_doc(bd):
        problems.append("psi or phi differs from the break-data construction")
    for x in _sample_points(out["psi"]):
        if pl_eval(out["phi"], pl_eval(out["psi"], x)) != x:
            problems.append(f"phi(psi({x})) != {x}")
            break
    y, h, z = yhz_of(bd)
    if (out["y"], out["h"], out["z"]) != (_frac_str(y), h, _frac_str(z)):
        problems.append("y, h or z differs")
    n = len(bd["upper"])
    lower = [_frac_str(psi_of(bd, y + (i - h) * e)) for i in range(h, n)]
    if out["lower_formula"] != lower:
        problems.append("closed-form lower breaks != psi(y + (i-h)e)")
    psi_ie = [_frac_str(psi_of(bd, (i + 1) * e)) for i in range(n - h)]
    if out["psi_ie_formula"] != psi_ie:
        problems.append("closed-form psi((i+1)e) != psi evaluation")
    return problems, False


_PL = {"psi": psi_of, "phi": phi_of}


def check_pl_compose(meta, inp, out):
    problems = []
    (fo, bdo), (fi, bdi) = meta["outer"], meta["inner"]
    if meta["identity"] and out != {"breakpoints": ["0/1"], "slopes": ["1/1"],
                                            "value_at_origin": "0/1"}:
        problems.append("phi o psi is not the identity")
    for x in _sample_points(out, inp["inner"]):
        if pl_eval(out, x) != _PL[fo](bdo, _PL[fi](bdi, x)):
            problems.append(f"composite differs from pointwise evaluation at {x}")
            break
    return problems, False


def check_eval(meta, inp, out):
    fn, bd = meta["func"]
    want = [_frac_str(_PL[fn](bd, Fraction(x))) for x in inp["x"]]
    return ([] if out["values"] == want else ["PL evaluation differs"]), False


CHECKS = {
    "analyze": check_analyze,
    "breaks": check_breaks,
    "compose": check_compose,
    "inverse": check_inverse,
    "frobenius": check_frobenius,
    "morphism": check_morphism,
    "check": check_check,
    "m0": check_m0,
    "transfer": check_transfer,
    "pl_compose": check_pl_compose,
    "eval": check_eval,
}


def check(job, out_text):
    """(problems, flagged) for one job's output; an error document is a failure."""
    out = json.loads(out_text)
    if "error" in out:
        return [f"error document {out['error']} from a job built to certify"], False
    return CHECKS[job.kind](job.meta, json.loads(job.text), out)
