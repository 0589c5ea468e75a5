"""Seeded inputs and job definitions for the four benchmark workloads.

Every job mirrors one command-line call: it parses a JSON input text made
of documented wire formats, calls the public API, and renders the canonical
``ramforge.jsonio`` output document the way the CLI prints it.  The library
is always reached through module attributes at call time, so the tracer's
wrappers see every call.

A workload is a list of rounds.  Round r is a fixed list of job templates
whose random content comes from ``random.Random(f"{workload}:{seed}:{r}")``:
the seed changes coefficients and break data, never the template mix, so
run-to-run cost depends little on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import ramforge
from ramforge import jsonio

# span names the benchmark opens around each job and its two JSON stages
JOB = "bench.job"
PARSE = "jsonio.in"
RENDER = "jsonio.out"


@dataclass(frozen=True)
class Job:
    kind: str
    text: str
    meta: dict  # generator-side facts the checks need (never given to the job)


def _job(kind, doc, **meta):
    return Job(kind, json.dumps(doc, sort_keys=True), meta)


def render(doc):
    """The CLI's JSON output format."""
    return json.dumps(doc, indent=2, sort_keys=True)


def precision_doc(exc):
    return {"error": {"type": "precision", "reason": str(exc)}}


# -- dyn-analyze ---------------------------------------------------------------

# (p, trunc M, levels, prec P, perturbed, rejected): M certifies every
# depth.  The kernel leaves its numpy int64 path once
# (p^P)^2 * min(la, lb) >= 2^62: here from P=20 at p=3, P=12 at p=5 and
# P=10 at p=7.  Three cost groups, with times on a shared 2-vCPU VM: eight
# int64 jobs of 0.04-0.09 s; six copies of one int64 job at M=120 (about
# 0.12 s), in the middle of which job_s.p50 falls; and nine jobs past the
# bound, the slow tail, where job_s.tail falls in the middle of the seven
# copies of the p=7, M=100, P=10 job (about 0.24 s).  `rejected` is the
# level whose quotient the known qn_divide defect rejects ("division is
# inexact") on the p=3, M=90 input at P=16 and P=20, or None: that level
# may end null-with-note, which counts as flagged and is kept so that a fix
# shows as a flagged_frac drop; every other level must be certified.  M=90
# is that documented case; every other template has M from 100 to 130.
# The groups are spread over the round, so that each meets the CPU's
# changes of speed during a run about as often as the others.
DYN_CHEAP = (
    (5, 100, 1, 8, False, None),
    (5, 100, 1, 8, True, None),
    (7, 100, 1, 9, False, None),
    (7, 100, 1, 9, True, None),
    (5, 130, 1, 11, True, None),
    (3, 90, 2, 12, True, None),
    (3, 90, 2, 16, False, 2),
    (3, 90, 2, 16, True, 2),
)
DYN_MID = ((3, 120, 2, 10, True, None),) * 6
DYN_TAIL = ((7, 100, 1, 10, False, None),) * 7 + ((3, 90, 2, 20, False, 2),
                                                  (5, 130, 1, 12, True, None))


def _spread(*groups):
    """The items of all groups in one tuple, each group spread evenly over it.

    Every group has an item at the start, in the order of the groups.
    """
    keyed = [(k / len(g), i, item)
             for i, g in enumerate(groups) for k, item in enumerate(g)]
    return tuple(item for _, _, item in sorted(keyed, key=lambda t: t[:2]))


DYN_TEMPLATES = _spread(DYN_CHEAP, DYN_MID, DYN_TAIL)


def cyclotomic_coeffs(p, trunc):
    """(1+X)^(p+1) - 1, whose reduction X + X^p + X^(p+1) has depths p^(n+1) - 1."""
    return [math.comb(p + 1, k) if 1 <= k <= p + 1 else 0 for k in range(trunc)]


def dyn_round(rng, r):
    jobs = []
    for p, trunc, levels, prec, perturbed, rejected in DYN_TEMPLATES:
        coeffs = cyclotomic_coeffs(p, trunc)
        if perturbed:
            # a multiple of p from X^2 on: the reduction, hence every depth,
            # is unchanged, while every p-adic digit above the first moves
            for k in range(2, trunc):
                coeffs[k] += p * rng.randrange(p ** (prec - 1))
        doc = {"series": {"p": p, "prec": prec, "trunc": trunc, "coeffs": coeffs},
               "levels": levels}
        jobs.append(_job("analyze", doc, p=p, levels=levels, perturbed=perturbed,
                         rejected=rejected))
    return jobs


def parse_analyze(doc):
    return jsonio.padic_in(doc["series"]), doc["levels"]


def run_analyze(u, levels):
    return ramforge.analyze(u, levels)


# -- break-sweep ---------------------------------------------------------------

FIRST_TRUNC = 120
RETRY_TRUNC = 400
SWEEP_LEVELS = 2

# One round draws SWEEP_PER_PRIME generators for each prime, every
# coefficient after X uniform in F_p, so depths follow the law of random
# generators (depth d with probability (1 - 1/p) p^(1-d)).  Nothing forces
# a retry.  On 400 such generators per prime the short attempt failed for
# none at p=2 or p=3 and for 2.2% at p=5 (13 of 600, at every depth); a
# retried job costs about 1 s, against 0.04-0.06 s for one certified at
# the short truncation, so a retry count drawn anew for every seed would
# move jobs_per_s by about 10% from seed to seed.  The p=5 coefficients
# below X^FIRST_TRUNC, which alone decide whether the short attempt fails,
# are therefore drawn from a stream of their own that the seed does not
# change, so every seed retries the same p=5 generators; the seed draws
# all other coefficients.  In a 20 s run (nine rounds) four of the 63 p=5
# generators retry (6.3%, against 2.2% in the larger sample above), one
# each in rounds 2, 4, 5 and 7.  job_s.p50 falls among the p=3 jobs,
# job_s.tail among the p=5 ones.
SWEEP_PRIMES = (2, 3, 5)
SWEEP_PER_PRIME = 7
SEED_FREE_PRIME = 5


def sweep_round(rng, r):
    jobs = []
    for i in range(SWEEP_PER_PRIME):
        for p in SWEEP_PRIMES:
            low = random.Random(f"break-sweep:p{p}:{r}:{i}") if p == SEED_FREE_PRIME else rng
            coeffs = [0, 1] + [low.randrange(p) for _ in range(FIRST_TRUNC - 2)]
            coeffs += [rng.randrange(p) for _ in range(RETRY_TRUNC - FIRST_TRUNC)]
            depth = next(k for k in range(2, RETRY_TRUNC) if coeffs[k]) - 1
            doc = {"series": {"p": p, "w": 1, "trunc": RETRY_TRUNC, "coeffs": coeffs},
                   "n_max": SWEEP_LEVELS, "first_trunc": FIRST_TRUNC}
            jobs.append(_job("breaks", doc, p=p, depth=depth))
    return jobs


def parse_breaks(doc):
    return jsonio.series_in(doc["series"]), doc["n_max"], doc["first_trunc"]


def run_breaks(g, n_max, first_trunc):
    """Criterion-3 policy: certify at the short truncation, retry at the full one.

    Returns (truncation used, RamSequence or the final PrecisionError,
    upper breaks of the certified prefix, IndexReport or None).
    """
    p = g.field.p
    try:
        found = ramforge.lower_breaks(g.truncate(first_trunc), n_max)
        trunc = first_trunc
    except ramforge.PrecisionError:
        trunc = g.trunc
        try:
            found = ramforge.lower_breaks(g, n_max)
        except ramforge.PrecisionError as exc:
            found = exc
    lower = found.partial if isinstance(found, ramforge.PrecisionError) else found.lower
    upper = ramforge.upper_from_lower(p, lower)
    index = ramforge.index_of(p, upper) if len(upper) >= 2 else None
    return trunc, found, upper, index


def breaks_doc(result):
    trunc, found, upper, index = result
    if isinstance(found, ramforge.PrecisionError):
        breaks = precision_doc(found)
        breaks["error"]["partial"] = list(found.partial)
    else:
        breaks = jsonio.ram_sequence_out(found)
    return {"truncation": trunc, "breaks": breaks,
            "upper": [jsonio.int_out(b) for b in upper],
            "index": jsonio.index_report_out(index) if index is not None else None}


# -- ext-field -------------------------------------------------------------------

# small fixed irreducible moduli, low degree first
FIELDS = {
    "F4": (2, 2, (1, 1, 1)),
    "F8": (2, 3, (1, 1, 0, 1)),
    "F9": (3, 2, (1, 0, 1)),
    "F25": (5, 2, (3, 0, 1)),
    "F27": (3, 3, (1, 2, 0, 1)),
}

# (kind, field, size, extra): size is the truncation of series jobs (the
# first one of breaks jobs) and the (e1, e2, e3) lengths of morphism jobs;
# extra is the Frobenius power or the residue twist.  Sizes keep every job
# near a third of a second or less on the generic F_{p^w} path.  Times at
# the benchmark's reference speed: eight cheap jobs (Frobenius about 1 ms,
# morphisms 0.05-0.08 s, the F8 inverse 0.11 s); three copies of the F27
# inverse (0.16 s), in the middle of which job_s.p50 falls; three jobs of
# 0.17-0.19 s; three copies of the F27 compose (0.29 s), in the middle of
# which job_s.tail falls in a 20 s run; and the two dearest (0.35 s).
EXT_CHEAP = (
    ("frobenius", "F25", 40, 1),
    ("frobenius", "F27", 40, 2),
    ("frobenius", "F4", 40, 1),
    ("frobenius", "F8", 40, 2),
    ("frobenius", "F9", 40, 1),
    ("morphism", "F25", (3, 12, 24), 1),
    ("morphism", "F8", (4, 16, 32), 2),
    ("inverse", "F8", 30, None),
)
EXT_MID = (("inverse", "F27", 30, None),) * 3
EXT_ABOVE = (
    ("compose", "F25", 40, None),
    ("compose", "F8", 40, None),
    ("breaks", "F4", 30, None),
)
EXT_TAIL = (("compose", "F27", 44, None),) * 3
EXT_TOP = (
    ("inverse", "F9", 36, None),
    ("breaks", "F9", 30, None),
)

EXT_TEMPLATES = _spread(EXT_CHEAP, EXT_MID, EXT_ABOVE, EXT_TAIL, EXT_TOP)

# Breaks jobs follow the break-sweep policy: certify at `size`, retry at
# EXT_RETRY * size.  About 3% of random F9 generators of depth 1 (4 of 120)
# need the retry, which costs 1.6 s against 0.5 s; a retry drawn anew for
# every seed would move ext-field's figures from seed to seed, and one
# still uncertified at the retry would fail the run.  So the breaks
# generators are drawn from a stream of their own that the seed does not
# change: every seed runs the same ones, and none of the first twelve
# rounds needs the retry.
EXT_RETRY = 1.5


def _elem(rng, p, w, unit=False):
    while True:
        c = [rng.randrange(p) for _ in range(w)]
        if not unit or any(c):
            return c


def _series_doc(name, coeffs):
    p, w, mod = FIELDS[name]
    return {"p": p, "w": w, "modulus": list(mod), "trunc": len(coeffs), "coeffs": coeffs}


def _morphism_doc(name, e_src, e_dst, twist, eta):
    p, w, mod = FIELDS[name]
    field = {"p": p, "w": w, "modulus": list(mod)}
    return {"source": {"field": field, "e": e_src}, "target": {"field": field, "e": e_dst},
            "r": e_dst // e_src, "res_twist": twist, "eta_coeff": eta}


def ext_round(rng, r):
    jobs = []
    for kind, name, size, extra in EXT_TEMPLATES:
        p, w, _ = FIELDS[name]
        meta = {"field": name}
        zero = [0] * w
        if kind == "morphism":
            e1, e2, e3 = size
            eta_f = [_elem(rng, p, w, unit=True)] + [_elem(rng, p, w) for _ in range(e2 - 1)]
            eta_g = [_elem(rng, p, w, unit=True)] + [_elem(rng, p, w) for _ in range(e3 - 1)]
            # f2 differs from f only from pi^(e2 // 2) on, so the composites
            # agree to a valuation near r*c and both answers occur
            eta_f2 = eta_f[: e2 // 2] + [_elem(rng, p, w) for _ in range(e2 - e2 // 2)]
            doc = {"f": _morphism_doc(name, e1, e2, extra, eta_f),
                   "f2": _morphism_doc(name, e1, e2, extra, eta_f2),
                   "g": _morphism_doc(name, e2, e3, extra, eta_g), "c": 2}
        elif kind == "compose":
            outer = [_elem(rng, p, w) for _ in range(size)]
            inner = [zero] + [_elem(rng, p, w) for _ in range(size - 1)]
            doc = {"outer": _series_doc(name, outer), "inner": _series_doc(name, inner)}
        elif kind == "breaks":
            fixed = random.Random(f"ext-field:{name}:{r}")
            one = [1] + [0] * (w - 1)
            coeffs = [zero, one, _elem(fixed, p, w, unit=True)]
            coeffs += [_elem(fixed, p, w) for _ in range(int(EXT_RETRY * size) - 3)]
            doc = {"series": _series_doc(name, coeffs), "n_max": 2, "first_trunc": size}
            meta.update(p=p, depth=1)
        else:
            coeffs = [zero, _elem(rng, p, w, unit=True)]
            coeffs += [_elem(rng, p, w) for _ in range(size - 2)]
            doc = {"series": _series_doc(name, coeffs)}
            if kind == "frobenius":
                doc["j"] = extra
        jobs.append(_job(kind, doc, **meta))
    return jobs


def parse_compose(doc):
    return jsonio.series_in(doc["outer"]), jsonio.series_in(doc["inner"])


def run_compose(outer, inner):
    return outer.compose(inner)


def parse_series(doc):
    return (jsonio.series_in(doc["series"]),)


def run_inverse(g):
    return g.comp_inverse()


def parse_frobenius(doc):
    return jsonio.series_in(doc["series"]), doc["j"]


def run_frobenius(g, j):
    return ramforge.frobenius_twist(g, j)


def parse_morphism(doc):
    return (jsonio.morphism_in(doc["g"]), jsonio.morphism_in(doc["f"]),
            jsonio.morphism_in(doc["f2"]), doc["c"])


def run_morphism(g, f, f2, c):
    h = ramforge.compose_morphism(g, f)
    return h, ramforge.r_equivalent(h, ramforge.compose_morphism(g, f2), c)


def morphism_doc(result):
    h, equivalent = result
    return {"composite": jsonio.morphism_out(h), "r_equivalent": equivalent}


# -- conditions ------------------------------------------------------------------

CONDITION_PRIMES = (5, 7, 11, 13)  # the checker needs p > 3
MAX_BREAKS = 5
BREAK_DATA_PER_ROUND = 8
EVAL_POINTS = 8


def random_break_data(rng):
    """Integer upper breaks obeying the admissibility rules, as a wire document.

    The same law as the test suite's random_break_data.
    """
    p = rng.choice(CONDITION_PRIMES)
    e = rng.randint(1, p - 1)
    n = rng.randint(1, MAX_BREAKS)
    ceiling = Fraction(p * e, p - 1)
    threshold = Fraction(e, p - 1)
    b = rng.randint(1, int(ceiling))
    upper = [b]
    while len(upper) < n:
        b = b + e if b >= threshold else rng.randint(p * b, int(ceiling))
        upper.append(b)
    return {"p": p, "e": e, "upper": upper}


def psi_doc(bd):
    """psi of break data built here, not by the library: slope p^j after b_(j-1)."""
    p = bd["p"]
    return {"breakpoints": ["0/1"] + [f"{b}/1" for b in bd["upper"]],
            "slopes": [f"{p ** j}/1" for j in range(len(bd["upper"]) + 1)],
            "value_at_origin": "0/1"}


def phi_doc(bd):
    """The inverse of psi_doc, also built here."""
    p = bd["p"]
    bps, value = [Fraction(0)], Fraction(0)
    edges = [0] + bd["upper"]
    for j in range(1, len(edges)):
        value += p ** (j - 1) * Fraction(edges[j] - edges[j - 1])
        bps.append(value)
    return {"breakpoints": [f"{b.numerator}/{b.denominator}" for b in bps],
            "slopes": [f"1/{p ** j}" for j in range(len(edges))],
            "value_at_origin": "0/1"}


def conditions_round(rng, r):
    jobs = []
    data = [random_break_data(rng) for _ in range(BREAK_DATA_PER_ROUND)]
    for i, bd in enumerate(data):
        for contained in (True, False):
            jobs.append(_job("check", dict(bd, contained_in_zp=contained), bd=bd))
        jobs.append(_job("m0", bd, bd=bd))
        jobs.append(_job("transfer", bd, bd=bd))
        jobs.append(_job("pl_compose", {"outer": phi_doc(bd), "inner": psi_doc(bd)},
                         outer=("phi", bd), inner=("psi", bd), identity=True))
        other = data[(i + 1) % len(data)]
        jobs.append(_job("pl_compose", {"outer": psi_doc(other), "inner": phi_doc(bd)},
                         outer=("psi", other), inner=("phi", bd), identity=False))
        top = 2 * bd["p"] ** len(bd["upper"]) * max(bd["upper"])
        xs = [f"{rng.randint(0, top)}/{rng.randint(1, 48)}" for _ in range(EVAL_POINTS)]
        jobs.append(_job("eval", {"func": psi_doc(bd), "x": xs}, func=("psi", bd)))
    return jobs


def parse_check(doc):
    return (jsonio.theorem_inputs_in(doc),)


def run_check(ti):
    return ramforge.check_conditions(ti)


def run_m0(ti):
    return ramforge.m0(ti)


def parse_break_data(doc):
    return (jsonio.break_data_in(doc),)


def run_transfer(bd):
    yhz = ramforge.extract_yhz(bd)
    return (ramforge.psi_from_breaks(bd), ramforge.phi_from_breaks(bd), yhz,
            [ramforge.lower_break_formula(bd, yhz, i) for i in range(yhz.h, bd.n)],
            [ramforge.psi_ie_formula(bd, yhz, i) for i in range(bd.n - yhz.h)])


def transfer_doc(result):
    psi, phi, yhz, lower, psi_ie = result
    return {"psi": jsonio.plfunc_out(psi), "phi": jsonio.plfunc_out(phi),
            "y": jsonio.frac_out(yhz.y), "h": yhz.h, "z": jsonio.frac_out(yhz.z),
            "lower_formula": [jsonio.frac_out(v) for v in lower],
            "psi_ie_formula": [jsonio.frac_out(v) for v in psi_ie]}


def parse_pl_compose(doc):
    return jsonio.plfunc_in(doc["outer"]), jsonio.plfunc_in(doc["inner"])


def run_pl_compose(f, g):
    return ramforge.pl_compose(f, g)


def parse_eval(doc):
    return jsonio.plfunc_in(doc["func"]), [jsonio.frac_in(x) for x in doc["x"]]


def run_eval(f, xs):
    return [f(x) for x in xs]


# kind -> (parse: input document -> args, run: args -> result objects,
#          to_doc: result objects -> output document)
KINDS = {
    "analyze": (parse_analyze, run_analyze, jsonio.dynamics_report_out),
    "breaks": (parse_breaks, run_breaks, breaks_doc),
    "compose": (parse_compose, run_compose, jsonio.series_out),
    "inverse": (parse_series, run_inverse, jsonio.series_out),
    "frobenius": (parse_frobenius, run_frobenius, jsonio.series_out),
    "morphism": (parse_morphism, run_morphism, morphism_doc),
    "check": (parse_check, run_check, jsonio.condition_report_out),
    "m0": (parse_check, run_m0, lambda m: {"m0": m}),
    "transfer": (parse_break_data, run_transfer, transfer_doc),
    "pl_compose": (parse_pl_compose, run_pl_compose, jsonio.plfunc_out),
    "eval": (parse_eval, run_eval, lambda vs: {"values": [jsonio.frac_out(v) for v in vs]}),
}


def run_job(job, tracer=None):
    """One job, input text to output text; a PrecisionError ends in the CLI's error document.

    With a tracer, the job and its parse and render stages are spans.
    """
    parse, run, to_doc = KINDS[job.kind]

    def read():
        return parse(json.loads(job.text))

    def write(result):
        return render(to_doc(result))

    if tracer is not None:
        read, write = tracer.span(PARSE, read), tracer.span(RENDER, write)

    def whole():
        args = read()
        try:
            result = run(*args)
        except ramforge.PrecisionError as exc:
            return render(precision_doc(exc))
        return write(result)

    return whole() if tracer is None else tracer.span(JOB, whole)()


@dataclass(frozen=True)
class Workload:
    make_round: object  # (rng, round index) -> list[Job]
    round_s: float  # typical seconds per round, Python 3.11 and numpy 2.4 on a shared 2-vCPU VM


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "dyn-analyze": Workload(dyn_round, 4.1),
    "break-sweep": Workload(sweep_round, 1.1),
    "ext-field": Workload(ext_round, 3.6),
    "conditions": Workload(conditions_round, 0.055),
}


def make_round(workload, seed, r):
    return WORKLOADS[workload].make_round(random.Random(f"{workload}:{seed}:{r}"), r)
