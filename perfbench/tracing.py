"""Span tracing installed from outside the library, and the per-layer metrics.

``Tracer.install`` wraps public functions of each ramforge module (see
``SPANS``) and patches every ramforge module namespace that bound them by
name at import, so calls made inside the library are seen too.  Spans are
kept in memory as columns (name, parent, start, end) and written out once
at the end; a span's self time is its duration minus its children's.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

from workloads import JOB, PARSE, RENDER

# (module, attribute path, span name).  Span names are the layer names of
# the per-layer metrics; "_convolve" is spelled "convolve" because metric
# names must start with a letter.
SPANS = (
    ("ramforge._convolve", "conv_mod", "convolve.conv_mod"),
    ("ramforge._convolve", "compose_mod", "convolve.compose_mod"),
    ("ramforge._convolve", "recip_mod", "convolve.recip_mod"),
    ("ramforge.gfseries", "TruncSeries.__init__", "gfseries.TruncSeries.init"),
    ("ramforge.gfseries", "TruncSeries.__mul__", "gfseries.TruncSeries.mul"),
    ("ramforge.gfseries", "TruncSeries.compose", "gfseries.TruncSeries.compose"),
    ("ramforge.gfseries", "TruncSeries.comp_inverse", "gfseries.TruncSeries.comp_inverse"),
    ("ramforge.gfseries", "frobenius_twist", "gfseries.frobenius_twist"),
    ("ramforge.nottingham", "compose_power", "nottingham.compose_power"),
    ("ramforge.nottingham", "lower_breaks", "nottingham.lower_breaks"),
    ("ramforge.nottingham", "depth", "nottingham.depth"),
    ("ramforge.nottingham", "upper_from_lower", "nottingham.upper_from_lower"),
    ("ramforge.nottingham", "index_of", "nottingham.index_of"),
    ("ramforge.pdyn", "analyze", "pdyn.analyze"),
    ("ramforge.pdyn", "pad_iterate", "pdyn.pad_iterate"),
    ("ramforge.pdyn", "pad_compose", "pdyn.pad_compose"),
    ("ramforge.pdyn", "qn_divide", "pdyn.qn_divide"),
    ("ramforge.pdyn", "newton_polygon", "pdyn.newton_polygon"),
    ("ramforge.herbrand", "PLFunc.__call__", "herbrand.PLFunc.call"),
    ("ramforge.herbrand", "PLFunc.inverse", "herbrand.PLFunc.inverse"),
    ("ramforge.herbrand", "psi_from_breaks", "herbrand.psi_from_breaks"),
    ("ramforge.herbrand", "phi_from_breaks", "herbrand.phi_from_breaks"),
    ("ramforge.herbrand", "pl_compose", "herbrand.pl_compose"),
    ("ramforge.herbrand", "extract_yhz", "herbrand.extract_yhz"),
    ("ramforge.herbrand", "lower_break_formula", "herbrand.lower_break_formula"),
    ("ramforge.herbrand", "psi_ie_formula", "herbrand.psi_ie_formula"),
    ("ramforge.ramcheck", "check_conditions", "ramcheck.check_conditions"),
    ("ramforge.ramcheck", "m0", "ramcheck.m0"),
    ("ramforge.ramcheck", "proot_check", "ramcheck.proot_check"),
    ("ramforge.truncation", "compose_morphism", "truncation.compose_morphism"),
    ("ramforge.truncation", "TruncMorphism.apply_ring", "truncation.TruncMorphism.apply_ring"),
    ("ramforge.truncation", "r_equivalent", "truncation.r_equivalent"),
)

# counted but not spanned: millions of calls of a few microseconds each
COUNTS = (
    ("ramforge.gfseries", "FFElem.__mul__", "gfseries.FFElem.mul"),
)

# counted by the conv_mod hook: calls past the kernel's int64 bound, and
# the coefficient products la * lb the calls ask for
EXACT_CALLS = "convolve.conv_mod.exact_calls"
COEF_MULTS = "convolve.conv_mod.coef_mults"

MODULES = ("convolve", "gfseries", "nottingham", "pdyn", "herbrand", "ramcheck",
           "truncation", "jsonio", "bench")

# Which end-to-end metric (on which workload) each per-layer metric should
# move, so that later changes can cite these pairs.  "none" marks a
# workload the layer bypasses, where the prediction is no change.
MOVES = {
    "convolve.conv_mod.calls": "jobs_per_s on dyn-analyze, break-sweep; none on conditions",
    "convolve.conv_mod.self_s": "jobs_per_s on dyn-analyze, break-sweep; none on conditions",
    "convolve.conv_mod.exact_calls": "job_s.tail on dyn-analyze",
    "convolve.conv_mod.coef_mults": "jobs_per_s on dyn-analyze, break-sweep",
    "convolve.compose_mod.calls": "jobs_per_s on dyn-analyze, break-sweep",
    "convolve.compose_mod.self_s": "jobs_per_s on dyn-analyze, break-sweep",
    "convolve.recip_mod.calls": "jobs_per_s on dyn-analyze, break-sweep",
    "convolve.recip_mod.self_s": "jobs_per_s on dyn-analyze, break-sweep",
    "gfseries.TruncSeries.init.calls": "jobs_per_s on break-sweep",
    "gfseries.TruncSeries.init.self_s": "jobs_per_s on break-sweep",
    "gfseries.TruncSeries.mul.self_s": "jobs_per_s on ext-field",
    "gfseries.TruncSeries.compose.calls": "jobs_per_s on break-sweep, ext-field",
    "gfseries.TruncSeries.compose.self_s": "jobs_per_s on ext-field",
    "gfseries.TruncSeries.comp_inverse.self_s": "jobs_per_s, job_s.tail on ext-field",
    "gfseries.FFElem.mul.calls": "jobs_per_s on ext-field",
    "nottingham.compose_power.calls": "jobs_per_s on break-sweep",
    "nottingham.compose_power.self_s": "jobs_per_s on break-sweep",
    "nottingham.compositions_per_p_step": "jobs_per_s on break-sweep",
    "nottingham.lower_breaks.calls": "jobs_per_s on break-sweep",
    "nottingham.lower_breaks.self_s": "jobs_per_s on break-sweep",
    "nottingham.lower_breaks.retry_frac": "jobs_per_s on break-sweep",
    "nottingham.depth.calls": "jobs_per_s on break-sweep",
    "pdyn.pad_iterate.calls": "jobs_per_s on dyn-analyze",
    "pdyn.pad_iterate.self_s": "jobs_per_s on dyn-analyze",
    "pdyn.compositions_per_job": "jobs_per_s, peak_rss_mb on dyn-analyze",
    "pdyn.qn_divide.calls": "jobs_per_s on dyn-analyze",
    "pdyn.qn_divide.self_s": "jobs_per_s on dyn-analyze",
    "pdyn.newton_polygon.self_s": "jobs_per_s on dyn-analyze",
    "herbrand.PLFunc.call.calls": "jobs_per_s on conditions",
    "herbrand.PLFunc.call.self_s": "jobs_per_s on conditions",
    "herbrand.psi_from_breaks.calls": "jobs_per_s on conditions",
    "herbrand.PLFunc.inverse.calls": "jobs_per_s on conditions",
    "herbrand.pl_compose.self_s": "jobs_per_s on conditions",
    "ramcheck.check_conditions.self_s": "jobs_per_s on conditions",
    "ramcheck.m0.calls": "jobs_per_s on conditions",
    "ramcheck.proot_check.calls": "jobs_per_s on conditions",
    "truncation.compose_morphism.calls": "jobs_per_s on ext-field",
    "truncation.compose_morphism.self_s": "jobs_per_s on ext-field",
    "truncation.TruncMorphism.apply_ring.calls": "jobs_per_s on ext-field",
    "jsonio.in_s": "jobs_per_s on conditions",
    "jsonio.out_s": "jobs_per_s on conditions",
    "import.ramforge_s": "setup_s on every workload, most on conditions",
    "import.numpy_s": "setup_s on every workload, most on conditions",
    "trace.overhead_s": "none: cost of this tracer",
    "trace.overhead_frac": "none: cost of this tracer",
}
MOVES.update({f"share.{m}": "the workload's jobs_per_s, by the layer's share" for m in MODULES})


def _resolve(module, path):
    obj = sys.modules[module]
    *owner, attr = path.split(".")
    for name in owner:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self._p_steps = set()  # indices of compose_power spans with k == p
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, hook=None):
        """fn wrapped in a span; hook(index, *args) runs inside it first."""
        nid = self._id(name)
        names, parents, stack = self.name, self.parent, self._stack
        starts, ends = self.start, self.end
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                if hook is not None:
                    hook(idx, *args)
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _conv_hook(self, idx, a, b, n, mod):
        la, lb = min(len(a), n), min(len(b), n)
        if la and lb:
            self.counts[COEF_MULTS] += la * lb
            if (mod - 1) * (mod - 1) * min(la, lb) >= self._int64_safe:
                self.counts[EXACT_CALLS] += 1

    def _power_hook(self, idx, g, k):
        if k == g.field.p:
            self._p_steps.add(idx)

    def install(self):
        # the bound conv_mod tests before taking its numpy path
        self._int64_safe = sys.modules["ramforge._convolve"]._INT64_SAFE
        hooks = {"convolve.conv_mod": self._conv_hook,
                 "nottingham.compose_power": self._power_hook}
        for module, path, name in SPANS:
            self._patch(module, path, lambda fn, name=name: self.span(name, fn, hooks.get(name)))
        for module, path, name in COUNTS:
            self._patch(module, path, lambda fn, name=name: self._count(name, fn))

    def _patch(self, module, path, make_wrapper):
        owner, attr = _resolve(module, path)
        orig = vars(owner)[attr]
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):  # a method: replace it on its class
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, orig))
            return
        # a function: replace it in every ramforge namespace that bound it
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ramforge"]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def layers(self):
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                own[par] -= self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        return out

    def compositions_per_p_step(self):
        compose = self._ids.get("gfseries.TruncSeries.compose")
        inside = sum(1 for i in range(len(self.start))
                     if self.name[i] == compose and self.parent[i] in self._p_steps)
        return inside / len(self._p_steps) if self._p_steps else 0.0

    def write(self, path):
        t0 = self.start[0] if self.start else 0.0
        doc = {"names": self.names, "name": self.name.tolist(), "parent": self.parent.tolist(),
               "start_s": [t - t0 for t in self.start], "end_s": [t - t0 for t in self.end]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer, names, extra):
    """The per-layer metrics `names` from one traced batch, keyed by name.

    A name is either derived here or in `extra`, or a span or count name
    followed by ``.calls`` or ``.self_s``; any other name raises KeyError,
    so ``layer_metrics(Tracer(), names, extra)`` checks a name list before
    a run.  Returns the metrics and the per-span table.
    """
    layers = tracer.layers()

    def get(name, field):
        return layers.get(name, {}).get(field, 0)

    analyses = get("pdyn.analyze", "calls")
    compositions = get("pdyn.pad_compose", "calls") + get("gfseries.TruncSeries.compose", "calls")
    job_s = get(JOB, "total_s")
    derived = {
        EXACT_CALLS: tracer.counts[EXACT_CALLS],
        COEF_MULTS: tracer.counts[COEF_MULTS],
        "nottingham.compositions_per_p_step": tracer.compositions_per_p_step(),
        "pdyn.compositions_per_job": compositions / analyses if analyses else 0.0,
        "jsonio.in_s": get(PARSE, "total_s"),
        "jsonio.out_s": get(RENDER, "total_s"),
        **extra,
    }
    for module in MODULES:
        own = sum(row["self_s"] for name, row in layers.items() if name.split(".")[0] == module)
        derived[f"share.{module}"] = 100.0 * own / job_s if job_s else 0.0
    spanned = {name for _, _, name in SPANS}
    counted = {name for _, _, name in COUNTS}
    m = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if name in derived:
            m[name] = derived[name]
        elif layer in spanned and field in ("calls", "self_s"):
            m[name] = get(layer, field)
        elif layer in counted and field == "calls":
            m[name] = tracer.counts[layer]
        else:
            raise KeyError(f"no per-layer metric is named {name!r}")
    return m, layers
