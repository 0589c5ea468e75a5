"""The ramforge benchmark: seeded batches of real jobs through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload dyn-analyze --seed 1 --seconds 20 --trace 0

Workloads: dyn-analyze, break-sweep, ext-field, conditions (see
``workloads.py``).  Jobs run in a closed loop: one client in this process,
no threads, each job started when the previous one returns.  The job set is
a fixed number of rounds, sized from ``--seconds`` by each workload's
typical round time, so a seed and a length always give the same jobs.

``--trace 0`` runs the job set twice; a job's time is the faster of its
two runs, and the second pass must print the same bytes as the first.
The times behind jobs_per_s, job_s.p50, job_s.tail and setup_s are given
at a fixed reference speed of the CPU (see ``Speed``); the raw wall times
go to the result file and the report.
``--trace 1`` runs it once untraced and once with spans around every layer
(``tracing.py``), and reports the per-layer metrics; the difference between
the two passes is the tracing overhead.

Every output document is checked by ``checks.py``.  A human-readable
report goes to stdout first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics, where metrics are the
end-to-end or per-layer metrics of BENCHMARK.json.  The full result, with
the SHA-256 of the output documents, and the spans of a traced run are
written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

PASSES = 2  # untraced passes over the job set; a job's time is its faster run
SETUP_RUNS = 5  # fresh processes timed per run, spread over it; setup_s is their median
IMPORT_RUNS = 3  # -X importtime processes per traced run
TAIL_BEYOND = 10  # job_s.tail: the highest percentile with this many jobs above it
PROBE_TIMEOUT_S = 60
OVERRUN = 1.5  # a run stops early after this many times --seconds of job time
REF_EVERY_S = 0.1  # wall seconds of jobs between two runs of the speed reference
REF_NEAR = 5  # a job's speed is the median of this many reference runs nearest to it
REF_LOOPS = 25_000
REF_NOMINAL_S = 0.002  # the speed times are given at: the reference takes this long (about
# its median on the shared 2-vCPU VM the figures in workloads.py were taken on)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that sets up, reports when ready, and exits
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def rounds_for(workload, seconds):
    """Rounds in the job set: PASSES passes take about `seconds` at typical speed."""
    from workloads import WORKLOADS

    return max(1, round(seconds / PASSES / WORKLOADS[workload].round_s))


def make_jobs(args):
    from workloads import make_round

    rounds = rounds_for(args.workload, args.seconds)
    return [job for r in range(rounds) for job in make_round(args.workload, args.seed, r)]


def setup_probe(args):
    """Import, generate and parse the inputs, run one warm-up job, then report."""
    from workloads import run_job

    run_job(make_jobs(args)[0])
    print(f"ready {time.time() - args.setup_probe!r}", flush=True)
    return 0


def spawn_setup(args, flags=()):
    """Seconds from spawning a fresh setup process until it is ready, and its stderr."""
    cmd = [sys.executable, *flags, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    proc = subprocess.Popen(cmd + ["--setup-probe", repr(started)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("setup process timed out") from None
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup process failed:\n{err[-3000:]}")
    return float(words[1]), err


def import_times(stderr):
    """Cumulative import seconds of ramforge and numpy from -X importtime output."""
    found = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name in ("ramforge", "numpy") and name not in found:
                found[name] = int(cumulative) / 1e6
    return found.get("ramforge", 0.0), found.get("numpy", 0.0)


class Outcome:
    """Checks each job's first output; later passes must reproduce it byte for byte.

    Keeps counts and digests, not the outputs.
    """

    def __init__(self):
        from checks import check

        self._check = check
        self.failed = set()
        self.flagged = set()
        self.problems = []
        self.digests = {}
        self.sha256 = hashlib.sha256()
        self.retried = self.sweep_jobs = 0

    def add(self, index, job, out, error):
        digest = hashlib.sha256(out.encode()).digest() if out is not None else None
        if index in self.digests:
            found = [] if digest == self.digests[index] else ["output differs between passes"]
        elif out is None:
            found = [error.strip().splitlines()[-1]]
        else:
            try:
                found, flag = self._check(job, out)
                if job.kind == "breaks":  # was the first, short-truncation attempt wasted?
                    self.sweep_jobs += 1
                    first = json.loads(job.text)["first_trunc"]
                    self.retried += json.loads(out)["truncation"] != first
            except Exception as exc:  # a document the checks cannot read is a failed job
                found, flag = [f"unreadable output document: {exc!r}"], False
            if flag:
                self.flagged.add(index)
            self.sha256.update(out.encode() + b"\n")
        self.digests.setdefault(index, digest)
        if found and index not in self.failed:
            self.failed.add(index)
            if len(self.problems) < 10:
                self.problems.append({"job": index, "kind": job.kind, "problems": found})


def reference():
    """Fixed pure-Python work that calls nothing of ramforge or numpy."""
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


class Speed:
    """Runs of the speed reference, interleaved with the jobs.

    The CPU of a shared VM changes speed by up to a half, for a second to
    minutes at a time, and the changes move a 20 s run's mean job time by
    10-30%.  A job measured next to the reference is slowed by the same
    state, so ``scaled`` gives its time at the speed at which the reference
    takes REF_NOMINAL_S.  The reference uses nothing of the program, so a
    change to the program moves scaled times as much as wall times.
    """

    def __init__(self):
        self.at, self.took = [], []
        self._last = -math.inf

    def maybe_run(self, force=False):
        now = time.perf_counter()
        if force or now - self._last >= REF_EVERY_S:
            reference()
            done = time.perf_counter()
            self.at.append((now + done) / 2)
            self.took.append(done - now)
            self._last = done

    def scaled(self, at, seconds):
        """`seconds` measured at time `at`, at the reference speed."""
        k = bisect.bisect_left(self.at, at)
        lo = max(0, min(k - REF_NEAR // 2, len(self.at) - REF_NEAR))
        return seconds * REF_NOMINAL_S / statistics.median(self.took[lo:lo + REF_NEAR])


def measure(jobs, passes, outcome, limit_s, tracer=None, probe=None, speed=None):
    """Each job's faster time over `passes` back-to-back passes of the job set.

    Returns (raw, scaled): wall seconds, and with a `speed`, seconds at the
    reference speed (else the wall seconds again).  The guest is preempted
    for 15-90 ms about once a second; a job hit by that in one pass is
    rarely hit in the other, so the fastest run is the job's own cost.
    Stops early once the job time passes `limit_s`.  ``probe(busy)`` runs
    between jobs, with the seconds of job time so far.
    """
    from workloads import run_job

    perf = time.perf_counter
    runs = []  # (job index, start, wall seconds)
    busy = 0.0

    def best():
        raw = [math.inf] * len(jobs)
        scaled = [math.inf] * len(jobs)
        for i, t0, t in runs:
            raw[i] = min(raw[i], t)
            scaled[i] = min(scaled[i], speed.scaled(t0 + t / 2, t) if speed else t)
        return [b for b in raw if b < math.inf], [b for b in scaled if b < math.inf]

    for i in (k for _ in range(passes) for k in range(len(jobs))):
        if probe is not None:
            probe(busy)
        if speed is not None:
            speed.maybe_run()
        t0 = perf()
        try:
            out, error = run_job(jobs[i], tracer), None
        except Exception:  # an unexpected exception fails this job; the run goes on
            out, error = None, traceback.format_exc(limit=4)
        t = perf() - t0
        runs.append((i, t0, t))
        outcome.add(i, jobs[i], out, error)
        busy += t
        if busy > limit_s:
            break
    if speed is not None:
        speed.maybe_run(force=True)
    return best()


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(args, jobs, attempted):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "ramforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_generated": len(jobs), "jobs_attempted": attempted,
    }


def end_to_end(args, jobs):
    from workloads import run_job

    run_job(jobs[0])  # untimed warm-up
    speed = Speed()
    setup_runs = []  # (midpoint, wall seconds)

    def time_setup():  # between reference runs, so that it is scaled like a job
        speed.maybe_run(force=True)
        t0 = time.perf_counter()
        took = spawn_setup(args)[0]
        setup_runs.append((t0 + took / 2, took))
        speed.maybe_run(force=True)

    def probe(busy):  # spread the setup samples over the run
        if len(setup_runs) < SETUP_RUNS and busy >= len(setup_runs) * args.seconds / SETUP_RUNS:
            time_setup()

    outcome = Outcome()
    raw, times = measure(jobs, PASSES, outcome, OVERRUN * args.seconds, probe=probe, speed=speed)
    while len(setup_runs) < SETUP_RUNS:  # the run ended before the last sample was due
        time_setup()
    setup = [speed.scaled(at, took) for at, took in setup_runs]
    n = len(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "jobs_per_s": n / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": len(outcome.failed) / n,
        "flagged_frac": len(outcome.flagged - outcome.failed) / n,
    }
    detail = {
        "jobs": n, "passes": PASSES, "best_s_sum": sum(times), "raw_best_s_sum": sum(raw),
        "raw_job_s.p50": statistics.median(raw), "raw_job_s.tail": tail(raw)[0],
        "reference_s": {"nominal": REF_NOMINAL_S, "runs": len(speed.took),
                        "median": statistics.median(speed.took),
                        "min": min(speed.took), "max": max(speed.took)},
        "flagged": len(outcome.flagged - outcome.failed),
        "tail_percentile": tail_pct, "tail_jobs_beyond": min(TAIL_BEYOND, n - 1),
        "setup_samples_s": setup, "raw_setup_samples_s": [t for _, t in setup_runs],
        "raw_setup_s": statistics.median(t for _, t in setup_runs), "problems": outcome.problems,
        "output_sha256": outcome.sha256.hexdigest(), "best_s": times, "raw_best_s": raw,
    }
    return metrics, detail, n, len(outcome.failed)


def per_layer(args, jobs, names):
    from tracing import MOVES, Tracer, layer_metrics
    from workloads import run_job

    if set(MOVES) != set(names):
        raise KeyError(f"tracing.MOVES and BENCHMARK.json differ on {set(MOVES) ^ set(names)}")
    extra = dict.fromkeys(("import.ramforge_s", "import.numpy_s", "trace.overhead_s",
                           "trace.overhead_frac", "nottingham.lower_breaks.retry_frac"), 0.0)
    layer_metrics(Tracer(), names, extra)  # every name can be computed
    samples = [import_times(spawn_setup(args, ("-X", "importtime"))[1]) for _ in range(IMPORT_RUNS)]
    run_job(jobs[0])  # untimed warm-up
    plain = Outcome()
    plain_times, _ = measure(jobs, 1, plain, OVERRUN * args.seconds / PASSES)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Outcome()
        times, _ = measure(jobs, 1, traced, OVERRUN * args.seconds, tracer)
    finally:
        tracer.uninstall()
    # tracing must not change a single output byte
    differ = {i for i, d in traced.digests.items() if plain.digests.get(i, d) != d}
    k = min(len(plain_times), len(times))
    untraced_s, traced_s = sum(plain_times[:k]), sum(times[:k])
    metrics, layers = layer_metrics(tracer, names, {
        "import.ramforge_s": statistics.median(s[0] for s in samples),
        "import.numpy_s": statistics.median(s[1] for s in samples),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "nottingham.lower_breaks.retry_frac":
            traced.retried / traced.sweep_jobs if traced.sweep_jobs else 0.0,
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    detail = {
        "jobs": len(times), "flagged": len(traced.flagged - traced.failed),
        "outputs_differing_from_untraced": len(differ), "problems": traced.problems,
        "output_sha256": traced.sha256.hexdigest(), "spans": str(spans_path.relative_to(ROOT)),
        "layers": layers, "moves": MOVES,
    }
    return metrics, detail, len(times), len(traced.failed | differ)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ramforge" / "__init__.py").is_file():
        print(f"perfbench: no ramforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe is not None:
        return setup_probe(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS  # imports ramforge

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    spawn_setup(args)  # untimed: fills the page cache and writes bytecode
    jobs = make_jobs(args)
    if args.trace:
        wanted = spec["per_layer"]
        metrics, detail, attempted, failed = per_layer(args, jobs, [m["name"] for m in wanted])
    else:
        metrics, detail, attempted, failed = end_to_end(args, jobs)
        wanted = spec["end_to_end"]

    result = {"environment": environment(args, jobs, attempted), "metrics": metrics, **detail}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_frac="frac", flagged_frac="frac")
    env = result["environment"]
    print(f"ramforge benchmark: workload {args.workload}, seed {args.seed}, "
          f"{attempted} jobs, git {env['git_rev']}, python {env['python']}, "
          f"numpy {env['numpy']}, nproc {env['nproc']}")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]:>14.6g} {units.get(name, '')}")
    if not args.trace:
        print(f"  job_s.tail is p{detail['tail_percentile']:.1f}: "
              f"{detail['tail_jobs_beyond']} of {attempted} jobs beyond it; "
              f"output sha256 {detail['output_sha256']}")
        ref = detail["reference_s"]
        print(f"  times at the reference speed ({ref['nominal']} s); wall times: "
              f"{attempted / detail['raw_best_s_sum']:.6g} jobs/s, setup {detail['raw_setup_s']:.6g} s, "
              f"p50 {detail['raw_job_s.p50']:.6g} s, tail {detail['raw_job_s.tail']:.6g} s; "
              f"reference median {ref['median']:.6g} s over {ref['runs']} runs")
    for p in detail["problems"]:
        print(f"  FAILED job {p['job']} ({p['kind']}): {'; '.join(p['problems'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
