"""softbounds benchmark: one workload per run, closed loop, one job at a time.

    python3 perfbench/run.py --workload {wide-prop,small-search,cli,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones of BENCHMARK.json; with `--trace 1` the per-layer ones.
`--workload all` runs the three workloads one after the other, each in its
own child process, and prints every metric of each by name.

See perfbench/README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench-work")
# Set-up is repeated at least SETUP_MIN times and until SETUP_MIN_S have
# passed (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 5, 1.0, 50
JOB_GUARD_S = 60.0

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import softbounds
except ImportError as exc:
    print(f"perfbench: cannot import softbounds from {os.path.join(ROOT, 'src')}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if not os.path.abspath(softbounds.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    print(f"perfbench: softbounds was imported from {softbounds.__file__}, not ./src",
          file=sys.stderr)
    sys.exit(2)

from softbounds import (  # noqa: E402
    PropState,
    SearchOptions,
    emit,
    enforce_bac,
    enforce_bac_zero,
    gen_random,
    gen_spacerchain,
    parse_text,
    solve,
)

from calibrate import Calibrator  # noqa: E402
from probe import Probe  # noqa: E402
from tracer import COSTFN_KINDS, Tracer  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402

_now = time.perf_counter_ns


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout without .git reports "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(xs, pct):
    """Nearest-rank percentile of the samples."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics


class JobTimeout(Exception):
    """An in-process job ran past JOB_GUARD_S."""


def _on_alarm(_signum, _frame):
    raise JobTimeout(f"job ran past {JOB_GUARD_S} s")


def attempt(wl, job, tracer=None):
    """Run one job. A job that raises or runs past the guard is a failed
    job, not a failed run: its result is None and its time counts up to
    the exception. CLI jobs have their own guard in the parent's wait."""
    guard = 0 if wl.work_in_children else JOB_GUARD_S
    t0 = _now()
    signal.setitimer(signal.ITIMER_REAL, guard)
    try:
        return wl.run_job(job, tracer)
    except Exception as exc:
        print(f"perfbench: job {job.key} failed: {exc!r}", file=sys.stderr)
        return _now() - t0, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def verdicts(wl, outcomes):
    """One bool per outcome: did it complete and pass the workload's check."""
    done = wl.check([(job, result) for job, result in outcomes if result is not None])
    it = iter(done)
    return [result is not None and next(it) for _job, result in outcomes]


def run_untraced(wl, seconds: float, cal: Calibrator):
    """Whole rounds until `seconds` of job time have passed; the kernel
    samples between jobs are not counted in the loop's time."""
    outcomes, lat_ms = [], []
    t_start = _now()
    cal_start = cal.spent_ns
    r = 0
    while True:
        for job in wl.rounds[r % len(wl.rounds)]:
            dt, result = attempt(wl, job)
            outcomes.append((job, result))
            lat_ms.append(dt / 1e6)
            cal.maybe_sample()
        r += 1
        if _now() - t_start - (cal.spent_ns - cal_start) >= seconds * 1e9:
            break
    wall_s = (_now() - t_start - (cal.spent_ns - cal_start)) / 1e9
    who = resource.RUSAGE_CHILDREN if wl.work_in_children else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    return outcomes, lat_ms, wall_s, verdicts(wl, outcomes), rss_kb


# ----------------------------------------------------------------------
# traced run: per-layer metrics


def layer_probe(tracer: Tracer, wl, seed: int, workdir: str):
    """The part of the traced run every workload shares: text round trips
    of the workload's own instances, a short library run and the CLI's
    start-up, so that every layer has a measured value on every workload."""
    for inst in wl.trace_instances():
        text = tracer.span("emit", emit, inst)
        idx = tracer.begin("parse")
        parse_text(text)
        tracer.end(idx)
        tracer.counts["fileformat.lines"] += text.count("\n")
    small = gen_random(n=6, d=6, e=10, tightness=0.8, max_cost=3, seed=seed)
    for engine, fn in (("bac", enforce_bac), ("bac0", enforce_bac_zero)):
        st = tracer.span("state_build", PropState, small)
        tracer.note_state(st)
        tracer.span("enforce." + engine, fn, st)
    for consistency in ("ac", "bac0"):
        tracer.note_result(tracer.span("solve", solve, small, SearchOptions(consistency=consistency)))
    tracer.harvest_states()
    # One traced CLI job, so that the CLI's own spans and output exist here too.
    path = os.path.join(workdir, "probe.wcsp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(gen_spacerchain(m=6, L=1000, seed=seed)))
    trace_out = os.path.join(workdir, "probe-trace.json")
    idx = tracer.begin("job")
    _dt, code, out, err = run_cli(["propagate", path, "--trace", "--json"], workdir, trace_out)
    if code is not None:
        with open(trace_out, "r", encoding="utf-8") as fh:
            tracer.merge(json.load(fh))
    tracer.end(idx)
    tracer.counts["cli.stdout_bytes"] += len(out)
    tracer.counts["cli.stderr_bytes"] += len(err)
    startup = []
    for _ in range(3):
        dt, _code, _out, _err = run_cli(["--help"], workdir)
        startup.append(dt / 1e9)
    return statistics.median(startup)


def run_traced(wl, seed: int, workdir: str):
    """Each job of the first `trace_rounds` rounds runs untraced, then traced."""
    tracer = Tracer()
    outcomes = []
    plain_ns = traced_ns = 0
    job_id = 0
    for rnd in wl.rounds[: wl.trace_rounds]:
        for job in rnd:
            dt, result = attempt(wl, job)
            plain_ns += dt
            outcomes.append((job, result))
            tracer.job_id = job_id
            tracer.install()
            try:
                idx = tracer.begin("job")
                try:
                    dt, result = attempt(wl, job, tracer)
                finally:
                    tracer.end(idx)
                tracer.harvest_states()
            finally:
                tracer.uninstall()
            traced_ns += dt
            outcomes.append((job, result))
            job_id += 1
    tracer.job_id = None
    tracer.install()
    try:
        startup_s = layer_probe(tracer, wl, seed, workdir)
    finally:
        tracer.uninstall()
    return tracer, outcomes, traced_ns / plain_ns, startup_s


SELF_SPANS = ("job", "cli_main", "parse", "validate", "emit", "state_build", "enforce",
              "solve", "resume", "undo", "costfn")


def layer_metrics(tracer, overhead, startup_s, lookups_per_call, ns_per_call):
    s = lambda name: tracer.total_ns(name) / 1e9  # noqa: E731
    c = tracer.counts
    p = tracer.peaks
    out = {}
    for kind in COSTFN_KINDS:
        out[f"costfn.ns_per_call.{kind}"] = metric(ns_per_call[kind], "ns")
        out[f"costfn.lookups_per_call.{kind}"] = metric(lookups_per_call[kind], "count")
    out["costfn.calls"] = metric(sum(v for k, v in c.items() if k.startswith("costfn.")), "count")
    prop_s = sum(s(n) for n in {sp[0] for sp in tracer.spans}
                 if n.startswith("enforce.") or n == "resume")
    pops = c["propagation.queue_pops"]
    out["propagation.enforce_s.bac"] = metric(s("enforce.bac"), "s")
    out["propagation.enforce_s.bac0"] = metric(s("enforce.bac0"), "s")
    out["propagation.queue_pops"] = metric(pops, "count")
    out["propagation.deletions"] = metric(c["propagation.deletions"], "count")
    out["propagation.projections"] = metric(c["propagation.projections"], "count")
    out["propagation.lookups"] = metric(c["propagation.lookups"], "count")
    out["propagation.pops_per_s"] = metric(pops / prop_s, "1/s")
    out["propagation.lookups_per_pop"] = metric(c["propagation.lookups"] / pops, "ratio")
    out["propagation.deletions_per_pop"] = metric(c["propagation.deletions"] / pops, "ratio")
    out["propagation.state_build_s"] = metric(s("state_build"), "s")
    out["propagation.state_cells"] = metric(p["propagation.state_cells"], "count")
    solve_s, resume_s = s("solve"), s("resume")
    out["search.solve_s"] = metric(solve_s, "s")
    out["search.nodes"] = metric(c["search.nodes"], "count")
    out["search.backtracks"] = metric(c["search.backtracks"], "count")
    out["search.nodes_per_s"] = metric(c["search.nodes"] / solve_s, "1/s")
    out["search.incumbents"] = metric(c["search.incumbents"], "count")
    out["search.resume_s"] = metric(resume_s, "s")
    out["search.propagate_share"] = metric(resume_s / solve_s, "ratio")
    out["search.undo_s"] = metric(tracer.ns["undo"] / 1e9, "s")
    out["search.undo_calls"] = metric(c["undo"], "count")
    out["search.trail_peak"] = metric(p["search.trail_peak"], "count")
    parse_s = s("parse")
    out["fileformat.parse_s"] = metric(parse_s, "s")
    out["fileformat.lines_per_s"] = metric(c["fileformat.lines"] / parse_s, "1/s")
    out["fileformat.emit_s"] = metric(s("emit"), "s")
    out["network.validate_s"] = metric(s("validate"), "s")
    out["cli.startup_s"] = metric(startup_s, "s")
    out["cli.stdout_bytes"] = metric(c["cli.stdout_bytes"], "bytes")
    out["cli.stderr_bytes"] = metric(c["cli.stderr_bytes"], "bytes")
    self_ns = tracer.self_ns()
    for name in SELF_SPANS:
        out[f"self_s.{name}"] = metric(self_ns.get(name, 0) / 1e9, "s")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


# ----------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK, f"{name}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    cal = Calibrator()
    setup_s = []
    while len(setup_s) < SETUP_MAX and (len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_MIN_S):
        wl = None  # drop the previous set-up before building the next
        cal.sample()
        t0 = _now()
        wl = WORKLOADS[name](seed, workdir)
        wl.setup()
        setup_s.append((_now() - t0) / 1e9)

    probe = Probe(seed)
    lookups_per_call, breaches = probe.check_caps()
    if not trace:
        outcomes, lat_ms, wall_s, ok, rss_kb = run_untraced(wl, seconds, cal)
        pct = wl.tail_pct
        raw = {
            "setup_s": statistics.median(setup_s),
            "jobs_per_s": ok.count(True) / wall_s,
            "job_p50_ms": statistics.median(lat_ms),
            "job_tail_ms": percentile(lat_ms, pct),
        }
        # Times in reference seconds (see calibrate.py): times scale by the
        # factor, rates by its inverse.
        f = cal.factor()
        metrics = {
            "setup_s": metric(raw["setup_s"] * f, "s"),
            "jobs_per_s": metric(raw["jobs_per_s"] / f, "1/s"),
            "job_p50_ms": metric(raw["job_p50_ms"] * f, "ms"),
            "job_tail_ms": metric(raw["job_tail_ms"] * f, "ms"),
            "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        }
        record.update({
            "wall_s": wall_s, "tail_percentile": pct,
            "tail_samples_beyond": len(lat_ms) - math.ceil(pct / 100 * len(lat_ms)),
            "setup_repeats": len(setup_s), "raw": raw, "speed_factor": f,
            "kernel_samples": len(cal.samples),
        })
        detail = {"latency_ms": [[list(job.key), ms] for (job, _r), ms in zip(outcomes, lat_ms)]}
    else:
        tracer, outcomes, overhead, startup_s = run_traced(wl, seed, workdir)
        ok = verdicts(wl, outcomes)
        metrics = layer_metrics(tracer, overhead, startup_s, lookups_per_call, probe.time_calls())
        record["traced_over_untraced"] = overhead
        detail = {"trace": tracer.export()}
    failed = ok.count(False) + (1 if breaches else 0)
    attempted = len(outcomes) + 1  # the jobs and the costfn cap check
    record.update({"jobs": len(outcomes), "fail_ratio": failed / attempted,
                   "cap_breaches": breaches})
    path = os.path.join(WORK, f"result-{name}-{seed}-trace{int(trace)}.json")
    record["result_file"] = os.path.relpath(path, ROOT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(record=record, metrics=metrics, **detail), fh)
    shutil.rmtree(workdir)
    return {"record": record, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_human(res: dict) -> None:
    rec = res["record"]
    print("# run " + json.dumps(rec, sort_keys=True))
    for key, m in res["metrics"].items():
        print(f"{rec['workload']:>12}  {key:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{rec['workload']:>12}  {'fail_ratio':<36} {rec['fail_ratio']:>16.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    if "tail_percentile" in rec:
        print(f"{rec['workload']:>12}  job_tail_ms is p{rec['tail_percentile']:g} of "
              f"{rec['jobs']} jobs, {rec['tail_samples_beyond']} beyond it")


def run_all(args) -> dict:
    """Each workload in its own child process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.workload == "all":
        out = run_all(args)
    else:
        res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_human(res)
        out = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
