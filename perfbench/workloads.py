"""The three workloads: what they set up, run, and check.

A workload builds everything it needs in `setup()` (generation, validation,
file writing), then exposes `rounds`: a list of rounds, each a short list
of jobs. The timed loop runs whole rounds, cycling through the list. Every
job's result is checked after the timed loop by `check()`, against a
reference that the timed code path did not produce.

Seeds: the workload seed goes only to the generators and builders; job j
of a family uses seed `seed + j`. The CLI's own `--seed` is never passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from softbounds import (
    OracleBudget,
    PropState,
    SearchOptions,
    emit,
    enforce_ac_star,
    enforce_bac,
    enforce_bac_zero,
    enforce_nc,
    gen_random,
    gen_satellite,
    gen_spacerchain,
    parse_path,
    brute_optimum,
    solve,
    total_cost,
)

from instances import chain_fixpoint, far_travel_chain, mixed_instance

_now = time.perf_counter_ns

ENFORCERS = {"nc": enforce_nc, "ac": enforce_ac_star, "bac": enforce_bac, "bac0": enforce_bac_zero}


class Job(NamedTuple):
    key: tuple  # identifies the job; equal keys must give equal results
    inst: int  # index into the workload's instance list
    what: str  # engine, consistency or CLI job name


def _traced(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def _enforce(inst, engine: str, tracer, pop_rng=None):
    mode = "values" if engine in ("nc", "ac") else "interval"
    st = _traced(tracer, "state_build", PropState, inst, mode=mode, pop_rng=pop_rng)
    if tracer is not None:
        tracer.note_state(st)
    rep = _traced(tracer, "enforce." + engine, ENFORCERS[engine], st)
    return st, rep


# ----------------------------------------------------------------------


class WideProp:
    """Bounds propagation on million-value chains and far-travel chains."""

    work_in_children = False
    tail_pct = 75  # a run holds about 40 jobs
    CHAIN_MS = (30, 60, 36, 54, 42, 48)
    FAR_CHAINS = 4
    L = 1_000_000
    trace_rounds = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        chains = [
            gen_spacerchain(m=m, L=self.L, seed=self.seed + j) for j, m in enumerate(self.CHAIN_MS)
        ]
        fars = [far_travel_chain(self.seed + f) for f in range(self.FAR_CHAINS)]
        # Every third instance is a far-travel chain, so any prefix of the
        # rounds mixes short chains, long chains and far travel. Their work
        # varies little from seed to seed, which steadies the run.
        self.instances, self.far = [], set()
        for j, chain in enumerate(chains):
            self.instances.append(chain)
            if j % 2 == 1 and fars:
                self.far.add(len(self.instances))
                self.instances.append(fars.pop())
        for far in fars:
            self.far.add(len(self.instances))
            self.instances.append(far)
        self.rounds = [
            [Job((i, e), i, e) for e in ("bac", "bac0")] for i in range(len(self.instances))
        ]

    def run_job(self, job: Job, tracer) -> Tuple[int, Any]:
        t0 = _now()
        st, rep = _enforce(self.instances[job.inst], job.what, tracer)
        t1 = _now()
        return t1 - t0, (rep.empty, rep.deletions, st.fingerprint())

    def check(self, outcomes) -> List[bool]:
        refs = {}
        for job, result in outcomes:
            if job.key in refs:
                continue
            inst = self.instances[job.inst]
            if job.inst in self.far:
                bounds, removed = chain_fixpoint(inst)
                doms = tuple((lb, ub, ()) for lb, ub in bounds)
                refs[job.key] = ("far", doms, removed)
            else:
                # Confluence: the same fixpoint under a shuffled pop order.
                st, rep = _enforce(inst, job.what, None, random.Random(self.seed + job.inst))
                refs[job.key] = (rep.empty, rep.deletions, st.fingerprint())
        ok = []
        for job, (empty, deletions, fp) in outcomes:
            ref = refs[job.key]
            if ref[0] == "far":
                doms, w0, shifts = fp
                good = not empty and deletions == ref[2] and doms == ref[1] and w0 == 0
                good = good and not any(shifts)
            else:
                good = (empty, deletions, fp) == ref
            ok.append(good)
        return ok

    def trace_instances(self) -> list:
        return self.instances


# ----------------------------------------------------------------------


class SmallSearch:
    """Branch-and-bound to a proven optimum on small domains."""

    work_in_children = False
    tail_pct = 95  # a run holds about 800 jobs

    GROUPS = 400  # random instances; far more than one run solves
    POOL = 8  # satellite and mixed-kind instances, cycled
    trace_rounds = 12
    BRUTE_BUDGET = OracleBudget(max_tuples=200_000)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        s = self.seed
        randoms = [
            gen_random(n=6, d=6, e=10, tightness=0.8, max_cost=3, seed=s + g)
            for g in range(self.GROUPS)
        ]
        sats = [gen_satellite(N=6, seed=s + j) for j in range(self.POOL)]
        mixed = [mixed_instance(s + j) for j in range(self.POOL)]
        self.instances = randoms + sats + mixed
        self.brute_ok = set(range(self.GROUPS, len(self.instances)))
        self.rounds = []
        for g in range(self.GROUPS):
            self.rounds.append([Job((g, c), g, c) for c in ("ac", "bac", "bac0")])
            # Every third round adds a satellite (with nc), every third a mixed one.
            if g % 3 == 1:
                i = self.GROUPS + (g // 3) % self.POOL
                self.rounds.append([Job((i, c), i, c) for c in ("nc", "ac", "bac", "bac0")])
            elif g % 3 == 2:
                i = self.GROUPS + self.POOL + (g // 3) % self.POOL
                self.rounds.append([Job((i, c), i, c) for c in ("ac", "bac", "bac0")])

    def run_job(self, job: Job, tracer) -> Tuple[int, Any]:
        inst = self.instances[job.inst]
        opts = SearchOptions(consistency=job.what)
        t0 = _now()
        result = _traced(tracer, "solve", solve, inst, opts)
        t1 = _now()
        if tracer is not None:
            tracer.note_result(result)
        witness = result.best_assignment
        return t1 - t0, (
            result.status,
            result.best_cost,
            None if witness is None else tuple(sorted(witness.items())),
            result.nodes,
        )

    def check(self, outcomes) -> List[bool]:
        first: Dict[tuple, Any] = {}
        by_inst: Dict[int, Dict[str, Any]] = {}
        for job, result in outcomes:
            first.setdefault(job.key, result)
            by_inst.setdefault(job.inst, {})[job.what] = first[job.key]
        inst_ok = {}
        for i, results in by_inst.items():
            inst = self.instances[i]
            costs = {r[1] for r in results.values()}
            good = len(costs) == 1  # every consistency finds the same optimum
            if i in self.brute_ok:
                opt = brute_optimum(inst, self.BRUTE_BUDGET)
                good = good and costs == {opt.cost if opt.feasible else None}
            for status, cost, witness, _nodes in results.values():
                if cost is None:
                    good = good and status == "infeasible"
                else:
                    good = good and status == "optimal"
                    good = good and total_cost(inst, dict(witness)) == cost
            inst_ok[i] = good
        return [inst_ok[job.inst] and result == first[job.key] for job, result in outcomes]

    def trace_instances(self) -> list:
        seen = []
        for r in self.rounds[: self.trace_rounds]:
            if r[0].inst not in seen:
                seen.append(r[0].inst)
        return [self.instances[i] for i in seen]


# ----------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI_GUARD_S = 60.0


def run_cli(args: List[str], workdir: str, trace_out: Optional[str] = None):
    """Run the CLI once in a child process, with output to files.

    Returns (latency_ns, exit code or None on a guard timeout, stdout bytes,
    stderr bytes). The guard is the parent's wall-clock timeout of
    CLI_GUARD_S; the child is killed and waited for when it fires.
    """
    if trace_out is None:
        cmd = [sys.executable, "-m", "softbounds"] + args
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "clichild.py"), trace_out] + args
    out_path = os.path.join(workdir, "job.stdout")
    err_path = os.path.join(workdir, "job.stderr")
    env = cli_env()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = _now()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=env)
        # Wait on a pidfd: it wakes the moment the child exits, where
        # Popen.wait(timeout) polls in sleeps of up to 50 ms.
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], CLI_GUARD_S)[0]
        finally:
            os.close(pidfd)
        t1 = _now()
        if not exited:
            proc.kill()
        code = proc.wait()
        if not exited:
            code = None
    with open(out_path, "rb") as fh:
        out = fh.read()
    with open(err_path, "rb") as fh:
        err = fh.read()
    return t1 - t0, code, out, err


class Cli:
    """`python -m softbounds` as a subprocess on files written in set-up."""

    trace_rounds = 2
    work_in_children = True
    tail_pct = 75  # a run holds about 50 jobs, 10 rounds of 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        s = self.seed
        os.makedirs(self.workdir, exist_ok=True)
        self.instances = [
            gen_random(n=40, d=60, e=120, seed=s),
            mixed_instance(s + 1, d=7),
            gen_satellite(N=6, seed=s + 2),
            gen_spacerchain(m=30, L=1_000_000, seed=s + 3),
        ]
        self.paths = []
        for name, inst in zip(("big", "mixed", "sat", "chain"), self.instances):
            path = os.path.join(self.workdir, name + ".wcsp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit(inst))
            self.paths.append(path)
        big, mixed, sat, chain = self.paths
        # name -> (file index, consistency, CLI arguments). Five kinds, so
        # that neither the median nor p75 falls between two kinds.
        self.args = {
            "propagate-big": (0, "bac0", ["propagate", big, "--json"]),
            "propagate-ac": (1, "ac", ["propagate", mixed, "--consistency", "ac"]),
            "solve": (2, "bac0", ["solve", sat, "--json"]),
            "solve-ac": (1, "ac", ["solve", mixed, "--consistency", "ac", "--json"]),
            "propagate-trace": (3, "bac0", ["propagate", chain, "--trace", "--json"]),
        }
        self.rounds = [[Job((name,), spec[0], name) for name, spec in self.args.items()]]

    def run_job(self, job: Job, tracer) -> Tuple[int, Any]:
        args = self.args[job.what][2]
        if tracer is None:
            dt, code, out, err = run_cli(args, self.workdir)
        else:
            trace_out = os.path.join(self.workdir, "child-trace.json")
            dt, code, out, err = run_cli(args, self.workdir, trace_out)
            if code is not None:
                with open(trace_out, "r", encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
            tracer.counts["cli.stdout_bytes"] += len(out)
            tracer.counts["cli.stderr_bytes"] += len(err)
        return dt, (code, _sha(out), _sha(err), out)

    def _reference(self, name: str):
        """Fields, exit code and stderr the CLI must print, from the library."""
        i, consistency, args = self.args[name]
        inst = parse_path(self.paths[i])
        if args[0] == "solve":
            res = solve(inst, SearchOptions(consistency=consistency))
            fields = {"status": res.status, "empty": res.best_cost is None, "nodes": res.nodes,
                      "backtracks": res.backtracks}
            if res.best_cost is not None:
                fields["optimum"] = res.best_cost
                fields["witness"] = [res.best_assignment[v.id] for v in inst.variables]
            return fields, 1 if res.best_cost is None else 0, b""
        mode = "values" if consistency in ("nc", "ac") else "interval"
        trace = [] if "--trace" in args else None
        rep = ENFORCERS[consistency](PropState(inst, mode=mode, trace=trace))
        fields = {
            "empty": rep.empty,
            "w0_final": rep.w_zero,
            "domains": [None if d.is_empty else [d.lb, d.ub] for d in rep.domains],
            "deletions": rep.deletions,
            "queue_pops": rep.queue_pops,
            "eval_counts": rep.eval_counts,
        }
        err = "".join(json.dumps(ev) + "\n" for ev in trace or ()).encode()
        return fields, 1 if rep.empty else 0, err

    @staticmethod
    def _report_fields(name: str, out: bytes) -> dict:
        text = out.decode()
        if name == "propagate-ac":  # the only job without --json
            return {k: json.loads(v) for k, v in (ln.split(": ", 1) for ln in text.splitlines())}
        return json.loads(text)

    def check(self, outcomes) -> List[bool]:
        first: Dict[tuple, Any] = {}
        job_ok: Dict[tuple, bool] = {}
        for job, result in outcomes:
            if job.key in first:
                continue
            first[job.key] = result
            code, _out_sha, err_sha, out = result
            fields, want_code, want_err = self._reference(job.what)
            try:
                got = self._report_fields(job.what, out)
                good = all(got.get(k) == v for k, v in fields.items())
            except ValueError:
                good = False
            job_ok[job.key] = good and code == want_code and err_sha == _sha(want_err)
        # Reruns must be byte-identical: same exit code, stdout and stderr.
        return [
            job_ok[job.key] and result[:3] == first[job.key][:3] for job, result in outcomes
        ]

    def trace_instances(self) -> list:
        return self.instances


WORKLOADS = {"wide-prop": WideProp, "small-search": SmallSearch, "cli": Cli}
