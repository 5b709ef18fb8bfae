"""Paired A/B timing of two checkouts of ctlin in one process.

    python3 tools/pair_ab.py A B --workload scale --seed 23 --stage harden

A and B are checkout roots.  Each one's `src/ctlin` is loaded under its
own package name (`ctlin_a`, `ctlin_b`), so both run in the same process
on the same host phases.  A round runs one pass of the stage over every
job of a perfbench workload on each side, A first in even rounds and B
first in odd ones.  Stages:

- `harden`: `ctlin harden`, in process, with the job's flags;
- `verify`: `ctlin verify` of the job against that side's own hardening;
- `taint_profile`: `taint.taint_profile` alone, on the module as the
  pipeline profiles it (exits unified, icalls promoted, regions built);
- `decode`: `interp.Code` of the job's hardened module, once plain and
  once with the decoy decoder, as `verify` decodes it, each job after
  an untimed `gc.collect()`.

`--job NAME` (repeatable) keeps only the named jobs of the workload, so
an A/B of one job, say `--job table_lookup.l1`, runs no other.

Each job is timed with perfbench's `HostClock` in reference seconds,
which discount the host's speed changes, and a side's pass time is the
sum over jobs.  The paired ratio of a round is B's pass time over A's;
the script prints the median ratio, its quartiles, how many rounds B
was faster, and each side's median pass time.  The stages that harden
(all but `taint_profile`) also say whether A and B emitted the same
bytes for every job, and name the jobs where they did not
(`same_bytes`, `differing_jobs`).  The `verify` stage also says
whether the last verdict lines of A and B were the same for every job
(`same_verdicts`, `differing_verdicts`).  The last line is JSON.
Run it from anywhere; the workloads come from this checkout's
`perfbench/`.  An A/A run (the same root twice) shows the noise floor.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402

STAGES = ("harden", "verify", "taint_profile", "decode")


def load_ctlin(root: str, name: str) -> dict:
    """The modules of root's src/ctlin, imported as package `name`."""
    src = os.path.join(root, "src", "ctlin")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {mod: importlib.import_module("%s.%s" % (name, mod))
            for mod in ("cli", "interp", "ir", "normalize", "pta",
                        "pipeline", "taint")}


def _cli(ctlin: dict, argv: list) -> str:
    """What ctlin argv printed on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctlin["cli"].main(argv)
    if rc not in (0, 4):
        raise RuntimeError("ctlin %s exited %s: %s"
                           % (argv[0], rc, err.getvalue().strip()))
    return out.getvalue()


class Side:
    """One checkout's package and the files its jobs read and write."""

    def __init__(self, root: str, name: str, jobs: list, work: str):
        self.ctlin = load_ctlin(root, name)
        self.jobs = jobs
        self.work = os.path.join(work, name)
        os.makedirs(self.work, exist_ok=True)
        for job in jobs:
            with open(self.path(job, ".ir"), "w") as f:
                f.write(job.text)
        self.profiled = {}
        self.hardened = {}
        self.verdicts = {}      # job name -> its last verify's stdout

    def path(self, job, suffix: str) -> str:
        return os.path.join(self.work, job.name + suffix)

    def emitted(self, job) -> str:
        """The hardened text of job's last hardening."""
        with open(self.path(job, ".hard.ir")) as f:
            return f.read()

    def harden(self, job):
        _cli(self.ctlin, ["harden", self.path(job, ".ir"), "--emit",
                          self.path(job, ".hard.ir")] + job.harden_flags)

    def verify(self, job):
        self.verdicts[job.name] = _cli(
            self.ctlin, ["verify", self.path(job, ".ir"),
                         self.path(job, ".hard.ir")] + job.verify_flags)

    def taint_profile(self, job):
        m, suite, rt = self.profiled[job.name]
        self.ctlin["taint"].taint_profile(m, suite, rt)

    def decode(self, job):
        interp = self.ctlin["interp"]
        m = self.hardened[job.name]
        interp.Code(m)
        interp.Code(m, interp.DecoyDecoder())

    def prepare(self, stage: str):
        """Untimed work a stage reads: hardenings for verify and decode,
        profiled modules for taint_profile."""
        for job in self.jobs:
            if stage in ("verify", "decode"):
                self.harden(job)
            if stage == "decode":
                self.hardened[job.name] = \
                    self.ctlin["ir"].parse_module(self.emitted(job))
            elif stage == "taint_profile":
                c = self.ctlin
                m = c["ir"].parse_module(job.text)
                c["normalize"].unify_exits(m)
                targets = c["pta"].resolve_indirect_targets(
                    m, c["pta"].andersen_solve(m))
                if targets:
                    c["normalize"].promote_indirect_calls(m, targets)
                rt = c["normalize"].normalize_regions(m)
                self.profiled[job.name] = (m, c["taint"].default_suite(m),
                                           rt)

    def run_pass(self, stage: str, clock: HostClock) -> float:
        """Reference seconds of one pass of stage over every job."""
        total = 0.0
        for job in self.jobs:
            if stage == "decode":
                # a decode allocates enough to trigger a full collection
                # at random; start each one from a collected heap
                gc.collect()
            t0 = time.perf_counter()
            getattr(self, stage)(job)
            total += clock.span(t0, time.perf_counter())
        return total


class _Warm:
    """A clock for the untimed warm-up pass."""

    @staticmethod
    def span(t0: float, t1: float) -> float:
        return t1 - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="root of checkout A (the baseline)")
    ap.add_argument("b", help="root of checkout B")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--stage", choices=STAGES, default="harden")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--job", action="append", metavar="NAME",
                    help="time only this job of the workload; may repeat")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    jobs = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.job:
        unknown = sorted(set(args.job) - {j.name for j in jobs})
        if unknown:
            ap.error("no job %s in workload %s"
                     % (", ".join(unknown), args.workload))
        jobs = [j for j in jobs if j.name in args.job]
    with tempfile.TemporaryDirectory(prefix="pair_ab.") as work:
        sides = [Side(args.a, "ctlin_a", jobs, work),
                 Side(args.b, "ctlin_b", jobs, work)]
        for side in sides:
            side.prepare(args.stage)
            side.run_pass(args.stage, _Warm())     # warm caches, untimed
        clock = HostClock()
        times = ([], [])
        clock.start()
        try:
            for r in range(args.rounds):
                for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                    times[k].append(sides[k].run_pass(args.stage, clock))
        finally:
            clock.stop()
        hardens = args.stage != "taint_profile"
        differing = [j.name for j in jobs if hardens
                     and sides[0].emitted(j) != sides[1].emitted(j)]
    verdict_diffs = [j.name for j in jobs if args.stage == "verify"
              and sides[0].verdicts[j.name] != sides[1].verdicts[j.name]]

    ratios = [b / a for a, b in zip(*times)]
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 \
        else (ratios[0],) * 3
    result = {
        "workload": args.workload, "seed": args.seed, "stage": args.stage,
        "rounds": args.rounds, "jobs": [j.name for j in jobs],
        "a_median_s": statistics.median(times[0]),
        "b_median_s": statistics.median(times[1]),
        "ratio_median": med, "ratio_q1": q1, "ratio_q3": q3,
        "b_faster_rounds": sum(r < 1 for r in ratios),
    }
    if hardens:
        result["same_bytes"] = not differing
        result["differing_jobs"] = differing
    if args.stage == "verify":
        result["same_verdicts"] = not verdict_diffs
        result["differing_verdicts"] = verdict_diffs
    print("%s %s seed %d, %d rounds: A %.4f s, B %.4f s a pass (median)"
          % (args.workload, args.stage, args.seed, args.rounds,
             result["a_median_s"], result["b_median_s"]))
    print("B/A ratio %.3f (quartiles %.3f-%.3f), B faster in %d of %d"
          % (med, q1, q3, result["b_faster_rounds"], args.rounds))
    if hardens:
        print("A and B emitted the same bytes for %d of %d jobs%s"
              % (len(jobs) - len(differing), len(jobs),
                 "; they differ for " + ", ".join(differing)
                 if differing else ""))
    if args.stage == "verify":
        print("A and B gave the same verdicts for %d of %d jobs%s"
              % (len(jobs) - len(verdict_diffs), len(jobs),
                 "; they differ for " + ", ".join(verdict_diffs)
                 if verdict_diffs else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
