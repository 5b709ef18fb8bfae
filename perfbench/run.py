"""Benchmark `ctlin harden` + `ctlin verify` end to end, one workload a run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one client, jobs back to
back (a closed loop): each job is an in-process `ctlin.cli.main(["harden",
...])` followed by `ctlin.cli.main(["verify", ...])`.  Jobs cycle until
`--seconds` have passed and every job ran at least once.  Times are in
reference seconds (see hostclock.py), which discount the host's speed
changes.  A harden shorter than HARDEN_MIN_S is run again before the
job's verify, for more samples.  A stage's time is the median of its
runs; a pass (every job once) is the sum over jobs.  Set-up is timed SETUP_REPS times before the
loop and SETUP_REPS times after it, and its median is reported.

After timing, an untimed correctness phase checks every job: harden and
verify ran cleanly, verify printed only PASS, the original and hardened
programs return the known answer of the job's Python model, the verifier
flags the un-hardened original as leaking, and repeated hardenings emit
the same bytes.  A failure the README records as a known defect of ctlin
lowers `pass_frac` but does not mark the run incorrect.

`--trace 0` prints the end-to-end metrics.  `--trace 1` splits
`--seconds` between an untraced loop and whole passes with spans around
ctlin's public functions, and prints per-layer metrics (per pass) and
the tracing overhead.  Lines before the last are for
people; the last line is the JSON result.  Spans and the emitted-bytes
fingerprint are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402

SETUP_REPS = 10
HARDEN_MIN_S = 0.1
RATIO_INPUTS = 32
NEGATIVE_PAIRS = 8


class BenchError(Exception):
    pass


def _import_ctlin(root: str):
    """Import ctlin afresh from the checkout's src/ and return its cli."""
    for name in [n for n in sys.modules if n == "ctlin" or
                 n.startswith("ctlin.")]:
        del sys.modules[name]
    import importlib
    cli = importlib.import_module("ctlin.cli")
    src = os.path.join(root, "src", "ctlin")
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        raise BenchError("ctlin imported from %s, not %s"
                         % (cli.__file__, src))
    return cli


def setup(root: str, workload: str, seed: int, work: str):
    """Import ctlin, build the workload's programs, write them out."""
    cli = _import_ctlin(root)
    jobs = workloads.WORKLOADS[workload](root, seed)
    os.makedirs(work, exist_ok=True)
    for job in jobs:
        with open(os.path.join(work, job.name + ".ir"), "w") as f:
            f.write(job.text)
    return cli, jobs


# ---------------------------------------------------------------------------
# timed loop

class Runner:
    """Runs jobs through the CLI and keeps what they produced."""

    def __init__(self, cli, jobs, work, clock, harden_min_s=HARDEN_MIN_S):
        self.cli = cli
        self.clock = clock
        self.harden_min_s = harden_min_s
        self.jobs = jobs
        self.work = work
        self.times = {j.name: {"harden": [], "verify": []} for j in jobs}
        self.emitted = {j.name: [] for j in jobs}
        self.verdicts = {j.name: [] for j in jobs}
        self.errors = {j.name: [] for j in jobs}

    def path(self, job, suffix):
        return os.path.join(self.work, job.name + suffix)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as e:  # a crash is a failed job, not a dead run
            return None, out.getvalue(), "%s: %s" % (type(e).__name__, e)
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()
        return rc, out.getvalue(), err.getvalue()

    def harden(self, job):
        hard = self.path(job, ".hard.ir")
        rc, _, err = self._cli(["harden", self.path(job, ".ir"), "--emit",
                                hard, "--report", self.path(job, ".json")]
                               + job.harden_flags)
        if rc != 0:
            self.errors[job.name].append("harden exit %s: %s"
                                         % (rc, err.strip()))
            return None
        with open(hard) as f:
            return f.read()

    def run_job(self, job):
        # a short harden runs again until harden_min_s have passed, so
        # that its median rests on enough samples; the job verifies once
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            text = self.harden(job)
            t1 = time.perf_counter()
            self.times[job.name]["harden"].append(self.clock.span(t0, t1))
            if text is None:
                break
            self.emitted[job.name].append(text)
            if t1 - start >= self.harden_min_s:
                break
        rc, out, err = None, "", "not run"
        if text is not None:
            rc, out, err = self._cli(["verify", self.path(job, ".ir"),
                                      self.path(job, ".hard.ir")]
                                     + job.verify_flags)
        t2 = time.perf_counter()
        self.times[job.name]["verify"].append(self.clock.span(t1, t2))
        self.verdicts[job.name].append((rc, out))
        if rc not in (0, 4):
            self.errors[job.name].append("verify exit %s: %s"
                                         % (rc, err.strip()))

    def loop(self, seconds, whole_passes=False):
        """Closed loop over the jobs until `seconds` pass and every job
        ran once (or, with whole_passes, until a pass ends); returns the
        number of jobs run."""
        deadline = time.perf_counter() + seconds
        n = len(self.jobs)
        k = 0
        while k < n or time.perf_counter() < deadline \
                or (whole_passes and k % n):
            self.run_job(self.jobs[k % n])
            k += 1
        return k

    def pass_time(self, stage):
        """One pass of a stage: each job's median run, summed over jobs."""
        return sum(statistics.median(self.times[j.name][stage])
                   for j in self.jobs)


# ---------------------------------------------------------------------------
# correctness phase

def _count_instrs(m) -> int:
    return sum(1 for _ in m.instructions())


class Checks:
    """Untimed checks; each job contributes one outcome per check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []       # (job, check, detail, known)

    def record(self, job, check, ok, detail="", known=False):
        self.attempted += 1
        if not ok:
            self.failures.append((job.name, check, detail, known))

    @property
    def unexpected(self):
        return [f for f in self.failures if not f[3]]


def check_jobs(runner: Runner):
    """Correctness outcomes and the deterministic ratio metrics."""
    from ctlin.interp import ExecInput, interpret
    from ctlin.ir import parse_module
    from ctlin.verify import check_obliviousness, check_pc_security

    checks = Checks()
    tot = {"instrs_orig": 0, "instrs_hard": 0, "steps_orig": 0,
           "steps_hard": 0, "events_orig": 0, "events_hard": 0}
    for job in runner.jobs:
        errs = runner.errors[job.name]
        checks.record(job, "ran", not errs, "; ".join(errs[:1]))

        fails = [ln for rc, out in runner.verdicts[job.name]
                 for ln in out.splitlines() if ln.startswith("FAIL")]
        clean = all(rc == 0 for rc, _ in runner.verdicts[job.name])
        # a recorded defect is known only while it is the sole failure
        # and has the recorded witness form
        known = bool(fails) and job.known_failure is not None and all(
            re.match(job.known_failure, ln) for ln in fails)
        checks.record(job, "verdict", clean and not fails,
                      fails[0] if fails else "no verdict", known)

        texts = runner.emitted[job.name]
        if len(texts) == 1:
            again = runner.harden(job)
            if again is not None:
                texts.append(again)
        checks.record(job, "same_bytes",
                      len(texts) >= 2 and len(set(texts)) == 1,
                      "%d hardenings, %d distinct" % (len(texts),
                                                      len(set(texts))))

        orig = parse_module(job.text)
        neg = [check_pc_security(orig, pairs=NEGATIVE_PAIRS),
               check_obliviousness(orig, pairs=NEGATIVE_PAIRS)]
        checks.record(job, "negative_control",
                      not all(v.passed for v in neg),
                      "un-hardened original passes pc-security and "
                      "obliviousness")

        if not texts:
            checks.record(job, "known_answer", False, "no hardened module")
            continue
        hard = parse_module(texts[0])
        lam = hard.harden.lam if hard.harden else 64
        tot["instrs_orig"] += _count_instrs(orig)
        tot["instrs_hard"] += _count_instrs(hard)
        wrong = None
        for pub, sec in workloads.fixed_inputs(job, RATIO_INPUTS):
            want = job.model(pub, sec)
            for side, m in (("orig", orig), ("hard", hard)):
                tr = interpret(m, ExecInput(list(pub), list(sec)), lam=lam)
                tot["steps_" + side] += len(tr.instrs)
                tot["events_" + side] += len(tr.events)
                if wrong is None and (tr.abort is not None
                                      or tr.output != want):
                    wrong = "%s returned %s (abort %s), model %s on " \
                            "public %s secrets %s" % (
                                side, tr.output, tr.abort, want, pub, sec)
        checks.record(job, "known_answer", wrong is None, wrong or "")
    return checks, tot


def fingerprint(runner: Runner) -> str:
    h = hashlib.sha256()
    for job in runner.jobs:
        texts = runner.emitted[job.name]
        h.update(job.name.encode() + b"\0")
        h.update((texts[0] if texts else "").encode() + b"\0")
        h.update(runner.verdicts[job.name][0][1].encode() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ctlin", "cli.py")):
        raise BenchError("no src/ctlin under %s; run from a checkout root"
                         % root)
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, ".perfbench",
                           "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(out_dir, ignore_errors=True)
    work = os.path.join(out_dir, "jobs")

    clock = HostClock()
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        out = setup(root, args.workload, args.seed, work)
        setup_times.append(clock.span(t0, time.perf_counter()))
        return out

    clock.start()
    try:
        for _ in range(SETUP_REPS):
            cli, jobs = timed_setup()
        seconds = args.seconds / 2 if args.trace else args.seconds
        runner = Runner(cli, jobs, work, clock)
        runs, traced = _timed(runner, seconds, args.trace, out_dir)
        for _ in range(SETUP_REPS):
            cli = timed_setup()[0]
    finally:
        clock.stop()
    # ctlin imports some names lazily, so the old and the new import must
    # not mix: the correctness phase runs on the import just made
    runner.cli = cli
    harden_s = runner.pass_time("harden")
    verify_s = runner.pass_time("verify")
    wall_s = harden_s + verify_s
    peak_rss_mb = runner.peak_rss_mb

    t0 = time.perf_counter()
    checks, tot = check_jobs(runner)
    check_s = time.perf_counter() - t0
    fp = fingerprint(runner)
    all_failed = len(checks.failures)
    e2e = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(wall_s, "s"),
        "harden_s": _metric(harden_s, "s"),
        "verify_s": _metric(verify_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "code_growth": _metric(tot["instrs_hard"] / tot["instrs_orig"],
                               "ratio"),
        "hardened_steps_ratio": _metric(tot["steps_hard"]
                                        / tot["steps_orig"], "ratio"),
        "hardened_windows_ratio": _metric(tot["events_hard"]
                                          / tot["events_orig"], "ratio"),
        "pass_frac": _metric(1 - all_failed / checks.attempted, "ratio"),
    }
    print("workload %s seed %d: %d jobs, %d timed job runs"
          % (args.workload, args.seed, len(jobs), runs))
    for name, m in e2e.items():
        print("  %-24s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-24s %14.6f ratio (%d of %d checks; %d known defect)"
          % ("fail_frac", all_failed / checks.attempted, all_failed,
             checks.attempted, all_failed - len(checks.unexpected)))
    for name, check, detail, known in checks.failures:
        print("  %s %s/%s: %s" % ("known-defect" if known else "FAILED",
                                  name, check, detail))
    print("  emitted-bytes fingerprint %s" % fp)

    metrics = e2e
    if traced is not None:
        tr, tpasses, twall, tpass = traced
        metrics = tracing.per_layer(tr, tpasses, twall, tpass - wall_s,
                                    tot["instrs_orig"], tot["instrs_hard"])
        metrics = {k: _metric(v, _unit(k)) for k, v in metrics.items()}
        print("per layer, per pass (%d traced passes):" % tpasses)
        for name, m in metrics.items():
            print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"fingerprint": fp, "runs": runs,
                   "check_s": check_s, "job_times": runner.times,
                   "failures": checks.failures, "metrics": metrics,
                   "setup_times": setup_times}, f, indent=1)
    return {"correct": not checks.unexpected, "attempted": checks.attempted,
            "failed": len(checks.unexpected), "metrics": metrics}


def _timed(runner: Runner, seconds: float, trace: int, out_dir: str):
    """The timed loop, then with `trace` the traced passes."""
    runs = runner.loop(seconds)
    runner.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        return runs, None
    tr = tracing.Tracer()
    tr.install(tracing.ctlin_modules())
    # one harden per job, so that per-pass layer times count each once
    traced_runner = Runner(runner.cli, runner.jobs, runner.work,
                           runner.clock, harden_min_s=0)
    try:
        t0 = time.perf_counter()
        tpasses = traced_runner.loop(seconds, True) // len(runner.jobs)
        twall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    tr.write(os.path.join(out_dir, "spans.json"))
    return runs, (tr, tpasses, twall, traced_runner.pass_time("harden")
                  + traced_runner.pass_time("verify"))


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.startswith("share.") or name.endswith(("_frac", "_per_step")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
