"""Tests of the benchmark itself: seeded generation, known answers, tracing.

    python3 -m pytest perfbench
"""

import os
import re
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostclock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ctlin.interp import ExecInput, interpret  # noqa: E402
from ctlin.ir import parse_module  # noqa: E402

GENERATED = ("tables", "scale")


def _jobs(name, seed):
    return workloads.WORKLOADS[name](ROOT, seed)


@pytest.mark.parametrize("name", GENERATED)
def test_generator_is_deterministic_per_seed(name):
    a, b = _jobs(name, 3), _jobs(name, 3)
    assert [j.text for j in a] == [j.text for j in b]
    inputs = workloads.fixed_inputs(a[0], 16)
    for ja, jb in zip(a, b):
        assert [ja.model(p, s) for p, s in inputs] == \
            [jb.model(p, s) for p, s in inputs]
    assert [j.text for j in _jobs(name, 4)] != [j.text for j in a]


@pytest.mark.parametrize("name", GENERATED)
def test_seed_keeps_program_shape(name):
    """Seeds change constants and data, not sizes, so costs stay alike."""
    def shape(jobs):
        return [(j.name, len(j.text.splitlines()),
                 sum(1 for _ in parse_module(j.text).instructions()))
                for j in jobs]
    assert shape(_jobs(name, 1)) == shape(_jobs(name, 2))


def test_known_failure_needs_the_recorded_witness():
    leak = workloads.NATURAL_STRIDING_LEAK
    assert re.match(leak, "FAIL obliviousness@64: trace differs at index "
                          "32 between secrets [0] and [65535] (public [])")
    assert not re.match(leak, "FAIL obliviousness@64: bound cells kept "
                              "growing")
    assert not re.match(leak, "FAIL pc-security: trace differs at index 3 ")


def test_host_clock_discounts_slow_phases():
    c = hostclock.HostClock()
    c.at, c.speed, c.cost = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 1.0], \
        [0.01] * 4
    # probes at 1.0 and 2.0 ran inside: their cost is taken out, and the
    # span ran at half the reference speed
    assert c.span(0.9, 2.1) == pytest.approx((1.2 - 0.02) * 0.5)
    # no probe inside or beside: the last one before the span counts
    assert c.span(3.5, 3.6) == pytest.approx(0.1)
    with pytest.raises(RuntimeError):
        hostclock.HostClock().span(0.0, 1.0)


def test_host_clock_samples_while_running():
    c = hostclock.HostClock()
    before = signal.getsignal(signal.SIGALRM)
    c.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            hostclock.probe_work()
        t1 = time.perf_counter()
    finally:
        c.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(c.at) >= 3
    assert c.span(t0, t1) > 0


@pytest.mark.parametrize("name,seed", [("corpus", 0), ("tables", 1),
                                       ("tables", 2), ("scale", 1),
                                       ("scale", 2)])
def test_models_agree_with_interpreter(name, seed):
    for job in _jobs(name, seed):
        m = parse_module(job.text)
        for pub, sec in workloads.fixed_inputs(job, 12):
            tr = interpret(m, ExecInput(list(pub), list(sec)))
            assert tr.abort is None, (job.name, pub, sec, tr.abort)
            assert tr.output == job.model(pub, sec), (job.name, pub, sec)


def test_tracer_uninstall_restores_ctlin():
    import ctlin.cli  # noqa: F401  (loads every ctlin module)
    mods = tracing.ctlin_modules()
    before = {(n, k): v for n, m in mods.items()
              for k, v in vars(m).items() if callable(v)}
    run = mods["interp"].Machine.run
    tr = tracing.Tracer()
    tr.install(mods)
    assert mods["pipeline"].harden_module is not \
        before[("pipeline", "harden_module")]
    tr.uninstall()
    after = {(n, k): v for n, m in mods.items()
             for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert mods["interp"].Machine.run is run


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr._open("outer")
    tr._open("inner")
    tr._close()
    tr._close()
    outer, inner = tr.spans
    assert inner[3] == 0 and outer[3] == -1
    assert outer[4] == pytest.approx((outer[2] - outer[1])
                                     - (inner[2] - inner[1]))
