"""The decoy and taint variants of the engine run a module exactly as the
plain machine does: they add flags beside the values and change no
instruction, step, output or abort.

The golden file pins the plain and decoy traces separately and no
instruction trace of the taint variant; this pins each flag variant to
the plain machine on the verify grid, on the module it runs in practice:
the decoy variant on the hardened module (lambda 64), the taint variant
on the normalized original as `pipeline` profiles it.  Beside the
corpus it runs a few programs written for engine paths the corpus never
takes.
"""

import hashlib

import pytest

from conftest import corpus_src
from ctlin import pipeline
from ctlin.interp import (DEFAULT_BUDGET, Code, DecoyDecoder, ExecInput,
                          Machine)
from ctlin.ir import parse_module
from ctlin.normalize import normalize_regions, unify_exits
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.taint import (Context, TaintDecoder, TaintMachine, default_suite,
                         taint_profile)
from ctlin.verify import public_batch, secret_batch, verify_module

NAMES = ("covering_loop", "exp_loop_pair", "fn_table_dispatch", "jit_trip",
         "nested_branches", "store_sweep", "table_lookup", "two_context")

# programs beside the corpus, for engine paths it never takes
EXTRA = {
    # the secret comes from a `secret` instruction, not a parameter
    "secret_read": """\
func @main(%n: i64) -> i64 {
entry:
  %s = secret i64 0
  %c = icmp lt %s, 100
  condbr %c, small, big
small:
  %x = add i64 %s, %n
  br join
big:
  br join
join:
  %r = phi i64 [big: 0, small: %x]
  ret %r
}
""",
    # a gep with three register operands
    "grid_index": """\
global @m: [4 x [4 x i64]] = %s
func @main(%%i: i64, %%s: secret i64) -> i64 {
entry:
  %%base = gep i64 @m, 0
  %%a = and i64 %%i, 3
  %%b = and i64 %%s, 3
  %%p = gep [4 x i64] %%base, %%a, %%b
  %%v = load i64, %%p
  ret %%v
}
""" % bytes(range(128)).hex(),
    # three live instances of one interposed heap site, freed from the
    # middle, then the end, then the front, beside a plain heap chunk
    # that the managed free releases too
    "heap_list": """\
global @slots: [3 x addr]

func @main(%s: secret i64) -> i64 {
entry:
  br loop
loop:
  %k = phi i64 [entry: 0, loop: %k1]
  %h = heapalloc [4 x i64]
  %q = gep addr @slots, %k
  store addr %h, %q
  %hk = gep i64 %h, 3
  store i64 %k, %hk
  %k1 = add i64 %k, 1
  %d = icmp eq %k1, 3
  condbr %d, done, loop
done:
  %i = and i64 %s, 3
  %q1 = gep addr @slots, 1
  %h1 = load addr, %q1
  %p = gep i64 %h1, %i
  %v = load i64, %p
  heapfree %h1
  %q2 = gep addr @slots, 2
  %h2 = load addr, %q2
  heapfree %h2
  %q0 = gep addr @slots, 0
  %h0 = load addr, %q0
  heapfree %h0
  %o = heapalloc i64
  store i64 5, %o
  %w = load i64, %o
  heapfree %o
  %r = add i64 %v, %w
  ret %r
}
""",
    # direct recursion, an icall, a callee with more registers than its
    # caller, and a secret loop inside that callee
    "call_paths": """\
global @ops: [2 x addr] = %s

func @sum(%%n: i64) -> i64 {
entry:
  %%z = icmp eq %%n, 0
  condbr %%z, done, rec
rec:
  %%m = sub i64 %%n, 1
  %%r = call @sum(%%m)
  %%t = add i64 %%r, %%n
  br done
done:
  %%v = phi i64 [entry: 0, rec: %%t]
  ret %%v
}

func @mix(%%s: i64, %%x: i64) -> i64 {
entry:
  %%k = and i64 %%s, 7
  %%x3 = mul i64 %%x, 3
  br loop
loop:
  %%i = phi i64 [entry: 0, loop: %%i1]
  %%acc = phi i64 [entry: %%x3, loop: %%acc2]
  %%a1 = mul i64 %%acc, 5
  %%a2 = xor i64 %%a1, %%i
  %%acc2 = and i64 %%a2, 65535
  %%i1 = add i64 %%i, 1
  %%d = icmp gt %%i1, %%k
  condbr %%d, out, loop
out:
  %%o1 = shl i64 %%acc2, 2
  %%o2 = lshr i64 %%o1, 1
  %%o3 = sub i64 %%o2, %%i1
  %%o4 = or i64 %%o3, 1
  ret %%o4
}

func @main(%%p: i64, %%s: secret i64) -> i64 {
entry:
  %%q = gep addr @ops, 1
  store addr @mix, %%q
  %%n = and i64 %%p, 7
  %%r1 = call @sum(%%n)
  %%fp = load addr, %%q
  %%r2 = icall %%fp(%%s, %%r1)
  %%r = add i64 %%r1, %%r2
  ret %%r
}
""" % bytes(16).hex(),
}
PROGRAMS = NAMES + tuple(EXTRA)

# a secret loop whose body calls the loop's own function: each frame's
# trip count and latch taint have to outlive the nested frames of the
# same function.  The first trip's bound is secret at the top and
# public below, so only the top frame's loop exit taints what leaves
# it, and the caller's branch on the result.  The hardened function
# recurses on every decoy path, so this runs as written only.
LOOP_RECURSION = """\
func @walk(%d: i64, %s: i64) -> i64 {
entry:
  %k = and i64 %s, 7
  %m = add i64 %d, 4
  br loop
loop:
  %i = phi i64 [entry: 0, next: %i1]
  %acc = phi i64 [entry: %d, next: %acc2]
  %first = icmp eq %i, 0
  %lim = select %first, %k, %m
  %deep = icmp gt %d, 0
  %late = icmp eq %i, 1
  %go = and i1 %deep, %late
  condbr %go, down, next
down:
  %d1 = sub i64 %d, 1
  %r = call @walk(%d1, %d)
  br next
next:
  %acc1 = mul i64 %acc, 3
  %acc2 = add i64 %acc1, %i
  %i1 = add i64 %i, 1
  %stop = icmp ge %i1, %lim
  condbr %stop, out, loop
out:
  %big = icmp gt %acc2, 100
  condbr %big, hi, lo
hi:
  %h = and i64 %acc2, 255
  br join
lo:
  br join
join:
  %o = phi i64 [hi: %h, lo: %acc2]
  ret %o
}

func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %d = and i64 %p, 3
  %r = call @walk(%d, %s)
  %c = icmp gt %r, 50
  condbr %c, a, b
a:
  %x = add i64 %r, 1
  br j
b:
  br j
j:
  %y = phi i64 [a: %x, b: %r]
  ret %y
}
"""


def _runs(m, machine) -> list:
    """(instrs, steps, output, abort) of each run of the verify grid,
    on a fresh machine() per run."""
    out = []
    for pub in public_batch(m):
        for sv in secret_batch(m, pairs=8):
            mach = machine()
            tr = mach.run(ExecInput(list(pub), list(sv)))
            out.append((tr.instrs, mach.steps, tr.output, tr.abort))
    assert any(r[3] is None for r in out), "every run aborted"
    return out


def _plain(m) -> list:
    code = Code(m)
    return _runs(m, lambda: Machine(m, code=code))


@pytest.fixture(scope="module")
def profiled_and_hardened():
    """name -> (plain runs, taint runs) of the module as profiled, and
    the hardened module at lambda 64."""
    out, runs = {}, []
    real = pipeline.taint_profile

    def profile(m, suite, rt, entry="main", budget=DEFAULT_BUDGET):
        # runs before the later stages rewrite m in place
        code = Code(m, TaintDecoder(rt))
        contexts = [Context(None, None, entry)]
        runs.append((_plain(m), _runs(m, lambda: TaintMachine(
            m, contexts, budget, code))))
        return real(m, suite, rt, entry, budget)

    pipeline.taint_profile = profile
    try:
        for name in PROGRAMS:
            src = EXTRA.get(name) or corpus_src(name)
            hm, _ = harden_module(parse_module(src), PipelineConfig(lam=64))
            assert len(runs) == 1
            out[name] = runs.pop(), hm
    finally:
        pipeline.taint_profile = real
    return out


def test_names_cover_the_corpus(corpus_names):
    assert sorted(NAMES) == corpus_names


@pytest.mark.parametrize("name", PROGRAMS)
def test_taint_variant_runs_as_plain(name, profiled_and_hardened):
    (plain, taint), _ = profiled_and_hardened[name]
    assert taint == plain


@pytest.mark.parametrize("name", PROGRAMS)
def test_decoy_variant_runs_as_plain(name, profiled_and_hardened):
    _, hm = profiled_and_hardened[name]
    code = Code(hm, DecoyDecoder())
    assert _runs(hm, lambda: Machine(hm, code=code)) == _plain(hm)


# call_paths as recorded with the dict-framed engine: a digest of the
# plain runs of the verify grid on the program as written (normalized,
# its icall kept), as profiled (icall promoted) and hardened at lambda
# 64 without cloning, and its taint report on the default suite;
# "hardened" re-recorded when linearized loops began exiting at
# max(bound, trips), which shortens @mix's padded loop
CALL_PATHS = {
    "written": "3169abfa9721c72f",
    "profiled": "77e878cbae8f02a0",
    "hardened": "6b637315a83569ad",
}
CALL_PATHS_REPORT = {
    "branches": [], "loops": [("mix", "loop")], "reads": [], "writes": [],
    "addr_tainted": [], "divrem": [],
    "loop_bounds": [(("mix", "loop"), 8)],
}


def _digest(runs) -> str:
    return hashlib.sha256(repr(runs).encode()).hexdigest()[:16]


def _report(rep) -> dict:
    return {f: sorted(getattr(rep, f)) for f in (
        "branches", "loops", "reads", "writes", "addr_tainted", "divrem")} \
        | {"loop_bounds": sorted(rep.loop_bounds.items())}


def test_call_paths_as_recorded(profiled_and_hardened):
    m = parse_module(EXTRA["call_paths"])
    unify_exits(m)
    rt = normalize_regions(m)
    plain = _plain(m)
    decoy, taint = Code(m, DecoyDecoder()), Code(m, TaintDecoder(rt))
    contexts = [Context(None, None, "main")]
    assert _runs(m, lambda: Machine(m, code=decoy)) == plain
    assert _runs(m, lambda: TaintMachine(m, contexts, DEFAULT_BUDGET,
                                         taint)) == plain
    (profiled, _), _ = profiled_and_hardened["call_paths"]
    hm, _ = harden_module(parse_module(EXTRA["call_paths"]),
                          PipelineConfig(lam=64, cloning=False))
    hcode = Code(hm, DecoyDecoder())
    for pub in public_batch(hm):
        for sv in secret_batch(hm, pairs=8):
            tr = Machine(hm, code=hcode).run(ExecInput(list(pub), list(sv)))
            assert tr.decoy_violations == []
    assert {"written": _digest(plain), "profiled": _digest(profiled),
            "hardened": _digest(_plain(hm))} == CALL_PATHS
    rep = taint_profile(m, default_suite(m), rt)
    assert _report(rep) == CALL_PATHS_REPORT


# LOOP_RECURSION as recorded with per-frame dicts of loop trips and
# latch taints: digests of its verify-grid runs under each variant,
# the taint runs with the flag of the value `ret` hands back, and its
# taint report on the default suite
LOOP_RECURSION_RUNS = {
    "plain": "de304e8e0977225b", "decoy": "de304e8e0977225b",
    "taint": "70ce40f548d1b1bd",
}
LOOP_RECURSION_REPORT = {
    "branches": [20, 29], "loops": [("walk", "loop")], "reads": [],
    "writes": [], "addr_tainted": [], "divrem": [],
    "loop_bounds": [(("walk", "loop"), 7)],
}


def test_loop_state_survives_recursion():
    m = parse_module(LOOP_RECURSION)
    unify_exits(m)
    rt = normalize_regions(m)
    decoy, taint = Code(m, DecoyDecoder()), Code(m, TaintDecoder(rt))
    contexts = [Context(None, None, "main")]
    flags = []

    def profiled():
        mach = TaintMachine(m, contexts, DEFAULT_BUDGET, taint)
        run = mach.run
        mach.run = lambda inp: (run(inp), flags.append(mach.ret_flag))[0]
        return mach

    runs = {"plain": _plain(m),
            "decoy": _runs(m, lambda: Machine(m, code=decoy)),
            "taint": _runs(m, profiled)}
    assert runs["decoy"] == runs["plain"] == runs["taint"]
    runs["taint"] = list(zip(runs["taint"], flags))
    assert {k: _digest(v) for k, v in runs.items()} == LOOP_RECURSION_RUNS
    rep = taint_profile(m, default_suite(m), rt)
    assert _report(rep) == LOOP_RECURSION_REPORT


def test_call_paths_hardens_with_cloning(profiled_and_hardened):
    # @sum recurses outside the sensitive functions and their callers,
    # so cloning leaves it one shared copy and splits only @mix
    _, hm = profiled_and_hardened["call_paths"]
    assert sorted(hm.funcs) == ["main", "mix", "mix.c1", "sum"]
    verdicts = verify_module(parse_module(EXTRA["call_paths"]), hm, pairs=8)
    assert [v.line().split(":")[0] for v in verdicts] == [
        "PASS pc-security", "PASS obliviousness@64", "PASS equivalence",
        "PASS decoy-invariants"]
