"""Branchless selection, region linearization, division sanitizing."""

import hashlib
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hardened, load, scale_programs
from ctlin import cfl
from ctlin.cfl import ct_select, encode_taken
from ctlin.interp import Code, DecoyDecoder, ExecInput, Machine, interpret
from ctlin.ir import (I1, Block, Const, parse_module, print_module,
                      reg_types, validate)
from ctlin.normalize import normalize_regions
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.verify import verify_module

M64 = (1 << 64) - 1

SCHEMES = (1, 2, 3, 4, 5)


class TestSelect:
    def test_schemes_agree_with_ternary(self):
        rng = random.Random(99)
        for _ in range(10_000):
            t = rng.randrange(2)
            a = rng.randrange(1 << 64)
            b = rng.randrange(1 << 64)
            want = a if t else b
            for s in SCHEMES:
                assert ct_select(s, encode_taken(s, t), a, b) == want, s

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1), st.integers(0, M64), st.integers(0, M64))
    def test_schemes_agree_property(self, t, a, b):
        want = a if t else b
        for s in SCHEMES:
            assert ct_select(s, encode_taken(s, t), a, b) == want

    def test_encode_taken(self):
        for s in (1, 2, 3, 5):
            assert encode_taken(s, 1) == 1
            assert encode_taken(s, 0) == 0
        assert encode_taken(4, 1) == M64
        assert encode_taken(4, 0) == 0
        # only the low bit matters
        assert encode_taken(4, 2) == 0
        assert encode_taken(5, 3) == 1


def trace_classes(m, secrets, pub=()):
    sigs = set()
    for s in secrets:
        tr = interpret(m, ExecInput(list(pub), [s]))
        assert tr.abort is None, tr.abort
        sigs.add(tuple(tr.instrs))
    return len(sigs)


class TestBranchLinearization:
    def test_nested_single_class(self):
        hm, rep = hardened("nested_branches")
        assert rep["branches_linearized"] == 2
        assert trace_classes(hm, range(8)) == 1

    def test_outputs_preserved(self):
        hm, _ = hardened("nested_branches")
        ref = load("nested_branches")
        for s in range(8):
            assert interpret(hm, ExecInput([], [s])).output == \
                interpret(ref, ExecInput([], [s])).output

    def test_branch_region_containing_loop(self):
        # placeholder resolution order: the loop's merge runs before the
        # surrounding branch claims its own parent-taken edge
        src = ("func @main(%s: secret i64) -> i64 {\n"
               "entry:\n  %b = and i64 %s, 1\n  %c = icmp eq %b, 1\n"
               "  condbr %c, pre, join\n"
               "pre:\n  br loop\n"
               "loop:\n  %i = phi i64 [pre: 0, loop: %i1]\n"
               "  %a = phi i64 [pre: 0, loop: %a1]\n"
               "  %a1 = add i64 %a, %i\n  %i1 = add i64 %i, 1\n"
               "  %d = icmp ge %i1, 4\n  condbr %d, post, loop\n"
               "post:\n  br join\n"
               "join:\n  %r = phi i64 [entry: 7, post: %a1]\n"
               "  ret %r\n}\n")
        hm, rep = harden_module(parse_module(src), PipelineConfig())
        assert validate(hm) == []
        assert rep["branches_linearized"] == 1
        assert rep["loops_linearized"] == 1
        for s in range(4):
            want = 6 if s & 1 else 7
            assert interpret(hm, ExecInput([], [s])).output == want
        assert trace_classes(hm, range(4)) == 1

    def test_outer_fold_reaches_inner_select(self):
        # the inner merge's join select reads %p, the then arm's
        # single-entry phi, which the outer merge folds into %s later
        src = ("func @main(%s: secret i64) -> i64 {\n"
               "entry:\n  %b = and i64 %s, 1\n  %c = icmp eq %b, 1\n"
               "  condbr %c, t, j\n"
               "t:\n  %p = phi i64 [entry: %s]\n  %b2 = and i64 %s, 2\n"
               "  %c2 = icmp eq %b2, 2\n  condbr %c2, a, k\n"
               "a:\n  %w = add i64 %p, 1\n  br k\n"
               "k:\n  %q = phi i64 [t: %p, a: %w]\n  br j\n"
               "j:\n  %r = phi i64 [entry: 0, k: %q]\n  ret %r\n}\n")
        hm, rep = harden_module(parse_module(src), PipelineConfig())
        assert validate(hm) == []
        assert rep["branches_linearized"] == 2
        for s in range(8):
            want = 0 if not s & 1 else s + 1 if s & 2 else s
            assert interpret(hm, ExecInput([], [s])).output == want
        assert trace_classes(hm, range(8)) == 1


class TestLoopLinearization:
    def test_padded_to_trained_bound(self):
        hm, rep = hardened("jit_trip")
        assert rep["loops_linearized"] == 1
        add = next(i for i in hm.funcs["main"].instructions()
                   if i.op == "add" and i.name == "acc1")
        counts = set()
        for s in range(8):
            tr = interpret(hm, ExecInput([], [s]))
            counts.add(tr.instrs.count(add.iid))
            assert tr.output == sum(range((s & 7) + 1))
        # every secret runs the trained maximum of eight trips
        assert counts == {8}

    def test_montgomery_pair_single_class(self):
        hm, rep = hardened("exp_loop_pair")
        assert rep["loops_linearized"] == 2
        ref = load("exp_loop_pair")
        for base in (2, 5):
            assert trace_classes(hm, range(8), pub=(base,)) == 1
            for s in range(8):
                assert interpret(hm, ExecInput([base], [s])).output == \
                    interpret(ref, ExecInput([base], [s])).output


def trip_loop(exit_on_true: bool, guarded: bool) -> str:
    """@main running a loop of (s & 7) + 1 trips, whose latch exits on a
    true or on a false condition; guarded, inside a secret branch taken
    only where bit 3 of s is clear."""
    pred, labels = ("ge", "done, loop") if exit_on_true \
        else ("lt", "loop, done")
    into = "pre" if guarded else "entry"
    lines = ["func @main(%s: secret i64) -> i64 {", "entry:"]
    if guarded:
        lines += ["  %b = and i64 %s, 8", "  %g = icmp eq %b, 0",
                  "  condbr %g, pre, join", "pre:"]
    lines += ["  %n = and i64 %s, 7", "  %t = add i64 %n, 1", "  br loop",
              "loop:", "  %%i = phi i64 [%s: 0, loop: %%i1]" % into,
              "  %%a = phi i64 [%s: 0, loop: %%a1]" % into,
              "  %a1 = add i64 %a, %i", "  %i1 = add i64 %i, 1",
              "  %%c = icmp %s %%i1, %%t" % pred,
              "  condbr %c, " + labels, "done:"]
    if guarded:
        lines += ["  br join", "join:",
                  "  %r = phi i64 [entry: 0, done: %a1]", "  ret %r"]
    else:
        lines += ["  ret %a1"]
    return "\n".join(lines + ["}", ""])


class TestTripArithmetic:
    """A linearized loop with bound k runs max(k, T) iterations for a
    run of T trips, and k for a decoy run, and leaves that count in its
    bound cell."""

    CELL = cfl.BOUND_CELL + "main.loop"

    def _runs(self, src, secrets):
        """(k, s) -> (latch condbr runs, final cell, output) for k in
        1..6, with the hardened module's cell started at k."""
        hm, rep = harden_module(parse_module(src), PipelineConfig())
        assert rep["loops_linearized"] == 1
        latch = hm.funcs["main"].blocks["loop"].terminator
        code = Code(hm)
        addr = code.global_addr[self.CELL]
        out = {}
        for k in range(1, 7):
            for s in secrets:
                mach = Machine(hm, code=code)
                mach.mem.write(addr, 8, k)
                tr = mach.run(ExecInput([], [s]))
                assert tr.abort is None, tr.abort
                out[k, s] = (tr.instrs.count(latch.iid),
                             mach.mem.read(addr, 8), tr.output)
        return out

    @pytest.mark.parametrize("exit_on_true", [True, False])
    def test_runs_and_leaves_max_of_bound_and_trips(self, exit_on_true):
        src = trip_loop(exit_on_true, guarded=False)
        ref = parse_module(src)
        runs = self._runs(src, range(8))
        for (k, s), (n, cell, output) in runs.items():
            T = s + 1
            assert (n, cell) == (max(k, T), max(k, T)), (k, T)
            assert output == interpret(ref, ExecInput([], [s])).output

    @pytest.mark.parametrize("exit_on_true", [True, False])
    def test_decoy_runs_and_leaves_bound(self, exit_on_true):
        src = trip_loop(exit_on_true, guarded=True)
        ref = parse_module(src)
        runs = self._runs(src, range(8, 16))
        for (k, s), (n, cell, output) in runs.items():
            assert (n, cell) == (k, k), (k, s)
            assert output == interpret(ref, ExecInput([], [s])).output == 0

    def test_latch_keeps_no_bound_growth(self):
        texts = {(e, g): print_module(harden_module(parse_module(
            trip_loop(e, g)), PipelineConfig())[0])
            for e in (True, False) for g in (True, False)}
        corpus = [print_module(hardened(n)[0])
                  for n in ("covering_loop", "exp_loop_pair", "jit_trip")]
        for text in list(texts.values()) + corpus:
            for gone in ("cfl.kc.", "cfl.kn.", "cfl.g1.", "cfl.gz."):
                assert gone not in text
        # a latch that continues on true is read as written
        for g in (True, False):
            assert "cfl.ncnd." in texts[True, g]
            assert "exitc" not in texts[False, g]
            assert "cfl.ncnd." not in texts[False, g]


# A public loop that continues on true, then a secret branch
PUBLIC_LOOP = """\
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %n = and i64 %p, 7
  br loop
loop:
  %i = phi i64 [entry: 0, loop: %i1]
  %i1 = add i64 %i, 1
  %c = icmp le %i1, %n
  condbr %c, loop, done
done:
  %b = and i64 %s, 1
  %g = icmp eq %b, 0
  condbr %g, one, join
one:
  %v = add i64 %i1, 5
  br join
join:
  %r = phi i64 [done: %i1, one: %v]
  ret %r
}
"""

# A secret-bounded loop whose latch exits on true, on a negation the
# source writes itself
NEGATED_EXIT = """\
func @main(%s: secret i64) -> i64 {
entry:
  %t = and i64 %s, 7
  br loop
loop:
  %i = phi i64 [entry: 0, loop: %i1]
  %a = phi i64 [entry: 0, loop: %a1]
  %a1 = add i64 %a, %i
  %i1 = add i64 %i, 1
  %c = icmp le %i1, %t
  %x = xor i1 %c, 1
  condbr %x, done, loop
done:
  ret %a1
}
"""


class TestLatchAsWritten:
    """Hardening keeps the polarity a latch is written in; only a loop
    it pads gets its latch rewritten."""

    def test_public_latch_is_kept_as_written(self):
        src = parse_module(PUBLIC_LOOP)
        hm, rep = harden_module(parse_module(PUBLIC_LOOP), PipelineConfig())
        assert rep["loops_linearized"] == 0
        assert rep["branches_linearized"] == 1
        ops = [(i.op, i.name) for i in hm.funcs["main"].blocks["loop"].instrs]
        assert ops == [(i.op, i.name)
                       for i in src.funcs["main"].blocks["loop"].instrs]
        latch = hm.funcs["main"].blocks["loop"].terminator
        assert latch.labels == ["loop", "done"]
        assert [a.name for a in latch.args] == ["c"]
        verdicts = verify_module(src, hm, pairs=8)
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]

    def test_written_negation_on_a_padded_latch(self):
        hm, rep = harden_module(parse_module(NEGATED_EXIT), PipelineConfig())
        assert rep["loops_linearized"] == 1
        latch = hm.funcs["main"].blocks["loop"].terminator
        assert latch.labels == ["done", "loop"]
        assert "x" in {i.name for i in hm.funcs["main"].instructions()}
        verdicts = verify_module(parse_module(NEGATED_EXIT), hm, pairs=8)
        assert len(verdicts) == 4
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


DIV_SRC = """\
func @main(%a: i64, %k: secret i64) -> i64 {
entry:
  %d = and i64 %k, 7
  %d1 = add i64 %d, 1
  %q = div i64 %a, %d1
  %r = rem i64 %a, %d1
  %o = add i64 %q, %r
  ret %o
}
"""


class TestDivRem:
    def test_rewritten_and_exact(self):
        hm, rep = harden_module(parse_module(DIV_SRC), PipelineConfig())
        assert rep["div_rewritten"] == 2
        ops = {i.op for i in hm.funcs["main"].instructions()}
        assert "div" not in ops and "rem" not in ops
        for a in (0, 1, 97, (1 << 64) - 5):
            for k in range(8):
                d = (k & 7) + 1
                assert interpret(hm, ExecInput([a], [k])).output == \
                    ((a // d) + (a % d)) & M64

    def test_trace_divisor_independent(self):
        hm, _ = harden_module(parse_module(DIV_SRC), PipelineConfig())
        assert trace_classes(hm, range(8), pub=(1234,)) == 1

    def test_emitted_routines_unchanged(self):
        # pins the division routines, their ids and every later cfl.* name
        # at three widths and two select schemes
        h = hashlib.sha256()
        for ty in ("i8", "i32", "i64"):
            for scheme in (1, 5):
                hm, _ = harden_module(parse_module(DIV_SRC.replace("i64", ty)),
                                      PipelineConfig(scheme=scheme))
                h.update(print_module(hm).encode())
        assert h.hexdigest() == \
            "d80da810e04f681ca8a249a7f9fa672c56534bde33e4428ecd7106793f56811c"

    def test_one_bit_operands(self):
        src = """\
func @main(%a: i1, %k: secret i1) -> i1 {
entry:
  %d = or i1 %k, 1
  %q = div i1 %k, %d
  %r = rem i1 %a, %d
  %o = add i1 %q, %r
  ret %o
}
"""
        hm, rep = harden_module(parse_module(src), PipelineConfig())
        assert rep["div_rewritten"] == 2
        assert {"cfl.div.i1", "cfl.rem.i1"} <= set(hm.funcs)
        assert all(v.passed for v in verify_module(parse_module(src), hm))
        ref = parse_module(src)
        for a in (0, 1):
            for k in (0, 1):
                inp = ExecInput([a], [k])
                assert interpret(hm, inp).output == interpret(ref, inp).output


class TestTakenMap:
    def test_shadow_tracking_metadata(self):
        hm, _ = hardened("nested_branches")
        assert "main" in hm.takenmap
        fn = hm.funcs["main"]
        by_iid = {i.iid: i for i in fn.instructions()}
        tm = hm.takenmap["main"]
        # arm loads run as decoys, so each is tied to a taken register;
        # the join store runs on every path and needs none
        arm_loads = [i.iid for i in fn.instructions()
                     if i.op == "call" and i.callee == "ct_load_nat"]
        assert arm_loads and set(arm_loads) <= set(tm)
        # typed as validate types them: a root then-guard is the
        # branch's own icmp, whose Instr.ty is None
        types = reg_types(hm, fn)
        for guarded, tk in tm.items():
            assert guarded in by_iid
            assert types[by_iid[tk].name] == I1

    def test_decoy_checks_clean(self):
        hm, _ = hardened("nested_branches")
        code = Code(hm, DecoyDecoder())
        for s in range(8):
            mach = Machine(hm, code=code)
            tr = mach.run(ExecInput([], [s]))
            assert tr.decoy_violations == []
            assert tr.abort is None


# @bump reads the taken cell once linearized; main calls it from code
# no branch covers, where the cell may still hold a stale zero
SHARED_CALLEE = """\
global @acc: [1 x i64]
func @bump(%x: i64) -> i64 {
entry:
  %v = load i64, @acc
  %w = add i64 %v, %x
  store i64 %w, @acc
  ret %w
}
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %a = call @bump(%p)
  %b = and i64 %s, 1
  %c = icmp eq %b, 1
  condbr %c, t, join
t:
  %r = call @bump(3)
  br join
join:
  %q = phi i64 [entry: %a, t: %r]
  ret %q
}
"""


# @work is threaded and calls @bump before, inside and after a secret
# branch of its own; @main calls @work the same way
THREADED_CALLS = """\
global @acc: [1 x i64]
func @bump(%x: i64) -> i64 {
entry:
  %v = load i64, @acc
  %w = add i64 %v, %x
  store i64 %w, @acc
  ret %w
}
func @work(%p: i64, %s: i64) -> i64 {
entry:
  %a = call @bump(%p)
  %b = and i64 %s, 1
  %c = icmp eq %b, 1
  condbr %c, t, join
t:
  %r = call @bump(3)
  br join
join:
  %q = phi i64 [entry: %a, t: %r]
  %z = call @bump(%q)
  ret %z
}
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %a = call @work(%p, %s)
  %c = icmp gt %s, 7
  condbr %c, t, join
t:
  %r = call @work(%a, %s)
  br join
join:
  %q = phi i64 [entry: %a, t: %r]
  %z = call @work(%q, 1)
  ret %z
}
"""


class TestUntouchedCaller:
    def test_call_from_untouched_code_sets_taken(self):
        cfg = PipelineConfig(cloning=False)
        hm, rep = harden_module(parse_module(SHARED_CALLEE), cfg)
        assert rep["cloned"] == 0 and rep["branches_linearized"] == 1
        instrs = list(hm.funcs["main"].entry.instrs)
        k = next(k for k, i in enumerate(instrs)
                 if i.op == "call" and i.callee == "bump")
        assert print_module(hm).count("store i1 1, @cfl.taken") == 1
        before = instrs[k - 1]
        assert (before.op, before.args[1].name) == ("store", "cfl.taken")
        verdicts = verify_module(parse_module(SHARED_CALLEE), hm, pairs=8)
        assert len(verdicts) == 4
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


def test_linearized_roundtrip_stays_linear():
    hm, _ = hardened("table_lookup")
    m2 = parse_module(print_module(hm))
    assert trace_classes(m2, (0, 1, 4095, 4096, 65535)) == 1


def nested_chain(n: int) -> str:
    """@main with n secret branches, each in the true arm of the last."""
    lines = ["func @main(%s: secret i64) -> i64 {", "entry:", "  br e0"]
    for i in range(n):
        arm = "e%d" % (i + 1) if i + 1 < n else "inner"
        lines += ["e%d:" % i, "  %%c%d = icmp gt %%s, %d" % (i, i),
                  "  condbr %%c%d, %s, j%d" % (i, arm, i)]
    lines += ["inner:", "  br j%d" % (n - 1)]
    for i in range(n - 1, 0, -1):
        lines += ["j%d:" % i, "  br j%d" % (i - 1)]
    return "\n".join(lines + ["j0:", "  ret 0", "}", ""])


def sequential_diamonds(n: int) -> str:
    """@main with n secret branches one after another."""
    lines = ["func @main(%s: secret i64) -> i64 {", "entry:", "  br e0"]
    for i in range(n):
        lines += ["e%d:" % i, "  %%c%d = icmp gt %%s, %d" % (i, i),
                  "  condbr %%c%d, t%d, e%d" % (i, i, i + 1),
                  "t%d:" % i, "  br e%d" % (i + 1)]
    return "\n".join(lines + ["e%d:" % n, "  ret 0", "}", ""])


def wide_module(n: int) -> str:
    """@main calling n functions that each hold one secret branch."""
    out = []
    for i in range(n):
        out += ["func @f%d(%%s: i64) -> i64 {" % i, "entry:",
                "  %%c = icmp gt %%s, %d" % i, "  condbr %c, t, j", "t:",
                "  br j", "j:", "  %r = phi i64 [entry: 0, t: 1]",
                "  ret %r", "}"]
    out += ["func @main(%s: secret i64) -> i64 {", "entry:"]
    out += ["  %%r%d = call @f%d(%%s)" % (i, i) for i in range(n)]
    return "\n".join(out + ["  ret 0", "}", ""])


def _stack_depth() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def test_linearize_walks_deep_nests_without_recursion(monkeypatch):
    # the region tree is n deep; linearize gets half that many frames
    n = 120
    real = cfl.linearize

    def linearize(*args, **kw):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + n // 2)
        try:
            return real(*args, **kw)
        finally:
            sys.setrecursionlimit(old)
    monkeypatch.setattr(cfl, "linearize", linearize)
    _, rep = harden_module(parse_module(nested_chain(n)))
    assert rep["branches_linearized"] == n


def test_region_tree_of_a_deep_nest_builds_in_bounded_time():
    # nesting by block ownership is linear in the summed region sizes;
    # comparing each region with every larger one took over 20 s on a
    # 2-vCPU machine
    m = parse_module(nested_chain(1000))
    t0 = time.perf_counter()
    rt = normalize_regions(m)
    assert time.perf_counter() - t0 < 8.0
    r, depth = rt.roots["main"], 0
    while r.children:
        (r,) = r.children
        depth += 1
    assert depth == 1000


# the shapes where a parent's arm walk steps over a merged region, from
# its entry to its tail, and must go on where the whole region would
MERGE_SHAPES = {
    "shared_callee": SHARED_CALLEE,
    "threaded_calls": THREADED_CALLS,
    # a merged loop whose exit is its parent branch's join
    "loop_exit_join": """\
func @main(%s: secret i64) -> i64 {
entry:
  %m = and i64 %s, 7
  %c = icmp gt %s, 5
  condbr %c, pre, join
pre:
  br h
h:
  %i = phi i64 [pre: 0, l: %i1]
  %x = mul i64 %i, 3
  br l
l:
  %i1 = add i64 %i, 1
  %d = icmp lt %i1, %m
  condbr %d, h, join
join:
  %r = phi i64 [entry: 0, l: %x]
  ret %r
}
""",
    # a then arm that is exactly a nested branch, with the same join
    "arm_is_branch": """\
func @main(%s: secret i64) -> i64 {
entry:
  %c = icmp gt %s, 5
  condbr %c, inner, join
inner:
  %d = icmp gt %s, 9
  condbr %d, a, join
a:
  %x = add i64 %s, 1
  br join
join:
  %r = phi i64 [entry: 0, inner: 1, a: %x]
  ret %r
}
""",
    # two sibling branches in sequence in one arm
    "sibling_branches": """\
func @main(%s: secret i64) -> i64 {
entry:
  %c = icmp gt %s, 5
  condbr %c, t0, join
t0:
  %d = icmp gt %s, 9
  condbr %d, t1, j1
t1:
  %x = add i64 %s, 1
  br j1
j1:
  %y = phi i64 [t0: 1, t1: %x]
  %e = icmp lt %s, 20
  condbr %e, t2, j2
t2:
  %w = mul i64 %y, 5
  br j2
j2:
  %z = phi i64 [j1: %y, t2: %w]
  br join
join:
  %r = phi i64 [entry: 0, j2: %z]
  ret %r
}
""",
    # a single-block loop, its header its latch, inside an arm
    "one_block_loop": """\
func @main(%s: secret i64) -> i64 {
entry:
  %m = and i64 %s, 7
  %c = icmp gt %s, 5
  condbr %c, pre, join
pre:
  %a = add i64 %s, 2
  br h
h:
  %i = phi i64 [pre: 0, h: %i1]
  %acc = phi i64 [pre: %a, h: %acc1]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %d = icmp lt %i1, %m
  condbr %d, h, post
post:
  %b = mul i64 %acc1, 2
  br join
join:
  %r = phi i64 [entry: 0, post: %b]
  ret %r
}
""",
    # a branch whose entry is the header of the loop around it, inside
    # an arm: the walk must step from h to the loop's latch, not to the
    # branch's tail
    "branch_at_header": """\
func @main(%s: secret i64) -> i64 {
entry:
  %m = and i64 %s, 7
  %c = icmp gt %s, 5
  condbr %c, pre, join
pre:
  br h
h:
  %i = phi i64 [pre: 0, l: %i1]
  %acc = phi i64 [pre: 0, l: %acc1]
  %b = and i64 %s, %i
  %e = icmp eq %b, 0
  condbr %e, t, l
t:
  %x = add i64 %acc, %i
  br l
l:
  %acc1 = phi i64 [h: %acc, t: %x]
  %i1 = add i64 %i, 1
  %d = icmp lt %i1, %m
  condbr %d, h, exit
exit:
  br join
join:
  %r = phi i64 [entry: 0, exit: %acc1]
  ret %r
}
""",
}


# a loop in an arm whose body block b has a phi with one incoming value
LOOP_BODY_PHI = """\
func @main(%s: secret i64) -> i64 {
entry:
  %c = icmp gt %s, 5
  condbr %c, pre, join
pre:
  %m = and i64 %s, 7
  br h
h:
  %i = phi i64 [pre: 0, l: %i1]
  br b
b:
  %x = phi i64 [h: %i]
  br l
l:
  %i1 = add i64 %x, 1
  %d = icmp lt %i1, %m
  condbr %d, h, exit
exit:
  br join
join:
  %r = phi i64 [entry: 0, exit: %i1]
  ret %r
}
"""


def test_arm_walk_leaves_a_merged_loop_body_alone():
    # the parent's walk steps from h to the latch l, so b's phi stays
    # until the loop straightens into h, which then reads its one value
    hm, rep = harden_module(parse_module(LOOP_BODY_PHI))
    assert (rep["branches_linearized"], rep["loops_linearized"]) == (1, 1)
    fn = hm.funcs["main"]
    assert list(fn.blocks) == ["entry", "h", "exit"]
    assert fn.blocks["h"].terminator.labels == ["exit", "h"]
    (inc,) = [i for i in fn.blocks["h"].instrs if i.name == "i1"]
    assert [str(a) for a in inc.args] == ["%i", "1"]
    verdicts = verify_module(parse_module(LOOP_BODY_PHI), hm, pairs=8)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


# sha256 of the hardened bytes, recorded when every merge guarded every
# block of its arms again; secret_loops re-recorded when linearized loops
# began exiting at max(bound, trips) and writing the count back; all but
# secret_loops re-recorded when linearized regions became straight-line
# code, each block whose only predecessor ends in br to it folded into
# that predecessor, and each taken became one instruction, none for an
# empty else arm
MERGED_BYTES = {
    "nested_chain.1": "fede2f5397ecbdbe",
    "nested_chain.2": "19ab03e34afc826a",
    "nested_chain.3": "3a7a5e4e4b077b3a",
    "nested_chain.7": "93f5ef0a3c2bf7e0",
    "nested_chain.20": "b6864f6e0d29c92c",
    "nested_chain.50": "0a984bfa902a84bf",
    "nested_chain.200": "31073b14c19403ab",
    "scale7.call_tree": "951ac0829707f175",
    "scale7.guarded_bump": "544fb7fb1fcba093",
    "scale7.nested_branches": "98acd4bfd6fb06a1",
    "scale7.secret_loops": "34b7d6032a682932",
    "scale11.call_tree": "7f48fb6d52aeb5d4",
    "scale11.guarded_bump": "544fb7fb1fcba093",
    "scale11.nested_branches": "750881b0591655e4",
    "scale11.secret_loops": "31cfd11068b415c1",
    # calls into threaded functions, stores of the taken cell and cfl.t0
    "shared_callee.nocl": "2f5354fb59067875",
    "threaded_calls.cl": "b67dbfdc018d500e",
    "threaded_calls.nocl": "b5e560f6c4743a4f",
    # recorded before a parent's walk stepped over merged regions
    "loop_exit_join.cl": "96a6e3e5b6576452",
    "arm_is_branch.cl": "7ad03cff3c09287d",
    "sibling_branches.cl": "8d7ad20e86705706",
    "one_block_loop.cl": "11f6fce6eff4a3fc",
    "branch_at_header.cl": "ab4c5cdf4da8838f",
}


class TestGuardOnce:
    """Each merge guards the blocks its arm walks visit: the arm's own,
    and of each merged child only its entry and its tail, so a nest of
    n branches guards O(n) blocks."""

    def test_deep_nest_guards_each_block_once(self, monkeypatch):
        n = 800
        calls = [0]
        real = cfl._guard_block

        def guard(*a):
            calls[0] += 1
            return real(*a)

        monkeypatch.setattr(cfl, "_guard_block", guard)
        _, rep = harden_module(parse_module(nested_chain(n)))
        assert rep["branches_linearized"] == n
        assert calls[0] <= 4 * n

    @pytest.mark.parametrize("name", list(MERGED_BYTES))
    def test_bytes_as_recorded(self, name):
        kind, arg = name.split(".")
        cfg = PipelineConfig()
        if kind == "nested_chain":
            text = nested_chain(int(arg))
        elif kind.startswith("scale"):
            text = scale_programs(int(kind[5:]))[arg]
        else:
            text = MERGE_SHAPES[kind]
            cfg.cloning = arg == "cl"
        hard = print_module(harden_module(parse_module(text), cfg)[0])
        assert hashlib.sha256(hard.encode()).hexdigest()[:16] \
            == MERGED_BYTES[name]


class TestLinearScaling:
    """Harden's work grows linearly in the size of its input, counted in
    deterministic steps rather than seconds: blocks the arm walks
    return and `Block.phis` calls, at n and 2n."""

    @staticmethod
    def _work(monkeypatch, text: str) -> tuple:
        walked, phis = [0], [0]
        real_walk, real_phis = cfl._arm_walk, Block.phis

        def walk(*a):
            blocks = real_walk(*a)
            walked[0] += len(blocks)
            return blocks

        def count_phis(self):
            phis[0] += 1
            return real_phis(self)

        with monkeypatch.context() as mp:
            mp.setattr(cfl, "_arm_walk", walk)
            mp.setattr(Block, "phis", count_phis)
            harden_module(parse_module(text))
        return walked[0], phis[0]

    @pytest.mark.parametrize("shape,n", [(nested_chain, 60),
                                         (sequential_diamonds, 60),
                                         (wide_module, 40)])
    def test_work_grows_linearly(self, monkeypatch, shape, n):
        small = self._work(monkeypatch, shape(n))
        large = self._work(monkeypatch, shape(2 * n))
        assert all(small)
        for what, a, b in zip(("arm walk blocks", "Block.phis calls"),
                              small, large):
            assert b <= 2.3 * a, "%s: %d at n=%d, %d at 2n" % (what, a,
                                                               n, b)


def layout_faults(hm) -> list:
    """Where hardened hm is not straight-line code: a block of a
    linearized function, one the takenmap names, whose only predecessor
    ends in br to it, a taken predicate computed as and i1 %x, 1, or a
    guard select reading another register than the taken its takenmap
    entry names."""
    faults = []
    for name, tm in hm.takenmap.items():
        fn = hm.funcs[name]
        names = {i.iid: i.name for i in fn.instructions()}
        preds = {}
        for b in fn.blocks.values():
            for lbl in b.terminator.labels:
                preds.setdefault(lbl, {})[b.label] = b
        for lbl, ps in preds.items():
            p = next(iter(ps.values()))
            if len(ps) == 1 and p.terminator.op == "br" and p.label != lbl:
                faults.append("@%s: %s only follows br in %s"
                              % (name, lbl, p.label))
        takens = set(tm.values())
        for i in fn.instructions():
            if (i.iid in takens or (i.name or "").startswith("cfl.t")) \
                    and i.op == "and" and Const(1) in i.args:
                faults.append("@%s: taken %%%s is an and with 1"
                              % (name, i.name))
            if (i.name or "").startswith("cfl.p") and i.iid in tm \
                    and str(i.args[0]) != "%" + names[tm[i.iid]]:
                faults.append("@%s: guard %%%s reads %s, its entry names "
                              "%%%s" % (name, i.name, i.args[0],
                                        names[tm[i.iid]]))
    return faults


@pytest.mark.parametrize("lam", (1, 4, 64))
def test_corpus_layout_is_straight_line(corpus_names, lam):
    for name in corpus_names:
        for scheme in SCHEMES:
            hm, _ = harden_module(load(name), PipelineConfig(lam=lam,
                                                             scheme=scheme))
            assert layout_faults(hm) == [], (name, scheme)
            verdicts = verify_module(load(name), hm, pairs=8)
            assert all(v.passed for v in verdicts), \
                (name, scheme, [v.line() for v in verdicts])


# a root branch after a secret loop that defines its condition: the
# branch reads the loop's frozen live-out of %c whichever region merges
# first, and the two merge in the order of their entry labels
COND_FROM_LOOP = """\
global @out: [4 x i64]
func @main(%s: secret i64) -> i64 {
entry:
  %m = and i64 %s, 3
  br LOOP
LOOP:
  %i = phi i64 [entry: 0, LOOP: %i1]
  %i1 = add i64 %i, 1
  %b = and i64 %i1, %s
  %c = icmp ne %b, 0
  %d = icmp le %i1, %m
  condbr %d, LOOP, br
br:
  condbr %c, t, j
t:
  %x = and i64 %s, 3
  %g = gep i64 @out, %x
  store i64 %i1, %g
  br j
j:
  %o = load i64, @out
  ret %o
}
"""


@pytest.mark.parametrize("loop", ["a", "z"], ids=["loop-first",
                                                  "branch-first"])
def test_root_branch_takes_the_live_out_of_its_condition(loop):
    src = COND_FROM_LOOP.replace("LOOP", loop)
    hm, _ = harden_module(parse_module(src))
    assert layout_faults(hm) == []
    fn = hm.funcs["main"]
    names = {i.iid: i.name for i in fn.instructions()}
    assert set(names[t] for t in hm.takenmap["main"].values()) \
        == {"cfl.tl." + loop, "cfl.o.c"}
    verdicts = verify_module(parse_module(src), hm, pairs=8)
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


OPS = ("add", "xor", "mul", "sub")


def _body(draw, depth: int) -> list:
    """Statements over the accumulator, nesting at most three deep."""
    kinds = ["step", "load", "store"] + (["if", "loop"] if depth < 3 else [])
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "step":
            out.append((kind, draw(st.sampled_from(OPS)),
                        draw(st.sampled_from(["%s", "%p", "3"]))))
        elif kind == "if":
            # a condition on %p is a public guard of what it holds
            out.append((kind, draw(st.sampled_from("sp")),
                        draw(st.integers(0, 3)), _body(draw, depth + 1),
                        _body(draw, depth + 1) if draw(st.booleans())
                        else []))
        elif kind == "loop":
            out.append((kind, draw(st.sampled_from("sp")),
                        draw(st.integers(0, 4)), _body(draw, depth + 1)))
        else:
            out.append((kind,))
    return out


class _Emitter:
    """Renders a statement tree as one function's blocks."""

    def __init__(self):
        self.blocks, self.n = [], 0

    def fresh(self, stem: str) -> str:
        self.n += 1
        return "%s%d" % (stem, self.n)

    def open(self, label: str):
        self.blocks.append((label, []))

    @property
    def cur(self) -> str:
        return self.blocks[-1][0]

    def line(self, text: str):
        self.blocks[-1][1].append("  " + text)

    def body(self, stmts, acc: str) -> str:
        for st_ in stmts:
            acc = getattr(self, "_" + st_[0])(acc, *st_[1:])
        return acc

    def _step(self, acc, op, operand):
        a = self.fresh("%a")
        self.line("%s = %s i64 %s, %s" % (a, op, acc, operand))
        return a

    def _load(self, acc):
        x, g, v, a = (self.fresh(s) for s in ("%x", "%g", "%v", "%a"))
        self.line("%s = and i64 %s, 7" % (x, acc))
        self.line("%s = gep i64 @tab, %s" % (g, x))
        self.line("%s = load i64, %s" % (v, g))
        self.line("%s = add i64 %s, %s" % (a, acc, v))
        return a

    def _store(self, acc):
        x, g = self.fresh("%x"), self.fresh("%g")
        self.line("%s = and i64 %%s, 3" % x)
        self.line("%s = gep i64 @out, %s" % (g, x))
        self.line("store i64 %s, %s" % (acc, g))
        return acc

    def _if(self, acc, src, bit, then, other):
        b, c = self.fresh("%b"), self.fresh("%c")
        t, e, j = self.fresh("t"), self.fresh("e"), self.fresh("j")
        self.line("%s = and i64 %%%s, %d" % (b, src, 1 << bit))
        self.line("%s = icmp ne %s, 0" % (c, b))
        self.line("condbr %s, %s, %s" % (c, t, e if other else j))
        incoming = [] if other else [(self.cur, acc)]
        for label, stmts in ((t, then), (e, other)):
            if stmts:
                self.open(label)
                out = self.body(stmts, acc)
                incoming.append((self.cur, out))
                self.line("br " + j)
        self.open(j)
        a = self.fresh("%a")
        self.line("%s = phi i64 [%s]" % (a, ", ".join(
            "%s: %s" % lv for lv in incoming)))
        return a

    def _loop(self, acc, src, shift, stmts):
        # a do-while of ((src >> shift) & 3) + 1 trips
        n, m = self.fresh("%n"), self.fresh("%m")
        h, x = self.fresh("h"), self.fresh("x")
        i, i1, d, a = (self.fresh(s) for s in ("%i", "%i", "%d", "%a"))
        self.line("%s = lshr i64 %%%s, %d" % (n, src, shift))
        self.line("%s = and i64 %s, 3" % (m, n))
        pre = self.cur
        self.line("br " + h)
        self.open(h)
        at = len(self.blocks) - 1
        out = self.body(stmts, a)
        self.line("%s = add i64 %s, 1" % (i1, i))
        self.line("%s = icmp le %s, %s" % (d, i1, m))
        self.line("condbr %s, %s, %s" % (d, h, x))
        self.blocks[at][1][:0] = [
            "  %s = phi i64 [%s: 0, %s: %s]" % (i, pre, self.cur, i1),
            "  %s = phi i64 [%s: %s, %s: %s]" % (a, pre, acc, self.cur, out)]
        self.open(x)
        return out


@st.composite
def structured_programs(draw) -> str:
    """@main(%p, secret %s) folding an accumulator through steps, loads
    at an accumulator-derived index, stores at a secret index, and
    branches and counted loops on bits of %s or %p, nested three deep."""
    e = _Emitter()
    e.open("entry")
    acc = e.body(_body(draw, 0), "%p")
    e.line("%o = load i64, @out")
    e.line("%r = add i64 " + acc + ", %o")
    e.line("ret %r")
    tab = b"".join((k * 37 + 5).to_bytes(8, "little") for k in range(8))
    lines = ["global @tab: [8 x i64] = " + tab.hex(),
             "global @out: [4 x i64]",
             "func @main(%p: i64, %s: secret i64) -> i64 {"]
    for label, body in e.blocks:
        lines += [label + ":"] + body
    return "\n".join(lines + ["}", ""])


STRUCTURED_INPUTS = ((0, 0), (1, 5), (6, 255), (3, 65535), (12345, 40000))


# tier-1 runs a fixed 40 examples
@settings(max_examples=40, deadline=None)
@given(structured_programs())
def test_structured_programs_harden_straight_and_verify(src):
    hm, _ = harden_module(parse_module(src), PipelineConfig())
    assert layout_faults(hm) == []
    ref = parse_module(src)
    for p, s in STRUCTURED_INPUTS:
        want = interpret(ref, ExecInput([p], [s]))
        got = interpret(hm, ExecInput([p], [s]))
        assert want.abort is None and got.abort is None
        assert got.output == want.output, (p, s)
    verdicts = verify_module(parse_module(src), hm, pairs=2)
    assert len(verdicts) == 4
    assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
