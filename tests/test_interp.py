"""Reference interpreter semantics against independent oracles."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from conftest import RECURSIVE, hardened, load
from ctlin.cfl import ct_select, encode_taken
from ctlin.interp import (DEFAULT_BUDGET, MAX_CALL_DEPTH, Code,
                          DecoyDecoder, ExecInput, Machine, SuiteError,
                          Trace, final_state, format_suite, interpret,
                          parse_suite)
from ctlin.ir import parse_module
from ctlin.normalize import normalize_regions, unify_exits
from ctlin.taint import (Context, ProfileError, TaintDecoder, TaintMachine,
                         taint_profile)
from ctlin.verify import verify_module

M64 = (1 << 64) - 1


def run_expr(body: str, args=(), secrets=(), sig="(%a: i64, %b: i64)",
             ret="i64"):
    m = parse_module("func @main%s -> %s {\nentry:\n%s}\n" % (sig, ret, body))
    return interpret(m, ExecInput(list(args), list(secrets)))


PY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}


class TestArithmetic:
    def test_binops_mod_64(self):
        rng = random.Random(11)
        for op, f in PY_OPS.items():
            for _ in range(50):
                a, b = rng.randrange(1 << 64), rng.randrange(1 << 64)
                tr = run_expr("  %%r = %s i64 %%a, %%b\n  ret %%r\n" % op,
                              args=[a, b])
                assert tr.output == f(a, b) & M64, op

    def test_narrow_width_wraps(self):
        tr = run_expr("  %r = add i8 %a, %b\n  ret %r\n",
                      args=[200, 100], sig="(%a: i8, %b: i8)", ret="i8")
        assert tr.output == (200 + 100) & 0xFF

    def test_shifts(self):
        tr = run_expr("  %r = shl i64 %a, %b\n  ret %r\n", args=[3, 62])
        assert tr.output == (3 << 62) & M64
        tr = run_expr("  %r = lshr i64 %a, %b\n  ret %r\n",
                      args=[1 << 63, 60])
        assert tr.output == 8

    def test_div_rem_unsigned(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = rng.randrange(1 << 64), rng.randrange(1, 1 << 32)
            assert run_expr("  %r = div i64 %a, %b\n  ret %r\n",
                            args=[a, b]).output == a // b
            assert run_expr("  %r = rem i64 %a, %b\n  ret %r\n",
                            args=[a, b]).output == a % b

    def test_div_by_zero_aborts(self):
        tr = run_expr("  %r = div i64 %a, %b\n  ret %r\n", args=[1, 0])
        assert tr.abort == "div_zero"

    def test_icmp_signed(self):
        # i8 0x80 is -128: smaller than 1 under the signed order
        tr = run_expr("  %c = icmp lt %a, %b\n  %r = and i64 %c, 1\n"
                      "  ret %r\n", args=[0x80, 1], sig="(%a: i8, %b: i8)")
        assert tr.output == 1

    def test_select(self):
        for c, want in ((1, 7), (0, 9)):
            tr = run_expr("  %t = icmp eq %a, 1\n"
                          "  %r = select %t, 7, 9\n  ret %r\n", args=[c, 0])
            assert tr.output == want


class TestMemory:
    def test_global_round_trip(self):
        m = parse_module(
            "global @g: [4 x i64] = 00\n"
            "func @main(%i: i64, %v: i64) -> i64 {\n"
            "entry:\n  %p = gep i64 @g, %i\n  store i64 %v, %p\n"
            "  %r = load i64, %p\n  ret %r\n}\n")
        assert interpret(m, ExecInput([2, 12345], [])).output == 12345

    def test_oob_aborts(self):
        m = parse_module(
            "global @g: [4 x i64] = 00\n"
            "func @main(%i: i64) -> i64 {\n"
            "entry:\n  %p = gep i64 @g, %i\n  %r = load i64, %p\n"
            "  ret %r\n}\n")
        assert interpret(m, ExecInput([3], [])).abort is None
        assert interpret(m, ExecInput([4], [])).abort == "oob"

    def test_heap_lifecycle(self):
        m = parse_module(
            "func @main() -> i64 {\n"
            "entry:\n  %p = heapalloc [2 x i64]\n  %q = gep i64 %p, 1\n"
            "  store i64 77, %q\n  %r = load i64, %q\n  heapfree %p\n"
            "  ret %r\n}\n")
        tr = interpret(m, ExecInput([], []))
        assert tr.abort is None and tr.output == 77

    def test_use_after_free(self):
        m = parse_module(
            "func @main() -> i64 {\n"
            "entry:\n  %p = heapalloc [2 x i64]\n  heapfree %p\n"
            "  %r = load i64, %p\n  ret %r\n}\n")
        assert interpret(m, ExecInput([], [])).abort == "use_after_free"

    def test_double_free(self):
        m = parse_module(
            "func @main() -> i64 {\n"
            "entry:\n  %p = heapalloc [2 x i64]\n  heapfree %p\n"
            "  heapfree %p\n  ret 0\n}\n")
        assert interpret(m, ExecInput([], [])).abort == "double_free"

    def test_alloca_is_per_frame(self):
        m = parse_module(
            "func @bump() -> i64 {\n"
            "entry:\n  %s = alloca i64\n  %v = load i64, %s\n"
            "  %v1 = add i64 %v, 1\n  store i64 %v1, %s\n  ret %v1\n}\n"
            "func @main() -> i64 {\n"
            "entry:\n  %a = call @bump()\n  %b = call @bump()\n"
            "  %r = add i64 %a, %b\n  ret %r\n}\n")
        # fresh zeroed slot each call: 1 + 1, not 1 + 2
        assert interpret(m, ExecInput([], [])).output == 2


class TestControl:
    def test_secret_trip_loop(self):
        m = load("jit_trip")
        for s in range(8):
            assert interpret(m, ExecInput([], [s])).output == \
                sum(range((s & 7) + 1))

    def test_budget_abort(self):
        m = parse_module(
            "func @main() -> i64 {\nentry:\n  br spin\n"
            "spin:\n  br spin\n}\n")
        assert interpret(m, ExecInput([], []), budget=1000).abort == "budget"

    def test_budget_abort_steps_exactly_the_budget(self):
        m = parse_module(
            "func @main() -> i64 {\nentry:\n  br spin\n"
            "spin:\n  %x = add i64 1, 2\n  %y = add i64 %x, 3\n"
            "  br spin\n}\n")
        for budget in (1000, 1001, 1002):
            mach = Machine(m, budget=budget)
            tr = mach.run(ExecInput([], []))
            assert tr.abort == "budget"
            # the step that crosses the budget is counted, not traced
            assert len(tr.instrs) == budget and mach.steps == budget + 1
            assert tr.instrs[:4] == [0, 1, 2, 3]

    def test_abort_mid_block_ends_trace_at_the_fault(self):
        m = parse_module(
            "func @main(%a: i64, %b: i64) -> i64 {\nentry:\n"
            "  %x = add i64 %a, 1\n  %q = div i64 %x, %b\n"
            "  %r = add i64 %q, 1\n  ret %r\n}\n")
        mach = Machine(m)
        tr = mach.run(ExecInput([5, 0], []))
        assert tr.abort == "div_zero"
        assert tr.instrs == [0, 1] and mach.steps == 2
        tr = interpret(m, ExecInput([5, 2], []))
        assert tr.instrs == [0, 1, 2, 3] and tr.output == 4

    def test_phi_without_incoming_edge_traps_once_stepped(self):
        m = parse_module(
            "func @main(%a: i64) -> i64 {\nentry:\n  %c = icmp eq %a, 0\n"
            "  condbr %c, l, r\nl:\n  br j\nr:\n  br j\n"
            "j:\n  %p = phi i64 [l: 1, r: 2]\n  %q = phi i64 [l: 3]\n"
            "  %s = add i64 %p, %q\n  ret %s\n}\n")
        assert interpret(m, ExecInput([0], [])).output == 4
        tr = interpret(m, ExecInput([1], []))
        # entry, r, then both phis; the add never runs
        assert tr.abort == "trap" and tr.instrs == [0, 1, 3, 4, 5]
        tr = interpret(m, ExecInput([1], []), budget=4)
        assert tr.abort == "budget" and tr.instrs == [0, 1, 3, 4]

    def test_trap_unconditional(self):
        m = parse_module("func @main() -> i64 {\nentry:\n"
                         "  call @trap()\n  ret 0\n}\n")
        assert interpret(m, ExecInput([], [])).abort == "trap"

    def test_trap_guarded(self):
        # one operand makes the failsafe conditional on its low bit
        m = parse_module("func @main(%t: i64) -> i64 {\nentry:\n"
                         "  call @trap(%t)\n  ret 0\n}\n")
        assert interpret(m, ExecInput([0], [])).abort is None
        assert interpret(m, ExecInput([1], [])).abort == "trap"


class TestCallDepth:
    def test_recursion_within_limit(self):
        m = parse_module(RECURSIVE)
        tr = interpret(m, ExecInput([100], []))
        assert tr.abort is None and tr.output == 100

    def test_deep_recursion_aborts(self):
        m = parse_module(RECURSIVE)
        tr = interpret(m, ExecInput([2000], []))
        assert tr.abort == "stack_overflow"
        assert tr.output is None
        # the call that would open one frame too many was stepped
        assert tr.instrs.count(tr.instrs[-1]) == MAX_CALL_DEPTH - 1

    def test_profiling_deep_recursion_is_a_profile_error(self):
        m = parse_module(RECURSIVE)
        unify_exits(m)
        rt = normalize_regions(m)
        with pytest.raises(ProfileError, match="stack_overflow"):
            taint_profile(m, [ExecInput([2000], [])], rt)


class TestShortInputs:
    """A run that reads past its input vector aborts; it never raises."""

    def test_short_secret_vector(self):
        tr = interpret(load("table_lookup"), ExecInput([], []))
        assert tr.abort == "short_input"
        assert tr.output is None and tr.instrs == []

    def test_short_public_vector(self):
        tr = run_expr("  %c = add i64 %a, %b\n  ret %c\n", args=[1])
        assert tr.abort == "short_input"
        assert tr.output is None and tr.instrs == []

    def test_secret_index_past_vector(self):
        body = "  %x = secret i64 0\n  %y = secret i64 2\n" \
               "  %z = add i64 %x, %y\n  ret %z\n"
        tr = run_expr(body, secrets=[7], sig="()")
        assert tr.abort == "short_input"
        assert tr.output is None
        assert run_expr(body, secrets=[7, 0, 5], sig="()").output == 12


def _variants(m):
    """(name, code) of m decoded plain and as the decoy shadow."""
    return [("plain", Code(m)), ("decoy", Code(m, DecoyDecoder()))]


CHAIN = """\
func @f(%x: i64) -> i64 {
entry:
  %y = mul i64 %x, 3
  ret %y
}

func @main(%a: i64) -> i64 {
entry:
  %a1 = add i64 %a, 1
  br m1
m1:
  %p = phi i64 [entry: %a1]
  %q = phi i64 [entry: 5]
  %r = add i64 %p, %q
  br m2
m2:
  %c = call @f(%r)
  %d = add i64 %c, 1
  br m3
m3:
  %e = icmp eq %a, 0
  condbr %e, j, k
k:
  br j
j:
  %v = phi i64 [m3: %d, k: 7]
  ret %v
}
"""


class TestChains:
    """A block that only its predecessor's `br` enters continues that
    predecessor's run: entry, m1, m2 and m3 of CHAIN decode as one
    block, split after the call, that ends in m3's condbr."""

    def _iids(self, m, fn, *labels):
        blocks = m.funcs[fn].blocks
        return [i.iid for lbl in labels for i in blocks[lbl].instrs]

    def test_chain_decodes_as_one_block(self):
        m = parse_module(CHAIN)
        for _, code in _variants(m):
            blocks = code.funcs["main"].blocks
            assert blocks[0].label == "m3" and len(blocks[0].segs) == 2
            assert blocks[1:4] == (None, None, None)

    @pytest.mark.parametrize("a", [0, 1])
    def test_phis_calls_and_the_edge_after_the_chain(self, a):
        # m1's phis are copied mid-run; f's iids come between m2's call
        # and the rest of m2; j takes the phi edge of m3, the chain's
        # last block, or of k
        m = parse_module(CHAIN)
        call = self._iids(m, "main", "m2")[0]
        head = self._iids(m, "main", "entry", "m1")
        tail = self._iids(m, "main", "m2", "m3")[1:]
        want = head + [call] + self._iids(m, "f", "entry") + tail \
            + self._iids(m, "main", *(("k",) if a else ()), "j")
        for name, code in _variants(m):
            tr = Machine(m, code=code).run(ExecInput([a], []))
            assert tr.output == ((a + 6) * 3 + 1 if a == 0 else 7), name
            assert tr.instrs == want, name

    def test_budget_inside_a_chain_cuts_the_trace_there(self):
        m = parse_module(CHAIN)
        for name, code in _variants(m):
            full = Machine(m, code=code).run(ExecInput([0], [])).instrs
            for budget in range(1, len(full)):
                mach = Machine(m, budget=budget, code=code)
                tr = mach.run(ExecInput([0], []))
                assert tr.abort == "budget", (name, budget)
                assert tr.instrs == full[:budget], (name, budget)

    def test_entry_branching_to_itself_runs_to_the_budget(self):
        m = parse_module("func @main() -> i64 {\nentry:\n"
                         "  %x = add i64 1, 2\n  br entry\n}\n")
        for name, code in _variants(m):
            tr = Machine(m, budget=101, code=code).run(ExecInput([], []))
            assert tr.abort == "budget", name
            assert tr.instrs == [0, 1] * 50 + [0], name

    def test_unreachable_single_predecessor_cycle(self):
        # a and b enter each other alone: no chain head reaches them, and
        # decoding stops where the walk comes back to a
        m = parse_module("func @main() -> i64 {\nentry:\n  ret 1\n"
                         "a:\n  %x = phi i64 [b: %y]\n  br b\n"
                         "b:\n  %y = add i64 %x, 1\n  br a\n}\n")
        for name, code in _variants(m):
            blocks = code.funcs["main"].blocks
            assert blocks[1].label == "b" and blocks[2] is None, name
            tr = Machine(m, code=code).run(ExecInput([], []))
            assert tr.output == 1 and tr.instrs == [0], name


@functools.cache
def _select(scheme):
    """(handler, frame template, slots of t, a, b and the result) of a
    decoded `%r = call @ct_select(%t, %a, %b)` under scheme."""
    m = parse_module("harden scheme=%d lambda=64\n"
                     "func @main(%%t: i64, %%a: i64, %%b: i64) -> i64 {\n"
                     "entry:\n  %%r = call @ct_select(%%t, %%a, %%b)\n"
                     "  ret %%r\n}\n" % scheme)
    df = Code(m).funcs["main"]
    return df.blocks[0].segs[0][2][0], df.template, \
        [df.names.index(r) for r in ("t", "a", "b", "r")]


class TestDecodedSelect:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 1 << 70),
           st.integers(0, 1 << 70), st.integers(0, 1 << 70))
    def test_equals_ct_select(self, scheme, t, a, b):
        # cfl.ct_select is the reference; frames may hold values wider
        # than 64 bits only here, but every form masks them alike
        h, template, (tk, ak, bk, d) = _select(scheme)
        regs = template.copy()
        regs[tk], regs[ak], regs[bk] = t, a, b
        h(None, regs, [False] * len(regs))
        assert regs[d] == ct_select(scheme, encode_taken(scheme, t), a, b)

    @pytest.mark.parametrize("scheme", range(1, 6))
    def test_an_unset_arm_traps_in_every_scheme(self, scheme):
        h, template, (tk, ak, bk, d) = _select(scheme)
        for unset in (ak, bk):
            regs = template.copy()
            regs[tk], regs[ak], regs[bk] = 1, 2, 3
            regs[unset] = None
            with pytest.raises(TypeError):
                h(None, regs, [False] * len(regs))


UNSET_MAIN = "func @main(%%a: i64) -> i64 {\nentry:\n%s}\n"
SWEEP_META = ("dflmeta 0 access=1 kind=%s lambda=64 ty=i64 natural=0 "
              "entries=[(site=g:@g, off=0, len=32, stride=8, "
              "handler=simple)]\n")
# each reads %u, which nothing defines, in one position; the modules are
# never validated.  (source, len(trace.instrs), steps) of a run on a = 0
UNSET_READS = {
    "binop": (UNSET_MAIN % "  %x = add i64 %a, 1\n  %y = mul i64 %x, %u\n"
              "  %z = add i64 %y, 1\n  ret %z\n", 2, 2),
    "select_arm": (UNSET_MAIN % "  %c = icmp eq %a, 0\n"
                   "  %y = select %c, %u, %a\n  %z = add i64 %y, 1\n"
                   "  ret %z\n", 2, 2),
    "select_cond": (UNSET_MAIN % "  %x = add i64 %a, 1\n"
                    "  %y = select %u, %x, %a\n  %z = add i64 %y, 1\n"
                    "  ret %z\n", 2, 2),
    "phi": (UNSET_MAIN % "  %c = icmp eq %a, 0\n  condbr %c, l, r\n"
            "l:\n  br j\nr:\n  br j\n"
            "j:\n  %p = phi i64 [l: %u, r: %a]\n  %q = add i64 %p, 1\n"
            "  ret %q\n", 4, 4),
    "call_arg": ("func @f(%x: i64) -> i64 {\nentry:\n  ret %x\n}\n"
                 + UNSET_MAIN % "  %x = add i64 %a, 1\n"
                 "  %r = call @f(%u)\n  %z = add i64 %r, %x\n  ret %z\n",
                 2, 2),
    "icall_arg": ("func @f(%x: i64) -> i64 {\nentry:\n  ret %x\n}\n"
                  + UNSET_MAIN % "  %x = add i64 %a, 1\n"
                  "  %r = icall @f(%u)\n  %z = add i64 %r, %x\n  ret %z\n",
                  2, 2),
    # the read sits in a block that only entry's `br` enters, so it runs
    # as part of entry's run
    "chain_member": (UNSET_MAIN % "  %x = add i64 %a, 1\n  br m\n"
                     "m:\n  %y = mul i64 %x, %u\n  %z = add i64 %y, 1\n"
                     "  ret %z\n", 3, 3),
    "chain_member_phi": (UNSET_MAIN % "  %x = add i64 %a, 1\n  br m\n"
                         "m:\n  %p = phi i64 [entry: %u]\n"
                         "  %q = add i64 %p, 1\n  ret %q\n", 3, 3),
    "condbr": (UNSET_MAIN % "  %x = add i64 %a, 1\n  condbr %u, l, r\n"
               "l:\n  ret %x\nr:\n  ret 2\n", 2, 2),
    "store_value": ("global @g: i64\n"
                    + UNSET_MAIN % "  %x = add i64 %a, 1\n"
                    "  store i64 %u, @g\n  ret %x\n", 2, 2),
    "ret": (UNSET_MAIN % "  %x = add i64 %a, 1\n  ret %u\n", 2, 2),
    # beyond those: a store to a bad pointer, an icall target and the
    # operands of the window sweeps, which do no arithmetic on them
    "store_value_bad_pointer": (UNSET_MAIN % "  %x = add i64 %a, 1\n"
                                "  store i64 %u, %a\n  ret %x\n", 2, 2),
    "icall_target": (UNSET_MAIN % "  %x = add i64 %a, 1\n"
                     "  %r = icall %u(%x)\n  ret %r\n", 2, 2),
    "ct_load_pointer": ("global @g: [4 x i64]\n" + UNSET_MAIN
                        % "  %x = add i64 %a, 1\n"
                        "  %v = call @ct_load(%u, 0)\n  ret %v\n"
                        + SWEEP_META % "load", 2, 2),
    "ct_store_value": ("global @g: [4 x i64]\n" + UNSET_MAIN
                       % "  %p = gep i64 @g, 1\n"
                       "  call @ct_store(%p, %u, 0)\n  ret 0\n"
                       + SWEEP_META % "store", 2, 2),
}


def _unset_run(src: str, variant: str):
    m = parse_module(src)
    if variant == "plain":
        mach = Machine(m)
    elif variant == "decoy":
        mach = Machine(m, code=Code(m, DecoyDecoder()))
    else:
        unify_exits(m)
        code = Code(m, TaintDecoder(normalize_regions(m)))
        mach = TaintMachine(m, [Context(None, None, "main")],
                            DEFAULT_BUDGET, code)
    return mach, mach.run(ExecInput([0], []))


class TestUnsetReads:
    """A read of a register no instruction has set traps at the reading
    instruction, under every variant of the engine."""

    @pytest.mark.parametrize("variant", ["plain", "decoy", "taint"])
    @pytest.mark.parametrize("case", sorted(UNSET_READS))
    def test_traps_where_read(self, case, variant):
        src, n, steps = UNSET_READS[case]
        mach, tr = _unset_run(src, variant)
        assert tr.abort == "trap" and tr.output is None
        assert (len(tr.instrs), mach.steps) == (n, steps)


DECOY_RETURN = """\
global @out: i64

func @leaf(%x: i64) -> i64 {
entry:
  %live = icmp eq %x, 99
  %v = add i64 %x, 1
  ret %v
}

func @main() -> i64 {
entry:
  %r = CALL
  store i64 %r, @out
  ret 0
}

takenmap @leaf { 1:0 }
"""


class TestDecoyShadow:
    @pytest.mark.parametrize("call", ["call @leaf(5)", "icall @leaf(5)"])
    def test_decoy_result_flows_through_call(self, call):
        # %v is computed under a false taken predicate (%live is 0 for
        # x=5), so the value main stores to a plain global is a decoy
        m = parse_module(DECOY_RETURN.replace("CALL", call))
        tr = Machine(m, code=Code(m, DecoyDecoder())).run(ExecInput([], []))
        assert tr.abort is None
        assert tr.decoy_violations == [("store", "main", 4)]

    def test_unset_guard_reads_as_taken(self):
        # the guard of %x is defined after it, so it is unset when %x is
        # computed: %x is no decoy, and storing it records nothing
        m = parse_module(
            "global @g: i64\nfunc @main(%a: i64) -> i64 {\nentry:\n"
            "  %x = add i64 %a, 1\n  %t = icmp eq %a, 5\n"
            "  store i64 %x, @g\n  ret %x\n}\ntakenmap @main { 0:1 }\n")
        tr = Machine(m, code=Code(m, DecoyDecoder())).run(ExecInput([0], []))
        assert (tr.abort, tr.output, tr.decoy_violations) == (None, 1, [])

    @pytest.mark.parametrize("body,meta,record", [
        ("  ret %v\n", "", ("ret", "main", None)),
        ("  %p = gep i64 @g, 2\n  call @ct_store(%p, %v, 0)\n  ret 0\n",
         "dflmeta 0 access=3 kind=store lambda=64 ty=i64 natural=0 "
         "entries=[(site=g:@g, off=0, len=32, stride=8, handler=simple)]\n",
         ("ct_store", 0, 3)),
    ], ids=["ret", "ct_store"])
    def test_decoy_value_escaping_is_recorded(self, body, meta, record):
        # %v is computed under a false taken predicate, then leaves the
        # entry as its result or lands in memory through a wrapped store
        m = parse_module(
            "global @g: [4 x i64]\nfunc @main() -> i64 {\nentry:\n"
            "  %live = icmp eq 1, 0\n  %v = add i64 1, 1\n" + body + "}\n"
            "takenmap @main { 1:0 }\n" + meta)
        tr = Machine(m, code=Code(m, DecoyDecoder())).run(ExecInput([], []))
        assert tr.abort is None and tr.violations == []
        assert tr.decoy_violations == [record]
        assert Machine(m).run(ExecInput([], [])).decoy_violations == []


WRAPPED = ("global @g: [4 x i64]\nfunc @main(%a: i64) -> i64 {\nentry:\n"
           "  %p = gep i64 @g, 1\n")


def _plan(natural: int, *sites) -> str:
    return ("dflmeta 0 access=1 kind=load lambda=64 ty=i64 natural=%d "
            "entries=[%s]\n" % (natural, ", ".join(
                "(site=%s, off=0, len=32, stride=8, handler=simple)" % site
                for site in sites)))


class TestWrapperOutcomes:
    """A plan the wrappers cannot honour ends the run with an abort or a
    violation record, never an exception, and fails verification."""

    @pytest.mark.parametrize("body,plan,abort,miss", [
        # two portions over the same bytes both hold the pointer
        ("  %v = call @ct_load(%p, 0)\n", _plan(0, "g:@g", "g:@g"),
         "dfl_overlap", False),
        # the selected pointer is live and in the portion, but is not the
        # raw one the window was chosen by
        ("  %q = gep i64 @g, 2\n  %v = call @ct_load_nat(%p, %q, 0)\n",
         _plan(1, "g:@g"), None, True),
        # natural striding walks a global portion only
        ("  %v = call @ct_load_nat(%p, %p, 0)\n", _plan(1, "s:7"),
         "trap", False),
        ("  %v = call @ct_load(%p, 0)\n", _plan(0, "g:@nosuch"),
         "trap", False),
    ], ids=["sweep-overlap", "nat-miss", "nat-stack-entry",
            "unknown-global"])
    def test_lands_in_the_trace(self, body, plan, abort, miss):
        m = parse_module(WRAPPED + body + "  ret %v\n}\n" + plan)
        mach = Machine(m)
        tr = mach.run(ExecInput([0], []))
        assert tr.abort == abort
        p = mach.global_addr["g"] + 8       # what %p points to
        assert tr.violations == ([("miss", 0, p)] if miss else [])
        orig = parse_module(WRAPPED + "  %v = load i64, %p\n  ret %v\n}\n")
        pc = verify_module(orig, m, pairs=2)[0]
        assert pc.check == "pc-security" and not pc.passed
        assert pc.detail.startswith("abort '%s'" % abort if abort
                                    else "striding violation ('miss'")


class TestTrace:
    def test_requantize_window_merge(self):
        t = Trace(lam=1)
        t.events = [("r", 0), ("r", 3), ("w", 4), ("r", 63), ("r", 64)]
        assert t.requantize(4) == [("r", 0), ("r", 0), ("w", 1),
                                   ("r", 15), ("r", 16)]
        assert t.requantize(1) == t.events

    def test_requantize_rejects_finer(self):
        t = Trace(lam=4)
        try:
            t.requantize(2)
        except ValueError:
            return
        raise AssertionError("finer quantum must be rejected")

    def test_harden_fine_matches_harden_coarse_view(self):
        # events of a lam=1 hardened run, viewed at lam=64, coincide
        # with the lam=64 hardened run's windows for the same program
        h1, _ = hardened("nested_branches", lam=1)
        h64, _ = hardened("nested_branches", lam=64)
        for s in range(8):
            e1 = interpret(h1, ExecInput([], [s]), lam=1).requantize(64)
            e64 = interpret(h64, ExecInput([], [s]), lam=64).events
            assert [k for k, _ in e1] == [k for k, _ in e64]

    def test_final_state_hides_bookkeeping(self):
        hm, _ = hardened("table_lookup")
        _, gbytes, heaps = final_state(hm, ExecInput([], [7]))
        assert set(gbytes) == {"tableA", "tableB", "last_result"}
        assert heaps == []


class TestSuiteFormat:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.integers(0, 1 << 64 - 1), max_size=3),
        st.lists(st.integers(0, 1 << 64 - 1), max_size=3)), max_size=6))
    def test_round_trip(self, rows):
        suite = [ExecInput(list(p), list(s)) for p, s in rows]
        back = parse_suite(format_suite(suite))
        assert [(i.public, i.secrets) for i in back] == \
            [(i.public, i.secrets) for i in suite]

    @pytest.mark.parametrize("line", ["1,2 ; sec: 3", "pub: x ; sec: 3",
                                      "pub: 1 ; 3"])
    def test_malformed_line(self, line):
        with pytest.raises(SuiteError):
            parse_suite(line + "\n")

    def test_comments_and_blanks(self):
        text = "# comment\n\npub: 1,2 ; sec: 3\n   \npub: ; sec:\n"
        suite = parse_suite(text)
        assert len(suite) == 2
        assert suite[0].public == [1, 2] and suite[0].secrets == [3]
        assert suite[1].public == [] and suite[1].secrets == []
