"""Dynamic taint profiling, its calling contexts and the closure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RECURSIVE, load
from ctlin import pipeline, taint
from ctlin.interp import DEFAULT_BUDGET, Code, ExecInput, interpret
from ctlin.ir import parse_module
from ctlin.normalize import (normalize_regions, promote_indirect_calls,
                             unify_exits)
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.pta import (aggressive_clone, andersen_solve,
                       resolve_indirect_targets)
from ctlin.taint import (Context, TaintDecoder, TaintMachine,
                         close_sensitivity, default_suite, input_shape,
                         taint_profile, translate_report)


def profiled(name_or_module, suite=None):
    m = name_or_module if not isinstance(name_or_module, str) \
        else load(name_or_module)
    unify_exits(m)
    rt = normalize_regions(m)
    rep = taint_profile(m, suite or default_suite(m), rt)
    return m, rt, rep


def instr_by_name(m, fn, name):
    for ins in m.funcs[fn].instructions():
        if ins.name == name:
            return ins
    raise KeyError(name)


class TestProfile:
    def test_table_lookup_facts(self):
        m, rt, rep = profiled("table_lookup")
        ta = instr_by_name(m, "main", "ta")
        tb = instr_by_name(m, "main", "tb")
        assert {ta.iid, tb.iid} <= rep.reads
        assert {ta.iid, tb.iid} <= rep.addr_tainted
        assert len(rep.branches) == 1
        # the result store moves tainted data to a fixed location
        stores = [i for i in m.funcs["main"].instructions()
                  if i.op == "store"]
        assert stores[0].iid in rep.writes
        assert stores[0].iid not in rep.addr_tainted

    def test_public_address_load_not_addr_tainted(self):
        m, rt, rep = profiled("covering_loop")
        v = instr_by_name(m, "main", "v")
        assert v.iid not in rep.addr_tainted
        assert len(rep.branches) == 1

    def test_secret_instruction_taints(self):
        # the secret comes from a `secret` read, not an entry parameter
        m, rt, rep = profiled(parse_module(
            "func @main() -> i64 {\nentry:\n  %s = secret i64 0\n"
            "  %c = icmp lt %s, 100\n  condbr %c, a, b\n"
            "a:\n  br j\nb:\n  br j\nj:\n  ret 0\n}\n"))
        assert rep.branches == {i.iid for i in m.instructions()
                                if i.op == "condbr"}

    def test_loop_bound_training(self):
        m, rt, rep = profiled("jit_trip")
        assert rep.loop_bounds[("main", "loop")] == 8
        assert ("main", "loop") in rep.loops

    def test_restricted_suite_trains_smaller_bound(self):
        suite = [ExecInput([], [n]) for n in range(2)]
        m, rt, rep = profiled("jit_trip", suite)
        assert rep.loop_bounds[("main", "loop")] == 2

    def test_exp_pair_loops_tainted(self):
        m, rt, rep = profiled("exp_loop_pair")
        keys = set(rep.loop_bounds)
        assert len(keys) == 2
        assert keys <= rep.loops
        assert all(rep.loop_bounds[k] >= 2 for k in keys)

    @pytest.mark.parametrize("p", [0, 1])
    def test_select_taint(self, p):
        # a secret condition taints the result whatever it picks; a public
        # one passes on the taint of the arm it picks
        src = ("global @o: i64\n"
               "func @main(%p: i64, %s: secret i64) -> i64 {\nentry:\n"
               "  %sc = icmp eq %s, 0\n  %v = select %sc, 1, 2\n"
               "  store i64 %v, @o\n"
               "  %pc = icmp eq %p, 0\n  %w = select %pc, %s, %p\n"
               "  store i64 %w, @o\n"
               "  %u = select %pc, %p, %s\n  store i64 %u, @o\n"
               "  ret 0\n}\n")
        m, rt, rep = profiled(parse_module(src), [ExecInput([p], [5])])
        sv, sw, su = [i.iid for i in m.funcs["main"].instructions()
                      if i.op == "store"]
        assert sv in rep.writes
        assert (sw in rep.writes) == (p == 0)
        assert (su in rep.writes) == (p != 0)

    def test_tainted_divisor(self):
        src = ("func @main(%a: i64, %k: secret i64) -> i64 {\n"
               "entry:\n  %d = and i64 %k, 7\n  %d1 = add i64 %d, 1\n"
               "  %q = div i64 %a, %d1\n  ret %q\n}\n")
        m, rt, rep = profiled(parse_module(src))
        q = instr_by_name(m, "main", "q")
        assert q.iid in rep.divrem

    def test_helper_taint_crosses_calls(self):
        m, rt, rep = profiled("two_context")
        v = instr_by_name(m, "pick", "v")
        assert v.iid in rep.reads


    def test_recursion_adds_no_contexts(self):
        m = parse_module(RECURSIVE)
        unify_exits(m)
        rep = taint_profile(m, [ExecInput([n], []) for n in (3, 40)],
                            normalize_regions(m))
        assert [c.fn for c in rep.contexts] == ["main", "f"]

    def test_plain_accesses_leave_no_trace(self):
        # no one reads a profiling run's trace, so plain loads and
        # stores record neither window events nor the access log
        m = load("table_lookup")
        unify_exits(m)
        rt = normalize_regions(m)
        contexts = [Context(None, None, "main")]
        tm = TaintMachine(m, contexts, DEFAULT_BUDGET,
                          Code(m, TaintDecoder(rt)))
        inp = ExecInput([], [5])
        tr = tm.run(inp)
        assert tr.abort is None
        assert tr.events == [] and tr.access_log == {}
        plain = interpret(m, inp)
        assert plain.events and plain.access_log
        assert tr.output == plain.output
        rep = contexts[0].report
        loads = {instr_by_name(m, "main", n).iid for n in ("ta", "tb")}
        store = [i for i in m.funcs["main"].instructions()
                 if i.op == "store"][0]
        assert rep.reads == loads
        assert rep.writes == {store.iid}


class TestRegionTreeReuse:
    @pytest.mark.parametrize("cloning, calls", [(False, 1), (True, 2)])
    def test_harden_normalizes_once_per_shape(self, monkeypatch, cloning,
                                              calls):
        # one region tree before cloning, one after; profiling takes
        # the first instead of building its own
        trees, profiled = [], []
        norm, profile = pipeline.normalize_regions, pipeline.taint_profile

        def counting(m):
            trees.append(norm(m))
            return trees[-1]

        def recording(m, suite, rt, **kw):
            profiled.append(rt)
            return profile(m, suite, rt, **kw)

        monkeypatch.setattr(pipeline, "normalize_regions", counting)
        monkeypatch.setattr(taint, "normalize_regions", counting,
                            raising=False)
        monkeypatch.setattr(pipeline, "taint_profile", recording)
        _, rep = harden_module(load("two_context"),
                               PipelineConfig(cloning=cloning))
        assert bool(rep["cloned"]) == cloning
        assert len(trees) == calls
        assert len(profiled) == 1 and profiled[0] is trees[0]


def translated_and_fresh(m, partitions=128):
    """Profile m, clone every call path below its roots as the pipeline
    does, and return (the profile carried over to the clones, a new
    profile of the cloned module)."""
    unify_exits(m)
    targets = resolve_indirect_targets(m, andersen_solve(m))
    if targets:
        promote_indirect_calls(m, targets)
    suite = default_suite(m, partitions=partitions)
    before = taint_profile(m, suite, normalize_regions(m))
    cmap = aggressive_clone(m, set(m.funcs))
    assert cmap
    return (translate_report(before, m, cmap.copies),
            taint_profile(m, suite, normalize_regions(m)))


@st.composite
def call_dags(draw):
    """Acyclic call graphs of 2-5 levels with 1-2 functions each.

    A function above the last level makes 1-3 calls into deeper levels
    with its public and secret values mixed as arguments, so one callee
    sees a secret from one call site and not from another; main's
    secret always reaches its first callee.  A leaf
    loads, stores, divides or branches on values built from its
    arguments, and one callee first runs a loop whose trip count is its
    first argument.
    """
    nlev = draw(st.integers(2, 5))
    levels = [["main"]] + [["f%d_%d" % (k, j)
                            for j in range(draw(st.integers(1, 2)))]
                           for k in range(1, nlev)]
    looper = draw(st.sampled_from([f for lv in levels[1:] for f in lv]))
    arg = st.sampled_from(["%b", "%a", "7"])
    funcs = []
    for k, level in enumerate(levels):
        deeper = [f for lv in levels[k + 1:] for f in lv]
        for name in level:
            params = "%a: i64, %b: secret i64" if name == "main" \
                else "%a: i64, %b: i64"
            lines = ["func @%s(%s) -> i64 {" % (name, params), "entry:"]
            blk = "entry"
            if name == looper:
                lines += ["  %n = and i64 %a, 3", "  br loop", "loop:",
                          "  %i = phi i64 [entry: 0, loop: %i1]",
                          "  %i1 = add i64 %i, 1", "  %d = icmp ge %i1, %n",
                          "  condbr %d, body, loop", "body:"]
                blk = "body"
            if deeper:
                acc = "%b"
                for c in range(draw(st.integers(1, 3))):
                    # main's secret always reaches its first callee
                    first = "%b" if name == "main" and c == 0 \
                        else draw(arg)
                    lines += ["  %%r%d = call @%s(%s, %s)"
                              % (c, draw(st.sampled_from(deeper)),
                                 first, draw(arg)),
                              "  %%s%d = add i64 %s, %%r%d" % (c, acc, c)]
                    acc = "%%s%d" % c
                lines.append("  ret %s" % acc)
            else:
                lines += ["  %x = and i64 %a, 15", "  %p = gep i64 @t, %x"]
                lines += {
                    "load": ["  %v = load i64, %p", "  ret %v"],
                    "store": ["  store i64 %b, %p", "  ret %a"],
                    "div": ["  %v = div i64 %b, 3", "  ret %v"],
                    "branch": ["  %c = icmp lt %a, 8",
                               "  condbr %c, hi, join", "hi:",
                               "  %w = add i64 %b, 1", "  br join", "join:",
                               "  %%v = phi i64 [%s: %%b, hi: %%w]" % blk,
                               "  ret %v"],
                }[draw(st.sampled_from(["load", "store", "div", "branch"]))]
            lines.append("}")
            funcs.append("\n".join(lines))
    return "global @t: [16 x i64]\n" + "\n".join(funcs) + "\n"


class TestTranslation:
    """The profile carried onto clones equals profiling the clones."""

    def test_two_context(self):
        translated, fresh = translated_and_fresh(load("two_context"))
        assert translated == fresh
        assert len(fresh.reads) == 2

    def test_fn_table_dispatch(self):
        translated, fresh = translated_and_fresh(load("fn_table_dispatch"))
        assert translated == fresh
        assert fresh.branches

    def test_icall_keeps_its_target(self):
        # cloning follows direct calls only, so @f stays the icall's
        # target under the clone of @h
        src = ("global @t: [4 x i64]\n"
               "func @f(%x: i64) -> i64 {\nentry:\n"
               "  %m = and i64 %x, 3\n  %p = gep i64 @t, %m\n"
               "  %v = load i64, %p\n  ret %v\n}\n"
               "func @h(%x: i64) -> i64 {\nentry:\n"
               "  %r = icall @f(%x)\n  ret %r\n}\n"
               "func @main(%s: secret i64) -> i64 {\nentry:\n"
               "  %a = call @h(%s)\n  %b = call @h(1)\n"
               "  %r = add i64 %a, %b\n  ret %r\n}\n")
        m = parse_module(src)
        unify_exits(m)
        suite = default_suite(m, partitions=8)
        before = taint_profile(m, suite, normalize_regions(m))
        cmap = aggressive_clone(m, set(m.funcs))
        assert sorted(cmap) == ["h.c1", "h.c2"]
        assert translate_report(before, m, cmap.copies) == \
            taint_profile(m, suite, normalize_regions(m))

    @settings(max_examples=30, deadline=None)
    @given(call_dags())
    def test_call_dags(self, src):
        translated, fresh = translated_and_fresh(parse_module(src),
                                                 partitions=16)
        assert translated == fresh


class TestClosure:
    def test_region_claims_nested_accesses(self):
        m, rt, rep = profiled("nested_branches")
        ss = close_sensitivity(m, rep, rt)
        assert ("main", "branch", "entry") in ss.regions
        assert ("main", "branch", "outer.else") in ss.regions
        b1 = instr_by_name(m, "main", "b1")
        b2 = instr_by_name(m, "main", "b2")
        assert {b1.iid, b2.iid} <= ss.accesses

    def test_guarded_callee_joins_whole(self):
        src = ("global @t: [8 x i64] = 01\n"
               "func @leaf(%x: i64) -> i64 {\n"
               "entry:\n  %r = add i64 %x, 1\n  ret %r\n}\n"
               "func @main(%s: secret i64) -> i64 {\n"
               "entry:\n  %b = and i64 %s, 1\n  %c = icmp eq %b, 1\n"
               "  condbr %c, a, join\n"
               "a:\n  %v = call @leaf(%s)\n  br join\n"
               "join:\n  %r = phi i64 [entry: 0, a: %v]\n  ret %r\n}\n")
        m, rt, rep = profiled(parse_module(src))
        ss = close_sensitivity(m, rep, rt)
        assert "leaf" in ss.functions

    def test_public_addresses(self):
        m, rt, rep = profiled("covering_loop")
        ss = close_sensitivity(m, rep, rt)
        assert instr_by_name(m, "main", "v").iid in ss.public_addr
        m, rt, rep = profiled("table_lookup")
        ss = close_sensitivity(m, rep, rt)
        ta = instr_by_name(m, "main", "ta")
        assert ta.iid in ss.accesses and ta.iid not in ss.public_addr
        assert ss.public_addr == ss.accesses - rep.addr_tainted

    def test_bounds_carried_into_closure(self):
        m, rt, rep = profiled("jit_trip")
        ss = close_sensitivity(m, rep, rt)
        assert ss.bounds[("main", "loop")] == 8


class TestInputs:
    def test_input_shape(self, corpus_names):
        want = {
            "covering_loop": (0, 1),
            "exp_loop_pair": (1, 1),
            "fn_table_dispatch": (0, 1),
            "jit_trip": (0, 1),
            "nested_branches": (0, 1),
            "store_sweep": (0, 1),
            "table_lookup": (0, 1),
            "two_context": (0, 1),
        }
        for name in corpus_names:
            assert input_shape(load(name)) == want[name], name

    def test_default_suite_deterministic(self):
        m = load("exp_loop_pair")
        a = default_suite(m, seed=3)
        b = default_suite(m, seed=3)
        assert [(i.public, i.secrets) for i in a] == \
            [(i.public, i.secrets) for i in b]
        c = default_suite(m, seed=4)
        assert [(i.public, i.secrets) for i in a] != \
            [(i.public, i.secrets) for i in c]

    def test_default_suite_spans_partitions(self):
        m = load("table_lookup")
        suite = default_suite(m, space=1 << 15, partitions=128)
        assert len(suite) == 128
        secs = sorted(i.secrets[0] for i in suite)
        # both table halves and the untaken tail get exercised
        assert secs[0] < 4096 and secs[-1] >= 16384
