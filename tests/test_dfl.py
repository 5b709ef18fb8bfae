"""Striding plans, object interposition, access wrapping."""

import random

import pytest

from conftest import hardened, load
from ctlin import cfl, pipeline
from ctlin.dfl import (HANDLER_WEIGHTS, DflError, build_metadata,
                       choose_handler, plan_cost)
from ctlin.interp import ExecInput, Machine, final_state, interpret
from ctlin.ir import parse_module, print_module, validate
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.pta import andersen_solve, refine_field_sensitivity


class TestHandlerChoice:
    @pytest.mark.parametrize("lam,length,want", [
        (64, 64, "simple"),
        (64, 511, "simple"),
        (64, 512, "gather"),
        (64, 1024, "gather"),
        (64, 8192, "gather"),
        (16, 127, "simple"),
        (16, 128, "gather"),
        (4, 16, "bulk"),
        (4, 100000, "bulk"),
        (1, 8, "bulk"),
        (15, 4096, "bulk"),
    ])
    def test_grid(self, lam, length, want):
        assert choose_handler(lam, length) == want

    def test_weights_order(self):
        # cheaper handlers cover less ground per access
        assert HANDLER_WEIGHTS["bulk"] < HANDLER_WEIGHTS["gather"] \
            < HANDLER_WEIGHTS["simple"]

    def test_plan_cost_scales_with_windows(self):
        hm, _ = hardened("table_lookup")
        big = next(r for r in hm.dflmeta.values()
                   if any(e.site == "g:@tableA" for e in r.entries))
        small = next(r for r in hm.dflmeta.values()
                     if any(e.site == "g:@last_result" for e in r.entries))
        assert plan_cost(big) > plan_cost(small)


class TestBuildMetadata:
    def test_table_lookup_plans(self):
        hm, rep = hardened("table_lookup")
        assert rep["plans"] == 3
        by_site = {}
        for rec in hm.dflmeta.values():
            assert len(rec.entries) == 1
            e = rec.entries[0]
            by_site[e.site] = (rec.kind, e.length, e.stride, e.handler)
        assert by_site["g:@tableA"] == ("load", 4096, 1, "gather")
        assert by_site["g:@tableB"] == ("load", 4096, 1, "gather")
        assert by_site["g:@last_result"] == ("store", 1, 1, "simple")

    def test_mid_assignment_deterministic(self):
        a = print_module(hardened("table_lookup")[0])
        hm2, _ = harden_module(load("table_lookup"), PipelineConfig())
        assert print_module(hm2) == a

    def test_no_facts_is_an_error(self):
        m = parse_module(
            "func @main(%p: addr, %s: secret i64) -> i64 {\n"
            "entry:\n  %i = and i64 %s, 7\n  %q = gep i64 %p, %i\n"
            "  %v = load i64, %q\n  ret %v\n}\n")
        pt = refine_field_sensitivity(m, andersen_solve(m))
        v = next(i for i in m.funcs["main"].instructions()
                 if i.op == "load")
        with pytest.raises(DflError):
            build_metadata(m, {v.iid}, pt)

    def test_lambda_baked_into_plans(self):
        hm, _ = hardened("table_lookup", lam=4)
        for rec in hm.dflmeta.values():
            assert rec.lam == 4
            for e in rec.entries:
                assert e.handler == "bulk"


STACK_SRC = """\
func @main(%s: secret i64) -> i64 {
entry:
  %buf = alloca [8 x i64]
  %i = and i64 %s, 7
  %p = gep i64 %buf, %i
  store i64 %s, %p
  %v = load i64, %p
  ret %v
}
"""

HEAP_SRC = """\
func @main(%s: secret i64) -> i64 {
entry:
  %h = heapalloc [8 x i64]
  %i = and i64 %s, 7
  %p = gep i64 %h, %i
  store i64 41, %p
  %v = load i64, %p
  heapfree %h
  %r = add i64 %v, 1
  ret %r
}
"""


class TestObjects:
    def test_stack_promotion(self):
        hm, rep = harden_module(parse_module(STACK_SRC), PipelineConfig())
        assert rep["promoted"] == 1
        promos = [n for n in hm.globals if n.startswith("dfl.promo.")]
        assert len(promos) == 1
        assert not any(i.op == "alloca"
                       for i in hm.funcs["main"].instructions())
        for rec in hm.dflmeta.values():
            for e in rec.entries:
                assert e.site == "g:@" + promos[0]
        for s in (0, 3, 7, 12):
            assert interpret(hm, ExecInput([], [s])).output == s

    def test_promotion_can_be_disabled(self):
        hm, rep = harden_module(parse_module(STACK_SRC),
                                PipelineConfig(promotion=False))
        assert rep["promoted"] == 0
        assert rep["interposed"] >= 1
        sites = {e.site_kind() for r in hm.dflmeta.values()
                 for e in r.entries}
        assert sites == {"s"}
        for s in (0, 5, 9):
            assert interpret(hm, ExecInput([], [s])).output == s

    def test_heap_interposition(self):
        hm, rep = harden_module(parse_module(HEAP_SRC), PipelineConfig())
        assert rep["interposed"] >= 1
        fn = hm.funcs["main"]
        callees = [i.callee for i in fn.instructions() if i.op == "call"]
        assert "dfl_alloc_heap" in callees
        assert "dfl_free" in callees
        assert not any(i.op in ("heapalloc", "heapfree")
                       for i in fn.instructions())
        for s in range(8):
            tr = interpret(hm, ExecInput([], [s]))
            assert tr.abort is None and tr.output == 42

    def test_heap_final_state_comparable(self):
        hm, _ = harden_module(parse_module(HEAP_SRC), PipelineConfig())
        om = parse_module(HEAP_SRC)
        for s in (1, 6):
            _, go, ho = final_state(om, ExecInput([], [s]))
            _, gh, hh = final_state(hm, ExecInput([], [s]))
            assert go == gh and ho == hh


class TestWrappedAccesses:
    def test_wrapper_argument_shape(self):
        hm, _ = hardened("store_sweep")
        fn = hm.funcs["main"]
        st = next(i for i in fn.instructions()
                  if i.op == "call" and i.callee == "ct_store")
        assert len(st.args) == 3  # pointer, value, plan id
        mid = st.args[2].value
        assert hm.dflmeta[mid].kind == "store"
        # the join load has a public constant address outside the
        # region, so it stays a plain load
        assert any(i.op == "load" for i in fn.instructions())

    def test_store_sweep_covers_every_window(self):
        hm, _ = hardened("store_sweep")
        mid, rec = next((k, r) for k, r in hm.dflmeta.items()
                        if r.kind == "store")
        nwin = -(-rec.entries[0].length // rec.lam)
        tr = interpret(hm, ExecInput([], [9]))
        assert tr.touches[mid] == nwin

    def test_store_decoy_neutral_fuzz(self):
        hm, _ = hardened("store_sweep")
        gname = "buf"
        rng = random.Random(42)
        events = None
        for _ in range(300):
            mach = Machine(hm)
            blob = bytes(rng.randrange(256) for _ in range(512))
            a = mach.mem.find(mach.global_addr[gname])
            a.data[:] = blob
            tr = mach.run(ExecInput([], [rng.randrange(0, 1 << 16, 2)]))
            assert tr.abort is None
            assert bytes(a.data) == blob
            cur = [e for e in tr.events]
            if events is None:
                events = cur
            assert cur == events

    def test_live_store_hits_exactly_one_slot(self):
        hm, _ = hardened("store_sweep")
        for s in (1, 33, 127):
            mach = Machine(hm)
            a = mach.mem.find(mach.global_addr["buf"])
            before = bytes(a.data)
            mach.run(ExecInput([], [s]))
            after = bytes(a.data)
            lo = (s & 63) * 8
            assert after[lo:lo + 8] == int(s).to_bytes(8, "little")
            assert after[:lo] == before[:lo]
            assert after[lo + 8:] == before[lo + 8:]


class TestNaturalStriding:
    def test_covering_loop_touch_counts(self):
        plain, _ = hardened("covering_loop", lam=4, natural=False)
        nat, rep = hardened("covering_loop", lam=4)
        assert rep["natural"] >= 1

        def touches(m, s):
            tr = interpret(m, ExecInput([], [s]))
            assert tr.abort is None
            loads = [r for k, r in m.dflmeta.items() if r.kind == "load"]
            return sum(tr.touches.get(r.mid, 0) for r in loads)

        for s in (0, 1, 5):
            assert touches(plain, s) == 16 * 16
            assert touches(nat, s) == 16

    def test_rewrite_shape(self):
        nat, _ = hardened("covering_loop", lam=4)
        fn = nat.funcs["main"]
        call = next(i for i in fn.instructions()
                    if i.op == "call" and i.callee == "ct_load_nat")
        # selected pointer, raw pointer, plan id
        assert len(call.args) == 3
        rec = nat.dflmeta[call.args[2].value]
        assert rec.natural

    def test_decided_before_the_merge(self, monkeypatch):
        # the pointer goes in twice; linearization null-selects only
        # the first on decoy paths, so the second stays raw
        seen = []
        real = cfl.linearize

        def linearize(m, *args, **kw):
            seen.extend(i.args[:2] for i in m.instructions()
                        if i.op == "call" and i.callee.endswith("_nat"))
            return real(m, *args, **kw)
        monkeypatch.setattr(cfl, "linearize", linearize)
        hm, rep = harden_module(load("covering_loop"), PipelineConfig(lam=4))
        assert rep["natural"] == len(seen) >= 1
        assert all(p == raw for p, raw in seen)
        sel = {i.name: i.args[1] for i in hm.instructions()
               if i.op == "call" and i.callee == "ct_select"}
        for i in hm.instructions():
            if i.op == "call" and i.callee == "ct_load_nat":
                assert sel[i.args[0].name] == i.args[1]

    def test_only_the_closure_decides(self, monkeypatch):
        # an access the closure does not mark public keeps its sweep
        real = pipeline.close_sensitivity

        def close(*args):
            ss = real(*args)
            ss.public_addr = set()
            return ss
        monkeypatch.setattr(pipeline, "close_sensitivity", close)
        hm, rep = harden_module(load("covering_loop"), PipelineConfig(lam=4))
        assert rep["natural"] == 0
        assert not any(r.natural for r in hm.dflmeta.values())

    def test_tainted_address_never_natural(self):
        hm, _ = hardened("table_lookup")
        for rec in hm.dflmeta.values():
            if any(e.site in ("g:@tableA", "g:@tableB")
                   for e in rec.entries):
                assert not rec.natural

    def test_outputs_unchanged(self):
        nat, _ = hardened("covering_loop", lam=4)
        ref = load("covering_loop")
        for s in range(8):
            assert interpret(nat, ExecInput([], [s])).output == \
                interpret(ref, ExecInput([], [s])).output


def test_validate_all_hardened(corpus_names):
    for name in corpus_names:
        hm, _ = hardened(name)
        assert validate(hm) == [], name
