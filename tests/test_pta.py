"""Inclusion-based points-to facts, field refinement, cloning."""

import pytest

from conftest import corpus_src, load
from ctlin.interp import ExecInput, interpret
from ctlin.ir import parse_module, validate
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.pta import (CloneError, aggressive_clone, andersen_solve,
                       refine_field_sensitivity, resolve_indirect_targets)
from ctlin.verify import verify_module


def val_objs(pt, fn, reg):
    return {e[0] for e in pt.of(fn, reg)}


class TestAndersen:
    def test_function_table(self):
        m = load("fn_table_dispatch")
        pt = andersen_solve(m)
        assert val_objs(pt, "main", "fp") == {"f:@f", "f:@g"}
        # the table slot pointer is exact over the 2-slot array
        pk = pt.of("main", "pk")
        assert pk == {("g:@tab", 0, 8, 8)}

    def test_const_gep_exact(self):
        m = parse_module(
            "global @t: [8 x i64] = 00\n"
            "func @main() -> i64 {\nentry:\n  %p = gep i64 @t, 3\n"
            "  %v = load i64, %p\n  ret %v\n}\n")
        pt = andersen_solve(m)
        assert pt.of("main", "p") == {("g:@t", 24, 24, 0)}

    def test_dynamic_gep_strides(self):
        m = parse_module(
            "global @t: [8 x i64] = 00\n"
            "func @main(%i: i64) -> i64 {\nentry:\n  %p = gep i64 @t, %i\n"
            "  %v = load i64, %p\n  ret %v\n}\n")
        pt = andersen_solve(m)
        assert pt.of("main", "p") == {("g:@t", 0, 56, 8)}

    def test_pointer_arithmetic_degenerates(self):
        m = parse_module(
            "global @t: [8 x i64] = 00\n"
            "func @main(%i: i64) -> i64 {\nentry:\n"
            "  %p = gep i64 @t, 0\n  %q = add i64 %p, %i\n"
            "  %v = load i64, %q\n  ret %v\n}\n")
        pt = andersen_solve(m)
        assert pt.of("main", "q") == {("g:@t", 0, 63, 1)}

    def test_flow_through_phi_and_call(self):
        m = load("two_context")
        pt = andersen_solve(m)
        assert val_objs(pt, "pick", "p") == {"g:@ta", "g:@tb"}

    def test_store_into_mem_graph(self):
        m = load("fn_table_dispatch")
        pt = andersen_solve(m)
        assert {e[0] for e in pt.mem["g:@tab"]} == {"f:@f", "f:@g"}


class TestRefinement:
    def test_wide_use_tightens_stride(self):
        m = parse_module(
            "global @t: [8 x i64] = 00\n"
            "func @main(%i: i64) -> i64 {\nentry:\n"
            "  %p = gep i64 @t, 0\n  %q = add i64 %p, %i\n"
            "  %v = load i64, %q\n  ret %v\n}\n")
        pt = refine_field_sensitivity(m, andersen_solve(m))
        assert pt.of("main", "q") == {("g:@t", 0, 56, 8)}

    def test_mixed_widths_left_alone(self):
        m = parse_module(
            "global @t: [8 x i64] = 00\n"
            "func @main(%i: i64) -> i64 {\nentry:\n"
            "  %p = gep i64 @t, 0\n  %q = add i64 %p, %i\n"
            "  %v = load i64, %q\n  %w = load i8, %q\n"
            "  %wx = and i64 %w, 255\n  %r = add i64 %v, %wx\n"
            "  ret %r\n}\n")
        pt = refine_field_sensitivity(m, andersen_solve(m))
        assert pt.of("main", "q") == {("g:@t", 0, 63, 1)}


class TestIndirectTargets:
    def test_arity_filters_candidates(self):
        m = parse_module(
            "global @tab: [2 x addr] = 00\n"
            "func @one(%x: i64) -> i64 {\nentry:\n  ret %x\n}\n"
            "func @two(%x: i64, %y: i64) -> i64 {\nentry:\n  ret %x\n}\n"
            "func @main(%k: i64) -> i64 {\nentry:\n"
            "  %p0 = gep addr @tab, 0\n  store addr @one, %p0\n"
            "  %p1 = gep addr @tab, 1\n  store addr @two, %p1\n"
            "  %b = and i64 %k, 1\n  %pk = gep addr @tab, %b\n"
            "  %fp = load addr, %pk\n  %r = icall %fp(%k)\n  ret %r\n}\n")
        targets = resolve_indirect_targets(m, andersen_solve(m))
        (_, cands), = targets.items()
        assert cands == ["one"]


class TestCloning:
    def test_per_path_contexts(self):
        m = load("two_context")
        cmap = aggressive_clone(m, {"main", "pick"})
        assert sorted(cmap) == ["pick.c1", "pick.c2"]
        assert set(cmap.values()) == {"pick"}
        assert validate(m) == []
        # context split: each clone now aliases exactly one table
        pt = andersen_solve(m)
        seen = {frozenset(val_objs(pt, c, "p"))
                for c in ("pick.c1", "pick.c2")}
        assert seen == {frozenset({"g:@ta"}), frozenset({"g:@tb"})}

    def test_clones_appended_after_originals(self):
        m = load("two_context")
        order = list(m.funcs)
        aggressive_clone(m, {"main", "pick"})
        assert list(m.funcs)[:len(order)] == order

    def test_behavior_preserved(self):
        m = load("two_context")
        ref = load("two_context")
        aggressive_clone(m, {"main", "pick"})
        for s in range(16):
            assert interpret(m, ExecInput([], [s])).output == \
                interpret(ref, ExecInput([], [s])).output

    def test_clone_names_skip_input_functions(self):
        # a clone named pick.c1 used to replace the input's @pick.c1
        src = corpus_src("two_context").replace(
            "  %r = add i64 %a, %b\n",
            "  %c = call @pick.c1(%pa, %s)\n  %r0 = add i64 %a, %b\n"
            "  %r = add i64 %r0, %c\n") + (
            "func @pick.c1(%t: addr, %i: i64) -> i64 {\n"
            "entry:\n  %r = mul i64 %i, 3\n  ret %r\n}\n")
        hm, _ = harden_module(parse_module(src), PipelineConfig())
        assert any(i.op == "mul" for i in hm.funcs["pick.c1"].instructions())
        assert all(v.passed for v in verify_module(parse_module(src), hm))

    RECURSIVE = (
        "func @rec(%n: i64) -> i64 {\nentry:\n"
        "  %c = icmp le %n, 0\n  condbr %c, base, more\n"
        "base:\n  ret 0\n"
        "more:\n  %n1 = sub i64 %n, 1\n  %r = call @rec(%n1)\n"
        "  ret %r\n}\n"
        "func @main(%s: secret i64) -> i64 {\nentry:\n"
        "  %r = call @rec(%s)\n  ret %r\n}\n")

    def test_recursion_rejected(self):
        m = parse_module(self.RECURSIVE)
        with pytest.raises(CloneError):
            aggressive_clone(m, {"main", "rec"})

    def test_recursion_outside_scope_stays_shared(self):
        m = parse_module(self.RECURSIVE)
        assert aggressive_clone(m, {"main"}) == {}
        assert sorted(m.funcs) == ["main", "rec"]
        assert m.callees() == {"main": {"rec"}, "rec": {"rec"}}

    def test_nothing_to_do(self):
        m = load("table_lookup")
        assert aggressive_clone(m, {"main"}) == {}
