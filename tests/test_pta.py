"""Inclusion-based points-to facts, field refinement, guard-narrowed
index ranges, cloning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_src, hardened, load
from ctlin.dfl import build_metadata
from ctlin.interp import Code, ExecInput, Machine, format_suite, interpret
from ctlin.ir import (ADDR, I1, I8, I32, I64, Type, parse_module, size_of,
                      validate)
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.pta import (CloneError, _join, _ladder, aggressive_clone,
                       andersen_solve, refine_field_sensitivity,
                       refine_index_ranges, resolve_indirect_targets)
from ctlin.taint import default_suite
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


def walk(count):
    """@main summing @t: [count x i64] through a pointer stepped by one
    element a trip, for s & 15 trips."""
    return ("global @t: [%d x i64] = 00\n"
            "func @main(%%s: secret i64) -> i64 {\nentry:\n"
            "  %%n = and i64 %%s, 15\n  %%p0 = gep i64 @t, 0\n  br loop\n"
            "loop:\n  %%k = phi i64 [entry: 0, loop: %%k1]\n"
            "  %%p1 = phi addr [entry: %%p0, loop: %%p2]\n"
            "  %%acc = phi i64 [entry: 0, loop: %%a1]\n"
            "  %%v = load i64, %%p1\n  %%a1 = add i64 %%acc, %%v\n"
            "  %%p2 = gep i64 %%p1, 1\n  %%k1 = add i64 %%k, 1\n"
            "  %%c = icmp lt %%k1, %%n\n  condbr %%c, loop, done\n"
            "done:\n  ret %%a1\n}\n" % count)


EXACT_OR_INDEXED = (
    "global @t: [16 x i64] = 00\n"
    "func @main(%s: secret i64) -> i64 {\nentry:\n"
    "  %i = and i64 %s, 15\n  %e = gep i64 @t, 0\n"
    "  %c = icmp lt %s, 8\n  condbr %c, a, j\n"
    "a:\n  %q = gep i64 @t, %i\n  br j\n"
    "j:\n  %p = phi addr [entry: %e, a: %q]\n  %v = load i64, %p\n"
    "  ret %v\n}\n")

PAST_END_AND_BACK = (
    "global @t: [16 x i64] = 00\n"
    "func @main(%s: secret i64) -> i64 {\nentry:\n"
    "  %e = gep i64 @t, 16\n  %p = gep i64 %e, -1\n"
    "  %c = icmp lt %s, 8\n  condbr %c, a, b\n"
    "a:\n  %v = load i64, %p\n  ret %v\nb:\n  ret 0\n}\n")


def call_chain(depth):
    """@main passing @g down @f1 -> ... -> @f<depth>, listed callee
    first; the deepest loads @g[s & 3]."""
    fns = ["func @f%d(%%p: addr, %%s: secret i64) -> i64 {\nentry:\n"
           "  %%r = call @f%d(%%p, %%s)\n  ret %%r\n}\n" % (k, k + 1)
           for k in range(depth - 1, 0, -1)]
    return ("global @g: [4 x i64] = 00\n"
            "func @f%d(%%p: addr, %%s: secret i64) -> i64 {\nentry:\n"
            "  %%i = and i64 %%s, 3\n  %%q = gep i64 %%p, %%i\n"
            "  %%v = load i64, %%q\n  ret %%v\n}\n" % depth
            + "".join(fns) +
            "func @main(%s: secret i64) -> i64 {\nentry:\n"
            "  %r = call @f1(@g, %s)\n  ret %r\n}\n")


def plans(hm):
    return [(e.site, e.off, e.length, e.stride)
            for rec in hm.dflmeta.values() for e in rec.entries]


def hardens_and_verifies(src, pairs=4):
    hm, _ = harden_module(parse_module(src), PipelineConfig())
    verdicts = verify_module(parse_module(src), hm, pairs=pairs)
    assert len(verdicts) == 4
    assert all(v.passed for v in verdicts), verdicts
    return hm


def assert_in_object(pt):
    """Every set of pt holds at most one element per object, and each
    element lies inside its object and ends on its own ladder."""
    for table in (pt.vals, pt.mem):
        for key, elems in table.items():
            objs = [e[0] for e in elems]
            assert len(objs) == len(set(objs)), (key, elems)
            for obj, lo, hi, st in elems:
                n = max(1, pt.sizes.get(obj, 0))
                assert 0 <= lo <= hi < n and st >= 0, (key, elems)
                assert lo == hi or st > 0 and (hi - lo) % st == 0, \
                    (key, elems)


class TestOneElementPerObject:
    def test_pointer_walk_plans_the_object_once(self):
        hm = hardens_and_verifies(walk(16))
        assert plans(hm) == [("g:@t", 0, 128, 8)]

    def test_exact_and_indexed_phi_plan_once(self):
        hm = hardens_and_verifies(EXACT_OR_INDEXED)
        assert plans(hm) == [("g:@t", 0, 128, 8)]

    def test_deep_callee_first_chain_solves(self, tmp_path, capsys):
        from ctlin.cli import EXIT_OK, main
        orig, hard = tmp_path / "chain.ir", tmp_path / "chain.hard.ir"
        orig.write_text(call_chain(211))
        assert main(["harden", str(orig), "--emit", str(hard)]) == EXIT_OK
        assert main(["verify", str(orig), str(hard), "--pairs", "4"]) \
            == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_long_walk_keeps_one_element_in_the_object(self):
        pt = andersen_solve(parse_module(walk(8192)))
        assert pt.of("main", "p1") == pt.of("main", "p2") == \
            {("g:@t", 0, 65535, 1)}
        assert_in_object(pt)

    def test_pointer_past_the_end_and_back(self):
        # @t + 128 leaves the object, so its gep and the one that comes
        # back to @t + 120 both stand for the whole object
        pt = andersen_solve(parse_module(PAST_END_AND_BACK))
        assert pt.of("main", "e") == pt.of("main", "p") == \
            {("g:@t", 0, 127, 1)}
        hm = hardens_and_verifies(PAST_END_AND_BACK)
        (site, off, length, _), = plans(hm)
        assert site == "g:@t" and off <= 120 and off + length >= 128

    def test_dynamic_step_ends_inside_the_object(self):
        # an 8-byte step from @s + 4 over a 20-byte object reaches 4 and
        # 12; the ladder used to end at 16, off the step, and the plan
        # ran to byte 24
        hm = hardens_and_verifies(
            "global @s: [5 x i32]\n"
            "func @main(%k: secret i64) -> i64 {\nentry:\n"
            "  %i = and i64 %k, 1\n  %p = gep i32 @s, 1\n"
            "  %q = gep i64 %p, %i\n  %v = load i64, %q\n  ret %v\n}\n")
        assert plans(hm) == [("g:@s", 4, 16, 8)]


T = "g:@t"          # a 128-byte object in the join table below


@pytest.mark.parametrize("a, b, want", [
    # equal elements
    ((T, 8, 8, 0), (T, 8, 8, 0), (T, 8, 8, 0)),
    ((T, 0, 120, 8), (T, 0, 120, 8), (T, 0, 120, 8)),
    # two exact offsets: their hull ladder at the gap
    ((T, 8, 8, 0), (T, 32, 32, 0), (T, 8, 32, 24)),
    ((T, 32, 32, 0), (T, 8, 8, 0), (T, 8, 32, 24)),
    # an exact offset on a ladder and inside it
    ((T, 0, 120, 8), (T, 16, 16, 0), (T, 0, 120, 8)),
    ((T, 16, 16, 0), (T, 0, 120, 8), (T, 0, 120, 8)),
    ((T, 0, 127, 1), (T, 4, 36, 16), (T, 0, 127, 1)),
    # a ladder that grows runs to the object's ends at the gcd stride
    ((T, 8, 24, 16), (T, 40, 40, 0), (T, 8, 120, 16)),
    ((T, 0, 8, 8), (T, 16, 16, 0), (T, 0, 120, 8)),
    # the stride shrinks to the gcd of strides and offsets
    ((T, 0, 120, 8), (T, 4, 4, 0), (T, 0, 124, 4)),
    ((T, 0, 120, 8), (T, 6, 102, 12), (T, 0, 126, 2)),
    ((T, 16, 48, 32), (T, 24, 24, 0), (T, 0, 120, 8)),
])
def test_join(a, b, want):
    assert _join(a, b, 128) == want


@st.composite
def pointer_programs(draw):
    """A program of pointer statements over @t, @s and the slot @cell:
    constant-step walks, phis over exact and indexed geps, field geps,
    stores to and loads from @cell, and a chain of calls that each
    step the pointer they pass down.  @t holds i32 or i64 elements, and
    the exit block loads an i64 through every pointer."""
    n = draw(st.integers(1, 24))
    entry, loop, phis, fns = [], [], [], []
    pool = ["@t", "@s"]         # usable in the entry block and the loop
    late = []                   # usable in the loop only
    for k in range(draw(st.integers(1, 12))):
        in_loop = draw(st.booleans())
        ptrs = pool + late if in_loop else pool
        p = draw(st.sampled_from(ptrs))
        kind = draw(st.sampled_from(["const", "index", "field", "walk",
                                     "phi", "cell", "call"]))
        r = "%%r%d" % k
        if kind == "const":
            line = "%s = gep i64 %s, %d" % (r, p, draw(st.integers(-20, 20)))
        elif kind == "index":
            line = "%s = gep i64 %s, %%i" % (r, p)
        elif kind == "field":
            line = "%s = gep S %s, 0, %s" % (r, p, draw(st.sampled_from(
                ["0", "2", "1, 3", "1, %i"])))
        elif kind == "walk":
            step = draw(st.sampled_from([-2, -1, 1, 2, 3]))
            phis.append("%s = phi addr [entry: %s, loop: %%w%d]"
                        % (r, draw(st.sampled_from(pool)), k))
            loop.append("%%w%d = gep i64 %s, %d" % (k, r, step))
            late.append(r)
            continue
        elif kind == "phi":
            phis.append("%s = phi addr [entry: %s, loop: %s]" % (
                r, draw(st.sampled_from(pool)),
                draw(st.sampled_from(pool + late))))
            late.append(r)
            continue
        elif kind == "cell":
            line = "store addr %s, @cell\n  %s = load addr, @cell" % (p, r)
        else:
            depth = draw(st.integers(1, 4))
            step = draw(st.integers(-2, 2))
            for d in range(depth):
                nxt = ("%%q = call @c%d.%d(%%v)" % (k, d + 1)
                       if d + 1 < depth else "%q = gep i64 %v, 0")
                fns.append("func @c%d.%d(%%p: addr) -> addr {\nentry:\n"
                           "  %%v = gep i64 %%p, %d\n  %s\n  ret %%q\n}\n"
                           % (k, d, step, nxt))
            line = "%s = call @c%d.0(%s)" % (r, k, p)
        (loop if in_loop else entry).append(line)
        (late if in_loop else pool).append(r)
    done = ["%%v%d = load i64, %s" % (k, p)
            for k, p in enumerate(pool + late)]
    blocks = tuple("".join("  %s\n" % ln for ln in lines)
                   for lines in (entry, phis, loop, done))
    return ("global @t: [%d x %s] = 00\n"
            "global @s: {a: i64, b: [4 x i32], c: i64} = 00\n"
            "global @cell: addr = 00\n%s"
            "func @main(%%i: i64) -> i64 {\nentry:\n%s  br loop\n"
            "loop:\n%s%s  %%c = icmp lt %%i, 3\n  condbr %%c, loop, done\n"
            "done:\n%s  ret 0\n}\n"
            % ((n, draw(st.sampled_from(["i32", "i64"])), "".join(fns))
               + blocks)
            ).replace("gep S", "gep {a: i64, b: [4 x i32], c: i64}")


@settings(max_examples=200, deadline=None)
@given(pointer_programs())
def test_solved_sets_stay_inside_their_objects(src):
    m = parse_module(src)
    assert validate(m) == [], src
    pt = andersen_solve(m)
    assert_in_object(pt)
    build_metadata(m, {i.iid for i in m.instructions()
                       if i.op in ("load", "store")}, pt)
    for rec in m.dflmeta.values():
        for e in rec.entries:
            assert 0 <= e.off and e.off + e.length <= pt.sizes[e.site], src


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

    def test_placements_of_no_single_ladder_stay_whole(self):
        # i64 slots at 0, 8 and 17: two gaps, so no one ladder covers them
        m = parse_module(
            "global @t: {a: i64, b: i64, c: i8, d: i64} = 00\n"
            "func @main(%i: i64) -> i64 {\nentry:\n"
            "  %p = gep i64 @t, 0\n  %q = add i64 %p, %i\n"
            "  %v = load i64, %q\n  ret %v\n}\n")
        pt = refine_field_sensitivity(m, andersen_solve(m))
        assert pt.of("main", "q") == {("g:@t", 0, 24, 1)}

    @staticmethod
    def masked_bump(ty, mask):
        """@main adding 1 to the byte of @t at secret & mask."""
        return ("global @t: %s\n"
                "func @main(%%s: secret i64) -> i64 {\nentry:\n"
                "  %%m = and i64 %%s, %d\n  %%p = gep i8 @t, %%m\n"
                "  %%v = load i8, %%p\n  %%w = add i8 %%v, 1\n"
                "  store i8 %%w, %%p\n  %%r = and i64 %%m, 1\n"
                "  ret %%r\n}\n" % (ty, mask))

    @pytest.mark.parametrize("ty, mask", [
        # more one-byte slots than a listing of placements once held
        ("[16384 x i8]", 16383),
        # slots nested deeper than such a listing once walked
        ("{a: i8, b: %si8%s}" % ("[2 x " * 9, "]" * 9), 511)])
    def test_every_reachable_slot_is_planned(self, ty, mask):
        src = self.masked_bump(ty, mask)
        hm, _ = harden_module(parse_module(src), PipelineConfig())
        assert [(e.site, e.off, e.length) for rec in hm.dflmeta.values()
                for e in rec.entries] == [("g:@t", 0, mask + 1)] * 2
        verdicts = verify_module(parse_module(src), hm)
        assert len(verdicts) == 4
        assert all(v.passed for v in verdicts), verdicts


def placements(ty, size, off=0):
    """Every offset where a size-byte scalar sits naturally in ty,
    listed one by one with no cap: the reference for `_ladder`."""
    if ty.kind in ("int", "addr"):
        return [off] if size_of(ty) == size else []
    if ty.kind == "array":
        esz = size_of(ty.elem)
        return [o for k in range(ty.count)
                for o in placements(ty.elem, size, off + k * esz)]
    out = []
    for _, ft in ty.fields:
        out += placements(ft, size, off)
        off += size_of(ft)
    return out


def type_trees(depth):
    scalars = st.sampled_from([I1, I8, I32, I64, ADDR])
    if depth == 0:
        return scalars
    inner = type_trees(depth - 1)
    return st.one_of(
        scalars,
        st.builds(lambda t, n: Type("array", elem=t, count=n),
                  inner, st.integers(0, 4)),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda fs: Type("agg", fields=tuple(
                ("f%d" % k, t) for k, t in enumerate(fs)))))


@settings(max_examples=300, deadline=None)
@given(type_trees(4), st.sampled_from([1, 4, 8]))
def test_ladder_matches_every_listed_placement(ty, size):
    offs = placements(ty, size)
    gaps = {b - a for a, b in zip(offs, offs[1:])}
    if not offs:
        want = None
    elif len(gaps) > 1:
        want = False
    else:
        want = (offs[0], offs[-1], gaps.pop() if gaps else 0)
    assert _ladder(ty, size) == want, (str(ty), offs)


def guarded(cond, body, ty="i8", count=64, params="%s: secret i64",
            yes="yes", no="no"):
    """@main loading @t[%i] in block `yes`, entered from `cond`'s condbr
    over `%c`; `body` defines %i (and anything else) in `yes`."""
    return ("global @t: [%d x %s] = 00\n"
            "func @main(%s) -> %s {\nentry:\n%s"
            "  condbr %%c, %s, %s\n"
            "yes:\n%s  %%p = gep %s @t, %%i\n  %%v = load %s, %%p\n"
            "  ret %%v\nno:\n  ret 0\n}\n"
            % (count, ty, params, ty, cond, yes, no, body, ty, ty))


def narrowed(src):
    """Points-to elements of %p once every load is narrowed."""
    m = parse_module(src)
    assert validate(m) == []
    pt = refine_field_sensitivity(m, andersen_solve(m))
    loads = {i.iid for i in m.instructions() if i.op == "load"}
    return refine_index_ranges(m, pt, loads).of("main", "p")


WHOLE = {("g:@t", 0, 63, 1)}
SAME = "  %i = add i64 %s, 0\n"


class TestIndexRanges:
    def test_table_lookup_plans_at_every_lambda_and_scheme(self):
        for lam in (1, 4, 64):
            for scheme in range(1, 6):
                hm, _ = hardened("table_lookup", lam=lam, scheme=scheme)
                plans = {e.site: (e.off, e.length, e.stride)
                         for rec in hm.dflmeta.values()
                         for e in rec.entries}
                assert plans == {"g:@tableA": (0, 4096, 1),
                                 "g:@tableB": (0, 4096, 1),
                                 "g:@last_result": (0, 1, 1)}

    def test_lt_true_edge(self):
        assert narrowed(guarded("  %c = icmp lt %s, 16\n", SAME)) == \
            {("g:@t", 0, 15, 1)}

    def test_lt_false_edge_reads_as_ge(self):
        src = guarded("  %c = icmp lt %s, 40\n", SAME, yes="no", no="yes")
        assert narrowed(src) == {("g:@t", 40, 63, 1)}

    def test_le(self):
        assert narrowed(guarded("  %c = icmp le %s, 9\n", SAME)) == \
            {("g:@t", 0, 9, 1)}

    def test_gt_with_the_index_second(self):
        assert narrowed(guarded("  %c = icmp gt 10, %s\n", SAME)) == \
            {("g:@t", 0, 9, 1)}

    def test_eq_narrows_to_one_element_and_ne_does_not(self):
        assert narrowed(guarded("  %c = icmp eq %s, 7\n", SAME)) == \
            {("g:@t", 7, 7, 0)}
        assert narrowed(guarded("  %c = icmp ne %s, 7\n", SAME)) == WHOLE
        # the false edge of ne is eq
        src = guarded("  %c = icmp ne %s, 7\n", SAME, yes="no", no="yes")
        assert narrowed(src) == {("g:@t", 7, 7, 0)}

    def test_guarded_block_with_a_second_predecessor(self):
        src = guarded("  %c = icmp lt %s, 16\n", SAME).replace(
            "condbr %c, yes, no\n", "condbr %c, yes, side\n"
            "side:\n  br yes\n")
        assert narrowed(src) == WHOLE

    def test_guard_on_another_register(self):
        src = guarded("  %c = icmp lt %u, 16\n", SAME,
                      params="%s: secret i64, %u: secret i64")
        assert narrowed(src) == WHOLE

    def test_guard_from_a_dominator_above_a_join(self):
        # the guard edge enters `yes`, which dominates the gep's block
        # through a diamond whose join has two predecessors
        src = guarded("  %c = icmp lt %s, 16\n",
                      "  %d = icmp eq %s, 3\n  condbr %d, l, r\n"
                      "l:\n  br j\nr:\n  br j\nj:\n" + SAME)
        assert narrowed(src) == {("g:@t", 0, 15, 1)}

    def test_mask_then_guard(self):
        src = guarded("  %m = and i64 %s, 255\n  %c = icmp lt %m, 100\n",
                      "  %i = add i64 %m, 0\n", count=1024)
        assert narrowed(src) == {("g:@t", 0, 99, 1)}
        # the mask alone bounds the index
        src = guarded("  %m = and i64 %s, 255\n  %c = icmp lt %s, 5000\n",
                      "  %i = lshr i64 %m, 2\n", count=1024)
        assert narrowed(src) == {("g:@t", 0, 63, 1)}

    def test_add_after_the_guard(self):
        src = guarded("  %c = icmp lt %s, 16\n", "  %i = add i64 %s, 5\n")
        assert narrowed(src) == {("g:@t", 0, 20, 1)}
        # s - 5 wraps from the bottom of the range to the top
        src = guarded("  %c = icmp lt %s, 16\n", "  %i = sub i64 %s, 5\n")
        assert narrowed(src) == WHOLE
        src = guarded("  %m = and i64 %s, 255\n  %c = icmp lt %m, 16\n",
                      "  %i = sub i64 %m, 5\n")
        assert narrowed(src) == {("g:@t", 0, 10, 1)}

    def test_hull_of_an_acyclic_phi(self):
        src = guarded("  %c = icmp lt %s, 16\n",
                      "  condbr %c, l, r\nl:\n  br j\nr:\n  br j\nj:\n"
                      "  %i = phi i64 [l: %s, r: 40]\n")
        assert narrowed(src) == {("g:@t", 0, 40, 1)}

    def test_loop_carried_index(self):
        src = ("global @t: [64 x i8] = 00\n"
               "func @main(%n: i64) -> i8 {\nentry:\n  br head\n"
               "head:\n  %k = phi i64 [entry: 0, use: %k1]\n"
               "  %c = icmp lt %k, %n\n  condbr %c, body, done\n"
               "body:\n  %d = icmp gt %k, -1\n  condbr %d, use, done\n"
               "use:\n  %p = gep i8 @t, %k\n  %v = load i8, %p\n"
               "  %k1 = add i64 %k, 1\n  br head\ndone:\n  ret 0\n}\n")
        # the guard bounds %k from below only: its def is a phi with a
        # back-edge operand, so nothing bounds it from above
        assert narrowed(src) == WHOLE

    def test_empty_range_keeps_the_plan(self):
        assert narrowed(guarded("  %c = icmp lt %s, 0\n", SAME)) == WHOLE
        src = guarded("  %c = icmp lt %s, 10\n",
                      "  %d = icmp gt %s, 20\n  condbr %d, in, out\n"
                      "out:\n  ret 1\nin:\n" + SAME)
        assert narrowed(src) == WHOLE
        # no profiling run reaches the load, but it sits under a secret
        # branch, so it is planned, and hardening goes through
        hm, rep = harden_module(parse_module(src), PipelineConfig())
        (rec,) = hm.dflmeta.values()
        assert (rec.entries[0].off, rec.entries[0].length) == (0, 64)

    def test_narrower_index_register_is_left_whole(self):
        src = guarded("  %w = and i32 %x, 255\n  %c = icmp lt %w, 16\n",
                      "  %i = add i32 %w, 0\n", params="%x: secret i32")
        assert narrowed(src) == WHOLE

    WRAP = guarded("  %c = icmp lt %s, 16\n", SAME, ty="i64", count=32)

    def test_wrapping_product_keeps_the_whole_plan(self, tmp_path):
        # index * 8 wraps: secret 2^63 + k passes `lt 16` and reads t[k]
        assert narrowed(self.WRAP) == {("g:@t", 0, 248, 8)}
        init = "".join((7 * k + 1).to_bytes(8, "little").hex()
                       for k in range(32))
        src = self.WRAP.replace("] = 00", "] = " + init)
        suite = tmp_path / "suite"
        suite.write_text(format_suite([ExecInput([], [s])
                                       for s in (3, 9, 20, 40000)]))
        hm, _ = harden_module(parse_module(src),
                              PipelineConfig(suite_path=str(suite)))
        (rec,) = hm.dflmeta.values()
        assert (rec.entries[0].off, rec.entries[0].length) == (0, 256)
        for s in (0x8000000000000003, 0x8000000000000014):
            want = interpret(parse_module(src), ExecInput([], [s]))
            got = interpret(hm, ExecInput([], [s]))
            assert want.abort is None and want.output == 7 * (s & 31) + 1
            assert got.output == want.output and got.violations == []


_PREDS = ("lt", "le", "gt", "ge", "eq", "ne")
_SWAP = dict(zip(_PREDS, ("gt", "ge", "lt", "le", "eq", "ne")))
_NEGATE = dict(zip(_PREDS, ("ge", "gt", "le", "lt", "ne", "eq")))


@st.composite
def guarded_lookups(draw):
    """(source, guard constant, table length) of a lookup whose guard is
    written in any of its four spellings, on the index or on what the
    index derives from.  Every secret of the default suite that passes
    the guard reads in bounds, so the program profiles cleanly."""
    ty = draw(st.sampled_from(["i8", "i64"]))
    n = draw(st.integers(256, 1024))
    pre, src = "", "s"
    if draw(st.booleans()):
        mask = draw(st.integers(0, n - 1))
        pre, src = "  %%m = and i64 %%s, %d\n" % mask, "m"
        pred = draw(st.sampled_from(_PREDS))
    else:
        mask = None
        pred = draw(st.sampled_from(["lt", "le", "eq"]))
    derive = draw(st.sampled_from(["same", "add", "lshr"]))
    c = 0
    if derive == "add":
        c = draw(st.integers(0, 8 if mask is None else min(8, n - 1 - mask)))
        body = "  %%i = add i64 %%%s, %d\n" % (src, c)
    elif derive == "lshr":
        body = "  %%i = lshr i64 %%%s, %d\n" % (src, draw(st.integers(0, 3)))
    else:
        body = "  %%i = add i64 %%%s, 0\n" % src
    k = draw(st.integers(-4, n + 4) if mask is not None
             else st.integers(0, n - 1 - c))
    on = draw(st.sampled_from([src, "i"]))
    taken = draw(st.booleans())
    written = pred if taken else _NEGATE[pred]
    args = "%%%s, %d" % (on, k)
    if draw(st.booleans()):
        written, args = _SWAP[written], "%d, %%%s" % (k, on)
    cond = "  %%c = icmp %s %s\n" % (written, args)
    if on == "i":       # the index is defined before the guard reads it
        pre, body = pre + body, ""
    text = guarded(pre + cond, body, ty=ty, count=n,
                   yes="yes" if taken else "no",
                   no="no" if taken else "yes")
    return text, k, n


@settings(max_examples=100, deadline=None)
@given(guarded_lookups())
def test_narrowed_plans_cover_every_live_access(case):
    text, k, n = case
    orig = parse_module(text)
    hm, _ = harden_module(parse_module(text), PipelineConfig())
    codes = Code(orig), Code(hm)
    secrets = [i.secrets[0] for i in default_suite(orig)]
    secrets += [(v) % (1 << 64) for v in (k - 1, k, k + 1)]
    secrets += [(1 << 63) + v for v in (3, k % n, n - 1)]
    for s in secrets:
        want, got = (Machine(m, code=c).run(ExecInput([], [s]))
                     for m, c in zip((orig, hm), codes))
        if want.abort is not None:      # out of bounds in the original
            continue
        assert got.abort is None and got.output == want.output, (text, s)
        assert not [v for v in got.violations if v[0] == "miss"], (text, s)


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
