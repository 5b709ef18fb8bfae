"""Exit unification, region recovery, latch and dispatch rewrites."""

import functools
import hashlib
import importlib.util
import os
import sys
import time

import pytest

from conftest import corpus_src, load
from ctlin import cfg as cfglib
from ctlin import normalize
from ctlin.interp import ExecInput, interpret
from ctlin.ir import parse_module, print_module, validate
from ctlin.normalize import (NormalizeError, Region, _nest,
                             normalize_regions, promote_indirect_calls,
                             unify_exits)
from ctlin.pipeline import harden_module
from ctlin.pta import andersen_solve, resolve_indirect_targets
from ctlin.verify import verify_module
from test_cfl import nested_chain

MULTI_RET = """\
func @main(%s: secret i64) -> i64 {
entry:
  %b = and i64 %s, 1
  %c = icmp eq %b, 1
  condbr %c, a, b
a:
  ret 10
b:
  ret 20
}
"""

IRREDUCIBLE = """\
func @main(%s: i64) -> i64 {
entry:
  %c = icmp eq %s, 0
  condbr %c, a, b
a:
  %c2 = icmp eq %s, 1
  condbr %c2, b, done
b:
  %c3 = icmp eq %s, 2
  condbr %c3, a, done
done:
  ret 0
}
"""


class TestUnifyExits:
    def test_single_ret_after(self):
        m = parse_module(MULTI_RET)
        unify_exits(m)
        rets = [i for i in m.funcs["main"].instructions() if i.op == "ret"]
        assert len(rets) == 1
        assert validate(m) == []

    def test_behavior_unchanged(self):
        m = parse_module(MULTI_RET)
        unify_exits(m)
        for s in range(4):
            assert interpret(m, ExecInput([], [s])).output == \
                (10 if s & 1 else 20)

    def test_idempotent(self):
        m = parse_module(MULTI_RET)
        unify_exits(m)
        once = len(list(m.funcs["main"].instructions()))
        unify_exits(m)
        assert len(list(m.funcs["main"].instructions())) == once


class TestRegions:
    def test_nested_branch_tree(self):
        m = load("nested_branches")
        unify_exits(m)
        rt = normalize_regions(m)
        outer = rt.branch_at("main", "entry")
        assert outer is not None
        inner = rt.branch_at("main", "outer.else")
        assert inner is not None
        assert inner.parent is outer
        assert inner.blocks < outer.blocks
        assert outer.exit == "join"

    def test_loop_regions(self):
        m = load("exp_loop_pair")
        unify_exits(m)
        rt = normalize_regions(m)
        loops = [r for r in rt.by_id.values() if r.kind == "loop"]
        assert len(loops) == 2
        for r in loops:
            assert r.latch is not None
            assert r.exit is not None

    def test_latch_keeps_its_written_polarity(self):
        # corpus latches say "continue on true", and normalize leaves
        # them so; only cfl, when it pads a loop, rewrites a latch
        m = load("exp_loop_pair")
        written = {lbl: list(b.terminator.labels)
                   for lbl, b in m.funcs["main"].blocks.items()}
        unify_exits(m)
        rt = normalize_regions(m)
        fn = m.funcs["main"]
        loops = [r for r in rt.by_id.values() if r.kind == "loop"]
        assert loops
        for r in loops:
            term = fn.blocks[r.latch].instrs[-1]
            assert term.op == "condbr"
            assert term.labels == written[r.latch] == [r.entry, r.exit]
            assert fn.blocks[r.latch].instrs[-2].op != "xor"
        # and the pass kept the program's meaning
        m2 = load("exp_loop_pair")
        for base in (2, 3):
            for s in range(8):
                assert interpret(m, ExecInput([base], [s])).output == \
                    interpret(m2, ExecInput([base], [s])).output

    def test_irreducible_rejected(self):
        m = parse_module(IRREDUCIBLE)
        unify_exits(m)
        with pytest.raises(NormalizeError):
            normalize_regions(m)

    def test_region_blocks_partition(self):
        m = load("covering_loop")
        unify_exits(m)
        rt = normalize_regions(m)
        fn = m.funcs["main"]
        root = rt.roots["main"]
        claimed = set()
        stack = list(root.children)
        while stack:
            r = stack.pop()
            stack += r.children
            if r.kind != "linear":
                claimed |= r.blocks
        assert claimed <= set(fn.blocks)


class TestIndirectCalls:
    def test_promotion_adds_dispatch(self):
        m = load("fn_table_dispatch")
        unify_exits(m)
        targets = resolve_indirect_targets(m, andersen_solve(m))
        assert len(targets) == 1
        (iid, cands), = targets.items()
        assert cands == ["f", "g"]
        promote_indirect_calls(m, targets)
        assert validate(m) == []
        icalls = [i for i in m.funcs["main"].instructions()
                  if i.op == "icall"]
        assert icalls == []
        callees = {i.callee for i in m.funcs["main"].instructions()
                   if i.op == "call"}
        assert {"f", "g"} <= callees

    def test_dispatch_behavior(self):
        m = load("fn_table_dispatch")
        ref = load("fn_table_dispatch")
        unify_exits(m)
        promote_indirect_calls(m, resolve_indirect_targets(m,
                                                           andersen_solve(m)))
        for a in (0, 5, 100):
            for s in range(4):
                assert interpret(m, ExecInput([a], [s])).output == \
                    interpret(ref, ExecInput([a], [s])).output


def icall_module(n: int, spread: bool = True) -> str:
    """@main makes n chained icalls in its entry block; with spread, more
    in a branch arm and in the join after it, whose phi names the last
    block of the entry's chain."""
    lines = ["func @f(%x: i64) -> i64 {", "entry:", "  %r = add i64 %x, 10",
             "  ret %r", "}",
             "func @g(%x: i64) -> i64 {", "entry:", "  %r = mul i64 %x, 3",
             "  ret %r", "}",
             "func @main(%a: i64) -> i64 {", "entry:", "  %c = icmp eq %a, 0",
             "  %fp = select %c, @f, @g", "  %v0 = icall %fp(%a)"]
    for k in range(1, n):
        lines.append("  %%v%d = icall %%fp(%%v%d)" % (k, k - 1))
    last = "%%v%d" % (n - 1)
    if spread:
        lines += ["  %%d = icmp lt %s, 100" % last, "  condbr %d, a, join",
                  "a:", "  %%w = icall %%fp(%s)" % last,
                  "  %w2 = icall @f(%w)", "  br join",
                  "join:", "  %%u = phi i64 [entry: %s, a: %%w2]" % last,
                  "  %u2 = icall %fp(%u)", "  ret %u2", "}"]
    else:
        lines += ["  ret %s" % last, "}"]
    return "\n".join(lines) + "\n"


class TestIndirectCallScaling:
    def test_emitted_module_unchanged(self):
        # pins the blocks, labels and ids promotion emits for this program;
        # each chain is named after the block the scan started in and its
        # icall (entry.ic7.*, where it used to be entry.ic6.join.ic7.*)
        m = parse_module(icall_module(3))
        promote_indirect_calls(m, resolve_indirect_targets(m,
                                                           andersen_solve(m)))
        assert validate(m) == []
        text = print_module(m)
        assert "icall" not in text
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "ba144d73f7e7f3d36949761289b0ff2d5e12ef9b82e670775684e90cf76f82da"
        ref = parse_module(icall_module(3))
        for a in (0, 1, 50, 200):
            assert interpret(m, ExecInput([a], [])).output == \
                interpret(ref, ExecInput([a], [])).output

    def test_many_icalls_in_one_block_are_linear(self):
        # restarting the scan at the first block after each expansion is
        # quadratic: about 0.5 s for 800 icalls on a 2-vCPU machine, where
        # one pass takes a few hundredths
        m = parse_module(icall_module(800, spread=False))
        targets = resolve_indirect_targets(m, andersen_solve(m))
        t0 = time.perf_counter()
        promote_indirect_calls(m, targets)
        took = time.perf_counter() - t0
        assert not any(i.op == "icall" for i in m.instructions())
        assert len(m.funcs["main"].blocks) == 1 + 5 * 800
        assert took < 0.25, took
        # labels named after the split block grew with each icall, and
        # the printed module with the square of their count
        assert max(map(len, m.funcs["main"].blocks)) < 20  # entry.ic805.join
        assert len(print_module(m)) < 600_000


# the loop header is the entry block, so its preheader becomes the entry
ENTRY_HEADER = """\
global @n: [1 x i64]
func @main(%s: secret i64) -> i64 {
head:
  %c = load i64, @n
  %c2 = add i64 %c, 1
  store i64 %c2, @n
  %b = and i64 %s, 3
  %d = icmp gt %c2, %b
  condbr %d, done, head
done:
  ret %c2
}
"""

# a secret branch enters the loop from two blocks; the preheader merges
# their phi values
TWO_OUTER_PREDS = """\
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %t = and i64 %s, 4
  %c = icmp eq %t, 0
  condbr %c, a, b
a:
  br head
b:
  br head
head:
  %i = phi i64 [a: 0, b: 1, latch: %i2]
  %acc = phi i64 [a: 7, b: %p, latch: %acc2]
  br latch
latch:
  %acc2 = add i64 %acc, %i
  %i2 = add i64 %i, 1
  %n = and i64 %s, 3
  %d = icmp gt %i2, %n
  condbr %d, done, head
done:
  ret %acc2
}
"""


class TestPreheaders:
    def test_entry_header_gets_new_entry(self):
        m = parse_module(ENTRY_HEADER)
        unify_exits(m)
        normalize_regions(m)
        fn = m.funcs["main"]
        assert fn.entry.label == "head.pre"
        assert validate(m) == []

    def test_two_outer_preds_merge_in_preheader(self):
        m = parse_module(TWO_OUTER_PREDS)
        unify_exits(m)
        normalize_regions(m)
        pre = m.funcs["main"].blocks["head.pre"]
        assert [i.name for i in pre.phis()] == ["i.pre", "acc.pre"]
        assert validate(m) == []

    @pytest.mark.parametrize("src", [ENTRY_HEADER, TWO_OUTER_PREDS],
                             ids=["entry-header", "two-outer-preds"])
    def test_hardens_and_verifies(self, src):
        hm, rep = harden_module(parse_module(src))
        assert rep["loops_linearized"] == 1
        verdicts = verify_module(parse_module(src), hm, pairs=8)
        assert len(verdicts) == 4
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


# The input already holds each name the passes add: the exit block and
# its phi, a preheader label and a preheader phi.
EXIT_NAMES_TAKEN = """\
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %b = and i64 %s, 1
  %c = icmp eq %b, 0
  condbr %c, one, two
one:
  ret 1
two:
  %ret.val = add i64 %p, 2
  br exit.unified
exit.unified:
  ret 2
}
"""

LOOP_NAMES_TAKEN = """\
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %t = and i64 %s, 7
  %c = icmp eq %p, 0
  condbr %c, head.pre, head
head.pre:
  %i.pre = add i64 %p, 1
  br head
head:
  %i = phi i64 [entry: 0, head.pre: %i.pre, head: %i.n]
  %i.n = add i64 %i, 1
  %head.exitc = icmp lt %i.n, %t
  condbr %head.exitc, head, out
out:
  ret %i.n
}
"""


# The icall (iid 7) would name its chain entry.ic7.*, and the input
# already holds a block entry.ic7.join.
ICALL_NAMES_TAKEN = """\
func @f(%x: i64) -> i64 {
entry:
  %r = add i64 %x, 10
  ret %r
}
func @g(%x: i64) -> i64 {
entry:
  %r = mul i64 %x, 3
  ret %r
}
func @main(%p: i64, %s: secret i64) -> i64 {
entry:
  %c = icmp eq %p, 0
  %fp = select %c, @f, @g
  %s1 = add i64 %s, 1
  %v = icall %fp(%s1)
  br entry.ic7.join
entry.ic7.join:
  %w = add i64 %v, 1
  ret %w
}
"""


class TestNamesTaken:
    @pytest.mark.parametrize("src", [EXIT_NAMES_TAKEN, LOOP_NAMES_TAKEN,
                                     ICALL_NAMES_TAKEN],
                             ids=["exit", "loop", "icall"])
    def test_harden_and_verify_pass(self, tmp_path, capsys, src):
        from ctlin.cli import EXIT_OK, main
        orig, hard = tmp_path / "p.ir", tmp_path / "p.hard.ir"
        orig.write_text(src)
        assert main(["harden", str(orig), "--emit", str(hard)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(orig), str(hard), "--pairs", "8",
                     "--space", "64"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS ") for line in lines), lines

    def test_fresh_names_only_where_taken(self):
        m = parse_module(LOOP_NAMES_TAKEN)
        unify_exits(m)
        normalize_regions(m)
        fn = m.funcs["main"]
        assert "head.pre.1" in fn.blocks
        assert [i.name for i in fn.blocks["head.pre.1"].phis()] == \
            ["i.pre.1"]
        assert validate(m) == []
        m = parse_module(EXIT_NAMES_TAKEN)
        unify_exits(m)
        fn = m.funcs["main"]
        assert "exit.unified.1" in fn.blocks
        assert fn.blocks["exit.unified.1"].phis()[0].name == "ret.val.1"
        for s in range(4):
            assert interpret(m, ExecInput([0], [s])).output == \
                (1 if s % 2 == 0 else 2)


class TestRegionWalk:
    @staticmethod
    def outer_and(entry, blocks):
        root = Region("linear", "f", "e", None, set("abcde"))
        outer = Region("branch", "f", "c", None, {"b", "c", "d"})
        return root, outer, Region("branch", "f", entry, None, blocks)

    def test_nest_by_containment(self):
        root, outer, inner = self.outer_and("d", {"d"})
        _nest([inner, outer], root)
        assert (inner.parent, outer.parent) == (outer, root)
        assert (root.children, outer.children) == ([outer], [inner])

    @pytest.mark.parametrize("entry,blocks", [
        ("a", {"a", "b"}),      # reaches into the other region
        ("d", {"d", "e"}),      # starts inside it, ends outside
    ])
    def test_nest_refuses_partial_overlap(self, entry, blocks):
        root, outer, inner = self.outer_and(entry, blocks)
        with pytest.raises(NormalizeError) as ei:
            _nest([inner, outer], root)
        assert str(ei.value) == \
            "regions at '%s' and 'c' overlap without nesting" % entry


def walked_span(fn, g, entry: str, join: str) -> set:
    """A branch span walked from scratch, one dominance query per block,
    as normalize did before spans were built inside out."""
    span = {entry}
    work = [t for t in fn.blocks[entry].terminator.labels if t != join]
    while work:
        n = work.pop()
        if n in span or n == join:
            continue
        if not g.dominates(entry, n):
            raise NormalizeError(
                "@%s: block '%s' enters branch at '%s' sideways"
                % (fn.name, n, entry))
        span.add(n)
        for s in g.succs[n]:
            work.append(s)
    for n in span - {entry}:
        for p in g.preds[n]:
            if p not in span:
                raise NormalizeError(
                    "@%s: branch at '%s' is entered at '%s' from outside"
                    % (fn.name, entry, n))
    return span


def _walked_spans(fn, g, joins):
    return {e: walked_span(fn, g, e, j) for e, j in joins.items()
            if j is not None}


@functools.cache
def _scale_programs() -> dict:
    """The benchmark's `scale` programs at seed 7."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", (
        os.path.join(os.path.dirname(__file__), "..", "perfbench",
                     "workloads.py")))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads    # for its dataclass
    spec.loader.exec_module(workloads)
    return {"scale." + j.name: j.text for j in workloads.scale_jobs(7)}


def _tree(text: str) -> list:
    m = parse_module(text)
    unify_exits(m)
    rt = normalize_regions(m)
    return sorted((r.rid, r.exit, sorted(r.blocks), r.parent.rid,
                   [c.rid for c in r.children]) for r in rt.by_id.values())


class TestBranchSpans:
    """Spans are built inside out, so a nest of n branches costs O(n)
    dominance queries, and the regions and bytes are those of a walk
    from scratch."""

    def test_deep_nest_is_linear_in_queries(self, monkeypatch):
        n = 1000
        m = parse_module(nested_chain(n))
        unify_exits(m)
        calls = [0]
        real = cfglib.CFG.dominates

        def dominates(g, a, b):
            calls[0] += 1
            return real(g, a, b)

        monkeypatch.setattr(cfglib.CFG, "dominates", dominates)
        rt = normalize_regions(m)
        assert len(rt.by_id) == n
        assert calls[0] <= 10 * n

    @pytest.mark.parametrize("name", sorted(
        ["covering_loop", "exp_loop_pair", "fn_table_dispatch", "jit_trip",
         "nested_branches", "store_sweep", "table_lookup", "two_context"]
        + ["nested_chain.%d" % n for n in (1, 2, 3, 7, 20, 50)]
        + ["scale.nested_branches", "scale.secret_loops", "scale.call_tree",
           "scale.guarded_bump"]))
    def test_same_regions_and_bytes_as_walks(self, name, monkeypatch):
        if name.startswith("nested_chain."):
            text = nested_chain(int(name.split(".")[1]))
        elif name.startswith("scale."):
            text = _scale_programs()[name]
        else:
            text = corpus_src(name)
        tree = _tree(text)
        hard = print_module(harden_module(parse_module(text))[0])
        monkeypatch.setattr(normalize, "_branch_spans", _walked_spans)
        assert _tree(text) == tree
        assert print_module(harden_module(parse_module(text))[0]) == hard

    def test_sideways_error_as_walked(self, monkeypatch):
        src = ("func @main(%s: i64) -> i64 {\nb0:\n  %c0 = icmp eq %s, 0\n"
               "  condbr %c0, b1, b2\nb1:\n  %c1 = icmp eq %s, 1\n"
               "  condbr %c1, b2, b3\nb2:\n  br b3\nb3:\n  ret 0\n}\n")
        text = "@main: block 'b2' enters branch at 'b1' sideways"
        with pytest.raises(NormalizeError, match=text):
            normalize_regions(parse_module(src))
        monkeypatch.setattr(normalize, "_branch_spans", _walked_spans)
        with pytest.raises(NormalizeError, match=text):
            normalize_regions(parse_module(src))
