"""Differential trace checking: positives, negatives, witnesses."""

import pytest

from conftest import corpus_src, hardened, load
from ctlin.interp import ExecInput, interpret
from ctlin.ir import Reg, parse_module, print_module
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.verify import (check_decoy_invariants, check_equivalence,
                          check_obliviousness, check_pc_security,
                          secret_batch, verify_module)

SPACE = 256


class TestNegativeControls:
    def test_unhardened_corpus_leaks(self, corpus_names):
        for name in corpus_names:
            m = load(name)
            pc = check_pc_security(m, pairs=10, space=SPACE)
            ob = check_obliviousness(m, pairs=10, space=SPACE)
            assert not (pc.passed and ob.passed), name

    def test_witness_names_divergence(self):
        # extremes straddle the bounds check, so the branch flips
        v = check_pc_security(load("table_lookup"), pairs=10, space=8192)
        assert not v.passed
        assert "differs at index" in v.detail
        assert "secrets" in v.detail

    def test_jit_trip_leaks_through_trip_count(self):
        v = check_pc_security(load("jit_trip"), pairs=10, space=16)
        assert not v.passed


class TestPositiveControls:
    def test_verify_module_bundle(self):
        hm, _ = hardened("table_lookup")
        verdicts = verify_module(load("table_lookup"), hm,
                                 lams=[64], pairs=10, space=SPACE)
        names = [v.check for v in verdicts]
        assert names[0] == "pc-security"
        assert "obliviousness@64" in names
        assert "equivalence" in names
        assert names[-1] == "decoy-invariants"
        for v in verdicts:
            assert v.passed, v.line()

    def test_verdict_line_format(self):
        hm, _ = hardened("nested_branches")
        v = check_pc_security(hm, pairs=5, space=8)
        assert v.line().startswith("PASS pc-security: ")

    def test_fine_harden_passes_coarse_views(self):
        h1, _ = hardened("nested_branches", lam=1)
        for lv in (1, 4, 64):
            v = check_obliviousness(h1, lam=lv, pairs=5, space=8)
            assert v.passed, v.line()

    def test_coarse_harden_rejects_finer_view(self):
        h64, _ = hardened("nested_branches")
        v = check_obliviousness(h64, lam=4, pairs=5, space=8)
        assert not v.passed
        assert "not a multiple" in v.detail


def unwrap_store(hm):
    """Swap a wrapped store back to a raw store of the real pointer."""
    fn = hm.funcs["main"]
    defs = {i.name: i for i in fn.instructions() if i.name}
    st = next(i for i in fn.instructions()
              if i.op == "call" and i.callee == "ct_store")
    p_sel, value, mid = st.args
    sel = defs[p_sel.name]
    assert sel.callee == "ct_select"
    praw = sel.args[1]
    rec = hm.dflmeta[mid.value]
    st.op, st.callee, st.ty = "store", None, rec.ty
    st.args = [value, Reg(praw.name)]
    return hm


def unprotect_load(hm, site):
    """Turn one wrapped load back into a raw secret-indexed load."""
    fn = hm.funcs["main"]
    defs = {i.name: i for i in fn.instructions() if i.name}
    for ins in fn.instructions():
        if ins.op == "call" and ins.callee in ("ct_load", "ct_load_nat"):
            rec = hm.dflmeta[ins.args[-1].value]
            if any(e.site == site for e in rec.entries):
                sel = defs[ins.args[0].name]
                praw = sel.args[1] if sel.callee == "ct_select" \
                    else ins.args[0]
                ins.op, ins.callee, ins.ty = "load", None, rec.ty
                ins.args = [Reg(praw.name)]
                return hm
    raise AssertionError("no wrapped load for %s" % site)


class TestMissedProtection:
    def test_raw_secret_load_breaks_obliviousness_only(self):
        hm, _ = harden_module(load("table_lookup"), PipelineConfig())
        unprotect_load(hm, "g:@tableB")
        # the instruction still executes on every path
        pc = check_pc_security(hm, pairs=10, space=SPACE)
        assert pc.passed
        ob = check_obliviousness(hm, pairs=10, space=SPACE)
        assert not ob.passed
        assert "differs at index" in ob.detail

    def test_raw_store_breaks_decoy_invariants(self):
        hm, _ = harden_module(load("store_sweep"), PipelineConfig())
        unwrap_store(hm)
        dv = check_decoy_invariants(hm, pairs=10, space=SPACE)
        assert not dv.passed
        eq = check_equivalence(load("store_sweep"), hm, samples=100,
                               space=SPACE)
        assert not eq.passed

    def test_wrong_result_caught_by_equivalence(self):
        hm, _ = harden_module(load("nested_branches"), PipelineConfig())
        ret = next(i for i in hm.funcs["main"].instructions()
                   if i.op == "ret")
        src = next(i for i in hm.funcs["main"].instructions()
                   if i.name == ret.args[0].name)
        # corrupt the value the hardened module returns
        ret.args = [Reg("ob")]
        eq = check_equivalence(load("nested_branches"), hm, samples=50,
                               space=SPACE)
        assert not eq.passed
        assert "output" in eq.detail
        assert src is not None


DIV_BY_SECRET = """\
func @main(%s: secret i64) -> i64 {
entry:
  %q = div i64 100, %s
  ret %q
}
"""


def stores_global(v):
    return ("global @g: i64\nfunc @main(%%s: secret i64) -> i64 {\nentry:\n"
            "  store i64 %d, @g\n  ret 0\n}\n" % v)


def keeps_heap(v):
    return ("func @main(%%s: secret i64) -> i64 {\nentry:\n"
            "  %%h = heapalloc i64\n  store i64 %d, %%h\n  ret 0\n}\n" % v)


def shrunk_portion():
    """Hardened table_lookup whose @tableB plan covers 64 bytes only."""
    hm, _ = harden_module(load("table_lookup"), PipelineConfig())
    hm.dflmeta[0].entries[0].length = 64
    return hm


class TestFailureVerdicts:
    # each failure path of every check, with its full verdict line
    DIV = [
        (check_pc_security, "FAIL pc-security: abort 'div_zero' under "
                            "secrets [0] (public [])"),
        (check_obliviousness, "FAIL obliviousness@64: abort 'div_zero' "
                              "under secrets [0] (public [])"),
        (check_decoy_invariants, "FAIL decoy-invariants: abort 'div_zero' "
                                 "under secrets [0] (public [])"),
    ]

    @pytest.mark.parametrize("check,line", DIV)
    def test_abort_fails_trace_checks(self, check, line):
        assert check(parse_module(DIV_BY_SECRET), pairs=4,
                     space=8).line() == line

    MISS = "('miss', 0, 73856) under secrets [64] (public [])"

    @pytest.mark.parametrize("check,line", [
        (check_pc_security, "FAIL pc-security: striding violation " + MISS),
        (check_obliviousness,
         "FAIL obliviousness@64: striding violation " + MISS),
        (check_decoy_invariants,
         "FAIL decoy-invariants: access outside plan portions " + MISS),
    ])
    def test_pointer_outside_portions(self, check, line):
        assert check(shrunk_portion(), pairs=4, space=SPACE).line() == line

    # every grid check fails a run on its first decoy violation, then
    # on an abort, then on an access outside the plan: here secrets 4-7
    # miss the plan, load 0 and divide by it
    PLAN_THEN_ABORT = (
        "harden scheme=5 lambda=64\n"
        "global @t: [8 x i64] = " + "01" * 64 + "\n"
        "func @main(%s: secret i64) -> i64 {\nentry:\n"
        "  %i = and i64 %s, 7\n  %p = gep i64 @t, %i\n"
        "  %v = call @ct_load(%p, 0)\n  %q = div i64 64, %v\n"
        "  ret %q\n}\n"
        "dflmeta 0 access=3 kind=load lambda=64 ty=i64 natural=0 "
        "entries=[(site=g:@t, off=0, len=32, stride=8, handler=simple)]\n")

    @pytest.mark.parametrize("check,name", [
        (check_pc_security, "pc-security"),
        (check_obliviousness, "obliviousness@64"),
        (check_decoy_invariants, "decoy-invariants")])
    def test_abort_after_plan_miss_is_the_witness(self, check, name):
        m = parse_module(self.PLAN_THEN_ABORT)
        tr = interpret(m, ExecInput([], [4]))
        assert (tr.violations, tr.abort) == ([("miss", 0, 65568)],
                                             "div_zero")
        assert check(m, pairs=4, space=8).line() == \
            "FAIL %s: abort 'div_zero' under secrets [4] (public [])" % name

    @pytest.mark.parametrize("orig,hard,line", [
        (DIV_BY_SECRET, DIV_BY_SECRET.replace("div", "add"),
         "abort 'div_zero' vs 'None' (public [] secrets [0])"),
        (stores_global(1), stores_global(2),
         "globals differ at @g (public [] secrets [0])"),
        (keeps_heap(1), keeps_heap(2),
         "live heap contents differ (public [] secrets [0])"),
    ], ids=["abort", "globals", "heap"])
    def test_equivalence_differences(self, orig, hard, line):
        v = check_equivalence(parse_module(orig), parse_module(hard),
                              samples=4, space=8)
        assert v.line() == "FAIL equivalence: " + line


class TestBoundRetraining:
    def harden_trained(self, upto):
        import os
        import tempfile

        from ctlin.interp import format_suite
        suite = [ExecInput([], [n]) for n in range(upto)]
        fd, path = tempfile.mkstemp(suffix=".suite")
        os.write(fd, format_suite(suite).encode())
        os.close(fd)
        try:
            hm, _ = harden_module(load("jit_trip"),
                                  PipelineConfig(suite_path=path))
        finally:
            os.unlink(path)
        return hm

    def test_undertrained_bound_warns_not_fails(self):
        hm = self.harden_trained(2)
        v = check_pc_security(hm, pairs=4, space=8)
        assert v.passed, v.line()
        assert v.warnings
        assert any("retried" in w or "grew" in w for w in v.warnings)

    def test_fully_trained_bound_is_quiet(self):
        hm = self.harden_trained(8)
        v = check_pc_security(hm, pairs=4, space=8)
        assert v.passed and not v.warnings

    def test_equivalence_unaffected_by_training(self):
        hm = self.harden_trained(2)
        eq = check_equivalence(load("jit_trip"), hm, samples=100, space=64)
        assert eq.passed, eq.detail

    # verdict lines, with pc-security's warnings, of the retry path: one
    # retry, with the cell started at the largest value any run left
    GROWN = ("trip counts under-trained; bound cells grew to "
             "cfl.k.main.loop=%d and the sweep was retried")
    RETRIED = [
        ((4, 8, [128]), 8, ["PASS obliviousness@64: 8 secret vectors x 1 "
                            "public vectors",
                            "PASS obliviousness@128: 8 secret vectors x 1 "
                            "public vectors",
                            "PASS equivalence: 11 inputs",
                            "PASS decoy-invariants: 8 runs clean"], [8]),
        ((100, 1 << 16, None), 202,
         ["PASS obliviousness@64: 202 secret vectors x 1 public vectors",
          "PASS equivalence: 51 inputs",
          "PASS decoy-invariants: 202 runs clean"], [8]),
    ]

    @pytest.mark.parametrize("args,nsec,rest,grew", RETRIED)
    def test_retry_decodes_each_module_once(self, monkeypatch, args, nsec,
                                            rest, grew):
        import ctlin.interp
        import ctlin.verify
        from ctlin.interp import Code

        made = []

        class Counted(Code):
            def __init__(self, m, decoder=None):
                made.append((id(m), type(decoder).__name__))
                super().__init__(m, decoder)

        monkeypatch.setattr(ctlin.verify, "Code", Counted)
        monkeypatch.setattr(ctlin.interp, "Code", Counted)
        orig, hm = load("jit_trip"), self.harden_trained(2)
        pairs, space, lams = args
        out = verify_module(orig, hm, pairs=pairs, space=space, lams=lams)
        assert [v.line() for v in out] == [
            "PASS pc-security: %d secret vectors x 1 public vectors" % nsec
        ] + rest
        assert out[0].warnings == [self.GROWN % n for n in grew]
        assert all(not v.warnings for v in out[1:])
        assert sorted(made) == sorted([(id(hm), "NoneType"),
                                       (id(orig), "NoneType"),
                                       (id(hm), "DecoyDecoder")])

    def test_retry_starts_cells_at_their_largest_growth(self, tmp_path,
                                                        capsys):
        # trained on secrets 0 and 1, the bound is 2; the secrets of the
        # batch need up to 32 trips, in no order, so a retry that starts
        # the cell at the last run's value grows it again
        from ctlin.cli import EXIT_OK, main
        from ctlin.interp import format_suite
        orig, hard = tmp_path / "p.ir", tmp_path / "p.hard.ir"
        suite = tmp_path / "p.suite"
        orig.write_text(corpus_src("jit_trip").replace(
            "%n = and i64 %s, 7", "%n = and i64 %s, 31"))
        suite.write_text(format_suite([ExecInput([], [0]),
                                       ExecInput([], [1])]))
        assert main(["harden", str(orig), "--suite", str(suite),
                     "--emit", str(hard)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(orig), str(hard), "--pairs", "4"]) \
            == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(
            "PASS pc-security: 10 secret vectors x 1 public vectors\n"
            "  warning: " + self.GROWN % 32 + "\n"), out
        assert out.count("warning") == 1

    def test_checks_refuse_code_of_another_variant(self):
        from ctlin.interp import Code, DecoyDecoder
        hm = self.harden_trained(2)
        with pytest.raises(ValueError, match="plain"):
            check_pc_security(hm, code=Code(hm, DecoyDecoder()))
        with pytest.raises(ValueError, match="plain"):
            check_equivalence(load("jit_trip"), hm, code=Code(load("jit_trip")))
        with pytest.raises(ValueError, match="DecoyDecoder"):
            check_decoy_invariants(hm, code=Code(hm))


class TestBatches:
    def test_exhaustive_small_space(self):
        m = load("table_lookup")
        secs = secret_batch(m, space=256)
        assert secs == [[v] for v in range(256)]

    def test_sampled_large_space(self):
        m = load("table_lookup")
        secs = secret_batch(m, pairs=10, space=1 << 16)
        assert [0] in secs and [(1 << 16) - 1] in secs
        assert len(secs) == 2 + 20
        assert all(0 <= v < (1 << 16) for (v,) in secs)

    def test_no_secrets_degenerates(self):
        m = parse_module("func @main() -> i64 {\nentry:\n  ret 4\n}\n")
        assert secret_batch(m) == [[]]

    @pytest.mark.parametrize("space", [1, 0, -5])
    def test_space_without_two_values_refused(self, space):
        m = load("nested_branches")
        with pytest.raises(ValueError, match="fewer than 2"):
            secret_batch(m, space=space)
        with pytest.raises(ValueError, match="fewer than 2"):
            verify_module(m, m, pairs=-1, space=space)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_refused(self, budget):
        # a run of no instruction aborts on both sides, which every
        # check would take for agreement
        m = load("nested_branches")
        with pytest.raises(ValueError, match="runs no instruction"):
            verify_module(m, m, budget=budget)

    @pytest.mark.parametrize("lam", [0, -64])
    def test_nonpositive_quantum_refused(self, lam):
        with pytest.raises(ValueError, match="not positive"):
            check_obliviousness(load("nested_branches"), lam=lam)

    def test_zero_pairs_over_exhaustive_space(self):
        m = load("nested_branches")
        assert secret_batch(m, pairs=0, space=4) == [[0], [1], [2], [3]]
        hm, _ = hardened("nested_branches")
        assert all(v.passed for v in verify_module(m, hm, pairs=0, space=4))


def test_roundtrip_module_verifies_identically():
    hm, _ = hardened("store_sweep")
    m2 = parse_module(print_module(hm))
    a = check_obliviousness(hm, pairs=5, space=64)
    b = check_obliviousness(m2, pairs=5, space=64)
    assert a.passed and b.passed
    assert interpret(m2, ExecInput([], [3])).output == \
        interpret(hm, ExecInput([], [3])).output
