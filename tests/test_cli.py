"""Command line driver: exit codes, artifacts, report determinism."""

import json
import os
import subprocess
import sys

import pytest

import ctlin
from ctlin import cli, pipeline
from conftest import RECURSIVE, corpus_path, scale_programs
from ctlin.cli import (EXIT_INPUT, EXIT_OK, EXIT_PIPELINE, EXIT_VERIFY,
                       main)
from ctlin.ir import MAX_TYPE_DEPTH, parse_module, validate


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestHarden:
    def test_emit_validates(self, tmp_path, capsys):
        out = tmp_path / "h.ir"
        rc, _, _ = run(["harden", corpus_path("nested_branches"),
                        "--emit", str(out)], capsys)
        assert rc == EXIT_OK
        hm = parse_module(out.read_text())
        assert validate(hm) == []
        assert hm.harden.lam == 64

    def test_stdout_matches_emit(self, tmp_path, capsys):
        out = tmp_path / "h.ir"
        rc, text, _ = run(["harden", corpus_path("jit_trip"),
                           "--emit", "-"], capsys)
        assert rc == EXIT_OK
        rc2, _, _ = run(["harden", corpus_path("jit_trip"),
                         "--emit", str(out)], capsys)
        assert rc2 == EXIT_OK
        assert text == out.read_text()

    def test_lambda_and_scheme_flags(self, tmp_path, capsys):
        out = tmp_path / "h.ir"
        rc, _, _ = run(["harden", corpus_path("covering_loop"),
                        "--lambda", "4", "--select-scheme", "3",
                        "--emit", str(out)], capsys)
        assert rc == EXIT_OK
        hm = parse_module(out.read_text())
        assert hm.harden.lam == 4
        assert hm.harden.scheme == 3

    def test_report_is_deterministic(self, tmp_path, capsys):
        reps = []
        for i in (0, 1):
            rep = tmp_path / ("r%d.json" % i)
            out = tmp_path / ("h%d.ir" % i)
            rc, _, _ = run(["harden", corpus_path("two_context"),
                            "--emit", str(out), "--report", str(rep)],
                           capsys)
            assert rc == EXIT_OK
            reps.append(rep.read_bytes())
        assert reps[0] == reps[1]
        data = json.loads(reps[0])
        assert data["cloned"] == 2
        assert data["plans"] == 2

    def test_skip_flags_respected(self, tmp_path, capsys):
        rep = tmp_path / "r.json"
        rc, _, _ = run(["harden", corpus_path("two_context"),
                        "--skip-cloning", "--emit", "-",
                        "--report", str(rep)], capsys)
        assert rc == EXIT_OK
        assert json.loads(rep.read_text())["cloned"] == 0

    def test_dynamic_index_over_a_zero_size_step(self, tmp_path, capsys):
        # the gep rule divided by the step size: a ZeroDivisionError
        # traceback; @z also gets a plan entry of no bytes, and the
        # verifier read its payload through an address lookup that a
        # zero-size object never matches
        src = tmp_path / "z.ir"
        hard = tmp_path / "z.hard.ir"
        src.write_text(
            "global @z: [0 x i64]\nglobal @t: [4 x i64]\n"
            "func @main(%s: secret i64) -> i64 {\nentry:\n"
            "  %i = and i64 %s, 3\n  %b = and i64 %s, 0\n"
            "  %c = icmp eq %b, 0\n  %p = gep [0 x i64] @z, %i\n"
            "  %q = gep i64 @t, %i\n  %r = select %c, %q, %p\n"
            "  %v = load i64, %r\n  ret %v\n}\n")
        rc, _, err = run(["harden", str(src), "--emit", str(hard)], capsys)
        assert rc == EXIT_OK, err
        assert "(site=g:@z, off=0, len=0, " in hard.read_text()
        rc, out, err = run(["verify", str(src), str(hard), "--pairs", "4"],
                           capsys)
        assert rc == EXIT_OK and err == ""
        assert [ln.split(":")[0] for ln in out.splitlines()] == [
            "PASS pc-security", "PASS obliviousness@64", "PASS equivalence",
            "PASS decoy-invariants"]


class TestErrors:
    def test_missing_file(self, capsys):
        rc, _, err = run(["harden", "/nonexistent.ir", "--emit", "-"],
                         capsys)
        assert rc == EXIT_INPUT
        assert err.strip()

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("func @main( {\n")
        rc, _, err = run(["harden", str(bad), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert "line" in err

    def test_invalid_module(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("func @main() -> i64 {\nentry:\n"
                       "  %x = add i64 %gone, 1\n  ret %x\n}\n")
        rc, _, err = run(["harden", str(bad), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert "undefined" in err

    @staticmethod
    def nested_type(tmp_path, depth, agg):
        ty = "i64"
        for _ in range(depth):
            ty = "{f: %s}" % ty if agg else "[1 x %s]" % ty
        path = tmp_path / ("t%d%s.ir" % (depth, "s" if agg else "a"))
        path.write_text("global @g: %s\nfunc @main() -> i64 {\n"
                        "entry:\n  ret 0\n}\n" % ty)
        return str(path)

    @pytest.mark.parametrize("agg", [False, True])
    @pytest.mark.parametrize("depth", [MAX_TYPE_DEPTH + 1, 500])
    def test_deeply_nested_type_is_an_input_error(self, tmp_path, depth,
                                                  agg, capsys):
        deep = self.nested_type(tmp_path, depth, agg)
        ok = self.nested_type(tmp_path, MAX_TYPE_DEPTH, agg)
        for argv in (["harden", deep, "--emit", "-"],
                     ["verify", deep, ok], ["verify", ok, deep]):
            rc, out, err = run(argv, capsys)
            assert rc == EXIT_INPUT, argv
            assert out == ""
            assert "line 1 col " in err
            assert "nested deeper than %d" % MAX_TYPE_DEPTH in err

    @pytest.mark.parametrize("agg", [False, True])
    def test_type_at_the_nesting_limit_hardens(self, tmp_path, agg, capsys):
        ok = self.nested_type(tmp_path, MAX_TYPE_DEPTH, agg)
        hard = tmp_path / "h.ir"
        assert run(["harden", ok, "--emit", str(hard)], capsys)[0] == EXIT_OK
        rc, out, _ = run(["verify", ok, str(hard), "--pairs", "2"], capsys)
        assert rc == EXIT_OK and "FAIL" not in out

    def test_malformed_suite_is_an_input_error(self, tmp_path, capsys):
        suite = tmp_path / "bad.suite"
        suite.write_text("1,2 ; sec: 3\n")
        rc, _, err = run(["harden", corpus_path("jit_trip"),
                          "--suite", str(suite), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert "pub:" in err

    def test_profiling_abort_is_a_pipeline_error(self, tmp_path, capsys):
        # every suite input recurses past the call depth limit
        src = tmp_path / "deep.ir"
        src.write_text(RECURSIVE)
        rc, _, err = run(["harden", str(src), "--emit", "-"], capsys)
        assert rc == EXIT_PIPELINE
        assert "stack_overflow" in err

    @pytest.mark.parametrize("body,msg", [
        ("entry:\n  br entry\n", "@main has no ret"),
        ("entry:\n  %c = icmp eq %a, 0\n  condbr %c, spin, done\n"
         "spin:\n  br spin\ndone:\n  ret 0\n",
         "@main: block 'spin' cannot reach the exit"),
        ("entry:\n  ret 0\ndead:\n  ret 1\n",
         "@main: unreachable blocks ['dead']"),
        ("entry:\n  br h\n"
         "h:\n  %i = phi i64 [entry: 0, l1: %j, l2: %j]\n"
         "  %j = add i64 %i, 1\n  %c = icmp lt %j, 10\n"
         "  condbr %c, l1, l2\nl1:\n  br h\n"
         "l2:\n  %d = icmp lt %j, 20\n  condbr %d, h, done\n"
         "done:\n  ret %j\n", "@main: loop at 'h' has 2 back edges"),
        ("entry:\n  br h\nh:\n  %i = phi i64 [entry: 0, body: %j]\n"
         "  %c = icmp lt %i, 10\n  condbr %c, body, done\n"
         "body:\n  %j = add i64 %i, 1\n  br h\ndone:\n  ret %i\n",
         "@main: loop latch 'body' must end in condbr"),
        ("entry:\n  br h\nh:\n  %i = phi i64 [entry: 0, body: %j]\n"
         "  %c = icmp lt %i, 10\n  condbr %c, body, done\n"
         "body:\n  %j = add i64 %i, 1\n  %d = icmp lt %j, 5\n"
         "  condbr %d, h, done\ndone:\n  ret %i\n",
         "@main: loop at 'h' exits from non-latch 'h'"),
        # the pointer is loaded from a global nothing stores a function in
        ("entry:\n  %fp = load addr, @tab\n  %r = icall %fp(%a)\n"
         "  ret %r\n", "@main: icall #2 has no resolvable targets"),
        # the only function it can reach takes one argument, not two
        ("entry:\n  store addr @f, @tab\n  %fp = load addr, @tab\n"
         "  %r = icall %fp(%a, 2)\n  ret %r\n",
         "@main: icall #3 has no resolvable targets"),
    ], ids=["no-ret", "no-path-to-exit", "unreachable-block",
            "two-back-edges", "top-tested-loop", "non-latch-exit",
            "icall-no-target", "icall-arity"])
    def test_unnormalizable_input_is_a_pipeline_error(self, tmp_path, body,
                                                      msg, capsys):
        src = tmp_path / "bad.ir"
        src.write_text("global @tab: addr\n"
                       "func @f(%x: i64) -> i64 {\nentry:\n  ret %x\n}\n"
                       "func @main(%a: i64) -> i64 {\n" + body + "}\n")
        rc, out, err = run(["harden", str(src), "--emit", "-"], capsys)
        assert rc == EXIT_PIPELINE
        assert out == ""
        assert err == "hardening failed: %s\n" % msg

    def test_suite_without_inputs_is_an_input_error(self, tmp_path, capsys):
        suite = tmp_path / "empty.suite"
        suite.write_text("# nothing\n")
        rc, out, err = run(["harden", corpus_path("jit_trip"),
                            "--suite", str(suite), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "%s: suite holds no inputs\n" % suite

    @pytest.mark.parametrize("line", ["pub: ; sec:", "pub: 1",
                                      "pub: ; sec: 3\npub: 1 ; sec:"])
    def test_short_suite_input_is_an_input_error(self, tmp_path, line,
                                                 capsys):
        # @main of table_lookup takes one secret and no public value
        suite = tmp_path / "short.suite"
        suite.write_text(line + "\n")
        rc, out, err = run(["harden", corpus_path("table_lookup"),
                            "--suite", str(suite), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(str(suite) + ": ")
        assert "@main takes 0 public and 1 secret" in err

    def test_longer_suite_input_is_accepted(self, tmp_path, capsys):
        suite = tmp_path / "long.suite"
        suite.write_text("pub: 7 ; sec: 3, 9\n")
        rc, _, _ = run(["harden", corpus_path("table_lookup"),
                        "--suite", str(suite), "--emit", "-"], capsys)
        assert rc == EXIT_OK

    def test_missing_entry_is_an_input_error(self, tmp_path, capsys):
        src = corpus_path("table_lookup")
        suite = tmp_path / "s.suite"
        suite.write_text("pub: ; sec: 3\n")
        for extra in ([], ["--suite", str(suite)]):
            rc, out, err = run(["harden", src, "--entry", "nosuch",
                                "--emit", "-"] + extra, capsys)
            assert rc == EXIT_INPUT
            assert out == ""
            assert err == "%s: no entry function @nosuch\n" % src

    @pytest.mark.parametrize("decl,body,what", [
        ("func @cfl.div.i64(%n: i64, %d: i64) -> i64 {\nentry:\n"
         "  ret %n\n}\n", "  %k = call @cfl.div.i64(%s, 3)\n  ret %k\n",
         "function @cfl.div.i64"),
        ("global @cfl.taken: i1\n", "  store i1 0, @cfl.taken\n  ret %s\n",
         "global @cfl.taken"),
        ("", "  %cfl.tp.b.x = add i64 %s, 1\n  ret %cfl.tp.b.x\n",
         "register %cfl.tp.b.x in @main"),
        ("", "  br dfl.next\ndfl.next:\n  ret %s\n", "label dfl.next in @main"),
    ], ids=["function", "global", "register", "label"])
    def test_reserved_name_is_an_input_error(self, tmp_path, decl, body, what,
                                             capsys):
        # the passes used to reuse or rewrite these as their own
        src = tmp_path / "reserved.ir"
        src.write_text(decl + "func @main(%s: secret i64) -> i64 {\n"
                       "entry:\n" + body + "}\n")
        rc, out, err = run(["harden", str(src), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "%s: %s: the prefixes cfl. and dfl. are reserved " \
            "for hardening\n" % (src, what)

    @pytest.mark.parametrize("body,frag", [
        ("  %x = secret i64 -1\n  ret %x\n", "secret index -1 is negative"),
        ("  %x = store i64 1, @g\n  ret 0\n", "store names no result"),
    ], ids=["negative-secret", "named-store"])
    def test_unrunnable_input_is_an_input_error(self, tmp_path, body, frag,
                                                capsys):
        src = tmp_path / "bad.ir"
        src.write_text("global @g: i64\nfunc @main(%s: secret i64) -> i64 {\n"
                       "entry:\n" + body + "}\n")
        for argv in (["harden", str(src), "--emit", "-"],
                     ["verify", str(src), str(src)]):
            rc, out, err = run(argv, capsys)
            assert rc == EXIT_INPUT
            assert frag in err and "Traceback" not in err

    @pytest.mark.parametrize("text,diag", [
        ("func @main() -> i64 {\n}\n", "@main: function has no blocks"),
        ("func @main() -> i64 {\nentry:\n  br next\nnext:\nlast:\n"
         "  ret 0\n}\n", "@main: empty block 'next'"),
        ("func @main() -> i64 {\nentry:\n  ret 0\n  ret 1\n}\n",
         "@main #0: terminator in mid-block 'entry'"),
        ("func @main(%a: i64) -> i64 {\nentry:\n  br next\nnext:\n"
         "  %x = add i64 %a, 1\n  %p = phi i64 [entry: 0]\n  ret %p\n}\n",
         "@main #2: phi after non-phi in 'next'"),
        ("func @main() -> i64 {\nentry:\n  br nowhere\n}\n",
         "@main #0: unknown label 'nowhere'"),
        ("func @main(%a: i64) -> i64 {\nentry:\n  %x = add i64 %a, 1\n"
         "  %x = add i64 %a, 2\n  ret %x\n}\n",
         "@main #1: redefinition of %x"),
        ("func @main() -> i64 {\nentry:\n  store i64 1, @nope\n  ret 0\n}\n",
         "@main #0: unknown symbol @nope"),
        ("func @main() -> i64 {\nentry:\n  %x = call @nope()\n  ret %x\n}\n",
         "@main #0: call to unknown @nope"),
        ("func @main(%p: addr) -> i64 {\nentry:\n  %x = add addr %p, 1\n"
         "  ret 0\n}\n", "@main #0: add requires an integer type"),
        ("func @main() -> i64 {\nentry:\n  %x = secret addr 0\n  ret 0\n}\n",
         "@main #0: secret requires an integer type"),
        ("func @main(%a: i64, %b: i32) -> i64 {\nentry:\n"
         "  %c = icmp eq %a, %b\n  ret 0\n}\n",
         "@main #0: icmp operand types differ (i64 vs i32)"),
        ("func @main(%c: i1, %a: i64, %b: i32) -> i64 {\nentry:\n"
         "  %x = select %c, %a, %b\n  ret 0\n}\n",
         "@main #0: select arms differ (i64 vs i32)"),
        ("global @g: [2 x i64]\nfunc @main() -> i64 {\nentry:\n"
         "  %x = load [2 x i64], @g\n  ret 0\n}\n",
         "@main #0: load of non-scalar type"),
        ("global @g: [2 x i64]\nfunc @main() -> i64 {\nentry:\n"
         "  store [2 x i64] 0, @g\n  ret 0\n}\n",
         "@main #0: store of non-scalar type"),
        ("func @f(%a: i64) -> i64 {\nentry:\n  ret %a\n}\n"
         "func @main() -> i64 {\nentry:\n  %x = call @f(1, 2)\n  ret %x\n}\n",
         "@main #1: call passes 2 args, @f takes 1"),
        ("func @main(%a: i64) -> i64 {\nentry:\n  heapfree %a\n  ret 0\n}\n",
         "@main #0: freed pointer has type i64, expected addr"),
    ], ids=["no-blocks", "empty-block", "mid-block-terminator", "late-phi",
            "unknown-label", "redefinition", "unknown-symbol",
            "unknown-callee", "binop-type", "secret-type", "icmp-types",
            "select-arms", "load-aggregate", "store-aggregate", "arg-count",
            "freed-pointer"])
    def test_invalid_module_diagnostic(self, tmp_path, text, diag, capsys):
        src = tmp_path / "bad.ir"
        src.write_text(text)
        rc, out, err = run(["harden", str(src), "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "%s: %s\n" % (src, diag)

    def test_zero_budget_is_an_input_error(self, capsys):
        rc, out, err = run(["harden", corpus_path("table_lookup"),
                            "--budget", "0", "--emit", "-"], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "error: --budget must be positive\n"


# each command with a file it cannot use: (argv, the path at fault);
# {c} is a corpus module, {m} its hardening, {t} a directory, {x} a
# file that is not UTF-8 text and {s} a suite whose line is not either
FILE_ERRORS = [
    (["harden", "{c}", "--emit", "{t}/missing/h.ir"], "{t}/missing/h.ir"),
    (["harden", "{c}", "--emit", "{t}"], "{t}"),
    (["harden", "{c}", "--emit", "{t}/h.ir", "--report",
      "{t}/missing/r.json"], "{t}/missing/r.json"),
    (["verify", "{c}", "{m}", "--pairs", "2", "--space", "8", "--report",
      "{t}/missing/r.json"], "{t}/missing/r.json"),
    (["stats", "{m}", "--report", "{t}/missing/r.json"],
     "{t}/missing/r.json"),
    (["harden", "{x}"], "{x}"),
    (["verify", "{x}", "{m}"], "{x}"),
    (["verify", "{c}", "{x}"], "{x}"),
    (["stats", "{x}"], "{x}"),
    (["harden", "{c}", "--suite", "{s}"], "{s}"),
]


@pytest.mark.parametrize("argv,path", FILE_ERRORS, ids=[
    "emit-in-missing-dir", "emit-to-dir", "harden-report", "verify-report",
    "stats-report", "harden-binary", "verify-binary-original",
    "verify-binary-hardened", "stats-binary", "binary-suite"])
def test_unusable_file_is_an_input_error(argv, path, hardened_path,
                                         tmp_path, capsys, monkeypatch):
    names = {"c": corpus_path("nested_branches"), "m": hardened_path,
             "t": str(tmp_path), "x": str(tmp_path / "bin.ir"),
             "s": str(tmp_path / "bin.suite")}
    (tmp_path / "bin.ir").write_bytes(b"func @main() -> i64 {\n\xff\xfe}\n")
    (tmp_path / "bin.suite").write_bytes(b"pub: ; sec: \xff\n")
    (tmp_path / "h.ir").write_text("kept\n")
    before = sorted(tmp_path.iterdir())

    def never(*a, **kw):
        raise AssertionError("work ran before the file was refused")

    # the suite is read inside harden_module, before its first stage
    monkeypatch.setattr(pipeline, "unify_exits", never)
    if "--suite" not in argv:
        monkeypatch.setattr(cli, "harden_module", never)
    monkeypatch.setattr(cli, "verify_module", never)
    rc, out, err = run([a.format(**names) for a in argv], capsys)
    assert rc == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and path.format(**names) in err, err
    # no file was created, and an existing one is not truncated
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "h.ir").read_text() == "kept\n"


@pytest.fixture(scope="module")
def hardened_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "h.ir"
    rc = main(["harden", corpus_path("nested_branches"),
               "--emit", str(out)])
    assert rc == EXIT_OK
    return str(out)


class TestVerifyCommand:
    def test_pass_exit_zero(self, hardened_path, capsys):
        rc, out, _ = run(["verify", corpus_path("nested_branches"),
                          hardened_path, "--pairs", "10",
                          "--space", "8"], capsys)
        assert rc == EXIT_OK
        assert "PASS pc-security" in out
        assert "PASS obliviousness@64" in out
        assert "PASS equivalence" in out
        assert "PASS decoy-invariants" in out

    def test_extra_lambda_views(self, capsys, tmp_path):
        out = tmp_path / "h1.ir"
        main(["harden", corpus_path("nested_branches"), "--lambda", "1",
              "--emit", str(out)])
        rc, text, _ = run(["verify", corpus_path("nested_branches"),
                           str(out), "--lambda", "4", "--lambda", "64",
                           "--pairs", "5", "--space", "8"], capsys)
        assert rc == EXIT_OK
        assert "PASS obliviousness@1" in text
        assert "PASS obliviousness@4" in text
        assert "PASS obliviousness@64" in text

    def test_original_out_of_budget_fails_equivalence(self, tmp_path,
                                                       capsys):
        # two runs cut short by the budget return nothing to compare
        out = tmp_path / "h.ir"
        assert main(["harden", corpus_path("exp_loop_pair"),
                     "--emit", str(out)]) == EXIT_OK
        capsys.readouterr()
        rc, text, _ = run(["verify", corpus_path("exp_loop_pair"), str(out),
                           "--budget", "5"], capsys)
        assert rc == EXIT_VERIFY
        assert "FAIL equivalence: original ran out of budget 5 (public [0] " \
            "secrets [0])\n" in text
        assert "PASS" not in text

    def test_abort_witnesses_name_the_public_vector(self, tmp_path, capsys):
        out = tmp_path / "h.ir"
        assert main(["harden", corpus_path("exp_loop_pair"),
                     "--emit", str(out)]) == EXIT_OK
        capsys.readouterr()
        rc, text, _ = run(["verify", corpus_path("exp_loop_pair"), str(out),
                           "--budget", "5"], capsys)
        assert rc == EXIT_VERIFY
        for check in ("pc-security", "obliviousness@64", "decoy-invariants"):
            assert "FAIL %s: abort 'budget' under secrets [0] (public [0])\n"\
                % check in text, text

    @pytest.mark.parametrize("flags", [["--lambda", "0"],
                                       ["--lambda", "-64"],
                                       ["--pairs", "0"], ["--pairs", "-1"],
                                       ["--space", "1"], ["--budget", "0"],
                                       ["--budget", "-1"]])
    def test_vacuous_flags_are_input_errors(self, hardened_path, flags,
                                            capsys):
        rc, out, err = run(["verify", corpus_path("nested_branches"),
                            hardened_path] + flags, capsys)
        assert rc == EXIT_INPUT
        assert "PASS" not in out
        assert flags[0] in err

    @pytest.mark.parametrize("lam", ["3", "32"])
    def test_lambda_finer_than_hardening_is_refused(self, hardened_path, lam,
                                                    capsys):
        # hardened at 64: no run can show a view that 64 does not divide
        rc, out, err = run(["verify", corpus_path("nested_branches"),
                            hardened_path, "--lambda", lam], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "error: --lambda %s: verify quantum %s is not a " \
            "multiple of hardening quantum 64\n" % (lam, lam)

    def test_missing_entry_is_an_input_error(self, hardened_path, capsys):
        rc, out, err = run(["verify", corpus_path("nested_branches"),
                            hardened_path, "--entry", "nope"], capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.count("\n") == 1 and "@nope" in err

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_entry_shape_mismatch_is_an_input_error(self, hardened_path,
                                                    tmp_path, wide_first,
                                                    capsys):
        # a 1-public/2-secret entry against the 1-secret hardened
        # nested_branches; a hardened module wider than its original
        # once raised ValueError
        wide = tmp_path / "wide.ir"
        wide.write_text("func @main(%p: i64, %a: secret i64, "
                        "%b: secret i64) -> i64 {\nentry:\n"
                        "  %s = add i64 %a, %b\n  %r = add i64 %s, %p\n"
                        "  ret %r\n}\n")
        pair = [str(wide), hardened_path]
        if not wide_first:
            pair.reverse()
        rc, out, err = run(["verify"] + pair, capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.count("\n") == 1
        assert "public" in err and "secret" in err

    def test_leaky_module_exits_nonzero(self, capsys):
        rc, out, _ = run(["verify", corpus_path("nested_branches"),
                          corpus_path("nested_branches"),
                          "--pairs", "5", "--space", "8"], capsys)
        assert rc == EXIT_VERIFY
        assert "FAIL" in out

    def test_verify_report(self, hardened_path, tmp_path, capsys):
        rep = tmp_path / "v.json"
        rc, _, _ = run(["verify", corpus_path("nested_branches"),
                        hardened_path, "--pairs", "5", "--space", "8",
                        "--report", str(rep)], capsys)
        assert rc == EXIT_OK
        data = json.loads(rep.read_text())
        assert data["passed"] is True
        assert {c["check"] for c in data["checks"]} >= \
            {"pc-security", "equivalence", "decoy-invariants"}


@pytest.fixture(scope="module")
def guarded_bump_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("bump")
    (d / "gb.ir").write_text(scale_programs(3)["guarded_bump"])
    assert main(["harden", str(d / "gb.ir"), "--emit",
                 str(d / "gb.hard.ir")]) == EXIT_OK
    return d / "gb.ir", d / "gb.hard.ir"


@pytest.mark.parametrize("old,new,diag", [
    ("harden scheme=5", "harden scheme=9",
     "harden scheme=9 is not a select scheme 1-5"),
    ("harden scheme=5 lambda=64", "harden scheme=5 lambda=0",
     "harden lambda=0 is below 1"),
    ("harden scheme=5 lambda=64", "harden scheme=5 lambda=-4",
     "harden lambda=-4 is below 1"),
    ("kind=load lambda=64", "kind=load lambda=0",
     "dflmeta 0 lambda=0 is below 1")])
def test_bad_lambda_or_scheme_is_an_input_error(guarded_bump_pair, tmp_path,
                                                old, new, diag, capsys):
    # scheme 9 printed FAIL lines and exited 4; a harden lambda of 0 or
    # -4 ended in ZeroDivisionError and ValueError tracebacks, and a
    # dflmeta lambda of 0 in a ZeroDivisionError from the sweep
    refused_edit(guarded_bump_pair, tmp_path, old, new, diag, capsys)


@pytest.mark.parametrize("old,new,diag", [
    ("kind=load lambda=64", "kind=bogus lambda=64",
     "dflmeta 0 kind=bogus is not one of load, store"),
    ("handler=gather)]", "handler=foo)]",
     "dflmeta 0 handler=foo is not one of simple, gather, bulk")])
def test_unknown_dflmeta_name_is_an_input_error(guarded_bump_pair, tmp_path,
                                                old, new, diag, capsys):
    # stats ended in a KeyError traceback from dfl.plan_cost on an
    # unknown handler, and verify took either name
    refused_edit(guarded_bump_pair, tmp_path, old, new, diag, capsys)


@pytest.fixture(scope="module")
def table_lookup_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("lookup") / "tl.hard.ir"
    assert main(["harden", corpus_path("table_lookup"), "--lambda", "64",
                 "--emit", str(out)]) == EXIT_OK
    return corpus_path("table_lookup"), out


def takenmap_edit(text: str, kind: str) -> tuple:
    """(old, new, diagnostic) of one corruption of the takenmap of
    hardened table_lookup text, with the iids read from the module."""
    hm = parse_module(text)
    entries = list(hm.takenmap["main"].items())
    (k, t), (lk, lt) = entries[0], entries[-1]
    # the gep defining the address register %pb is no i1 guard
    pb = next(i.iid for i in hm.funcs["main"].instructions()
              if i.name == "pb")
    first = " %d:%d " % (k, t)
    return {
        "unknown-function": ("takenmap @main {", "takenmap @nosuch {",
                             "@?: takenmap names unknown function @nosuch"),
        "unknown-guard": (first, " %d:999 " % k, "@main: takenmap entry "
                          "%d:999 names no i1 guard here" % k),
        "non-i1-guard": (first, " %d:%d " % (k, pb), "@main: takenmap "
                         "entry %d:%d names no i1 guard here" % (k, pb)),
        "unknown-key": (" %d:%d }" % (lk, lt), " %d:%d 999:%d }"
                        % (lk, lt, lt), "@main: takenmap entry 999:%d "
                        "keys no instruction here" % lt)}[kind]


@pytest.mark.parametrize("kind", ["unknown-function", "unknown-guard",
                                  "non-i1-guard", "unknown-key"])
def test_bad_takenmap_entry_is_an_input_error(table_lookup_pair, tmp_path,
                                             kind, capsys):
    # the decoy check tracked no guard for such an entry, so verify
    # printed four PASS lines and exited 0
    orig, hard = table_lookup_pair
    text = hard.read_text()
    old, new, diag = takenmap_edit(text, kind)
    assert text.count(old) == 1
    bad = tmp_path / "bad.ir"
    bad.write_text(text.replace(old, new))
    for argv in (["verify", orig, str(bad), "--pairs", "2"],
                 ["stats", str(bad)]):
        rc, out, err = run(argv, capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "%s: %s\n" % (bad, diag)


def refused_edit(pair, tmp_path, old, new, diag, capsys):
    """verify and stats of the hardened guarded_bump with old replaced
    by new exit 2 with diag alone."""
    orig, hard = pair
    text = hard.read_text()
    assert text.startswith("harden scheme=5 lambda=64\n")
    assert text.count("dflmeta 0 access=2 kind=load lambda=64 ") == 1
    bad = tmp_path / "bad.ir"
    bad.write_text(text.replace(old, new, 1))
    for argv in (["verify", str(orig), str(bad), "--pairs", "2"],
                 ["stats", str(bad)]):
        rc, out, err = run(argv, capsys)
        assert rc == EXIT_INPUT
        assert out == ""
        assert err == "%s: @?: %s\n" % (bad, diag)


class TestStats:
    def test_keys_present(self, tmp_path, capsys):
        out = tmp_path / "h.ir"
        main(["harden", corpus_path("table_lookup"), "--emit", str(out)])
        rc, text, _ = run(["stats", str(out)], capsys)
        assert rc == EXIT_OK
        data = json.loads(text)
        for key in ("functions", "instructions", "plans", "handlers",
                    "portions_mean", "lambda", "scheme"):
            assert key in data, key

    def test_straightened_blocks(self, tmp_path, capsys):
        # both linearized branches of nested_branches straighten into
        # its entry: the five blocks after it fold away
        out, rep = tmp_path / "h.ir", tmp_path / "r.json"
        assert main(["harden", corpus_path("nested_branches"), "--emit",
                     str(out), "--report", str(rep)]) == EXIT_OK
        assert json.loads(rep.read_text())["blocks_merged"] == 5
        for path, blocks in ((corpus_path("nested_branches"), 6),
                             (str(out), 1)):
            rc, text, _ = run(["stats", path], capsys)
            assert rc == EXIT_OK
            assert json.loads(text)["blocks"] == blocks

    @pytest.mark.parametrize("flag", ["--entry", "--seed", "--budget"])
    def test_only_report_flag(self, flag, capsys):
        # stats reads no entry, seed or budget, so it takes none
        with pytest.raises(SystemExit) as e:
            main(["stats", corpus_path("table_lookup"), flag, "1"])
        assert e.value.code == EXIT_INPUT


def child(argv, **kw) -> subprocess.CompletedProcess:
    """`python -m ctlin.cli argv` in a child that imports the package
    this process imported."""
    src = os.path.dirname(os.path.dirname(ctlin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ctlin.cli"] + argv,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          **kw)


def test_module_entry_point():
    # the installed script and python -m dispatch share main()
    proc = child(["stats", corpus_path("jit_trip")], capture_output=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["functions"] == 1


@pytest.mark.parametrize("argv", [
    ["harden", "{c}"],
    ["verify", "{c}", "{m}", "--pairs", "2", "--space", "8"],
    ["stats", "{m}"]], ids=["harden", "verify", "stats"])
def test_closed_stdout_is_an_input_error(argv, hardened_path):
    # stdout a pipe whose read end is closed, as a reader that quit
    # early leaves it: one line on stderr, no traceback
    names = {"c": corpus_path("nested_branches"), "m": hardened_path}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = child([a.format(**names) for a in argv], stdout=w,
                     stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
