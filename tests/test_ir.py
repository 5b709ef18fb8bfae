"""Text format round-trips, structural validation, CFG math."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_src, hardened, load
from ctlin.cfg import back_edges, build_cfg, dfs
from ctlin.interp import Decoder, DecoyDecoder, ExecInput, interpret
from ctlin.ir import (ADDR, BINOPS, I1, I8, I32, I64, ICMP_PREDS, SYNTAX,
                      TERMINATORS, Block, Const, Function, Instr, ParseError,
                      Reg, Sym, Type, _Cursor, _fmt_instr, _parse_instr,
                      field_offset, is_reserved_name, parse_module,
                      print_module, size_of, validate)
from ctlin.normalize import NormalizeError, _branch_spans
from ctlin.pipeline import harden_module
from ctlin.taint import TaintDecoder
from ctlin.verify import verify_module


def rt(text: str) -> str:
    return print_module(parse_module(text))


class TestRoundTrip:
    def test_corpus_fixpoint(self, corpus_names):
        for name in corpus_names:
            once = rt(corpus_src(name))
            assert rt(once) == once, name

    def test_hardened_fixpoint(self):
        # hardened output carries metadata, taken map and harden header
        hm, _ = hardened("table_lookup")
        once = print_module(hm)
        assert rt(once) == once

    def test_hardened_headers_survive(self):
        hm, _ = hardened("two_context")
        m2 = parse_module(print_module(hm))
        assert m2.harden is not None
        assert m2.harden.lam == hm.harden.lam
        assert m2.harden.scheme == hm.harden.scheme
        assert set(m2.dflmeta) == set(hm.dflmeta)
        for aid, rec in hm.dflmeta.items():
            got = m2.dflmeta[aid]
            assert [e.site for e in rec.entries] == [e.site for e in got.entries]
            assert [(e.off, e.length, e.stride) for e in rec.entries] == \
                   [(e.off, e.length, e.stride) for e in got.entries]
        assert m2.takenmap == hm.takenmap

    def test_global_init_shorter_than_type(self):
        m = parse_module("global @g: [4 x i64] = 01\n"
                         "func @main() -> i64 {\n"
                         "entry:\n  %p = gep i64 @g, 0\n"
                         "  %v = load i64, %p\n  ret %v\n}\n")
        assert interpret(m, ExecInput([], [])).output == 1


class TestParseErrors:
    @pytest.mark.parametrize("text,frag", [
        ("func @f() -> i64 {\nentry:\n  ret 0\n", "unterminated"),
        ("func @f( -> i64 {\nentry:\n  ret 0\n}\n", "expected"),
        ("global @g i64 = 00\n", "expected ':'"),
        ("func @f() -> i64 {\nentry:\n  %x = add %a, 1\n  ret %x\n}\n",
         "type"),
        ("dflmeta 0 access=1 kind=load lambda=64 ty=i64 natural=0 "
         "entries=[(site=\n", "expected site class"),
    ])
    def test_bad_input(self, text, frag):
        with pytest.raises(ParseError) as ei:
            parse_module(text)
        assert frag in str(ei.value)

    @pytest.mark.parametrize("line", [
        "%x = store i64 1, @g", "%x = heapfree %p", "%x = br b",
        "%x = condbr %c, a, b", "%x = ret 0"])
    def test_result_name_on_void_op(self, line):
        with pytest.raises(ParseError) as ei:
            parse_module("func @f() -> i64 {\nentry:\n  %s\n}\n" % line)
        assert "names no result" in str(ei.value)

    def test_leading_zero_integer(self, tmp_path, capsys):
        # int(_, 0) refuses "007"; it used to escape as a ValueError
        text = "func @main() -> i64 {\nentry:\n  ret 007\n}\n"
        with pytest.raises(ParseError) as ei:
            parse_module(text)
        assert str(ei.value) == "line 3 col 7: bad integer '007'"
        from ctlin.cli import EXIT_INPUT, main
        src = tmp_path / "zero.ir"
        src.write_text(text)
        assert main(["harden", str(src)]) == EXIT_INPUT
        assert "bad integer" in capsys.readouterr().err

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_module("func @f() -> i64 {\nentry:\n  %x = bogus 1\n}\n")
        assert "line 3" in str(ei.value)


def in_main(line: str) -> str:
    return ("func @main(%a: i64) -> i64 {\nentry:\n" + line
            + "\n  ret %a\n}\n")


_META = ("dflmeta 0 access=1 kind=load lambda=64 ty=i64 natural=0 "
         "entries=[%s]")
_ENTRY = "(site=%s, off=0, len=8, stride=8, handler=simple)"

# Malformed text and the full ParseError it raises: line, column and
# message, as the character-stepping parser reported them.
PINNED_ERRORS = [
    ("global @g : i65", "line 1 col 16: unknown type 'i65'"),
    ("global @g : [4 x i8] = 0g", "line 1 col 24: bad initializer bytes"),
    ("global @g : [2 x i8] = 000102",
     "line 1 col 24: initializer longer than type size"),
    ("global @g : i64\nglobal @g : i64 ; dup",
     "line 2 col 17: duplicate global '@g'"),
    ("global @g : [4 x i8 = 00", "line 1 col 21: expected ']'"),
    ("globalx @g : i64", "line 1 col 7: expected '@'"),
    ("harden scheme=5 lambda=", "line 1 col 24: expected integer"),
    ("harden scheme =5 lambda=4", "line 1 col 8: expected 'scheme='"),
    ("harden scheme=5 lambda=4 extra", "line 1 col 26: trailing tokens"),
    (_META % (_ENTRY % "q:1"),
     "line 1 col 72: expected site class g:, s: or h:"),
    (_META % (_ENTRY % "s:0x1"), "line 1 col 75: expected 'off='"),
    (_META % (_ENTRY % "s:1" + ", " + _ENTRY % "g: @t"),
     "line 1 col 124: expected site class g:, s: or h:"),
    ("takenmap @main { 1:2 3 }", "line 1 col 24: expected ':'"),
    ("bogus line", "line 1 col 1: expected global, func, or directive"),
    ("func @main(%a: i64) -> i64\n", "line 1 col 27: expected '{'"),
    ("func @main(%a i64) -> i64 {\n}", "line 1 col 15: expected ':'"),
    ("func @main(%a: i64) -> i64 {\nentry:\n  ret %a\n",
     "line 3 col 1: unterminated function '@main'"),
    ("funcs @main() -> i64 {", "line 1 col 5: expected '@'"),
    ("func @main() - > i64 {", "line 1 col 14: expected '->'"),
    ("func @main() -> {a: i64, b i8} {", "line 1 col 28: expected ':'"),
    ("func @main() -> i64 { x", "line 1 col 23: trailing tokens"),
    (in_main("  %x = frob i64 %a, 1"),
     "line 3 col 12: unknown opcode 'frob'"),
    (in_main("  store i64 %a, %a extra"), "line 3 col 20: trailing tokens"),
    (in_main("  %x = store i64 %a, %a"),
     "line 3 col 13: store names no result"),
    (in_main("  %x = icmp foo %a, 1"),
     "line 3 col 16: unknown icmp predicate 'foo'"),
    (in_main("  %x = add i64 %a 1"), "line 3 col 19: expected ','"),
    (in_main("  %x = add i65 %a, 1"), "line 3 col 15: unknown type 'i65'"),
    (in_main("  %x = phi i64 [entry %a]"), "line 3 col 23: expected ':'"),
    (in_main("  %x = call main(%a)"), "line 3 col 13: expected '@'"),
    (in_main("  %x = load i64, %"), "line 3 col 19: expected register"),
    (in_main("  %x = add i64 %a, ->"), "line 3 col 20: expected integer"),
    (in_main("  %x = add i64 %a, 0x"), "line 3 col 21: trailing tokens"),
    (in_main("  %x = gep [4 x 8] %a, 0"), "line 3 col 17: expected type"),
    ("func @main(%a: i64) -> i64 {\n  %x = add i64 %a, 1\n}",
     "line 2 col 3: instruction before first label"),
    ("func @main(%a: i64) -> i64 {\nentry:\n  ret %a\n\tentry :\n"
     "  ret %a\n}", "line 4 col 2: duplicate label 'entry'"),
    ("func @main(%a: i64) -> i64 {\nentry:\n  ret %a\n}\n"
     "func @main(%a: i64) -> i64 {\nentry:\n  ret %a\n}",
     "line 5 col 1: duplicate function '@main'"),
]

# Text the parser takes although the printer never writes it that way:
# a literal may end inside a name (`hardenscheme=`, `secreti64`, `4xi8`),
# and blanks between tokens are optional.  Paired with the printed form.
PINNED_ACCEPTED = [
    ("hardenscheme=1 lambda=4", "harden scheme=1 lambda=4\n"),
    ("global @g : [4 x i8]\t= 0102 ", "global @g : [4 x i8] = 0102\n"),
    ("func @f(%a: secreti64) -> i64 {\nentry:\n  ret %a\n}",
     "\nfunc @f(%a: secret i64) -> i64 {\nentry:\n  ret %a\n}\n"),
    (in_main("  %x = gep [4xi8] %a, 0"),
     "\n" + in_main("  %x = gep [4 x i8] %a, 0")),
    (in_main("  %x = add i64 %a,-0x1f ; comment"),
     "\n" + in_main("  %x = add i64 %a, -31")),
    (in_main("  %x = phi i64 [entry: 0,entry:%a]"),
     "\n" + in_main("  %x = phi i64 [entry: 0, entry: %a]")),
    (_META % (_ENTRY % "s:12" + ", " + _ENTRY % "g:@t.x"),
     _META % (_ENTRY % "s:12" + ", " + _ENTRY % "g:@t.x") + "\n"),
    ("takenmap @main { 1:2 3:4 }", "takenmap @main { 1:2 3:4 }\n"),
]


class TestParserPins:
    """What the parser reads and how it fails, fixed before its rewrite."""

    @pytest.mark.parametrize("text,error", PINNED_ERRORS)
    def test_error_text(self, text, error):
        with pytest.raises(ParseError) as ei:
            parse_module(text)
        assert str(ei.value) == error

    @pytest.mark.parametrize("text,printed", PINNED_ACCEPTED)
    def test_accepted_text(self, text, printed):
        assert print_module(parse_module(text)) == printed

    @pytest.mark.parametrize("lam", [1, 4, 64])
    def test_printed_texts_are_fixpoints(self, corpus_names, lam):
        for name in corpus_names:
            for m in (load(name), hardened(name, lam=lam)[0]):
                text = print_module(m)
                assert print_module(parse_module(text)) == text, name


class TestValidate:
    def wrap(self, body, sig="() -> i64"):
        return parse_module("func @main%s {\n%s}\n" % (sig, body))

    def test_clean_corpus(self, corpus_names):
        for name in corpus_names:
            assert validate(load(name)) == [], name

    def test_negative_secret_index(self):
        m = self.wrap("entry:\n  %x = secret i64 -1\n  ret %x\n")
        assert [d.msg for d in validate(m)] == ["secret index -1 is negative"]

    def test_long_block_is_linear(self):
        # numbering each use's block again made this quadratic: about
        # 1.3 s for 4,000 adds on a 2-vCPU machine, where one numbering
        # per function takes a hundredth
        lines = ["entry:", "  %v0 = add i64 %a, 1"]
        lines += ["  %%v%d = add i64 %%v%d, 1" % (k, k - 1)
                  for k in range(1, 4000)]
        m = self.wrap("\n".join(lines + ["  ret %v3999", ""]),
                      sig="(%a: i64) -> i64")
        t0 = time.perf_counter()
        assert validate(m) == []
        took = time.perf_counter() - t0
        assert took < 0.25, took

    def test_undefined_register(self):
        m = self.wrap("entry:\n  %x = add i64 %nope, 1\n  ret %x\n")
        assert any("undefined %nope" in d.msg for d in validate(m))

    def test_dominance(self):
        m = self.wrap(
            "entry:\n  %c = icmp eq 1, 1\n  condbr %c, a, b\n"
            "a:\n  %x = add i64 1, 2\n  br join\n"
            "b:\n  br join\n"
            "join:\n  %y = add i64 %x, 1\n  ret %y\n")
        assert any("not dominated" in d.msg for d in validate(m))

    def test_phi_edges_must_match_preds(self):
        m = self.wrap(
            "entry:\n  %c = icmp eq 1, 1\n  condbr %c, a, join\n"
            "a:\n  br join\n"
            "join:\n  %y = phi i64 [a: 1]\n  ret %y\n")
        assert any("phi edges" in d.msg for d in validate(m))

    def test_missing_terminator(self):
        m = self.wrap("entry:\n  %x = add i64 1, 1\n  ret %x\n"
                      "dead:\n  %y = add i64 1, 1\n")
        assert any("lacks terminator" in d.msg for d in validate(m))

    def test_type_mismatch(self):
        m = self.wrap("entry:\n  %x = add i32 1, 1\n  ret %x\n")
        assert any("expected i64" in d.msg for d in validate(m))

    def test_unknown_callee(self):
        m = self.wrap("entry:\n  %x = call @gone()\n  ret %x\n")
        assert any("unknown @gone" in d.msg for d in validate(m))

    def test_duplicate_instruction_id(self):
        # text always numbers instructions afresh; only a pass can clash
        m = self.wrap("entry:\n  %x = add i64 1, 1\n  ret %x\n")
        add, ret = m.funcs["main"].instructions()
        ret.iid = add.iid
        assert [str(d) for d in validate(m)] == \
            ["@? #%d: duplicate instruction id %d" % (add.iid, add.iid)]


class TestTypes:
    def test_scalar_sizes(self):
        assert size_of(I8) == 1
        assert size_of(I32) == 4
        assert size_of(I64) == 8
        assert size_of(ADDR) == 8

    def test_array_nesting(self):
        t = Type("array", elem=Type("array", elem=I32, count=3), count=5)
        assert size_of(t) == 5 * 3 * 4

    def test_struct_offsets(self):
        t = Type("agg", fields=(("a", I8), ("b", I64), ("c", I32)))
        assert field_offset(t, 0) == 0
        assert field_offset(t, 1) == 1
        assert field_offset(t, 2) == 9
        assert size_of(t) == 13

    def test_reserved_names(self):
        assert is_reserved_name("cfl.k.main.loop")
        assert is_reserved_name("dfl.promo.3")
        assert not is_reserved_name("cflx")
        assert not is_reserved_name("last_result")


def slow_dominators(entry, succs):
    """Quadratic reference: dom(n) by iterated intersection."""
    nodes = sorted(succs)
    preds = {n: set() for n in nodes}
    for n, ss in succs.items():
        for s in ss:
            preds[s].add(n)
    dom = {n: set(nodes) for n in nodes}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == entry:
                continue
            new = set(nodes)
            for p in preds[n]:
                new &= dom[p]
            new |= {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def random_cfg_module(rng, nblocks):
    """Single-function module with a random reducible-ish block graph."""
    labels = ["b%d" % i for i in range(nblocks)]
    lines = ["func @main() -> i64 {"]
    for i, lab in enumerate(labels):
        lines.append("%s:" % lab)
        rest = labels[i + 1:]
        if not rest:
            lines.append("  ret 0")
        elif len(rest) == 1 or rng.random() < 0.4:
            lines.append("  br %s" % rng.choice(rest))
        else:
            a, b = rng.sample(rest, 2)
            lines.append("  %%c%d = icmp eq 1, 1" % i)
            lines.append("  condbr %%c%d, %s, %s" % (i, a, b))
    lines.append("}")
    return parse_module("\n".join(lines) + "\n")


class TestDominators:
    def test_against_slow_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_cfg_module(rng, rng.randrange(3, 12))
            fn = m.funcs["main"]
            g = build_cfg(fn)
            ref = slow_dominators("b0", g.succs)
            for n in g.succs:
                if n == "b0":
                    continue
                if n not in g.idom:
                    assert n not in ref or ref[n] == set(g.succs), n
                    continue
                strict = ref[n] - {n}
                # idom is the unique closest strict dominator
                assert g.idom[n] in strict
                assert all(d in ref[g.idom[n]] for d in strict)

    def test_dominates_relation(self):
        m = load("nested_branches")
        g = build_cfg(m.funcs["main"])
        assert g.dominates("entry", "join")
        assert g.dominates("outer.else", "inner.then")
        assert not g.dominates("outer.then", "join")

    def test_corpus_reducible(self, corpus_names):
        for name in corpus_names:
            m = load(name)
            for fn in m.funcs.values():
                assert build_cfg(fn).reducible, (name, fn.name)


def recursive_dfs(entry, succs):
    """Reference walk: recursive, so only for small graphs."""
    state, order, retreating = {}, [], []

    def visit(n):
        state[n] = "open"
        for s in succs.get(n, []):
            if s not in state:
                visit(s)
            elif state[s] == "open":
                retreating.append((n, s))
        state[n] = "done"
        order.append(n)

    visit(entry)
    return order[::-1], retreating


def br_chain(n: int) -> str:
    """A secret condbr whose then arm is a chain of n `br` blocks."""
    lines = ["func @main(%s: secret i64) -> i64 {", "entry:",
             "  %b = and i64 %s, 1", "  %c = icmp ne %b, 0",
             "  condbr %c, c0, join"]
    for i in range(n):
        lines += ["c%d:" % i,
                  "  br %s" % ("c%d" % (i + 1) if i + 1 < n else "join")]
    lines += ["join:", "  %%r = phi i64 [entry: 1, c%d: 2]" % (n - 1),
              "  ret %r", "}", ""]
    return "\n".join(lines)


class TestDepthFirst:
    def test_matches_recursive_walk(self):
        rng = random.Random(5)
        for _ in range(200):
            nodes = list(range(rng.randrange(1, 12)))
            succs = {n: [rng.choice(nodes) for _ in range(rng.randrange(3))]
                     for n in nodes}
            assert dfs(0, succs) == recursive_dfs(0, succs)

    def test_long_chain_validates(self):
        m = parse_module(br_chain(1500))
        assert validate(m) == []
        g = build_cfg(m.funcs["main"])
        assert g.reducible and len(g.rpo) == 1502

    def test_long_chain_hardens_and_verifies(self):
        hm, rep = harden_module(parse_module(br_chain(1500)))
        assert rep["branches_linearized"] == 1
        verdicts = verify_module(parse_module(br_chain(1500)), hm, pairs=2)
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
        assert len(verdicts) == 4


def chain_dominates(g, a, b):
    """Reference dominance: walk b's idom chain."""
    while b is not None:
        if a == b:
            return True
        b = g.idom.get(b)
    return False


def chain_branch_span(fn, g, entry, join):
    """Reference branch span, one idom-chain walk per block."""
    span = {entry}
    work = [t for t in fn.blocks[entry].terminator.labels if t != join]
    while work:
        n = work.pop()
        if n in span or n == join:
            continue
        if not chain_dominates(g, entry, n):
            return "sideways"
        span.add(n)
        work.extend(g.succs[n])
    for n in span - {entry}:
        if any(p not in span for p in g.preds[n]):
            return "entered"
    return span


def cfg_function(succs: dict) -> Function:
    """A function whose block n ends in br, condbr or ret to succs[n]."""
    fn = Function("f", [], I64)
    for n, ss in succs.items():
        op = {0: "ret", 1: "br", 2: "condbr"}[len(ss)]
        fn.blocks[n] = Block(n, [Instr(0, op, labels=list(ss))])
    return fn


def random_reducible(rng) -> Function:
    """Forward edges over a random order, every block reached, then back
    edges to dominators of their source, which keep it reducible."""
    names = ["b%d" % i for i in range(rng.randrange(1, 30))]
    succs = {n: [] for n in names}
    for j in range(1, len(names)):
        # b(j-1) has no successor yet, so there is always a free pred
        free = [n for n in names[:j] if len(succs[n]) < 2]
        succs[rng.choice(free)].append(names[j])
    for j in range(len(names) - 1):
        if len(succs[names[j]]) < 2 and rng.random() < 0.4:
            succs[names[j]].append(names[rng.randrange(j + 1, len(names))])
    g = build_cfg(cfg_function(succs))
    for n in names:
        if len(succs[n]) < 2 and rng.random() < 0.5:
            succs[n].append(rng.choice([d for d in names
                                        if chain_dominates(g, d, n)]))
    return cfg_function(succs)


class TestDominance:
    def test_match_idom_chain_walks(self):
        rng = random.Random(11)
        loops = 0
        for _ in range(200):
            fn = random_reducible(rng)
            g = build_cfg(fn)
            assert g.reducible
            for a in fn.blocks:
                for b in fn.blocks:
                    assert g.dominates(a, b) == chain_dominates(g, a, b)
            old = sorted({(b, s) for b, ss in g.succs.items() for s in ss
                          if chain_dominates(g, s, b)})
            assert back_edges(fn, g) == old
            loops += bool(old)
            for b in fn.blocks.values():
                join = g.ipdom.get(b.label)
                if b.terminator.op != "condbr" or join is None:
                    continue
                try:
                    span = _branch_spans(fn, g, {b.label: join})[b.label]
                except NormalizeError as e:
                    span = "sideways" if "sideways" in str(e) else "entered"
                assert span == chain_branch_span(fn, g, b.label, join)
        assert loops > 50

    def test_inside_out_spans_match_walks(self):
        # with every branch's spans built together, each inner one taken
        # whole by the walks around it, a graph gets the reference spans,
        # or the error of a branch whose reference walk fails
        rng = random.Random(12)
        nested = failed = 0
        for _ in range(1000):
            fn = random_reducible(rng)
            g = build_cfg(fn)
            joins = {b.label: g.ipdom.get(b.label)
                     for b in fn.blocks.values()
                     if b.terminator.op == "condbr"}
            ref = {e: chain_branch_span(fn, g, e, j)
                   for e, j in joins.items() if j is not None}
            try:
                spans = _branch_spans(fn, g, joins)
            except NormalizeError as e:
                kind = "sideways" if "sideways" in str(e) else "entered"
                entry = str(e).split("branch at '")[1].split("'")[0]
                assert ref[entry] == kind
                failed += 1
                continue
            assert spans == ref
            nested += any(a != b and a in ref[b] for a in ref for b in ref)
        assert nested > 25 and failed > 300

    @pytest.mark.parametrize("succs,entry,join,text", [
        ({"b0": ["b1", "b2"], "b1": ["b2", "b3"], "b2": ["b3"], "b3": []},
         "b1", "b3", "@f: block 'b2' enters branch at 'b1' sideways"),
        ({"b0": ["b1", "b2"], "b1": ["b2", "b3"], "b2": ["b0"], "b3": []},
         "b0", "b1", "@f: branch at 'b0' is entered at 'b2' from outside"),
    ], ids=["sideways", "entered"])
    def test_span_errors(self, succs, entry, join, text):
        fn = cfg_function(succs)
        g = build_cfg(fn)
        assert g.ipdom[entry] == join
        with pytest.raises(NormalizeError) as ei:
            _branch_spans(fn, g, {entry: join})
        assert str(ei.value) == text

    def test_long_secret_chain_hardens_and_verifies(self):
        hm, rep = harden_module(parse_module(br_chain(3000)))
        assert rep["branches_linearized"] == 1
        verdicts = verify_module(parse_module(br_chain(3000)), hm, pairs=2)
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]
        assert len(verdicts) == 4


class TestRenumber:
    def test_contiguous_and_meaning_preserving(self):
        hm, _ = hardened("exp_loop_pair")
        before = interpret(hm, ExecInput([3], [5])).output
        m2 = parse_module(print_module(hm))
        m2.renumber()
        iids = [i.iid for i in m2.instructions()]
        assert iids == list(range(len(iids)))
        assert validate(m2) == []
        assert interpret(m2, ExecInput([3], [5])).output == before

    def test_metadata_follows(self):
        hm, _ = hardened("table_lookup")
        m2 = parse_module(print_module(hm))
        m2.renumber()
        where = m2.instr_index()
        for rec in m2.dflmeta.values():
            loc = where.get(rec.access)
            assert loc is not None
            assert loc[2].callee in ("ct_load", "ct_store",
                                     "ct_load_nat", "ct_store_nat")


ident = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ident, st.integers(0, 2 ** 64 - 1),
                          st.sampled_from(["add", "sub", "mul", "xor",
                                           "and", "or"])),
                min_size=1, max_size=8))
def test_roundtrip_straightline(ops):
    lines = ["func @main() -> i64 {", "entry:"]
    prev = None
    for i, (nm, c, op) in enumerate(ops):
        reg = "%%v%d_%s" % (i, nm)
        rhs = prev if prev else "0"
        lines.append("  %s = %s i64 %s, %d" % (reg, op, rhs, c))
        prev = reg
    lines.append("  ret %s" % prev)
    lines.append("}")
    text = "\n".join(lines) + "\n"
    once = rt(text)
    assert rt(once) == once
    assert validate(parse_module(once)) == []


# every instruction form: random fields, named wherever a result may be
names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,5}", fullmatch=True)
operands = st.one_of(names.map(Reg), names.map(Sym),
                     st.integers(-2 ** 64, 2 ** 64).map(Const))
types = st.recursive(
    st.sampled_from([I1, I8, I32, I64, ADDR]),
    lambda inner: st.one_of(
        st.builds(lambda n, t: Type("array", elem=t, count=n),
                  st.integers(0, 9), inner),
        st.lists(st.tuples(names, inner), min_size=1, max_size=3)
        .map(lambda fs: Type("agg", fields=tuple(fs)))),
    max_leaves=4)


def draw_instr(draw, op):
    form = SYNTAX[op]
    named = form.startswith("=")
    ins = Instr(draw(st.integers(0, 999)), op,
                name=draw(st.none() | names) if named else None)
    for ch in form:
        if ch == "T":
            ins.ty = draw(types)
        elif ch == "P":
            ins.pred = draw(st.sampled_from(ICMP_PREDS))
        elif ch == "A":
            ins.args.append(draw(operands))
        elif ch == "N":
            ins.args.append(Const(draw(st.integers(-2 ** 63, 2 ** 63))))
        elif ch == "L":
            ins.labels.append(draw(names))
        elif ch == "F":
            ins.callee = draw(names)
        elif ch == "S":
            ins.args += draw(st.lists(operands, max_size=3,
                                      min_size=0 if "(S)" in form else 1))
        elif ch == "I":
            ins.incoming = draw(st.lists(st.tuples(names, operands),
                                         min_size=1, max_size=3))
    return ins


@pytest.mark.parametrize("op", sorted(SYNTAX))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_instruction_form_roundtrip(op, data):
    ins = draw_instr(data.draw, op)
    text = _fmt_instr(ins)
    assert _parse_instr(_Cursor(text, 1), ins.iid) == ins, text


def test_every_decoded_opcode_has_a_form():
    decoded = set(BINOPS) | {"call", "phi", *TERMINATORS}
    for cls in (Decoder, DecoyDecoder, TaintDecoder):
        decoded |= {n[len("_op_"):] for n in dir(cls) if n.startswith("_op_")}
    assert decoded == set(SYNTAX)
