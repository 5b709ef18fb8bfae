"""Register types, gep address arithmetic and allocation sites: the IR
decisions every pass reads from `ir`."""

import random
import struct

import pytest

from conftest import corpus_src
from ctlin.interp import ExecInput, interpret
from ctlin.ir import parse_module, print_module, validate
from ctlin.pipeline import harden_module
from ctlin.pta import andersen_solve, refine_field_sensitivity
from ctlin.verify import public_batch, secret_batch, verify_module

REC = "{k: i64, v: [8 x i64]}"
# record r holds k = 100 + r and v[j] = 10 * r + j
RECS_INIT = b"".join(
    struct.pack("<q", 100 + r)
    + b"".join(struct.pack("<q", 10 * r + j) for j in range(8))
    for r in range(4))

# a secret picks the record, a public the slot of its array field
NESTED_GEP = """\
global @recs: [4 x REC] = INIT
func @main(%i: i64, %s: secret i64) -> i64 {
entry:
  %r = and i64 %s, 3
  %j = and i64 %i, 7
  %pk = gep REC @recs, %r, 0
  %k = load i64, %pk
  %pv = gep REC @recs, %r, 1, %j
  %v = load i64, %pv
  %x = add i64 %k, %v
  store i64 %x, %pk
  %pc = gep REC @recs, 2, 1, 3
  %c = load i64, %pc
  %k2 = load i64, %pk
  %y = mul i64 %k2, %c
  ret %y
}
""".replace("REC", REC).replace("INIT", RECS_INIT.hex())


def nested_model(i: int, s: int) -> int:
    r, j = s & 3, i & 7
    x = (100 + r) + (10 * r + j)
    return x * (10 * 2 + 3)


class TestNestedGep:
    def test_validates(self):
        assert validate(parse_module(NESTED_GEP)) == []

    def test_interpret_matches_model(self):
        m = parse_module(NESTED_GEP)
        for i in (0, 3, 7, 13):
            for s in range(8):
                tr = interpret(m, ExecInput([i], [s]))
                assert tr.abort is None
                assert tr.output == nested_model(i, s), (i, s)

    def test_points_to_elements(self):
        m = parse_module(NESTED_GEP)
        pt = andersen_solve(m)
        # index scaled by the 72-byte record, then field k at 0
        assert pt.of("main", "pk") == {("g:@recs", 0, 216, 72)}
        # a second variable index blurs the range over the object
        assert pt.of("main", "pv") == {("g:@recs", 0, 287, 1)}
        # 2 * 72 + field v at 8 + 3 * 8
        assert pt.of("main", "pc") == {("g:@recs", 176, 176, 0)}
        # every i64 slot of the array sits on one 8-byte ladder
        ref = refine_field_sensitivity(m, pt)
        assert ref.of("main", "pv") == {("g:@recs", 0, 280, 8)}

    def test_hardens_and_verifies(self):
        hm, rep = harden_module(parse_module(NESTED_GEP))
        assert rep["wrapped"] == 4
        verdicts = verify_module(parse_module(NESTED_GEP), hm, pairs=8)
        assert len(verdicts) == 4
        assert all(v.passed for v in verdicts), [v.line() for v in verdicts]


@pytest.mark.parametrize("gep,msgs", [
    ("gep REC @recs, %s, 1, %s", []),
    ("gep REC @recs, 0, 2", ["aggregate field index out of range"]),
    ("gep i64 @g, 0, 1", ["gep index 1 walks into scalar type"]),
    ("gep REC @recs, 0, %s", ["aggregate gep index must be constant"]),
], ids=["walks", "field-out-of-range", "into-scalar", "variable-field"])
def test_gep_walk_diagnostics(gep, msgs):
    m = parse_module("global @recs: [4 x %s]\nglobal @g: [2 x i64]\n"
                     "func @main(%%s: i64) -> i64 {\nentry:\n"
                     "  %%p = %s\n  ret 0\n}\n"
                     % (REC, gep.replace("REC", REC)))
    assert [d.msg for d in validate(m)] == msgs


# b3 defines %x at i8 and is listed after its user b2
B3_AFTER = """\
GLOBAL
func @main(%s: secret i64) -> i64 {
entry:
  %t = icmp eq %s, %s
  br b3
b2:
  %y = select %t, %x, %x
  %c = icmp lt %y, 0
  %r = select %c, 1, 2
  STORE
  ret %r
b3:
  %x = add i8 255, 0
  br b2
}
"""


def block_order(b2_first: bool, store: bool = False) -> str:
    text = B3_AFTER.replace("GLOBAL", "global @g: [1 x i8]" if store else "")
    text = text.replace("  STORE\n", "  store i8 %y, @g\n" if store else "")
    if b2_first:
        return text
    head, rest = text.split("b2:\n")
    b2, b3 = rest.split("b3:\n")
    return head + "b3:\n" + b3[:-2] + "b2:\n" + b2 + "}\n"


class TestBlockOrder:
    def test_listing_order_does_not_type(self):
        for b2_first in (True, False):
            m = parse_module(block_order(b2_first))
            assert validate(m) == []
            # %y is the i8 value 255, so -1 < 0
            assert interpret(m, ExecInput([], [5])).output == 1, b2_first

    def test_store_of_forward_register_validates(self):
        for b2_first in (True, False):
            m = parse_module(block_order(b2_first, store=True))
            assert validate(m) == [], b2_first

    def test_corpus_shuffled_blocks(self, corpus_names):
        rng = random.Random(11)
        moved = 0
        for name in corpus_names:
            m = parse_module(corpus_src(name))
            for fn in m.funcs.values():
                rest = list(fn.blocks.values())[1:]
                rng.shuffle(rest)
                fn.blocks = {b.label: b for b in [fn.entry] + rest}
            shuffled = parse_module(print_module(m))
            orig = parse_module(corpus_src(name))
            moved += any(list(f.blocks) != list(orig.funcs[f.name].blocks)
                         for f in shuffled.funcs.values())
            assert [str(d) for d in validate(shuffled)] == \
                [str(d) for d in validate(orig)], name
            for pub in public_batch(orig):
                for sv in secret_batch(orig, pairs=4):
                    inp = ExecInput(list(pub), list(sv))
                    a, b = interpret(orig, inp), interpret(shuffled, inp)
                    assert (a.output, a.abort, a.events) == \
                        (b.output, b.abort, b.events), (name, inp)
        assert moved          # the seed reorders some listings
