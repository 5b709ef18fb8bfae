"""The decoy and taint variants of the engine run a module exactly as the
plain machine does: they add flags beside the values and change no
instruction, step, output or abort.

The golden file pins the plain and decoy traces separately and no
instruction trace of the taint variant; this pins each flag variant to
the plain machine on the verify grid, on the module it runs in practice:
the decoy variant on the hardened module (lambda 64), the taint variant
on the normalized original as `pipeline` profiles it.  Beside the
corpus it runs a few programs written for engine paths the corpus never
takes.
"""

import pytest

from conftest import corpus_src
from ctlin import pipeline
from ctlin.interp import (DEFAULT_BUDGET, Code, DecoyDecoder, ExecInput,
                          Machine)
from ctlin.ir import parse_module
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.taint import Context, TaintDecoder, TaintMachine
from ctlin.verify import public_batch, secret_batch

NAMES = ("covering_loop", "exp_loop_pair", "fn_table_dispatch", "jit_trip",
         "nested_branches", "store_sweep", "table_lookup", "two_context")

# programs beside the corpus, for engine paths it never takes
EXTRA = {
    # the secret comes from a `secret` instruction, not a parameter
    "secret_read": """\
func @main(%n: i64) -> i64 {
entry:
  %s = secret i64 0
  %c = icmp lt %s, 100
  condbr %c, small, big
small:
  %x = add i64 %s, %n
  br join
big:
  br join
join:
  %r = phi i64 [big: 0, small: %x]
  ret %r
}
""",
    # a gep with three register operands
    "grid_index": """\
global @m: [4 x [4 x i64]] = %s
func @main(%%i: i64, %%s: secret i64) -> i64 {
entry:
  %%base = gep i64 @m, 0
  %%a = and i64 %%i, 3
  %%b = and i64 %%s, 3
  %%p = gep [4 x i64] %%base, %%a, %%b
  %%v = load i64, %%p
  ret %%v
}
""" % bytes(range(128)).hex(),
    # three live instances of one interposed heap site, freed from the
    # middle, then the end, then the front, beside a plain heap chunk
    # that the managed free releases too
    "heap_list": """\
global @slots: [3 x addr]

func @main(%s: secret i64) -> i64 {
entry:
  br loop
loop:
  %k = phi i64 [entry: 0, loop: %k1]
  %h = heapalloc [4 x i64]
  %q = gep addr @slots, %k
  store addr %h, %q
  %hk = gep i64 %h, 3
  store i64 %k, %hk
  %k1 = add i64 %k, 1
  %d = icmp eq %k1, 3
  condbr %d, done, loop
done:
  %i = and i64 %s, 3
  %q1 = gep addr @slots, 1
  %h1 = load addr, %q1
  %p = gep i64 %h1, %i
  %v = load i64, %p
  heapfree %h1
  %q2 = gep addr @slots, 2
  %h2 = load addr, %q2
  heapfree %h2
  %q0 = gep addr @slots, 0
  %h0 = load addr, %q0
  heapfree %h0
  %o = heapalloc i64
  store i64 5, %o
  %w = load i64, %o
  heapfree %o
  %r = add i64 %v, %w
  ret %r
}
""",
}
PROGRAMS = NAMES + tuple(EXTRA)


def _runs(m, machine) -> list:
    """(instrs, steps, output, abort) of each run of the verify grid,
    on a fresh machine() per run."""
    out = []
    for pub in public_batch(m):
        for sv in secret_batch(m, pairs=8):
            mach = machine()
            tr = mach.run(ExecInput(list(pub), list(sv)))
            out.append((tr.instrs, mach.steps, tr.output, tr.abort))
    assert any(r[3] is None for r in out), "every run aborted"
    return out


def _plain(m) -> list:
    code = Code(m)
    return _runs(m, lambda: Machine(m, code=code))


@pytest.fixture(scope="module")
def profiled_and_hardened():
    """name -> (plain runs, taint runs) of the module as profiled, and
    the hardened module at lambda 64."""
    out, runs = {}, []
    real = pipeline.taint_profile

    def profile(m, suite, rt, entry="main", budget=DEFAULT_BUDGET):
        # runs before the later stages rewrite m in place
        code = Code(m, TaintDecoder(rt))
        contexts = [Context(None, None, entry)]
        runs.append((_plain(m), _runs(m, lambda: TaintMachine(
            m, contexts, budget, code))))
        return real(m, suite, rt, entry, budget)

    pipeline.taint_profile = profile
    try:
        for name in PROGRAMS:
            src = EXTRA.get(name) or corpus_src(name)
            hm, _ = harden_module(parse_module(src), PipelineConfig(lam=64))
            assert len(runs) == 1
            out[name] = runs.pop(), hm
    finally:
        pipeline.taint_profile = real
    return out


def test_names_cover_the_corpus(corpus_names):
    assert sorted(NAMES) == corpus_names


@pytest.mark.parametrize("name", PROGRAMS)
def test_taint_variant_runs_as_plain(name, profiled_and_hardened):
    (plain, taint), _ = profiled_and_hardened[name]
    assert taint == plain


@pytest.mark.parametrize("name", PROGRAMS)
def test_decoy_variant_runs_as_plain(name, profiled_and_hardened):
    _, hm = profiled_and_hardened[name]
    code = Code(hm, DecoyDecoder())
    assert _runs(hm, lambda: Machine(hm, code=code)) == _plain(hm)
