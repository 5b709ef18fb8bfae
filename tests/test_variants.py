"""The decoy and taint variants of the engine run a module exactly as the
plain machine does: they add flags beside the values and change no
instruction, step, output or abort.

The golden file pins the plain and decoy traces separately and no
instruction trace of the taint variant; this pins each flag variant to
the plain machine on the verify grid, on the module it runs in practice:
the decoy variant on the hardened module (lambda 64), the taint variant
on the normalized original as `pipeline` profiles it.
"""

import pytest

from conftest import load
from ctlin import pipeline
from ctlin.interp import (DEFAULT_BUDGET, Code, DecoyDecoder, ExecInput,
                          Machine)
from ctlin.pipeline import PipelineConfig, harden_module
from ctlin.taint import Context, TaintDecoder, TaintMachine
from ctlin.verify import public_batch, secret_batch

NAMES = ("covering_loop", "exp_loop_pair", "fn_table_dispatch", "jit_trip",
         "nested_branches", "store_sweep", "table_lookup", "two_context")


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
        for name in NAMES:
            hm, _ = harden_module(load(name), PipelineConfig(lam=64))
            assert len(runs) == 1
            out[name] = runs.pop(), hm
    finally:
        pipeline.taint_profile = real
    return out


def test_names_cover_the_corpus(corpus_names):
    assert sorted(NAMES) == corpus_names


@pytest.mark.parametrize("name", NAMES)
def test_taint_variant_runs_as_plain(name, profiled_and_hardened):
    (plain, taint), _ = profiled_and_hardened[name]
    assert taint == plain


@pytest.mark.parametrize("name", NAMES)
def test_decoy_variant_runs_as_plain(name, profiled_and_hardened):
    _, hm = profiled_and_hardened[name]
    code = Code(hm, DecoyDecoder())
    assert _runs(hm, lambda: Machine(hm, code=code)) == _plain(hm)
