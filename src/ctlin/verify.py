"""Differential verification of hardened modules.

The security statements are testable: with public inputs held fixed,
the executed-instruction sequence must not change when secrets do, and
neither may the sequence of lambda-quantized memory window events.
Each check runs the module over a batch of secret vectors and compares
traces against the first one; any split is a finding, not a statistic.

`verify_module` decodes each module once per engine variant
(`interp.Code`): the hardened module as plain code, which pc-security,
obliviousness and equivalence share, and under `DecoyDecoder` for the
decoy invariants; the original once, for equivalence.  A check called
on its own decodes what it is not given.

Verification quantum may be coarser than the hardening quantum, since
identical fine-grained traces stay identical under any multiple.  The
reverse direction is refused rather than approximated.

A trace split usually means a secret still steers execution, but one
specific cause deserves its own diagnosis: trip counts that profiling
under-trained.  The hardened module then pads loops to a bound it has
to grow at run time, which is visible as a bound cell larger than its
baked-in value.  Verdicts carry that as a warning next to the failure.
The sweep is then retried once on the same decoded code, each cell
started at the largest value any run left in it.  That is enough: a
run ends with its cell at max(start, the trips it needs), so no run
of the retry grows a cell, and every run pads to the same bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cfl import BOUND_CELL
from .interp import (DEFAULT_BUDGET, Code, Decoder, DecoyDecoder, ExecInput,
                     Machine, final_state)
from .taint import input_shape

SECRET_SPACE = 1 << 16
PUBLIC_VECTORS = 3      # public inputs per grid: all zeros, then random
EXHAUSTIVE_LIMIT = 4096


@dataclass
class Verdict:
    check: str
    passed: bool
    detail: str = ""
    warnings: list = field(default_factory=list)

    def line(self) -> str:
        s = "%s %s" % ("PASS" if self.passed else "FAIL", self.check)
        if self.detail:
            s += ": " + self.detail
        return s


def secret_batch(m, entry: str = "main", pairs: int = 100, seed: int = 0,
                 space: int = SECRET_SPACE) -> list:
    """Secret vectors to compare, exhaustive when the space allows.

    One secret slot over a small space is enumerated completely;
    anything larger gets `pairs` random pairs plus both extremes.  A
    space of one value cannot vary a secret and is refused.
    """
    if space < 2:
        raise ValueError("secret space %d holds fewer than 2 values"
                         % space)
    _, nsec = input_shape(m, entry)
    if nsec == 0:
        return [[]]
    if nsec == 1 and space <= EXHAUSTIVE_LIMIT:
        return [[v] for v in range(space)]
    rng = random.Random(seed)
    vecs = [[0] * nsec, [space - 1] * nsec]
    for _ in range(2 * pairs):
        vecs.append([rng.randrange(space) for _ in range(nsec)])
    return vecs


def public_batch(m, entry: str = "main", seed: int = 0,
                 space: int = SECRET_SPACE) -> list:
    npub, _ = input_shape(m, entry)
    if npub == 0:
        return [[]]
    rng = random.Random(seed ^ 0x9E3779B9)
    out = [[0] * npub]
    while len(out) < PUBLIC_VECTORS:
        out.append([rng.randrange(space) for _ in range(npub)])
    return out


def _lam_h(m) -> int:
    """The quantum m was hardened at; 64 for an unhardened module."""
    return m.harden.lam if m.harden else 64


def quantum_fault(m, lam: int) -> str | None:
    """Why lam cannot be a verify quantum of m, or None: it must be
    positive and a multiple of the quantum m was hardened at."""
    if lam <= 0:
        return "verify quantum %d is not positive" % lam
    if lam % _lam_h(m):
        return ("verify quantum %d is not a multiple of hardening quantum "
                "%d" % (lam, _lam_h(m)))
    return None


def _decoded(m, code, variant):
    """m decoded under variant, `Decoder` or `DecoyDecoder`: the caller's
    code, checked, or decoded here."""
    code = code or Code(m, variant())
    if code.m is not m or type(code.decoder) is not variant:
        raise ValueError("code is not m decoded " + (
            "as plain code" if variant is Decoder else "under DecoyDecoder"))
    return code


def _first_divergence(a, b) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def _compare_traces(code, entry, lam, pairs, seed, space, budget, check,
                    sig=None):
    """Fixed public, all secrets, trace signature must not move.

    A run fails on its first decoy violation, then on an abort, then on
    an access outside the plan.  With no signature that is all it is
    checked for: no bound cell is read and nothing retried.

    A split that goes away once the trip cells keep their grown values
    is the one-off bound adaptation, reported as a warning on a passing
    verdict: the adversary sees one perturbation per deployment, not a
    per-secret signal.  One retry, each cell started at the largest
    value a run of the first sweep left in it, grows nothing (see the
    module docstring); splits that survive it fail, with the first
    divergence index as witness.
    """
    m = code.m
    secs = secret_batch(m, entry, pairs, seed, space)
    pubs = public_batch(m, entry, seed=seed, space=space)
    cells = {code.global_addr[n]: n for n in m.globals
             if sig and n.startswith(BOUND_CELL)}
    start = {addr: int.from_bytes(m.globals[n].init or b"", "little")
             for addr, n in cells.items()}
    top = dict(start)       # largest value each cell ended a run with
    plan = "striding violation" if sig else "access outside plan portions"
    seeds, warnings = (), []
    while True:
        mismatch = None
        for pub in pubs:
            ref = None
            for sv in secs:
                mach = Machine(m, lam=lam, budget=budget, code=code)
                for addr, v in seeds:
                    mach.mem.write(addr, 8, v)
                tr = mach.run(ExecInput(list(pub), list(sv)), entry=entry)
                bad = (tr.decoy_violations and repr(tr.decoy_violations[0])
                       or tr.abort and "abort '%s'" % tr.abort
                       or tr.violations and "%s %r"
                       % (plan, tr.violations[0]))
                if bad:
                    return Verdict(check, False, "%s under secrets %s "
                                   "(public %s)" % (bad, sv, pub), warnings)
                if not sig:
                    continue
                for addr in top:
                    top[addr] = max(top[addr], mach.mem.read(addr, 8))
                cur = sig(tr)
                if ref is None:
                    ref, ref_sec = cur, sv
                elif mismatch is None and cur != ref:
                    # sweep on: the retry needs every run's growth
                    mismatch = (ref_sec, sv, pub,
                                _first_divergence(ref, cur))
        if not sig:
            return Verdict(check, True,
                           "%d runs clean" % (len(pubs) * len(secs)))
        if mismatch is None:
            return Verdict(check, True,
                           "%d secret vectors x %d public vectors"
                           % (len(secs), len(pubs)), warnings)
        grown = sorted((cells[a], v) for a, v in top.items() if v > start[a])
        if warnings or not grown:
            break
        warnings.append("trip counts under-trained; bound cells grew to "
                        "%s and the sweep was retried"
                        % ", ".join("%s=%d" % g for g in grown))
        seeds = list(top.items())
    a, b, pub, idx = mismatch
    return Verdict(check, False, "trace differs at index %d between secrets "
                   "%s and %s (public %s)" % (idx, a, b, pub), warnings)


def check_pc_security(m, entry: str = "main", pairs: int = 100,
                      seed: int = 0, space: int = SECRET_SPACE,
                      budget: int = DEFAULT_BUDGET,
                      code: Code | None = None) -> Verdict:
    """Executed-instruction trace is the same for every secret.

    `code` is m decoded as plain code by the caller, as in `Machine`.
    """
    return _compare_traces(_decoded(m, code, Decoder), entry, _lam_h(m),
                           pairs, seed, space, budget, "pc-security",
                           lambda tr: tuple(tr.instrs))


def check_obliviousness(m, lam: int | None = None, entry: str = "main",
                        pairs: int = 100, seed: int = 0,
                        space: int = SECRET_SPACE,
                        budget: int = DEFAULT_BUDGET,
                        code: Code | None = None) -> Verdict:
    """Memory window event trace at quantum lam is secret-independent.

    `code` is m decoded as plain code by the caller, as in `Machine`.
    """
    lam_v = _lam_h(m) if lam is None else lam
    bad = quantum_fault(m, lam_v)
    if lam_v <= 0:
        raise ValueError(bad)
    check = "obliviousness@%d" % lam_v
    if bad:
        return Verdict(check, False, bad)
    return _compare_traces(_decoded(m, code, Decoder), entry, _lam_h(m),
                           pairs, seed, space, budget, check,
                           lambda tr: tuple(tr.requantize(lam_v)))


def check_equivalence(orig, hard, entry: str = "main", samples: int = 50,
                      seed: int = 0, space: int = SECRET_SPACE,
                      budget: int = DEFAULT_BUDGET,
                      code: Code | None = None) -> Verdict:
    """Hardened module computes what the original does, abort for abort.

    Compared per input: entry return value, bytes of every non-reserved
    global, live heap payloads in allocation order, and the abort kind
    when either side stops early.  An input on which the original runs
    out of budget fails: two runs cut short compare nothing.  `code` is
    hard decoded as plain code by the caller; the original is decoded
    here, once.
    """
    npub, nsec = input_shape(orig, entry)
    rng = random.Random(seed ^ 0x517CC1B7)
    inputs = [([0] * npub, [0] * nsec)]
    for _ in range(samples):
        inputs.append(([rng.randrange(space) for _ in range(npub)],
                       [rng.randrange(space) for _ in range(nsec)]))
    orig_code, hard_code = Code(orig), _decoded(hard, code, Decoder)
    for pub, sec in inputs:
        inp = ExecInput(list(pub), list(sec))
        to, go, ho = final_state(orig, inp, entry=entry, budget=budget,
                                 code=orig_code)
        where = "public %s secrets %s" % (pub, sec)
        if to.abort == "budget":
            return Verdict("equivalence", False,
                           "original ran out of budget %d (%s)"
                           % (budget, where))
        th, gh, hh = final_state(hard, inp, entry=entry, budget=budget,
                                 code=hard_code)
        if to.abort != th.abort:
            return Verdict("equivalence", False, "abort '%s' vs '%s' (%s)"
                           % (to.abort, th.abort, where))
        if to.abort is None and to.output != th.output:
            return Verdict("equivalence", False, "output %s vs %s (%s)"
                           % (to.output, th.output, where))
        if go != gh:
            bad = sorted(n for n in set(go) | set(gh)
                         if go.get(n) != gh.get(n))
            return Verdict("equivalence", False, "globals differ at %s (%s)"
                           % (", ".join("@" + n for n in bad), where))
        if ho != hh:
            return Verdict("equivalence", False,
                           "live heap contents differ (%s)" % where)
    return Verdict("equivalence", True, "%d inputs" % len(inputs))


def check_decoy_invariants(m, entry: str = "main", pairs: int = 100,
                           seed: int = 0, space: int = SECRET_SPACE,
                           budget: int = DEFAULT_BUDGET,
                           code: Code | None = None) -> Verdict:
    """Decoy execution leaves no mark: no store lands under a decoy
    shadow, no access escapes its plan portions, nothing aborts.

    Runs with the shadow tracker on; stores whose data carries a decoy
    shadow are reported unless they belong to the transforms' own
    bookkeeping cells.  `code` is m decoded under `DecoyDecoder` by the
    caller.
    """
    return _compare_traces(_decoded(m, code, DecoyDecoder), entry,
                           _lam_h(m), pairs, seed, space, budget,
                           "decoy-invariants")


def verify_module(orig, hard, entry: str = "main", lams=None,
                  pairs: int = 100, seed: int = 0,
                  space: int = SECRET_SPACE,
                  budget: int = DEFAULT_BUDGET) -> list:
    """All checks in report order; extra quanta verify coarser views."""
    if budget < 1:      # no run would execute an instruction
        raise ValueError("budget %d runs no instruction" % budget)
    plain = Code(hard)
    out = [check_pc_security(hard, entry, pairs, seed, space, budget, plain),
           check_obliviousness(hard, None, entry, pairs, seed, space,
                               budget, plain)]
    for lv in sorted(set(lams or [])):
        if lv != _lam_h(hard):
            out.append(check_obliviousness(hard, lv, entry, pairs, seed,
                                           space, budget, plain))
    out.append(check_equivalence(orig, hard, entry, max(10, pairs // 2),
                                 seed, space, budget, plain))
    out.append(check_decoy_invariants(hard, entry, pairs, seed, space,
                                      budget, Code(hard, DecoyDecoder())))
    return out
