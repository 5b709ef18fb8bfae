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
The sweep is then retried on the same decoded code, with those cells
started at their grown values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .interp import (DEFAULT_BUDGET, Code, Decoder, DecoyDecoder, ExecInput,
                     Machine, final_state)
from .taint import input_shape

SECRET_SPACE = 1 << 16
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


def public_batch(m, entry: str = "main", count: int = 3, seed: int = 0,
                 space: int = SECRET_SPACE) -> list:
    npub, _ = input_shape(m, entry)
    if npub == 0:
        return [[]]
    rng = random.Random(seed ^ 0x9E3779B9)
    out = [[0] * npub]
    while len(out) < count:
        out.append([rng.randrange(space) for _ in range(npub)])
    return out


def _bound_cells(code) -> list:
    """(name, address) of each trip cell of the decoded module."""
    return [(name, code.global_addr[name]) for name in code.m.globals
            if name.startswith("cfl.k.")]


def _grown_bounds(cells, starts, mach) -> dict:
    """Trip cells above their start value after a run."""
    out = {}
    for name, addr in cells:
        cur = mach.mem.read(addr, 8)
        if cur > starts[name]:
            out[name] = cur
    return out


def _run(code, pub, sec, entry, lam, budget, seeds=()):
    """One run on decoded code; each (address, value) of seeds is written
    over the 8-byte cell's initializer first."""
    mach = Machine(code.m, lam=lam, budget=budget, code=code)
    for addr, v in seeds:
        mach.mem.write(addr, 8, v)
    tr = mach.run(ExecInput(list(pub), list(sec)), entry=entry)
    return mach, tr


def _plain(m, code):
    """m decoded as plain code: the caller's, checked, or decoded here."""
    code = code or Code(m)
    if code.m is not m or type(code.decoder) is not Decoder:
        raise ValueError("code is not m decoded as plain code")
    return code


def _first_divergence(a, b) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def _compare_traces(code, entry, lam, pairs, seed, space, budget, check,
                    sig):
    """Fixed public, all secrets, trace signature must not move.

    A split that goes away once the trip cells keep their grown values
    is the one-off bound adaptation, reported as a warning on a passing
    verdict: the adversary sees one perturbation per deployment, not a
    per-secret signal.  The retry runs the same decoded code with the
    cells started at those values.  Splits that survive retraining
    fail, with the first divergence index as witness.
    """
    m = code.m
    secs = secret_batch(m, entry, pairs, seed, space)
    pubs = public_batch(m, entry, seed=seed, space=space)
    cells = _bound_cells(code)
    starts = {name: int.from_bytes(m.globals[name].init or b"", "little")
              for name, _ in cells}
    seeds = []      # cells started above their initializers, on a retry
    warnings = []
    for _ in range(4):
        grown = {}
        mismatch = None
        for pub in pubs:
            ref = ref_sec = None
            for sv in secs:
                mach, tr = _run(code, pub, sv, entry, lam, budget, seeds)
                if tr.abort is not None:
                    return Verdict(check, False,
                                   "abort '%s' under secrets %s"
                                   % (tr.abort, sv), warnings)
                if tr.violations:
                    return Verdict(check, False,
                                   "striding violation %r under secrets %s"
                                   % (tr.violations[0], sv), warnings)
                grown.update(_grown_bounds(cells, starts, mach))
                cur = sig(tr)
                if ref is None:
                    ref, ref_sec = cur, sv
                elif mismatch is None and cur != ref:
                    # sweep on: later secrets may still grow trip cells,
                    # and a retry only converges with all of that growth
                    mismatch = (ref_sec, sv, pub,
                                _first_divergence(ref, cur))
        if mismatch is None:
            return Verdict(check, True,
                           "%d secret vectors x %d public vectors"
                           % (len(secs), len(pubs)), warnings)
        if not grown:
            a, b, pub, idx = mismatch
            return Verdict(check, False,
                           "trace differs at index %d between secrets %s "
                           "and %s (public %s)" % (idx, a, b, pub),
                           warnings)
        grown_text = ", ".join("%s=%d" % (n, v)
                               for n, v in sorted(grown.items()))
        warnings.append("trip counts under-trained; bound cells grew to "
                        "%s and the sweep was retried" % grown_text)
        starts.update(grown)
        seeds = [(addr, starts[name]) for name, addr in cells]
    a, b, pub, idx = mismatch
    return Verdict(check, False,
                   "bound cells kept growing; trace still differs at index "
                   "%d between secrets %s and %s (public %s)"
                   % (idx, a, b, pub), warnings)


def check_pc_security(m, entry: str = "main", pairs: int = 100,
                      seed: int = 0, space: int = SECRET_SPACE,
                      budget: int = DEFAULT_BUDGET,
                      code: Code | None = None) -> Verdict:
    """Executed-instruction trace is the same for every secret.

    `code` is m decoded as plain code by the caller, as in `Machine`.
    """
    lam = m.harden.lam if m.harden else 64
    return _compare_traces(_plain(m, code), entry, lam, pairs, seed, space,
                           budget, "pc-security", lambda tr: tuple(tr.instrs))


def check_obliviousness(m, lam: int | None = None, entry: str = "main",
                        pairs: int = 100, seed: int = 0,
                        space: int = SECRET_SPACE,
                        budget: int = DEFAULT_BUDGET,
                        code: Code | None = None) -> Verdict:
    """Memory window event trace at quantum lam is secret-independent.

    `code` is m decoded as plain code by the caller, as in `Machine`.
    """
    lam_h = m.harden.lam if m.harden else 64
    lam_v = lam_h if lam is None else lam
    if lam_v <= 0:
        raise ValueError("verify quantum %d is not positive" % lam_v)
    check = "obliviousness@%d" % lam_v
    if lam_v % lam_h:
        return Verdict(check, False,
                       "verify quantum %d is not a multiple of hardening "
                       "quantum %d" % (lam_v, lam_h))
    return _compare_traces(_plain(m, code), entry, lam_h, pairs, seed, space,
                           budget, check,
                           lambda tr: tuple(tr.requantize(lam_v)))


def check_equivalence(orig, hard, entry: str = "main", samples: int = 50,
                      seed: int = 0, space: int = SECRET_SPACE,
                      budget: int = DEFAULT_BUDGET,
                      code: Code | None = None) -> Verdict:
    """Hardened module computes what the original does, abort for abort.

    Compared per input: entry return value, bytes of every non-reserved
    global, live heap payloads in allocation order, and the abort kind
    when either side stops early.  `code` is hard decoded as plain code
    by the caller; the original is decoded here, once.
    """
    npub, nsec = input_shape(orig, entry)
    rng = random.Random(seed ^ 0x517CC1B7)
    inputs = [([0] * npub, [0] * nsec)]
    for _ in range(samples):
        inputs.append(([rng.randrange(space) for _ in range(npub)],
                       [rng.randrange(space) for _ in range(nsec)]))
    orig_code, hard_code = Code(orig), _plain(hard, code)
    for pub, sec in inputs:
        inp = ExecInput(list(pub), list(sec))
        to, go, ho = final_state(orig, inp, entry=entry, budget=budget,
                                 code=orig_code)
        th, gh, hh = final_state(hard, inp, entry=entry, budget=budget,
                                 code=hard_code)
        where = "public %s secrets %s" % (pub, sec)
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
    secs = secret_batch(m, entry, pairs, seed, space)
    pubs = public_batch(m, entry, seed=seed, space=space)
    lam = m.harden.lam if m.harden else 64
    code = code or Code(m, DecoyDecoder())
    if code.m is not m or not isinstance(code.decoder, DecoyDecoder):
        raise ValueError("code is not m decoded under DecoyDecoder")
    n = 0
    for pub in pubs:
        for sv in secs:
            _, tr = _run(code, pub, sv, entry, lam, budget)
            where = "under secrets %s" % (sv,)
            if tr.decoy_violations:
                return Verdict("decoy-invariants", False, "%r %s"
                               % (tr.decoy_violations[0], where))
            if tr.violations:
                return Verdict("decoy-invariants", False,
                               "access outside plan portions %r %s"
                               % (tr.violations[0], where))
            if tr.abort is not None:
                return Verdict("decoy-invariants", False,
                               "abort '%s' %s" % (tr.abort, where))
            n += 1
    return Verdict("decoy-invariants", True, "%d runs clean" % n)


def verify_module(orig, hard, entry: str = "main", lams=None,
                  pairs: int = 100, seed: int = 0,
                  space: int = SECRET_SPACE,
                  budget: int = DEFAULT_BUDGET) -> list:
    """All checks in report order; extra quanta verify coarser views."""
    if budget < 1:      # equivalence would pass comparing two aborts
        raise ValueError("budget %d runs no instruction" % budget)
    plain = Code(hard)
    out = [check_pc_security(hard, entry, pairs, seed, space, budget, plain),
           check_obliviousness(hard, None, entry, pairs, seed, space,
                               budget, plain)]
    lam_h = hard.harden.lam if hard.harden else 64
    for lv in sorted(set(lams or [])):
        if lv != lam_h:
            out.append(check_obliviousness(hard, lv, entry, pairs, seed,
                                           space, budget, plain))
    out.append(check_equivalence(orig, hard, entry, max(10, pairs // 2),
                                 seed, space, budget, plain))
    out.append(check_decoy_invariants(hard, entry, pairs, seed, space,
                                      budget, Code(hard, DecoyDecoder())))
    return out
