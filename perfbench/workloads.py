"""Workload programs for the benchmark, each with a known answer.

A workload is a list of jobs.  A job is one IR program, the `ctlin harden`
and `ctlin verify` flags to run it with, and a Python model of the
program's return value.  The models never touch `ctlin`: they are the
known answer the interpreter's output is checked against.

`corpus` reads the repository's corpus programs.  `tables` and `scale`
are generated from a seed; the seed picks constants, operators and table
contents, never the shape or size of a program, so every seed costs
about the same to harden and verify.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

M64 = (1 << 64) - 1
INPUT_SPACE = 1 << 16   # matches the verifier's default secret space


@dataclass
class Job:
    name: str            # unique within the workload; also the file stem
    text: str            # IR source of the original program
    model: Callable      # model(public: list, secrets: list) -> int
    harden_flags: list = field(default_factory=list)
    verify_flags: list = field(default_factory=list)
    npub: int = 0
    # a failure of this job that is a recorded defect of ctlin: a regex
    # that each of its FAIL lines must match; see perfbench/README.md
    known_failure: str | None = None


# the natural-striding leak, with the witness `ctlin verify` gives for it
NATURAL_STRIDING_LEAK = r"FAIL obliviousness@\d+: trace differs at index \d+ "


# ---------------------------------------------------------------------------
# corpus

def _global_words(text: str, name: str, width: int) -> list:
    """Initializer of global @name read as little-endian words."""
    m = re.search(r"^global @%s: [^=\n]*= ([0-9a-f]+)$" % re.escape(name),
                  text, re.M)
    data = bytes.fromhex(m.group(1)) if m else b""
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def _corpus_model(name: str, text: str) -> Callable:
    """Known answer of each corpus program, written from its source."""
    g = lambda n, w: _global_words(text, n, w)  # noqa: E731
    if name == "covering_loop":
        t = g("t32", 4)
        return lambda p, s: sum(t) & 0xFFFFFFFF if s[0] & 1 else 0
    if name == "exp_loop_pair":
        return lambda p, s: ((s[0] & 7) + 1) * pow(p[0], (s[0] & 7) + 1,
                                                   1 << 64) & M64
    if name == "fn_table_dispatch":
        return lambda p, s: (s[0] * 3 if s[0] & 1 else s[0] + 10) & M64
    if name == "jit_trip":
        return lambda p, s: sum(range((s[0] & 7) + 1))
    if name == "nested_branches":
        v = g("v", 8)
        return lambda p, s: v[2] if s[0] & 1 else (v[0] if s[0] & 2 else 0)
    if name == "store_sweep":
        b = g("buf", 8)
        return lambda p, s: b[0]
    if name == "table_lookup":
        a, b = g("tableA", 1), g("tableB", 1)
        return lambda p, s: a[s[0]] ^ b[s[0]] if s[0] < 4096 else 0
    if name == "two_context":
        ta, tb = g("ta", 8), g("tb", 8)
        return lambda p, s: (ta[s[0] & 15] + tb[s[0] & 15]) & M64
    raise KeyError("no model for corpus program %r" % name)


CORPUS_LAMBDAS = (1, 4, 64)


def corpus_jobs(root: str) -> list:
    """Every corpus program at every quantum, default scheme and pairs."""
    cdir = os.path.join(root, "tests", "corpus")
    names = sorted(f[:-3] for f in os.listdir(cdir) if f.endswith(".ir"))
    jobs = []
    for lam in CORPUS_LAMBDAS:
        for n in names:
            with open(os.path.join(cdir, n + ".ir")) as f:
                text = f.read()
            npub = 1 if n == "exp_loop_pair" else 0
            jobs.append(Job("%s.l%d" % (n, lam), text, _corpus_model(n, text),
                            ["--lambda", str(lam)], npub=npub))
    return jobs


# ---------------------------------------------------------------------------
# generated programs

_OPS = {
    "add": lambda a, b: (a + b) & M64,
    "xor": lambda a, b: a ^ b,
    "mul": lambda a, b: (a * b) & M64,
}


TABLE_WORDS = 8192      # 8192 x i64 = 64 KiB


def _lookup_bump(rng: random.Random) -> Job:
    """Secret-indexed lookup, then a read-modify-write histogram bump.

    Both 64 KiB tables are swept: the lookup by a read sweep, the bump
    by a read sweep and a read-modify-write sweep.
    """
    tab = rng.randbytes(8 * TABLE_WORDS)
    words = [int.from_bytes(tab[i:i + 8], "little")
             for i in range(0, len(tab), 8)]
    mix = rng.randrange(1, TABLE_WORDS)
    op = rng.choice(sorted(_OPS))
    text = "\n".join([
        "global @tab: [%d x i64] = %s" % (TABLE_WORDS, tab.hex()),
        "global @hist: [%d x i64]" % TABLE_WORDS,
        "",
        "func @main(%k: i64, %s: secret i64) -> i64 {",
        "entry:",
        "  %i = and i64 %s, " + str(TABLE_WORDS - 1),
        "  %p = gep i64 @tab, %i",
        "  %v = load i64, %p",
        "  %j = xor i64 %i, " + str(mix),
        "  %q = gep i64 @hist, %j",
        "  %h = load i64, %q",
        "  %w = add i64 %h, %v",
        "  store i64 %w, %q",
        "  %%r = %s i64 %%w, %%k" % op,
        "  ret %r",
        "}", ""])
    f = _OPS[op]

    def model(p, s):
        return f(words[s[0] & (TABLE_WORDS - 1)], p[0])
    return Job("lookup_bump", text, model, ["--lambda", "64"],
               npub=1)


def _scatter(rng: random.Random) -> Job:
    """Two secret-indexed lookups combined and scattered to a third slot."""
    ta, tb = rng.randbytes(8 * TABLE_WORDS), rng.randbytes(8 * TABLE_WORDS)
    wa = [int.from_bytes(ta[i:i + 8], "little") for i in range(0, len(ta), 8)]
    wb = [int.from_bytes(tb[i:i + 8], "little") for i in range(0, len(tb), 8)]
    shift = rng.randrange(1, 4)
    text = "\n".join([
        "global @ta: [%d x i64] = %s" % (TABLE_WORDS, ta.hex()),
        "global @tb: [%d x i64] = %s" % (TABLE_WORDS, tb.hex()),
        "",
        "func @main(%k: i64, %s: secret i64) -> i64 {",
        "entry:",
        "  %i = and i64 %s, " + str(TABLE_WORDS - 1),
        "  %sh = lshr i64 %s, " + str(shift),
        "  %j = and i64 %sh, " + str(TABLE_WORDS - 1),
        "  %pa = gep i64 @ta, %i",
        "  %a = load i64, %pa",
        "  %pb = gep i64 @tb, %j",
        "  %b = load i64, %pb",
        "  %x = xor i64 %a, %b",
        "  %y = add i64 %x, %k",
        "  store i64 %y, %pb",
        "  ret %x",
        "}", ""])

    def model(p, s):
        return wa[s[0] & (TABLE_WORDS - 1)] ^ wb[(s[0] >> shift)
                                                 & (TABLE_WORDS - 1)]
    return Job("scatter", text, model, ["--lambda", "64"],
               npub=1)


def tables_jobs(seed: int) -> list:
    rng = random.Random("tables/%d" % seed)
    return [_lookup_bump(rng), _scatter(rng)]


# -- scale ------------------------------------------------------------------

SCALE_PAIRS = ["--pairs", "4"]
BRANCH_CHAINS, BRANCH_DEPTH = 16, 8
LOOPS, LOOP_TRIPS = 12, 16
TREE_DEPTH = 6          # clones: 2 + 4 + ... + 2^TREE_DEPTH = 126


def _nested_branches(rng: random.Random) -> Job:
    """Chains of BRANCH_DEPTH-deep nested secret branches, in sequence.

    Level d of a chain tests one secret bit; its then arm updates the
    accumulator and descends, its else arm updates it and leaves.
    """
    lines = ["func @main(%k: i64, %s: secret i64) -> i64 {", "entry:",
             "  %a0 = add i64 %k, 1"]
    spec = []
    acc = "%a0"
    for c in range(BRANCH_CHAINS):
        levels = [(rng.randrange(16), rng.choice(sorted(_OPS)),
                   rng.randrange(1, 1 << 16), rng.choice(sorted(_OPS)),
                   rng.randrange(1, 1 << 16)) for _ in range(BRANCH_DEPTH)]
        spec.append(levels)
        lines.append("  br c%d.l0" % c)
        a = acc
        for d, (bit, op1, k1, op2, k2) in enumerate(levels):
            p = "c%d.l%d" % (c, d)
            lines += ["%s:" % p,
                      "  %%%s.b = and i64 %%s, %d" % (p, 1 << bit),
                      "  %%%s.t = icmp ne %%%s.b, 0" % (p, p),
                      "  condbr %%%s.t, %s.then, %s.else" % (p, p, p),
                      "%s.then:" % p,
                      "  %%%s.x = %s i64 %s, %d" % (p, op1, a, k1),
                      "  br %s" % ("c%d.l%d" % (c, d + 1)
                                   if d + 1 < BRANCH_DEPTH else p + ".join"),
                      "%s.else:" % p,
                      "  %%%s.y = %s i64 %s, %d" % (p, op2, a, k2),
                      "  br %s.join" % p]
            a = "%%%s.x" % p
        # joins close innermost first; each merges the deeper result
        inner_val, inner_label = a, "c%d.l%d.then" % (c, BRANCH_DEPTH - 1)
        for d in reversed(range(BRANCH_DEPTH)):
            p = "c%d.l%d" % (c, d)
            lines += ["%s.join:" % p,
                      "  %%%s.r = phi i64 [%s: %s, %s.else: %%%s.y]"
                      % (p, inner_label, inner_val, p, p)]
            if d:
                lines.append("  br c%d.l%d.join" % (c, d - 1))
            inner_val, inner_label = "%%%s.r" % p, p + ".join"
        acc = inner_val
    lines += ["  ret %s" % acc, "}", ""]

    def model(p, s):
        a = (p[0] + 1) & M64
        for levels in spec:
            for bit, op1, k1, op2, k2 in levels:
                if s[0] >> bit & 1:
                    a = _OPS[op1](a, k1)
                else:
                    a = _OPS[op2](a, k2)
                    break
        return a
    return Job("nested_branches", "\n".join(lines), model, [], SCALE_PAIRS,
               npub=1)


def _secret_loops(rng: random.Random) -> Job:
    """LOOPS loops in sequence, each running 1..LOOP_TRIPS secret trips."""
    lines = ["func @main(%k: i64, %s: secret i64) -> i64 {", "entry:",
             "  %a0 = add i64 %k, 0"]
    spec = []
    acc, pre = "%a0", "entry"
    for j in range(LOOPS):
        # profiling draws secrets below 2^15, so the loop reading bits
        # 12..15 always meets trip counts past its trained bound
        sh = 12 if j == 0 else rng.randrange(12)
        mulk = rng.randrange(3, 1 << 16, 2)
        spec.append((sh, mulk))
        lines += ["  %%n%d.s = lshr i64 %%s, %d" % (j, sh),
                  "  %%n%d = and i64 %%n%d.s, %d" % (j, j, LOOP_TRIPS - 1),
                  "  br loop%d" % j,
                  "loop%d:" % j,
                  "  %%i%d = phi i64 [%s: 0, loop%d: %%i%d.n]"
                  % (j, pre, j, j),
                  "  %%a%d.p = phi i64 [%s: %s, loop%d: %%a%d.n]"
                  % (j, pre, acc, j, j),
                  "  %%a%d.m = mul i64 %%a%d.p, %d" % (j, j, mulk),
                  "  %%a%d.n = add i64 %%a%d.m, %%i%d" % (j, j, j),
                  "  %%i%d.n = add i64 %%i%d, 1" % (j, j),
                  "  %%c%d = icmp gt %%i%d.n, %%n%d" % (j, j, j),
                  "  condbr %%c%d, exit%d, loop%d" % (j, j, j),
                  "exit%d:" % j]
        acc, pre = "%%a%d.n" % j, "exit%d" % j
    lines += ["  ret %s" % acc, "}", ""]

    def model(p, s):
        a = p[0] & M64
        for sh, mulk in spec:
            for i in range(((s[0] >> sh) & (LOOP_TRIPS - 1)) + 1):
                a = (a * mulk + i) & M64
        return a
    return Job("secret_loops", "\n".join(lines), model, [], SCALE_PAIRS,
               npub=1)


def _call_tree(rng: random.Random) -> Job:
    """A call chain where each level calls the next twice.

    main passes two zeroed tables down; cloning splits every call path
    so each leaf clone sees one table.  The leaf bumps its slot only if
    the slot is nonzero, an arm profiling never takes.  This is the
    natural-striding leak recorded in perfbench/README.md.
    """
    ks = [rng.randrange(1, 256) for _ in range(TREE_DEPTH + 1)]
    lines = ["global @ta: [256 x i64]", "global @tb: [256 x i64]", ""]
    lines += ["func @n%d(%%t: addr, %%x: i64) -> i64 {" % TREE_DEPTH,
              "entry:",
              "  %m = and i64 %x, 255",
              "  %p = gep i64 %t, %m",
              "  %v = load i64, %p",
              "  %c = icmp ne %v, 0",
              "  condbr %c, bump, join",
              "bump:",
              "  %w = add i64 %v, 1",
              "  store i64 %w, %p",
              "  br join",
              "join:",
              "  %r = phi i64 [entry: %v, bump: %w]",
              "  %o = add i64 %r, %m",
              "  ret %o",
              "}", ""]
    for d in reversed(range(1, TREE_DEPTH)):
        lines += ["func @n%d(%%t: addr, %%x: i64) -> i64 {" % d,
                  "entry:",
                  "  %%x1 = xor i64 %%x, %d" % ks[d],
                  "  %%l = call @n%d(%%t, %%x)" % (d + 1),
                  "  %%r = call @n%d(%%t, %%x1)" % (d + 1),
                  "  %o = add i64 %l, %r",
                  "  ret %o",
                  "}", ""]
    lines += ["func @main(%s: secret i64) -> i64 {",
              "entry:",
              "  %pa = gep i64 @ta, 0",
              "  %pb = gep i64 @tb, 0",
              "  %%sb = xor i64 %%s, %d" % ks[0],
              "  %a = call @n1(%pa, %s)",
              "  %b = call @n1(%pb, %sb)",
              "  %r = add i64 %a, %b",
              "  ret %r",
              "}", ""]

    def node(d, x):
        if d == TREE_DEPTH:
            return x & 255          # tables stay zero: the bump never runs
        return node(d + 1, x) + node(d + 1, x ^ ks[d])

    def model(p, s):
        return (node(1, s[0]) + node(1, s[0] ^ ks[0])) & M64
    return Job("call_tree", "\n".join(lines), model, [], SCALE_PAIRS,
               known_failure=NATURAL_STRIDING_LEAK)


GUARDED_BUMP = """\
global @t: [256 x i64]
func @main(%s: secret i64) -> i64 {
entry:
  %m = and i64 %s, 255
  %p = gep i64 @t, %m
  %v = load i64, %p
  %c = icmp ne %v, 0
  condbr %c, a, j
a:
  %w = add i64 %v, 1
  store i64 %w, %p
  br j
j:
  %r = phi i64 [entry: %v, a: %w]
  ret %r
}
"""


def scale_jobs(seed: int) -> list:
    rng = random.Random("scale/%d" % seed)
    return [_nested_branches(rng), _secret_loops(rng), _call_tree(rng),
            Job("guarded_bump", GUARDED_BUMP, lambda p, s: 0, [], [],
                known_failure=NATURAL_STRIDING_LEAK)]


WORKLOADS = {
    "corpus": lambda root, seed: corpus_jobs(root),
    "tables": lambda root, seed: tables_jobs(seed),
    "scale": lambda root, seed: scale_jobs(seed),
}


def fixed_inputs(job: Job, count: int) -> list:
    """(public, secrets) vectors for output and ratio checks.

    Fixed per job name, not per seed: corpus jobs are the same for every
    seed, so their ratios repeat exactly.
    """
    rng = random.Random("inputs/%s" % job.name)
    out = [([0] * job.npub, [0])]
    while len(out) < count:
        out.append(([rng.randrange(INPUT_SPACE) for _ in range(job.npub)],
                    [rng.randrange(INPUT_SPACE)]))
    return out
