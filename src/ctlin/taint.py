"""Dynamic secret-flow profiling.

Runs the program on a suite of inputs under a shadow machine that tracks
taint per register and per memory byte, and collects every program point
whose behaviour depended on a secret: conditional branches, loop trip
counts, memory accesses, and divisions.  The result seeds the sensitive
set that the linearization passes consume.

Implicit flows are handled in two places.  Values merged at a branch
join inherit the taint of the conditions whose regions end at that join.
Registers defined inside a loop whose exit condition was ever tainted
become tainted when the loop exits; the values they carry encode the
secret trip count even when every individual assignment was public.
Loop header phis take only the taint of their incoming operand, so an
induction variable stays public while the loop runs.

Facts are kept per calling context (a calling-context tree, Ammons,
Ball & Larus, PLDI 1997), so after cloning splits call paths into
functions of their own, `translate_report` hands each clone the facts
of the one path it stands for instead of profiling again.  Each frame
carries its context, and per loop a slot with the trip count whose
flag says the exit condition was tainted.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field

from .cfg import reachable
from .interp import (DEFAULT_BUDGET, Code, ExecInput, FlagDecoder, Machine,
                     slot_value)
from .ir import Module, Reg, size_of
from .normalize import RegionTree


class ProfileError(Exception):
    pass


@dataclass
class TaintReport:
    """Raw profiling facts, unioned over every input in the suite."""

    branches: set = field(default_factory=set)   # condbr iids, non-latch
    loops: set = field(default_factory=set)      # (fn, header) keys
    reads: set = field(default_factory=set)      # load iids, tainted address
    writes: set = field(default_factory=set)     # store iids, addr or value
    addr_tainted: set = field(default_factory=set)  # accesses, tainted pointer
    divrem: set = field(default_factory=set)     # div/rem iids, tainted ops
    loop_bounds: dict = field(default_factory=dict)  # (fn, header) -> trips
    # calling-context tree nodes in creation order, root first; set on
    # the union `taint_profile` returns
    contexts: list | None = field(default=None, compare=False, repr=False)

    def absorb(self, other: "TaintReport", iid=None, fn=None):
        """Union other's facts into self, iids through the map iid and
        loop keys renamed to function fn when given."""
        def ids(s):
            return s if iid is None else {iid[i] for i in s}

        def key(k):
            return k if fn is None else (fn, k[1])
        self.branches |= ids(other.branches)
        self.reads |= ids(other.reads)
        self.writes |= ids(other.writes)
        self.addr_tainted |= ids(other.addr_tainted)
        self.divrem |= ids(other.divrem)
        self.loops |= {key(k) for k in other.loops}
        bounds = self.loop_bounds
        for k, n in other.loop_bounds.items():
            k = key(k)
            bounds[k] = max(bounds.get(k, 1), n)


@dataclass
class SensitiveSet:
    """Closure of the report over regions, callees and decoy reach."""

    regions: set = field(default_factory=set)    # (fn, kind, entry) rids
    functions: set = field(default_factory=set)  # bodies linearized whole
    accesses: set = field(default_factory=set)   # load/store iids for DFL
    divrem: set = field(default_factory=set)     # div/rem iids to sanitize
    bounds: dict = field(default_factory=dict)   # (fn, header) -> k
    public_addr: set = field(default_factory=set)  # of them, public address


class Context:
    """A calling-context tree node: fn entered from the parent context
    through call site `site` (None at the root), with the facts of its
    runs there.  A call into a function already on the chain goes back
    to that ancestor, so recursion adds no nodes."""

    __slots__ = ("parent", "site", "fn", "report", "children")

    def __init__(self, parent, site, fn):
        self.parent = parent
        self.site = site
        self.fn = fn
        self.report = TaintReport()
        self.children = {}      # (call site iid, callee) -> Context


class TaintDecoder(FlagDecoder):
    """Decodes the taint variant: aux[r] is true when r depends on a
    secret.  On top of the flag rules, phis at a branch join take the
    taint of the branch conditions, loads the taint of the memory they
    read, callee parameters the taint of their arguments, and the
    handlers add what they find to the machine's report."""

    secrets = True

    def __init__(self, rt: RegionTree):
        self.rt = rt

    def prepare(self):
        # (fn, join label) -> keys of the branch conditions merging there
        self.joins = defaultdict(list)
        for r in self.rt.by_id.values():
            if r.kind != "branch" or r.exit is None:
                continue
            cond = self.m.funcs[r.fn].blocks[r.entry].terminator.args[0]
            if isinstance(cond, Reg):      # constants carry no taint
                self.joins[(r.fn, r.exit)].append(cond.name)

    def join_conds(self, fn, b):
        return tuple(map(self.slot, self.joins.get((fn.name, b.label), ())))

    def terminal(self, fn, b, ins):
        if ins.op != "condbr":
            return super().terminal(fn, b, ins)
        k, iid = self.key(ins.args[0]), ins.iid
        loop = self.rt.loop_of_latch(fn.name, b.label)
        if loop is None:
            def h(mach, regs, t):
                if t[k]:
                    t[-1].report.branches.add(iid)
            return h
        key = (fn.name, loop.entry)
        on_true, on_false = (lbl == loop.entry for lbl in ins.labels)
        defs = tuple({self.slot(i.name) for lbl in loop.blocks
                      for i in fn.blocks[lbl].instrs if i.name is not None})
        n = self.slot("trips:" + loop.entry, 1)

        # regs[n] counts the frame's trips through the loop and t[n] says
        # the latch condition was tainted on one; both reset at the exit
        def h(mach, regs, t):
            if t[k]:
                t[n] = True
            if on_true if regs[k] & 1 else on_false:
                regs[n] += 1
                return
            report = t[-1].report
            report.loop_bounds[key] = max(report.loop_bounds.get(key, 1),
                                          regs[n])
            regs[n] = 1
            if t[n]:
                t[n] = False
                report.loops.add(key)
                for s in defs:
                    t[s] = True
        return h

    def flagged(self, fn, ins):
        if ins.op == "load":
            return self._op_load(fn, ins)    # it flags its result itself
        h = super().flagged(fn, ins)
        if ins.op not in ("div", "rem"):
            return h
        d, iid = self.slot(ins.name), ins.iid

        def ht(mach, regs, t):
            h(mach, regs, t)
            if t[d]:
                t[-1].report.divrem.add(iid)
        return ht

    # no one reads a profiling run's trace, so plain accesses skip the
    # window events and access log of the plain handlers
    def _op_load(self, fn, ins):
        d, iid = self.slot(ins.name), ins.iid
        pk, size = self.key(ins.args[0]), size_of(ins.ty)

        def ht(mach, regs, t):
            p = regs[pk]
            regs[d] = mach.mem.read(p, size)
            tp = t[pk]
            if tp:
                t[-1].report.reads.add(iid)
                t[-1].report.addr_tainted.add(iid)
            t[d] = tp or bool(mach.mtaint) \
                and not mach.mtaint.isdisjoint(range(p, p + size))
        return ht

    def _op_store(self, fn, ins):
        iid, size = ins.iid, size_of(ins.ty)
        vk, pk = self.key(ins.args[0]), self.key(ins.args[1])

        def ht(mach, regs, t):
            p = regs[pk]
            mach.mem.write(p, size, slot_value(regs[vk]))
            tv = t[vk]
            tp = t[pk]
            if tv or tp:
                t[-1].report.writes.add(iid)
                if tp:
                    t[-1].report.addr_tainted.add(iid)
                mach.mtaint.update(range(p, p + size))
            elif mach.mtaint:
                mach.mtaint.difference_update(range(p, p + size))
        return ht

    # -- frames: a frame's flags end with the context it runs in ------------

    def entry_aux(self, df, mach):
        return super().entry_aux(df, mach) + [mach.contexts[0]]

    def enter(self, ins, argk):
        # the callee's parameters take the taint of their arguments, and
        # its frame runs in the child context of the caller's
        site, n = ins.iid, len(argk) + 1
        key = (site, ins.callee) if ins.op == "call" else None

        def enter(mach, t, callee):
            node = t[-1]
            tc = callee.flags + [node.children.get(key or (site, callee.name))
                                 or mach.descend(node, site, callee.name)]
            tc[1:n] = map(t.__getitem__, argk)
            if True in callee.secret:
                tc[1:n] = map(operator.or_, tc[1:n], callee.secret)
            return tc
        return enter


class TaintMachine(Machine):
    """Interpreter with a parallel boolean shadow for every value.

    One machine profiles one input from the root context of a calling-
    context tree that accumulates across runs; new nodes are appended
    to `contexts`.  Each frame's flag list ends with the context it
    runs in, whose report its handlers write to.  `code` is the module
    decoded with `TaintDecoder` once per suite.
    """

    def __init__(self, m: Module, contexts: list, budget: int, code: Code):
        super().__init__(m, lam=1, budget=budget, code=code)
        self.contexts = contexts
        self.mtaint = set()     # tainted byte addresses

    def descend(self, node: Context, site: int, fn: str) -> Context:
        """The context fn runs in when node calls it from `site`, found
        on the first such call: a new child, or fn's ancestor."""
        child = node
        while child is not None and child.fn != fn:
            child = child.parent
        if child is None:
            child = Context(node, site, fn)
            self.contexts.append(child)
        node.children[(site, fn)] = child
        return child


def input_shape(m: Module, entry: str = "main"):
    """(public, secret) slot counts the entry point consumes."""
    fn = m.funcs.get(entry)
    if fn is None:
        raise ProfileError("no entry function @%s" % entry)
    nsec = sum(1 for p in fn.params if p.secret)
    for ins in m.instructions():
        if ins.op == "secret":
            nsec = max(nsec, ins.args[0].value + 1)
    npub = sum(1 for p in fn.params if not p.secret)
    return npub, nsec


def default_suite(m: Module, entry: str = "main", space: int = 32768,
                  partitions: int = 128, seed: int = 0) -> list:
    """Profiling inputs: one secret vector per partition of the space.

    Each secret slot draws from its partition's subrange so the suite
    exercises the whole range without exhausting it; public arguments
    draw uniformly.  Deterministic for a given seed.
    """
    npub, nsec = input_shape(m, entry)
    rng = random.Random(seed)
    psize = max(1, space // partitions)
    suite = []
    for i in range(partitions):
        lo = (i * psize) % space
        secrets = [lo + rng.randrange(psize) for _ in range(nsec)]
        public = [rng.randrange(space) for _ in range(npub)]
        suite.append(ExecInput(public, secrets))
    return suite


def taint_profile(m: Module, suite, rt: RegionTree, entry: str = "main",
                  budget: int = DEFAULT_BUDGET) -> TaintReport:
    """Profile every input and union the findings.

    The module must be in region normal form and rt its region tree, as
    `normalize_regions` returned it.  The program is expected to be
    error-free on the suite; an abort is a profiling failure, not a
    finding.  The union keeps the calling-context tree in `contexts`.
    """
    contexts = [Context(None, None, entry)]
    code = Code(m, TaintDecoder(rt))
    for inp in suite:
        tr = TaintMachine(m, contexts, budget, code).run(inp, entry)
        if tr.abort is not None:
            raise ProfileError("abort %r while profiling %s"
                               % (tr.abort, inp))
    report = TaintReport(contexts=contexts)
    for ctx in contexts:
        report.absorb(ctx.report)
    return report


def translate_report(report: TaintReport, m: Module,
                     copies: dict) -> TaintReport:
    """The report of the profiled module carried over to m, the same
    module after context cloning.

    copies maps each clone's name to {origin iid: clone iid}, as
    `pta.aggressive_clone` records it; every other function kept its
    iids.  Each context runs in m in the function its parent's call
    site calls now, so its facts take that function's iids and name.
    Equal to profiling m again on the same suite, since cloning changes
    no value, address or taint a run sees.
    """
    where = m.instr_index()
    out = TaintReport()
    runs_in = {}            # context -> function it runs in m
    for ctx in report.contexts:
        fn = ctx.fn
        if ctx.parent is not None:
            caller = runs_in[ctx.parent]
            site = copies[caller][ctx.site] if caller in copies \
                else ctx.site
            call = where[site][2]
            if call.op == "call":
                fn = call.callee
        runs_in[ctx] = fn
        out.absorb(ctx.report, copies.get(fn), fn)
    return out


def close_sensitivity(m: Module, report: TaintReport,
                      rt: RegionTree) -> SensitiveSet:
    """Close the raw report over region structure and the call graph.

    A sensitive branch claims its whole region; nested regions follow.
    Functions called from guarded code run under decoys, so their entire
    bodies join the set.  Every access or division reachable under a
    decoy needs protection even when its own operands never carried
    taint: it executes with garbage on decoy paths.  Of the accesses,
    those whose address no profiling run saw tainted are public.
    """
    where = m.instr_index()

    seeds = []
    for iid in report.branches:
        f, bl, _ = where[iid]
        r = rt.branch_at(f.name, bl.label)
        if r is None:
            raise ProfileError(
                "sensitive branch %d is not a branch region entry" % iid)
        seeds.append(r)
    for key in report.loops:
        r = rt.loop_at(*key)
        if r is None:
            raise ProfileError("sensitive loop %r has no region" % (key,))
        seeds.append(r)

    regs = set()        # each subtree once, however the seeds nest
    while seeds:
        r = seeds.pop()
        if r.rid not in regs:
            regs.add(r.rid)
            seeds.extend(r.children)

    # blocks that may execute as decoys; a branch entry runs either way.
    # A region nested in another of regs adds no block its parent lacks
    guarded = defaultdict(set)
    for rid in regs:
        r = rt.by_id[rid]
        if r.parent.rid in regs:
            continue
        bs = r.blocks - {r.entry} if r.kind == "branch" else set(r.blocks)
        guarded[r.fn] |= bs

    first = {i.callee for fname, labels in guarded.items()
             for lbl in labels for i in m.funcs[fname].blocks[lbl].instrs
             if i.op == "call" and i.callee in m.funcs}
    funcs = first | reachable(m.callees(), first)
    for g in funcs:
        guarded[g] |= set(m.funcs[g].blocks)
    regs |= {r.rid for r in rt.by_id.values()
             if r.fn in funcs and r.kind != "linear"}

    acc = set(report.reads) | set(report.writes)
    dr = set(report.divrem)
    for fname, labels in guarded.items():
        f = m.funcs[fname]
        for lbl in labels:
            for i in f.blocks[lbl].instrs:
                if i.op in ("load", "store"):
                    acc.add(i.iid)
                elif i.op in ("div", "rem"):
                    dr.add(i.iid)

    return SensitiveSet(regs, funcs, acc, dr, dict(report.loop_bounds),
                        acc - report.addr_tainted)
