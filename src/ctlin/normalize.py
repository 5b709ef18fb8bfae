"""Module normalization: single exits, guarded indirect calls, region tree.

The linearization passes only consume structured control flow.  This
module brings a function into that shape and describes it as a tree of
single-entry single-exit regions:

  linear  the function root, entry block through unified exit
  branch  a condbr whose arms rejoin at the nearest common postdominator
  loop    a natural loop with one back edge whose latch is also the only
          exiting block (bottom-tested)

Loops are given a dedicated preheader so the counter phis inserted later
have a unique non-latch predecessor.

The blocks and registers these passes add have fixed names (`exit.unified`,
`ret.val`, `<header>.pre`, `<phi>.pre`); where the input
already uses one, the first free `.<n>` suffix of it is taken instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cfg as cfglib
from .ir import Block, Const, Instr, Module, Reg, Sym


class NormalizeError(Exception):
    pass


@dataclass
class Region:
    kind: str            # linear | branch | loop
    fn: str
    entry: str           # branch: condbr block; loop: header
    exit: str | None     # branch: join label; loop: exit target label
    blocks: set
    children: list = field(default_factory=list)
    parent: "Region | None" = None
    latch: str | None = None
    preheader: str | None = None    # loop: its one predecessor outside it

    @property
    def rid(self):
        return (self.fn, self.kind, self.entry)


@dataclass
class RegionTree:
    roots: dict = field(default_factory=dict)   # fn -> linear root region
    by_id: dict = field(default_factory=dict)   # rid -> Region
    latches: dict = field(default_factory=dict)  # (fn, latch) -> loop Region

    def loop_at(self, fn: str, header: str) -> Region | None:
        return self.by_id.get((fn, "loop", header))

    def branch_at(self, fn: str, entry: str) -> Region | None:
        return self.by_id.get((fn, "branch", entry))

    def loop_of_latch(self, fn: str, latch: str) -> Region | None:
        return self.latches.get((fn, latch))


def _fresh(name: str, taken) -> str:
    """name, or its first `.<n>` suffix that taken does not hold."""
    if name not in taken:
        return name
    k = 1
    while "%s.%d" % (name, k) in taken:
        k += 1
    return "%s.%d" % (name, k)


def _registers(fn) -> set:
    """Names of fn's parameters and instruction results."""
    return {p.name for p in fn.params} | \
        {i.name for i in fn.instructions() if i.name is not None}


def _bases(names) -> set:
    """Each proper `.`-prefix of names: the bases some name is under."""
    out = set()
    for n in names:
        k = n.find(".")
        while k > 0:
            out.add(n[:k])
            k = n.find(".", k + 1)
    return out


# ---------------------------------------------------------------------------
# exit unification

UNIFIED_EXIT = "exit.unified"


def unify_exits(m: Module) -> Module:
    """Give every function exactly one ret, merging values through a phi.

    Idempotent.  Blocks that cannot reach a ret (infinite loops without
    exits) are rejected since later passes need every path to terminate.
    """
    for fn in m.funcs.values():
        ret_blocks = [b for b in fn.blocks.values() if b.terminator.op == "ret"]
        if not ret_blocks:
            raise NormalizeError("@%s has no ret" % fn.name)
        if len(ret_blocks) > 1:
            exit_b = Block(_fresh(UNIFIED_EXIT, fn.blocks))
            incoming = []
            for b in sorted(ret_blocks, key=lambda b: b.label):
                r = b.instrs.pop()
                incoming.append((b.label, r.args[0]))
                b.instrs.append(Instr(m.new_iid(), "br",
                                      labels=[exit_b.label]))
            phi = Instr(m.new_iid(), "phi", ty=fn.ret_ty, incoming=incoming,
                        name=_fresh("ret.val", _registers(fn)))
            exit_b.instrs.append(phi)
            exit_b.instrs.append(Instr(m.new_iid(), "ret",
                                       args=[Reg(phi.name)]))
            fn.blocks[exit_b.label] = exit_b

        g = cfglib.build_cfg(fn)
        exit_label = [b for b in fn.blocks.values()
                      if b.terminator.op == "ret"][0].label
        # every reachable block must reach the exit
        reaches = cfglib.reachable(g.preds, [exit_label]) | {exit_label}
        for label in g.rpo:
            if label not in reaches:
                raise NormalizeError(
                    "@%s: block '%s' cannot reach the exit" % (fn.name, label))
        unreachable = set(fn.blocks) - set(g.rpo)
        if unreachable:
            raise NormalizeError(
                "@%s: unreachable blocks %s" % (fn.name, sorted(unreachable)))
    return m


# ---------------------------------------------------------------------------
# indirect call promotion

def promote_indirect_calls(m: Module, targets) -> Module:
    """Rewrite each icall into a chain of guarded direct calls.

    `targets` maps icall instruction ids to candidate function names; the
    chain tests candidates in ascending name order and falls through to a
    trap failsafe.  An empty candidate list is a hard error: a reachable
    icall would have no semantics.

    One pass per function: the chain's blocks follow the block it split,
    and the scan goes on in its join block, which holds the rest.  Each
    chain is named after the block the scan started in and the icall's
    id, so labels keep their length however many icalls a block holds;
    a base some label or register of fn is already under gets a `.<n>`.
    """
    for fn in list(m.funcs.values()):
        out = []
        taken = None        # bases in use, gathered at fn's first icall
        for b in list(fn.blocks.values()):
            out.append(b)
            origin, k = b.label, 0
            while k < len(b.instrs):
                ins = b.instrs[k]
                k += 1
                if ins.op != "icall":
                    continue
                cands = sorted(targets.get(ins.iid, []))
                if not cands:
                    raise NormalizeError(
                        "@%s: icall #%d has no resolvable targets"
                        % (fn.name, ins.iid))
                if taken is None:
                    taken = _bases(list(fn.blocks) + list(_registers(fn)))
                base = _fresh("%s.ic%d" % (origin, ins.iid), taken)
                taken |= _bases([base + ".join"])
                out += _expand_icall(m, fn, b, k - 1, ins, cands, base)
                b, k = out[-1], 0
        fn.blocks = {b.label: b for b in out}
    return m


def _expand_icall(m: Module, fn, b: Block, k: int, ins: Instr, cands,
                  base: str):
    """Split b at its icall ins[k] into a chain of blocks and registers
    named `<base>.*`; returns the new blocks, join last."""
    fp = ins.args[0]
    call_args = ins.args[1:]
    join_lbl = base + ".join"
    fail_lbl = base + ".fail"

    tail = b.instrs[k + 1:]
    b.instrs = b.instrs[:k]

    new_blocks = []
    chain_blocks = []
    for j, cand in enumerate(cands):
        test_into = b if j == 0 else chain_blocks[-1]
        call_lbl = "%s.c%d" % (base, j)
        next_lbl = "%s.t%d" % (base, j + 1) if j + 1 < len(cands) else fail_lbl
        cond = Instr(m.new_iid(), "icmp", name="%s.eq%d" % (base, j),
                     pred="eq", args=[fp, Sym(cand)])
        test_into.instrs.append(cond)
        test_into.instrs.append(Instr(m.new_iid(), "condbr",
                                      args=[Reg(cond.name)],
                                      labels=[call_lbl, next_lbl]))
        cb = Block(call_lbl)
        rname = "%s.r%d" % (base, j) if ins.name else None
        cb.instrs.append(Instr(m.new_iid(), "call", name=rname,
                               callee=cand, args=list(call_args)))
        cb.instrs.append(Instr(m.new_iid(), "br", labels=[join_lbl]))
        new_blocks.append(cb)
        if j + 1 < len(cands):
            chain_blocks.append(Block(next_lbl))
            new_blocks.append(chain_blocks[-1])

    fail = Block(fail_lbl)
    fail.instrs.append(Instr(m.new_iid(), "call", callee="trap", args=[]))
    fail.instrs.append(Instr(m.new_iid(), "br", labels=[join_lbl]))
    new_blocks.append(fail)

    join = Block(join_lbl)
    if ins.name:
        incoming = [("%s.c%d" % (base, j), Reg("%s.r%d" % (base, j)))
                    for j in range(len(cands))]
        incoming.append((fail_lbl, Const(0)))
        incoming.sort(key=lambda e: e[0])
        ret_ty = m.funcs[cands[0]].ret_ty
        join.instrs.append(Instr(m.new_iid(), "phi", name=ins.name,
                                 ty=ret_ty, incoming=incoming))
    join.instrs.extend(tail)
    new_blocks.append(join)

    # successors' phis now arrive from the join block
    for lbl in join.terminator.labels:
        for ph in fn.blocks[lbl].phis():
            ph.incoming = [(join_lbl if l == b.label else l, v)
                           for l, v in ph.incoming]
    return new_blocks


# ---------------------------------------------------------------------------
# region discovery

def normalize_regions(m: Module) -> RegionTree:
    """Give loops preheaders and build the region tree.  Idempotent.

    Errors on irreducible control flow, loops with several back edges,
    loops exiting anywhere but their latch, and arms that do not rejoin
    at the condbr's nearest common postdominator.
    """
    tree = RegionTree()
    for fn in m.funcs.values():
        g = cfglib.build_cfg(fn)
        if not g.reducible:
            raise NormalizeError("@%s: irreducible control flow" % fn.name)

        headers = {}
        for latch, header in cfglib.back_edges(fn, g):
            headers.setdefault(header, []).append(latch)
        loops = []
        for header, latches in sorted(headers.items()):
            if len(latches) > 1:
                raise NormalizeError(
                    "@%s: loop at '%s' has %d back edges"
                    % (fn.name, header, len(latches)))
            latch = latches[0]
            body = cfglib.natural_loop(g, latch, header)
            term = fn.blocks[latch].terminator
            if term.op != "condbr":
                raise NormalizeError(
                    "@%s: loop latch '%s' must end in condbr" % (fn.name, latch))
            for blk in body:
                if blk == latch:
                    continue
                for s in g.succs[blk]:
                    if s not in body:
                        raise NormalizeError(
                            "@%s: loop at '%s' exits from non-latch '%s'"
                            % (fn.name, header, blk))
            outside = [t for t in term.labels if t not in body]
            if len(outside) != 1 or header not in term.labels:
                raise NormalizeError(
                    "@%s: latch '%s' must branch between header and one exit"
                    % (fn.name, latch))
            loops.append((header, latch, body))

        for header, latch, body in loops:
            _ensure_preheader(m, fn, g, header, body)

        # recompute after edits, which may move a latch's exit edge
        g = cfglib.build_cfg(fn)
        regions = []
        latch_set = {latch for _, latch, _ in loops}
        for header, latch, _ in loops:
            body = cfglib.natural_loop(g, latch, header)
            (exit_t,) = [s for s in g.succs[latch] if s not in body]
            (pre,) = [p for p in g.preds[header] if p not in body]
            regions.append(Region("loop", fn.name, header, exit_t, set(body),
                                  latch=latch, preheader=pre))
        joins = {b.label: g.ipdom.get(b.label) for b in fn.blocks.values()
                 if b.terminator.op == "condbr" and b.label not in latch_set}
        spans = _branch_spans(fn, g, joins)
        for b, join in joins.items():
            if join is None:
                raise NormalizeError(
                    "@%s: condbr in '%s' has no join point" % (fn.name, b))
            regions.append(Region("branch", fn.name, b, join, spans[b]))

        root = Region("linear", fn.name, fn.entry.label, None, set(fn.blocks))
        _nest(regions, root)
        tree.roots[fn.name] = root
        for r in regions:
            tree.by_id[r.rid] = r
            if r.kind == "loop":
                tree.latches.setdefault((r.fn, r.latch), r)
    return tree


def _ensure_preheader(m: Module, fn, g, header: str, body: set):
    outer_preds = [p for p in g.preds[header] if p not in body]
    hdr = fn.blocks[header]
    if len(outer_preds) == 1:
        p = fn.blocks[outer_preds[0]]
        if p.terminator.op == "br" and p.label not in body:
            return
    pre_lbl = _fresh(header + ".pre", fn.blocks)
    pre = Block(pre_lbl)
    regs = _registers(fn)
    for ph in hdr.phis():
        outer = [(l, v) for l, v in ph.incoming if l not in body]
        inner = [(l, v) for l, v in ph.incoming if l in body]
        if len(outer) > 1:
            np = Instr(m.new_iid(), "phi", ty=ph.ty,
                       name=_fresh(ph.name + ".pre", regs),
                       incoming=sorted(outer, key=lambda e: e[0]))
            regs.add(np.name)
            pre.instrs.append(np)
            ph.incoming = sorted(inner + [(pre_lbl, Reg(np.name))],
                                 key=lambda e: e[0])
        else:
            ph.incoming = sorted(inner + [(pre_lbl, outer[0][1])],
                                 key=lambda e: e[0]) if outer else ph.incoming
    pre.instrs.append(Instr(m.new_iid(), "br", labels=[header]))
    for p in outer_preds:
        t = fn.blocks[p].terminator
        t.labels = [pre_lbl if l == header else l for l in t.labels]

    rebuilt = {}
    if not outer_preds:  # header was the function entry
        rebuilt[pre_lbl] = pre
    for lbl, blk in fn.blocks.items():
        if lbl == header and outer_preds:
            rebuilt[pre_lbl] = pre
        rebuilt[lbl] = blk
    fn.blocks = rebuilt


def _branch_spans(fn, g, joins: dict) -> dict:
    """entry -> blocks of the branch at entry up to its join, each one
    dominated by the entry and entered only from the span.

    Built inside out: a nested branch comes later in reverse postorder,
    so walking entries backwards finds inner spans first, and an outer
    walk takes an inner span whole (checked already) and goes on at its
    join, unless the inner span holds the outer join.
    """
    order = {b: i for i, b in enumerate(g.rpo)}
    spans = {}
    for entry in sorted(filter(joins.get, joins),
                        key=lambda b: order.get(b, -1), reverse=True):
        join = joins[entry]
        span, checked = {entry}, []
        work = [t for t in fn.blocks[entry].terminator.labels if t != join]
        while work:
            n = work.pop()
            if n in span or n == join:
                continue
            if not g.dominates(entry, n):
                raise NormalizeError(
                    "@%s: block '%s' enters branch at '%s' sideways"
                    % (fn.name, n, entry))
            checked.append(n)
            inner = spans.get(n)
            if inner is not None and join not in inner:
                span |= inner
                work.append(joins[n])
            else:
                span.add(n)
                work.extend(g.succs[n])
        for n in checked:
            for p in g.preds[n]:
                if p not in span:
                    raise NormalizeError(
                        "@%s: branch at '%s' is entered at '%s' from outside"
                        % (fn.name, entry, n))
        spans[entry] = span
    return spans


def _nest(regions, root):
    """Attach regions by span containment; reject partial overlaps.

    Largest first, each block is owned by the smallest region placed so
    far that holds it; a region must lie wholly in its entry's owner.
    """
    owner = dict.fromkeys(root.blocks, root)
    for r in sorted(regions, key=lambda r: len(r.blocks), reverse=True):
        parent = owner[r.entry]
        for b in r.blocks:
            if owner[b] is not parent:
                q = owner[b] if b in parent.blocks else parent
                raise NormalizeError(
                    "regions at '%s' and '%s' overlap without nesting"
                    % (r.entry, q.entry))
            owner[b] = r
        r.parent = parent
        parent.children.append(r)
    for r in regions + [root]:
        r.children.sort(key=lambda c: (c.entry, c.kind))
