"""Control-flow linearization.

Secret-dependent branches disappear by executing both arms in sequence.
A taken predicate, always canonical 0/1 in the IR, says whether the
current code runs for real; the non-taken arm runs as a decoy whose
wrapped accesses see a null pointer and whose results are discarded by
ct_select at the join.  A secret-bounded loop pads to a bound k learned
during profiling, kept in a per-loop cell: it exits once its iteration
count reaches k and the run is no longer live, so a run of T trips takes
exactly max(k, T) iterations and a decoy run k, and the exit writes that
count back to the cell.

The transforms here assume region normal form, that every protected
access is already wrapped (ct_load/ct_store), and that inner regions are
processed before outer ones.  An enclosing arm visits a merged region
as its entry and its tail, the block that takes the join's selects or a
loop's latch.  Last, each block whose only predecessor ends in br to it
folds into it: a linearized branch is straight-line code, a padded loop
one block that branches to itself under its header's label.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .ir import (Block, Const, Function, Global, HardenInfo, I1, I64, Instr,
                 Module, Reg, Sym, parse_module, reg_types, result_type)
from .normalize import RegionTree

M64 = (1 << 64) - 1

# name prefix of a loop's bound cell, the global that holds the trip
# count it pads to: cfl.k.<function>.<header>
BOUND_CELL = "cfl.k."

# calls whose first argument is a pointer that must become null on decoy
# paths; a null never matches any striding window and never frees
_PTR_WRAP = ("ct_load", "ct_store", "ct_load_nat", "ct_store_nat",
             "dfl_free")


class LinearizeError(Exception):
    pass


# ---------------------------------------------------------------------------
# select schemes

def encode_taken(scheme: int, t: int) -> int:
    """Canonical 0/1 taken into the operand form scheme expects."""
    t &= 1
    if scheme == 4:
        return M64 if t else 0
    return t


def ct_select(scheme: int, t: int, a: int, b: int) -> int:
    """t ? a : b over 64-bit values, t already encoded for the scheme.

    All five forms compute the same function; they differ in the shape a
    backend would lower them to.  Kept distinct so traces can be checked
    for scheme-independence.
    """
    a &= M64
    b &= M64
    if scheme == 1:
        # forced conditional move: offset form keeps one data dependency
        return (b + ((a - b) & M64) * (t & 1)) & M64
    if scheme == 2:
        # plain ternary, the baseline a compiler may turn into cmov
        return a if t & 1 else b
    if scheme == 3:
        # mask from negation: -1 selects a, 0 selects b
        mask = (-(t & 1)) & M64
        return (a & mask) | (b & (mask ^ M64))
    if scheme == 4:
        # caller supplies the wide mask directly
        return (a & t) | (b & (t ^ M64))
    if scheme == 5:
        # multiplicative blend, no flags and no branches anywhere
        t &= 1
        return (a * t + b * (1 - t)) & M64
    raise ValueError("unknown select scheme %d" % scheme)


# ---------------------------------------------------------------------------
# shared rewriting helpers

class _Uses:
    """Register name -> the instructions of one function that read it,
    and -> its type; cfl's only way to rewrite a register's readers.

    Built once per linearized function, its types by `reg_types`.  Each
    instruction a merge creates, or points at a register, is added and
    typed as it is made, so a replacement rewrites only the readers of
    the name it replaces, and never an instruction made after it.  An
    entry goes stale when its instruction stops reading the name or
    leaves the function, as a folded phi (in gone) does; rewriting one
    changes nothing the function still holds.
    """

    def __init__(self, m: Module, fn: Function):
        self.m, self.readers, self.gone = m, defaultdict(list), set()
        self.types = reg_types(m, fn)
        self._index(fn.instructions())

    def _index(self, instrs):
        for i in instrs:
            for v in i.args + [v for _, v in i.incoming]:
                if isinstance(v, Reg):
                    self.readers[v.name].append(i)

    def add(self, *instrs):
        for i in instrs:
            if i.name is not None:
                self.types[i.name] = result_type(self.m, i, self.types)
        self._index(instrs)

    def replace(self, old: str, new, inside=frozenset()) -> bool:
        """Every read of register old, but by an instruction whose iid is
        in inside, reads operand new from now on; whether one of the
        function's instructions was such a read."""
        users = self.readers.pop(old, [])
        if kept := [i for i in users if i.iid in inside]:
            self.readers[old] = kept
            users = [i for i in users if i.iid not in inside]
        read = False
        for i in users:
            args = [new if isinstance(a, Reg) and a.name == old else a
                    for a in i.args]
            incoming = [(l, new if isinstance(v, Reg) and v.name == old
                         else v) for l, v in i.incoming]
            read |= i.iid not in self.gone \
                and (args, incoming) != (i.args, i.incoming)
            i.args, i.incoming = args, incoming
        if isinstance(new, Reg):
            self.readers[new.name].extend(users)
        return read


def _placeholder(r) -> str:
    """Stands for nested region r's taken until its parent merges."""
    return "cfl.tp.%s.%s" % (r.kind[0], r.entry)


def _take_children(r, ctx: dict, taken: dict):
    """Replace the placeholder of each merged child of r with the taken
    register of the arm block, a key of taken, that holds its entry."""
    for c in r.children:
        if c.rid in ctx["regions"]:
            if c.entry not in taken:
                raise LinearizeError("nested region %s lies on no arm of %s"
                                     % (c.entry, r.entry))
            ctx["uses"].replace(_placeholder(c), Reg(taken[c.entry].name))


def _guard_block(m: Module, fn: Function, blk: Block, tk: Instr, ctx: dict):
    """Put every instruction of blk the takenmap lacks under taken tk.

    Pointer arguments of wrapped accesses and frees get a null-select so
    decoy executions touch nothing for real; calls into functions that
    read the taken cell get it stored first.  Instructions already owned
    by an inner region keep their finer-grained taken, so guarding a
    block again changes only what merges added to it since.
    """
    tm, uses = ctx["tm"], ctx["uses"]
    out = []
    for ins in blk.instrs:
        if ins.iid in tm or ins.op in ("phi", "br", "condbr", "ret"):
            out.append(ins)
            continue
        if (ins.op == "call" and ins.callee in _PTR_WRAP) \
                or ins.op == "heapfree":
            si = m.new_iid()
            sel = Instr(si, "call", name="cfl.p%d" % si, callee="ct_select",
                        args=[Reg(tk.name), ins.args[0], Const(0)])
            tm[sel.iid] = tk.iid
            out.append(sel)
            ins.args[0] = Reg(sel.name)
            uses.add(sel, ins)
        if ins.op == "call" and ins.callee == "trap":
            # failsafe becomes conditional on actually being reached
            ins.args = [Reg(tk.name)]
            uses.add(ins)
        if ins.op == "call" and ins.callee in ctx["threaded"]:
            sti = m.new_iid()
            st = Instr(sti, "store", ty=I1,
                       args=[Reg(tk.name), Sym("cfl.taken")])
            tm[st.iid] = tk.iid
            out.append(st)
            uses.add(st)
        tm[ins.iid] = tk.iid
        out.append(ins)
    blk.instrs = out


def _arm_walk(fn: Function, start: str, join: str, tails: dict):
    """The blocks an arm from start to join visits, in order.

    Follows the first successor everywhere: for a plain br that is the
    only edge, for a loop latch it is the exit edge, which is the linear
    continuation once trips are padded.  Inner regions merge first, and
    `_merge_loop` writes each latch it merges exit first, so that is the
    only latch form met here.  A merged region, a key of tails, is
    visited as its entry and its tail, the rest being guarded already.
    """
    if start == join:
        return []
    blocks = []
    cur = start
    seen = set()
    while cur != join:
        if cur in seen or cur not in fn.blocks:
            raise LinearizeError(
                "arm at %s does not reach join %s" % (start, join))
        seen.add(cur)
        blocks.append(fn.blocks[cur])
        if tails.get(cur, cur) != cur:      # a merged region: its tail next
            blocks.append(fn.blocks[tails[cur]])
        t = blocks[-1].terminator
        if t.op not in ("br", "condbr"):
            raise LinearizeError("arm block %s ends in %s, cannot linearize"
                                 % (blocks[-1].label, t.op))
        cur = t.labels[0]
    return blocks


def _fold_phis(blk: Block, uses: _Uses):
    for ph in [p for p in blk.phis() if len(p.incoming) == 1]:
        uses.replace(ph.name, ph.incoming[0][1])
        blk.instrs.remove(ph)
        uses.gone.add(ph.iid)


def _straighten(fn: Function, uses: _Uses) -> int:
    """Fold every block whose only predecessor ends in br to it into that
    predecessor, its phis into their one value; returns how many blocks
    went.  A fold keeps every other block's predecessor count."""
    npreds = Counter(lbl for i in fn.instructions() for lbl in i.labels)
    before = len(fn.blocks)
    for b in list(fn.blocks.values()):
        while b.label in fn.blocks and b.terminator.op == "br" \
                and npreds[b.terminator.labels[0]] == 1 \
                and b.terminator.labels[0] not in (fn.entry.label, b.label):
            s = fn.blocks.pop(b.terminator.labels[0])
            _fold_phis(s, uses)
            b.instrs[-1:] = s.instrs
            for lbl in b.terminator.labels:
                for ph in fn.blocks[lbl].phis():
                    ph.incoming = [(b.label if l == s.label else l, v)
                                   for l, v in ph.incoming]
    return before - len(fn.blocks)


# ---------------------------------------------------------------------------
# branch regions

def _merge_branch(m: Module, fn: Function, r, tp, ctx: dict):
    uses = ctx["uses"]
    entry_b = fn.blocks[r.entry]
    term = entry_b.terminator
    if term.op != "condbr":
        raise LinearizeError("branch region %s lost its condbr" % r.entry)
    cond = term.args[0]
    join = r.exit
    twalk = _arm_walk(fn, term.labels[0], join, ctx["tails"])
    ewalk = _arm_walk(fn, term.labels[1], join, ctx["tails"])

    # one instruction per taken: at the root, the condition's own i1
    # definition and c xor 1; under a taken register tp, c and tp, and
    # tp xor then (tp and not c); an empty else arm needs no taken
    tthen, telse = ctx["defs"].get(cond) if tp == Const(1) else None, None
    new = []
    if tthen is None:
        ti = m.new_iid()
        tthen = Instr(ti, "and", name="cfl.t%d" % ti, ty=I1, args=[cond, tp])
        new.append(tthen)
    if ewalk:
        ei = m.new_iid()
        telse = Instr(ei, "xor", name="cfl.t%d" % ei, ty=I1,
                      args=[cond, Const(1)] if tp == Const(1)
                      else [tp, Reg(tthen.name)])
        new.append(telse)
    uses.add(*new)

    _take_children(r, ctx, {**{b.label: telse for b in ewalk},
                            **{b.label: tthen for b in twalk}})
    for walk, tk in ((twalk, tthen), (ewalk, telse)):
        for blk in walk:
            _guard_block(m, fn, blk, tk, ctx)

    # arm-entry phis had a single predecessor; once the else side hangs
    # off the then tail those labels lie, so fold them away
    for blk in twalk + ewalk:
        _fold_phis(blk, uses)

    thenpred = twalk[-1].label if twalk else r.entry
    elsepred = ewalk[-1].label if ewalk else r.entry
    lastb = ewalk[-1] if ewalk else (twalk[-1] if twalk else entry_b)
    jb = fn.blocks[join]
    sels = []
    for ph in jb.phis():
        inc = dict(ph.incoming)
        if thenpred == elsepred:
            vt = ve = inc[r.entry]
        else:
            vt, ve = inc.get(thenpred), inc.get(elsepred)
        if vt is None or ve is None:
            raise LinearizeError(
                "join %s phi misses an arm of %s" % (join, r.entry))
        si = m.new_iid()
        sel = Instr(si, "call", name="cfl.s%d" % si, callee="ct_select",
                    args=[cond, vt, ve])
        sels.append(sel)
        rest = [(l, v) for l, v in ph.incoming
                if l not in (thenpred, elsepred)]
        ph.incoming = sorted(rest + [(lastb.label, Reg(sel.name))])
        uses.add(sel, ph)
    if sels:
        lastb.instrs = lastb.instrs[:-1] + sels + [lastb.instrs[-1]]
    # an enclosing arm steps from the entry to lastb and on to the join
    ctx["tails"][r.entry] = lastb.label
    _fold_phis(jb, uses)

    # rewire: entry -> then chain -> else chain -> join
    first = twalk[0].label if twalk else (ewalk[0].label if ewalk else join)
    entry_b.instrs = entry_b.instrs[:-1] + new + [term]
    term.op = "br"
    term.args = []
    term.labels = [first]
    if twalk:
        nxt = ewalk[0].label if ewalk else join
        tt = twalk[-1].terminator
        tt.labels = [nxt if l == join else l for l in tt.labels]


# ---------------------------------------------------------------------------
# loop regions

def _merge_loop(m: Module, fn: Function, r, tp, ctx: dict, k: int):
    """Pad loop r to its bound k.  The latch may be written either way
    round; it is read here and rewritten as condbr %ex, exit, header,
    the one place that knows which way a latch branches.  Costs the
    size of r: the bound loads in `r.preheader`, and `_Uses.replace`
    finds and rewrites the readers outside r of each definition in r."""
    H, L, X, P = r.entry, r.latch, r.exit, r.preheader
    hb, lb = fn.blocks[H], fn.blocks[L]
    term = lb.terminator
    if term.op != "condbr" or set(term.labels) != {X, H}:
        raise LinearizeError("loop %s: latch %s does not branch between "
                             "the header and exit %s" % (H, L, X))
    c_cont = term.args[0]

    uses = ctx["uses"]
    cell = "%s%s.%s" % (BOUND_CELL, fn.name, H)
    m.globals[cell] = Global(cell, I64, int(k).to_bytes(8, "little"))
    kld = Instr(m.new_iid(), "load", name="cfl.kld." + H, ty=I64,
                args=[Sym(cell)])
    pb = fn.blocks[P]
    pb.instrs.insert(len(pb.instrs) - 1, kld)

    cn_n, g0_n = "cfl.cn." + H, "cfl.g0." + H
    cidx = Instr(m.new_iid(), "phi", name="cfl.c." + H, ty=I64,
                 incoming=sorted([(P, Const(0)), (L, Reg(cn_n))]))
    tcur = Instr(m.new_iid(), "phi", name="cfl.tl." + H, ty=I1,
                 incoming=sorted([(P, tp), (L, Reg(g0_n))]))
    uses.add(kld, cidx, tcur)

    _take_children(r, ctx, dict.fromkeys(r.blocks, tcur))
    body = [fn.blocks[lbl] for lbl in sorted(r.blocks, key=ctx["pos"].get)]
    for blk in body:
        _guard_block(m, fn, blk, tcur, ctx)

    # live-outs freeze at the last real iteration: while taken, the exit
    # copy follows the body value; during padding it holds
    inside = {i.iid for b in body for i in b.instrs}
    flanks, outs, moved = [], [], {}
    for d in [i for b in body for i in b.instrs if i.name]:
        fname, oname = "cfl.fl." + d.name, "cfl.o." + d.name
        if not uses.replace(d.name, Reg(oname), inside):
            continue
        flanks.append(Instr(m.new_iid(), "phi", name=fname,
                            ty=uses.types.get(d.name) or I64,
                            incoming=sorted([(P, Const(0)),
                                             (L, Reg(oname))])))
        outs.append(Instr(m.new_iid(), "call", name=oname,
                          callee="ct_select",
                          args=[Reg(tcur.name), Reg(d.name), Reg(fname)]))
        if Reg(d.name) in ctx["defs"]:  # a root branch after r may take d
            ctx["defs"][Reg(oname)] = outs[-1]
            moved[d.iid] = outs[-1].iid
    for g, t in ctx["tm"].items() if moved else ():  # one that already did
        ctx["tm"][g] = moved.get(t, t)

    def gen(op, name, ty, args, pred=None):
        return Instr(m.new_iid(), op, name=name, ty=ty, pred=pred, args=args)

    # iteration cn exits once it reaches k, the bound loaded on entry,
    # and the run is no longer live (g0: taken and continuing, the next
    # iteration's taken), so a run of T trips stops after exactly
    # max(k, T) iterations and a decoy run after k
    cn = gen("add", cn_n, I64, [Reg(cidx.name), Const(1)])
    ge = gen("icmp", "cfl.ge." + H, None, [Reg(cn_n), Reg(kld.name)],
             pred="ge")
    new = [cn, ge]
    if term.labels[0] == X:     # the latch as written exits on true
        nc = gen("xor", "cfl.ncnd." + H, I1, [c_cont, Const(1)])
        new.append(nc)
        c_cont = Reg(nc.name)
    g0 = gen("and", g0_n, I1, [Reg(tcur.name), c_cont])
    ng = gen("xor", "cfl.ng." + H, I1, [Reg(g0_n), Const(1)])
    ex = gen("and", "cfl.ex." + H, I1, [Reg(ge.name), Reg(ng.name)])
    new += [g0, ng, ex]
    lb.instrs = lb.instrs[:-1] + new + outs + [term]
    term.args = [Reg(ex.name)]
    term.labels = [X, H]
    uses.add(*new, term, *flanks, *outs)

    nph = len(hb.phis())
    hb.instrs = hb.instrs[:nph] + [cidx, tcur] + flanks + hb.instrs[nph:]

    # the iteration count at the exit is max(k, T); write it back so the
    # next run pads to the larger bound
    xb = fn.blocks[X]
    sidx = len(xb.phis())
    st = Instr(m.new_iid(), "store", ty=I64, args=[Reg(cn_n), Sym(cell)])
    xb.instrs.insert(sidx, st)
    uses.add(st)
    # an enclosing arm steps from the header to the latch and on to X
    ctx["tails"][H] = L


# ---------------------------------------------------------------------------
# division sanitization

# The routine sanitize_div_rem calls, for one integer type
_DIVMOD = """\
func @{name}(%n: {ty}, %d: {ty}) -> {ty} {{
entry:
  %z = icmp eq %d, 0
  %ds = select %z, 1, %d
  %dx = xor {ty} %ds, {sign}
  %one = and {ty} 1, 1
  br loop
loop:
  %i = phi {ty} [entry: {top}, loop: %i1]
  %q = phi {ty} [entry: 0, loop: %q1]
  %r = phi {ty} [entry: 0, loop: %r1]
  %shn = lshr {ty} %n, %i
  %bit = and {ty} %shn, 1
  %r0 = shl {ty} %r, 1
  %r2 = or {ty} %r0, %bit
  %rx = xor {ty} %r2, {sign}
  %ge = icmp ge %rx, %dx
  %sub = select %ge, %ds, 0
  %r1 = sub {ty} %r2, %sub
  %qb = select %ge, %one, 0
  %qs = shl {ty} %qb, %i
  %q1 = or {ty} %q, %qs
  %i1 = sub {ty} %i, 1
  %fin = icmp lt %i1, 0
  condbr %fin, done, loop
done:
  ret %{result}
}}
"""


def _ensure_divmod(m: Module, ty, which: str) -> str:
    name = "cfl.%s.%s" % (which, ty)
    if name not in m.funcs:
        f = parse_module(_DIVMOD.format(
            name=name, ty=ty, sign=1 << (ty.bits - 1), top=ty.bits - 1,
            result="q1" if which == "div" else "r1")).funcs[name]
        for ins in f.instructions():
            ins.iid = m.new_iid()
        m.funcs[name] = f
    return name


def sanitize_div_rem(m: Module, ss) -> int:
    """Replace flagged div/rem with fixed-iteration restoring division.

    The routines run one iteration per operand bit whatever the values,
    give x/1 for a zero divisor instead of trapping, and keep unsigned
    semantics via a sign-flip before the signed compare.  Returns how
    many sites changed.
    """
    n = 0
    where = m.instr_index()
    for iid in sorted(ss.divrem):
        hit = where.get(iid)
        if hit is None:
            continue
        _, _, ins = hit
        if ins.op not in ("div", "rem"):
            continue
        callee = _ensure_divmod(m, ins.ty, ins.op)
        ins.op = "call"
        ins.callee = callee
        ins.ty = None
        n += 1
    return n


# ---------------------------------------------------------------------------
# driver

def linearize(m: Module, ss, rt: RegionTree, scheme: int = 5,
              lam: int = 64) -> dict:
    """Linearize every sensitive region and thread the taken predicate.

    Returns per-function counts of linearized branches, loops and blocks
    folded away, and sets the module harden directive (scheme, lambda).
    """
    threaded = set(ss.functions)
    if threaded and "cfl.taken" not in m.globals:
        m.globals["cfl.taken"] = Global("cfl.taken", I1, b"\x01")
    stats = {}

    for fn in list(m.funcs.values()):
        fnregs = {rid for rid in ss.regions if rid[0] == fn.name}
        fully = fn.name in threaded
        if not fnregs and not fully:
            continue
        tm = m.takenmap.setdefault(fn.name, {})
        # i1 definitions a root branch may take as its then taken (a
        # threaded function's root is cfl.t0); not phis, which may fold.
        # Merges add and drop no block, so pos holds until _straighten
        uses = _Uses(m, fn)
        ctx = {"tm": tm, "regions": fnregs, "threaded": threaded,
               "uses": uses, "tails": {},
               "pos": {lbl: k for k, lbl in enumerate(fn.blocks)},
               "defs": {} if fully else {
                   Reg(i.name): i for i in fn.instructions()
                   if i.op != "phi" and uses.types.get(i.name) == I1}}
        t0 = Instr(m.new_iid(), "load", name="cfl.t0", ty=I1,
                   args=[Sym("cfl.taken")]) if fully else None
        root_tp = Reg(t0.name) if fully else Const(1)
        nb = nl = 0

        # regions innermost first, children in order (a postorder), as
        # the reverse of a right-to-left preorder; a stack, not
        # recursion, so nesting depth is not bounded by Python's stack
        order, stack = [], [rt.roots[fn.name]]
        while stack:
            r = stack.pop()
            order.append(r)
            stack.extend(r.children)
        for r in reversed(order):
            if r.rid not in fnregs:
                continue
            # a nested region's taken is its parent's arm's, which the
            # parent's merge names; only the linear root has no parent
            # and is never sensitive
            tp = Reg(_placeholder(r)) if r.parent.rid in fnregs else root_tp
            if r.kind == "branch":
                _merge_branch(m, fn, r, tp, ctx)
                nb += 1
            else:
                _merge_loop(m, fn, r, tp, ctx,
                            ss.bounds.get((fn.name, r.entry), 1))
                nl += 1

        if fully:
            for blk in fn.blocks.values():
                _guard_block(m, fn, blk, t0, ctx)
            fn.entry.instrs.insert(0, t0)
        stats[fn.name] = {"branches": nb, "loops": nl,
                          "merged": _straighten(fn, uses)}

    # calls into taken-reading functions that no taken register guards
    # run for real; say so explicitly since the cell may hold a stale
    # zero
    for fn in m.funcs.values():
        tm = m.takenmap.get(fn.name, {})
        for blk in fn.blocks.values():
            out = []
            for ins in blk.instrs:
                if ins.op == "call" and ins.callee in threaded \
                        and ins.iid not in tm:
                    out.append(Instr(m.new_iid(), "store", ty=I1,
                                     args=[Const(1), Sym("cfl.taken")]))
                out.append(ins)
            blk.instrs = out

    m.harden = HardenInfo(scheme, lam)
    return stats
