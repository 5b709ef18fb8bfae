"""Points-to analysis and context separation.

A flow-insensitive, inclusion-based solver tracks which allocation
sites each pointer can reach, with offset ranges so a pointer into an
array is (site, lo, hi, stride) rather than just the site.  Striding
plans are built straight from these elements, so their precision is
what decides how much memory every wrapped access must touch.  A new
element joins its object's old one into whichever covers the other, two
exact offsets into their hull ladder, else the gcd ladder run to the
object's ends; a gep leaving its object yields the whole object.  So an
element grows a few times at most, and the solve always ends.  Each
shared rule is stated once: `elements` (what an operand points to, also
for `dfl` plans), `_targets` (an icall's callees, also for promotion)
and the solver's one bind step for `call` and `icall`.

Three sharpeners sit on top.  Range refinement re-types a degenerate
whole-object element as the ladder of offsets where the access size sits
in the object's type: an array extends its element's ladder, an
aggregate joins its fields' ladders where gaps and steps agree.  Index
ranges cut the pointer of a guarded `gep` to what a live access can
reach while index * element size cannot wrap: `tableA[s]` under
`icmp lt %s, 4096` plans 4096 of its 8192 bytes.  Aggressive cloning
splits every acyclic call path below a function with sensitive points
into its own copy, so call-site-specific pointers stop merging at
shared callees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from math import gcd

from .cfg import build_cfg, reachable
from .ir import (BINOPS, I64, ICMP_PREDS, Block, Const, Function, Instr,
                 Module, Param, Reg, Sym, gep_steps, reg_types, site_ref,
                 site_token, size_of, to_signed)

_MAX_CLONES = 256


@dataclass
class PointsTo:
    """Solved facts: ssa values and memory summaries to element sets.

    Elements are (obj, lo, hi, stride) tuples; obj is an `ir.site_token`
    (g:@name, s:<iid>, h:<iid>, or f:@name for code).
    lo == hi means an exact pointer; stride 0 goes with it.  A set holds
    at most one element per object, and it lies inside the object.
    """
    vals: dict = field(default_factory=dict)    # (fn, reg) -> set
    mem: dict = field(default_factory=dict)     # obj -> set
    sizes: dict = field(default_factory=dict)   # obj -> byte size

    def of(self, fn: str, reg: str) -> set:
        return self.vals.get((fn, reg), set())


def _degenerate(obj, sizes):
    n = sizes.get(obj, 0)
    return (obj, 0, n - 1, 1) if n > 1 else (obj, 0, 0, 0)


def _covers(a, b) -> bool:
    """Every offset of b is one of a's, and b ends no later."""
    _, alo, ahi, ast = a
    _, blo, bhi, bst = b
    return alo <= blo and bhi <= ahi and (
        not ast or (blo - alo) % ast == 0 and (blo == bhi or bst % ast == 0))


def _last(lo: int, step: int, n: int) -> int:
    """The last offset of an n-byte object on the ladder from lo by
    step, or lo where the object ends first."""
    return lo + max(0, (n - 1 - lo) // step * step)


def _join(a, b, n: int):
    """One element of an n-byte object covering a and b: whichever
    covers the other, else two exact offsets as their hull ladder, else
    the gcd ladder run to the object's ends."""
    if _covers(a, b):
        return a
    if _covers(b, a):
        return b
    obj, alo, ahi, ast = a
    _, blo, bhi, bst = b
    step = gcd(ast, bst, alo - blo)
    if alo == ahi and blo == bhi:
        return (obj, min(alo, blo), max(alo, blo), step)
    lo = alo % step
    return (obj, lo, max(ahi, bhi, _last(lo, step, n)), step)


def elements(m: Module, pt: PointsTo, fname: str, o) -> set:
    """What operand `o` of function `fname` points to: a register's set,
    the element at the start of a symbol's global or function code, and
    nothing for a constant."""
    if isinstance(o, Reg):
        return pt.vals.get((fname, o.name), set())
    if isinstance(o, Sym):
        if o.name in m.globals:
            return {(site_token("g", o.name), 0, 0, 0)}
        if o.name in m.funcs:
            return {(site_token("f", o.name), 0, 0, 0)}
    return set()


def _targets(m: Module, elems, nargs: int) -> list:
    """Sorted names of the functions among `elems` that take `nargs`
    arguments: the callees an icall through them can reach."""
    names = {site_ref(e[0])[1] for e in elems if e[0][0] == "f"}
    return sorted(n for n in names
                  if n in m.funcs and len(m.funcs[n].params) == nargs)


def andersen_solve(m: Module) -> PointsTo:
    """Fixpoint over assignment, memory and call constraints."""
    pt = PointsTo()
    vals, mem, sizes = pt.vals, pt.mem, pt.sizes
    rets = {}
    sizes.update((tok, size_of(ty)) for tok, ty in m.site_types().items())
    op_pts = partial(elements, m, pt)

    def merge(key, new, table=vals):
        if not new:
            return False
        cur = table.setdefault(key, set())
        changed = False
        for e in sorted(new - cur):     # a join depends on the order
            old = next((o for o in cur if o[0] == e[0]), None)
            j = e if old is None else _join(old, e, sizes.get(e[0], 0))
            cur.discard(old)
            cur.add(j)
            changed |= j != old
        return changed

    def gep_pts(fname, ins):
        out = set()
        steps, err = gep_steps(ins.ty, ins.args[1:])
        for obj, lo, hi, st in op_pts(fname, ins.args[0]):
            if obj[0] == "f":
                continue
            osz = sizes.get(obj, 0)
            for idx, scale in steps or ():
                if idx is None:                 # field offset
                    lo += scale
                    hi += scale
                elif isinstance(idx, Const):
                    lo += idx.value * scale
                    hi += idx.value * scale
                elif not scale:                 # moves no byte
                    continue
                elif lo == hi:
                    rem = lo % scale
                    lo, hi, st = rem, _last(rem, scale, osz), scale
                else:
                    lo, hi, st = 0, max(0, osz - 1), 1
            out.add(_degenerate(obj, sizes) if err or lo < 0 or hi >= osz
                    else (obj, lo, hi, st))
        return out

    funcs = list(m.funcs.values())
    while True:
        changed = False
        for f in funcs:
            fname = f.name
            for ins in f.instructions():
                op = ins.op
                if op in ("alloca", "heapalloc"):
                    kind = "s" if op == "alloca" else "h"
                    changed |= merge((fname, ins.name),
                                     {(site_token(kind, ins.iid), 0, 0, 0)})
                elif op == "gep":
                    changed |= merge((fname, ins.name), gep_pts(fname, ins))
                elif op == "phi":
                    for _, v in ins.incoming:
                        changed |= merge((fname, ins.name), op_pts(fname, v))
                elif op == "select":
                    for v in ins.args[1:]:
                        changed |= merge((fname, ins.name), op_pts(fname, v))
                elif op in BINOPS:
                    u = {_degenerate(e[0], sizes)
                         for a in ins.args for e in op_pts(fname, a)}
                    changed |= merge((fname, ins.name), u)
                elif op == "load":
                    u = set()
                    for e in op_pts(fname, ins.args[0]):
                        u |= mem.get(e[0], set())
                    changed |= merge((fname, ins.name), u)
                elif op == "store":
                    flow = op_pts(fname, ins.args[0])
                    for e in op_pts(fname, ins.args[1]):
                        changed |= merge(e[0], flow, mem)
                elif op == "ret":
                    changed |= merge(fname, op_pts(fname, ins.args[0]), rets)
                elif op == "call" and ins.callee in m.funcs or op == "icall":
                    # bind: arguments into each callee's parameters, its
                    # returns into the result
                    args = ins.args if op == "call" else ins.args[1:]
                    callees = (ins.callee,) if op == "call" else _targets(
                        m, op_pts(fname, ins.args[0]), len(args))
                    for cn in callees:
                        for a, p in zip(args, m.funcs[cn].params):
                            changed |= merge((cn, p.name), op_pts(fname, a))
                        if ins.name:
                            changed |= merge((fname, ins.name),
                                             rets.get(cn, set()))
        if not changed:
            return pt


# ---------------------------------------------------------------------------
# range refinement

def _ladder(ty, size: int):
    """Offsets where a size-byte scalar sits naturally inside ty, as
    one ladder (first, last, step), step 0 for a single offset; None
    where it sits nowhere, False where they form no single ladder."""
    if ty.kind in ("int", "addr"):
        return (0, 0, 0) if size_of(ty) == size else None
    if ty.kind == "array":
        lad = _ladder(ty.elem, size) if ty.count else None
        if not lad or ty.count == 1:
            return lad
        first, last, step = lad
        esz = size_of(ty.elem)
        step = step or esz          # the next element's first offset
        if last + step != first + esz:
            return False
        return first, last + (ty.count - 1) * esz, step
    out, off = None, 0
    for _, ft in ty.fields:
        lad = _ladder(ft, size)
        if lad is False:
            return False
        if lad:
            first, last, step = lad[0] + off, lad[1] + off, lad[2]
            if out is not None:
                gap = first - out[1]
                if out[2] not in (0, gap) or step not in (0, gap):
                    return False
                first, step = out[0], gap
            out = (first, last, step)
        off += size_of(ft)
    return out


def refine_field_sensitivity(m: Module, pt: PointsTo) -> PointsTo:
    """Re-type degenerate whole-object elements from their access size.

    A pointer that arithmetic blurred over a whole object usually still
    walks one kind of slot.  If the offsets of the accessed size in the
    object's type form one ladder, which `_ladder` reads off the type's
    structure, the element becomes that ladder; otherwise it stays
    degenerate and the striding plan pays for the imprecision.
    """
    use_size = {}
    for f in m.funcs.values():
        for ins in f.instructions():
            if ins.op == "load" and isinstance(ins.args[0], Reg):
                key = (f.name, ins.args[0].name)
                use_size.setdefault(key, set()).add(size_of(ins.ty))
            elif ins.op == "store" and isinstance(ins.args[1], Reg):
                key = (f.name, ins.args[1].name)
                use_size.setdefault(key, set()).add(size_of(ins.ty))

    obj_ty = m.site_types()
    out = PointsTo(dict(pt.vals), pt.mem, pt.sizes)
    for key, sz in use_size.items():
        if len(sz) != 1:
            continue
        size = next(iter(sz))
        elems = out.vals.get(key)
        if not elems:
            continue
        ref = set()
        for e in elems:
            lad = e[0] in obj_ty and e == _degenerate(e[0], pt.sizes) \
                and pt.sizes[e[0]] > size and _ladder(obj_ty[e[0]], size)
            ref.add((e[0], *lad) if lad else e)
        out.vals[key] = ref
    return out


# ---------------------------------------------------------------------------
# index ranges under guards

_TOP = (-(1 << 63), (1 << 63) - 1)
_MAX_CHAIN = 32          # definitions followed back from one index
# each predicate with its operands swapped, and negated
_SWAP = dict(zip(ICMP_PREDS, ("gt", "ge", "eq", "ne", "lt", "le")))
_NEGATE = dict(zip(ICMP_PREDS, ("ge", "gt", "ne", "eq", "le", "lt")))


class _Ranges:
    """Intervals (Cousot & Cousot, POPL 1977) of one function's i64
    registers as a gep reads them, taken without a fixpoint.  The CFG is
    built on the first guard walk or phi that needs it."""

    def __init__(self, m: Module, fn: Function):
        self.fn, self.types = fn, reg_types(m, fn)
        self.defs = {i.name: (b.label, i) for b in fn.blocks.values()
                     for i in b.instrs if i.name}

    @cached_property
    def cfg(self):
        return build_cfg(self.fn)

    def guards(self, label: str) -> dict:
        """reg -> range left by the guard edges that dominate block
        `label`: edges from a condbr on an icmp of an i64 register
        against a constant into `label` or a dominator of it, a block
        whose only predecessor is that branch.  An icmp compares at its
        operand width, so narrower registers are left unbounded."""
        out = {}
        while label is not None and label != self.fn.entry.label:
            preds = self.cfg.preds[label]
            here, label = label, self.cfg.idom.get(label)
            t = self.fn.blocks[preds[0]].terminator if len(preds) == 1 \
                else None
            if t is None or t.op != "condbr" or t.labels[0] == t.labels[1] \
                    or not isinstance(t.args[0], Reg):
                continue
            c = self.defs.get(t.args[0].name, (None, None))[1]
            if c is None or c.op != "icmp":
                continue
            (a, k), pred = c.args, c.pred
            if isinstance(a, Const):
                a, k, pred = k, a, _SWAP.get(pred)
            if pred not in _SWAP or not isinstance(k, Const) \
                    or not isinstance(a, Reg) or self.types.get(a.name) != I64:
                continue
            k = to_signed(k.value, 64)
            lo, hi = {"lt": (_TOP[0], k - 1), "le": (_TOP[0], k),
                      "gt": (k + 1, _TOP[1]), "ge": (k, _TOP[1]),
                      "eq": (k, k)}.get(
                pred if here == t.labels[0] else _NEGATE[pred], _TOP)
            olo, ohi = out.get(a.name, _TOP)
            out[a.name] = max(lo, olo), min(hi, ohi)
        return out

    def index(self, idx, label: str) -> tuple:
        """(lo, hi) of gep index `idx` in block `label`: the range of its
        definition, and of each register that reads, cut by the guards
        on it.  Any other register is the top."""
        guards, memo = self.guards(label), {}

        def rng(o, depth=0):
            if isinstance(o, Const):
                return to_signed(o.value, 64), to_signed(o.value, 64)
            if not isinstance(o, Reg) or self.types.get(o.name) != I64:
                return _TOP
            if o.name not in memo:
                memo[o.name] = _TOP          # a cycle of definitions
                at, ins = self.defs.get(o.name, (None, None))
                lo, hi = _TOP if ins is None or depth >= _MAX_CHAIN else \
                    self._def_range(ins, at, lambda x: rng(x, depth + 1))
                glo, ghi = guards.get(o.name, _TOP)
                memo[o.name] = max(lo, glo), min(hi, ghi)
            return memo[o.name]

        return rng(idx)

    def _def_range(self, ins, label, rng) -> tuple:
        """Range of what `ins` in block `label` defines, from `rng` of
        its operands: `and` with a constant mask, `lshr` by a constant,
        `add` or `sub` of a constant that cannot overflow, and the hull
        of a phi with no back-edge operand; anything else is the top."""
        if ins.op == "phi":
            if any((p, label) in self.cfg.retreating
                   for p, _ in ins.incoming):
                return _TOP
            rs = [rng(v) for _, v in ins.incoming]
            return min(lo for lo, _ in rs), max(hi for _, hi in rs)
        if ins.op not in ("and", "lshr", "add", "sub"):
            return _TOP
        x, y = ins.args
        if ins.op in ("and", "add") and isinstance(x, Const):
            x, y = y, x
        if not isinstance(y, Const):
            return _TOP
        c = to_signed(y.value, 64)
        if ins.op == "and":
            return (0, c) if c >= 0 else _TOP
        lo, hi = rng(x)
        if ins.op == "lshr":        # shifts the slot unsigned, by c mod 64
            k = c % 64
            return (lo >> k, hi >> k) if lo >= 0 or not k \
                else (0, (1 << (64 - k)) - 1)
        c = c if ins.op == "add" else -c
        ok = _TOP[0] <= lo + c and hi + c <= _TOP[1]
        return (lo + c, hi + c) if ok else _TOP


def _clip(elem, lo_b: int, hi_b: int):
    """elem's ladder cut to byte offsets [lo_b, hi_b], or elem itself
    when nothing would be left."""
    obj, lo, hi, st = elem
    step = st or 1
    nlo = lo + max(0, -(-(lo_b - lo) // step)) * step
    nhi = lo + (min(hi, hi_b) - lo) // step * step
    return elem if nlo > nhi else (obj, nlo, nhi, st if nlo < nhi else 0)


def refine_index_ranges(m: Module, pt: PointsTo, accesses) -> PointsTo:
    """Narrow the pointer of each access in `accesses` to the byte
    offsets a live, in-bounds access through it can reach.

    Only a pointer from a single-index gep over exact object starts is
    narrowed: its offset is index * element size.  A gep reads its index
    as signed 64-bit and its address wraps mod 2^64, so the index range
    narrows the pointer only while index * size stays in [-2^63, 2^63);
    then an access inside the object has its index in that range.  Under
    `icmp lt %s, 16`, `gep i64 @t, %s` reads t[3] at s = 2^63 + 3, so its
    plan stays whole.  Register types are worked out only for a function
    that holds such a gep, and its CFG only where a guard walk or a phi
    needs it.
    """
    out = PointsTo(dict(pt.vals), pt.mem, pt.sizes)
    for f in m.funcs.values():
        geps, ptrs, ranges = {}, {}, None
        for b in f.blocks.values():
            for i in b.instrs:
                if i.op == "gep":
                    geps[i.name] = b.label, i
                elif i.iid in accesses and i.op in ("load", "store"):
                    ptrs[i.args[1 if i.op == "store" else 0]] = None
        for p in ptrs:
            if not isinstance(p, Reg) or p.name not in geps:
                continue
            label, gep = geps[p.name]
            steps, err = gep_steps(gep.ty, gep.args[1:])
            base = gep.args[0]
            if err or len(steps) != 1 or not isinstance(steps[0][0], Reg) \
                    or isinstance(base, Reg) and any(
                        lo or hi for _, lo, hi, _ in pt.of(f.name, base.name)):
                continue
            ranges = ranges or _Ranges(m, f)
            (idx, scale), = steps
            lo, hi = ranges.index(idx, label)
            if lo * scale >= _TOP[0] and hi * scale <= _TOP[1]:
                out.vals[(f.name, p.name)] = {
                    _clip(e, max(0, lo * scale), hi * scale)
                    for e in pt.of(f.name, p.name)}
    return out


# ---------------------------------------------------------------------------
# indirect calls

def resolve_indirect_targets(m: Module, pt: PointsTo) -> dict:
    """icall iid -> sorted candidate names whose prototype can match."""
    return {ins.iid: _targets(m, elements(m, pt, f.name, ins.args[0]),
                              len(ins.args) - 1)
            for f in m.funcs.values() for ins in f.instructions()
            if ins.op == "icall"}


# ---------------------------------------------------------------------------
# context cloning

class CloneError(Exception):
    pass


class CloneMap(dict):
    """clone name -> origin name; `copies` maps each clone's name to
    {origin iid: clone iid} over every instruction it copied."""

    def __init__(self):
        super().__init__()
        self.copies = {}


def aggressive_clone(m: Module, sens_fns: set) -> CloneMap:
    """One callee copy per acyclic call path below a sensitive root.

    Roots are the sensitive functions not reachable from other sensitive
    functions; everything they transitively call gets split per path so
    points-to facts never merge across calling contexts.  A recursive
    callee outside sens_fns stays one shared copy; recursion within it
    cannot be split this way and is an error.  Only roots and clones
    have their call sites rewritten, so clones copy unedited originals.
    """
    cmap = CloneMap()
    if not sens_fns:
        return cmap
    cg = m.callees()
    reach = {f: reachable(cg, [f]) for f in sens_fns}
    roots = sorted(f for f in sens_fns
                   if not any(f in reach[o] for o in sens_fns if o != f))
    counters = {}

    def clone_fn(origin: str) -> Function:
        if len(cmap) >= _MAX_CLONES:
            raise CloneError("clone budget exhausted")
        name = origin
        while name in m.funcs:  # never an input function's name
            counters[origin] = counters.get(origin, 0) + 1
            name = "%s.c%d" % (origin, counters[origin])
        src = m.funcs[origin]
        # operands and types are immutable and shared; the lists that
        # later passes edit in place are fresh
        f = Function(name, [Param(p.name, p.ty, p.secret)
                            for p in src.params], src.ret_ty)
        iids = {}
        for b in src.blocks.values():
            nb = f.blocks[b.label] = Block(b.label)
            for i in b.instrs:
                c = Instr(m.new_iid(), i.op, i.name, i.ty, i.pred,
                          list(i.args), list(i.labels), list(i.incoming),
                          i.callee)
                iids[i.iid] = c.iid
                nb.instrs.append(c)
        m.funcs[name] = f
        cmap[name] = origin
        cmap.copies[name] = iids
        return f

    def walk(fname: str, path: tuple):
        f = m.funcs[fname]
        for ins in f.instructions():
            if ins.op != "call" or ins.callee not in m.funcs:
                continue
            origin = cmap.get(ins.callee, ins.callee)
            if origin not in sens_fns and origin in reachable(cg, [origin]):
                continue
            if origin in path:
                raise CloneError(
                    "recursive call into @%s under sensitive root" % origin)
            c = clone_fn(origin)
            ins.callee = c.name
            walk(c.name, path + (origin,))

    for r in roots:
        walk(r, (r,))
    return cmap
