"""Points-to analysis and context separation.

A flow-insensitive, inclusion-based solver tracks which allocation
sites each pointer can reach, with offset ranges so a pointer into an
array is (site, lo, hi, stride) rather than just the site.  Striding
plans are built straight from these elements, so their precision is
what decides how much memory every wrapped access must touch.

Two sharpeners sit on top.  Range refinement re-types degenerate
whole-object elements by looking for natural placements of the access
size inside the object's type tree.  Aggressive cloning splits every
acyclic call path below a function with sensitive points into its own
copy, so call-site-specific pointers stop merging at shared callees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import reachable
from .ir import (Block, Const, Function, Instr, Module, Param, Reg, Sym,
                 field_offset, gep_steps, site_ref, site_token, size_of)

_MAX_ELEMS = 64          # per-value widening threshold
_MAX_PLACEMENTS = 8192
_MAX_CLONES = 256


class PtaError(Exception):
    pass


@dataclass
class PointsTo:
    """Solved facts: ssa values and memory summaries to element sets.

    Elements are (obj, lo, hi, stride) tuples; obj is an `ir.site_token`
    (g:@name, s:<iid>, h:<iid>, or f:@name for code).
    lo == hi means an exact pointer; stride 0 goes with it.
    """
    vals: dict = field(default_factory=dict)    # (fn, reg) -> set
    mem: dict = field(default_factory=dict)     # obj -> set
    sizes: dict = field(default_factory=dict)   # obj -> byte size

    def of(self, fn: str, reg: str) -> set:
        return self.vals.get((fn, reg), set())


def _degenerate(elem, sizes):
    obj = elem[0]
    n = sizes.get(obj, 0)
    if n <= 1:
        return (obj, 0, 0, 0)
    return (obj, 0, n - 1, 1)


def _widen(elems, sizes):
    if len(elems) <= _MAX_ELEMS:
        return elems
    return {_degenerate(e, sizes) for e in elems}


def andersen_solve(m: Module) -> PointsTo:
    """Fixpoint over assignment, memory and call constraints."""
    pt = PointsTo()
    vals, mem, sizes = pt.vals, pt.mem, pt.sizes
    rets = {}
    sizes.update((tok, size_of(ty)) for tok, ty in m.site_types().items())

    def op_pts(fname, o):
        if isinstance(o, Reg):
            return vals.get((fname, o.name), set())
        if isinstance(o, Sym):
            if o.name in m.globals:
                return {(site_token("g", o.name), 0, 0, 0)}
            if o.name in m.funcs:
                return {(site_token("f", o.name), 0, 0, 0)}
        return set()

    def merge(key, new):
        if not new:
            return False
        cur = vals.setdefault(key, set())
        before = len(cur)
        cur |= new
        if len(cur) > _MAX_ELEMS:
            vals[key] = _widen(cur, sizes)
        return len(vals[key]) != before

    def gep_pts(fname, ins):
        out = set()
        steps, err = gep_steps(ins.ty, ins.args[1:])
        for obj, lo, hi, st in op_pts(fname, ins.args[0]):
            if obj[0] == "f":
                continue
            if err:
                out.add(_degenerate((obj, 0, 0, 0), sizes))
                continue
            osz = sizes.get(obj, 0)
            for idx, scale in steps:
                if idx is None:                 # field offset
                    lo += scale
                    hi += scale
                elif isinstance(idx, Const):
                    lo += idx.value * scale
                    hi += idx.value * scale
                elif lo == hi:
                    rem = lo % scale
                    lo, hi, st = rem, max(rem, osz - scale + rem), scale
                else:
                    lo, hi, st = 0, max(0, osz - 1), 1
            out.add((obj, lo, hi, st))
        return out

    funcs = list(m.funcs.values())
    for _ in range(200):
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
                    u = set()
                    for _, v in ins.incoming:
                        u |= op_pts(fname, v)
                    changed |= merge((fname, ins.name), u)
                elif op == "select":
                    u = op_pts(fname, ins.args[1]) | op_pts(fname,
                                                            ins.args[2])
                    changed |= merge((fname, ins.name), u)
                elif op in ("add", "sub", "and", "or", "xor", "mul",
                            "shl", "lshr", "div", "rem"):
                    u = set()
                    for a in ins.args:
                        for e in op_pts(fname, a):
                            u.add(_degenerate(e, sizes))
                    if u:
                        changed |= merge((fname, ins.name), u)
                elif op == "load":
                    u = set()
                    for e in op_pts(fname, ins.args[0]):
                        u |= mem.get(e[0], set())
                    changed |= merge((fname, ins.name), u)
                elif op == "store":
                    flow = op_pts(fname, ins.args[0])
                    if flow:
                        for e in op_pts(fname, ins.args[1]):
                            cur = mem.setdefault(e[0], set())
                            before = len(cur)
                            cur |= flow
                            changed |= len(cur) != before
                elif op == "ret":
                    cur = rets.setdefault(fname, set())
                    before = len(cur)
                    cur |= op_pts(fname, ins.args[0])
                    changed |= len(cur) != before
                elif op == "call" and ins.callee in m.funcs:
                    callee = m.funcs[ins.callee]
                    for a, p in zip(ins.args, callee.params):
                        changed |= merge((callee.name, p.name),
                                         op_pts(fname, a))
                    if ins.name:
                        changed |= merge((fname, ins.name),
                                         rets.get(callee.name, set()))
                elif op == "icall":
                    cands = {site_ref(e[0])[1]
                             for e in op_pts(fname, ins.args[0])
                             if e[0][0] == "f"}
                    for cn in sorted(cands):
                        callee = m.funcs.get(cn)
                        if callee is None \
                                or len(callee.params) != len(ins.args) - 1:
                            continue
                        for a, p in zip(ins.args[1:], callee.params):
                            changed |= merge((callee.name, p.name),
                                             op_pts(fname, a))
                        if ins.name:
                            changed |= merge((fname, ins.name),
                                             rets.get(cn, set()))
        if not changed:
            return pt
    raise PtaError("points-to solve did not converge")


# ---------------------------------------------------------------------------
# range refinement

def _placements(ty, size: int, depth: int = 8):
    """Offsets where a size-byte scalar sits naturally inside ty."""
    out = []

    def rec(t, off, d):
        if d < 0 or len(out) > _MAX_PLACEMENTS:
            return
        if t.kind in ("int", "addr"):
            if size_of(t) == size:
                out.append(off)
            return
        if t.kind == "array":
            esz = size_of(t.elem)
            for i in range(t.count):
                if len(out) > _MAX_PLACEMENTS:
                    return
                rec(t.elem, off + i * esz, d - 1)
        elif t.kind == "agg":
            for k, (_, ft) in enumerate(t.fields):
                rec(ft, off + field_offset(t, k), d - 1)

    rec(ty, 0, depth)
    return out


def refine_field_sensitivity(m: Module, pt: PointsTo) -> PointsTo:
    """Re-type degenerate whole-object elements from their access size.

    A pointer that arithmetic blurred over a whole object usually still
    walks one kind of slot.  If every placement of the accessed size in
    the object's type forms one arithmetic ladder, the element becomes
    that ladder; otherwise it stays degenerate and the striding plan
    pays for the imprecision.
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
        for obj, lo, hi, st in elems:
            n = pt.sizes.get(obj, 0)
            if not (st == 1 and lo == 0 and hi == n - 1 and n > size) \
                    or obj not in obj_ty:
                ref.add((obj, lo, hi, st))
                continue
            offs = _placements(obj_ty[obj], size)
            if len(offs) >= 2:
                diffs = {b - a for a, b in zip(offs, offs[1:])}
                if len(diffs) == 1:
                    step = next(iter(diffs))
                    ref.add((obj, offs[0], offs[-1], step))
                    continue
            elif len(offs) == 1:
                ref.add((obj, offs[0], offs[0], 0))
                continue
            ref.add((obj, lo, hi, st))
        out.vals[key] = ref
    return out


# ---------------------------------------------------------------------------
# indirect calls

def resolve_indirect_targets(m: Module, pt: PointsTo | None = None) -> dict:
    """icall iid -> sorted candidate names whose prototype can match."""
    if pt is None:
        pt = andersen_solve(m)
    out = {}
    for f in m.funcs.values():
        for ins in f.instructions():
            if ins.op != "icall":
                continue
            elems = set()
            if isinstance(ins.args[0], Reg):
                elems = pt.of(f.name, ins.args[0].name)
            elif isinstance(ins.args[0], Sym):
                elems = {(site_token("f", ins.args[0].name), 0, 0, 0)}
            cands = sorted(site_ref(e[0])[1] for e in elems if e[0][0] == "f")
            out[ins.iid] = [
                c for c in cands
                if c in m.funcs
                and len(m.funcs[c].params) == len(ins.args) - 1
            ]
    return out


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
