"""Data-flow linearization: striding plans for sensitive accesses.

Every load or store the profiler tied to a secret gets a plan listing
the portions of memory a live execution of it can reach: the points-to
elements of its pointer, cut to the index range its guards allow.  The
wrapped access then touches each plan window on every execution and
keeps only the window holding the real target, so the address trace
stops depending on the secret.  A decoy execution carries a null
pointer and needs no portion.

Plans reference allocation sites, not addresses.  Stack and heap sites
under a plan are interposed so live instances sit on per-site lists the
wrapper can walk; sites whose frame cannot recurse are promoted to
module scope instead, which shrinks the walk to a fixed single portion.
Accesses whose address the sensitivity closure marks public keep their
own address sequence and touch one window per execution; that choice is
made as they are wrapped, before control flow is merged.
"""

from __future__ import annotations

from .cfg import reachable
from .ir import (DFL_HANDLERS, Const, DflAccessMetadata, DflEntry, Global,
                 Module, Sym, site_token, size_of)
from .pta import elements

HANDLER_WEIGHTS = dict(zip(DFL_HANDLERS, (1.0, 0.6, 0.3)))


class DflError(Exception):
    pass


def choose_handler(lam: int, length: int) -> str:
    """Pick the cheapest sweep style for one portion.

    Sub-cacheline quantization always pays for preloading the whole
    portion at once; with lambda at line size, short portions are swept
    window by window and long ones gathered with a stride walk.
    """
    if lam < 16:
        return "bulk"
    if length < 8 * lam:
        return "simple"
    return "gather"


def plan_cost(rec: DflAccessMetadata) -> float:
    """Relative per-execution cost of a plan, in weighted windows."""
    total = 0.0
    for e in rec.entries:
        nwin = -(-e.length // rec.lam)
        total += HANDLER_WEIGHTS[e.handler] * nwin
    return total


def build_metadata(m: Module, accesses: set, pt, lam: int = 64) -> int:
    """Attach a striding plan to every sensitive access; returns count.

    A plan lists what a live access can reach, so `pt` is taken after
    `pta.refine_index_ranges` has narrowed guarded indices.  Plan ids
    are dense and assigned in access id order, so rebuilding from the
    same facts is reproducible.  An access with no points-to facts
    cannot be planned and is a hard error: leaving it unwrapped would
    silently reopen the address channel.
    """
    m.dflmeta.clear()
    mid = 0
    where = m.instr_index()
    for iid in sorted(accesses):
        loc = where.get(iid)
        if loc is None:
            raise DflError("sensitive access %d not in module" % iid)
        f, _, ins = loc
        if ins.op == "load":
            kind, pop = "load", ins.args[0]
        elif ins.op == "store":
            kind, pop = "store", ins.args[1]
        else:
            raise DflError("access %d is %s, not load/store" % (iid, ins.op))
        size = size_of(ins.ty)
        entries = []
        for obj, lo, hi, st in sorted(elements(m, pt, f.name, pop)):
            if obj[0] == "f":
                continue
            length = min(hi + size, pt.sizes[obj]) - lo
            entries.append(DflEntry(obj, lo, length, st if st else size,
                                    choose_handler(lam, length)))
        if not entries:
            raise DflError(
                "no points-to facts for access %d in @%s" % (iid, f.name))
        rec = DflAccessMetadata(mid, iid, kind, lam, size, ins.ty,
                                entries=entries)
        m.dflmeta[mid] = rec
        mid += 1
    return mid


def promote_stack_objects(m: Module) -> int:
    """Hoist planned stack slots of non-recursive frames to module scope.

    At most one instance of such a frame is ever live, so the site list
    walk degenerates to one fixed object; a plain global gives the plan
    that shape for free.  Runs before interposition, which then only
    sees the sites that kept their lists.  The slot keeps its register
    by turning the alloca into an address-of on the new global.
    """
    wanted = set()
    for rec in m.dflmeta.values():
        for e in rec.entries:
            kind, ref = e.site_ref()
            if kind == "s":
                wanted.add(ref)
    if not wanted:
        return 0
    cg = m.callees()
    moved = {}
    for f in m.funcs.values():
        if f.name in reachable(cg, [f.name]):    # recursive frame
            continue
        for ins in f.instructions():
            if ins.op == "alloca" and ins.iid in wanted:
                gname = "dfl.promo.%d" % ins.iid
                m.globals[gname] = Global(gname, ins.ty)
                ins.op = "gep"
                ins.args = [Sym(gname), Const(0)]
                moved[ins.iid] = gname
    for rec in m.dflmeta.values():
        for e in rec.entries:
            kind, ref = e.site_ref()
            if kind == "s" and ref in moved:
                e.site = site_token("g", moved[ref])
    return len(moved)


def interpose_allocations(m: Module) -> int:
    """Route planned stack/heap sites through the managed allocator.

    Managed instances carry in-band list headers, so wrapper sweeps can
    enumerate them without a runtime registry.  Every heapfree becomes
    a managed free once any heap site is planned: the managed form
    recognizes both header layouts, and a free site can receive
    pointers from either kind of allocation.
    """
    sites = {e.site_ref() for rec in m.dflmeta.values() for e in rec.entries}
    n = 0
    any_heap = any(k == "h" for k, _ in sites)
    for f in m.funcs.values():
        for ins in f.instructions():
            if ins.op == "alloca" and ("s", ins.iid) in sites:
                ins.args = [Const(ins.iid), Const(size_of(ins.ty))]
                ins.op = "call"
                ins.callee = "dfl_alloc_stack"
                ins.ty = None
                n += 1
            elif ins.op == "heapalloc" and ("h", ins.iid) in sites:
                ins.args = [Const(ins.iid), Const(size_of(ins.ty))]
                ins.op = "call"
                ins.callee = "dfl_alloc_heap"
                ins.ty = None
                n += 1
            elif ins.op == "heapfree" and any_heap:
                ins.op = "call"
                ins.callee = "dfl_free"
    return n


def wrap_accesses(m: Module) -> int:
    """Swap planned loads/stores for their sweeping form, ids kept.

    Keeping the instruction id is what ties the running wrapper back to
    its plan record and the taken shadow, so nothing else may claim it.
    """
    by_access = {rec.access: rec for rec in m.dflmeta.values()}
    n = 0
    for f in m.funcs.values():
        for ins in f.instructions():
            rec = by_access.get(ins.iid)
            if rec is None:
                continue
            if ins.op == "load":
                ins.args = [ins.args[0], Const(rec.mid)]
                ins.callee = "ct_load"
            elif ins.op == "store":
                ins.args = [ins.args[1], ins.args[0], Const(rec.mid)]
                ins.callee = "ct_store"
            else:
                continue
            ins.op = "call"
            ins.ty = None
            n += 1
    return n


def optimize_natural_striding(m: Module, ss) -> int:
    """Let public-address accesses keep their own stride; returns count.

    An access in `ss.public_addr` already has a secret-independent
    address sequence, and replaying it verbatim reveals nothing new: the
    wrapper then touches the one window under the raw pointer instead
    of sweeping the portion.  The pointer is passed twice, `ct_load_nat
    p, p, mid`; linearization null-selects only the first on decoy
    paths, so the second stays the raw address and the first still
    decides whether the access is live.  Single-portion global plans
    only; instance lists can change shape between runs.
    """
    where = m.instr_index()
    n = 0
    for rec in m.dflmeta.values():
        if rec.access not in ss.public_addr or len(rec.entries) != 1 \
                or rec.entries[0].site_kind() != "g":
            continue
        ins = where[rec.access][2]      # the wrapped access, id kept
        ins.callee += "_nat"
        ins.args.insert(0, ins.args[0])
        rec.natural = True
        n += 1
    return n
