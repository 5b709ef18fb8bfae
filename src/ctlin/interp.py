"""Deterministic interpreter with instruction and memory event traces.

Values are fixed-width two's complement integers stored unsigned.
Comparisons are signed; div/rem are unsigned.  Shift amounts wrap at
the operand width.  Addresses are 64-bit; address 0 is never mapped, so
the linearization passes can use it as the decoy pointer.

Execution runs on a decoded form of the module (`Code`), built once and
shared by every run of a batch, and by every batch that runs the same
variant: the verifier decodes a hardened module once as plain code for
all of its trace and equivalence checks.  A Code holds no initial
memory; each `Machine` lays globals out with their initializers, so a
run may start some globals elsewhere by writing its own memory before
`run`, as the verifier's retry does with grown trip-count cells.
Decoding splits each block into runs
of handlers that end at calls, with the terminator as a small tagged
tuple; a run goes on through a `br` into a block (not the entry) that
no other edge enters, so a chain of such blocks decodes as one, and
the phi copy of that edge sits mid-run.  At any other block the
parallel copy of the phis, one per predecessor label, is the first
handler of the run entered over that edge.  Handlers are closures
over what the instruction fixes: the frame slots of its operands and
result, widths, masks, compare bits, access sizes, metadata plans, the
builtin to run, and a direct call's argument masks.  A frame is a list;
a call copies its function's template, which holds constants and
symbol addresses and leaves registers unset (None), so every operand
is a list index, and pushes one record on `Machine.frames`, None until
the frame allocates on the stack; its `ret` releases what it allocated.
A handler takes (machine, registers, aux), where aux is the frame's
parallel list of the flags a variant keeps.  Calls nest no deeper than
MAX_CALL_DEPTH frames, or the run aborts with stack_overflow; one that
reads past its input vectors aborts with short_input.  A read of an
unset register traps: arithmetic on None raises TypeError, which the
frame turns into the trap, and copying handlers check with `slot_value`.

The variant is the `Decoder` the code was built with:

- `Decoder`, the plain machine: values, memory, events and traces.
- `FlagDecoder`, the flag core of the two shadow variants: aux flags a
  result when a register among its operands is flagged or its guard
  register holds 0, with one rule each for select, the phi copy, `ret`
  and call results, parameters, `secret` and builtin results.
- `DecoyDecoder`, the decoy shadow on the flag core: the guard is the
  takenmap's taken predicate, and stores, ct_stores and the entry's
  `ret` that let a decoy value escape are recorded as decoy violations
  (`Code(m, DecoyDecoder())`).
- `taint.TaintDecoder`, the taint profiler on the flag core: flags mark
  secret-dependent registers, with no guard; it adds memory taint, join
  conditions, loop trips and argument flow into callees, and reports
  sensitive program points per calling context.

Steps are counted and the instruction trace extended once per run of
handlers; a run that would cross the step budget, or that aborts part
way, is replayed or cut back so traces match a step-by-step machine.

Memory events are quantized: every access contributes (kind, addr//lam)
tuples, where lam is the observation granularity.  Events come from
plain load/store, the ct_* data-flow wrappers (one event per touched
lambda-window, recorded at the window origin), and allocation
bookkeeping (in-band headers and site list updates, which live in
simulated memory themselves).

Simulated allocations are placed so payloads start 64-byte aligned,
with guard gaps in between so small overflows fault instead of landing
in a neighbouring object.  Plain heap chunks carry an 8-byte size field
at payload-8; wrapped objects carry the 32-byte in-band header, so
reading payload-8 is always legal and the magic value tells the two
apart when freeing.
"""

from __future__ import annotations

import bisect
import operator
from collections import Counter
from dataclasses import dataclass, field

from .ir import (BINOPS, BUILTIN_FUNCS, ICMP_PREDS, TERMINATORS, Const,
                 Module, Reg, Sym, gep_steps, is_reserved_name, reg_types,
                 site_token, size_of, to_signed)

MAGIC = 0xD1F1D1F1C0C0C0C0

FUNC_BASE = 0x1000
CELL_BASE = 0x8000
GLOBAL_BASE = 0x10000
STACK_BASE = 0x200000
HEAP_BASE = 0x4000000
GUARD = 64

DEFAULT_BUDGET = 10_000_000
# IR call depth at which a run aborts with stack_overflow; each IR frame
# takes two Python frames (the call's handler and `Machine._call`), so
# this stays well inside the default recursion limit
MAX_CALL_DEPTH = 256

M64 = (1 << 64) - 1
# the binops the flag variants run as one closure with their flag rule
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "and": operator.and_, "or": operator.or_, "xor": operator.xor}


class AbortError(Exception):
    """Raised by the machine; code lands in Trace.abort."""

    def __init__(self, code, detail=""):
        super().__init__("%s%s" % (code, (": " + detail) if detail else ""))
        self.code = code


@dataclass
class ExecInput:
    public: list
    secrets: list

    def __str__(self):
        return "pub: %s ; sec: %s" % (
            ",".join(str(v) for v in self.public),
            ",".join(str(v) for v in self.secrets))


class SuiteError(ValueError):
    """A profiling suite that cannot be read as inputs."""


def parse_suite(text: str) -> list:
    """One input per line: `pub: v,v ; sec: s,s` with decimal or hex."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pub_part, _, sec_part = line.partition(";")
        def vals(part, tag):
            part = part.strip()
            if not part:
                return []
            if not part.startswith(tag + ":"):
                raise SuiteError("suite line missing '%s:': %r" % (tag, raw))
            body = part[len(tag) + 1:].strip()
            try:
                return [int(v, 0) for v in body.split(",")] if body else []
            except ValueError:
                raise SuiteError("suite line has a bad value: %r"
                                 % raw) from None
        out.append(ExecInput(vals(pub_part, "pub"), vals(sec_part, "sec")))
    return out


def format_suite(inputs) -> str:
    return "\n".join(str(i) for i in inputs) + "\n"


@dataclass
class Trace:
    instrs: list = field(default_factory=list)
    events: list = field(default_factory=list)  # (kind, block-id)
    lam: int = 64
    output: int | None = None
    abort: str | None = None
    touches: dict = field(default_factory=dict)       # mid -> window touches
    access_log: dict = field(default_factory=dict)    # access iid -> {(site, off)}
    violations: list = field(default_factory=list)    # dfl soundness misses
    decoy_violations: list = field(default_factory=list)

    def requantize(self, lam2: int) -> list:
        """Events under a coarser granularity that is a multiple of lam."""
        if lam2 % self.lam:
            raise ValueError("lam2 must be a multiple of lam")
        f = lam2 // self.lam
        return [(k, b // f) for k, b in self.events]


@dataclass
class _Alloc:
    base: int
    size: int
    seg: str          # g | s | h | cell
    site: str | None
    payload: int = 0  # base + skew; program-visible start
    live: bool = True
    data: bytearray = None  # type: ignore

    def __post_init__(self):
        if self.data is None:
            self.data = bytearray(self.size)


class Memory:
    def __init__(self):
        self.allocs: dict[int, _Alloc] = {}
        self.bases: list[int] = []
        self.cursor = {"g": GLOBAL_BASE, "s": STACK_BASE,
                       "h": HEAP_BASE, "cell": CELL_BASE}

    def alloc(self, seg: str, size: int, skew: int = 0,
              site: str | None = None) -> _Alloc:
        cur = self.cursor[seg]
        base = cur + ((64 - ((cur + skew) % 64)) % 64)
        self.cursor[seg] = base + size + GUARD
        a = _Alloc(base, size, seg, site, payload=base + skew)
        self.allocs[base] = a
        bisect.insort(self.bases, base)
        return a

    def release(self, a: _Alloc):
        a.live = False

    def find(self, addr: int) -> _Alloc | None:
        i = bisect.bisect_right(self.bases, addr) - 1
        if i < 0:
            return None
        a = self.allocs[self.bases[i]]
        if a.base <= addr < a.base + a.size:
            return a
        return None

    def _locate(self, addr: int, size: int) -> _Alloc:
        a = self.find(addr)
        if a is None:
            raise AbortError("oob", "addr 0x%x" % addr)
        if not a.live:
            raise AbortError("use_after_free", "addr 0x%x" % addr)
        if addr + size > a.base + a.size:
            raise AbortError("oob", "addr 0x%x size %d" % (addr, size))
        return a

    def read(self, addr: int, size: int) -> int:
        a = self._locate(addr, size)
        off = addr - a.base
        return int.from_bytes(a.data[off:off + size], "little")

    def write(self, addr: int, size: int, value: int):
        a = self._locate(addr, size)
        off = addr - a.base
        a.data[off:off + size] = (value & ((1 << (8 * size)) - 1)
                                  ).to_bytes(size, "little")


def _mask(ty) -> int:
    if ty.kind == "addr":
        return M64
    return (1 << ty.bits) - 1


def _site_keys(m: Module) -> list:
    keys = set()
    for ins in m.instructions():
        if ins.op == "call" and ins.callee in ("dfl_alloc_stack",
                                               "dfl_alloc_heap"):
            k = "s" if ins.callee == "dfl_alloc_stack" else "h"
            keys.add(site_token(k, ins.args[0].value))
    for rec in m.dflmeta.values():
        for e in rec.entries:
            if e.site_kind() in ("s", "h"):
                keys.add(e.site)
    return sorted(keys)


def _lay_out(code: "Code", mem: Memory):
    """Allocate the code's site list cells, then its globals; (site cells,
    global addrs).

    Placement is deterministic, so decoding resolves symbol addresses
    once with a scratch Memory and every machine lays out the same way.
    """
    cells = {}
    for key in code.site_keys:
        cells[key] = mem.alloc("cell", 16, site=key).base
    addrs = {}
    for g in code.m.globals.values():
        a = mem.alloc("g", size_of(g.ty), site=code.global_sites[g.name])
        if g.init:
            a.data[:len(g.init)] = g.init
        addrs[g.name] = a.base
    return cells, addrs


# ---------------------------------------------------------------------------
# decoded form

_BR, _CONDBR, _RET, _TRAP = range(4)


class DFunc:
    """A decoded function: parameters, frame slots and blocks.

    A frame is a list, one slot per name in `names`: registers, constants,
    symbols and a variant's own; a fresh one is `template` (slot 0 holds
    1, then the parameters; constants and symbols hold their values),
    and its flags are `flags`, all false.

    blocks[0] is the entry; the last block traps, and stands for every
    label that names no block.  A block another one's chain decodes
    (`DBlock`) is None.  Terminators and call handlers name
    blocks and callees by index and name, so decoded code holds no
    reference cycle and is freed as soon as its batch drops it.
    """

    __slots__ = ("name", "params", "masks", "secret", "template", "names",
                 "flags", "blocks")

    def __init__(self, fn):
        self.name = fn.name
        self.params = tuple(p.name for p in fn.params)
        self.masks = tuple(_mask(p.ty) for p in fn.params)
        self.secret = tuple(p.secret for p in fn.params)
        self.template = [1] + [None] * len(self.params)
        self.names = ["#1", *self.params]
        self.blocks = ()


class DBlock:
    """A chain of blocks decoded as one: a block, then each block (not
    the entry) that only the previous one's `br` enters.  label and term
    are the chain's last block's: the label the next block's phis read
    as the predecessor, and its terminator, (_BR, block index) |
    (_CONDBR, cond key, true index, false index) | (_RET, key) |
    (_TRAP, detail).

    segs: runs (iids, n, handlers, ends), each ending at a call or at
    the terminator; handler j runs once the iids before ends[j] are
    stepped.  A later block's phi copy sits mid-run, after the `br` into
    it.  If the first block has phis, its segs are not run: phis maps
    each predecessor label to the runs entered from it, the first of
    which starts with that edge's parallel copy, and phi_miss holds the
    runs for an edge no phi names."""

    __slots__ = ("label", "phis", "phi_miss", "segs", "term")

    def __init__(self, label, segs, term):
        self.label, self.segs, self.term = label, segs, term
        self.phis = self.phi_miss = None


def _run(iids, hs, ends):
    return tuple(iids), len(iids), tuple(hs), tuple(ends)


def _getter(keys):
    """One C-level call that reads a frame list at keys, as a tuple: two
    readings of slot 0 follow, so it is a tuple however few keys there
    are, and the zip or map that takes it stops before them."""
    return operator.itemgetter(*keys, 0, 0)


def _trap(detail):
    def h(mach, regs, aux):
        raise AbortError("trap", detail)
    return h


def slot_value(v):
    """v, or a trap for None, the value of an unset register's slot."""
    if v is None:
        raise AbortError("trap", "read of an unset register")
    return v


class Code:
    """A module decoded once for one variant; owned by the batch of runs
    that shares it.  Holds no state of any run."""

    def __init__(self, m: Module, decoder: "Decoder | None" = None):
        self.m = m
        self.decoder = decoder = decoder or Decoder()
        self.scheme = m.harden.scheme if m.harden else 5
        self.site_keys = _site_keys(m)
        self.global_sites = {name: site_token("g", name) for name in m.globals}
        self.site_cells, self.global_addr = _lay_out(self, Memory())
        self.funcs = {name: DFunc(fn) for name, fn in m.funcs.items()}
        self.func_addr = {name: FUNC_BASE + 16 * i
                          for i, name in enumerate(m.funcs)}
        self.by_addr = {a: self.funcs[name]
                        for name, a in self.func_addr.items()}
        decoder.decode(self)


class Decoder:
    """Decodes the plain machine: values, memory and traces only."""

    decoys = False      # ct_stores read the decoy flag of their value
                        # (else slot 0's, never set), and a flagged
                        # `ret` of the entry is a decoy violation
    fresh_aux = False   # each frame gets its own copy of the flags

    def decode(self, code: Code):
        self.code = code
        self.m = code.m
        self.prepare()
        for name, fn in self.m.funcs.items():
            self.decode_function(fn, code.funcs[name])
        self.code = None     # the code keeps its decoder, not the reverse

    def prepare(self):
        """Module-wide tables a variant needs before decoding."""

    # -- per function ------------------------------------------------------

    def decode_function(self, fn, df: DFunc):
        self.df = df
        self.slots = {k: i for i, k in enumerate(df.names)}
        self.types = reg_types(self.m, fn)
        index = {label: i for i, label in enumerate(fn.blocks)}
        # a block that is not the entry (index 0), and that no edge but
        # its predecessor's `br` enters, continues that predecessor's
        # chain; dead edges past a first terminator count too (safe)
        into = Counter(lbl for b in fn.blocks.values() for ins in b.instrs
                       for lbl in ins.labels)
        then = {b.label: t.labels[0] for b in fn.blocks.values()
                if b.instrs and (t := b.instrs[-1]).op == "br"
                and into[t.labels[0]] == 1 and index.get(t.labels[0], 0)}
        blocks, seen = [None] * len(index), set()
        # chain heads first: only a cycle of members has none
        for label in sorted(index, key=set(then.values()).__contains__):
            if label not in seen:
                blocks[index[label]] = self.decode_chain(
                    fn, fn.blocks[label], then, index, seen)
        nowhere = DBlock("", (), (_TRAP, "branch to unknown label"))
        df.blocks = (*blocks, nowhere)
        df.flags = [False] * len(df.template)

    def key(self, o) -> int:
        """Frame slot of an operand.  An unknown symbol's slot holds None
        and traps like an unset register.  Slot 0 holds 1 and is never
        flagged: it is also a missing operand and "no guard"."""
        if isinstance(o, Reg):
            return self.slot(o.name)
        if isinstance(o, Const):
            v = o.value & M64
            return self.slot("#%d" % v, v)
        if isinstance(o, Sym):
            code = self.code
            return self.slot("@" + o.name, code.global_addr.get(
                o.name, code.func_addr.get(o.name)))
        raise TypeError(o)

    def slot(self, name, value=None):
        """Slot of a register name, or of `#value`, `@symbol` or a name of
        the variant's (`trips:label`) holding value; None for no name."""
        s = self.slots.get(name)
        if s is None and name is not None:
            s = self.slots[name] = len(self.df.names)
            self.df.names.append(name)
            self.df.template.append(value)
        return s

    def decode_chain(self, fn, head, then, index, seen) -> DBlock:
        """The decoded block of the chain from head: the decoded `br` into
        the next member (then[label]) continues the run, the member's phi
        copy mid-run, until a block this or an earlier chain decoded."""
        segs, iids, hs, ends = [], [], [], []
        b = head
        while True:
            seen.add(b.label)
            term = (_TRAP, "block fell through")
            if b is not head and (phis := b.phis()):
                copy_iids, act = self._phi_copy(fn, b, phis, pred)
                iids += copy_iids
                hs.append(act)
                ends.append(len(iids))
            for ins in b.instrs:
                if ins.op == "phi":
                    continue
                iids.append(ins.iid)
                if ins.op in TERMINATORS:
                    h = self.terminal(fn, b, ins)
                    if h is not None:
                        hs.append(h)
                        ends.append(len(iids))
                    term = self._term(ins, index)
                    break
                hs.append(self.op(fn, ins))
                ends.append(len(iids))
                if ins.op == "icall" or (ins.op == "call"
                                         and ins.callee in self.m.funcs):
                    segs.append(_run(iids, hs, ends))
                    iids, hs, ends = [], [], []
            nxt = then.get(b.label)
            if nxt is None or nxt in seen or term != (_BR, index[nxt]):
                break
            pred, b = b.label, fn.blocks[nxt]
        if iids:
            segs.append(_run(iids, hs, ends))
        db = DBlock(b.label, tuple(segs), term)
        if phis := head.phis():
            preds = dict.fromkeys(lbl for ph in phis for lbl, _ in ph.incoming)
            db.phis = {lbl: self._phi_edge(fn, head, phis, lbl, db.segs)
                       for lbl in preds}
            db.phi_miss = self._phi_edge(fn, head, phis, None, db.segs)
        return db

    def _term(self, ins, index):
        nowhere = len(index)
        if ins.op == "br":
            return (_BR, index.get(ins.labels[0], nowhere))
        if ins.op == "condbr":
            return (_CONDBR, self.key(ins.args[0]),
                    index.get(ins.labels[0], nowhere),
                    index.get(ins.labels[1], nowhere))
        return (_RET, self.key(ins.args[0]))

    def _phi_copy(self, fn, b, phis, pred):
        """(iids, handler) of the parallel copy of b's phis entered from
        pred.

        The copy stops at the first phi with no incoming value for pred,
        which traps once it has been stepped; nothing runs after it.
        """
        copies = []
        for ph in phis:
            src = next((v for lbl, v in ph.incoming if lbl == pred), None)
            if src is None:
                break
            copies.append((ph, self.key(src)))
        return ([ph.iid for ph in phis[:len(copies) + 1]],
                self.phi_copy(fn, b, copies, len(copies) < len(phis)))

    def _phi_edge(self, fn, b, phis, pred, segs):
        """The runs entered from pred: the parallel copy, as the first
        handler of the block's first run."""
        iids, act = self._phi_copy(fn, b, phis, pred)
        first_iids, _, first_hs, first_ends = segs[0] if segs else ((),) * 4
        return (_run(iids + list(first_iids), [act, *first_hs],
                     [len(iids)] + [len(iids) + e for e in first_ends]),
                ) + segs[1:]

    def phi_copy(self, fn, b, copies, trap):
        names = tuple(self.slot(ph.name) for ph, _ in copies)
        srcs = tuple(k for _, k in copies)
        masks = tuple(_mask(ph.ty) for ph, _ in copies)
        if len(copies) == 1 and not trap:
            (d,), (s,), (mk,) = names, srcs, masks

            def act(mach, regs, aux):
                regs[d] = regs[s] & mk
            return act

        get = _getter(srcs)

        def act(mach, regs, aux):
            for d, v, mk in zip(names, get(regs), masks):
                regs[d] = v & mk
            if trap:
                raise AbortError("trap", "phi without incoming edge")
        return act

    def terminal(self, fn, b, ins):
        """Variant work at a terminator, run once it has been stepped."""
        return None

    def entry_aux(self, df: DFunc, mach: "Machine"):
        """aux of mach's entry frame.  Plain frames share df.flags: they
        only write call results' flags, which no `ret` sets."""
        return df.flags

    # -- per instruction ---------------------------------------------------

    def op(self, fn, ins):
        if ins.op in BINOPS:
            return self._binop(ins)
        if ins.op == "call":
            if ins.callee in self.m.funcs:
                callee = self.code.funcs[ins.callee]
                if len(ins.args) != len(callee.params):
                    return _trap("arity mismatch calling @" + ins.callee)
                return self.call(fn, ins, callee)
            if ins.callee not in BUILTIN_FUNCS:
                return _trap("call to undefined @" + ins.callee)
            return getattr(self, "_bi_" + ins.callee)(fn, ins)
        h = getattr(self, "_op_" + ins.op, None)
        if h is None:
            return _trap("cannot execute op " + ins.op)
        return h(fn, ins)

    def _binop(self, ins):
        op, d, w = ins.op, self.slot(ins.name), ins.ty.bits
        a, b = self.key(ins.args[0]), self.key(ins.args[1])
        mask = (1 << w) - 1
        if op == "add":
            def h(mach, regs, aux):
                regs[d] = (regs[a] + regs[b]) & mask
        elif op == "sub":
            def h(mach, regs, aux):
                regs[d] = (regs[a] - regs[b]) & mask
        elif op == "mul":
            def h(mach, regs, aux):
                regs[d] = (regs[a] * regs[b]) & mask
        elif op == "and":
            def h(mach, regs, aux):
                regs[d] = regs[a] & regs[b] & mask
        elif op == "or":
            def h(mach, regs, aux):
                regs[d] = (regs[a] | regs[b]) & mask
        elif op == "xor":
            def h(mach, regs, aux):
                regs[d] = (regs[a] ^ regs[b]) & mask
        elif op == "shl":
            # (b & mask) % w == b % w: every width is a power of two
            def h(mach, regs, aux):
                regs[d] = (regs[a] << (regs[b] % w)) & mask
        elif op == "lshr":
            def h(mach, regs, aux):
                regs[d] = (regs[a] & mask) >> (regs[b] % w)
        else:
            div = op == "div"

            def h(mach, regs, aux):
                y = regs[b] & mask
                if not y:
                    raise AbortError("div_zero")
                x = regs[a] & mask
                regs[d] = x // y if div else x % y
        return h

    def _icmp_bits(self, ins) -> int:
        for a in ins.args:
            if isinstance(a, Reg):
                t = self.types.get(a.name)
                if t is not None and t.kind == "int":
                    return t.bits
                if t is not None and t.kind == "addr":
                    return 64
            if isinstance(a, Sym):
                return 64
        return 64

    def _icmp(self, ins):
        """(a, b, ordered, e, mask, sign) of an icmp, or None.  Ordered,
        it is x ^ sign < y ^ sign + e (lt, le; gt and ge swap a and b),
        since x ^ sign orders w-bit values by their signed readings;
        else (x == y) != e (eq, ne)."""
        pred = ins.pred
        if pred not in ICMP_PREDS:
            return None
        w = self._icmp_bits(ins)
        a, b = self.key(ins.args[0]), self.key(ins.args[1])
        if pred in ("gt", "ge"):
            a, b = b, a
        return a, b, pred not in ("eq", "ne"), \
            int(pred in ("le", "ge", "ne")), (1 << w) - 1, 1 << (w - 1)

    def _op_icmp(self, fn, ins):
        d, cmp = self.slot(ins.name), self._icmp(ins)
        if cmp is None:
            return _trap("unknown icmp predicate %s" % ins.pred)
        a, b, ordered, e, mask, sign = cmp
        if ordered:
            def h(mach, regs, aux):
                regs[d] = 1 if ((regs[a] & mask) ^ sign) \
                    < ((regs[b] & mask) ^ sign) + e else 0
        else:
            def h(mach, regs, aux):
                regs[d] = 1 if (regs[a] & mask == regs[b] & mask) != e else 0
        return h

    def _op_select(self, fn, ins):
        d = self.slot(ins.name)
        c, x, y = (self.key(a) for a in ins.args[:3])

        def h(mach, regs, aux):
            regs[d] = slot_value(regs[x] if regs[c] & 1 else regs[y])
        return h

    def _op_load(self, fn, ins):
        d, iid, size = self.slot(ins.name), ins.iid, size_of(ins.ty)
        pk = self.key(ins.args[0])

        def h(mach, regs, aux):
            p = regs[pk]
            regs[d] = mach.mem.read(p, size)
            mach.trace.events.append(("r", p // mach.lam))
            mach._log_access(iid, p, size)
        return h

    def _op_store(self, fn, ins):
        iid, size = ins.iid, size_of(ins.ty)
        vk, pk = self.key(ins.args[0]), self.key(ins.args[1])

        def h(mach, regs, aux):
            p = regs[pk]
            mach.mem.write(p, size, slot_value(regs[vk]))
            mach.trace.events.append(("w", p // mach.lam))
            mach._log_access(iid, p, size)
        return h

    def _op_gep(self, fn, ins):
        d, bk = self.slot(ins.name), self.key(ins.args[0])
        steps, err = gep_steps(ins.ty, ins.args[1:])
        if err:
            return _trap(err)
        # (index key, scale) per index; fields fold into one offset
        terms = [(self.key(i), scale) for i, scale in steps if i is not None]
        off = sum(o for i, o in steps if i is None)
        if len(terms) == 1 and not off:
            (ik, scale), = terms

            def h(mach, regs, aux):
                i = regs[ik]
                if i >> 63:
                    i -= 1 << 64
                regs[d] = (regs[bk] + i * scale) & M64
            return h
        terms = tuple(terms)

        def h(mach, regs, aux):
            p = regs[bk] + off
            for ik, scale in terms:
                p += to_signed(regs[ik], 64) * scale
            regs[d] = p & M64
        return h

    def _op_alloca(self, fn, ins):
        d, size = self.slot(ins.name), size_of(ins.ty)
        site = site_token("s", ins.iid)

        def h(mach, regs, aux):
            a = mach.mem.alloc("s", size, site=site)
            mach._frame_allocs()[1].append(a)
            regs[d] = a.base
        return h

    def _op_heapalloc(self, fn, ins):
        d, size = self.slot(ins.name), size_of(ins.ty)
        site = site_token("h", ins.iid)

        def h(mach, regs, aux):
            a = mach.mem.alloc("h", size + 8, skew=8, site=site)
            mach._write(a.base, 8, size)          # size field
            regs[d] = a.base + 8
        return h

    def _op_heapfree(self, fn, ins):
        pk = self.key(ins.args[0])

        def h(mach, regs, aux):
            p = regs[pk]
            if p == 0:
                return
            a = mach.mem.find(p - 8)
            if a is None or a.seg != "h" or p != a.base + 8:
                raise AbortError("bad_free", "0x%x" % p)
            if not a.live:
                raise AbortError("double_free", "0x%x" % p)
            mach.mem.release(a)
        return h

    def _op_secret(self, fn, ins):
        d, k, mask = self.slot(ins.name), ins.args[0].value, _mask(ins.ty)

        def h(mach, regs, aux):
            if k >= len(mach.secrets):
                raise AbortError("short_input", "secret index %d" % k)
            regs[d] = mach.secrets[k] & mask
        return h

    # -- calls ---------------------------------------------------------------

    def enter(self, ins, argk):
        """None, or (machine, aux, callee) -> the callee's aux."""
        return None

    def call(self, fn, ins, callee: DFunc | None = None):
        """Handler of a call: a direct call finds its callee by name at
        run time, so recursion leaves no cycle in the decoded code; an
        icall (no callee) by the address its first operand holds.  The
        result (in an unread slot if unnamed) takes the flag of the
        callee's `ret` operand."""
        d = self.slot(ins.name or "")
        if callee is None:
            fk, name, args, masks = self.key(ins.args[0]), None, \
                ins.args[1:], None
        else:
            fk, name, args, masks = None, callee.name, ins.args, callee.masks
        argk = tuple(self.key(a) for a in args)
        enter, fresh, get = self.enter(ins, argk), self.fresh_aux, \
            _getter(argk)

        def h(mach, regs, aux):
            if fk is None:
                callee = mach.code.funcs[name]
                args = list(map(operator.and_, get(regs), masks))
            else:
                fp = slot_value(regs[fk])
                vals = [slot_value(regs[k]) for k in argk]
                callee = mach.code.by_addr.get(fp)
                if callee is None:
                    raise AbortError("bad_icall", "0x%x" % fp)
                if len(vals) != len(callee.params):
                    raise AbortError("bad_icall", "arity")
                args = [v & mk for v, mk in zip(vals, callee.masks)]
            regs[d] = mach._call(
                callee, args, enter(mach, aux, callee) if enter
                else callee.flags.copy() if fresh else callee.flags)
            aux[d] = mach.ret_flag
        return h

    def _op_icall(self, fn, ins):
        return self.call(fn, ins)

    # -- builtins ------------------------------------------------------------

    def _bi_trap(self, fn, ins):
        # a guarded failsafe passes its taken predicate; decoys sail past
        if not ins.args:
            return _trap("failsafe")
        tk = self.key(ins.args[0])

        def h(mach, regs, aux):
            if regs[tk] & 1:
                raise AbortError("trap", "failsafe")
        return h

    def _bi_ct_select(self, fn, ins):
        """`cfl.ct_select` of the code's scheme with its taken operand
        encoded, in one closure; an arm read unset traps in every form."""
        d, scheme = self.slot(ins.name), self.code.scheme
        tk, ak, bk = (self.key(a) for a in ins.args[:3])
        if scheme == 1:
            def h(mach, regs, aux):
                b = regs[bk]
                regs[d] = (b + (regs[ak] - b) * (regs[tk] & 1)) & M64
        elif scheme == 2:
            def h(mach, regs, aux):
                a, b = regs[ak] & M64, regs[bk] & M64
                regs[d] = a if regs[tk] & 1 else b
        elif scheme in (3, 4):      # the negated taken bit is scheme 4's
            def h(mach, regs, aux):
                t = -(regs[tk] & 1) & M64
                regs[d] = (regs[ak] & t) | (regs[bk] & (t ^ M64))
        elif scheme == 5:
            def h(mach, regs, aux):
                t = regs[tk] & 1
                regs[d] = (regs[ak] * t + regs[bk] * (1 - t)) & M64
        else:
            return _trap("unknown select scheme %d" % scheme)
        return h

    def _bi_dfl_alloc_stack(self, fn, ins):
        return self._dfl_alloc(ins, "s")

    def _bi_dfl_alloc_heap(self, fn, ins):
        return self._dfl_alloc(ins, "h")

    def _dfl_alloc(self, ins, seg):
        d, size = self.slot(ins.name), ins.args[1].value
        key = site_token(seg, ins.args[0].value)
        cell = self.code.site_cells.get(key)
        if cell is None:
            return _trap("allocation site %s has no list" % key)

        def h(mach, regs, aux):
            regs[d] = mach._dfl_alloc(seg, key, size, cell)
        return h

    def _bi_dfl_free(self, fn, ins):
        pk = self.key(ins.args[0])

        def h(mach, regs, aux):
            mach._dfl_free(regs[pk])
        return h

    def _meta(self, ins):
        mid = ins.args[-1].value
        return mid, self.m.dflmeta.get(mid)

    def _bi_ct_load(self, fn, ins):
        mid, rec = self._meta(ins)
        if rec is None:
            return _trap("unknown dfl metadata %d" % mid)
        d, pk = self.slot(ins.name), self.key(ins.args[0])

        def h(mach, regs, aux):
            regs[d] = mach._ct_sweep(mid, rec, slot_value(regs[pk]))
        return h

    def _bi_ct_store(self, fn, ins):
        mid, rec = self._meta(ins)
        if rec is None:
            return _trap("unknown dfl metadata %d" % mid)
        iid, pk, vk = ins.iid, self.key(ins.args[0]), self.key(ins.args[1])
        fk = vk if self.decoys else 0

        def h(mach, regs, aux):
            mach._ct_sweep(mid, rec, slot_value(regs[pk]),
                           (slot_value(regs[vk]), iid, aux[fk]))
        return h

    def _bi_ct_load_nat(self, fn, ins):
        mid, rec = self._meta(ins)
        if rec is None:
            return _trap("unknown dfl metadata %d" % mid)
        d = self.slot(ins.name)
        sk, rk = self.key(ins.args[0]), self.key(ins.args[1])

        def h(mach, regs, aux):
            regs[d] = mach._ct_nat(mid, rec, slot_value(regs[sk]), regs[rk])
        return h

    def _bi_ct_store_nat(self, fn, ins):
        mid, rec = self._meta(ins)
        if rec is None:
            return _trap("unknown dfl metadata %d" % mid)
        iid = ins.iid
        sk, rk, vk = (self.key(a) for a in ins.args[:3])
        fk = vk if self.decoys else 0

        def h(mach, regs, aux):
            mach._ct_nat(mid, rec, slot_value(regs[sk]), regs[rk],
                         (slot_value(regs[vk]), iid, aux[fk]))
        return h


class FlagDecoder(Decoder):
    """A flag per slot in aux.  A result is flagged when a register
    among its operands is flagged, or when its guard register is set and
    even (binops, icmp, gep, load, alloca, heapalloc; `select` reads its
    condition and picked arm, a phi its incoming value).  A call's
    result takes the flag of the callee's `ret` operand, unguarded.
    Builtin results are unflagged, and so are `secret` results and
    entry parameters unless the variant flags secrets."""

    secrets = False     # `secret` results and secret entry parameters
    fresh_aux = True
    operand_rule = frozenset(BINOPS) | {"icmp", "gep", "load", "alloca",
                                        "heapalloc"}

    def guard(self, fn, ins) -> int:
        """Slot of the guard register of ins, or 0 for none: slot 0
        holds 1, so it reads as taken."""
        return 0

    def join_conds(self, fn, b) -> tuple:
        """Slots of registers whose flags every phi of block b also takes."""
        return ()

    def fixed(self, h, d, flag):
        """h, then aux[d] = flag, for a builtin or `secret` result."""
        def hf(mach, regs, aux):
            h(mach, regs, aux)
            aux[d] = flag
        return hf

    def entry_aux(self, df: DFunc, mach: "Machine"):
        secret = df.secret if self.secrets else ()
        return [False, *secret, *df.flags[len(secret) + 1:]]

    def op(self, fn, ins):
        op, d = ins.op, self.slot(ins.name)
        if d is not None and op in self.operand_rule:
            return self.flagged(fn, ins)
        h = super().op(fn, ins)
        if d is not None and (op == "secret" or op == "call"
                              and ins.callee not in self.m.funcs):
            return self.fixed(h, d, op == "secret" and self.secrets)
        return h        # icall, select and calls flag their own results

    def flagged(self, fn, ins):
        """The handler of ins that also sets aux[d] by the operand rule,
        read before the value: one closure for both where `fused` has
        one, else a closure around the plain handler."""
        d, t = self.slot(ins.name), self.guard(fn, ins)
        keys = tuple(self.key(a) for a in ins.args if isinstance(a, Reg))
        k0, k1 = (keys + (0, 0))[:2]
        if len(keys) < 3 and (hf := self.fused(ins, d, k0, k1, t)):
            return hf
        h = super().op(fn, ins)
        if len(keys) > 2:
            def hf(mach, regs, aux):
                g = regs[t]
                f = any(map(aux.__getitem__, keys)) \
                    or g is not None and not g & 1
                h(mach, regs, aux)
                aux[d] = f
            return hf

        def hf(mach, regs, aux):
            g = regs[t]
            f = aux[k0] or aux[k1] or g is not None and not g & 1
            h(mach, regs, aux)
            aux[d] = f
        return hf

    def fused(self, ins, d, k0, k1, t):
        """The operand-rule handler of an add, sub, mul, and, or or xor,
        or of an unguarded icmp, as one closure, or None; one without a
        guard (t = 0) reads none."""
        if ins.op == "icmp" and not t and (cmp := self._icmp(ins)):
            a, b, ordered, e, mask, sign = cmp
            if ordered:
                def hf(mach, regs, aux):
                    aux[d] = aux[k0] or aux[k1]
                    regs[d] = 1 if ((regs[a] & mask) ^ sign) \
                        < ((regs[b] & mask) ^ sign) + e else 0
            else:
                def hf(mach, regs, aux):
                    aux[d] = aux[k0] or aux[k1]
                    regs[d] = 1 if (regs[a] & mask == regs[b] & mask) \
                        != e else 0
            return hf
        if ins.op not in _ARITH:
            return None
        a, b = self.key(ins.args[0]), self.key(ins.args[1])
        op, mask = _ARITH[ins.op], (1 << ins.ty.bits) - 1
        if t:
            def hf(mach, regs, aux):
                g = regs[t]
                aux[d] = aux[k0] or aux[k1] or g is not None and not g & 1
                regs[d] = op(regs[a], regs[b]) & mask
            return hf

        def hf(mach, regs, aux):
            aux[d] = aux[k0] or aux[k1]
            regs[d] = op(regs[a], regs[b]) & mask
        return hf

    def _op_select(self, fn, ins):
        d, t = self.slot(ins.name), self.guard(fn, ins)
        c, x, y = (self.key(a) for a in ins.args[:3])

        def h(mach, regs, aux):
            pick = x if regs[c] & 1 else y
            regs[d], g = slot_value(regs[pick]), regs[t]
            aux[d] = aux[pick] or aux[c] or g is not None and not g & 1
        return h

    def phi_copy(self, fn, b, copies, trap):
        names = tuple(self.slot(ph.name) for ph, _ in copies)
        srcs = tuple(k for _, k in copies)
        masks = tuple(_mask(ph.ty) for ph, _ in copies)
        guards = tuple(self.guard(fn, ph) for ph, _ in copies)
        conds, get = self.join_conds(fn, b), _getter(srcs)
        if not (trap or conds or any(guards)):
            def act(mach, regs, aux):
                for d, v, mk, f in zip(names, get(regs), masks, get(aux)):
                    regs[d] = v & mk
                    aux[d] = f
            return act

        def act(mach, regs, aux):
            # in parallel: every phi reads the values and flags from
            # before the copy; guards and join conditions are read as
            # the copy goes
            for d, v, mk, f, t in zip(names, get(regs), masks, get(aux),
                                      guards):
                regs[d] = v & mk
                g = regs[t]
                aux[d] = f or g is not None and not g & 1 \
                    or any(map(aux.__getitem__, conds))
            if trap:
                raise AbortError("trap", "phi without incoming edge")
        return act

    def terminal(self, fn, b, ins):
        if ins.op != "ret":
            return None
        k = self.key(ins.args[0])

        def h(mach, regs, aux):
            mach.ret_flag = aux[k]
        return h


class DecoyDecoder(FlagDecoder):
    """Decodes the decoy shadow: aux[r] is true when r holds a value
    computed on a decoy path, from decoy inputs or under a false taken
    predicate; the guard is the taken register the takenmap names.
    Stores, ct_stores and the entry's `ret` that let a decoy value
    escape are recorded as decoy violations.  Bookkeeping stores to
    cfl.*/dfl.* cells are decoy-neutral by construction and never
    flagged."""

    decoys = True

    def decode_function(self, fn, df: DFunc):
        self.tm = self.m.takenmap.get(fn.name, {})   # iid -> taken iid
        self.names = {ins.iid: ins.name for ins in fn.instructions()}
        super().decode_function(fn, df)

    def guard(self, fn, ins) -> int:
        name = self.names.get(self.tm.get(ins.iid))
        return self.slot(name) if name else 0

    def fixed(self, h, d, flag):
        # flag is False, and only a register's own definition writes its
        # decoy flag, so it stays unwritten; ct_select's handler flags
        # the arm it picks
        return h

    def _op_store(self, fn, ins):
        p = ins.args[1]
        if isinstance(p, Sym) and is_reserved_name(p.name):
            return super()._op_store(fn, ins)
        k0, k1 = (self.key(a) if isinstance(a, Reg) else 0 for a in ins.args)
        t, store = self.guard(fn, ins), super()._op_store(fn, ins)
        fname, iid = fn.name, ins.iid

        def h(mach, regs, aux):
            g = regs[t]
            if aux[k0] or aux[k1] or g is not None and not g & 1:
                mach.trace.decoy_violations.append(("store", fname, iid))
            store(mach, regs, aux)
        return h

    def _bi_ct_select(self, fn, ins):
        h, d = super()._bi_ct_select(fn, ins), self.slot(ins.name)
        tk, ak, bk = (self.key(a) for a in ins.args[:3])

        def hd(mach, regs, aux):
            h(mach, regs, aux)
            aux[d] = aux[ak if regs[tk] & 1 else bk]
        return hd


# ---------------------------------------------------------------------------
# running

class Machine:
    """One run of a module.  Create fresh per interpretation.

    `code` is the module decoded by the batch this run belongs to, and
    its decoder is the variant that runs; when absent the module is
    decoded for this run alone as the plain variant.
    """

    def __init__(self, m: Module, lam: int = 64, budget: int = DEFAULT_BUDGET,
                 code: Code | None = None):
        code = code or Code(m)
        if code.m is not m:
            raise ValueError("code was decoded from another module")
        self.m = m
        self.code = code
        self.lam = lam
        self.budget = budget
        self.mem = Memory()
        self.trace = Trace(lam=lam)
        self.steps = 0
        self.frames = []    # per frame: None or its (wrapped, plain) allocs
        self.site_cells, self.global_addr = _lay_out(code, self.mem)
        self.ret_flag = False   # flag of the operand of the last `ret`

    # -- events -----------------------------------------------------------

    def _ev(self, kind: str, addr: int):
        self.trace.events.append((kind, addr // self.lam))

    def _read(self, addr: int, size: int) -> int:
        v = self.mem.read(addr, size)
        self._ev("r", addr)
        return v

    def _write(self, addr: int, size: int, value: int):
        self.mem.write(addr, size, value)
        self._ev("w", addr)

    # -- running ----------------------------------------------------------

    def run(self, inp: ExecInput, entry: str = "main") -> Trace:
        if entry not in self.m.funcs:
            raise ValueError("no entry function @%s" % entry)
        self.secrets = list(inp.secrets)
        fn = self.m.funcs[entry]
        args = []
        pi = si = 0
        for p in fn.params:
            if p.secret:
                if si >= len(self.secrets):
                    break
                args.append(self.secrets[si] & _mask(p.ty))
                si += 1
            else:
                if pi >= len(inp.public):
                    break
                args.append(inp.public[pi] & _mask(p.ty))
                pi += 1
        if len(args) < len(fn.params):
            self.trace.abort = "short_input"
            return self.trace
        df = self.code.funcs[entry]
        try:
            self.trace.output = self._call(
                df, args, self.code.decoder.entry_aux(df, self))
            if self.ret_flag and self.code.decoder.decoys:
                self.trace.decoy_violations.append(("ret", entry, None))
        except AbortError as e:
            self.trace.abort = e.code
        return self.trace

    def _call(self, fn: DFunc, args, aux):
        if len(self.frames) >= MAX_CALL_DEPTH:
            raise AbortError("stack_overflow", "@" + fn.name)
        regs = fn.template.copy()
        regs[1:len(args) + 1] = args
        self.frames.append(None)    # stack allocations: _frame_allocs
        extend = self.trace.instrs.extend
        budget = self.budget
        blocks = fn.blocks
        block = blocks[0]
        prev = None
        running = None   # the run being executed, if any
        try:
            while True:
                segs = block.segs if block.phis is None \
                    else block.phis.get(prev, block.phi_miss)
                for seg in segs:
                    iids, n, hs, _ = seg
                    steps = self.steps + n
                    if steps > budget:
                        self._step_through(seg, regs, aux)
                        continue
                    self.steps = steps
                    extend(iids)
                    running = seg
                    for h in hs:
                        h(self, regs, aux)
                    running = None
                term = block.term
                tag = term[0]
                if tag == _CONDBR:
                    prev = block.label
                    block = blocks[term[2] if regs[term[1]] & 1 else term[3]]
                elif tag == _BR:
                    prev = block.label
                    block = blocks[term[1]]
                elif tag == _RET:
                    ret = regs[term[1]]
                    if ret is None:
                        slot_value(ret)
                    allocs = self.frames.pop()
                    if allocs is not None:
                        wrapped, plain = allocs
                        for a in reversed(wrapped):
                            self._unlink(a)
                            self.mem.release(a)
                        for a in plain:
                            self.mem.release(a)
                    return ret
                else:
                    raise AbortError("trap", term[1])
        except (KeyError, TypeError) as e:
            if running is not None:
                self._unstep(running, h)
            raise AbortError("trap", "bad operand: %r" % e) from None
        except AbortError:
            if running is not None:
                self._unstep(running, h)
            raise

    def _unstep(self, seg, h):
        """Drop the iids a run stepped past its handler h that aborted."""
        _, n, hs, ends = seg
        left = n - ends[hs.index(h)]
        if left:
            self.steps -= left
            del self.trace.instrs[-left:]

    def _step_through(self, seg, regs, aux):
        """A run that crosses the budget, one step at a time."""
        iids, n, hs, ends = seg
        done = 0
        for h, end in zip(hs + (None,), ends + (n,)):
            while done < end:
                self.steps += 1
                if self.steps > self.budget:
                    raise AbortError("budget")
                self.trace.instrs.append(iids[done])
                done += 1
            if h is not None:
                h(self, regs, aux)

    def _frame_allocs(self):
        """(wrapped, plain) stack allocations of the running frame."""
        allocs = self.frames[-1]
        if allocs is None:
            allocs = self.frames[-1] = ([], [])
        return allocs

    def _log_access(self, iid, addr, size):
        a = self.mem.find(addr)
        if a is not None and a.site and addr >= a.payload:
            off = addr - a.payload
            self.trace.access_log.setdefault(iid, set()).add((a.site, off))

    # ---- dfl allocation -------------------------------------------------

    def _dfl_alloc(self, seg, key, size, cell):
        a = self.mem.alloc(seg, size + 32, skew=32, site=key)
        base = a.base
        tail = self._read(cell + 8, 8)
        self._write(base + 0, 8, 0)          # next
        self._write(base + 8, 8, tail)       # prev
        self._write(base + 16, 8, cell)      # head_ptr
        self._write(base + 24, 8, MAGIC)
        if tail:
            self._write(tail + 0, 8, base)
        else:
            self._write(cell + 0, 8, base)
        self._write(cell + 8, 8, base)
        if seg == "s":
            self._frame_allocs()[0].append(a)
        return base + 32

    def _unlink(self, a: _Alloc):
        base = a.base
        nxt = self._read(base + 0, 8)
        prv = self._read(base + 8, 8)
        cell = self._read(base + 16, 8)
        if prv:
            self._write(prv + 0, 8, nxt)
        else:
            self._write(cell + 0, 8, nxt)
        if nxt:
            self._write(nxt + 8, 8, prv)
        else:
            self._write(cell + 8, 8, prv)

    def _dfl_free(self, p):
        if p == 0:
            return
        a = self.mem.find(p - 8)
        if a is not None and not a.live:
            raise AbortError("double_free", "0x%x" % p)
        magic = self._read(p - 8, 8)
        if magic == MAGIC:
            a = self.mem.find(p - 32)
            if a is None or a.base != p - 32:
                raise AbortError("bad_free", "0x%x" % p)
            self._unlink(a)
            self.mem.release(a)
        else:
            a = self.mem.find(p - 8)
            if a is None or a.base != p - 8 or a.seg != "h":
                raise AbortError("bad_free", "0x%x" % p)
            self.mem.release(a)

    # ---- dfl access wrappers -------------------------------------------

    def _instances(self, entry):
        """Yield payload base of each live instance, emitting walk events."""
        kind, ref = entry.site_ref()
        if kind == "g":
            base = self.global_addr.get(ref)
            if base is None:
                raise AbortError("trap", "metadata names unknown global @" + ref)
            yield base
            return
        cell = self.site_cells[entry.site]
        cur = self._read(cell + 0, 8)
        while cur:
            yield cur + 32
            cur = self._read(cur + 0, 8)

    def _ct_sweep(self, mid, rec, p, store=None):
        """Touch every window of the plan; the one holding p is the access.

        A load reads there and returns the value.  A store passes
        `store` = (value, iid, decoy flag of the value): it writes the
        value there, and marks every window written after reading it.
        """
        lam, size = rec.lam, rec.size
        result = 0
        matches = 0
        for entry in rec.entries:
            for payload in self._instances(entry):
                start = payload + entry.off
                end = start + entry.length
                nwin = -(-entry.length // lam)
                q = (p - start) % lam if p else 0
                self.trace.touches[mid] = self.trace.touches.get(mid, 0) + nwin
                for j in range(nwin):
                    s = start + j * lam
                    self._ev("r", s)
                    cur = s + q
                    if cur == p and p != 0 and p + size <= end:
                        result = self._hit(mid, rec, p, store)
                        matches += 1
                    if store is not None:
                        self._ev("w", s)
        if matches > 1:
            raise AbortError("dfl_overlap", "p matched %d times" % matches)
        if p != 0 and matches == 0:
            self.trace.violations.append(("miss", mid, p))
        return result

    def _ct_nat(self, mid, rec, p_sel, p_raw, store=None):
        """Touch the window of the raw pointer; out-of-range raw clamps to
        the portion start.  `store` as in `_ct_sweep`.

        A decoy execution (p_sel == 0) may carry any raw pointer, so the
        clamp is silent there.  A live access with a raw pointer outside
        the portion, or disagreeing with the selected one, is a striding
        plan bug and gets a violation record.
        """
        entry = rec.entries[0]
        kind, ref = entry.site_ref()
        if kind != "g":
            raise AbortError("trap", "natural stride entry must be global")
        start = self.global_addr[ref] + entry.off
        end = start + entry.length
        if not (start <= p_raw < end):
            if p_sel:
                self.trace.violations.append(("nat_range", rec.mid, p_raw))
            p_raw = start
        elif p_sel and p_sel != p_raw:
            self.trace.violations.append(("miss", rec.mid, p_sel))
        s = start + (p_raw - start) // rec.lam * rec.lam
        self.trace.touches[mid] = self.trace.touches.get(mid, 0) + 1
        self._ev("r", s)
        v = 0
        if p_sel == p_raw and p_sel != 0 and p_raw + rec.size <= end:
            v = self._hit(mid, rec, p_raw, store)
        if store is not None:
            self._ev("w", s)
        return v

    def _hit(self, mid, rec, p, store):
        """The real access of a wrapper, at p: a read, or a write of
        `store`'s value."""
        if store is None:
            v = self.mem.read(p, rec.size)
        else:
            v, iid, decoy_value = store
            if decoy_value:
                self.trace.decoy_violations.append(("ct_store", mid, iid))
            self.mem.write(p, rec.size, v)
        self._log_access(rec.access, p, rec.size)
        return v


def interpret(m: Module, inp: ExecInput, lam: int = 64,
              budget: int = DEFAULT_BUDGET, entry: str = "main") -> Trace:
    """Run the module once; aborts land in Trace.abort, never raise."""
    return Machine(m, lam=lam, budget=budget).run(inp, entry=entry)


def final_state(m: Module, inp: ExecInput, entry: str = "main",
                budget: int = DEFAULT_BUDGET, code: Code | None = None):
    """(trace, global payload bytes, live heap payloads in alloc order).

    Reserved bookkeeping globals (cfl.*/dfl.*) are excluded; wrapped heap
    objects are reported without their in-band headers so original and
    hardened modules are comparable.  `code` is m decoded by the caller's
    batch, as in `Machine`.
    """
    mach = Machine(m, lam=64, budget=budget, code=code)
    trace = mach.run(inp, entry=entry)
    gbytes = {}
    for name in m.globals:
        if is_reserved_name(name):
            continue
        gbytes[name] = bytes(mach.mem.allocs[mach.global_addr[name]].data)
    heaps = []
    for base in mach.mem.bases:
        a = mach.mem.allocs[base]
        if a.seg == "h" and a.live:
            heaps.append(bytes(a.data[a.payload - a.base:]))
    return trace, gbytes, heaps
