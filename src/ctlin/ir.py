"""Typed SSA intermediate representation: data model, parser, printer, validator.

The textual form is line oriented.  A module is a sequence of global
declarations, function definitions, and (for hardened modules) directive
lines that carry the hardening parameters and the per-access metadata
table, so that a hardened module round-trips through a file without any
side channel of information.  Each form is spelled once and read by both
the parser and the printer: an instruction's in the `SYNTAX` table, a
directive's in a table of key=value fields.

Instruction ids are assigned module-wide in lexical order at parse time.
Transforms that insert instructions draw fresh ids from the module
counter; `Module.renumber` restores lexical numbering before emission so
that parse(print(m)) reproduces the same ids.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from .cfg import build_cfg, dfs

# ---------------------------------------------------------------------------
# types

# array and aggregate types nest at most this deep; each level is a few
# frames of the recursive parser, printer and layout code
MAX_TYPE_DEPTH = 64


@dataclass(frozen=True)
class Type:
    kind: str  # int | addr | array | agg
    bits: int = 0
    elem: "Type | None" = None
    count: int = 0
    fields: tuple = ()  # tuple[(name, Type), ...]

    def __str__(self):
        if self.kind == "int":
            return "i%d" % self.bits
        if self.kind == "addr":
            return "addr"
        if self.kind == "array":
            return "[%d x %s]" % (self.count, self.elem)
        return "{%s}" % ", ".join("%s: %s" % (n, t) for n, t in self.fields)


I1 = Type("int", 1)
I8 = Type("int", 8)
I32 = Type("int", 32)
I64 = Type("int", 64)
ADDR = Type("addr")

_SCALARS = {"i1": I1, "i8": I8, "i32": I32, "i64": I64, "addr": ADDR}


def size_of(t: Type) -> int:
    """Byte size under the packed layout.  i1 occupies one byte."""
    if t.kind == "int":
        return max(1, t.bits // 8)
    if t.kind == "addr":
        return 8
    if t.kind == "array":
        return t.count * size_of(t.elem)
    return sum(size_of(ft) for _, ft in t.fields)


def field_offset(t: Type, index: int) -> int:
    off = 0
    for i, (_, ft) in enumerate(t.fields):
        if i == index:
            return off
        off += size_of(ft)
    raise IndexError(index)


def to_signed(v: int, bits: int) -> int:
    """The two's-complement reading of the low `bits` bits of v."""
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >= (1 << (bits - 1)) else v


def is_scalar(t: Type) -> bool:
    return t.kind in ("int", "addr")


def gep_steps(ty: Type, idxs):
    """Address arithmetic of `gep ty base, idxs...`: (steps, None), or
    (None, message) when the indices do not walk ty.

    The steps are in index order.  The first index and each array index
    give (index operand, element size); an aggregate index gives (None,
    byte offset of the field).
    """
    if not idxs:
        return [], None
    steps = [(idxs[0], size_of(ty))]
    cur = ty
    for k, idx in enumerate(idxs[1:], 1):
        if cur.kind == "array":
            cur = cur.elem
            steps.append((idx, size_of(cur)))
        elif cur.kind == "agg":
            if not isinstance(idx, Const):
                return None, "aggregate gep index must be constant"
            if not 0 <= idx.value < len(cur.fields):
                return None, "aggregate field index out of range"
            steps.append((None, field_offset(cur, idx.value)))
            cur = cur.fields[idx.value][1]
        else:
            return None, "gep index %d walks into scalar type" % k
    return steps, None


# ---------------------------------------------------------------------------
# operands

@dataclass(frozen=True)
class Reg:
    name: str

    def __str__(self):
        return "%" + self.name


@dataclass(frozen=True)
class Const:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Sym:
    """Reference to a global or a function, both spelled @name."""
    name: str

    def __str__(self):
        return "@" + self.name


Operand = Reg | Const | Sym

BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "div", "rem")
ICMP_PREDS = ("lt", "le", "eq", "ne", "gt", "ge")   # on signed readings
TERMINATORS = ("br", "condbr", "ret")
DFL_KINDS = ("load", "store")
DFL_HANDLERS = ("simple", "gather", "bulk")

# The text form of each instruction, after its opcode; the keys are the
# opcode set.  A leading "=" lets the instruction name a result
# (`%x = op ...`).  Fields: T type, P icmp predicate, A operand, N
# integer, L label, F @function, I phi incoming list `label: operand,
# ...`, S operand list `a, b, ...` (empty only before ")").  Any other
# character stands for itself.  The printer writes the form with its
# fields filled in; the parser reads it back, blanks optional.
SYNTAX = {
    **{op: "= T A, A" for op in BINOPS},
    "icmp": "= P A, A",
    "select": "= A, A, A",
    "phi": "= T [I]",
    "load": "= T, A",
    "store": "T A, A",
    "gep": "= T S",
    "alloca": "= T",
    "heapalloc": "= T",
    "heapfree": "A",
    "call": "= F(S)",
    "icall": "= A(S)",
    "secret": "= T N",
    "br": "L",
    "condbr": "A, L, L",
    "ret": "A",
}
# opcode -> (may name a result, fields and punctuation)
_FORMS = {op: (f.startswith("="), f.lstrip("= ")) for op, f in SYNTAX.items()}

# Reserved names used by the hardening passes and the runtime.  Calls to
# BUILTIN_FUNCS are interpreted directly; globals under RESERVED_PREFIXES
# are bookkeeping cells excluded from program-state comparisons.
BUILTIN_FUNCS = {
    "ct_select", "ct_load", "ct_store", "ct_load_nat", "ct_store_nat",
    "dfl_alloc_stack", "dfl_alloc_heap", "dfl_free", "trap",
}
RESERVED_PREFIXES = ("cfl.", "dfl.")


def is_reserved_name(name: str) -> bool:
    return name.startswith(RESERVED_PREFIXES)


@dataclass
class Instr:
    iid: int
    op: str
    name: str | None = None          # result register, if any
    ty: Type | None = None
    pred: str | None = None          # icmp predicate
    args: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    incoming: list = field(default_factory=list)  # phi: [(pred label, Operand)]
    callee: str | None = None        # direct call target

    def is_terminator(self) -> bool:
        return self.op in TERMINATORS


@dataclass
class Block:
    label: str
    instrs: list = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]

    def phis(self):
        return [i for i in self.instrs if i.op == "phi"]


@dataclass
class Param:
    name: str
    ty: Type
    secret: bool = False


@dataclass
class Function:
    name: str
    params: list
    ret_ty: Type
    blocks: dict = field(default_factory=dict)  # label -> Block, ordered

    @property
    def entry(self) -> Block:
        return next(iter(self.blocks.values()))

    def instructions(self):
        for b in self.blocks.values():
            yield from b.instrs


@dataclass
class Global:
    name: str
    ty: Type
    init: bytes | None = None


def site_token(kind: str, ref) -> str:
    """Allocation-site token: g:@name for a global, s:<iid> for an alloca,
    h:<iid> for a heapalloc; f:@name stands for a function's code."""
    return "%s:@%s" % (kind, ref) if kind in ("g", "f") \
        else "%s:%d" % (kind, ref)


def site_ref(token: str):
    """(kind, name or allocation iid) of a site token."""
    kind, ref = token.split(":", 1)
    return (kind, ref[1:]) if kind in ("g", "f") else (kind, int(ref))


@dataclass
class DflEntry:
    """One striding target of a wrapped access: a portion of one site."""
    site: str        # a site token: "g:@name" | "s:<iid>" | "h:<iid>"
    off: int
    length: int
    stride: int      # element stride inside the portion, descriptive
    # simple | gather | bulk: a cost-model label, read only by
    # dfl.plan_cost and pipeline.module_stats.  The interpreter sweeps
    # every window alike whatever it says; it stays because it is part
    # of the emitted bytes.
    handler: str

    def site_kind(self) -> str:
        return self.site[0]

    def site_ref(self):
        return site_ref(self.site)


@dataclass
class DflAccessMetadata:
    """Striding plan of one wrapped load or store, with lambda baked in."""
    mid: int
    access: int      # original access instruction id, informational
    kind: str        # load | store
    lam: int
    size: int        # access size in bytes
    ty: Type         # access value type
    natural: bool = False
    entries: list = field(default_factory=list)


@dataclass
class HardenInfo:
    scheme: int = 5
    lam: int = 64


@dataclass
class Module:
    globals: dict = field(default_factory=dict)
    funcs: dict = field(default_factory=dict)
    harden: HardenInfo | None = None
    dflmeta: dict = field(default_factory=dict)    # mid -> DflAccessMetadata
    takenmap: dict = field(default_factory=dict)   # fn -> {iid: taken iid}
    next_iid: int = 0

    def new_iid(self) -> int:
        i = self.next_iid
        self.next_iid += 1
        return i

    def instructions(self):
        for f in self.funcs.values():
            yield from f.instructions()

    def instr_index(self) -> dict:
        """Map iid -> (function, block, instruction), built in one pass.

        Stays valid while no instruction moves to another block.
        """
        return {i.iid: (f, b, i) for f in self.funcs.values()
                for b in f.blocks.values() for i in b.instrs}

    def site_types(self) -> dict:
        """Site token -> type of every global, alloca and heapalloc."""
        out = {site_token("g", g.name): g.ty for g in self.globals.values()}
        for ins in self.instructions():
            if ins.op in ("alloca", "heapalloc"):
                kind = "s" if ins.op == "alloca" else "h"
                out[site_token(kind, ins.iid)] = ins.ty
        return out

    def callees(self) -> dict:
        """Call graph: fn name -> names of module functions it calls
        directly (builtins and indirect calls are not edges)."""
        return {f.name: {i.callee for i in f.instructions()
                         if i.op == "call" and i.callee in self.funcs}
                for f in self.funcs.values()}

    def renumber(self) -> dict:
        """Reassign instruction ids in lexical order; returns old -> new.

        Everything that names an instruction follows: the takenmap, dfl
        metadata access ids, s:/h: site tokens, and the site argument of
        dfl_alloc_* calls (which carries the originating allocation id).
        """
        remap = {}
        n = 0
        for f in self.funcs.values():
            for b in f.blocks.values():
                for i in b.instrs:
                    remap[i.iid] = n
                    i.iid = n
                    n += 1
        self.next_iid = n
        self.takenmap = {
            fn: {remap.get(k, k): remap.get(v, v) for k, v in tm.items() if k in remap}
            for fn, tm in self.takenmap.items()
        }
        for f in self.funcs.values():
            for i in f.instructions():
                if i.op == "call" and i.callee in ("dfl_alloc_stack",
                                                   "dfl_alloc_heap"):
                    old = i.args[0].value
                    i.args[0] = Const(remap.get(old, old))
        for rec in self.dflmeta.values():
            rec.access = remap.get(rec.access, rec.access)
            for e in rec.entries:
                kind, old = e.site_ref()
                if kind in ("s", "h"):
                    e.site = site_token(kind, remap.get(old, old))
        return remap


# ---------------------------------------------------------------------------
# parsing

class ParseError(Exception):
    def __init__(self, msg, line, col):
        super().__init__("line %d col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_INT = re.compile(r"-?(?:0x[0-9a-fA-F]+|\d+)")
_HEX = re.compile(r"[0-9a-fA-F]*")
_SITE = re.compile(r"g:@%s|[sh]:\d+" % _NAME.pattern)
_LABEL = re.compile(r"\s*(%s)\s*:\s*$" % _NAME.pattern)
# One token: a name, with the % or @ before it if there is one, an
# integer, "->", or any other character but a blank.  Split on it, a
# line alternates blanks and tokens: blanks at even indices, tokens at
# odd ones, and the blanks after the last token at the end.
_TOKEN = re.compile(r"([%%@]?%s|%s|->|[^ \t])" % (_NAME.pattern,
                                                  _INT.pattern))
_NAME_START = frozenset(string.ascii_letters + "_")


class _Cursor:
    """One line, split into tokens once and read left to right.

    `parts` is the text from position `base` on, split by _TOKEN, with
    "" appended for the end of the line; the next token is parts[i].  A
    literal that ends inside a token (`global` of `globalx`, the `x` of
    `[4 xi8]`) or a pattern over several tokens (a site) is matched on
    the text itself, and reading goes on at the token that starts where
    the match ends, or else on the rest of the line split again.  Errors
    name the column of the next token, or of the end of the token just
    read when that token is refused.
    """

    __slots__ = ("text", "line", "base", "parts", "i", "operands")

    def __init__(self, text: str, line: int, operands=None):
        self.text = text
        self.line = line
        # token -> the operand it spells, shared by the lines of a module
        self.operands = {} if operands is None else operands
        self._split(0)

    def _split(self, pos: int):
        self.base = pos
        self.parts = _TOKEN.split(self.text[pos:])
        self.parts.append("")
        self.i = 1

    def _pos(self, k: int) -> int:
        """Text position of parts[k]; the text's length at the end."""
        return self.base + sum(map(len, self.parts[:k]))

    def _goto(self, pos: int):
        """Read on from text position pos."""
        parts, i = self.parts, self.i
        p = self._pos(i)
        while p < pos and i + 2 < len(parts):
            p += len(parts[i]) + len(parts[i + 1])
            i += 2
        if p == pos:
            self.i = i
        else:
            self._split(pos)

    def error(self, msg):
        raise ParseError(msg, self.line, self._pos(self.i) + 1)

    def refuse(self, msg):
        """Error on the token just read."""
        raise ParseError(msg, self.line, self._pos(self.i - 1) + 1)

    def end(self):
        if self.parts[self.i]:
            self.error("trailing tokens")

    def peek(self, s: str) -> bool:
        tok = self.parts[self.i]
        if tok == s:
            return True
        # the text goes on with tok, so it goes on with s only if one of
        # the two begins the other
        return tok != "" and (tok.startswith(s) or s.startswith(tok)) \
            and self.text.startswith(s, self._pos(self.i))

    def accept(self, s: str) -> bool:
        tok = self.parts[self.i]
        if tok == s:
            self.i += 2
            return True
        if tok[:1] != s[:1] or not self.peek(s):
            return False
        self._goto(self._pos(self.i) + len(s))
        return True

    def expect(self, s: str):
        if not self.accept(s):
            self.error("expected '%s'" % s)

    def key(self, key: str):
        """`key=`, with no blank before the '='."""
        parts, i = self.parts, self.i
        if parts[i] == key and parts[i + 2] == "=" and not parts[i + 1]:
            self.i = i + 4
        else:
            self.expect(key + "=")

    def token(self, rx, what: str) -> str:
        """A match of rx at the next token, which may span tokens."""
        m = rx.match(self.text, self._pos(self.i))
        if not m:
            self.error("expected %s" % what)
        self._goto(m.end())
        return m.group(0)

    def name(self, what="name") -> str:
        tok = self.parts[self.i]
        if tok[:1] not in _NAME_START:
            self.error("expected %s" % what)
        self.i += 2
        return tok

    def ref(self, sigil: str, what: str) -> str:
        """The name after a sigil, % or @."""
        tok = self.parts[self.i]
        if tok[:1] == sigil and len(tok) > 1:
            self.i += 2
            return tok[1:]
        self.expect(sigil)
        return self.name(what)

    def integer(self) -> int:
        tok = self.parts[self.i]
        # an integer token leads with a digit, or with '-' and a digit
        if not (tok[:1].isdecimal()
                or tok[:1] == "-" and tok[1:2].isdecimal()):
            self.error("expected integer")
        try:
            value = int(tok, 0)
        except ValueError:      # a leading zero: 007
            self.error("bad integer '%s'" % tok)
        self.i += 2
        return value

    def commas(self, read) -> list:
        """read() once, then again after each comma."""
        out = [read()]
        while self.accept(","):
            out.append(read())
        return out

    def keyed(self, what: str, read):
        """`name: value` as (name, read())."""
        key = self.name(what)
        self.expect(":")
        return key, read()

    def type_(self, depth: int = 0) -> Type:
        t = _SCALARS.get(self.parts[self.i])
        if t is not None:
            self.i += 2
            return t
        if depth == MAX_TYPE_DEPTH and self.parts[self.i] in ("[", "{"):
            self.error("type nested deeper than %d levels" % MAX_TYPE_DEPTH)
        if self.accept("["):
            count = self.integer()
            self.expect("x")
            elem = self.type_(depth + 1)
            self.expect("]")
            return Type("array", elem=elem, count=count)
        if self.accept("{"):
            fields = self.commas(lambda: self.keyed(
                "field name", lambda: self.type_(depth + 1)))
            self.expect("}")
            return Type("agg", fields=tuple(fields))
        self.refuse("unknown type '%s'" % self.name("type"))

    def operand(self) -> Operand:
        i = self.i
        tok = self.parts[i]
        o = self.operands.get(tok)
        if o is not None:
            self.i = i + 2
            return o
        if tok[:1] == "%":
            o = Reg(self.ref("%", "register"))
        elif tok[:1] == "@":
            o = Sym(self.ref("@", "symbol"))
        else:
            o = Const(self.integer())
        if self.i == i + 2:     # one token spelled it
            self.operands[tok] = o
        return o


def _parse_instr(cur: _Cursor, iid: int) -> Instr:
    name = None
    if cur.parts[cur.i][:1] == "%":
        name = cur.ref("%", "register")
        cur.expect("=")
    op = cur.name("opcode")
    form = _FORMS.get(op)
    if form is None:
        cur.refuse("unknown opcode '%s'" % op)
    named, tmpl = form
    if name is not None and not named:
        cur.refuse("%s names no result" % op)
    ins = Instr(iid, op, name=name)
    for ch in tmpl:
        if ch == "A":
            ins.args.append(cur.operand())
        elif ch == "T":
            ins.ty = cur.type_()
        elif ch == " ":
            continue
        elif ch == "L":
            ins.labels.append(cur.name("label"))
        elif ch == "N":
            ins.args.append(Const(cur.integer()))
        elif ch == "P":
            ins.pred = cur.name("predicate")
            if ins.pred not in ICMP_PREDS:
                cur.refuse("unknown icmp predicate '%s'" % ins.pred)
        elif ch == "F":
            ins.callee = cur.ref("@", "function")
        elif ch == "S":
            if not cur.peek(")"):
                ins.args += cur.commas(cur.operand)
        elif ch == "I":
            ins.incoming = cur.commas(lambda: cur.keyed("label", cur.operand))
        else:
            cur.expect(ch)
    cur.end()
    return ins


def _read_entries(cur: _Cursor) -> list:
    cur.expect("[")
    out = []
    while not cur.accept("]"):
        cur.expect("(")
        out.append(DflEntry(**_read_fields(cur, _ENTRY_FIELDS)))
        cur.expect(")")
        cur.accept(",")
    return out


# Directive lines are key=value fields in order, (key, attribute, reader)
# each: `harden`, and `dflmeta <mid>` with a list of (entry fields).
_HARDEN_FIELDS = (
    ("scheme", "scheme", _Cursor.integer),
    ("lambda", "lam", _Cursor.integer),
)
_META_FIELDS = (
    ("access", "access", _Cursor.integer),
    ("kind", "kind", _Cursor.name),
    ("lambda", "lam", _Cursor.integer),
    ("ty", "ty", _Cursor.type_),
    ("natural", "natural", lambda cur: bool(cur.integer())),
    ("entries", "entries", _read_entries),
)
_ENTRY_FIELDS = (
    ("site", "site", lambda cur: site_token(*site_ref(
        cur.token(_SITE, "site class g:, s: or h:")))),
    ("off", "off", _Cursor.integer),
    ("len", "length", _Cursor.integer),
    ("stride", "stride", _Cursor.integer),
    ("handler", "handler", _Cursor.name),
)


def _read_fields(cur: _Cursor, fields) -> dict:
    out = {}
    for key, attr, read in fields:
        cur.accept(",")
        cur.key(key)
        out[attr] = read(cur)
    return out


def _parse_dflmeta(cur: _Cursor) -> DflAccessMetadata:
    mid = cur.integer()
    kw = _read_fields(cur, _META_FIELDS)
    cur.end()
    return DflAccessMetadata(mid, size=size_of(kw["ty"]), **kw)


def _parse_global(m: Module, raw: str, lineno: int):
    # only the text before the '=' is split into tokens: the initializer
    # is one run of hex digits, up to 128 KiB of text for a 64 KiB table
    head, eq, init = raw.partition("=")
    cur = _Cursor(head, lineno)
    cur.expect("global")
    gname = cur.ref("@", "global name")
    cur.expect(":")
    ty = cur.type_()
    cur.end()
    data = None
    if eq:
        hexs = init.strip()
        # whole byte pairs; a repeated group here would make the
        # regex engine keep state per pair of a 64 KiB table
        err = None
        if not hexs or len(hexs) % 2 or not _HEX.fullmatch(hexs):
            err = "bad initializer bytes"
        elif len(hexs) // 2 > size_of(ty):
            err = "initializer longer than type size"
        if err:
            col = len(head) + len(init) - len(init.lstrip(" \t")) + 2
            raise ParseError(err, lineno, col)
        data = bytes.fromhex(hexs)
    if gname in m.globals:
        raise ParseError("duplicate global '@%s'" % gname, lineno,
                         len(raw) + 1)
    m.globals[gname] = Global(gname, ty, data)


def parse_module(text: str) -> Module:
    m = Module()
    fn = block = None       # the function being read and its last block
    operands = {}
    iid = 0
    lineno = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        k = line.find(";")
        raw = line[:k] if k >= 0 else line
        if not raw.strip():
            continue

        if fn is not None:
            # block label: name ':' at start of line, nothing else
            mlab = ":" in raw and _LABEL.match(raw)
            if mlab:
                lbl = mlab.group(1)
                if lbl in fn.blocks:
                    raise ParseError("duplicate label '%s'" % lbl, lineno,
                                     len(raw) - len(raw.lstrip(" \t")) + 1)
                block = fn.blocks[lbl] = Block(lbl)
                continue
            cur = _Cursor(raw, lineno, operands)
            if cur.accept("}"):
                cur.end()
                m.funcs[fn.name] = fn
                fn = None
                continue
            if block is None:
                cur.error("instruction before first label")
            block.instrs.append(_parse_instr(cur, iid))
            iid += 1
            continue

        if raw.lstrip(" \t").startswith("global"):
            _parse_global(m, raw, lineno)
            continue

        cur = _Cursor(raw, lineno)
        if cur.accept("harden"):
            m.harden = HardenInfo(**_read_fields(cur, _HARDEN_FIELDS))
            cur.end()
            continue

        if cur.accept("dflmeta"):
            rec = _parse_dflmeta(cur)
            m.dflmeta[rec.mid] = rec
            continue

        if cur.accept("takenmap"):
            tm = m.takenmap[cur.ref("@", "function")] = {}
            cur.expect("{")
            while not cur.accept("}"):
                a = cur.integer()
                cur.expect(":")
                tm[a] = cur.integer()
            cur.end()
            continue

        if not cur.accept("func"):
            cur.error("expected global, func, or directive")
        fname = cur.ref("@", "function name")
        cur.expect("(")
        params = []
        if not cur.peek(")"):
            while True:
                pname = cur.ref("%", "parameter")
                cur.expect(":")
                secret = bool(cur.accept("secret"))
                params.append(Param(pname, cur.type_(), secret))
                if not cur.accept(","):
                    break
        cur.expect(")")
        cur.expect("->")
        ret_ty = cur.type_()
        cur.expect("{")
        cur.end()
        if fname in m.funcs:
            raise ParseError("duplicate function '@%s'" % fname, lineno, 1)
        fn = Function(fname, params, ret_ty)
        block = None

    if fn is not None:
        raise ParseError("unterminated function '@%s'" % fn.name, lineno, 1)
    m.next_iid = iid
    return m


# ---------------------------------------------------------------------------
# printing

def _fmt_instr(ins: Instr) -> str:
    out = ["%%%s = " % ins.name if ins.name is not None else "", ins.op, " "]
    args, labels = iter(ins.args), iter(ins.labels)
    for ch in _FORMS[ins.op][1]:
        if ch == "T":
            out.append(str(ins.ty))
        elif ch in "AN":
            out.append(str(next(args)))
        elif ch == "L":
            out.append(next(labels))
        elif ch == "P":
            out.append(ins.pred)
        elif ch == "F":
            out.append("@" + ins.callee)
        elif ch == "S":
            out.append(", ".join(map(str, args)))
        elif ch == "I":
            out.append(", ".join("%s: %s" % e for e in ins.incoming))
        else:
            out.append(ch)
    return "".join(out)


def _fmt_fields(obj, fields, sep: str) -> str:
    return sep.join("%s=%s" % (key, _fmt_value(getattr(obj, attr)))
                    for key, attr, _ in fields)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, list):  # the entries of a record
        return "[%s]" % ", ".join(
            "(%s)" % _fmt_fields(e, _ENTRY_FIELDS, ", ") for e in v)
    return str(v)


def _fmt_meta(rec: DflAccessMetadata) -> str:
    return "dflmeta %d %s" % (rec.mid, _fmt_fields(rec, _META_FIELDS, " "))


def print_module(m: Module) -> str:
    out = []
    if m.harden is not None:
        out.append("harden " + _fmt_fields(m.harden, _HARDEN_FIELDS, " "))
    for g in m.globals.values():
        line = "global @%s : %s" % (g.name, g.ty)
        if g.init is not None and any(g.init):
            line += " = " + g.init.hex()
        out.append(line)
    for fn in m.funcs.values():
        ps = ", ".join(
            "%%%s: %s%s" % (p.name, "secret " if p.secret else "", p.ty)
            for p in fn.params
        )
        out.append("")
        out.append("func @%s(%s) -> %s {" % (fn.name, ps, fn.ret_ty))
        for b in fn.blocks.values():
            out.append("%s:" % b.label)
            for ins in b.instrs:
                out.append("  " + _fmt_instr(ins))
        out.append("}")
    for mid in sorted(m.dflmeta):
        out.append(_fmt_meta(m.dflmeta[mid]))
    for fname, tm in m.takenmap.items():
        body = " ".join("%d:%d" % (k, tm[k]) for k in sorted(tm))
        out.append("takenmap @%s { %s }" % (fname, body))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# validation

@dataclass
class Diagnostic:
    fn: str
    msg: str
    iid: int | None = None

    def __str__(self):
        where = "@%s" % self.fn
        if self.iid is not None:
            where += " #%d" % self.iid
        return "%s: %s" % (where, self.msg)


def reg_types(m: Module, fn: Function) -> dict:
    """Register name -> type, parameters included; None where the IR
    leaves a result untyped (an icall, a builtin without a type rule).

    Blocks are typed in reverse postorder from the entry, then the
    unreachable ones in listing order.  Every non-phi use is dominated
    by its def, so its operands are typed before it whatever order the
    blocks are listed in; phis carry their own type.
    """
    env = {p.name: p.ty for p in fn.params}
    if not fn.blocks:
        return env
    succs = {b.label: b.instrs[-1].labels if b.instrs else ()
             for b in fn.blocks.values()}
    order = [lbl for lbl in dfs(fn.entry.label, succs)[0]
             if lbl in fn.blocks]
    reached = set(order)
    order += [lbl for lbl in fn.blocks if lbl not in reached]
    for lbl in order:
        for ins in fn.blocks[lbl].instrs:
            if ins.name is not None:
                env[ins.name] = _result_type(m, ins, env)
    return env


def validate(m: Module) -> list:
    """Structural, SSA, and type diagnostics.  Empty list means well formed.

    Two passes over each function's instructions: one for structure,
    ids, definitions and symbols, and, once the structure holds, one
    for phi edges, dominance of uses and types.  Diagnostics come in a
    fixed order: duplicate ids, a `harden` scheme outside 1-5, lambdas
    below 1, unknown `dflmeta` kinds and handlers, takenmap functions
    the module lacks, then per function its structure, its definitions,
    phi edges, uses, types and takenmap entries (an instruction to the
    one defining its i1 guard), then unknown symbols.
    """
    dups, diags, unknown = [], [], []
    lams = [("dflmeta %d" % r.mid, r.lam) for r in m.dflmeta.values()]
    if m.harden is not None:
        lams.insert(0, ("harden", m.harden.lam))
        if not 1 <= m.harden.scheme <= 5:
            diags.append(Diagnostic("?", "harden scheme=%d is not a select "
                                    "scheme 1-5" % m.harden.scheme))
    diags += [Diagnostic("?", "%s lambda=%d is below 1" % (what, lam))
              for what, lam in lams if lam < 1]
    for r in m.dflmeta.values():
        named = [("kind", r.kind, DFL_KINDS)] + sorted(
            {("handler", e.handler, DFL_HANDLERS) for e in r.entries})
        diags += [Diagnostic("?", "dflmeta %d %s=%s is not one of %s"
                             % (r.mid, key, v, ", ".join(names)))
                  for key, v, names in named if v not in names]
    diags += [Diagnostic("?", "takenmap names unknown function @%s" % fn)
              for fn in m.takenmap if fn not in m.funcs]
    seen_iids = set()
    for fn in m.funcs.values():
        def err(msg, iid=None, _fn=fn):
            diags.append(Diagnostic(_fn.name, msg, iid))

        if not fn.blocks:
            err("function has no blocks")
            continue

        # structure, ids, definitions and symbols
        broken = False
        params = {p.name for p in fn.params}
        defs = {}        # register -> (block label, position of its def)
        redefined = []
        for b in fn.blocks.values():
            if not b.instrs:
                err("empty block '%s'" % b.label)
                broken = True
                continue
            mid, late, bad = [], [], []
            in_body = False
            last = len(b.instrs) - 1
            for k, ins in enumerate(b.instrs):
                iid = ins.iid
                if iid in seen_iids:
                    dups.append(Diagnostic(
                        "?", "duplicate instruction id %d" % iid, iid))
                seen_iids.add(iid)
                if k < last and ins.op in TERMINATORS:
                    mid.append(iid)
                if ins.op != "phi":
                    in_body = True
                elif in_body:
                    late.append(iid)
                for lbl in ins.labels:
                    if lbl not in fn.blocks:
                        bad.append((lbl, iid))
                if ins.name is not None:
                    if ins.name in params or ins.name in defs:
                        redefined.append((ins.name, iid))
                    defs[ins.name] = (b.label, k)
                ops = ins.args
                if ins.incoming:
                    ops = ops + [v for _, v in ins.incoming]
                for o in ops:
                    if type(o) is Sym and o.name not in m.globals \
                            and o.name not in m.funcs:
                        unknown.append(Diagnostic(
                            fn.name, "unknown symbol @%s" % o.name, iid))
                if ins.op == "call" and ins.callee not in m.funcs \
                        and ins.callee not in BUILTIN_FUNCS:
                    unknown.append(Diagnostic(
                        fn.name, "call to unknown @%s" % ins.callee, iid))
            for iid in mid:
                err("terminator in mid-block '%s'" % b.label, iid)
            if not b.terminator.is_terminator():
                err("block '%s' lacks terminator" % b.label)
                broken = True
            for iid in late:
                err("phi after non-phi in '%s'" % b.label, iid)
            for lbl, iid in bad:
                err("unknown label '%s'" % lbl, iid)
            broken = broken or bool(mid or late or bad)
        if broken:
            continue  # skip deeper checks on broken structure
        for name, iid in redefined:
            err("redefinition of %%%s" % name, iid)
        if redefined:
            continue

        # phi edges, dominance of uses, types
        types = reg_types(m, fn)
        graph = build_cfg(fn)
        phi_errs, use_errs, type_errs = [], [], []

        def type_err(msg, iid, _fn=fn):
            type_errs.append(Diagnostic(_fn.name, msg, iid))

        for b in fn.blocks.values():
            here = b.label
            for k, ins in enumerate(b.instrs):
                if ins.op == "phi":
                    preds = sorted(graph.preds[here])
                    labels = [lbl for lbl, _ in ins.incoming]
                    if sorted(labels) != preds:
                        phi_errs.append(Diagnostic(
                            fn.name, "phi edges %s do not match preds %s"
                            % (labels, preds), ins.iid))
                uses = [(a, None) for a in ins.args if type(a) is Reg]
                if ins.incoming:
                    uses += [(v, lbl) for lbl, v in ins.incoming
                             if type(v) is Reg]
                for reg, via in uses:
                    d = defs.get(reg.name)
                    if reg.name not in types:
                        msg = "use of undefined %%%s"
                    elif d is None:     # a parameter
                        continue
                    elif via is not None:
                        # phi use: def must dominate the end of the
                        # incoming block
                        msg = None if graph.dominates(d[0], via) else \
                            "use of %%%s not dominated by its def"
                    elif d[0] == here:
                        msg = None if d[1] < k else \
                            "use of %%%s not dominated by its def"
                    else:
                        msg = None if graph.dominates(d[0], here) else \
                            "use of %%%s not dominated by its def"
                    if msg:
                        use_errs.append(Diagnostic(
                            fn.name, msg % reg.name, ins.iid))
                _type_check(m, fn, ins, types, type_err)
        diags += phi_errs + use_errs + type_errs
        tm = m.takenmap.get(fn.name, {})
        names = {i.iid: i.name for i in fn.instructions()} if tm else {}
        for k, t in tm.items():
            if k not in names:
                err("takenmap entry %d:%d keys no instruction here" % (k, t))
            elif types.get(names.get(t)) != I1:
                err("takenmap entry %d:%d names no i1 guard here" % (k, t))
    return dups + diags + unknown


def _result_type(m: Module, ins: Instr, env) -> Type | None:
    op, callee = ins.op, ins.callee
    if op in BINOPS or op in ("phi", "load", "secret"):
        return ins.ty
    if op == "icmp":
        return I1
    if callee in m.funcs:
        return m.funcs[callee].ret_ty
    if op in ("gep", "alloca", "heapalloc") \
            or callee in ("dfl_alloc_stack", "dfl_alloc_heap"):
        return ADDR
    if callee in ("ct_load", "ct_load_nat"):
        mid = ins.args[-1]
        if isinstance(mid, Const) and mid.value in m.dflmeta:
            return m.dflmeta[mid.value].ty
    if op == "select" or callee == "ct_select":
        for a in ins.args[1:3]:
            t = _operand_type(m, a, env)
            if t is not None:
                return t
        return I64 if op == "select" else None
    return None


def _operand_type(m: Module, o: Operand, env) -> Type | None:
    if isinstance(o, Reg):
        return env.get(o.name)
    if isinstance(o, Sym):
        return ADDR
    return None  # constants are polymorphic over int widths and addr


def _type_check(m: Module, fn: Function, ins: Instr, env, err):
    """Type diagnostics of one instruction."""
    def want(o, t: Type | None, ins, what):
        if t is None:
            return
        got = _operand_type(m, o, env)
        if got is not None and got is not t and got != t:
            err("%s has type %s, expected %s" % (what, got, t), ins.iid)

    op = ins.op
    if op in BINOPS:
        if ins.ty.kind != "int":
            err("%s requires an integer type" % op, ins.iid)
        want(ins.args[0], ins.ty, ins, "lhs")
        want(ins.args[1], ins.ty, ins, "rhs")
    elif op == "icmp":
        ta = _operand_type(m, ins.args[0], env)
        tb = _operand_type(m, ins.args[1], env)
        if ta is not None and tb is not None and ta != tb:
            err("icmp operand types differ (%s vs %s)" % (ta, tb), ins.iid)
    elif op == "select":
        want(ins.args[0], I1, ins, "select condition")
        ta = _operand_type(m, ins.args[1], env)
        tb = _operand_type(m, ins.args[2], env)
        if ta is not None and tb is not None and ta != tb:
            err("select arms differ (%s vs %s)" % (ta, tb), ins.iid)
    elif op == "phi":
        for _, v in ins.incoming:
            want(v, ins.ty, ins, "phi incoming")
    elif op == "load":
        if not is_scalar(ins.ty):
            err("load of non-scalar type", ins.iid)
        want(ins.args[0], ADDR, ins, "load address")
    elif op == "store":
        if not is_scalar(ins.ty):
            err("store of non-scalar type", ins.iid)
        want(ins.args[0], ins.ty, ins, "stored value")
        want(ins.args[1], ADDR, ins, "store address")
    elif op == "gep":
        want(ins.args[0], ADDR, ins, "gep base")
        _, msg = gep_steps(ins.ty, ins.args[1:])
        if msg:
            err(msg, ins.iid)
    elif op == "heapfree":
        want(ins.args[0], ADDR, ins, "freed pointer")
    elif op == "condbr":
        want(ins.args[0], I1, ins, "branch condition")
    elif op == "ret":
        want(ins.args[0], fn.ret_ty, ins, "return value")
    elif op == "call" and ins.callee in m.funcs:
        callee = m.funcs[ins.callee]
        if len(ins.args) != len(callee.params):
            err("call passes %d args, @%s takes %d"
                % (len(ins.args), ins.callee, len(callee.params)), ins.iid)
        else:
            for a, p in zip(ins.args, callee.params):
                want(a, p.ty, ins, "argument %%%s" % p.name)
    elif op == "icall":
        want(ins.args[0], ADDR, ins, "icall target")
    elif op == "secret":
        if ins.ty.kind != "int":
            err("secret requires an integer type", ins.iid)
        if ins.args[0].value < 0:
            err("secret index %d is negative" % ins.args[0].value,
                ins.iid)
