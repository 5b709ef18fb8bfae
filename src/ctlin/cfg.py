"""Control-flow graph, dominators, postdominators, reducibility.

Dominators use the iterative dataflow scheme over a reverse postorder;
postdominators run the same solver on the reversed graph with a virtual
exit joining every ret (or otherwise successor-less) block.  Dominance
queries read pre/post numbers of the dominator tree, numbered on the
first query, so each one is O(1).  Postdominators and reducibility are
worked out on first use, so a caller that only asks about dominance
(the validator) pays for neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CFG:
    entry: str
    succs: dict = field(default_factory=dict)
    preds: dict = field(default_factory=dict)
    idom: dict = field(default_factory=dict)      # block -> immediate dominator
    rpo: list = field(default_factory=list)
    retreating: list = field(default_factory=list)  # dfs retreating edges
    _span: dict | None = field(default=None, repr=False, compare=False)
    _ipdom: dict | None = field(default=None, repr=False, compare=False)

    @property
    def reducible(self) -> bool:
        """Every retreating edge targets a dominator of its source."""
        return all(self.dominates(s, n) for n, s in self.retreating)

    @property
    def ipdom(self) -> dict:
        """block -> immediate postdominator, None below the exit."""
        if self._ipdom is None:
            self._ipdom = _ipdoms(self)
        return self._ipdom

    def dominates(self, a: str, b: str) -> bool:
        if a == b:
            return True
        if self._span is None:
            self._span = _tree_numbers(self.rpo, self.idom)
        sa, sb = self._span.get(a), self._span.get(b)
        return sa is not None and sb is not None \
            and sa[0] < sb[0] and sb[1] < sa[1]


def _tree_numbers(nodes: list, parent: dict) -> dict:
    """node -> (preorder, postorder) number in the tree of parent links
    over nodes, whose first node is the root."""
    kids = {n: [] for n in nodes}
    for n in nodes[1:]:
        kids[parent[n]].append(n)
    out = {}
    clock = 0
    stack = [(nodes[0], clock, iter(kids[nodes[0]]))]
    while stack:
        n, pre, it = stack[-1]
        clock += 1
        for c in it:
            stack.append((c, clock, iter(kids[c])))
            break
        else:
            stack.pop()
            out[n] = (pre, clock)
    return out


def dfs(entry: str, succs: dict):
    """Depth-first walk from entry, without recursion.

    Returns (reverse postorder, retreating edges): an edge n -> s
    retreats when s is still on the walk's stack as n lists it.
    Successors are visited in list order.
    """
    order = []
    retreating = []
    active = {entry: True}      # node -> still on the stack
    stack = [(entry, iter(succs.get(entry, ())))]
    while stack:
        n, it = stack[-1]
        for s in it:
            if s not in active:
                active[s] = True
                stack.append((s, iter(succs.get(s, ()))))
                break
            if active[s]:
                retreating.append((n, s))
        else:
            stack.pop()
            active[n] = False
            order.append(n)
    order.reverse()
    return order, retreating


def reachable(edges: dict, roots) -> set:
    """Nodes reached from roots over one or more edges (node -> targets).

    A root is in the result only when a cycle leads back to it.
    """
    out = set()
    work = list(roots)
    while work:
        for s in edges.get(work.pop(), ()):
            if s not in out:
                out.add(s)
                work.append(s)
    return out


def _idoms(entry: str, nodes: list, preds: dict) -> dict:
    """Cooper/Harvey/Kennedy iterative immediate dominators."""
    index = {n: i for i, n in enumerate(nodes)}
    idom = {entry: entry}

    def intersect(a, b):
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for n in nodes[1:]:
            ps = [p for p in preds.get(n, []) if p in idom]
            if not ps:
                continue
            new = ps[0]
            for p in ps[1:]:
                new = intersect(new, p)
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    out = {n: (None if n == entry else idom.get(n)) for n in nodes}
    return out


def build_cfg(fn) -> CFG:
    succs = {}
    preds = {b: [] for b in fn.blocks}
    for b in fn.blocks.values():
        t = b.terminator
        targets = list(dict.fromkeys(t.labels)) if t.labels else []
        succs[b.label] = list(t.labels)
        for s in targets:
            preds[s].append(b.label)

    entry = fn.entry.label
    g = CFG(entry=entry, succs=succs, preds=preds)
    g.rpo, g.retreating = dfs(entry, succs)
    g.idom = _idoms(entry, g.rpo, preds)
    return g


def _ipdoms(g: CFG) -> dict:
    """Run the dominator solver on the reversed graph, rooted at a
    virtual exit that joins every successor-less block."""
    live = set(g.rpo)
    succs, preds = g.succs, g.preds
    exits = [b for b in g.rpo if not succs.get(b)]
    vexit = "__exit__"
    rev_succs = {vexit: list(exits)}
    for n in live:
        rev_succs[n] = [p for p in preds[n] if p in live]
    rev_preds = {n: [s for s in succs.get(n, []) if s in live] for n in live}
    for e in exits:
        rev_preds[e] = rev_preds.get(e, []) + [vexit]
    rev_preds[vexit] = []
    order, _ = dfs(vexit, rev_succs)
    ip = _idoms(vexit, order, rev_preds)
    return {n: (None if ip.get(n) in (vexit, None) else ip[n]) for n in live}


def back_edges(fn, g: CFG) -> list:
    """(latch, header) pairs of the blocks reached from the entry: the
    retreating edges whose target dominates their source, which on a
    reducible graph are all of them."""
    return sorted({(n, s) for n, s in g.retreating if g.dominates(s, n)})


def natural_loop(g: CFG, latch: str, header: str) -> set:
    body = {header, latch}
    work = [latch]
    while work:
        n = work.pop()
        if n == header:
            continue
        for p in g.preds.get(n, []):
            if p not in body:
                body.add(p)
                work.append(p)
    return body
