"""Spans around ctlin's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper wherever
a loaded `ctlin` module looks the name up (its own module and every
module that imported it by name), and `Machine.run` on the class, so
the program under test is not edited.  A span is (name, start, end,
parent, self time).  Counts that the functions return or leave in the
trace are attached where the work happens: clones, plans, linearized
branches and loops, interpreter steps, window events and touches.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> (module, public functions traced in it)
LAYERS = {
    "ir": ("ir", ("parse_module", "print_module", "validate")),
    "normalize": ("normalize", ("unify_exits", "normalize_regions",
                                "promote_indirect_calls")),
    "pta": ("pta", ("andersen_solve", "refine_field_sensitivity",
                    "resolve_indirect_targets", "aggressive_clone")),
    "taint": ("taint", ("taint_profile", "close_sensitivity",
                        "default_suite")),
    "dfl": ("dfl", ("build_metadata", "promote_stack_objects",
                    "interpose_allocations", "wrap_accesses",
                    "optimize_natural_striding")),
    "cfl": ("cfl", ("sanitize_div_rem", "linearize")),
    "verify": ("verify", ("verify_module", "check_pc_security",
                          "check_obliviousness", "check_equivalence",
                          "check_decoy_invariants")),
    "pipeline": ("pipeline", ("harden_module",)),
    "cli": ("cli", ("main",)),
}
CHECKS = ("check_pc_security", "check_obliviousness", "check_equivalence",
          "check_decoy_invariants")
# layers whose self time is static analysis and rewriting (no interpreter)
STATIC_LAYERS = ("ir", "normalize", "pta", "dfl", "cfl", "pipeline")


class Tracer:
    def __init__(self):
        self.names = []          # span name table; spans refer by index
        self._name_id = {}
        self.spans = []          # [name id, start, end, parent, self]
        self.stack = []          # [span index, child time]
        self.counts = {}
        self._distinct = {}      # verify_module span -> run keys
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, 0.0])
        self.stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        idx, child = self.stack.pop()
        sp = self.spans[idx]
        sp[2] = time.perf_counter()
        dur = sp[2] - sp[1]
        sp[4] = dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _enclosing(self, name):
        for idx, _ in reversed(self.stack):
            if self.names[self.spans[idx][0]] == name:
                return idx
        return None

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        tracer = self

        def wrapper(*a, **kw):
            tracer._open(name)
            try:
                out = fn(*a, **kw)
            finally:
                tracer._close()
            if on_return is not None:
                on_return(out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _on_return(self, fname):
        if fname == "aggressive_clone":
            return lambda out: self.count("pta.clones", len(out))
        if fname == "build_metadata":
            return lambda out: self.count("dfl.plans", out)
        if fname == "optimize_natural_striding":
            return lambda out: self.count("dfl.natural", out)
        if fname == "linearize":
            def lin(out):
                self.count("cfl.branches",
                           sum(s["branches"] for s in out.values()))
                self.count("cfl.loops", sum(s["loops"] for s in out.values()))
            return lin
        if fname in CHECKS:
            return lambda out: self.count(
                "verify.retries",
                sum("under-trained" in w for w in out.warnings))
        return None

    def install(self, ctlin_modules: dict):
        """Wrap every traced function in the given {short name: module}."""
        for layer, (mod_name, fnames) in LAYERS.items():
            mod = ctlin_modules[mod_name]
            for fname in fnames:
                orig = getattr(mod, fname)
                w = self._wrap("%s.%s" % (layer, fname), orig,
                               self._on_return(fname))
                for m in ctlin_modules.values():
                    for gname, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, gname, orig))
                            setattr(m, gname, w)
        interp, taint = ctlin_modules["interp"], ctlin_modules["taint"]
        machine, taint_machine = interp.Machine, taint.TaintMachine
        orig_run = machine.run
        tracer = self

        def run(mach, inp, entry="main"):
            profiling = isinstance(mach, taint_machine)
            tracer._open("taint.run" if profiling else "interp.run")
            try:
                tr = orig_run(mach, inp, entry)
            finally:
                tracer._close()
            if profiling:
                tracer.count("taint.runs")
                tracer.count("taint.steps", mach.steps)
                return tr
            tracer.count("interp.runs")
            tracer.count("interp.steps", mach.steps)
            tracer.count("interp.events", len(tr.events))
            tracer.count("interp.touches", sum(tr.touches.values()))
            for idx, _ in tracer.stack:
                nm = tracer.names[tracer.spans[idx][0]]
                if nm.startswith("verify.check_"):
                    tracer.count(nm + ".runs")
            vm = tracer._enclosing("verify.verify_module")
            if vm is not None:
                tracer.count("verify.runs")
                tracer._distinct.setdefault(vm, set()).add(
                    (id(mach.m), tuple(inp.public), tuple(inp.secrets)))
            return tr
        self._patches.append((machine, "run", orig_run))
        machine.run = run

    def uninstall(self):
        for obj, name, orig in reversed(self._patches):
            setattr(obj, name, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        out = {}
        for nid, _, _, _, st in self.spans:
            nm = self.names[nid]
            out[nm] = out.get(nm, 0.0) + st
        return out

    def total_times(self) -> dict:
        out = {}
        for nid, start, end, _, _ in self.spans:
            nm = self.names[nid]
            out[nm] = out.get(nm, 0.0) + (end - start)
        return out

    def calls(self) -> dict:
        out = {}
        for sp in self.spans:
            nm = self.names[sp[0]]
            out[nm] = out.get(nm, 0) + 1
        return out

    def distinct_runs(self) -> int:
        return sum(len(v) for v in self._distinct.values())

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "self"],
                       "spans": self.spans, "counts": self.counts}, f)


def per_layer(tr: Tracer, passes: int, traced_wall: float,
              overhead: float, instrs_original: int,
              instrs_hardened: int) -> dict:
    """Per-layer metrics, every time and count per pass of the workload.

    Shares divide self time by the traced wall time of a pass; the
    overhead is the traced pass minus the untraced one.
    """
    st, tot, calls, c = tr.self_times(), tr.total_times(), tr.calls(), \
        tr.counts
    out = {}

    def s(name):
        out[name + ".s"] = st.get(name, 0.0) / passes

    def n(key, value):
        out[key] = value / passes

    for layer, (_, fnames) in LAYERS.items():
        for fname in fnames:
            s("%s.%s" % (layer, fname))
    for name in ("normalize.normalize_regions", "pta.andersen_solve",
                 "taint.taint_profile"):
        n(name + ".calls", calls.get(name, 0))
    s("taint.run")
    s("interp.run")
    for key in ("pta.clones", "dfl.plans", "dfl.natural", "cfl.branches",
                "cfl.loops", "taint.runs", "taint.steps", "interp.runs",
                "interp.steps", "interp.events", "interp.touches",
                "verify.retries"):
        n(key, c.get(key, 0))
    for chk in CHECKS:
        n("verify.%s.runs" % chk, c.get("verify.%s.runs" % chk, 0))
    out["ir.instrs_original"] = instrs_original    # one of each job
    out["ir.instrs_hardened"] = instrs_hardened

    taint_t = tot.get("taint.run", 0.0)
    run_t = tot.get("interp.run", 0.0)
    out["taint.steps_per_s"] = c.get("taint.steps", 0) / taint_t \
        if taint_t else 0.0
    out["interp.steps_per_s"] = c.get("interp.steps", 0) / run_t \
        if run_t else 0.0
    out["interp.touches_per_s"] = c.get("interp.touches", 0) / run_t \
        if run_t else 0.0
    out["interp.touches_per_step"] = (c.get("interp.touches", 0)
                                      / c["interp.steps"]
                                      if c.get("interp.steps") else 0.0)
    vruns = c.get("verify.runs", 0)
    out["verify.distinct_run_frac"] = (tr.distinct_runs() / vruns
                                       if vruns else 0.0)
    wall = traced_wall / passes
    static = sum(v for k, v in st.items()
                 if k.split(".", 1)[0] in STATIC_LAYERS)
    out["share.static"] = static / passes / wall
    out["share.taint"] = sum(v for k, v in st.items()
                             if k.startswith("taint.")) / passes / wall
    out["share.interp"] = st.get("interp.run", 0.0) / passes / wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = overhead
    return out


def ctlin_modules() -> dict:
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("ctlin.") and mod is not None}
