"""End-to-end hardening pipeline, one module in, one module out.

Stage order matters and is fixed here rather than left to callers:
indirect calls become direct before regions are shaped, profiling and
closure decide what is sensitive, cloning splits calling contexts and
the profile's facts follow each call path onto its clone, striding
plans are built and accesses wrapped while loads and stores still look
like loads and stores, wrapped accesses with a public address keep
their own stride, division is rewritten while branches still exist,
and control flow merges last.  After the closure every pass reads the
sensitive set, not the raw profile.  Instruction ids are renumbered at
the end so emitted modules are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cfl, dfl, pta
from .cfg import reachable
from .interp import DEFAULT_BUDGET, SuiteError, parse_suite
from .ir import RESERVED_PREFIXES, Module, is_reserved_name, validate
from .normalize import normalize_regions, promote_indirect_calls, unify_exits
from .taint import (close_sensitivity, default_suite, input_shape,
                    taint_profile, translate_report)


class PipelineError(Exception):
    pass


class InputError(ValueError):
    """A module the pipeline cannot take: its entry point is missing, or
    it uses a name reserved for the hardening passes."""


@dataclass
class PipelineConfig:
    lam: int = 64
    scheme: int = 5
    entry: str = "main"
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    suite_path: str | None = None
    cloning: bool = True
    promotion: bool = True
    natural: bool = True


def _suite(m: Module, cfg: PipelineConfig) -> list:
    if cfg.suite_path:
        try:
            with open(cfg.suite_path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise SuiteError("cannot read suite: %s" % e) from None
        suite = parse_suite(text)
        if not suite:
            raise SuiteError("suite holds no inputs")
        npub, nsec = input_shape(m, cfg.entry)
        for k, inp in enumerate(suite, 1):
            if len(inp.public) < npub or len(inp.secrets) < nsec:
                raise SuiteError("input %d is short: @%s takes %d public "
                                 "and %d secret values"
                                 % (k, cfg.entry, npub, nsec))
        return suite
    return default_suite(m, cfg.entry, seed=cfg.seed)


def _sensitive_functions(m: Module, ss) -> set:
    fns = {rid[0] for rid in ss.regions} | set(ss.functions)
    where = m.instr_index()
    for iid in set(ss.accesses) | set(ss.divrem):
        loc = where.get(iid)
        if loc is not None:
            fns.add(loc[0].name)
    return fns


def _clone_scope(m: Module, fns: set) -> set:
    """Sensitive functions plus everything that calls into them.

    Context separation happens by duplicating callees under a root, so
    the root must sit above the function holding the sensitive access:
    a leaf with two callers only splits once the caller is in scope.
    """
    callers = {}
    for f, cs in m.callees().items():
        for c in cs:
            callers.setdefault(c, set()).add(f)
    return set(fns) | reachable(callers, fns)


def _reserved_use(m: Module) -> str | None:
    """The first function, global, register or label of m named under
    cfl./dfl., which the passes would take for one of their own."""
    uses = [(g, "global @" + g) for g in m.globals]
    for fn in m.funcs.values():
        uses.append((fn.name, "function @" + fn.name))
        regs = [p.name for p in fn.params]
        regs += [i.name for i in fn.instructions() if i.name is not None]
        uses += [(r, "register %%%s in @%s" % (r, fn.name)) for r in regs]
        uses += [(b, "label %s in @%s" % (b, fn.name)) for b in fn.blocks]
    return next((where for name, where in uses if is_reserved_name(name)),
                None)


def harden_module(m: Module, cfg: PipelineConfig | None = None):
    """Run every stage on m in place; returns (m, stage report dict)."""
    cfg = cfg or PipelineConfig()
    if cfg.entry not in m.funcs:
        raise InputError("no entry function @%s" % cfg.entry)
    if bad := _reserved_use(m):
        raise InputError("%s: the prefixes %s are reserved for hardening"
                         % (bad, " and ".join(RESERVED_PREFIXES)))
    rep = {}
    # read first, so a bad suite file stops harden before any stage
    suite = _suite(m, cfg)

    unify_exits(m)
    pt = pta.andersen_solve(m)
    targets = pta.resolve_indirect_targets(m, pt)
    rep["icalls_promoted"] = len(targets)
    if targets:
        promote_indirect_calls(m, targets)
    rt = normalize_regions(m)

    report = taint_profile(m, suite, rt, entry=cfg.entry, budget=cfg.budget)
    ss = close_sensitivity(m, report, rt)

    rep["cloned"] = 0
    if cfg.cloning:
        cmap = pta.aggressive_clone(m, _clone_scope(m, _sensitive_functions(m, ss)))
        rep["cloned"] = len(cmap)
        if cmap:
            # clones carry fresh instruction ids and names; each calling
            # context of the profile moves its facts onto the function
            # it now runs in, and the closure is taken again over them
            rt = normalize_regions(m)
            report = translate_report(report, m, cmap.copies)
            ss = close_sensitivity(m, report, rt)

    rep["sensitive_regions"] = len(ss.regions)
    rep["sensitive_functions"] = len(ss.functions)

    pt = pta.refine_field_sensitivity(m, pta.andersen_solve(m))
    pt = pta.refine_index_ranges(m, pt, ss.accesses)
    rep["plans"] = dfl.build_metadata(m, ss.accesses, pt, cfg.lam)
    rep["promoted"] = dfl.promote_stack_objects(m) if cfg.promotion else 0
    rep["interposed"] = dfl.interpose_allocations(m)
    rep["wrapped"] = dfl.wrap_accesses(m)
    rep["natural"] = (dfl.optimize_natural_striding(m, ss)
                      if cfg.natural else 0)
    rep["div_rewritten"] = cfl.sanitize_div_rem(m, ss)

    stats = cfl.linearize(m, ss, rt, scheme=cfg.scheme, lam=cfg.lam)
    rep["branches_linearized"] = sum(s["branches"] for s in stats.values())
    rep["loops_linearized"] = sum(s["loops"] for s in stats.values())
    rep["blocks_merged"] = sum(s["merged"] for s in stats.values())

    m.renumber()
    diags = validate(m)
    if diags:
        raise PipelineError("hardened module fails validation: %s"
                            % "; ".join(str(d) for d in diags))
    return m, rep


def module_stats(m: Module) -> dict:
    """Shape summary of a hardened module for reports."""
    plans = sorted(m.dflmeta.values(), key=lambda r: r.mid)
    portions = [len(r.entries) for r in plans]
    handlers = {}
    for r in plans:
        for e in r.entries:
            handlers[e.handler] = handlers.get(e.handler, 0) + 1
    out = {
        "functions": len(m.funcs),
        "blocks": sum(len(fn.blocks) for fn in m.funcs.values()),
        "globals": len(m.globals),
        "instructions": sum(1 for _ in m.instructions()),
        "plans": len(plans),
        "natural_plans": sum(1 for r in plans if r.natural),
        "portions_mean": (round(sum(portions) / len(portions), 4)
                          if portions else 0.0),
        "handlers": handlers,
        "plan_cost": round(sum(dfl.plan_cost(r) for r in plans), 4),
        "taken_tracked": sum(len(v) for v in m.takenmap.values()),
        "bound_cells": sum(1 for n in m.globals
                           if n.startswith(cfl.BOUND_CELL)),
    }
    if m.harden:
        out["scheme"] = m.harden.scheme
        out["lambda"] = m.harden.lam
    return out
