"""Command line front end: harden, verify, stats.

Exit codes are part of the contract: 0 success, 2 unusable input
(a module, suite, `--emit` or `--report` file that cannot be read as
UTF-8 or written, parse or validation, a missing entry point, a
`--budget` below 1, a malformed or empty suite or one with an input
shorter than the entry's public or secret inputs, verify flags under
which no check could show anything, a `--lambda` among them that is not
a multiple of the hardened quantum, a verify pair whose entry point is
missing or takes different inputs in the two modules), 3 hardening
pipeline failure, 4 verification found a difference.
Reports are JSON with sorted keys and carry no timestamps, so identical
work produces identical bytes.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .cfl import LinearizeError
from .dfl import DflError
from .interp import DEFAULT_BUDGET, SuiteError
from .ir import ParseError, parse_module, print_module, validate
from .normalize import NormalizeError
from .pipeline import (InputError, PipelineConfig, PipelineError,
                       harden_module, module_stats)
from .pta import CloneError
from .taint import ProfileError, input_shape
from .verify import SECRET_SPACE, quantum_fault, verify_module

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3
EXIT_VERIFY = 4

_STAGE_ERRORS = (PipelineError, NormalizeError, ProfileError, CloneError,
                 DflError, LinearizeError)


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print("error: cannot read %s: %s"
              % (path, getattr(e, "strerror", None) or e), file=sys.stderr)
        return None
    try:
        m = parse_module(text)
    except ParseError as e:
        print("%s: %s" % (path, e), file=sys.stderr)
        return None
    diags = validate(m)
    if diags:
        for d in diags:
            print("%s: %s" % (path, d), file=sys.stderr)
        return None
    return m


def _write(path: str | None, text: str) -> bool:
    """Write text to the file at path, or to stdout for no path; False
    once stderr says why it could not."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        print("error: cannot write %s: %s" % (path, e.strerror or e),
              file=sys.stderr)
        return False
    return True


def _unwritable(path: str) -> str | None:
    """Why no file can be written at path, or None.  It only looks, so
    nothing is created or truncated before the work that fills it."""
    d = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(d):
        return os.strerror(errno.ENOTDIR if os.path.exists(d)
                           else errno.ENOENT)
    if not os.access(path if os.path.exists(path) else d, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def _report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _common_flags(p):
    p.add_argument("--entry", default="main",
                   help="entry function name (default main)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="instruction budget per run (at least 1)")
    p.add_argument("--report", metavar="FILE",
                   help="write the JSON report here instead of stdout")


def cmd_harden(args) -> int:
    m = _load(args.input)
    if m is None:
        return EXIT_INPUT
    cfg = PipelineConfig(
        lam=args.lam, scheme=args.select_scheme, entry=args.entry,
        seed=args.seed, budget=args.budget, suite_path=args.suite,
        cloning=not args.skip_cloning,
        promotion=not args.skip_promotion,
        natural=not args.skip_natural_striding)
    try:
        m, rep = harden_module(m, cfg)
    except SuiteError as e:
        print("%s: %s" % (args.suite, e), file=sys.stderr)
        return EXIT_INPUT
    except InputError as e:
        print("%s: %s" % (args.input, e), file=sys.stderr)
        return EXIT_INPUT
    except _STAGE_ERRORS as e:
        print("hardening failed: %s" % e, file=sys.stderr)
        return EXIT_PIPELINE
    if not _write(args.emit if args.emit != "-" else None, print_module(m)) \
            or args.report and not _write(args.report, _report(rep)):
        return EXIT_INPUT
    return EXIT_OK


def _vacuous_flags(args, hard) -> str | None:
    """Why the verify flags cannot show anything on hardened module
    hard, or None."""
    for lv in args.lam or ():
        bad = quantum_fault(hard, lv)
        if bad:
            return "--lambda %d: %s" % (lv, bad)
    if args.pairs < 1:
        return "--pairs must be at least 1"
    if args.space < 2:
        return "--space must hold at least two secret values"
    return None


def _mismatch(args, orig, hard) -> str | None:
    """Why the pair cannot run on one input vector, or None."""
    for path, m in ((args.original, orig), (args.hardened, hard)):
        if args.entry not in m.funcs:
            return "%s: no entry function @%s" % (path, args.entry)
    (po, so), (ph, sh) = (input_shape(m, args.entry) for m in (orig, hard))
    if (po, so) != (ph, sh):
        return ("@%s takes %d public and %d secret inputs in %s, %d and %d "
                "in %s" % (args.entry, po, so, args.original, ph, sh,
                           args.hardened))
    return None


def cmd_verify(args) -> int:
    orig = _load(args.original)
    hard = _load(args.hardened)
    if orig is None or hard is None:
        return EXIT_INPUT
    bad = _vacuous_flags(args, hard) or _mismatch(args, orig, hard)
    if bad:
        print("error: %s" % bad, file=sys.stderr)
        return EXIT_INPUT
    verdicts = verify_module(orig, hard, entry=args.entry, lams=args.lam,
                             pairs=args.pairs, seed=args.seed,
                             space=args.space, budget=args.budget)
    for v in verdicts:
        print(v.line())
        for w in v.warnings:
            print("  warning: %s" % w)
    rep = {
        "passed": all(v.passed for v in verdicts),
        "checks": [{"check": v.check, "passed": v.passed,
                    "detail": v.detail, "warnings": v.warnings}
                   for v in verdicts],
    }
    if args.report and not _write(args.report, _report(rep)):
        return EXIT_INPUT
    return EXIT_OK if rep["passed"] else EXIT_VERIFY


def cmd_stats(args) -> int:
    m = _load(args.module)
    if m is None or not _write(args.report, _report(module_stats(m))):
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctlin",
        description="linearize control and data flow against "
                    "microarchitectural leaks, then verify by trace")
    sub = ap.add_subparsers(dest="cmd", required=True)

    h = sub.add_parser("harden", help="run the full pipeline on a module")
    h.add_argument("input")
    h.add_argument("--emit", metavar="FILE",
                   help="write the hardened module here (default stdout)")
    h.add_argument("--lambda", dest="lam", type=int, default=64,
                   choices=(1, 4, 64),
                   help="obliviousness quantum in bytes (default 64)")
    h.add_argument("--select-scheme", type=int, default=5,
                   choices=range(1, 6),
                   help="branchless select lowering (default 5)")
    h.add_argument("--suite", metavar="FILE",
                   help="profiling inputs, one per line; default generated")
    h.add_argument("--skip-cloning", action="store_true")
    h.add_argument("--skip-natural-striding", action="store_true")
    h.add_argument("--skip-promotion", action="store_true")
    _common_flags(h)
    h.set_defaults(fn=cmd_harden)

    v = sub.add_parser("verify", help="differential checks on a pair")
    v.add_argument("original")
    v.add_argument("hardened")
    v.add_argument("--lambda", dest="lam", type=int, action="append",
                   help="extra verification quantum; may repeat")
    v.add_argument("--pairs", type=int, default=100,
                   help="secret pairs when not exhaustive (default 100)")
    v.add_argument("--space", type=int, default=SECRET_SPACE,
                   help="secret value space (default 2^16)")
    _common_flags(v)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("stats", help="shape summary of a hardened module")
    s.add_argument("module")
    s.add_argument("--report", metavar="FILE", help="write the report here")
    s.set_defaults(fn=cmd_stats)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "budget", 1) < 1:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_INPUT
    # refuse an output file before the work whose result it would hold
    emit = getattr(args, "emit", None)
    for path in (emit if emit != "-" else None, args.report):
        if path and (why := _unwritable(path)):
            print("error: cannot write %s: %s" % (path, why), file=sys.stderr)
            return EXIT_INPUT
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
