"""Golden digests of emitted bytes, execution traces and taint reports.

`tests/data/engine_golden.json` holds, for every corpus program at
lambda 1, 4 and 64, SHA-256 digests of:

- `bytes`: `print_module` of the hardened module at select schemes 1-5;
- `traces`: everything a `Trace` carries plus `Machine.steps`, for the
  first 16 inputs of the verify grid, on the original and the hardened
  module, with decoy shadow tracking off and on;
- `taint`: every `TaintReport` the pipeline's profiling produced: the
  profile, then, for a program that cloning split, the profile carried
  over to the clones (recorded when that was a second profile);
- `verdicts`: the `Verdict.line()` text and warnings of
  `verify_module(original, hardened, pairs=8)`, the lines `ctlin
  verify` prints.

The `bytes`, `traces` and `taint` digests were recorded with the
per-step interpreter, before the decoded engine replaced it; the
`verdicts` digests with the decoded engine, before the call graph and
CFG walk were merged.  They are the behaviour contract of the
engine: a mismatch is a behaviour change to find and explain, never a
reason to regenerate the file.  Regenerate only for a change that means
to alter emitted bytes or traces, and say why in its description:
`python tests/test_engine_golden.py --write` re-records every key, and
`--write KEY [KEY ...]` only the keys named; each prints, per key, which
digests changed.

Re-recorded since: `bytes` and `traces` of covering_loop, exp_loop_pair
and jit_trip at every lambda, when linearized loops began exiting at
max(bound, trips) with the count written back, in place of growing the
bound by one per extra trip.  Their `taint` and `verdicts` digests did
not move.  Then `bytes` and `traces` of covering_loop,
fn_table_dispatch, nested_branches, store_sweep and table_lookup at
every lambda, when linearized regions became straight-line code (each
block whose only predecessor ends in `br` to it folded into that
predecessor) and each taken predicate one instruction, none for an
empty else arm.  Their `taint` and `verdicts` digests did not move.
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from conftest import CORPUS, load  # noqa: E402
from ctlin import pipeline  # noqa: E402
from ctlin.interp import (Code, DecoyDecoder, ExecInput,  # noqa: E402
                          Machine)
from ctlin.ir import print_module  # noqa: E402
from ctlin.pipeline import PipelineConfig, harden_module  # noqa: E402
from ctlin.verify import (public_batch, secret_batch,  # noqa: E402
                          verify_module)

GOLDEN = os.path.join(HERE, "data", "engine_golden.json")
LAMS = (1, 4, 64)
SCHEMES = (1, 2, 3, 4, 5)
GRID_INPUTS = 16
FIELDS = ("bytes", "traces", "taint", "verdicts")


def _names():
    return sorted(n[:-3] for n in os.listdir(CORPUS) if n.endswith(".ir"))


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _sorted_sets(d: dict) -> list:
    return sorted([k, sorted(v)] for k, v in d.items())


def _trace_record(mach, tr) -> list:
    return [tr.instrs, tr.events, tr.lam, tr.output, tr.abort,
            sorted(tr.touches.items()), _sorted_sets(tr.access_log),
            tr.violations, tr.decoy_violations, mach.steps]


def _grid(m) -> list:
    out = []
    for pub in public_batch(m):
        for sv in secret_batch(m):
            out.append(ExecInput(list(pub), list(sv)))
            if len(out) == GRID_INPUTS:
                return out
    return out


def _taint_record(report) -> list:
    return [sorted(report.branches), sorted(report.loops),
            sorted(report.reads), sorted(report.writes),
            sorted(report.addr_tainted), sorted(report.divrem),
            sorted(report.loop_bounds.items())]


def digests(name: str, lam: int) -> dict:
    reports = []
    orig_profile = pipeline.taint_profile
    orig_translate = pipeline.translate_report

    def recording(fn):
        def rec(*a, **kw):
            rep = fn(*a, **kw)
            reports.append(_taint_record(rep))
            return rep
        return rec

    pipeline.taint_profile = recording(orig_profile)
    pipeline.translate_report = recording(orig_translate)
    try:
        texts = []
        hard = None
        for scheme in SCHEMES:
            hm, _ = harden_module(load(name),
                                  PipelineConfig(lam=lam, scheme=scheme))
            texts.append(print_module(hm))
            if scheme == 5:
                hard = hm
    finally:
        pipeline.taint_profile = orig_profile
        pipeline.translate_report = orig_translate

    orig = load(name)
    runs = []
    for m in (orig, hard):
        for decoy in (False, True):
            code = Code(m, DecoyDecoder() if decoy else None)
            for inp in _grid(hard):
                mach = Machine(m, lam=lam, code=code)
                tr = mach.run(inp)
                runs.append(_trace_record(mach, tr))
    verdicts = [[v.line(), v.warnings]
                for v in verify_module(orig, hard, pairs=8)]
    return {"bytes": _sha(texts), "traces": _sha(runs),
            "taint": _sha(reports), "verdicts": _sha(verdicts)}


def _keys():
    return ["%s.l%d" % (n, lam) for n in _names() for lam in LAMS]


def _load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("key", _keys())
def test_engine_golden(key):
    name, lam = key.rsplit(".l", 1)
    assert digests(name, int(lam)) == _load_golden()[key]


def test_golden_covers_corpus():
    assert sorted(_load_golden()) == sorted(_keys())


def write(keys=None) -> list:
    """Re-record the digests of keys, every key when None, and return a
    line per key naming the digests that changed."""
    bad = sorted(set(keys or ()) - set(_keys()))
    if bad:
        raise ValueError("no golden key %s" % ", ".join(bad))
    old = _load_golden() if os.path.exists(GOLDEN) else {}
    out = {} if keys is None else dict(old)
    lines = []
    for key in keys or _keys():
        name, lam = key.rsplit(".l", 1)
        out[key] = digests(name, int(lam))
        moved = [f for f in FIELDS if old.get(key, {}).get(f) != out[key][f]]
        lines.append("%s: %s" % (key, ", ".join(moved) or "unchanged"))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return lines


def test_write_rerecords_only_named_keys(tmp_path, monkeypatch):
    golden = _load_golden()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setitem(globals(), "GOLDEN", str(path))
    monkeypatch.setitem(globals(), "digests", lambda name, lam: dict(
        golden["%s.l%d" % (name, lam)], traces="moved"))
    assert write(["jit_trip.l4"]) == ["jit_trip.l4: traces"]
    assert json.loads(path.read_text()) == dict(
        golden, **{"jit_trip.l4": dict(golden["jit_trip.l4"],
                                       traces="moved")})
    assert write(["jit_trip.l4"]) == ["jit_trip.l4: unchanged"]
    with pytest.raises(ValueError, match="no golden key nope.l4"):
        write(["nope.l4"])


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_engine_golden.py --write [KEY ...]")
    try:
        print("\n".join(write(sys.argv[2:] or None)))
    except ValueError as e:
        sys.exit(str(e))
