"""Golden taint reports of the programs with many calls and loops.

`tests/data/taint_golden.json` holds, for the benchmark's four `scale`
programs at seeds 7 and 11 and for `test_variants.py`'s `call_paths`
and `LOOP_RECURSION`, the profile `harden_module` takes
(`taint_profile` on the default suite, before cloning):

- `facts`: the union report, every fact set sorted, and its loop
  bounds;
- `contexts`: the calling-context tree in creation order, one row per
  node: the parent's index (-1 at the root), the call site, the
  function, and the node's own facts as in `facts`.

`tests/data/engine_golden.json` pins the corpus reports by digest; these
programs are where calls, recursion and loop trip counts meet.  The file
was recorded with per-frame dicts of loop trips and latch taints; it is
the behaviour contract of the profiler, never regenerated to make a
change pass.  Regenerate (`python tests/test_taint_golden.py --write`)
only for a change that means to alter what profiling finds, and say why.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from conftest import scale_programs  # noqa: E402
from ctlin import pipeline  # noqa: E402
from ctlin.ir import parse_module  # noqa: E402
from ctlin.pipeline import harden_module  # noqa: E402
from test_variants import EXTRA, LOOP_RECURSION  # noqa: E402

GOLDEN = os.path.join(HERE, "data", "taint_golden.json")
SEEDS = (7, 11)
FACTS = ("branches", "loops", "reads", "writes", "addr_tainted", "divrem")


def _programs() -> dict:
    out = {"call_paths": EXTRA["call_paths"],
           "loop_recursion": LOOP_RECURSION}
    for seed in SEEDS:
        for name, text in scale_programs(seed).items():
            out["scale%d.%s" % (seed, name)] = text
    return out


class _Profiled(Exception):
    pass


def _facts(rep) -> dict:
    out = {f: sorted(map(list, s) if f == "loops" else s)
           for f in FACTS for s in [getattr(rep, f)]}
    out["loop_bounds"] = sorted([list(k), n]
                                for k, n in rep.loop_bounds.items())
    return out


def record(text: str) -> dict:
    """The profile harden_module takes of text, as stored in the file."""
    real = pipeline.taint_profile
    got = []

    def profile(*a, **kw):
        got.append(real(*a, **kw))
        raise _Profiled      # the later stages are not under test

    pipeline.taint_profile = profile
    try:
        harden_module(parse_module(text))
    except _Profiled:
        pass
    finally:
        pipeline.taint_profile = real
    rep, = got
    index = {id(c): i for i, c in enumerate(rep.contexts)}
    return {"facts": _facts(rep),
            "contexts": [[index[id(c.parent)] if c.parent else -1, c.site,
                          c.fn, _facts(c.report)] for c in rep.contexts]}


def _load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(_programs()))
def test_taint_report_as_recorded(name):
    assert record(_programs()[name]) == _load_golden()[name]


def test_golden_covers_programs():
    assert sorted(_load_golden()) == sorted(_programs())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_taint_golden.py --write")
    out = {name: record(text) for name, text in sorted(_programs().items())}
    with open(GOLDEN, "w") as f:
        json.dump(out, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
