import functools
import importlib.util
import os
import sys

import pytest

from ctlin.ir import parse_module
from ctlin.pipeline import PipelineConfig, harden_module

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

# one line per acceptance criterion, printed after the run
ACCEPTANCE = []


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name + ".ir")


def corpus_src(name: str) -> str:
    with open(corpus_path(name)) as f:
        return f.read()


def load(name: str):
    return parse_module(corpus_src(name))


# @f(n) recurses n deep and returns n
RECURSIVE = (
    "func @f(%n: i64) -> i64 {\n"
    "entry:\n  %z = icmp eq %n, 0\n  condbr %z, done, rec\n"
    "rec:\n  %m = sub i64 %n, 1\n  %r = call @f(%m)\n"
    "  %s = add i64 %r, 1\n  br done\n"
    "done:\n  %v = phi i64 [entry: 0, rec: %s]\n  ret %v\n}\n"
    "func @main(%n: i64) -> i64 {\n"
    "entry:\n  %r = call @f(%n)\n  ret %r\n}\n")


_harden_cache = {}


def hardened(name: str, **kw):
    """Harden a corpus program, memoized on (name, config)."""
    key = (name, tuple(sorted(kw.items())))
    if key not in _harden_cache:
        hm, rep = harden_module(load(name), PipelineConfig(**kw))
        _harden_cache[key] = (hm, rep)
    return _harden_cache[key]


@pytest.fixture
def corpus_names():
    return sorted(n[:-3] for n in os.listdir(CORPUS) if n.endswith(".ir"))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


@functools.cache
def scale_programs(seed: int) -> dict:
    """name -> text of the benchmark's `scale` programs at seed."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", (
        os.path.join(os.path.dirname(__file__), "..", "perfbench",
                     "workloads.py")))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads    # for its dataclass
    spec.loader.exec_module(workloads)
    return {j.name: j.text for j in workloads.scale_jobs(seed)}
