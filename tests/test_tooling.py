"""Checks over the source tree itself rather than over what it does."""

import ast
import importlib.util
import inspect
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ctlin")
SEARCHED = (SRC, os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench"))
# decoder handlers, looked up by name through getattr
DISPATCHED = ("_op_", "_bi_")


def _sources(*dirs):
    for d in dirs:
        for dirpath, _, files in os.walk(d):
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    with open(path) as fh:
                        yield path, ast.parse(fh.read(), path)


def _defined(tree):
    """Functions, classes and constants a module binds at top level, and
    the methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            yield node.target.id
        if isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body
                        if isinstance(f, ast.FunctionDef))


def _read(tree):
    """Identifiers a file reads: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_referenced():
    used = set()
    for _, tree in _sources(*SEARCHED):
        used.update(_read(tree))
    unused = sorted(
        "%s: %s" % (os.path.basename(path), name)
        for path, tree in _sources(SRC) for name in _defined(tree)
        if name not in used and not name.startswith(DISPATCHED)
        and not (name.startswith("__") and name.endswith("__")))
    assert unused == []


def test_traced_functions_exist():
    # perfbench/tracer.py wraps ctlin functions by name, so a rename
    # here would otherwise only show when a traced benchmark run breaks
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        "%s.%s" % (mod, f) for mod, fnames in tracer.LAYERS.values()
        for f in fnames
        if not callable(getattr(importlib.import_module("ctlin." + mod), f,
                                None))]
    assert missing == []


def test_traced_machine_run_exists():
    # tracer.install also wraps interp.Machine.run on the class, calling
    # it as run(mach, inp, entry), and tells profiling runs apart with
    # isinstance(mach, taint.TaintMachine)
    from ctlin import interp, taint
    assert callable(interp.Machine.run)
    assert list(inspect.signature(interp.Machine.run).parameters) == [
        "self", "inp", "entry"]
    assert issubclass(taint.TaintMachine, interp.Machine)
    assert "run" not in vars(taint.TaintMachine)


def _pair_ab():
    spec = importlib.util.spec_from_file_location(
        "pair_ab", os.path.join(ROOT, "tools", "pair_ab.py"))
    pair_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pair_ab)
    return pair_ab


def test_pair_ab_times_two_package_copies(capsys):
    # tools/pair_ab.py loads a checkout's src/ctlin under a package name
    # of its own; here both sides are this checkout (an A/A run)
    pair_ab = _pair_ab()
    for stage in ("taint_profile", "decode"):
        assert pair_ab.main([ROOT, ROOT, "--workload", "scale", "--seed",
                             "7", "--stage", stage, "--rounds", "2"]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["stage"] == stage and result["rounds"] == 2
        assert 0 <= result["b_faster_rounds"] <= 2
        assert result["a_median_s"] > 0 and result["b_median_s"] > 0
        assert 0 < result["ratio_q1"] <= result["ratio_median"] \
            <= result["ratio_q3"]
        if stage == "decode":
            assert result["same_bytes"] is True
            assert result["differing_jobs"] == []
        else:
            assert "same_bytes" not in result


def test_pair_ab_times_only_named_jobs(capsys):
    pair_ab = _pair_ab()
    assert pair_ab.main([ROOT, ROOT, "--workload", "corpus", "--stage",
                         "decode", "--rounds", "1", "--job", "two_context.l1",
                         "--job", "jit_trip.l64"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result["jobs"]) == ["jit_trip.l64", "two_context.l1"]
    with pytest.raises(SystemExit):
        pair_ab.main([ROOT, ROOT, "--workload", "corpus", "--job", "nope"])
    assert "no job nope in workload corpus" in capsys.readouterr().err


def test_pair_ab_compares_verdicts(capsys):
    pair_ab = _pair_ab()
    assert pair_ab.main([ROOT, ROOT, "--workload", "corpus", "--stage",
                         "verify", "--rounds", "1", "--job",
                         "two_context.l64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["same_bytes"] is True and result["same_verdicts"] is True
    assert result["differing_verdicts"] == []
    assert "A and B gave the same verdicts for 1 of 1 jobs" in lines
