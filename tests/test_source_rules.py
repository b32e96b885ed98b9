"""Rules on the package source: checked on its syntax tree, and against
the private names the benchmark hooks."""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "machyper"


def test_no_assert_in_package():
    # invariants must raise under python -O, which strips assert statements
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_invert_parameter():
    # q -> 1/q, t -> 1/t is a function call (invert_qt, invert_coeffs),
    # never a flag that a caller sets and the callee undoes
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg == "invert":
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _load_bench_module(name):
    path = SRC.parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_perfbench_hooks_resolve():
    # the benchmark's counters hook some private names of the package; a
    # renamed one would leave its metric at zero without failing the run
    tracer = _load_bench_module("tracer")
    worker = _load_bench_module("worker")
    tr = tracer.Tracer()
    try:
        missing = tr.install(worker.trace_specs())
    finally:
        tr.uninstall()
    assert missing == []
