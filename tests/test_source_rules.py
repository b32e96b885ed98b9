"""Rules on the package source, checked on its syntax tree."""

import ast
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
