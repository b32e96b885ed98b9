"""Rules on the package source: checked on its syntax tree, against the
private names the benchmark hooks, and against the way the benchmark times
each verification check."""

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


def test_cache_is_always_the_callers():
    # every function that reads the basis is handed its caller's cache; a
    # parameter `cache` with a default would let the library pick one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults):]
                with_default += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                                 if d is not None]
                found += [f"{path.name}:{node.lineno}"
                          for arg in with_default if arg.arg == "cache"]
    assert found == []


def test_environment_is_read_only_by_the_cli():
    # the library's inputs are its arguments; only cli.py turns the process
    # environment (MACHYPER_CACHE_DIR) into one
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(a.name in ("environ", "getenv") for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _receivers(tree):
    # the first parameter of a method (self, cls) is fixed by the call
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                first = (fn.args.posonlyargs + fn.args.args)[:1]
                if first and not any(isinstance(d, ast.Name)
                                     and d.id == "staticmethod"
                                     for d in fn.decorator_list):
                    out.add((id(fn), first[0].arg))
    return out


def test_every_parameter_is_read():
    # a parameter no code reads is an option without an effect; `x = x or
    # default` only rebinds it, so that alone does not count as a read
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        receivers = _receivers(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if x is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            rebinds = set()
            for stmt in body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        targets = {t.id for t in sub.targets
                                   if isinstance(t, ast.Name)}
                        rebinds.update(id(v) for v in ast.walk(sub.value)
                                       if isinstance(v, ast.Name)
                                       and v.id in targets)
            reads = {sub.id for stmt in body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name)
                     and isinstance(sub.ctx, ast.Load) and id(sub) not in rebinds}
            found.extend(f"{path.name}:{node.lineno} {name}({p})"
                         for p in params
                         if p not in reads and (id(node), p) not in receivers)
    assert found == []


def test_suite_reports_come_from_the_checks(monkeypatch, cache):
    # the benchmark times each report by wrapping every module-level check_*
    # of verify (perfbench/workloads.py, VerifySuite.batch) and requires the
    # reports of run_suite to be exactly what the wrappers returned: so
    # run_suite must look the checks up when it calls them, and a check_*
    # must return a TheoremReport
    import machyper.verify as verify
    returned = []

    def wrap(fn):
        def call(*args, **kwargs):
            report = fn(*args, **kwargs)
            returned.append(report)
            return report
        return call

    names = [name for name, fn in vars(verify).items()
             if name.startswith("check_") and getattr(
                 fn, "__wrapped__", fn).__module__ == verify.__name__]
    assert names
    for name in names:
        monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    reports = verify.run_suite("all", n=2, D=1, draws=1, cache=cache)
    assert [id(r) for r in reports] == [id(r) for r in returned]
    assert all(isinstance(r, verify.TheoremReport) for r in returned)
    assert {r.theorem for r in reports} == set(verify.SUITE_ORDER)


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


def test_perfbench_operator_counters_see_the_work(cache):
    # the benchmark counts operator applications on the public entry points
    # (qops.apply_*, series.eigen_ops_*, BiSymPoly.apply_x); the transfers
    # and residuals must reach the work through them, or a counter reads
    # zero while the work runs.  A transfer applies its compiled word sum
    # (qops.apply_compiled), which holds the commutator and eigen-family
    # words, so those two families are counted where they are applied as
    # level lists
    import machyper.qops as qops
    import machyper.series as series
    import machyper.verify as verify
    from machyper.ratfunc import Q
    from machyper.sympoly import basis_poly
    tracer = _load_bench_module("tracer")
    worker = _load_bench_module("worker")
    tr = tracer.Tracer()
    try:
        tr.install(worker.trace_specs())
        verify.run_suite("all", n=2, D=1, draws=1, cache=cache)
        for name in ("qops.apply_calls", "sympoly.apply_x_calls"):
            assert tr.counts[name] > 0, name
        before = tr.counts["qops.apply_calls"]
        gs = qops.to_scaled(basis_poly("m", (1,), 2))
        series.transfer_lower([Q])(gs)
        assert tr.counts["qops.apply_calls"] > before
        qops.apply_ad_raise_upto(1, gs)
        series.eigen_ops_raise(1, gs)
    finally:
        tr.uninstall()
    for name in ("qops.ad_calls", "series.eigen_ops_calls"):
        assert tr.counts[name] > 0, name


def _scopes_naming(path, name):
    """(line, scope) of every reference to name in the module at path, by
    a Name or an Attribute; the scope is the module-level function, class
    or method that holds it ("" at module level), and a nested function
    or lambda counts as part of the function that holds it."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.append((child.lineno, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and (not scope or in_class):
                visit(child, f"{scope}.{child.name}".lstrip("."),
                      isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_class)

    visit(ast.parse(path.read_text(), filename=str(path)), "", False)
    return found


# the one function that may turn a scaled image into a value: the adapter
# of qops
UNSCALE_SCOPES = {"qops.on_values"}


def test_values_leave_the_operator_layer_at_one_boundary():
    # unscale is named only inside the listed functions; everywhere else an
    # operator maps scaled images
    found = [f"{path.name}:{line} {scope}"
             for path in sorted(SRC.glob("*.py"))
             for line, scope in _scopes_naming(path, "unscale")
             if f"{path.stem}.{scope}" not in UNSCALE_SCOPES]
    assert found == []


# the functions of verify that may add scaled images: the Kaneko oracle,
# which sums single operator kinds into its images and weights those by
# its scalars, and its comparison with B.  B and C are one compiled
# transfer sum each, never a combine of two transfers
COMBINE_SCOPES = {"_factored_images", "_factored_second_order", "_matches_B"}


def test_verify_combines_only_in_the_kaneko_oracle():
    found = [f"verify.py:{line} {scope}"
             for line, scope in _scopes_naming(SRC / "verify.py", "combine")
             if scope not in COMBINE_SCOPES]
    assert found == []


# the functions of verify that may clear a value: the kernel check, for
# the rendering with an injected term, and the Kaneko oracle's store, for
# a monomial.  A series keeps the cleared image of each of its renderings,
# and every other check reads that
TO_SCALED_SCOPES = {"check_diagonal_match", "_factored_monomial"}


def test_verify_clears_only_what_no_series_keeps():
    found = [f"verify.py:{line} {scope}"
             for line, scope in _scopes_naming(SRC / "verify.py", "to_scaled")
             if scope not in TO_SCALED_SCOPES]
    assert found == []


# where a rational number may enter or leave the field layer; everything
# else in ratfunc computes over Z
RATIONAL_SCOPES = {
    "_poly_text_term", "_ratio", "_cleared",
    "RatFuncQT.num", "RatFuncQT.__eq__", "RatFuncQT.as_fraction",
    "substitute",
}


def test_field_layer_computes_over_the_integers():
    # Fraction, .numerator, .denominator and the operator / appear only at
    # module level and in the functions that convert at the boundary; a
    # nested function counts as part of the function that holds it
    path = SRC / "ratfunc.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == "Fraction"
                    or isinstance(child, ast.Attribute)
                    and child.attr in ("numerator", "denominator")
                    or isinstance(child, ast.BinOp)
                    and isinstance(child.op, ast.Div)):
                if scope and scope not in RATIONAL_SCOPES:
                    found.append(f"ratfunc.py:{child.lineno} {scope}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and (not scope or in_class):
                visit(child, f"{scope}.{child.name}".lstrip("."),
                      isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_class)

    visit(tree, "", False)
    assert found == []


# the field operations whose cancellation is trial division over the base
# of denominator factors, and the refinement of that base: the only code
# in ratfunc that may run a bivariate gcd.  _CoprimeBase.factor, the memo
# of factorizations, is outside the refinement and reaches it only on a
# miss, through _screen
GCD_FREE = ("RatFuncQT.__mul__", "RatFuncQT.__add__", "over_common_denominator")
REFINEMENT = {"_CoprimeBase._screen", "_CoprimeBase.split_common",
              "_CoprimeBase._split"}
GCD_NAMES = {"_pgcd", "_bv_gcd"}


def test_field_operations_reach_no_gcd():
    # a static call graph of ratfunc: each module-level function or method
    # calls every function or method whose name it mentions (a method by
    # its attribute name).  Only the refinement and the gcd itself mention
    # a gcd, and no path from the field operations reaches one except
    # through the refinement
    path = SRC / "ratfunc.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))
    by_name = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[-1], set()).add(qual)

    def mentions(node):
        return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})

    names = {qual: mentions(node) for qual, node in defs.items()}
    assert {qual for qual, used in names.items() if used & GCD_NAMES} <= REFINEMENT | {"_pgcd"}
    assert set(GCD_FREE) <= set(defs) and REFINEMENT <= set(defs)
    seen, stack = set(), list(GCD_FREE)
    while stack:
        qual = stack.pop()
        if qual in seen or qual in REFINEMENT:
            continue
        seen.add(qual)
        stack.extend(c for name in names[qual] for c in by_name.get(name, ()))
    reached = {c for qual in seen for name in names[qual] for c in by_name.get(name, ())}
    assert {"_CoprimeBase.split_common", "_CoprimeBase._screen"} <= reached
    # the memo path is walked, and it enters the refinement only by _screen
    assert {"_CoprimeBase.factor", "_CoprimeBase.translate"} <= seen
    assert {c for name in names["_CoprimeBase.factor"]
            for c in by_name.get(name, ())} & REFINEMENT == {"_CoprimeBase._screen"}
    assert not seen & GCD_NAMES


# standard-library names that Python 3.11 or later added; pyproject.toml
# declares requires-python >= 3.10, so the package imports none of them
NEWER_THAN_310 = {
    "tomllib": None,
    "typing": {"Self", "LiteralString", "Never", "NotRequired", "Required",
               "TypeVarTuple", "Unpack", "assert_never", "assert_type",
               "reveal_type", "dataclass_transform", "get_overloads",
               "clear_overloads", "override", "TypeAliasType"},
    "enum": {"StrEnum", "ReprEnum", "verify", "EnumCheck", "FlagBoundary"},
    "datetime": {"UTC"},
}


def test_source_runs_on_python_310():
    # the syntax must parse at 3.10 and the imports must exist there
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path),
                         feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name in NEWER_THAN_310
                          and NEWER_THAN_310[a.name] is None]
            elif isinstance(node, ast.ImportFrom) and node.module:
                newer = NEWER_THAN_310.get(node.module, ())
                found += [f"{path.name}:{node.lineno} {node.module}.{a.name}"
                          for a in node.names
                          if newer is None or a.name in newer]
    assert found == []
