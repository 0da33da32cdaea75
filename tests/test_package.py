import ast
import importlib
import inspect
import re
import runpy
from pathlib import Path

import curvelift
from curvelift import errors

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_all_exports_resolve():
    missing = [name for name in curvelift.__all__ if not hasattr(curvelift, name)]
    assert missing == []


def test_benchmark_entry_points_resolve():
    # perfbench wraps these names to trace a run; a renamed or deleted one
    # would only fail there, under --trace 1
    entry_points = runpy.run_path(str(SPANS))["ENTRY_POINTS"]
    assert entry_points
    for mod_name, attr, _ in entry_points:
        module = importlib.import_module(f"curvelift.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def test_benchmark_tracer_counts_the_lift():
    # the tracer reads a lift's level off its third positional argument and
    # its iterations off the log in its 3-tuple; a lift called or returning
    # otherwise would only fail under --trace 1
    from curvelift import certify, cli, implicitize_all
    tracer = runpy.run_path(str(SPANS))["Tracer"]()

    def one_curve():
        cf = cli.load_curve(ROOT / "corpus" / "paper-ex1.curve")
        return certify(implicitize_all(cli.branch_from_file(cf), verify=False))

    tracer.install()
    try:
        chain = tracer.wrap("bench.curve", one_curve)()
    finally:
        tracer.uninstall()
    assert chain.ok
    assert tracer.counts["implicitize.lift_iterations"] == sum(map(len, chain.logs))
    levels = [level for name, _, level, _ in tracer.level_spans
              if name == "implicitize.lift"]
    assert levels == list(range(1, chain.cd.s + 1))


def test_rmul_aliases_live_on_each_class():
    # perfbench patches every key of a class that holds the original
    # __mul__; an alias only on a shared base would go untraced
    from curvelift.algebra import BiPoly, UniPoly
    for cls in (UniPoly, BiPoly):
        assert vars(cls)["__rmul__"] is vars(cls)["__mul__"], cls.__name__


def test_every_error_class_is_raised():
    # an error class that no code in the package raises is dead API
    source = "\n".join(p.read_text()
                        for p in (ROOT / "src" / "curvelift").glob("*.py"))
    raised = set(re.findall(r"\braise\s+(\w+)\(", source))
    subclasses = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, errors.CurveLiftError)} - {"CurveLiftError"}
    assert subclasses and sorted(subclasses - raised) == []


# the re-verification API: the README promises that a --json document can be
# rebuilt and certified again, and no code in the package calls these two
REVERIFY_API = {"doc_rebuild", "chain_from_polynomials"}


def _top_level_statements() -> list:
    """(module, top-level statement, identifiers it uses) over the package
    modules but ``__init__``."""
    used = []
    for path in (ROOT / "src" / "curvelift").glob("*.py"):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            ids = {n.id if isinstance(n, ast.Name) else
                   n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(stmt)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            used.append((path.stem, stmt, ids))
    return used


def test_every_public_definition_is_used():
    # a public top-level def or class is dead API unless other package code
    # uses it or the benchmark traces it; __init__ re-exports do not count
    used = _top_level_statements()
    traced = {(mod, attr.split(".")[0])
              for mod, attr, _ in runpy.run_path(str(SPANS))["ENTRY_POINTS"]}
    dead = sorted(
        f"{mod}.{stmt.name}" for mod, stmt, _ in used
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in REVERIFY_API and (mod, stmt.name) not in traced
        and not any(stmt.name in ids for _, other, ids in used if other is not stmt))
    assert dead == []


def _bound_names(stmt) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name)]


def test_every_private_module_name_is_read():
    # a private top-level def, class or assigned name that no other
    # top-level statement of the package names is dead: a constant whose
    # gate was deleted, or a helper whose caller went
    used = _top_level_statements()
    unread = sorted(
        f"{mod}.{name}" for mod, stmt, _ in used for name in _bound_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in ids for _, other, ids in used if other is not stmt))
    assert unread == []


def test_no_assert_statements_in_package():
    # python -O strips assert statements; every check in the package must
    # raise instead, so that it still runs there
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "curvelift").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# the lift's arithmetic, with the packed BiPoly product that forms its f_i:
# the norm oracle and every certificate function must run none of it, so
# that they check f_i independently
LIFT_ARITHMETIC = {"pullback", "UniPoly", "PowerChain", "Residual", "_pack",
                   "_unpack", "_width", "_skewed_product", "_row_ranges",
                   "horner", "_ORDER_DIGITS"}
# (module, function) of each certificate computation but the valuation,
# which its own test scans
CERTIFICATE_FUNCTIONS = (
    ("implicitize", "certify"),
    ("parametrize", "valuation_table"),
    ("polygon", "polygon_desc"),
    ("polygon", "polygon_contains"),
    ("weierstrass", "is_weierstrass"),
)


def _lift_arithmetic(tree) -> list[str]:
    """Each name of the lift's arithmetic in tree, as 'line: name'."""
    return [f"{node.lineno}: {name}"
            for node in ast.walk(tree)
            for name in [node.id if isinstance(node, ast.Name) else
                         node.attr if isinstance(node, ast.Attribute) else
                         node.name if isinstance(node, ast.alias) else None]
            if name in LIFT_ARITHMETIC]


def _function(module: str, name: str):
    """The definition of ``name`` ('Class.method' for a method) in the
    package module ``module``."""
    body = ast.parse((ROOT / "src" / "curvelift" / f"{module}.py").read_text()).body
    for part in name.split("."):
        node = next(n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == part)
        body = node.body
    return node


def test_oracle_runs_none_of_the_lift_arithmetic():
    path = ROOT / "src" / "curvelift" / "oracle.py"
    assert _lift_arithmetic(ast.parse(path.read_text())) == []


def test_valuation_runs_none_of_the_lift_arithmetic():
    valuation = _function("parametrize", "Parametrization.valuation")
    assert _lift_arithmetic(valuation) == []
    # the scan sees the route it replaced: the order of the full pullback
    valuation.body = ast.parse("return self.pullback(f).order()").body
    assert _lift_arithmetic(valuation) == ["1: pullback"]


def test_certificates_run_none_of_the_lift_arithmetic():
    # each certificate is computed by code independent of the lift it checks
    found = {f"{module}.{name}": _lift_arithmetic(_function(module, name))
             for module, name in CERTIFICATE_FUNCTIONS}
    assert found == dict.fromkeys(found, [])


def test_readme_library_example_runs():
    # the README's Library block runs as written, and each expression it
    # shows evaluates to the value its comment states
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"\n## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    values = {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[source] = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                                  namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert "(= 38)" in block
    assert values["chain.table.row(2, 3).value"] == 38
    assert values["resultant_implicitize(truncation(branch, 2)) == chain.fs[1]"] is True
    assert values["chain.certificates[1].ok"] is True
