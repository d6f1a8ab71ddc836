"""Every module of the package and the tests uses each name it imports,
every top-level function and class of the package is used in it, only
`transforms` imports `scipy.fft`, `scipy.linalg` is imported once,
inside a function of `assembly`, and the admissibility rule lives in
one place: only `problems.check_admissible` builds a
`NonlinearityDomainError`, and only `assembly.transformed_load` calls a
problem's reaction `.f`.  No module of the package tests the class of a
boundary kind with `isinstance`.  Every name of the package that the
benchmark under `perfbench/` reads exists.

No linter runs on this repository, so this is the check.
"""

import ast
import importlib
from pathlib import Path

from expfem.problems import BUILTIN_FACTORIES

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """Names a module imports but never reads, with their line numbers."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.partition(".")[0]
                    imported.append((name, node.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported if name not in used]


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for folder in ("src", "tests")
              for path in sorted((ROOT / folder).rglob("*.py"))
              for name, line in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


# perfbench's tracer wraps `quadrature.apply_matrix` (ROADMAP items 1 and
# 10): it stays until the tracer target and its metrics go with it
UNREFERENCED_ALLOWED = {"quadrature.apply_matrix"}


def _names_read(node):
    """Names a syntax tree reads, bare or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_top_level_definition_is_used_in_the_package():
    # a definition's use of its own name does not count
    statements = [(path.stem, stmt)
                  for path in sorted((ROOT / "src" / "expfem").glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_names_read(stmt) for _, stmt in statements]
    unused = [f"{module}.{stmt.name}"
              for i, (module, stmt) in enumerate(statements)
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and f"{module}.{stmt.name}" not in UNREFERENCED_ALLOWED
              and not any(stmt.name in names
                          for j, names in enumerate(reads) if j != i)]
    assert not unused, f"defined in src/expfem but used nowhere there: {unused}"


def _imports_of(module, node):
    """The import statements below a syntax tree node that import `module`
    or a submodule of it in any spelling."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            names = [f"{sub.module}.{alias.name}" for alias in sub.names]
            names.append(sub.module or "")
        else:
            continue
        if any(name == module or name.startswith(module + ".")
               for name in names):
            found.append(sub)
    return found


def _imports_scipy_fft(path):
    """Whether a module imports `scipy.fft` in any spelling."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return bool(_imports_of("scipy.fft", tree))


def test_only_transforms_imports_scipy_fft():
    package = ROOT / "src" / "expfem"
    assert _imports_scipy_fft(package / "transforms.py")
    others = [path.name for path in sorted(package.rglob("*.py"))
              if path.name != "transforms.py" and _imports_scipy_fft(path)]
    assert not others, f"modules that import scipy.fft: {others}"


def test_scipy_linalg_is_imported_only_inside_the_lifting():
    # scipy.linalg costs about 6 MiB of resident memory, which a run
    # without a Dirichlet lifting must not pay: no module imports it at
    # load time, and one function of `assembly` imports it when called
    at_load, in_functions = [], []
    for path in sorted((ROOT / "src" / "expfem").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inner = {id(node)
                 for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in _imports_of("scipy.linalg", func)}
        for node in _imports_of("scipy.linalg", tree):
            where = in_functions if id(node) in inner else at_load
            where.append(f"{path.name}:{node.lineno}")
    assert not at_load, f"module-level scipy.linalg imports: {at_load}"
    assert [name.partition(":")[0] for name in in_functions] == [
        "assembly.py"], f"function-level scipy.linalg imports: {in_functions}"


def _calling_functions(matches):
    """`module.function` of each call in the package whose callee
    `matches`, named by the innermost function around it."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child.func):
                found.append(f"{module}.{owner}")
            visit(child, module, owner)

    for path in sorted((ROOT / "src" / "expfem").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path.stem, "<module>")
    return found


def test_only_the_admissibility_check_builds_a_domain_error():
    def builds_the_error(func):
        return (isinstance(func, ast.Name)
                and func.id == "NonlinearityDomainError") or (
            isinstance(func, ast.Attribute)
            and func.attr == "NonlinearityDomainError")

    assert _calling_functions(builds_the_error) == [
        "problems.check_admissible"]


def test_only_the_load_evaluates_a_reaction():
    # so every state a reaction reads passes the load's admissibility check
    assert _calling_functions(
        lambda func: isinstance(func, ast.Attribute) and func.attr == "f"
    ) == ["assembly.transformed_load"]


BOUNDARY_KINDS = {"Dirichlet", "Periodic"}


def _kind_class_tests(path):
    """Line numbers of a module's `isinstance` calls whose class argument
    names a boundary kind, alone or in a tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and _names_read(node.args[1]) & BOUNDARY_KINDS]


def test_no_module_tests_the_class_of_a_boundary_kind():
    # the package reads a kind through its fields `ends`, `fourier` and
    # `trace`, so a new kind is one record in `mesh`
    found = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "expfem").glob("*.py"))
             for line in _kind_class_tests(path)]
    assert not found, f"isinstance on a boundary kind: {found}"


def test_names_the_benchmark_reads_exist():
    # perfbench wraps each `module.name` of its tracer's TARGETS, and its
    # rounds read each builtin problem's `periodic` and `energy_params`;
    # read from its source, so the check needs no perfbench import
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    (targets,) = [ast.literal_eval(stmt.value) for stmt in tree.body
                  if isinstance(stmt, ast.Assign)
                  and [getattr(t, "id", None) for t in stmt.targets]
                  == ["TARGETS"]]
    assert targets
    missing = []
    for target in targets:
        module, _, name = target.partition(".")
        if not hasattr(importlib.import_module(f"expfem.{module}"), name):
            missing.append(target)
    assert not missing, f"perfbench tracer targets not in expfem: {missing}"
    for name, factory in BUILTIN_FACTORIES.items():
        problem = factory()
        assert isinstance(problem.periodic, bool), name
        assert hasattr(problem, "energy_params"), name
