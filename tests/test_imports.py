"""Every module of the package and the tests uses each name it imports,
every top-level function and class of the package is used in it, the
package imports nothing but the standard library, numpy, `scipy.fft`
and itself, only `transforms` imports `scipy.fft`, and the
admissibility rule lives in one place: only `problems.check_admissible`
builds a `NonlinearityDomainError`, and only `assembly.transformed_load`
calls a problem's reaction `.f`.  Only `stepper.run` builds the modal
operator.  Every annotated field of a class of the package is read
somewhere in it, and no module imports a private function or class of
another.  No module of the package tests the class of a boundary kind
with `isinstance`.  An FFT call of the package that may overwrite its
input (`overwrite_x`) gets a name that its own function last bound,
above the call, to an array it built.  Every name of the package that
the benchmark under `perfbench/` reads exists, and takes each keyword
argument the benchmark passes it.

No linter runs on this repository, so this is the check.
"""

import ast
import importlib
import inspect
import sys
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


# the package's dependencies: numpy and, of scipy, `scipy.fft` alone
# (loading scipy.linalg would cost a run about 6 MiB of resident memory)
ALLOWED_IMPORTS = ("numpy", "scipy.fft", "expfem")


def _disallowed_imports(path):
    """Each module a file imports, `from` imports as `module.name`, that is
    neither in the standard library nor under `ALLOWED_IMPORTS`, with its
    line number; relative imports are the package's own."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names
                  and not any(name == allowed or name.startswith(allowed + ".")
                              for allowed in ALLOWED_IMPORTS)]
    return found


def test_the_package_imports_only_the_stdlib_numpy_and_scipy_fft():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted((ROOT / "src" / "expfem").rglob("*.py"))
             for name, line in _disallowed_imports(path)]
    assert not found, "imports outside the package's dependencies:\n" + (
        "\n".join(found))


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


def test_only_the_run_set_up_builds_an_operator():
    # the steps read the weights alone, so the modal rate tensor lives
    # through `run`'s set-up and no longer; the loads read the 1D spectra
    # of `transforms.axis_spectrum`
    assert _calling_functions(
        lambda func: _names_read(func) & {"build_operator"}
    ) == ["stepper.run"]


def _package_trees():
    """Each module of the package by name, as a syntax tree."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"),
                                 filename=str(path))
            for path in sorted((ROOT / "src" / "expfem").glob("*.py"))}


def test_every_field_of_a_class_is_read_in_the_package():
    # a field that nothing reads is a record its builders fill for no one
    trees = _package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls.name}.{stmt.target.id}"
              for module, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, f"class fields read nowhere in src/expfem: {unread}"


def test_no_module_imports_a_private_function_or_class_of_another():
    # a private name is its module's own; what other modules need is
    # public, constants included
    trees = _package_trees()
    defined = {module: _module_level_names(tree)
               for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            source = (node.module if node.level == 1
                      else node.module.removeprefix("expfem."))
            found += [f"{module}.py:{node.lineno}: {source}.{alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_")
                      and alias.name in defined.get(source, ())]
    assert not found, "private names imported:\n" + "\n".join(found)


def _module_level_names(tree):
    """The functions, classes and constants a module defines at its top
    level."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names |= {node.id for target in targets
                      for node in ast.walk(target)
                      if isinstance(node, ast.Name)}
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a module's or function's body, less the functions and
    lambdas defined in it and their nodes."""
    stack = [node for node in scope.body if not isinstance(node, FUNCTIONS)]
    while stack:
        node = stack.pop()
        yield node
        stack += [child for child in ast.iter_child_nodes(node)
                  if not isinstance(child, FUNCTIONS)]


def _builds_an_array(node):
    """Whether an expression is a call `np.array(...)` or `np.empty(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in ("array", "empty"))


def _is_an_fft(node):
    """Whether an expression is a call `scipy.fft.<name>(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "scipy"
            and node.func.value.attr == "fft")


def _bindings(nodes):
    """(position, name, value) of each binding of a name among the nodes.
    An assignment to the bare name binds its value once the statement
    ends; any other binding (a loop, `with` or tuple target) binds at the
    name, to a value the lint cannot read (None)."""
    assigned = {}
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            assigned |= {id(target): ((node.end_lineno, node.end_col_offset),
                                      node.value)
                         for target in targets if isinstance(target, ast.Name)}
    found = []
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            where, value = assigned.get(
                id(node), ((node.lineno, node.col_offset), None))
            found.append((where, node.id, value))
    return found


def _holds_a_built_array(arg, bindings):
    """Whether arg is a name whose latest binding above it is
    `np.array(...)`, `np.empty(...)` or an FFT of such a name."""
    if not isinstance(arg, ast.Name):
        return False
    above = [(where, value) for where, name, value in bindings
             if name == arg.id and where <= (arg.lineno, arg.col_offset)]
    if not above:
        return False
    value = max(above, key=lambda binding: binding[0])[1]
    return _builds_an_array(value) or (
        _is_an_fft(value) and bool(value.args)
        and _holds_a_built_array(value.args[0], bindings))


def _overwrites_of_foreign_arrays(path):
    """Line numbers of a module's calls that pass `overwrite_x` other than
    False whose first argument is not a local name that the same function
    (or module body) last bound, above the call, to an array it built:
    `np.array(...)`, `np.empty(...)` or an FFT of such a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
    found = []
    for scope in scopes:
        nodes = list(_own_nodes(scope))
        bindings = _bindings(nodes)
        found += [node.lineno for node in nodes if isinstance(node, ast.Call)
                  and any(kw.arg == "overwrite_x"
                          and not (isinstance(kw.value, ast.Constant)
                                   and kw.value.value is False)
                          for kw in node.keywords)
                  and not (node.args
                           and _holds_a_built_array(node.args[0], bindings))]
    return found


def test_fft_overwrites_only_an_array_its_function_built():
    # an FFT that may overwrite its input gets a copy that no caller
    # holds, so no caller's array is ever written
    found = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "expfem").glob("*.py"))
             for line in _overwrites_of_foreign_arrays(path)]
    assert not found, f"overwrite_x on an array the caller may hold: {found}"


def test_overwrite_lint_reads_the_latest_binding(tmp_path):
    # a name once bound to a built array, then rebound to the caller's,
    # is the caller's at the call; an FFT of a built array is built
    module = tmp_path / "rebound.py"
    module.write_text(
        "import numpy as np\n"
        "import scipy.fft\n"
        "\n"
        "\n"
        "def rebound(x):\n"
        "    out = np.array(x)\n"
        "    out = x\n"
        "    return scipy.fft.ifftn(out, overwrite_x=True)\n"
        "\n"
        "\n"
        "def chained(x):\n"
        "    out = np.array(x, dtype=complex)\n"
        "    out = scipy.fft.ifftn(out, overwrite_x=True)\n"
        "    return scipy.fft.irfft(out, overwrite_x=True)\n",
        encoding="utf-8")
    assert _overwrites_of_foreign_arrays(module) == [8]


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


def _benchmark_reads(path):
    """Each `expfem` module attribute a benchmark file reads, as
    `module.name`, with the keyword arguments of its calls there.  The
    file reaches the package as `import expfem.m as name`, `from
    expfem.m import name` or `expfem.m.name` after `import expfem.m`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, names = {}, {}  # local name: module, local name: module.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname: alias.name.removeprefix("expfem.")
                        for alias in node.names
                        if alias.asname and alias.name.startswith("expfem.")}
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("expfem.")):
            module = node.module.removeprefix("expfem.")
            names |= {alias.asname or alias.name: f"{module}.{alias.name}"
                      for alias in node.names}

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if not isinstance(expr, ast.Attribute):
            return None
        owner = expr.value
        if isinstance(owner, ast.Name) and owner.id in modules:
            return f"{modules[owner.id]}.{expr.attr}"
        if (isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "expfem"):
            return f"{owner.attr}.{expr.attr}"
        return None

    reads = {target: set() for target in names.values()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (target := resolve(node)):
            reads.setdefault(target, set())
        if isinstance(node, ast.Call) and (target := resolve(node.func)):
            reads.setdefault(target, set()).update(
                kw.arg for kw in node.keywords if kw.arg)
    return reads


def test_names_the_benchmark_reads_exist():
    # perfbench wraps each `module.name` of its tracer's TARGETS, its
    # files read module attributes and pass them keyword arguments, and
    # its rounds read each builtin problem's `periodic` and
    # `energy_params`; read from its source, so the check needs no
    # perfbench import
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
    reads = {path.name: _benchmark_reads(path)
             for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert any(keywords for found in reads.values()
               for keywords in found.values())
    for file, found in reads.items():
        for target, keywords in sorted(found.items()):
            module, _, name = target.partition(".")
            obj = getattr(importlib.import_module(f"expfem.{module}"), name,
                          None)
            if obj is None:
                missing.append(f"{file}: {target}")
                continue
            params = inspect.signature(obj).parameters if keywords else {}
            missing += [f"{file}: {target}({kw}=...)"
                        for kw in sorted(keywords) if kw not in params]
    assert not missing, f"names perfbench reads, not in expfem: {missing}"
    for name, factory in BUILTIN_FACTORIES.items():
        problem = factory()
        assert isinstance(problem.periodic, bool), name
        assert hasattr(problem, "energy_params"), name
