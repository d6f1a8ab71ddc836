"""Every module of the package and the tests uses each name it imports,
every top-level function and class of the package is used in it, and
only `transforms` imports `scipy.fft`.

No linter runs on this repository, so this is the check.  A package
`__init__.py` imports names to re-export them and is left out.
"""

import ast
from pathlib import Path

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
              if path.name != "__init__.py"
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
    # a re-export in `__init__.py` is an import, not a use, and a
    # definition's use of its own name does not count
    statements = [(path.stem, stmt)
                  for path in sorted((ROOT / "src" / "expfem").glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [_names_read(stmt) for _, stmt in statements]
    unused = [f"{module}.{stmt.name}"
              for i, (module, stmt) in enumerate(statements)
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and module != "__init__"
              and f"{module}.{stmt.name}" not in UNREFERENCED_ALLOWED
              and not any(stmt.name in names
                          for j, names in enumerate(reads) if j != i)]
    assert not unused, f"defined in src/expfem but used nowhere there: {unused}"


def _imports_scipy_fft(path):
    """Whether a module imports `scipy.fft` in any spelling."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        else:
            continue
        if any(name == "scipy.fft" or name.startswith("scipy.fft.")
               for name in names):
            return True
    return False


def test_only_transforms_imports_scipy_fft():
    package = ROOT / "src" / "expfem"
    assert _imports_scipy_fft(package / "transforms.py")
    others = [path.name for path in sorted(package.rglob("*.py"))
              if path.name != "transforms.py" and _imports_scipy_fft(path)]
    assert not others, f"modules that import scipy.fft: {others}"
