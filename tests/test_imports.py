"""Every module of the package and the tests uses each name it imports,
and only `transforms` imports `scipy.fft`.

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
