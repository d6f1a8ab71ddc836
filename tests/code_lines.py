"""Code lines of Python sources: no blanks, comments or docstrings.

    python tests/code_lines.py [DIR ...]    # default: this tree's src

A code line is a line that holds a token which is not part of a
comment or of a module, class or function docstring: a line of a
continued expression counts, and so does each line of a multi-line
string that is not a docstring.  The count is printed per file, each
path relative to the directory it was found under, and in total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree):
    """The (start, end) token positions of every module, class and
    function docstring of a parsed source."""
    spans = []
    for node in ast.walk(tree):
        if not (isinstance(node, _DOCUMENTED) and node.body):
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source):
    """The number of code lines of a Python source text."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(
                lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    dirs = [Path(d) for d in (argv or [ROOT / "src"])]
    total = 0
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path.relative_to(top)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
