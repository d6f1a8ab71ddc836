from code_lines import code_lines, main

# each kind of line: blanks, comments and the module, class and function
# docstrings do not count; a continued expression and a string that is no
# docstring count on every line
SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # code with a trailing comment


class Box:
    """A class docstring."""

    def size(self, x):
        """A function
        docstring."""
        total = (x +
                 1)
        more = 2 + \\
            3
        text = """a string
that is no docstring"""
        return total, more, text, os.sep


async def wait():
    """An async function's docstring."""
    "a string statement after the docstring"
'''
# the numbers of the lines that count
COUNTED = [5, 8, 11, 14, 15, 16, 17, 18, 19, 20, 23, 25]


def test_code_lines_count_each_kind_of_line():
    assert code_lines(SOURCE) == len(COUNTED)


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  b.py", f"{len(COUNTED):6d}  pkg/a.py",
        f"{len(COUNTED) + 1:6d}  total"]
