"""The code-line counter on a tiny module."""

import code_lines

TINY = '''"""Module docstring,
on two lines."""

# a comment line
import math  # a trailing comment keeps its line


def area(r):
    """Function docstring."""

    x = (math.pi
         * r ** 2)
    return x


class Shape:
    """Class docstring."""

    NOTE = """a string that is not a docstring
    spans two lines"""
'''


def test_counts_code_not_comments_or_docstrings():
    # import, def, the two lines of x, return, class, the two lines of NOTE
    assert code_lines.code_lines(TINY) == 8


def test_empty_and_comment_only_sources():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(TINY)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
