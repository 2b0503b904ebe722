import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    # a comment line
    import os  # a trailing comment


    class Record:
        """Class docstring."""

        size = 3

        def area(self):
            """Function docstring,

            with a blank line inside."""
            # comment inside a function
            return self.size * (
                self.size)

    async def fetch():
        \'\'\'Async function docstring.\'\'\'
        return 1

    TEMPLATE = """
    not a docstring:
    every line counts
    """
    x = 1; """a string after a statement is not a docstring"""
    ''')


def test_counts_code_lines_of_a_literal_module():
    # import, class, size, def, return x2, async def, return,
    # TEMPLATE x4, x = 1
    assert code_lines.code_lines(MODULE) == 13


def test_blank_and_comment_only_source_is_zero():
    assert code_lines.code_lines("\n# only a comment\n\n") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    13  a.py\n     2  b.py\n    15  total\n"
