"""scripts/line_count.py: code lines leave out blanks, `#` comments and
module, class and function docstrings, but not other strings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "line_count", ROOT / "scripts" / "line_count.py")
line_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_count)

# 15 lines; the 5 code lines are import, class, def, s = ... and return
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


class Box:
    """One-line class docstring."""

    # a comment
    def area(self):
        """Function
        docstring."""
        s = """a string that is no docstring"""
        return math.pi * len(s)
'''


def test_count_source_of_a_synthetic_module():
    assert line_count.count_source(SOURCE) == (15, 5)
    assert line_count.count_source("") == (0, 0)


def test_main_sums_the_modules_below_each_directory(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert line_count.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == f"{tmp_path / 'pkg'}: 18 lines, 6 code\n"
