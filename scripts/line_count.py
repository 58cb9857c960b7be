"""Total and code lines of the Python files under each given directory.

Usage:

    python3 scripts/line_count.py DIR [DIR ...]

Prints one line per directory, `DIR: T lines, C code`, over every
`*.py` file below it. A code line is a non-blank line that is neither a
`#` comment nor part of a module, class or function docstring: the
count that the ROADMAP's design aim asks to fall.
"""

import argparse
import ast
import sys
from pathlib import Path


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text):
    """(total lines, code lines) of one Python source text."""
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")
               and i not in skip)
    return len(lines), code


def count_dir(directory):
    """(total lines, code lines) summed over the `*.py` files below it."""
    total = code = 0
    for path in sorted(Path(directory).rglob("*.py")):
        t, c = count_source(path.read_text())
        total, code = total + t, code + c
    return total, code


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Count total and code lines of Python sources.")
    parser.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    for directory in args.dirs:
        if not directory.is_dir():
            parser.error(f"not a directory: {directory}")
        total, code = count_dir(directory)
        print(f"{directory}: {total} lines, {code} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
