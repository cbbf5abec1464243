"""Size of the package source: its lines and its code lines.

    python tests/test_src_size.py

prints both counts for each module of src/cavityrad/*.py, then their
totals. A code line holds part of a token other than a comment and lies
outside every docstring, so blank, comment and docstring lines are not
code. A statement split over several lines counts each of them. The
counts are a report, not a size gate.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cavityrad"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def line_counts(text):
    """(lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(text.splitlines()), len(code)


def module_counts():
    """{module file name: (lines, code lines)} for the package's modules."""
    return {path.name: line_counts(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def src_counts():
    """(lines, code lines) summed over the package's modules."""
    counts = module_counts().values()
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def test_line_counts_skip_blanks_comments_and_docstrings():
    text = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(a,\n"
        "      b):  # a comment after code\n"
        '    """Function docstring."""\n'
        "    return (a +\n"
        "\n"
        "            b)\n"
        "\n"
        "class C:\n"
        '    """Class\n'
        '    docstring."""\n'
        '    s = """not a\n'
        '    docstring"""\n'
    )
    # code: the two def lines, return's two non-blank lines, class and s's two lines
    assert line_counts(text) == (16, 7)


def test_src_counts_are_positive():
    lines, code = src_counts()
    assert 0 < code < lines


if __name__ == "__main__":
    for name, (lines, code) in module_counts().items():
        print("%-12s %5d lines, %5d code lines" % (name, lines, code))
    lines, code = src_counts()
    print("src/cavityrad/*.py: %d lines, %d code lines" % (lines, code))
