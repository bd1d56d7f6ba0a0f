"""Print the number of code lines under ``src/``.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of docstrings (a string literal that is the
first statement of a module, class or function) do not count.  A token
that spans lines, such as a triple-quoted string that is not a
docstring, counts every line it spans.

usage: python .github/code_lines.py [ROOT]   (ROOT defaults to src)
"""

import ast
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python file ``path``."""
    docs = docstring_lines(ast.parse(path.read_text(), str(path)))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(root="src"):
    paths = sorted(pathlib.Path(root).rglob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
