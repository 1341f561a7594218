"""Line counts of the library, src/maxsat: its total lines and its
code-only lines, which leave out blank lines, comment-only lines and the
lines of docstrings (the first statement of a module, class or function
when that is a string). A line with code and a trailing comment counts as
code, and so does each line of a statement that spans several.

    python tests/loc.py

prints the two counts; a path, when given, replaces src/maxsat:

    python tests/loc.py path/to/package

Not collected by pytest.
"""

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "maxsat")
# tokens that are not code on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple:
    """(total, code-only) lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def package_counts(path: str) -> tuple:
    """(total, code-only) lines over the .py files directly under path."""
    total = code = 0
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                t, c = counts(fh.read())
            total, code = total + t, code + c
    return total, code


if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else SRC
    total, code = package_counts(path)
    print(f"{path}: {total} lines, {code} code-only")
