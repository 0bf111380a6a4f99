"""Line counts of the edgewave modules: total lines and code lines.

A code line is a line that holds a token of the program: blank lines,
comment-only lines and the lines of module, class and function docstrings
do not count.  A statement or string that spans lines counts each of them.

Run from the repository root:

    python tools/code_lines.py [FILE ...]

With no FILE it counts every module of src/edgewave, one line each, then
the sum.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of the module, its classes
    and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(total lines, code lines) of the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [pathlib.Path(p) for p in argv] or sorted(
        (root / "src" / "edgewave").glob("*.py"))
    counts = [count(path.read_text()) for path in paths]
    for path, (total, code) in zip(paths, counts):
        print(f"{path.stem:>12} {total:6d} {code:6d}")
    if len(paths) > 1:
        total, code = map(sum, zip(*counts))
        print(f"{'total':>12} {total:6d} {code:6d}")


if __name__ == "__main__":
    main(sys.argv[1:])
