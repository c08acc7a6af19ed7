"""Count the lines of each ``src/bnt`` module: all of them, and code alone.

    python3 tools/src_lines.py            # the working tree's src/bnt
    python3 tools/src_lines.py DIR        # another package directory

A code line holds a token of a statement: blank lines, comment lines and
the lines of a module's, class's or function's docstring are not code.
A line of a multi-line string that is not a docstring is code.  Prints one
line per module, ``LINES CODE NAME``, then their sums.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of ``source``."""
    code = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode("utf-8")).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "bnt")
    totals = [0, 0]
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as f:
            lines, code = count(f.read())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d} {name}")
    print(f"{totals[0]:6d} {totals[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
