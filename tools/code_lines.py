"""Count each Python module's code lines: non-blank lines outside
comments and docstrings.

A line counts when a token other than a comment or a line break starts
on it or runs across it (so every line of a multi-line string or call
counts), unless it lies in a module, class or function docstring.

    python tools/code_lines.py src/vibronic/*.py
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {path: code_lines(path) for path in sys.argv[1:]}
    for path, n in counts.items():
        print(f"{n:6d} {path}")
    print(f"{sum(counts.values()):6d} total")
