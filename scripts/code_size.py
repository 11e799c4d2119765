#!/usr/bin/env python3
"""Print the size of each module of src/sgc, and of the package in total.

Each row gives the module's line count (as `wc -l` counts it) and its code
lines: the lines that hold a token other than a comment, once the lines of
every docstring (a module's, class's or function's first statement, when it
is a string) are taken out.  Deleted prose is no code reduction, so the code
column is the size that counts:

    python3 scripts/code_size.py

The last row, `total`, sums the module rows.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sgc"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def size(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs)


def main() -> None:
    rows = [(path.name, *size(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<18}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<18}{lines:>7}{code:>7}")


if __name__ == "__main__":
    main()
