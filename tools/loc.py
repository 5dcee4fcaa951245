"""Count the lines of a directory of Python modules by kind.

Prints one JSON line for every `*.py` file directly in the directory:

    {"code": 884, "docstring": 318, "comment": 32, "blank": 246, "total": 1480}

A blank line holds only whitespace, inside a docstring or not.  A
docstring is the first statement of a module, class or function when
that statement is a string, and its other lines count as docstring.  A
comment line is one whose first token is a comment, and every other
line is code (the lines of any other string included).  The four kinds
add up to the total that `wc -l` gives for files that end in a newline.

    python3 tools/loc.py src/frcage
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.INDENT, tokenize.DEDENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.ENCODING, tokenize.ENDMARKER}


def kinds(text: str) -> list[str]:
    """The kind of each line of one module's source."""
    lines = text.splitlines()
    out = ["blank" if not line.strip() else "code" for line in lines]
    first = set()  # lines whose first token has been seen
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row = tok.start[0]
        if tok.type in _LAYOUT or row in first:
            continue
        first.add(row)
        if tok.type == tokenize.COMMENT:
            out[row - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                for i in range(doc.lineno - 1, doc.end_lineno):
                    if out[i] != "blank":
                        out[i] = "docstring"
    return out


def count(directory: Path) -> dict:
    """Lines of each kind, and their total, over the directory's modules."""
    totals = dict.fromkeys(KINDS, 0)
    for path in sorted(directory.glob("*.py")):
        for kind in kinds(path.read_text(encoding="utf-8")):
            totals[kind] += 1
    return {**totals, "total": sum(totals.values())}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: loc.py DIRECTORY", file=sys.stderr)
        return 2
    print(json.dumps(count(Path(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
