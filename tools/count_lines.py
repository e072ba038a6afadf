"""Count the lines of each dcsim module, all of them and code only.

    python3 tools/count_lines.py [SOURCE_DIR]

For each module under SOURCE_DIR (by default the checkout's ``src/dcsim``)
and in total, prints its line count as ``wc -l`` gives it and its
code-only count: the lines left after blank lines, comment-only lines and
module, class and function docstrings are taken out.  Only the standard
library is needed.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """Line numbers taken by the docstrings of ``tree``'s module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str):
    """(``wc -l`` count, code-only count) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = sum(1 for n, line in enumerate(source.splitlines(), start=1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))
    return source.count("\n"), code


def main(argv) -> int:
    src = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "dcsim"
    rows = [(path.stem, *count(path.read_text(encoding="utf-8")))
            for path in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print("%-*s  %6s  %9s" % (width, "module", "wc -l", "code only"))
    for name, lines, code in rows:
        print("%-*s  %6d  %9d" % (width, name, lines, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
