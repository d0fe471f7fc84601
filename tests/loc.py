"""Line counts of a source tree: raw lines, and code-only lines.

    python tests/loc.py [DIR ...]        # default: src

A code-only line holds a token other than a comment or a docstring (the
string that opens a module, class or function body); blank lines,
comment lines and docstring lines are not counted.  A token that spans
lines, such as a multi-line string that is not a docstring, counts every
line it spans.  It prints one line per directory: the two counts summed
over its `*.py` files, then the directory.  It uses only the standard
library and imports nothing it counts.  Its file name does not start with
`test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (row, column) where each docstring of `source` starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(raw lines, code-only lines) of one file's text."""
    docstrings = _docstring_starts(source)
    code_rows: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.type == tokenize.STRING and token.start in docstrings:
            continue
        code_rows.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code_rows)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=["src"])
    for directory in parser.parse_args(argv).dirs:
        raw = code = 0
        for path in sorted(pathlib.Path(directory).rglob("*.py")):
            r, c = count(path.read_text(encoding="utf-8"))
            raw, code = raw + r, code + c
        print(f"raw {raw} code {code} {directory}")


if __name__ == "__main__":
    main()
