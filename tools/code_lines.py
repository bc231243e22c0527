"""Count the code lines of a Python source tree.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indents). A docstring here is any string that stands as a
statement of its own, the way module, class and function docstrings do; a
string that spans lines inside an expression counts on every line it spans.

    python3 tools/code_lines.py [ROOT ...]    # default: src/softki

prints one "<count> <root>" line per root; a root is a directory, whose
.py files are counted, or one file.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}
# a string between one of these and a NEWLINE is a statement of its own
_STATEMENT_START = _LAYOUT - {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        tokens = [tok for tok in tokenize.tokenize(fh.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    # the first token is ENCODING and the last ENDMARKER, so every other one
    # has a neighbour on each side
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and before.type in _STATEMENT_START
                     and after.type == tokenize.NEWLINE)
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def tree_lines(root: Path) -> int:
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    return sum(code_lines(path) for path in paths)


def main(argv=None) -> int:
    roots = (argv if argv is not None else sys.argv[1:]) or ["src/softki"]
    for root in roots:
        print(tree_lines(Path(root)), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
