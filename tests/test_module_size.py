"""Each module of the package stays under 4,096 parser tokens.

A process that finds no cached bytecode compiles each module it imports,
and the parser holds a module's tokens in an array that it grows by
doubling.  bijection.py padded past 4,096 tokens raised the peak resident
size of a process that imports altperm.verify and altperm.cli with
PYTHONDONTWRITEBYTECODE=1 by about 120 KB (Python 3.11), more than the
benchmark's 0.1 MB bound on peak_rss_mb.
Comments, NL tokens and the encoding marker are not counted: the parser
never sees them.
"""
import tokenize
from pathlib import Path

import pytest

import altperm

LIMIT = 4096
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
MODULES = sorted(Path(altperm.__file__).parent.glob("*.py"))


def parser_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for tok in tokenize.tokenize(f.readline) if tok.type not in SKIPPED)


def test_the_package_modules_are_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_token_buffer(path):
    assert parser_tokens(path) < LIMIT
