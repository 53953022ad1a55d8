"""Every module of `src/cstnu/` stays under 4096 parser tokens: CPython
3.11's parser doubles its token array there, which steps up peak memory."""

import tokenize
from pathlib import Path

import cstnu


def test_every_module_is_under_4096_tokens():
    sizes = {}
    for path in Path(cstnu.__file__).parent.glob("*.py"):
        with path.open("rb") as f:
            sizes[path.name] = sum(1 for t in tokenize.tokenize(f.readline) if t.type not in
                                   (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))
    assert "search.py" in sizes and "semantics.py" in sizes
    assert {name: n for name, n in sizes.items() if n >= 4096} == {}
