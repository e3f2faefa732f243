"""Every forward that scores a task goes through ``TaskView``: inside
the package, the embedding forward and the head are each called from
one site."""

import io
import tokenize
from pathlib import Path

import pytest

import gnncl


def call_sites(root: Path, name: str) -> list:
    """``path:line`` of every call ``name(`` or ``obj.name(`` under
    ``root``; a definition (``def name(``) is not a call."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        toks = [t for t in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline)
            if t.type not in (tokenize.NL, tokenize.NEWLINE,
                              tokenize.COMMENT)]
        for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
            if (tok.type == tokenize.NAME and tok.string == name
                    and nxt.string == "(" and prev.string != "def"):
                sites.append(f"{path.relative_to(root)}:{tok.start[0]}")
    return sites


@pytest.mark.parametrize("name", ["forward_embeddings", "head_logits"])
def test_one_call_site_in_the_package(name):
    sites = call_sites(Path(gnncl.__file__).parent, name)
    assert len(sites) == 1, f"{name} is called from {sites}"
    assert sites[0].startswith("continual/strategies.py:")
