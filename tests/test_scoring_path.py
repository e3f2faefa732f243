"""Every forward that scores a task goes through ``TaskView``: inside
the package, the embedding forward and the head are each called from
one site."""

import io
import tokenize
from pathlib import Path

import pytest

import gnncl


PACKAGE = Path(gnncl.__file__).parent


def token_sites(root: Path, name: str, keep) -> list:
    """``path:line`` of every NAME token ``name`` under ``root`` for
    which ``keep(previous token, next token)`` holds."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        toks = [t for t in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline)
            if t.type not in (tokenize.NL, tokenize.NEWLINE,
                              tokenize.COMMENT)]
        for prev, tok, nxt in zip(toks, toks[1:], toks[2:]):
            if (tok.type == tokenize.NAME and tok.string == name
                    and keep(prev.string, nxt.string)):
                sites.append(f"{path.relative_to(root)}:{tok.start[0]}")
    return sites


def call_sites(root: Path, name: str) -> list:
    """Every call ``name(`` or ``obj.name(``; a definition (``def
    name(``) is not a call."""
    return token_sites(root, name,
                       lambda prev, nxt: nxt == "(" and prev != "def")


@pytest.mark.parametrize("name", ["forward_embeddings", "head_logits"])
def test_one_call_site_in_the_package(name):
    sites = call_sites(PACKAGE, name)
    assert len(sites) == 1, f"{name} is called from {sites}"
    assert sites[0].startswith("continual/strategies.py:")


# whether a task is a node or a graph task, and the labels of each kind,
# are read in TaskView alone; ForwardContext builds the graph labels
KIND_READERS = {
    "node": ({"continual/strategies.py"}, lambda prev, nxt: prev == "."),
    "local_labels": ({"continual/strategies.py"}, lambda prev, nxt: True),
    "graph_labels": ({"continual/strategies.py", "nn/model.py"},
                     lambda prev, nxt: True),
}


@pytest.mark.parametrize("name", sorted(KIND_READERS))
def test_task_kind_read_only_in_task_view(name):
    files, keep = KIND_READERS[name]
    sites = token_sites(PACKAGE, name, keep)
    assert {site.split(":")[0] for site in sites} == files, sites
