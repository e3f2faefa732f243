"""Every name that ``gnncl.engine`` exports is used inside the package."""

import io
import tokenize
from pathlib import Path

import gnncl
import gnncl.engine


def used_names(root: Path, skip: Path) -> set:
    """Names read anywhere under ``root`` except in ``skip``. A name
    after ``def``/``class`` (its definition) or after ``.`` (another
    object's attribute, such as ``np.zeros``) does not count."""
    names = set()
    for path in root.rglob("*.py"):
        if path == skip:
            continue
        prev = None
        for tok in tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class",
                                                          "."):
                names.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE,
                                tokenize.COMMENT):
                prev = tok.string
    return names


def test_every_engine_export_is_used_in_the_package():
    root = Path(gnncl.__file__).parent
    used = used_names(root, root / "engine" / "__init__.py")
    unused = sorted(set(gnncl.engine.__all__) - used)
    assert not unused, f"gnncl.engine exports names nothing uses: {unused}"
