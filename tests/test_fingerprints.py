"""The committed fingerprints: every dataset and run of
``scripts/fingerprints.py``, in-process, against
``tests/fingerprints.txt``.

A change that moves no float keeps every line. One that regroups floats
on purpose rewrites the file with the script's output and lists each
changed line in CHANGES.md.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "fingerprints_script", ROOT / "scripts" / "fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprints_match_committed_lines():
    lines = (ROOT / "tests" / "fingerprints.txt").read_text().splitlines()
    want = dict(line.split(" ", 1) for line in lines)
    got = {name: text for name, text, _ in _load_script().fingerprints()}
    assert list(got) == list(want), "the script's runs changed"
    differ = [f"{name}: got {got[name]}, committed {want[name]}"
              for name in want if got[name] != want[name]]
    assert not differ, "fingerprints differ:\n" + "\n".join(differ)
