"""README's figures about the tree agree with the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_src_line_count():
    stated = re.search(r"`src/` is ([\d,]+) lines", (ROOT / "README.md").read_text())
    assert stated, "README states no `src/` line count"
    counted = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "weyldeform").glob("*.py"))
    assert int(stated[1].replace(",", "")) == counted
