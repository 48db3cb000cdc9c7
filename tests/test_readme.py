"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks():
    """The ```python blocks under "## Library use", in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.S | re.M)


def test_library_use_snippets_run():
    blocks = library_use_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
