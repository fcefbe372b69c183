"""The README's "Library use" example runs as written and prints the values
its comments give."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_runs_as_documented():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:  # the second block reads the first one's names
            exec(block, namespace)
    out = printed.getvalue()
    assert out.startswith("0.263")
    assert re.search(r"^3\.9 0\.0999\d* 1\.95$", out, re.M)
