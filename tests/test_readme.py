"""README's library quick start, run verbatim: every printed line must be
the value its comment states."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def stated_output(lines: list[str], i: int) -> str:
    """The value the comment on print line i states.

    A comment ending in ':' puts the value on the next comment line;
    otherwise the value is the comment up to ':' or '->'.
    """
    comment = lines[i].split("#", 1)[1].strip()
    if comment.endswith(":"):
        return lines[i + 1].strip().lstrip("#").strip()
    return re.split(r":|->", comment)[0].strip()


def test_readme_has_two_library_blocks():
    assert len(python_blocks()) == 2


def test_quick_start_prints_what_its_comments_state():
    for block in python_blocks():
        lines = block.splitlines()
        stated = [stated_output(lines, i) for i, ln in enumerate(lines) if ln.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == stated
