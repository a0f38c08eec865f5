"""Every ```python block of README.md runs without error."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# Each block is padded with blank lines, so that a traceback names its
# line in README.md.
BLOCKS = [
    "\n" * _TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, flags=re.S | re.M)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
