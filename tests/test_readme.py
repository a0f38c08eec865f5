"""The ```python blocks of README.md run without error, its
``$ branchwiener`` transcripts print what the README shows, and its
snapshot file format is the one the package writes."""

import re
import shlex
from pathlib import Path

import pytest

from branchwiener import cli
from branchwiener import simulator as sim

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# Each block is padded with blank lines, so that a traceback names its
# line in README.md.
BLOCKS = [
    "\n" * _TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, flags=re.S | re.M)
]

#: (command, printed lines) for each `$ ` line of a sh block.
SHELL = [
    (command, output.strip("\n").splitlines())
    for block in re.findall(r"^```sh\n(.*?)^```", _TEXT, flags=re.S | re.M)
    for command, _, output in (e.partition("\n") for e in re.split(r"^\$ ", block, flags=re.M))
]

#: Input files the README shows: a line naming `file` and ending in ":",
#: then a json block, or `$ cat file` and the lines it prints.
FILES = dict(re.findall(r"^`([\w.]+)`[^\n]*:\n\n```json\n(.*?)^```", _TEXT, flags=re.S | re.M))
FILES.update((c.split()[1], "\n".join(out) + "\n") for c, out in SHELL if c.startswith("cat "))

TRANSCRIPTS = [(c, out) for c, out in SHELL if c.startswith("branchwiener ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_transcripts_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert [c.split()[1] for c, _ in TRANSCRIPTS] == [
        "simulate", "count", "estimate-n", "predict", "infer", "predict", "kernel-check",
        "diagnose"
    ]
    assert {"config.json", "region.json", "counts.csv", "sets.json"} <= set(FILES)
    for command, expected in TRANSCRIPTS:
        assert cli.main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command


def test_readme_snapshot_format_is_the_one_written(tmp_path):
    start = _TEXT.index("\n", _TEXT.index("#### Snapshot file format"))
    section = _TEXT[start:start + re.search(r"^#{2,4} ", _TEXT[start:], re.M).start()]
    versions = re.findall(r"format version (\d+)|`version` (\d+)", section)
    assert versions and {int(a or b) for a, b in versions} == {sim.SNAPSHOT_FORMAT_VERSION}
    path = tmp_path / "run.snap"
    sim.run(sim.SimConfig(d=2, pmf=(0.0, 0.5, 0.5), seed=1, t_max=2), out=str(path))
    part = next(r for _, r in oracles.snapshot_records(path.read_bytes()) if r["type"] == "part")
    (shown,) = re.findall(r'`\{"type": "part", [^}]*\}`', section)
    assert [key.split(":")[0].strip(' "') for key in shown.strip("`{}").split(",")] == list(part)
