"""The README's Library example and its command lines run against the
current API."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from superw.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    section = _section("Library")
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    # a top-level expression commented with a literal must evaluate to it
    checked = 0
    for line in block.splitlines():
        m = re.fullmatch(r"(\S.*?)\s+#\s+(.+)", line)
        if not m:
            continue
        try:
            want = ast.literal_eval(m.group(2))
        except (ValueError, SyntaxError):
            continue
        assert eval(m.group(1), ns) == want, line
        checked += 1
    assert checked == 2


def _command_line_files() -> dict[str, object]:
    """Each JSON block of the Command line section, under the last
    `name.json` its preceding prose names."""
    files = {}
    parts = re.split(r"```json\n(.*?)```", _section("Command line"), flags=re.S)
    for prose, block in zip(parts[::2], parts[1::2]):
        name = re.findall(r"`([\w.-]+\.json)`", prose)[-1]
        files[name] = json.loads(block)
    return files


def _command_lines(verb: str) -> list[list[str]]:
    """The Command line section's `superw <verb> ...` lines, as argv."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", _section("Command line"), re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:2] == ["superw", verb]:
                lines.append(argv[1:])
    return lines


@pytest.mark.parametrize("verb", ["pyramid", "dims", "classify", "solve"])
def test_command_line_example_runs(verb, tmp_path, monkeypatch, capsys):
    for name, doc in _command_line_files().items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    lines = _command_lines(verb)
    assert lines
    for argv in lines:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
