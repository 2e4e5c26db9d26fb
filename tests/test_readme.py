"""The README's Library example runs against the current API."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
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
