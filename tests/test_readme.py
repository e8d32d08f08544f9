"""README's library example runs against the current public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE))
    assert blocks, "README has no python example"
    for block in blocks:
        # padded with blank lines so that a traceback names the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
