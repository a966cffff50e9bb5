"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example_blocks():
    text = README.read_text()
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_example_runs(capsys):
    blocks = library_example_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block reuses the first one's w
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "dB vs source" in out
    assert "iterations:" in out
