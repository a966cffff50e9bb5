"""The README's library example runs as written, its config table lists the config schema, and
its package list names the package's modules."""

import re
from dataclasses import fields
from pathlib import Path

from sysaware.cli import ExperimentConfig, TheoryConfig

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


def test_readme_config_table_lists_the_schema_keys_in_order():
    section = README.read_text().split("### Config format", 1)[1].split("\n## ", 1)[0]
    table_keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    schema_keys = []
    for cls in (ExperimentConfig, TheoryConfig):  # output_dir, in both, is listed once
        schema_keys += [f.metadata["key"] for f in fields(cls) if f.metadata["key"] not in schema_keys]
    assert table_keys == schema_keys


def test_readme_package_list_names_every_module():
    section = README.read_text().split("The package contains:", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^- `sysaware\.(\w+)`", section, flags=re.MULTILINE)
    package = README.parent / "src" / "sysaware"
    modules = [path.stem for path in package.glob("*.py") if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)
